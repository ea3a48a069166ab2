"""Binary netpbm readers and writers (P6 color, P5 grayscale, maxval 255).

Readers parse headers token by token and report failures with the byte
offset at which the file stopped making sense. Writers emit a canonical
header, so writing the same array twice produces identical bytes.

Readers return the bytes a file holds, uint8 frames and masks;
``to_unit_float`` turns a frame into the float64 values the model takes.
"""

import os

import numpy as np

from .errors import FormatError


def _encode_header(magic: str, width: int, height: int) -> bytes:
    return f"{magic}\n{width} {height}\n255\n".encode("ascii")


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0, 1] as binary P6."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"write_ppm expects (H, W, 3), got shape {rgb.shape}")
    h, w, _ = rgb.shape
    payload = probability_to_byte(rgb)
    with open(path, "wb") as fh:
        fh.write(_encode_header("P6", w, h))
        fh.write(payload.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) uint8 raster as binary P5."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise FormatError(f"write_pgm expects (H, W), got shape {gray.shape}")
    if gray.dtype != np.uint8:
        if np.issubdtype(gray.dtype, np.integer) and gray.min() >= 0 and gray.max() <= 255:
            gray = gray.astype(np.uint8)
        else:
            raise FormatError("write_pgm expects uint8 values in [0, 255]")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(_encode_header("P5", w, h))
        fh.write(gray.tobytes())


def probability_to_byte(prob: np.ndarray) -> np.ndarray:
    """Quantize [0, 1] values (a probability plane, an RGB image) to uint8."""
    return np.clip(np.rint(np.asarray(prob) * 255.0), 0, 255).astype(np.uint8)


# the separators netpbm allows between header tokens: ASCII whitespace only
_WHITESPACE = b" \t\n\v\f\r"


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, message: str):
        raise FormatError(f"{self.path}: {message}", offset=self.pos)

    def _skip_separators(self) -> None:
        # whitespace and '#' comments may separate header tokens
        while self.pos < len(self.blob):
            c = self.blob[self.pos]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == ord("#"):
                while self.pos < len(self.blob) and self.blob[self.pos] not in (10, 13):
                    self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self._skip_separators()
        if self.pos >= len(self.blob):
            self.fail("truncated header")
        start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos] not in _WHITESPACE:
            self.pos += 1
        return self.blob[start : self.pos]

    def reject(self, tok: bytes, good: int, what: str):
        """Fail at the first byte of the token just read past its first
        ``good`` bytes, the first that does not belong."""
        self.pos -= len(tok) - good
        self.fail(f"expected {what}, found {tok!r}")

    def integer(self, what: str) -> int:
        """A token of ASCII digits only."""
        tok = self.token()
        digits = len(tok) - len(tok.lstrip(b"0123456789"))
        if digits < len(tok):
            self.reject(tok, digits, what)
        return int(tok)

    def payload(self, count: int) -> bytes:
        # exactly one separator byte between maxval and the raster data
        if self.pos >= len(self.blob) or self.blob[self.pos] not in _WHITESPACE:
            self.fail("missing separator before raster data")
        self.pos += 1
        data = self.blob[self.pos : self.pos + count]
        if len(data) < count:
            self.pos = len(self.blob)
            self.fail(f"raster data truncated, needed {count} bytes")
        self.pos += count
        return data


def _read(path, magic: str, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    tok = r.token()
    if tok != magic.encode("ascii"):
        r.reject(tok, len(os.path.commonprefix([tok, magic.encode("ascii")])), f"{magic} magic")
    width = r.integer("width")
    height = r.integer("height")
    if width <= 0 or height <= 0:
        r.fail(f"invalid raster size {width}x{height}")
    maxval = r.integer("maxval")
    if maxval != 255:
        r.fail(f"unsupported maxval {maxval}, only 255 is handled")
    data = r.payload(width * height * channels)
    arr = np.frombuffer(data, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def to_unit_float(image) -> np.ndarray:
    """A uint8 image as float64 in [0, 1]; float input passes through unchanged."""
    image = np.asarray(image)
    if image.dtype == np.uint8:
        return image.astype(np.float64) / 255.0
    return image.astype(np.float64, copy=False)


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into an (H, W, 3) uint8 array."""
    return _read(path, "P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read binary P5 into an (H, W) uint8 array."""
    return _read(path, "P5", 1)
