"""Synthetic moving-shape videos and the data plumbing around them.

Sequences are built from analytic shapes (discs, rectangles, triangles)
that translate, drift in scale and color, and occlude each other over a
low-frequency textured background. Because shapes stay analytic, masks are
exact by construction and motion has a closed form the tests can check
against. The module also covers the static-image augmentation used for
pretraining, triplet sampling for the video stage, and the on-disk layout.

Dataset layout: ``<root>/<name>/frames/%05d.ppm``,
``<root>/<name>/masks/%05d.pgm``, and a ``scene.cfg`` key=value file
recording the generating configuration. Anyone wiring real data (for
instance DAVIS-style indexed annotations) only needs to convert images to
binary PPM and label masks to single-channel PGM with pixel value = object
id, 0 = background.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, FormatError
from .netpbm import read_pgm, read_ppm, to_unit_float, write_pgm, write_ppm
from .rng import make_rng, spawn_rng
from .tensor import Tensor

SHAPES = ("disc", "rectangle", "triangle")
# The smallest height and width ``random_scene`` places objects into for
# every seed: the occlusion preset's crossing object needs a side of at least
# 2 * 1.25 * (0.15 * side + 2) + 2, that is 11.2 pixels.
MIN_SCENE_SIDE = 12


@dataclass(frozen=True)
class ObjectSpec:
    """One tracked shape: geometry at t=0 plus its per-frame evolution.

    ``size`` is the disc radius, the rectangle half-extent, or the
    triangle circumradius-ish half-height; every shape fits in the square
    of half-side ``size`` around its center, which placement and clamping
    keep inside the frame. ``scale_drift`` multiplies the
    size each frame; ``color_drift`` is added to the color each frame.
    """

    shape: str
    center: tuple[float, float]  # (y, x)
    size: float
    color: tuple[float, float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    scale_drift: float = 1.0
    color_drift: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigError(f"unknown shape {self.shape!r}, expected one of {SHAPES}")
        if self.size <= 0.0:
            raise ConfigError(f"object size must be positive, got {self.size}")


@dataclass(frozen=True)
class OcclusionEvent:
    """Records that object ``top`` passes over object ``bottom`` at ``frame``.

    Rendering always draws later-listed objects over earlier ones, so the
    top object must come later in the object list.
    """

    top: int
    bottom: int
    frame: int

    def __post_init__(self):
        if self.top <= self.bottom:
            raise ConfigError(
                f"occluding object {self.top} must be listed after object {self.bottom}"
            )


def _check_frames(frames: int) -> None:
    if frames < 2:
        raise ConfigError(f"a sequence needs at least 2 frames, got {frames}")


@dataclass(frozen=True)
class SceneConfig:
    resolution: tuple[int, int]  # (height, width)
    frames: int
    objects: tuple[ObjectSpec, ...]
    occlusions: tuple[OcclusionEvent, ...] = ()
    background_seed: int = 0

    def __post_init__(self):
        h, w = self.resolution
        if h < 8 or w < 8:
            raise ConfigError(f"resolution {h}x{w} is too small")
        _check_frames(self.frames)
        if not self.objects:
            raise ConfigError("a scene needs at least one object")
        for i, obj in enumerate(self.objects):
            cy, cx = obj.center
            r = obj.size
            if cy - r < 0 or cy + r > h or cx - r < 0 or cx + r > w:
                raise ConfigError(f"object {i} does not fit inside the frame at t=0")
        for ev in self.occlusions:
            if ev.top >= len(self.objects):
                raise ConfigError(f"occlusion references object {ev.top} of {len(self.objects)}")
            if not 0 <= ev.frame < self.frames:
                raise ConfigError(f"occlusion frame {ev.frame} outside 0..{self.frames - 1}")


@dataclass
class VideoSequence:
    name: str
    frames: list[np.ndarray]  # (H, W, 3): uint8 as loaded, floats in [0, 1] as generated
    masks: list[np.ndarray] | None  # (H, W) int labels, 0 = background; uint8 as loaded


def _inside(shape: str, size: float, dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Vectorized point-in-shape test on center offsets."""
    if shape == "disc":
        return dy * dy + dx * dx <= size * size
    if shape == "rectangle":
        return (np.abs(dy) <= size) & (np.abs(dx) <= size)
    # upward triangle with apex at offset (-s, 0) and base corners at
    # (+s, -s) and (+s, +s), written as three half-plane tests
    s = size
    return (dy <= s) & (2.0 * dx - dy <= s) & (-2.0 * dx - dy <= s)


def _object_state(obj: ObjectSpec, t: int, resolution) -> tuple[float, float, float, np.ndarray]:
    """Center, size, and color of an object at frame t, with the center
    clamped so the shape never leaves the frame."""
    h, w = resolution
    size = obj.size * obj.scale_drift**t
    cy = obj.center[0] + obj.velocity[0] * t
    cx = obj.center[1] + obj.velocity[1] * t
    cy = min(max(cy, size), h - size)
    cx = min(max(cx, size), w - size)
    color = np.clip(np.asarray(obj.color) + t * np.asarray(obj.color_drift), 0.0, 1.0)
    return cy, cx, size, color


def _background(cfg: SceneConfig, seed: int) -> np.ndarray:
    rng = spawn_rng(seed, cfg.background_seed, 91)
    h, w = cfg.resolution
    coarse = rng.uniform(0.15, 0.6, size=(4, 6, 3))
    return ops.bilinear_resize(Tensor(coarse), h, w).array


def generate_sequence(cfg: SceneConfig, seed: int, name: str = "scene") -> VideoSequence:
    """Render every frame and its exact label mask; pure in (cfg, seed)."""
    h, w = cfg.resolution
    ys, xs = np.meshgrid(np.arange(h) + 0.5, np.arange(w) + 0.5, indexing="ij")
    background = _background(cfg, seed)
    frames = []
    masks = []
    for t in range(cfg.frames):
        image = background.copy()
        label = np.zeros((h, w), dtype=np.int64)
        for i, obj in enumerate(cfg.objects):
            cy, cx, size, color = _object_state(obj, t, cfg.resolution)
            hit = _inside(obj.shape, size, ys - cy, xs - cx)
            image[hit] = color
            label[hit] = i + 1
        frames.append(image)
        masks.append(label)
    return VideoSequence(name, frames, masks)


def random_scene(seed: int, preset: str = "default", resolution=(64, 96), frames: int = 8) -> SceneConfig:
    """Draw a SceneConfig from one of two families.

    ``default`` scatters one or two drifting shapes; ``occlusion-heavy``
    always aims the second object across the first one mid-sequence.
    """
    if preset not in ("default", "occlusion-heavy"):
        raise ConfigError(f"unknown preset {preset!r}")
    h, w = resolution
    if min(h, w) < MIN_SCENE_SIDE:
        raise ConfigError(f"resolution {h}x{w}: height and width must be at least {MIN_SCENE_SIDE}")
    _check_frames(frames)  # before the occlusion preset divides by frames // 2
    rng = spawn_rng(seed, 17)

    def draw_object(margin_frac=0.25):
        shape = SHAPES[rng.integers(len(SHAPES))]
        size = float(rng.uniform(0.09, 0.14) * min(h, w) + 2.0)
        r = size * 1.25  # slack for scale drift
        cy = float(rng.uniform(r + h * margin_frac * 0.2, h - r - h * margin_frac * 0.2))
        cx = float(rng.uniform(r + w * margin_frac * 0.2, w - r - w * margin_frac * 0.2))
        color = tuple(float(c) for c in rng.uniform(0.55, 1.0, size=3) * (rng.permutation([1.0, 0.75, 0.35])))
        velocity = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        scale_drift = float(rng.uniform(0.985, 1.015))
        color_drift = tuple(float(d) for d in rng.uniform(-0.012, 0.012, size=3))
        return ObjectSpec(shape, (cy, cx), size, color, velocity, scale_drift, color_drift)

    if preset == "default":
        count = int(rng.integers(1, 3))
        objects = tuple(draw_object() for _ in range(count))
        return SceneConfig((h, w), frames, objects, (), background_seed=int(rng.integers(1 << 16)))

    # occlusion-heavy: object 1 crosses object 0 at mid-sequence, aimed at
    # the bottom object's actual (clamped) position on the crossing frame
    bottom = draw_object()
    cross = frames // 2
    by, bx, _, _ = _object_state(bottom, cross, (h, w))
    top_shape = SHAPES[rng.integers(len(SHAPES))]
    top_size = float(rng.uniform(0.10, 0.15) * min(h, w) + 2.0)
    r = top_size * 1.25
    start_y = float(rng.uniform(r + 1, h - r - 1))
    start_x = float(r + 1) if bx > w / 2 else float(w - r - 1)
    vel = ((by - start_y) / cross, (bx - start_x) / cross)
    top = ObjectSpec(
        top_shape,
        (start_y, start_x),
        top_size,
        tuple(float(c) for c in rng.uniform(0.55, 1.0, size=3) * (rng.permutation([0.35, 0.75, 1.0]))),
        vel,
        1.0,
        tuple(float(d) for d in rng.uniform(-0.008, 0.008, size=3)),
    )
    return SceneConfig(
        (h, w),
        frames,
        (bottom, top),
        (OcclusionEvent(top=1, bottom=0, frame=cross),),
        background_seed=int(rng.integers(1 << 16)),
    )


# --- scene.cfg serialization -------------------------------------------------


def format_scene_cfg(cfg: SceneConfig, seed: int) -> str:
    lines = [
        f"seed={seed}",
        f"resolution={cfg.resolution[0]}x{cfg.resolution[1]}",
        f"frames={cfg.frames}",
        f"background_seed={cfg.background_seed}",
        f"objects={len(cfg.objects)}",
    ]
    for i, o in enumerate(cfg.objects):
        p = f"object{i}."
        lines += [
            f"{p}shape={o.shape}",
            f"{p}center={o.center[0]!r},{o.center[1]!r}",
            f"{p}size={o.size!r}",
            f"{p}color={o.color[0]!r},{o.color[1]!r},{o.color[2]!r}",
            f"{p}velocity={o.velocity[0]!r},{o.velocity[1]!r}",
            f"{p}scale_drift={o.scale_drift!r}",
            f"{p}color_drift={o.color_drift[0]!r},{o.color_drift[1]!r},{o.color_drift[2]!r}",
        ]
    lines.append(f"occlusions={len(cfg.occlusions)}")
    for i, ev in enumerate(cfg.occlusions):
        lines.append(f"occlusion{i}={ev.top},{ev.bottom},{ev.frame}")
    return "\n".join(lines) + "\n"


def parse_scene_cfg(text: str) -> tuple[SceneConfig, int]:
    entries: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"scene.cfg line {ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()

    def need(key):
        if key not in entries:
            raise FormatError(f"scene.cfg is missing {key}")
        return entries[key]

    def floats(raw):
        return tuple(float(v) for v in raw.split(","))

    seed = int(need("seed"))
    res = need("resolution").split("x")
    objects = []
    for i in range(int(need("objects"))):
        p = f"object{i}."
        objects.append(
            ObjectSpec(
                shape=need(p + "shape"),
                center=floats(need(p + "center")),
                size=float(need(p + "size")),
                color=floats(need(p + "color")),
                velocity=floats(need(p + "velocity")),
                scale_drift=float(need(p + "scale_drift")),
                color_drift=floats(need(p + "color_drift")),
            )
        )
    occlusions = []
    for i in range(int(need("occlusions"))):
        top, bottom, frame = (int(v) for v in need(f"occlusion{i}").split(","))
        occlusions.append(OcclusionEvent(top, bottom, frame))
    cfg = SceneConfig(
        resolution=(int(res[0]), int(res[1])),
        frames=int(need("frames")),
        objects=tuple(objects),
        occlusions=tuple(occlusions),
        background_seed=int(need("background_seed")),
    )
    return cfg, seed


# --- on-disk dataset ---------------------------------------------------------


def write_sequence(root, video: VideoSequence, cfg_text: str | None = None) -> str:
    base = os.path.join(root, video.name)
    os.makedirs(os.path.join(base, "frames"), exist_ok=True)
    os.makedirs(os.path.join(base, "masks"), exist_ok=True)
    for t, frame in enumerate(video.frames):
        write_ppm(os.path.join(base, "frames", f"{t:05d}.ppm"), frame)
    for t, mask in enumerate(video.masks or ()):
        write_pgm(os.path.join(base, "masks", f"{t:05d}.pgm"), mask)
    if cfg_text is not None:
        with open(os.path.join(base, "scene.cfg"), "w", encoding="utf-8") as fh:
            fh.write(cfg_text)
    return base


def list_sequences(root) -> list[str]:
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root} does not exist")
    return sorted(
        name
        for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name, "frames"))
    )


def load_sequence(root, name: str, with_masks: bool = True) -> VideoSequence:
    """The bytes the files hold: (H, W, 3) uint8 frames and (H, W) uint8
    masks; ``netpbm.to_unit_float`` turns a frame into model input.

    Raises FormatError, naming the file, when a frame or mask is not the
    size of frame 0.
    """
    base = os.path.join(root, name)
    frame_dir = os.path.join(base, "frames")
    if not os.path.isdir(frame_dir):
        raise FileNotFoundError(f"sequence {name} has no frames directory under {root}")
    frame_files = sorted(f for f in os.listdir(frame_dir) if f.endswith(".ppm"))
    if not frame_files:
        raise FileNotFoundError(f"sequence {name} contains no frames")
    frames = [read_ppm(os.path.join(frame_dir, f)) for f in frame_files]
    size = frames[0].shape[:2]
    _check_sizes(name, "frames", frame_files, frames, size, frame_files[0])
    masks = None
    if with_masks:
        mask_dir = os.path.join(base, "masks")
        if not os.path.isdir(mask_dir):
            raise FileNotFoundError(f"sequence {name} has no masks directory under {root}")
        mask_files = sorted(f for f in os.listdir(mask_dir) if f.endswith(".pgm"))
        if len(mask_files) != len(frame_files):
            raise FormatError(
                f"sequence {name}: {len(frame_files)} frames but {len(mask_files)} masks"
            )
        masks = [read_pgm(os.path.join(mask_dir, f)) for f in mask_files]
        _check_sizes(name, "masks", mask_files, masks, size, frame_files[0])
    return VideoSequence(name, frames, masks)


def _check_sizes(name: str, subdir: str, files, arrays, size, first_file: str) -> None:
    """Every frame and mask of a clip has frame 0's (H, W)."""
    for fname, array in zip(files, arrays):
        if array.shape[:2] != size:
            raise FormatError(
                f"sequence {name}: {subdir}/{fname} is {array.shape[0]}x{array.shape[1]}, "
                f"but frames/{first_file} is {size[0]}x{size[1]}"
            )


# --- pretraining pairs and triplet sampling -----------------------------------


@dataclass(frozen=True)
class AffineParams:
    angle: float  # radians
    scale: float
    shift: tuple[float, float] = (0.0, 0.0)  # (dy, dx) pixels


def random_affine(rng: np.random.Generator, shape) -> AffineParams:
    h, w = shape[:2]
    return AffineParams(
        angle=float(rng.uniform(-15.0, 15.0)) * math.pi / 180.0,
        scale=float(rng.uniform(0.9, 1.1)),
        shift=(float(rng.uniform(-0.1, 0.1) * h), float(rng.uniform(-0.1, 0.1) * w)),
    )


def warp_pair(image: np.ndarray, mask: np.ndarray, params: AffineParams):
    """Apply one affine to an image and its mask through a shared grid.

    The image is sampled bilinearly, the mask by nearest neighbor, both
    from the same inverse-mapped source coordinates, so they stay aligned
    pixel for pixel. Out-of-frame samples clamp to the border.
    """
    image = to_unit_float(image)
    mask = np.asarray(mask)
    h, w = mask.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dy = ys - cy - params.shift[0]
    dx = xs - cx - params.shift[1]
    cos_t, sin_t = math.cos(-params.angle), math.sin(-params.angle)
    src_y = np.clip(cy + (cos_t * dy - sin_t * dx) / params.scale, 0.0, h - 1.0)
    src_x = np.clip(cx + (sin_t * dy + cos_t * dx) / params.scale, 0.0, w - 1.0)

    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (src_y - y0)[:, :, None]
    fx = (src_x - x0)[:, :, None]
    warped = (
        image[y0, x0] * (1 - fy) * (1 - fx)
        + image[y0, x1] * (1 - fy) * fx
        + image[y1, x0] * fy * (1 - fx)
        + image[y1, x1] * fy * fx
    )
    ny = np.rint(src_y).astype(int)
    nx = np.rint(src_x).astype(int)
    return warped, mask[ny, nx]


def synth_pretrain_pair(image: np.ndarray, mask: np.ndarray, seed: int):
    """Fake a 3-frame triplet from one annotated still image.

    Three independent small affines produce the first reference, the
    pseudo-previous reference, and the target.
    """
    mask = np.asarray(mask)
    if not (mask != 0).any():
        raise ValueError("pretraining needs a non-empty mask")
    rng = make_rng(seed)
    return tuple(warp_pair(image, mask, random_affine(rng, mask.shape)) for _ in range(3))


def sample_triplet_indices(frame_count: int, max_skip: int, rng: np.random.Generator):
    """(0, t-k, t) with the skip k uniform over its valid range."""
    if frame_count < 3:
        raise ValueError(f"triplet sampling needs at least 3 frames, got {frame_count}")
    if max_skip < 1:
        raise ValueError(f"max_skip must be at least 1, got {max_skip}")
    k = int(rng.integers(1, min(max_skip, frame_count - 2) + 1))
    t = int(rng.integers(k + 1, frame_count))
    return 0, t - k, t

