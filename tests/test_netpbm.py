"""Binary netpbm headers: only ASCII whitespace separates tokens, and only
ASCII digits make a number."""

import numpy as np
import pytest

from npmca.errors import FormatError
from npmca.netpbm import read_pgm, read_ppm, write_pgm, write_ppm

GRAY = bytes([1, 2, 3, 4])
COLOR = bytes(range(12))


def read(tmp_path, magic, blob):
    path = tmp_path / "x"
    path.write_bytes(blob)
    return (read_pgm if magic == "P5" else read_ppm)(path)


def raster(magic):
    return GRAY if magic == "P5" else COLOR


@pytest.mark.parametrize("magic", ["P5", "P6"])
@pytest.mark.parametrize("header, offset", [
    (b"{m}\x1c2 2\n255\x1c", 2),  # an ASCII file separator is not whitespace
    (b"{m}\n2\x852\n255\n", 4),  # nor is NEL
    (b"{m}\n2 2\n255\xa0", 10),  # nor is a no-break space, before the raster either
    (b"{m}\n+2 2\n255\n", 3),
    (b"{m}\n2 -2\n255\n", 5),
    (b"{m}\n2 2\n2_55\n", 8),
    (b"{m}\n2 0_2\n255\n", 6),
    (b"{m}\n\xd9\xa22 2\n255\n", 3),  # a non-ASCII digit
], ids=["x1c", "x85", "xa0", "plus", "minus", "underscore-maxval", "underscore-height", "arabic-indic-two"])
def test_other_bytes_are_refused_at_their_offset(tmp_path, magic, header, offset):
    with pytest.raises(FormatError) as exc:
        read(tmp_path, magic, header.replace(b"{m}", magic.encode()) + raster(magic))
    assert exc.value.offset == offset


@pytest.mark.parametrize("magic", ["P5", "P6"])
@pytest.mark.parametrize("header", [
    b"{m}\n2 2\n255\n",
    b"{m} 2 2 255 ",
    b"{m}\t2\v2\f255\r",
    b"{m}\n# a comment\n2 2\n# another\n255\n",
    b"{m}\n002 2\n0255\n",
], ids=["canonical", "spaces", "every-whitespace", "comments", "leading-zeros"])
def test_valid_headers_read_as_before(tmp_path, magic, header):
    got = read(tmp_path, magic, header.replace(b"{m}", magic.encode()) + raster(magic))
    shape = (2, 2) if magic == "P5" else (2, 2, 3)
    assert got.dtype == np.uint8
    assert got.tobytes() == raster(magic) and got.shape == shape


def test_the_wrong_magic_is_refused_where_it_differs(tmp_path):
    with pytest.raises(FormatError, match="expected P5 magic") as exc:
        read(tmp_path, "P5", b"P6\n2 2\n255\n" + COLOR)
    assert exc.value.offset == 1


def test_written_files_round_trip(tmp_path):
    gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
    write_pgm(tmp_path / "g.pgm", gray)
    assert np.array_equal(read_pgm(tmp_path / "g.pgm"), gray)
    rgb = np.linspace(0.0, 1.0, 18).reshape(2, 3, 3)
    write_ppm(tmp_path / "c.ppm", rgb)
    assert np.array_equal(read_ppm(tmp_path / "c.ppm"), np.rint(rgb * 255.0).astype(np.uint8))
