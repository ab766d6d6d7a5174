"""The chunked CSV and OBJ writers against the per-row writers they replaced,
and the in-place PGM normalization against the expression it replaced.

The CSV and OBJ references format one value at a time with `format_number`
and write one line per call; every case asserts byte-equal files.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import io
from fractalis.dimension import BoxCountSeries
from fractalis.surface import HeightField

ROWS = io.ROWS

SPECIAL = [0.0, -0.0, 3.0, -3.0, 1e15, 1e16, 1e22, -1e22, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 100.05, -100.05,
           10.0, -10.0, 0.1, 1.0, -1.0, 2.5e-8, 123456789.0, 1e-5]


def format_number(v):
    """Shortest round-trip decimal; integral values lose the trailing '.0'."""
    s = repr(float(v))
    if s.endswith(".0"):
        return s[:-2]
    return s


def ref_write_curve_csv(path, xs, ys):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{format_number(x)},{format_number(y)}\n")


def ref_write_box_csv(path, series):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d, c in zip(series.deltas, series.counts):
            fh.write(f"{format_number(d)},{c}\n")


def ref_write_obj(path, field):
    H = field.heights
    m = field.resolution
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for iy in range(m + 1):
            for ix in range(m + 1):
                fh.write(f"v {format_number(ix / m)} {format_number(H[iy, ix])} "
                         f"{format_number(iy / m)}\n")
        stride = m + 1
        for iy in range(m):
            for ix in range(m):
                a = iy * stride + ix + 1
                b = a + 1
                c = a + stride + 1
                d = a + stride
                fh.write(f"f {a} {b} {c}\n")
                fh.write(f"f {a} {c} {d}\n")


def ref_write_pgm(path, heights):
    H = np.asarray(heights, dtype=np.float64)
    lo, hi = float(H.min()), float(H.max())
    if hi > lo:
        norm = (H - lo) / (hi - lo)
    else:
        norm = np.zeros_like(H)
    px = np.rint(norm * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{H.shape[1]} {H.shape[0]}\n65535\n".encode("ascii"))
        fh.write(px.tobytes())
    return lo, hi


def assert_same_bytes(tmp_path, write, ref, *args):
    got, want = tmp_path / "got", tmp_path / "want"
    write(got, *args)
    ref(want, *args)
    assert got.read_bytes() == want.read_bytes()


def mixed(n, seed):
    """n values cycling through SPECIAL, interleaved with random floats of
    every magnitude and rounded (integral) values."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    v[1::3] = np.round(v[1::3])
    v[::4] = np.resize(SPECIAL, v[::4].size)
    return v


floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.integers(-10**6, 10**6).map(float))


class TestCurveCsv:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(floats, floats), min_size=1, max_size=60))
    def test_matches_reference(self, tmp_path_factory, rows):
        xs, ys = (np.array(c, dtype=np.float64) for c in zip(*rows))
        assert_same_bytes(tmp_path_factory.mktemp("csv"), io.write_curve_csv,
                          ref_write_curve_csv, xs, ys)

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
    def test_chunk_boundaries(self, tmp_path, n):
        xs, ys = mixed(n, 1), mixed(n, 2)
        assert_same_bytes(tmp_path, io.write_curve_csv, ref_write_curve_csv, xs, ys)
        assert (tmp_path / "got").read_text().count("\n") == n

    def test_every_special_value_in_both_columns(self, tmp_path):
        xs = np.array(SPECIAL)
        assert_same_bytes(tmp_path, io.write_curve_csv, ref_write_curve_csv, xs, xs[::-1])
        lines = (tmp_path / "got").read_text().splitlines()
        assert lines[:3] == ["0,1e-05", "-0,123456789", "3,2.5e-08"]
        assert lines[5].startswith("1e+16,") and lines[8].startswith("5e-324,")


class TestBoxCsv:
    def test_matches_reference(self, tmp_path):
        series = BoxCountSeries((0.25, 0.0625, 0.015625, 0.00390625, 1e-16),
                                (4, 23, 144, 900, 10**12))
        assert_same_bytes(tmp_path, io.write_box_csv, ref_write_box_csv, series)
        assert (tmp_path / "got").read_text().splitlines()[0] == "0.25,4"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-300, 1e300), st.integers(1, 10**15)),
                    min_size=1, max_size=40, unique_by=lambda t: t[0]))
    def test_random_series(self, tmp_path_factory, pairs):
        deltas = sorted((d for d, _ in pairs), reverse=True)
        counts = sorted(c for _, c in pairs)
        series = BoxCountSeries(tuple(deltas), tuple(counts))
        assert_same_bytes(tmp_path_factory.mktemp("box"), io.write_box_csv,
                          ref_write_box_csv, series)


class TestObj:
    @pytest.mark.parametrize("m", [2, 3, 7, 384])
    def test_matches_reference(self, tmp_path, m):
        H = mixed((m + 1) ** 2, m).reshape(m + 1, m + 1)
        H[0, :3] = (0.0, -0.0, -7.0)
        H[-1, -1] = 2.0
        assert_same_bytes(tmp_path, io.write_obj, ref_write_obj, HeightField(m, H))

    def test_structure(self, tmp_path):
        field = HeightField(2, np.array([[0.0, -1.0, 2.0], [1e16, 0.5, -0.0],
                                         [3.0, 4.0, -5.25]]))
        io.write_obj(tmp_path / "s.obj", field)
        lines = (tmp_path / "s.obj").read_text().splitlines()
        assert lines[:4] == ["v 0 0 0", "v 0.5 -1 0", "v 1 2 0", "v 0 1e+16 0.5"]
        assert lines[8] == "v 1 -5.25 1"
        assert lines[9:] == ["f 1 2 5", "f 1 5 4", "f 2 3 6", "f 2 6 5",
                             "f 4 5 8", "f 4 8 7", "f 5 6 9", "f 5 9 8"]


class TestPgm:
    @pytest.mark.parametrize("fill", [0.0, -0.0, 3.5, -1e300])
    def test_constant_field(self, tmp_path, fill):
        H = np.full((5, 7), fill)
        assert_same_bytes(tmp_path, io.write_pgm, ref_write_pgm, H)
        assert (tmp_path / "got").read_bytes().endswith(bytes(2 * H.size))

    @pytest.mark.parametrize("m", [2, 9, 256])
    def test_field_with_signed_zeros(self, tmp_path, m):
        H = mixed((m + 1) ** 2, m).reshape(m + 1, m + 1) % 7.0 - 3.5
        H[0, :3] = (0.0, -0.0, -0.0)
        H[1, 0] = -0.0
        before = H.tobytes()
        assert_same_bytes(tmp_path, io.write_pgm, ref_write_pgm, H)
        assert io.write_pgm(tmp_path / "again", H) == ref_write_pgm(tmp_path / "ref", H)
        assert H.tobytes() == before   # normalized in a copy, not in the caller's array
