"""The chunked CSV and OBJ writers against the per-row writers they replaced,
and the in-place PGM normalization against the expression it replaced.

The CSV and OBJ references format one value at a time with `format_number`
and write one line per call; every case asserts byte-equal files.  The
writers split their parts among forked children, one per usable CPU;
`TestShares` sets that count, so a one-CPU host runs the forked path too.
"""
import json
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import io
from fractalis.dimension import BoxCountSeries
from fractalis.rifs import ModelError
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


def ref_write_pgm(path, field):
    """The whole-array normalization write_pgm replaced, with its own
    min/max sweep; returns that (min, max)."""
    H = field.heights
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


def ref_write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_are_refused_before_the_file(self, tmp_path, value):
        # strict JSON has no token for them; json.dumps would write Infinity or NaN
        with pytest.raises(ValueError, match="not JSON compliant"):
            io.write_json(tmp_path / "report.json", {"a": [1.0, {"b": value}]})
        assert not (tmp_path / "report.json").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.recursive(st.one_of(st.none(), st.booleans(), floats, st.integers(),
                                  st.text(max_size=8)),
                        lambda inner: st.one_of(st.lists(inner, max_size=6),
                                                st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=6)),
                        max_leaves=40))
    def test_matches_json_dump(self, tmp_path_factory, payload):
        assert_same_bytes(tmp_path_factory.mktemp("json"), io.write_json, ref_write_json,
                          payload)

    def test_one_write(self, tmp_path, monkeypatch):
        writes, real_open = [], open

        class Counting:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                writes.append(text)
                return self.fh.write(text)

        monkeypatch.setattr(io, "open", lambda *a, **k: Counting(real_open(*a, **k)),
                            raising=False)
        payload = {"b": [0.1, -0.0, 1e16, list(range(50))], "a": {"x": None, "y": True}}
        io.write_json(tmp_path / "got.json", payload)
        ref_write_json(tmp_path / "want.json", payload)
        assert len(writes) == 1
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


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


def usable_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one at every os.fork call."""
    calls, fork = [], os.fork

    def counting_fork():
        calls.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def parts_of(n):
    return -(-n // ROWS)


CPUS = [1, 2, 3, 16]   # 16 exceeds the part count of every case but OBJ m = 384


class TestShares:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3, 5 * ROWS + 1])
    def test_curve_csv(self, tmp_path, monkeypatch, forks, cpus, n):
        usable_cpus(monkeypatch, cpus)
        xs, ys = mixed(n, 3), mixed(n, 4)
        assert_same_bytes(tmp_path, io.write_curve_csv, ref_write_curve_csv, xs, ys)
        assert len(forks) == min(cpus, parts_of(n)) - 1

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("m", [2, 3, 7, 384])
    def test_obj(self, tmp_path, monkeypatch, forks, cpus, m):
        usable_cpus(monkeypatch, cpus)
        H = mixed((m + 1) ** 2, m + 1).reshape(m + 1, m + 1)
        H[0, :3] = (0.0, -0.0, -7.0)
        H[-1, -1] = 2.0
        assert_same_bytes(tmp_path, io.write_obj, ref_write_obj, HeightField(m, H))
        assert len(forks) == (min(cpus, m + 1) - 1) + (min(cpus, m) - 1)


class TestForks:
    """The speedup must not switch off silently: one child per share after
    the first, none for a one-part file, spools beside the artifact."""

    @pytest.mark.parametrize("cpus", [None, 2, 3])   # None: this host's own count
    def test_one_child_per_later_share(self, tmp_path, monkeypatch, forks, cpus):
        if cpus is not None:
            usable_cpus(monkeypatch, cpus)
        usable = len(os.sched_getaffinity(0))
        n = 2 ** 18 + 1
        io.write_curve_csv(tmp_path / "curve.csv", np.arange(n) / n, np.zeros(n))
        assert len(forks) == min(usable, parts_of(n)) - 1
        forks.clear()
        field = HeightField(384, np.zeros((385, 385)))
        io.write_obj(tmp_path / "surface.obj", field)
        assert len(forks) == 2 * (min(usable, 384) - 1)

    def test_one_part_forks_none(self, tmp_path, monkeypatch, forks):
        usable_cpus(monkeypatch, 16)
        series = BoxCountSeries((0.5, 0.25, 0.125), (2, 5, 11))
        assert_same_bytes(tmp_path, io.write_box_csv, ref_write_box_csv, series)
        io.write_curve_csv(tmp_path / "curve.csv", np.zeros(ROWS - 1), np.ones(ROWS - 1))
        assert forks == []

    def test_spools_sit_beside_the_artifact(self, tmp_path, monkeypatch, forks):
        usable_cpus(monkeypatch, 3)
        dirs, spool = [], tempfile.TemporaryFile

        def recording_spool(*args, **kwargs):
            dirs.append(kwargs.get("dir"))
            return spool(*args, **kwargs)
        monkeypatch.setattr(tempfile, "TemporaryFile", recording_spool)
        target = tmp_path / "deep" / "er"
        target.mkdir(parents=True)
        n = 3 * ROWS
        io.write_curve_csv(target / "curve.csv", np.arange(n) / n, np.zeros(n))
        assert len(forks) == 2 and dirs == [str(target)] * 2
        assert [p.name for p in target.iterdir()] == ["curve.csv"]


# integral floats: repr ends in '.0' below 1e16 in magnitude, and the writers
# strip it; 1e16 and up print with an exponent and keep their repr
INTEGRAL_EDGES = [0.0, -0.0, 9999999999999998.0, -9999999999999998.0, 1e16, -1e16,
                  5e-324, -5e-324]
finite_mix = st.one_of(st.integers(-10**16, 10**16).map(float), st.sampled_from(INTEGRAL_EDGES),
                       st.floats(allow_nan=False, allow_infinity=False, width=64))
any_mix = st.one_of(finite_mix, st.sampled_from([math.nan, math.inf, -math.inf]))
SIZES = [ROWS - 1, ROWS, ROWS + 1]


def spread(values, n, seed):
    """n values cycling through `values`, shuffled."""
    return np.random.default_rng(seed).permutation(np.resize(np.array(values, dtype=np.float64),
                                                             n))


class TestIntegralValues:
    """Integral values among every other kind, on every CPU count: the
    writers give each its stripped repr, as `format_number` does."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(any_mix, min_size=1, max_size=40), st.sampled_from(SIZES),
           st.sampled_from(CPUS), st.integers(0, 2**32 - 1))
    def test_curve_csv(self, tmp_path_factory, values, n, cpus, seed):
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, cpus)
            assert_same_bytes(tmp_path_factory.mktemp("csv"), io.write_curve_csv,
                              ref_write_curve_csv, spread(values, n, seed),
                              spread(values, n, seed + 1))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(any_mix, min_size=1, max_size=40), st.sampled_from(SIZES),
           st.sampled_from(CPUS), st.integers(0, 2**32 - 1))
    def test_box_csv(self, tmp_path_factory, values, n, cpus, seed):
        # the writer reads only deltas and counts, so any floats can be given
        counts = np.random.default_rng(seed).integers(-2**63, 2**63 - 1, n, dtype=np.int64)
        series = SimpleNamespace(deltas=tuple(spread(values, n, seed).tolist()),
                                 counts=tuple(counts.tolist()))
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, cpus)
            assert_same_bytes(tmp_path_factory.mktemp("box"), io.write_box_csv,
                              ref_write_box_csv, series)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite_mix, min_size=1, max_size=40), st.sampled_from([2, 3, 7]),
           st.sampled_from(CPUS), st.integers(0, 2**32 - 1))
    def test_obj(self, tmp_path_factory, values, m, cpus, seed):
        H = spread(values, (m + 1) ** 2, seed).reshape(m + 1, m + 1)
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, cpus)
            assert_same_bytes(tmp_path_factory.mktemp("obj"), io.write_obj, ref_write_obj,
                              HeightField(m, H))

    @pytest.mark.parametrize("kind", ["none", "all"])
    def test_no_or_only_integral_values(self, tmp_path, kind):
        rng = np.random.default_rng(7)
        n, m = ROWS + 1, 7
        v = rng.standard_normal(2 * n + (m + 1) ** 2) * 1e6
        if kind == "all":
            v = np.round(v)
            v[::5] = -0.0
        else:
            v += 0.5   # x.5 is never integral
        integral = (np.abs(v) < 1e16) & (np.trunc(v) == v)
        assert integral.all() if kind == "all" else not integral.any()
        assert_same_bytes(tmp_path, io.write_curve_csv, ref_write_curve_csv, v[:n], v[n:2 * n])
        H = v[2 * n:].reshape(m + 1, m + 1)
        assert_same_bytes(tmp_path, io.write_obj, ref_write_obj, HeightField(m, H))


def digits(i):
    return "%d\n", (np.arange(i * 10, i * 10 + 10),)


def call_once(tmp_path, call):
    """The exception call() raised, or None.  Every process that gets past
    the call appends its pid to a file, which must then hold this
    process's pid alone: a child never returns into the caller."""
    me = os.getpid()
    try:
        call()
        error = None
    except Exception as exc:   # the caller checks which
        error = exc
    fd = os.open(tmp_path / "after", os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, b"%d\n" % os.getpid())
    os.close(fd)
    if os.getpid() != me:
        os._exit(0)   # a stray child leaves here, so the session runs on in one process
    assert (tmp_path / "after").read_text() == f"{me}\n"
    with pytest.raises(ChildProcessError):   # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    return error


class TestFailures:
    def write(self, tmp_path, part, count=4):
        with open(tmp_path / "out.txt", "wb") as fh:
            io._write_parts(fh, count, part)

    def test_success_returns_once(self, tmp_path, monkeypatch, forks):
        usable_cpus(monkeypatch, 4)
        assert call_once(tmp_path, lambda: self.write(tmp_path, digits)) is None
        assert len(forks) == 3
        assert (tmp_path / "out.txt").read_text() == "".join(f"{v}\n" for v in range(40))

    def test_part_failing_in_a_child_raises_in_the_parent(self, tmp_path, monkeypatch, forks):
        usable_cpus(monkeypatch, 4)
        parent = os.getpid()

        def part(i):
            if os.getpid() != parent and i == 2:
                raise ValueError("only in a child")
            return digits(i)
        error = call_once(tmp_path, lambda: self.write(tmp_path, part))
        assert isinstance(error, RuntimeError) and len(forks) == 3
        assert "parts 2..2 failed (exit status 1)" in str(error)

    def test_part_failing_in_the_parent_still_reaps_every_child(self, tmp_path, monkeypatch,
                                                                 forks):
        usable_cpus(monkeypatch, 3)
        parent = os.getpid()

        def part(i):
            if os.getpid() == parent:
                raise ValueError("in the parent's share")
            return digits(i)
        error = call_once(tmp_path, lambda: self.write(tmp_path, part, count=6))
        assert isinstance(error, ValueError) and len(forks) == 2


class TestPgm:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_heights_are_refused_before_the_file(self, tmp_path, value):
        # write_pgm takes a HeightField, which refuses the heights itself
        H = np.linspace(0.0, 1.0, 25).reshape(5, 5)
        H[2, 3] = value
        with pytest.raises(ValueError, match="^heights must be finite$"):
            io.write_pgm(tmp_path / "surface.pgm", HeightField(4, H))
        assert not (tmp_path / "surface.pgm").exists()

    def test_range_past_float_is_refused_before_the_file(self, tmp_path):
        # it used to warn three times and write every pixel as 0
        H = np.zeros((5, 5))
        H[0, 0], H[4, 4] = -1.09e308, 1.5e308
        with pytest.raises(ModelError, match="^the height range .* is wider than the largest"):
            io.write_pgm(tmp_path / "surface.pgm", HeightField(4, H))
        assert not (tmp_path / "surface.pgm").exists()

    @pytest.mark.parametrize("fill", [0.0, -0.0, 3.5, -1e300])
    def test_constant_field(self, tmp_path, fill):
        field = HeightField(6, np.full((7, 7), fill))
        assert_same_bytes(tmp_path, io.write_pgm, ref_write_pgm, field)
        assert (tmp_path / "got").read_bytes().endswith(bytes(2 * field.heights.size))

    @pytest.mark.parametrize("m", [2, 9, 256])
    def test_field_with_signed_zeros(self, tmp_path, m):
        H = mixed((m + 1) ** 2, m).reshape(m + 1, m + 1) % 7.0 - 3.5
        H[0, :3] = (0.0, -0.0, -0.0)
        H[1, 0] = -0.0
        before = H.tobytes()
        field = HeightField(m, H)
        assert_same_bytes(tmp_path, io.write_pgm, ref_write_pgm, field)
        assert (field.height_min, field.height_max) == ref_write_pgm(tmp_path / "ref", field)
        assert H.tobytes() == before   # normalized in a copy, not in the caller's array

    def test_normalizes_with_the_fields_range(self, tmp_path):
        # the pixels follow the range the field holds: write_pgm takes no
        # min or max of its own
        field = HeightField(2, np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]))
        object.__setattr__(field, "height_max", 16.0)
        io.write_pgm(tmp_path / "surface.pgm", field)
        px = np.frombuffer((tmp_path / "surface.pgm").read_bytes()[-18:], dtype=">u2")
        assert px.tolist() == [round(v / 16.0 * 65535) for v in range(9)]
