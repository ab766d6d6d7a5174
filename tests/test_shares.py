"""Joined threads over disjoint slices: `shares.run_shares`, `shares.run_blocks`
and their callers.

Refinement, surface evaluation, PGM normalization and the closed-block
pass must give the same bytes on any number of usable CPUs and at any
row-block size, and so must the curve box counts that follow refinement
(their counting runs on the caller's thread).  MIN_SHARE is set to 1 so that the small
fixture inputs take the threaded path; the usable-CPU count is set
through os.sched_getaffinity, as in test_io.
"""
import json
import os
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fractalis import (Affine, BivariateSpec, Constant, HeightField, SeparableTerm, Sinusoid,
                       SurfaceLayer, SurfaceSpec, box_count_graph, build_model,
                       estimate_curve_dimension, eval_surface, io, merged_curve,
                       refine_attractor, shares)
from fractalis.config import parse_config
from fractalis.dimension import _closed_blocks, _surface_counts
from fractalis.rifs import plan_depth
from fractalis.surface import CurveSamples
from test_box_count_graph import reference_count
from test_io import ref_write_pgm
from test_plan_depth import DATA, FIXTURE_MODELS
from test_rifs import STEP_MODELS

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
CPUS = [1, 2, 3, 16]
# rows a block holds (a curve sample is a row of one value): one row, a
# block that divides no band, more than any band
BLOCK_ROWS = [1, 7, None]


def usable_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.fixture
def threaded(monkeypatch):
    """Sets the usable-CPU count, with every job large enough to be cut."""
    monkeypatch.setattr(shares, "MIN_SHARE", 1)
    return lambda k: usable_cpus(monkeypatch, k)


@pytest.fixture
def share_counts(monkeypatch):
    """A list that grows by the share count of every run_shares call."""
    counts, run = [], shares.run_shares

    def counting(count, work):
        counts.append(count)
        return run(count, work)
    monkeypatch.setattr(shares, "run_shares", counting)
    return counts


def curve_bytes(sampling):
    return sampling.depth, sampling.starts, sampling.xs.tobytes(), sampling.ys.tobytes()


class TestRefine:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("model", FIXTURE_MODELS + STEP_MODELS)   # STEP_MODELS flip
    def test_bytes_match_one_share(self, threaded, share_counts, model, cpus):
        threaded(1)
        one = curve_bytes(refine_attractor(model, 6))
        threaded(cpus)
        share_counts.clear()
        assert curve_bytes(refine_attractor(model, 6)) == one
        assert max(share_counts) == cpus

    def test_small_steps_run_as_one_share(self, monkeypatch, share_counts):
        # a step runs three passes, _detail over the old curve and the x
        # and height walks over the new one: each is one share below
        # MIN_SHARE samples
        usable_cpus(monkeypatch, 16)
        model = FIXTURE_MODELS[0].values[0]
        refine_attractor(model, 6)
        assert share_counts == [1, 1, 1] * 6

    def test_pieces_hold_min_share_samples(self, monkeypatch, share_counts):
        usable_cpus(monkeypatch, 16)
        monkeypatch.setattr(shares, "MIN_SHARE", 9)   # one domain of 4 regions: 5, 17, 65, 257
        model = build_model(DATA, [(0, 4)], [0] * 4, Constant(0.5))
        refine_attractor(model, 3)
        # (old, new, new) curve per step: (5, 17, 17), (17, 65, 65), (65, 257, 257) samples
        assert share_counts == [1, 1, 1, 1, 7, 7, 7, 16, 16]

    @pytest.mark.parametrize("block", BLOCK_ROWS)
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("model", FIXTURE_MODELS + STEP_MODELS)   # STEP_MODELS flip
    def test_blocks_match_one_block(self, blocked, block_calls, model, cpus, block):
        blocked(1, None, 1)
        one = curve_bytes(refine_attractor(model, 5))
        blocked(cpus, block, 1)
        block_calls.clear()
        sampling = refine_attractor(model, 5)
        assert curve_bytes(sampling) == one
        # per step, _detail's blocks tile the old curve and each walk's the new one
        sizes = [plan_depth(model, d).total for d in range(6)]
        assert [rows for rows, _ in block_calls] == [n for old, new in zip(sizes, sizes[1:])
                                                     for n in (old, new, new)]
        for rows, spans in block_calls:
            assert_blocks(spans, rows, cpus, block)


class TestBoxCounts:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name", ["uniform_s02", "uniform_s06"])
    def test_counts_match_one_share(self, threaded, name, cpus):
        cfg = parse_config(json.loads((FIXTURES / f"{name}.json").read_text()))
        model = cfg.curve.build()
        threaded(1)
        one, _ = estimate_curve_dimension(model, *cfg.scales, depth=cfg.curve.depth)
        threaded(cpus)
        report, _ = estimate_curve_dimension(model, *cfg.scales, depth=cfg.curve.depth)
        assert report == one

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_share_cuts_on_gridline_samples(self, threaded, a, cpus):
        # every sample sits on or next to a finest gridline, where a
        # boundary sample extends the column below
        finest = 0.75 * a ** -4
        k = np.arange(-37, 91)
        xs = np.sort(np.concatenate([k * finest * (1 + o) for o in (0.0, 1e-13, -3e-12)]))
        ys = np.sin(7.0 * xs) + np.cos(1e3 * xs)
        deltas = [0.75 * a ** -r for r in range(5)]
        threaded(1)
        one = box_count_graph(xs, ys, deltas)
        threaded(cpus)
        assert box_count_graph(xs, ys, deltas) == one == tuple(
            reference_count(xs, ys, d) for d in deltas)


def fixture_spec(name):
    cfg = parse_config(json.loads((FIXTURES / f"{name}.json").read_text()))

    def layers(entries):
        return tuple(SurfaceLayer(CurveSamples.from_model(mc.build(), mc.depth), coeff)
                     for mc, coeff in entries)

    return SurfaceSpec(layers(cfg.x_curves), layers(cfg.y_curves)), cfg.resolution


class TestSurface:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name", ["fig3a", "fig4c"])
    def test_heights_match_one_band(self, threaded, share_counts, name, cpus):
        spec, resolution = fixture_spec(name)
        threaded(1)
        one = eval_surface(spec, resolution).heights.tobytes()
        threaded(cpus)
        share_counts.clear()
        assert eval_surface(spec, resolution).heights.tobytes() == one
        assert share_counts == [cpus]

    def test_bands_hold_min_share_nodes(self, monkeypatch, share_counts):
        usable_cpus(monkeypatch, 16)
        xs = np.linspace(0.0, 1.0, 4097)
        coeff = BivariateSpec((SeparableTerm(Constant(0.5), Constant(1.0)),))
        spec = SurfaceSpec((SurfaceLayer(CurveSamples(xs, xs), coeff),))
        eval_surface(spec, 256)   # 257 rows of 257 nodes: under two bands of 1 << 16
        eval_surface(spec, 512)   # 513 rows, at least 128 a band
        assert share_counts == [1, 4]




@pytest.fixture
def blocked(monkeypatch, threaded):
    """Sets the usable-CPU count and the rows of `width` float64 values that
    a block holds; None makes every band one block."""
    def setting(cpus, rows, width):
        threaded(cpus)
        monkeypatch.setattr(shares, "BLOCK_BYTES", 1 << 62 if rows is None else 8 * rows * width)
    return setting


@pytest.fixture
def block_spans(monkeypatch):
    """A list that grows by the (lo, hi) of every block run through run_blocks."""
    spans, run = [], shares.run_blocks

    def recording(rows, width, work, step=1):
        def work_and_record(lo, hi, scratch):
            spans.append((lo, hi))
            work(lo, hi, scratch)
        return run(rows, width, work_and_record, step)
    monkeypatch.setattr(shares, "run_blocks", recording)
    return spans


@pytest.fixture
def block_calls(monkeypatch):
    """A list that grows by (rows, [(lo, hi) of each block]) for every
    run_blocks call."""
    calls, run = [], shares.run_blocks

    def recording(rows, width, work, step=1):
        spans = []
        calls.append((rows, spans))

        def work_and_record(lo, hi, scratch):
            spans.append((lo, hi))
            work(lo, hi, scratch)
        return run(rows, width, work_and_record, step)
    monkeypatch.setattr(shares, "run_blocks", recording)
    return calls


def assert_blocks(spans, rows, cpus, block_rows, step=1):
    """The blocks tile range(rows) in whole steps, none larger than
    `block_rows` allows (one a band when None)."""
    spans = sorted(spans)
    assert spans[0][0] == 0 and spans[-1][1] == rows
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    assert all((hi - lo) % step == 0 and hi > lo for lo, hi in spans)
    if block_rows is None:
        assert len(spans) == min(cpus, rows // step)
    else:
        most = step * max(1, block_rows // step)
        assert max(hi - lo for lo, hi in spans) <= most
        if cpus == 1:
            assert max(hi - lo for lo, hi in spans) == min(most, rows)


MULTI_TERM = BivariateSpec((SeparableTerm(Affine(-2.0, 1.0), Affine(1.0, -0.5)),
                            SeparableTerm(Sinusoid(0.3, 7.0, 0.1, "sin"), Constant(-1.0)),
                            SeparableTerm(Constant(-0.0), Constant(1.0))))


def multi_term_spec():
    xs = np.linspace(0.0, 1.0, 4097)
    wave, line = CurveSamples(xs, np.sin(9.0 * xs)), CurveSamples(xs, 2.0 - 3.0 * xs)
    return SurfaceSpec((SurfaceLayer(wave, MULTI_TERM), SurfaceLayer(line, MULTI_TERM)),
                       (SurfaceLayer(line, MULTI_TERM),)), 100


SPECS = {"fig3a": lambda: fixture_spec("fig3a"), "fig4c": lambda: fixture_spec("fig4c"),
         "multi_term": multi_term_spec}


# the height fields the PGM and closed-block tests run over
FIELDS = {"fig3a": lambda: eval_surface(*fixture_spec("fig3a")).heights,
          "random_60": lambda: np.random.default_rng(16).standard_normal((61, 61)),
          "grid_3x3": lambda: np.array([[0.0, -0.0, 1.5], [2.0, -3.0, 0.25],
                                        [1e-300, 7.0, -0.5]]),
          "flat": lambda: np.full((6, 6), 2.5),
          # the 9x40 band stacked into a square 40x40 field, as write_pgm
          # takes a HeightField: 40 rows, which a 7-row block does not divide
          "wide_9x40": lambda: np.tile(np.random.default_rng(17).standard_normal((9, 40)) * 1e3,
                                       (5, 1))[:40]}


class TestRowBlocks:
    """Every caller of run_blocks, byte for byte against a one-share,
    one-block run."""

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_eval_surface(self, blocked, block_spans, name, cpus, rows):
        spec, m = SPECS[name]()
        blocked(1, None, m + 1)
        one = eval_surface(spec, m).heights.tobytes()
        blocked(cpus, rows, m + 1)
        block_spans.clear()
        assert eval_surface(spec, m).heights.tobytes() == one
        assert_blocks(block_spans, m + 1, cpus, rows)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_write_pgm(self, tmp_path, blocked, block_spans, name, cpus, rows):
        H = FIELDS[name]()
        field = HeightField(H.shape[0] - 1, H)
        blocked(1, None, H.shape[1])
        io.write_pgm(tmp_path / "one.pgm", field)
        blocked(cpus, rows, H.shape[1])
        block_spans.clear()
        io.write_pgm(tmp_path / "got.pgm", field)
        assert ref_write_pgm(tmp_path / "ref", field) == (field.height_min, field.height_max)
        got = (tmp_path / "got.pgm").read_bytes()
        assert got == (tmp_path / "one.pgm").read_bytes() == (tmp_path / "ref").read_bytes()
        if name == "flat":
            assert block_spans == [] and got.endswith(bytes(2 * H.size))
        else:
            assert_blocks(block_spans, H.shape[0], cpus, rows)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name, sizes", [
        ("fig3a", (256, 64, 16, 4, 2, 1)),    # nested: the field is reduced once, at m = 1
        ("random_60", (60, 30, 10, 5, 1)),    # nested
        ("random_60", (20, 15, 12, 6, 4)),    # not nested: the field is reduced at 4, 6, 15, 20
        ("random_60", (60,)),                 # m = resolution
        ("grid_3x3", (2, 1))])
    def test_surface_counts(self, blocked, block_spans, name, sizes, cpus, rows):
        H = FIELDS[name]()
        res = H.shape[0] - 1
        field, deltas = HeightField(res, H), [m / res for m in sizes]
        blocked(1, None, res + 1)
        one = _surface_counts(field, deltas), [_closed_blocks(H, m) for m in sizes]
        blocked(cpus, rows, res + 1)
        block_spans.clear()
        got = _surface_counts(field, deltas), [_closed_blocks(H, m) for m in sizes]
        assert got[0] == one[0]
        for (lo, hi), (one_lo, one_hi) in zip(got[1], one[1]):
            assert lo.tobytes() == one_lo.tobytes() and hi.tobytes() == one_hi.tobytes()
        block_spans.clear()
        for m in sizes:
            _closed_blocks(H, m)
            assert_blocks(block_spans, res, cpus, rows, step=m)
            block_spans.clear()

    @pytest.mark.parametrize("coeff, negative_zero", [
        (MULTI_TERM, False),
        (BivariateSpec((SeparableTerm(Sinusoid(0.3, 7.0, 0.1, "cos"), Affine(0.5, -1.0)),)),
         False),
        # every product of every entry is -0.0, so the entries stay -0.0
        (BivariateSpec((SeparableTerm(Constant(-0.0), Constant(1.0)),
                        SeparableTerm(Affine(2.0, 1.0), Constant(-0.0)))), True)])
    def test_grid_out(self, coeff, negative_zero):
        xs, ys = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 17)[3:11]
        want = coeff.grid(xs, ys)
        out = np.full((ys.size, xs.size), np.nan)
        assert coeff.grid(xs, ys, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert not negative_zero or (np.all(np.signbit(out)) and not out.any())


def extra_peak(call):
    """Peak bytes traced while call() runs, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """At 1025^2 a sweep allocates its output and a few blocks per thread:
    a temporary of the field's size would break the bound."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_pgm(self, tmp_path, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        field = HeightField(1024, np.random.default_rng(3).standard_normal((1025, 1025)))
        # each row block is cast into a block-sized buffer and written at
        # its offset: no array of the image's size
        peak = extra_peak(lambda: io.write_pgm(tmp_path / "surface.pgm", field))
        assert peak < 4 * cpus * shares.BLOCK_BYTES

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_eval_surface(self, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        xs = np.linspace(0.0, 1.0, 4097)
        spec = SurfaceSpec((SurfaceLayer(CurveSamples(xs, np.sin(9.0 * xs)), MULTI_TERM),),
                           (SurfaceLayer(CurveSamples(xs, 2.0 - 3.0 * xs), MULTI_TERM),))
        peak = extra_peak(lambda: eval_surface(spec, 1024))
        assert peak < 8 * 1025 ** 2 + 4 * cpus * shares.BLOCK_BYTES


class TestRunShares:
    def test_every_share_runs_once(self):
        seen = []
        shares.run_shares(5, seen.append)
        assert sorted(seen) == list(range(5))

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_an_exception_reaches_the_caller(self, failing):
        before = threading.active_count()
        done = []

        def work(k):
            if k == failing:
                raise ValueError(f"share {k}")
            time.sleep(0.02)   # still running when a failing caller's share returns
            done.append(k)
        with pytest.raises(ValueError, match=f"share {failing}"):
            shares.run_shares(4, work)
        assert threading.active_count() == before
        assert sorted(done) == [k for k in range(4) if k != failing]

    def test_the_first_failed_share_is_raised(self):
        barrier = threading.Barrier(3)

        def work(k):
            barrier.wait()   # every share is running before any fails
            if k:
                raise KeyError(k)
        with pytest.raises(KeyError) as info:
            shares.run_shares(3, work)
        assert info.value.args == (1,)

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        shares.run_shares(4, lambda k: None)
        assert threading.active_count() == before

    def test_caller_errstate_holds_in_every_share(self):
        def overflow(k):
            np.array([1e308]) * 10   # a RuntimeWarning is an error in this suite

        with np.errstate(over="ignore"):
            shares.run_shares(3, overflow)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            shares.run_shares(3, lambda k: k == 2 and overflow(k))

    def test_cuts(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        assert shares.cuts(10) == [0, 3, 6, 10]
        assert shares.cuts(10, 4) == [0, 5, 10]
        assert shares.cuts(7, 4) == [0, 7]
        assert shares.cuts(0) == [0, 0]


def test_writers_fork_with_no_extra_thread(tmp_path, monkeypatch, threaded):
    """A fork while a share thread ran would copy a half-done thread's state;
    every thread is joined before the writer forks."""
    threaded(3)
    alive, fork = [], os.fork

    def recording_fork():
        alive.append(threading.active_count())
        return fork()
    monkeypatch.setattr(os, "fork", recording_fork)
    before = threading.active_count()
    model = FIXTURE_MODELS[0].values[0]
    sampling = refine_attractor(model, 12)
    io.write_curve_csv(tmp_path / "curve.csv", sampling.xs, sampling.ys)
    assert alive == [before, before]
