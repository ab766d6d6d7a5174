"""Joined threads over disjoint slices: `shares.run_shares` and its callers.

Refinement, curve box counting and surface evaluation must give the same
bytes on any number of usable CPUs.  MIN_SHARE is set to 1 so that the
small fixture inputs take the threaded path; the usable-CPU count is set
through os.sched_getaffinity, as in test_io.
"""
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fractalis import (BivariateSpec, Constant, SeparableTerm, SurfaceLayer, SurfaceSpec,
                       build_model, estimate_curve_dimension, eval_surface, io, refine_attractor,
                       shares)
from fractalis.config import parse_config
from fractalis.surface import CurveSamples
from test_plan_depth import DATA, FIXTURE_MODELS
from test_rifs import STEP_MODELS

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
CPUS = [1, 2, 3, 16]


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
        usable_cpus(monkeypatch, 16)
        model = FIXTURE_MODELS[0].values[0]
        refine_attractor(model, 6)
        assert share_counts and set(share_counts) == {1}

    def test_pieces_hold_min_share_samples(self, monkeypatch, share_counts):
        usable_cpus(monkeypatch, 16)
        monkeypatch.setattr(shares, "MIN_SHARE", 9)   # one domain of 4 regions: runs of 17, 65
        model = build_model(DATA, [(0, 4)], [0] * 4, Constant(0.5))
        refine_attractor(model, 3)
        assert share_counts == [1, 1, 7]


class TestBoxCounts:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("name", ["uniform_s02", "uniform_s06"])
    def test_counts_match_one_share(self, threaded, share_counts, name, cpus):
        cfg = parse_config(json.loads((FIXTURES / f"{name}.json").read_text()))
        model = cfg.curve.build()
        threaded(1)
        one, _ = estimate_curve_dimension(model, *cfg.scales, depth=cfg.curve.depth)
        threaded(cpus)
        share_counts.clear()
        report, _ = estimate_curve_dimension(model, *cfg.scales, depth=cfg.curve.depth)
        assert report == one
        assert share_counts[-1] == min(cpus, len(one.series.deltas))


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
