"""Graph box counting against the per-sample classifier it replaced.

`box_count_graph` takes a width's columns as index runs where the samples
show that they are runs, and otherwise finds the column boundaries by
binary search, classifying only the samples next to a gridline.  The
per-sample body it replaced is kept below as the reference; every case
here must give the same count on either path.
"""
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Constant, box_count_graph, build_model, curve_scale_schedule, dimension,
                       estimate_curve_dimension, merged_curve, refine_attractor)
from fractalis.config import parse_config
from fractalis.dimension import _on_gridline, _snapped_floor, _vspan_cells
from test_benchmark_contract import workloads
from test_plan_depth import FIXTURE_MODELS

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

DELTAS = [1 / 3, 1 / 96, 0.0123, 2.0 ** -5, 0.7]
# relative offsets from a gridline: exact, inside the snap tolerance,
# at it, outside it, and at and beyond the search window's edge
OFFSETS = [0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, -3e-12, 4e-12, -4e-12, 5e-12]


def reference_count(xs, ys, delta):
    """The per-sample classifier: snapped column and gridline test for every x."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = xs / delta
    col = _snapped_floor(q)
    grid = _on_gridline(q)
    folded = np.zeros(col.shape, dtype=bool)
    if grid[-1]:
        folded = col == col[-1]
        col = col - folded.astype(np.int64)
    change = np.nonzero(np.diff(col))[0] + 1
    starts = np.concatenate(([0], change))
    occ = col[starts]
    base, last = int(occ[0]), int(occ[-1])
    cmin = np.full(last - base + 1, np.inf)
    cmax = np.full(last - base + 1, -np.inf)
    cmin[occ - base] = np.minimum.reduceat(ys, starts)
    cmax[occ - base] = np.maximum.reduceat(ys, starts)
    dup = grid & ~folded & (col > base)
    if np.any(dup):
        k = col[dup] - 1 - base
        np.minimum.at(cmin, k, ys[dup])
        np.maximum.at(cmax, k, ys[dup])
    hit = np.isfinite(cmin)
    return int(_vspan_cells(cmin[hit], cmax[hit], delta).sum())


def assert_same(xs, ys, delta):
    assert box_count_graph(xs, ys, delta) == reference_count(xs, ys, delta)


@st.composite
def near_grid_samples(draw):
    """Sorted x on a shifted range, many on or next to gridlines, and random y."""
    delta = draw(st.sampled_from(DELTAS))
    x0 = draw(st.sampled_from([0.0, 1.0, -2.5, 7.3, -40.0, 1e3]))
    span = draw(st.sampled_from([0.05, 1.0, 3.7]))
    free = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40))
    xs = [x0 + span * u for u in free]
    lines = draw(st.lists(st.integers(0, int(span / delta) + 1), max_size=12))
    k0 = round(x0 / delta)
    for j in lines:
        xs.append((k0 + j) * delta * (1.0 + draw(st.sampled_from(OFFSETS))))
    if not xs:
        xs = [x0]
    xs = np.sort(np.array(xs))
    ys = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=xs.size, max_size=xs.size)))
    return xs, ys, delta


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(near_grid_samples())
    def test_random_sorted_samples(self, case):
        assert_same(*case)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("x0", [0.0, -1.3, 5.0])
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_every_sample_near_a_gridline(self, delta, x0, offset):
        k0 = round(x0 / delta)
        k = np.arange(k0, k0 + 9)
        xs = np.repeat(k * delta * (1.0 + offset), 2)
        ys = np.sin(np.arange(xs.size, dtype=np.float64))
        assert_same(xs, ys, delta)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_single_sample(self, delta):
        for x in (0.0, 0.3, -0.3, 2 * delta, -3 * delta * (1 + 1e-13)):
            assert_same([x], [1.7], delta)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_single_column(self, delta):
        xs = 5 * delta + np.linspace(0.1, 0.9, 7) * delta
        assert_same(xs, np.linspace(-1.0, 2.0, 7), delta)
        assert box_count_graph(xs, np.zeros(7), delta) == 1

    @pytest.mark.parametrize("delta", DELTAS)
    def test_last_sample_on_gridline_folds(self, delta):
        xs = np.linspace(2 * delta, 6 * delta, 41)
        xs[-1] = 6 * delta
        ys = np.cos(7 * xs)
        assert_same(xs, ys, delta)
        # a flat run from a gridline to a gridline costs its columns, no more
        assert box_count_graph(xs, np.full(41, 0.5 * delta), delta) == 4
        # the whole sample set on one gridline folds into the column below
        assert_same(np.full(3, 6 * delta), [0.0, 1.0, 2.0], delta)


def schedule(a, width=0.75, levels=5):
    """Widths width * a^-r, r = 0..levels - 1, coarsest first, as
    `curve_scale_schedule` builds them."""
    return [width * float(a) ** (-r) for r in range(levels)]


def assert_widths(xs, ys, deltas):
    """One multi-width call equals the reference at every width."""
    want = tuple(reference_count(xs, ys, d) for d in deltas)
    assert box_count_graph(xs, ys, deltas) == want
    assert box_count_graph(xs, ys, deltas[::-1]) == want[::-1]


@st.composite
def near_grid_schedules(draw):
    """`near_grid_samples` with a schedule of widths whose finest is the drawn delta."""
    xs, ys, delta = draw(near_grid_samples())
    a = draw(st.sampled_from([2, 3, 4]))
    return xs, ys, [delta * a ** r for r in range(draw(st.integers(1, 4)), -1, -1)]


class TestWidths:
    """Several widths in one call: every count is the reference's, whichever
    path each width takes."""

    @settings(max_examples=300, deadline=None)
    @given(near_grid_schedules())
    def test_random_sorted_samples(self, case):
        assert_widths(*case)

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("x0", [0.0, -1.3, 5.0])   # -1.3 straddles 0
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_offsets_around_every_gridline(self, a, x0, offset):
        deltas = schedule(a)
        k0 = round(x0 / deltas[-1])
        k = np.arange(k0, k0 + 2 * a ** 4 + 3)   # every finest gridline over two coarsest columns
        xs = np.sort(np.concatenate([k * deltas[-1] * (1.0 + offset), k * deltas[-1]]))
        ys = np.sin(np.arange(xs.size, dtype=np.float64))
        assert_widths(xs, ys, deltas)

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("level", range(5))
    def test_offsets_around_zero_and_one_coarse_column(self, a, offset, level):
        # max(1, |q|) in the gridline test makes the widths differ only
        # within a coarse column of x = 0: absolute offsets of each width
        deltas = schedule(a)
        d = deltas[level]
        xs = np.sort(np.array([-d, -d * (1.0 - offset), -offset * d, 0.0, offset * d,
                               d * (1.0 - offset), d, 0.3, -0.4]))
        assert_widths(xs, np.cos(5.0 * np.arange(xs.size)), deltas)

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("level", range(5))
    def test_folded_top_edge(self, a, level):
        # the last samples on a gridline of width `level` (the finest's for 4)
        deltas = schedule(a)
        top = 3 * deltas[level]
        xs = np.append(np.linspace(-0.2, top, 200), [top, top])
        assert_widths(xs, np.sin(11.0 * xs) + np.arange(xs.size) % 3, deltas)
        assert_widths(np.full(3, top), [0.0, 1.0, 2.0], deltas)

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_single_column(self, a):
        deltas = schedule(a)
        xs = 5 * deltas[-1] + np.linspace(0.1, 0.9, 7) * deltas[-1]
        assert_widths(xs, np.linspace(-1.0, 2.0, 7), deltas)
        assert box_count_graph(xs, np.zeros(7), deltas) == (1,) * 5
        assert_widths([0.3], [1.7], deltas)

    def test_scalar_and_sequence(self):
        xs, ys = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 33) ** 2
        assert box_count_graph(xs, ys, 0.25) == reference_count(xs, ys, 0.25) == 6
        assert box_count_graph(xs, ys, np.float64(0.25)) == 6
        assert box_count_graph(xs, ys, [0.25]) == (6,)
        assert box_count_graph(xs, ys, ()) == ()
        for bad in ([0.5, 0.0], np.nan, [0.5, np.nan]):   # a NaN width used to count 1
            with pytest.raises(ValueError, match="delta must be positive"):
                box_count_graph(xs, ys, bad)
        with pytest.raises(ValueError, match="needs 100000000 columns"):
            box_count_graph(xs, ys, [0.5, 1e-8])


@pytest.mark.parametrize("model", FIXTURE_MODELS)
def test_fixture_curves_depths_0_to_8(model):
    deltas = curve_scale_schedule(model)
    for depth in range(9):
        gx, gy = merged_curve(refine_attractor(model, depth))
        for delta in deltas:
            assert_same(gx, gy, delta)
        assert_widths(gx, gy, deltas)


RUN = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestInputContract:
    @pytest.mark.parametrize("xs", [[0.1, 0.6, 0.2, 0.7], [0.9, 0.1]])
    def test_unsorted_rejected(self, xs):
        with pytest.raises(ValueError, match="sorted ascending"):
            box_count_graph(xs, np.zeros(len(xs)), 0.5)

    @pytest.mark.parametrize("xs", [[0.1, np.nan, 0.7], [np.nan], [0.1, np.inf],
                                    [-np.inf, 0.2], [0.1, 0.2, np.nan]])
    def test_non_finite_rejected(self, xs):
        with pytest.raises(ValueError, match="finite"):
            box_count_graph(xs, np.zeros(len(xs)), 0.5)

    @pytest.mark.parametrize("xs, ys", [([0.1, 0.6], [0.0, np.nan]),
                                        ([0.1, 0.6], [0.0, np.inf]),
                                        ([0.1, 0.6], [-np.inf, 1.0]),
                                        ([0.1, 0.2, 0.6], [np.nan, 0.0, 1.0]),
                                        ([0.1, 0.5, 0.7], [0.0, np.nan, 1.0]),
                                        ([0.1, 2.7], [np.inf, -np.inf]),
                                        # columns that are runs of two samples
                                        (RUN, [np.nan, 0.0, 0.0, 0.0, 0.0]),
                                        (RUN, [0.0, np.nan, 0.0, 0.0, 0.0]),
                                        (RUN, [0.0, 0.0, np.inf, 0.0, 0.0]),
                                        (RUN, [0.0, 0.0, 0.0, 0.0, -np.inf])])
    def test_non_finite_ys_rejected(self, xs, ys):
        # NaN and inf reach the column extents, which used to drop the column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ys must be finite"):
                box_count_graph(xs, ys, 0.5)

    def test_empty_columns_accepted(self):
        assert box_count_graph([0.1, 0.6], [0.0, 1.0], 0.5) == 2
        assert_same([0.1, 2.7], [0.0, 1.0], 0.5)

    @pytest.mark.parametrize("xs, ys", [([0.1, 0.2], [0.0]),
                                        ([[0.1, 0.2]], [[0.0, 1.0]]),
                                        (0.5, 0.5)])
    def test_shapes_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            box_count_graph(xs, ys, 0.5)

    def test_empty_and_bad_delta_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            box_count_graph([], [], 0.5)
        with pytest.raises(ValueError, match="delta"):
            box_count_graph([0.1], [0.0], 0.0)

    def test_repeated_x_accepted(self):
        assert_same([0.5, 0.5, 0.5, 1.0], [0.0, 1.0, 0.2, 0.3], 0.25)

    def test_columns_over_the_point_limit_refused(self):
        # time and memory follow the column count: 1e8 columns would take GBs
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"^delta 1e-08 needs 100000000 columns "
                                             r".* more than 67108864$"):
            box_count_graph([0.0, 1.0], [0.0, 1.0], 1e-8)
        assert time.monotonic() - start < 0.5

    def test_columns_at_the_point_limit_counted(self, monkeypatch):
        monkeypatch.setattr(dimension, "POINT_LIMIT", 4)
        assert_same([0.0, 0.6, 1.0], [0.0, 2.0, 1.0], 0.25)   # 4 columns
        with pytest.raises(ValueError, match="needs 5 columns"):
            box_count_graph([0.0, 0.6, 1.0], [0.0, 2.0, 1.0], 0.2)


# node layouts of n regions: dyadic, rounded (tenths, thirds, i/96) and
# away from 0, where the columns straddle the nodes
NODES = {
    "unit": lambda n: [i / n for i in range(n + 1)],
    "tenths": lambda n: [0.1 * i for i in range(n + 1)],
    "thirds": lambda n: [i / 3 for i in range(n + 1)],
    "96ths": lambda n: [i / 96 for i in range(n + 1)],
    "5-6.1": lambda n: [5 + 1.1 * i / n for i in range(n + 1)],
}
DEPTHS = {2: 8, 3: 5, 4: 4}   # deepest refinement drawn: at most 2049 samples


@st.composite
def uniform_curves(draw):
    """(samples, widths r = 0..depth) of a refined uniform model: domains of
    a regions, a random wiring that feeds every domain, flips."""
    a = draw(st.sampled_from(sorted(DEPTHS)))
    nodes = draw(st.sampled_from(sorted(NODES)))
    # domains; 7 or 9 nodes on [5, 6.1] miss the default interpolant
    k = draw(st.integers(1, 1 if nodes == "5-6.1" else 2))
    n = a * k
    data = list(zip(NODES[nodes](n), draw(st.lists(st.floats(-5.0, 5.0), min_size=n + 1,
                                                      max_size=n + 1))))
    gamma = draw(st.permutations([i % k for i in range(n)]))
    flip = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scaling = Constant(draw(st.sampled_from([0.3, 0.6, -0.8])))
    model = build_model(data, [(a * j, a * j + a) for j in range(k)], gamma, scaling, flip=flip)
    depth = draw(st.integers(0, DEPTHS[a]))
    return merged_curve(refine_attractor(model, depth)), curve_scale_schedule(model, 0, depth)


@st.composite
def perturbed_runs(draw):
    """Samples that are runs of m per column of width delta, and widths
    around delta.  Some samples are moved: by OFFSETS, onto their nearest
    gridline and then by OFFSETS, or onto a neighbour's x."""
    delta = draw(st.sampled_from(DELTAS))
    k0 = draw(st.sampled_from([0, 3, -7, 1000]))
    m = draw(st.sampled_from([1, 2, 3, 4, 8]))
    cols = draw(st.integers(1, 24))
    xs = (k0 + np.arange(cols * m + 1) / m) * delta
    n = xs.size - 1
    for i in draw(st.lists(st.integers(0, n), max_size=6)):
        move = draw(st.sampled_from(["offset", "gridline", "previous", "next"]))
        if move == "previous":
            xs[i] = xs[max(i - 1, 0)]
        elif move == "next":
            xs[i] = xs[min(i + 1, n)]
        else:
            x = np.rint(xs[i] / delta) * delta if move == "gridline" else xs[i]
            xs[i] = x * (1.0 + draw(st.sampled_from(OFFSETS)))
    xs = np.sort(xs)
    ys = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=xs.size, max_size=xs.size)))
    return xs, ys, [delta * f for f in (1, 2, 3, 4, m, 2 * m)] + [delta / m]


def searched_widths(monkeypatch):
    """A list that grows by the width of every `_graph_extents` search."""
    calls, search = [], dimension._graph_extents

    def counting(xs, ys, delta, *columns):
        calls.append(delta)
        return search(xs, ys, delta, *columns)
    monkeypatch.setattr(dimension, "_graph_extents", counting)
    return calls


def fixture_curves():
    """pytest params (model, depth) of every fixture curve, at its configured
    depth."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        cfg = parse_config(json.loads(path.read_text()))
        curves = [cfg.curve] if cfg.curve is not None else [mc for mc, _ in cfg.x_curves
                                                              + cfg.y_curves]
        out += [pytest.param(mc.build(), mc.depth, id=f"{path.stem}-{k}")
                for k, mc in enumerate(curves)]
    return out


class TestRuns:
    """Columns that are index runs of the samples are counted without a
    search, and each run is checked on its own width's samples."""

    @settings(max_examples=300, deadline=None)
    @given(uniform_curves())
    def test_refined_uniform_models(self, case):
        (gx, gy), deltas = case
        assert_widths(gx, gy, deltas)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_runs())
    def test_perturbed_runs(self, case):
        assert_widths(*case)

    @pytest.mark.parametrize("model, depth", fixture_curves())
    def test_fixture_curves_are_never_searched(self, monkeypatch, model, depth):
        gx, gy = merged_curve(refine_attractor(model, depth))
        deltas = curve_scale_schedule(model, 0, depth)
        calls = searched_widths(monkeypatch)
        counts = box_count_graph(gx, gy, deltas)
        assert calls == []
        assert counts == tuple(reference_count(gx, gy, d) for d in deltas)

    @pytest.mark.parametrize("seed", range(10))
    def test_benchmark_models_are_never_searched(self, monkeypatch, seed):
        calls = searched_widths(monkeypatch)
        for name, doc in workloads.generate("analyze", seed).items():
            cfg = parse_config(json.loads(workloads.dumps(doc)))
            estimate_curve_dimension(cfg.curve.build(), *cfg.scales, depth=cfg.curve.depth)
            assert calls == [], name

    def test_nodes_away_from_zero_are_searched(self, monkeypatch):
        xs = NODES["5-6.1"](4)
        model = build_model(list(zip(xs, (1.0, 3.0, -1.0, 2.0, 0.0))), [(0, 4)], [0] * 4,
                            Constant(0.5))
        gx, gy = merged_curve(refine_attractor(model, 5))
        deltas = curve_scale_schedule(model, 0, 5)
        calls = searched_widths(monkeypatch)
        counts = box_count_graph(gx, gy, deltas)
        assert len(calls) >= 1
        assert counts == tuple(reference_count(gx, gy, d) for d in deltas)
