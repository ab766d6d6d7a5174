"""Graph box counting against the per-sample classifier it replaced.

`box_count_graph` finds column boundaries by binary search and classifies
only the samples next to a gridline.  The per-sample body it replaced is
kept below as the reference; every case here must give the same count.
"""
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (box_count_graph, curve_scale_schedule, dimension, merged_curve,
                       refine_attractor)
from fractalis.dimension import _on_gridline, _snapped_floor, _vspan_cells
from test_plan_depth import FIXTURE_MODELS

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
    """Several widths in one call: nested widths reduce the finest width's
    columns, the rest are searched, and every count is the reference's."""

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

    @pytest.mark.parametrize("a, near_zero, searches", [
        (4, None, 1),     # every width nests: the finest is the only search
        (2, None, 1),
        (3, None, 5),     # 3 is no power of two: every width is searched
        (2, 3e-12, 4),    # 3e-12 finest widths from 0: on gridline 0 at f >= 4 only
        (4, 1e-13, 1)])   # on gridline 0 at every width
    def test_nested_widths_reduce_the_finest(self, monkeypatch, a, near_zero, searches):
        deltas = schedule(a)
        xs = np.linspace(0.0, 2.0, 4001)
        if near_zero is not None:
            xs[1] = near_zero * deltas[-1]
        ys = np.sin(9.0 * xs)
        calls, search = [], dimension._graph_extents

        def counting(*args):
            calls.append(args[2])
            return search(*args)
        monkeypatch.setattr(dimension, "_graph_extents", counting)
        got = box_count_graph(xs, ys, deltas)
        assert len(calls) == searches and calls[0] == deltas[-1]
        monkeypatch.setattr(dimension, "_graph_extents", search)
        assert got == tuple(reference_count(xs, ys, d) for d in deltas)

    def test_far_from_zero_is_searched(self, monkeypatch):
        # past |x| / delta ~ 5e11 the gridline windows reach half a column
        deltas = schedule(4)
        xs = 1e12 * deltas[-1] + np.arange(9) * deltas[-1]
        calls, search = [], dimension._graph_extents
        monkeypatch.setattr(dimension, "_graph_extents",
                            lambda *args: calls.append(args) or search(*args))
        box_count_graph(xs, np.arange(9.0), deltas)
        assert len(calls) == 5

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
                                        ([0.1, 2.7], [np.inf, -np.inf])])
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
