"""The last refinement round in slabs, and the estimate that counts it.

`rifs.refine_slabs` writes the level after a sampling one slab at a time
into one reused pair of buffers.  The slabs, each shared end sample taken
once, must be `refine_attractor`'s level bit for bit, whatever region
starts they are cut at.  Cut at nodes on a gridline of every width, their
summed box counts must be one whole-curve `box_count_graph` call's, and
`estimate_curve_dimension` must refuse heights past 2^53 cells exactly as
that call does.  It must also never hold the whole last level.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalis import (BoxCountError, Constant, box_count_graph, build_model,
                       curve_scale_schedule, dimension, estimate_curve_dimension, merged_curve,
                       refine_attractor)
from fractalis.dimension import _gridline_nodes
from fractalis.rifs import plan_depth, refine_slabs
from test_plan_depth import DATA, EXACT_FAMILY, FIXTURE_MODELS, wirings
from test_rifs import uniform_wirings


def slabs_of(model, depth, cuts):
    """Copies of the slabs of the depth-`depth` level: each slab is a view
    of the buffers the next one reuses."""
    level = refine_attractor(model, depth - 1)
    return [(xs.copy(), ys.copy()) for xs, ys in refine_slabs(model, level, cuts)]


def assert_slabs_are_the_level(model, depth, cuts):
    """The slabs joined are the level bit for bit; each ends at a cut region
    start once it holds the refined level's sample count, or at the last sample."""
    slabs = slabs_of(model, depth, cuts)
    level = refine_attractor(model, depth)
    xs = np.concatenate([slabs[0][0]] + [x[1:] for x, _ in slabs[1:]])
    ys = np.concatenate([slabs[0][1]] + [y[1:] for _, y in slabs[1:]])
    assert xs.tobytes() == level.xs.tobytes() and ys.tobytes() == level.ys.tobytes()
    least = plan_depth(model, depth - 1).total
    ends = np.cumsum([x.size - 1 for x, _ in slabs])
    assert ends[-1] == level.xs.size - 1
    allowed = {level.starts[k] for k in cuts}
    assert all(end in allowed and x.size >= least for end, (x, _) in zip(ends[:-1], slabs))
    return slabs


def assert_counts_add_up(model, depth, deltas):
    """Slab counts, cut at the nodes on every width's gridline, sum to the
    whole curve's, width by width."""
    slabs = slabs_of(model, depth, _gridline_nodes(model, deltas))
    summed = tuple(map(sum, zip(*(box_count_graph(x, y, deltas) for x, y in slabs))))
    gx, gy = merged_curve(refine_attractor(model, depth))
    assert summed == box_count_graph(gx, gy, deltas)
    return slabs


def counting_calls(monkeypatch):
    """A list that grows by the sample count of every `box_count_graph` call
    the estimate makes."""
    calls, count = [], dimension.box_count_graph

    def counting(xs, ys, delta):
        calls.append(xs.size)
        return count(xs, ys, delta)
    monkeypatch.setattr(dimension, "box_count_graph", counting)
    return calls


# nodes on [5, 6.1]: x / delta_r = 4^r (200/11 + k) is an integer for no node
ON_NO_GRIDLINE = build_model(
    [(5 + 1.1 * k / 4, y) for k, y in enumerate((1.0, 3.0, -1.0, 2.0, 0.0))],
    [(0, 4)], [0] * 4, Constant(0.5))


class TestSlabs:
    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_curves_depths_1_to_9(self, model):
        # from the nodes (depth 0) to a 4.2 M-sample level: one slab, a cut at
        # every region start, and the estimate's cuts
        interior = range(1, model.n_regions)
        for depth in range(1, 10):
            assert len(assert_slabs_are_the_level(model, depth, ())) == 1
            assert len(assert_slabs_are_the_level(model, depth, interior)) > 1
            slabs = assert_counts_add_up(model, depth, curve_scale_schedule(model, 0, depth))
            assert len(slabs) > 1   # every fixture node is on every gridline

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(uniform_wirings(), wirings()), st.integers(1, 7), st.data())
    def test_random_wirings_and_cuts(self, model, depth, data):
        # flipped regions, shared and uneven domains, any subset of cuts
        assume(model is not None and plan_depth(model, depth).total <= 2 ** 15)
        cuts = data.draw(st.sets(st.integers(1, model.n_regions - 1)))
        assert_slabs_are_the_level(model, depth, sorted(cuts))
        assert_counts_add_up(model, depth, curve_scale_schedule(model, 0, depth))

    def test_nodes_on_no_gridline_give_one_slab(self, monkeypatch):
        deltas = curve_scale_schedule(ON_NO_GRIDLINE, 2, 6)
        assert _gridline_nodes(ON_NO_GRIDLINE, deltas).size == 0
        calls = counting_calls(monkeypatch)
        report, plan = estimate_curve_dimension(ON_NO_GRIDLINE)
        assert calls == [plan.total]
        gx, gy = merged_curve(refine_attractor(ON_NO_GRIDLINE, plan.depth))
        assert report.series.counts == box_count_graph(gx, gy, report.series.deltas)

    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_estimate_counts_are_the_whole_curves(self, monkeypatch, model):
        calls = counting_calls(monkeypatch)
        report, plan = estimate_curve_dimension(model)
        assert len(calls) > 1
        assert sum(calls) == plan.total + len(calls) - 1
        gx, gy = merged_curve(refine_attractor(model, plan.depth))
        assert report.series.counts == box_count_graph(gx, gy, report.series.deltas)


class TestRefusal:
    """The 2^53 refusal names the whole curve's figures, as one call on the
    whole curve does, whether its slabs fail it or only their sum does."""

    @pytest.mark.parametrize("factor, slabs_fail", [(1e6, False), (1e7, True), (1e15, True)])
    def test_whole_curve_message(self, factor, slabs_fail):
        model = build_model([(x, y * factor) for x, y in DATA], [(0, 4)], [0] * 4,
                            Constant(0.6))
        deltas = curve_scale_schedule(model, 2, 6)
        gx, gy = merged_curve(refine_attractor(model, 7))
        with pytest.raises(BoxCountError) as whole:
            box_count_graph(gx, gy, deltas)
        failed = 0
        for xs, ys in slabs_of(model, 7, _gridline_nodes(model, deltas)):
            try:
                box_count_graph(xs, ys, deltas)
            except BoxCountError:
                failed += 1
        assert failed == (4 if slabs_fail else 0)
        with pytest.raises(BoxCountError) as got:
            estimate_curve_dimension(model)
        assert str(got.value) == str(whole.value)

    def test_under_the_bound_counts(self):
        model = build_model([(x, y * 1e5) for x, y in DATA], [(0, 4)], [0] * 4, Constant(0.6))
        report, plan = estimate_curve_dimension(model)
        gx, gy = merged_curve(refine_attractor(model, plan.depth))
        assert report.series.counts == box_count_graph(gx, gy, report.series.deltas)


def test_estimate_peak_under_12_bytes_a_sample():
    # the refined level's x column and detail (16 bytes an old sample, 4 a
    # final one) and one slab pair (16 bytes a slab sample, 4 a final one):
    # the whole last level's two columns alone would be 16
    model = EXACT_FAMILY[1].values[0]
    estimate_curve_dimension(model, depth=7)   # what numpy and threading set up once
    tracemalloc.start()
    try:
        _, plan = estimate_curve_dimension(model, depth=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.total == 4 ** 11 + 1
    assert peak < 12 * plan.total
