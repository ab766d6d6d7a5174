import json
import math
import os
import sys
import tracemalloc
from dataclasses import astuple
from itertools import accumulate, count
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractalis import (Affine, Constant, ContractionReport, HypothesisError, LagrangeNodes,
                       ModelError, Polynomial, Scaled, Sinusoid, Sum, VariationCheck,
                       abs_extrema, build_model, contraction_report, curve_dimension_bounds,
                       default_base, default_interpolant, derive_connectivity, eval_F,
                       functional_residual, lipschitz_bound, max_variation,
                       merged_curve, refine_attractor, rifs, shares, variation_bound_report)
from fractalis.catalog import abs_extrema_each
from fractalis.cli import _model_summary
from fractalis.config import parse_config
from fractalis.rifs import AttractorSampling, InterpolationData, _sampled_range, plan_depth
from test_benchmark_contract import workloads
from test_plan_depth import EXACT_FAMILY, FIXTURE_MODELS, refined_copy, wirings

DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
TWO_DOMAINS = [(0, 2), (2, 4)]
SPLIT = [0, 1, 0, 1]


def example_model(scaling=Constant(0.9)):
    return build_model(DATA, TWO_DOMAINS, SPLIT, scaling)


def whole_domain_model(scaling):
    return build_model(DATA, [(0, 4)], [0, 0, 0, 0], scaling)


def report_transition(model):
    """The row-stochastic transition matrix as the run reports write it."""
    return np.array(_model_summary(model, plan_depth(model, 0))["transition_matrix"])


class TestConnectivity:
    def test_split_fixture_matrices(self):
        # hand-derived: regions 0,1 sit in domain [0, 0.5], regions 2,3 in [0.5, 1];
        # each region is covered by the domains assigned to regions {0,2} or {1,3}
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        C = derive_connectivity(data, TWO_DOMAINS, SPLIT)
        assert C.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1],
                              [1, 1, 0, 0], [0, 0, 1, 1]]
        assert report_transition(example_model(Constant(0.5))).tolist() == [
            [0.5, 0.0, 0.5, 0.0], [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5]]

    def test_whole_interval_uniform(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        C = derive_connectivity(data, [(0, 4)], [0, 0, 0, 0])
        assert np.all(C == 1)
        assert np.all(report_transition(whole_domain_model(Constant(0.5))) == 0.25)

    def test_row_sums_exactly_one(self):
        for model in (example_model(), whole_domain_model(Constant(0.5))):
            assert np.all(report_transition(model).sum(axis=1) == 1.0)

    def test_connection_transition_duality(self):
        model = example_model()
        C, M = model.connection, report_transition(model)
        for i in range(4):
            for j in range(4):
                assert (C[i, j] == 1) == (M[j, i] > 0)

    def test_minimal_two_region_model(self):
        model = build_model([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], [(0, 2)], [0, 0],
                            Constant(0.3))
        assert np.all(model.connection == 1)
        assert np.all(report_transition(model) == 0.5)


def ref_connectivity(data, domains, dom):
    """The loop body derive_connectivity replaced, with the transition
    matrix the reports write; validation is shared."""
    n = data.n_regions

    def contains(region, k):
        s, e = domains[k]
        return s <= region and region + 1 <= e

    C = np.zeros((n, n), dtype=np.int64)
    M = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            C[i, j] = 1 if contains(j, dom[i]) else 0
    for i in range(n):
        hits = [j for j in range(n) if contains(i, dom[j])]
        if not hits:
            raise ModelError(
                f"region {i} is contained in no assigned domain; "
                "its content would never be used")
        for j in hits:
            M[i, j] = 1.0 / len(hits)
    return C, M


@st.composite
def span_wirings(draw):
    n = draw(st.integers(2, 40))
    starts = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=6))
    spans = tuple((s, draw(st.integers(s + 2, n))) for s in starts)
    dom = draw(st.lists(st.integers(0, len(spans) - 1), min_size=n, max_size=n))
    data = InterpolationData(tuple(range(n + 1)), (0.0,) * (n + 1))
    return data, spans, tuple(dom)


@settings(max_examples=200, deadline=None)
@given(span_wirings())
def test_connectivity_matches_loop_reference(wiring):
    try:
        ref = ref_connectivity(*wiring)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            derive_connectivity(*wiring)
        assert str(got.value) == str(exc)
        return
    C = derive_connectivity(*wiring)
    assert C.dtype == ref[0].dtype and C.shape == ref[0].shape
    assert C.flags["C_CONTIGUOUS"]
    assert C.tobytes() == ref[0].tobytes()


def nan_at(x):
    """A spec with finite parameters that evaluates to NaN at x (and
    everywhere): (M + M) + (-M - M) with M the largest float is inf - inf.
    numpy warns of both steps, so its callers build under np.errstate."""
    big, low = Constant(sys.float_info.max), Constant(-sys.float_info.max)
    spec = Sum((Sum((big, big)), Sum((low, low))))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(float(spec(np.float64(x))))
    return spec


class TestBuildValidation:
    def test_narrow_domain_rejected(self):
        with pytest.raises(ModelError, match="at least 2 regions"):
            build_model(DATA, [(0, 1), (1, 4)], [0, 1, 1, 1], Constant(0.5))

    def test_partial_assignment_rejected(self):
        with pytest.raises(ModelError, match="expected 4 entries"):
            build_model(DATA, TWO_DOMAINS, [0, 1, 0], Constant(0.5))

    def test_domain_index_out_of_range(self):
        with pytest.raises(ModelError, match="out of range"):
            build_model(DATA, TWO_DOMAINS, [0, 1, 0, 2], Constant(0.5))

    @pytest.mark.parametrize("domains, domain_of, flip, message", [
        ([(0, 4.9)], [0, 0, 0, 0], None,
         "domains[0]: expected a pair of integer node indices, got (0, 4.9)"),
        ([(False, 4)], [0, 0, 0, 0], None,
         "domains[0]: expected a pair of integer node indices, got (False, 4)"),
        ([(0, 2, 4)], [0, 0, 0, 0], None,
         "domains[0]: expected a pair of integer node indices, got (0, 2, 4)"),
        ([(0, 4)], [0.7, 0, 0, 0], None,
         "region assignment[0]: expected an integer domain index, got 0.7"),
        ([(0, 4)], [0, 0, 0, True], None,
         "region assignment[3]: expected an integer domain index, got True"),
        ([(0, 4)], [0, 0, 0, 0], ["no", "", "x", 0], "flip[0]: expected a boolean, got 'no'"),
        ([(0, 4)], [0, 0, 0, 0], [True, False, 1, False], "flip[2]: expected a boolean, got 1"),
        # the first fault of the lossy call: spans, then indices, then flips
        ([(0, 4.9)], [0.7, 0, 0, 0], ["no", "", "x", 0],
         "domains[0]: expected a pair of integer node indices, got (0, 4.9)"),
    ])
    def test_wiring_values_are_not_coerced(self, domains, domain_of, flip, message):
        with pytest.raises(ModelError) as exc:
            build_model(DATA, domains, domain_of, Constant(0.5), flip=flip)
        assert str(exc.value) == message

    @pytest.mark.parametrize("data, message", [
        ([("0", 20), (0.25, 30), (0.5, 10), (0.75, 50), (1, 10)],
         "data[0]: x must be a number, got '0'"),
        ([(0, 20), (0.25, "30"), (0.5, True), (0.75, 50), (1, 10)],
         "data[1]: y must be a number, got '30'"),
        ([(0, 20), (0.25, 30), (0.5, True), (0.75, 50), (1, 10)],
         "data[2]: y must be a number, got True"),
        ([(0, 20), (0.25, 30), (0.5, 10), (0.75, 50), (1, np.bool_(True))],
         f"data[4]: y must be a number, got {np.bool_(True)!r}"),
        ([(0, 20), (0.25, 30), (0.5, 10), (0.75, 50), (1, None)],
         "data[4]: y must be a number, got None"),
    ])
    def test_node_values_are_not_coerced(self, data, message):
        with pytest.raises(ModelError) as exc:
            build_model(data, [(0, 4)], [0, 0, 0, 0], Constant(0.5))
        assert str(exc.value) == message

    def test_numpy_node_values_accepted(self):
        xs = np.linspace(0.0, 1.0, 5)
        ys = np.array([20, 30, 10, 50, 10], dtype=np.int64)
        model = build_model(list(zip(xs, ys)), [(0, 4)], [0, 0, 0, 0], Constant(0.5))
        assert model.data.ys == (20.0, 30.0, 10.0, 50.0, 10.0)
        assert {type(v) for v in model.data.xs + model.data.ys} == {float}

    def test_numpy_integers_and_bools_accepted(self):
        model = build_model(DATA, [(np.int64(0), np.int64(4))], np.zeros(4, dtype=np.int64),
                            Constant(0.5), flip=np.array([True, False, False, True]))
        assert model.domains == ((0, 4),) and model.domain_of == (0, 0, 0, 0)
        assert {type(v) for v in (*model.domains[0], *model.domain_of)} == {int}
        assert model.flip == (True, False, False, True)

    def test_interpolant_must_hit_nodes(self):
        with pytest.raises(ModelError, match="interpolant misses node"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                        interpolant=Constant(0.0))

    def test_base_must_hit_domain_endpoints(self):
        with pytest.raises(ModelError, match="base misses"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                        base=Constant(0.0))

    def test_nan_interpolant_fails_the_node_check(self):
        with pytest.raises(ModelError, match="interpolant misses node 0: .* = nan"):
            with np.errstate(over="ignore", invalid="ignore"):
                build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5), interpolant=nan_at(0.0))

    def test_nan_base_fails_the_endpoint_check(self):
        with pytest.raises(ModelError, match="base misses domain-endpoint node 0: .* = nan"):
            with np.errstate(over="ignore", invalid="ignore"):
                build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5), base=nan_at(0.0))

    def test_nan_vertical_map_fails_the_endpoint_identity(self):
        # a non-affine range map is not checked before the endpoint identities;
        # node 0's height is 20
        with pytest.raises(ModelError, match="region 0: vertical map sends node 0 to nan"):
            with np.errstate(over="ignore", invalid="ignore"):
                build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5), range_map=nan_at(20.0))

    def test_large_constant_scaling_rejected(self):
        with pytest.raises(ModelError, match="scaling"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(1.0))

    def test_marginal_scaling_warns(self):
        model = example_model(Sinusoid(1.0, 1.0, 0.0, "cos"))
        assert any("isolated points" in w for w in model.warnings)

    def test_default_base_differs_from_interpolant(self):
        model = example_model()
        # base: quadratic through nodes 0, 2, 4; interpolant: quartic through all
        assert float(model.base(0.5)) == pytest.approx(10.0, abs=1e-9)
        assert float(model.base(0.25)) != pytest.approx(30.0, abs=1.0)

    def test_data_envelope_contains_nodes(self):
        model = example_model()
        lo, hi = model.y_envelope
        assert lo < min(y for _, y in DATA) and hi > max(y for _, y in DATA)


class TestUnusedDomains:
    """A domain no region is assigned to is still checked, kept on the model
    and counted by the closed-form bounds and the base's certification."""

    @pytest.mark.parametrize("extra, message", [
        ((1, 9), "domains[1]: end node 9 exceeds node count"),
        ((1, 2), "domains[1]: must span at least 2 regions (end - start >= 2), got [1, 2]"),
        ((-1, 2), "domains[1]: start node -1 out of range"),
        ((1, 3.0), "domains[1]: expected a pair of integer node indices, got (1, 3.0)"),
    ])
    def test_unused_domain_checked(self, extra, message):
        with pytest.raises(ModelError) as exc:
            build_model(DATA, [(0, 4), extra], [0, 0, 0, 0], Constant(0.5))
        assert str(exc.value) == message

    def test_unused_domain_breaks_uniform_geometry(self):
        model = build_model(DATA, [(0, 4), (1, 3)], [0, 0, 0, 0], Constant(0.5))
        assert model.domains == ((0, 4), (1, 3))
        with pytest.raises(HypothesisError, match="same number of regions"):
            curve_dimension_bounds(model)

    def test_unused_domain_counts_in_the_collinearity_check(self):
        # the assigned domains [0, 2] and [2, 4] are collinear, the unused [1, 3] is not
        data = [(0.0, 0.0), (0.25, 1.0), (0.5, 2.0), (0.75, 1.0), (1.0, 0.0)]
        model = build_model(data, [(0, 2), (2, 4), (1, 3)], SPLIT, Constant(0.6))
        assert curve_dimension_bounds(model).upper_bound > 1.0
        with pytest.raises(HypothesisError, match="collinear"):
            curve_dimension_bounds(build_model(data, TWO_DOMAINS, SPLIT, Constant(0.6)))

    def test_base_certified_over_every_domain_span(self, monkeypatch):
        model = build_model(DATA, [(0, 4), (1, 3)], [0, 0, 0, 0], Constant(0.5))
        seen = []

        def spy(certify):
            def wrapped(spec, intervals):
                if spec is model.base:
                    seen.append(np.asarray(intervals).tolist())
                return certify(spec, intervals)
            return wrapped
        monkeypatch.setattr(rifs, "abs_max_each", spy(rifs.abs_max_each))
        monkeypatch.setattr(rifs, "lipschitz_bound_each", spy(rifs.lipschitz_bound_each))
        rifs.lipschitz_bounds(model)
        assert seen == [[[0.0, 1.0], [0.25, 0.75]]] * 2


class TestEvalF:
    def test_domain_endpoint_maps_to_node(self):
        model = example_model()
        # region 0 is fed from [x0, x2]; its map carries x0 to x0 and x2 to x1
        assert eval_F(model, 0, 0.0, 20.0) == pytest.approx(20.0, abs=1e-9)
        assert eval_F(model, 0, 0.5, 10.0) == pytest.approx(30.0, abs=1e-9)

    def test_zero_scaling_collapses_to_interpolant(self):
        model = example_model(Constant(0.0))
        for x, y in ((0.1, -3.0), (0.3, 55.0), (0.5, 0.0)):
            lx = float(model.map_apply(0, x))
            expect = float(model.interpolant(lx))
            assert eval_F(model, 0, x, y) == pytest.approx(expect, abs=1e-12)

    def test_against_direct_formula(self):
        model = example_model()
        x, y = 0.25, 30.0
        lx = 0.5 * x
        expect = (float(model.scaling[0](lx))
                  * (y - float(model.base(x)))
                  + float(model.interpolant(lx)))
        assert eval_F(model, 0, x, y) == pytest.approx(expect, rel=1e-14)

    def test_outside_domain_rejected(self):
        model = example_model()
        with pytest.raises(ModelError, match="domain"):
            eval_F(model, 0, 0.75, 10.0)


class TestRefinement:
    def test_depth_zero_is_nodes(self):
        s = refine_attractor(example_model(), 0)
        gx, gy = merged_curve(s)
        assert gx.tolist() == [p[0] for p in DATA]
        assert gy.tolist() == [p[1] for p in DATA]

    def test_point_counts(self):
        # a = 2 regions per domain: each region holds a^d + 1 points at depth d
        model = example_model()
        for d in (1, 2, 3, 5):
            s = refine_attractor(model, d)
            assert [x.size for x, _ in s.regions] == [2 ** d + 1] * 4
            assert merged_curve(s)[0].size == 4 * 2 ** d + 1

    def test_nodes_present_exactly_at_every_depth(self):
        model = example_model()
        for d in (0, 1, 4, 8):
            gx, gy = merged_curve(refine_attractor(model, d))
            for x, y in DATA:
                hits = np.nonzero(gx == x)[0]
                assert hits.size == 1
                assert gy[hits[0]] == y

    def test_points_inside_region_and_envelope(self):
        model = example_model()
        s = refine_attractor(model, 8)
        lo, hi = model.y_envelope
        for i, (xs, ys) in enumerate(s.regions):
            rl, rh = model.data.region_bounds(i)
            assert xs[0] == rl and xs[-1] == rh
            assert np.all(np.diff(xs) > 0)
            assert np.all((xs >= rl) & (xs <= rh))
            assert np.all((ys >= lo) & (ys <= hi))

    def test_x_sets_nest_across_depths(self):
        model = example_model()
        prev = merged_curve(refine_attractor(model, 3))[0]
        nxt = merged_curve(refine_attractor(model, 4))[0]
        assert np.isin(prev, nxt).all()

    def test_zero_scaling_yields_interpolant(self):
        model = example_model(Constant(0.0))
        gx, gy = merged_curve(refine_attractor(model, 6))
        expect = model.interpolant(gx)
        assert np.max(np.abs(gy - expect)) <= 1e-12 * (1 + np.abs(expect).max())

    def test_determinism(self):
        a = merged_curve(refine_attractor(example_model(), 7))
        b = merged_curve(refine_attractor(example_model(), 7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_flipped_region_still_interpolates(self):
        model = build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                            flip=[True, False, False, False])
        gx, gy = merged_curve(refine_attractor(model, 6))
        for x, y in DATA:
            assert gy[np.nonzero(gx == x)[0][0]] == y
        assert np.all(np.diff(gx) > 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ModelError):
            refine_attractor(example_model(), -1)


class TestResidual:
    def test_depth_zero_tiny(self):
        model = example_model()
        s = refine_attractor(model, 0)
        assert functional_residual(model, s) <= 1e-12 * 100

    def test_zero_scaling_residual(self):
        model = example_model(Constant(0.0))
        s = refine_attractor(model, 6)
        assert functional_residual(model, s) <= 1e-9

    def test_depth8_under_envelope_tolerance(self):
        for scaling in (Constant(0.9), Sinusoid(1.0, 8 * math.pi, 0.0, "cos"),
                        LagrangeNodes(((0.0, 0.5), (0.5, 0.9), (1.0, 0.2)))):
            model = example_model(scaling)
            span = model.y_envelope[1] - model.y_envelope[0]
            res = functional_residual(model, refine_attractor(model, 8))
            assert res <= 1e-6 * span

    def test_never_increases_with_depth(self):
        model = example_model()
        span = model.y_envelope[1] - model.y_envelope[0]
        residuals = [functional_residual(model, refine_attractor(model, d))
                     for d in range(4, 11)]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-15 * span


class TestGridFixedPointOracle:
    def test_sampling_matches_grid_iteration(self):
        # independent route to the same curve: iterate the vertical maps on
        # a dense grid function until it stops moving, then compare with
        # the refined samples; with |s| = 0.3 the sub-grid detail is ~1e-7
        model = example_model(Constant(0.3))
        grid = np.linspace(0.0, 1.0, 4097)
        f = np.interp(grid, model.data.xs, model.data.ys)
        for _ in range(60):
            nxt = np.empty_like(f)
            for i in range(model.n_regions):
                rl, rh = model.data.region_bounds(i)
                sel = (grid >= rl) & (grid <= rh)
                u = model.map_invert(i, grid[sel])
                nxt[sel] = model.scaling[i](grid[sel]) * (
                    model.range_map(np.interp(u, grid, f))
                    - model.base(u)) + model.interpolant(grid[sel])
            f = nxt
        gx, gy = merged_curve(refine_attractor(model, 12))
        sampled = np.interp(grid, gx, gy)
        span = model.y_envelope[1] - model.y_envelope[0]
        assert np.max(np.abs(sampled - f)) <= 1e-5 * span


def ref_certified_envelope(model):
    """The envelope sizing before the gap took the sampled enclosure:
    max |range(interpolant) - base| on the grid, plus its slack."""
    data = model.data
    margin = 0.5 * (max(data.ys) - min(data.ys)) + 1.0
    lo, hi = data.xs[0], data.xs[-1]
    xs = np.linspace(lo, hi, 4097)
    lip_h = lipschitz_bound(model.interpolant, (lo, hi))
    vals = model.interpolant(xs)
    slack = lip_h * (hi - lo) / 4096 * 0.5
    base_lo = min(float(vals.min()) - slack, min(data.ys))
    base_hi = max(float(vals.max()) + slack, max(data.ys))
    s_max = max(abs_extrema(model.scaling[i], data.region_bounds(i))[1]
                for i in range(model.n_regions))
    env = (base_lo - margin, base_hi + margin)
    for _ in range(rifs.ENVELOPE_ROUNDS):
        L_a = lipschitz_bound(model.range_map, env)
        assert s_max * L_a < 1.0
        gap = model.range_map(model.interpolant(xs)) - model.base(xs)
        slack = (L_a * lip_h + lipschitz_bound(model.base, (lo, hi))) * (hi - lo) / 4096 * 0.5
        detail = s_max * (float(np.abs(gap).max()) + slack) / (1.0 - s_max * L_a)
        new_env = (base_lo - detail - margin, base_hi + detail + margin)
        if new_env[0] >= env[0] - 1e-12 and new_env[1] <= env[1] + 1e-12:
            return new_env
        env = new_env
    pytest.fail("the certified envelope did not settle")


def quadratic_range_model(c, s):
    """DATA on one domain, constant scaling s and the range map
    y + c (y - 10)(y - 20), which fixes both endpoint heights."""
    return build_model(DATA, [(0, 4)], [0] * 4, Constant(s),
                       range_map=Polynomial((200.0 * c, 1.0 - 30.0 * c, c)))


def envelope_successor(model, env):
    """The certified envelope bound with L_range taken on `env`."""
    data = model.data
    margin = 0.5 * (max(data.ys) - min(data.ys)) + 1.0
    lo, hi = data.xs[0], data.xs[-1]
    lip_h = lipschitz_bound(model.interpolant, (lo, hi))
    h_lo, h_hi = _sampled_range(model.interpolant, lip_h, lo, hi)
    s_max = float(model.scale_range[:, 1].max())
    L_a = lipschitz_bound(model.range_map, env)
    assert s_max * L_a < 1.0
    g_lo, g_hi = _sampled_range(
        lambda x: model.range_map(model.interpolant(x)) - model.base(x),
        L_a * lip_h + lipschitz_bound(model.base, (lo, hi)), lo, hi)
    detail = s_max * max(-g_lo, g_hi) / (1.0 - s_max * L_a)
    return (min(h_lo, min(data.ys)) - detail - margin, max(h_hi, max(data.ys)) + detail + margin)


class TestEnvelopeSettles:
    """A non-affine range map needs more than two rounds of the certified
    envelope bound; an envelope is returned certified only once it holds
    its successor, else sampled with a note that gives the reason."""

    @given(st.floats(0.001, 0.03), st.floats(0.05, 0.6))
    @example(0.005, 0.3)
    @settings(max_examples=40, deadline=None)
    def test_quadratic_range_maps(self, c, s):
        try:
            model = quadratic_range_model(c, s)
        except ModelError as exc:   # the scaling check on the envelope refuses it
            assert "range Lipschitz reaches" in str(exc)
            return
        env = model.y_envelope
        ys = refine_attractor(model, 8).ys
        assert env[0] <= ys.min() and ys.max() <= env[1]
        if model.warnings:
            (note,) = model.warnings
            assert note.endswith("not from a certified bound")
        else:
            nxt = envelope_successor(model, env)
            assert nxt[0] >= env[0] - 1e-12 and nxt[1] <= env[1] + 1e-12

    def test_certified_after_more_rounds(self):
        model = quadratic_range_model(0.005, 0.3)
        assert model.warnings == ()
        assert model.y_envelope == pytest.approx((-60.2, 128.2), abs=0.05)

    def test_unsettled_envelope_is_sampled_and_noted(self):
        model = quadratic_range_model(0.03, 0.1)
        (note,) = model.warnings
        assert note.startswith(f"the certified y envelope had not settled by round "
                               f"{rifs.ENVELOPE_ROUNDS}; y envelope sized from a depth-")


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("wiring", [(TWO_DOMAINS, SPLIT), ([(0, 4)], [0] * 4),
                                    ([(0, 2), (1, 4)], [1, 0, 1, 0])])
@pytest.mark.parametrize("scaling", [Constant(0.4), Constant(-0.8),
                                     Sinusoid(0.5, 8 * math.pi, 0.0, "cos")])
def test_certified_envelope_matches_reference(sign, wiring, scaling):
    # the sign flip makes the negative side of the gap the larger one
    data = [(x, sign * y) for x, y in DATA]
    model = build_model(data, *wiring, scaling)
    assert model.y_envelope == ref_certified_envelope(model)


class TestContractionReport:
    def test_zero_coupling_collapses(self):
        # flat data, zero scaling, constant base/interpolant: only the x maps act
        flat = [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0), (1.0, 0.0)]
        model = build_model(flat, TWO_DOMAINS, SPLIT, Constant(0.0),
                            base=Constant(0.0), interpolant=Constant(0.0))
        rep = contraction_report(model)
        assert rep.map_contraction == 0.5
        assert rep.overall_factor == 0.5
        assert rep.weight_limit == math.inf
        assert rep.contractive

    def test_weight_limit_formula(self):
        rep = contraction_report(example_model())
        coupling = (rep.scale_lipschitz * rep.map_contraction * rep.range_abs_max
                    + rep.offset_lipschitz)
        assert rep.weight_limit == pytest.approx((1 - rep.map_contraction) / coupling)
        assert 0 < rep.weight_used < rep.weight_limit
        assert rep.overall_factor == pytest.approx(
            max(rep.map_contraction + rep.weight_used * coupling,
                rep.scale_abs_max * rep.range_lipschitz))

    def test_contractive_fixture(self):
        rep = contraction_report(example_model())
        assert rep.scale_abs_max == pytest.approx(0.9)
        assert rep.range_lipschitz == 1.0
        assert rep.contractive

    def test_marginal_fixture_flagged(self):
        model = example_model(Sinusoid(1.0, 1.0, 0.0, "cos"))
        rep = contraction_report(model)
        assert rep.scale_abs_max == 1.0
        assert not rep.contractive


class TestRangeMap:
    # a non-identity range map needs every domain-endpoint height as a
    # fixed point; equal endpoint heights make an affine contraction legal
    DATA_EQ = [(0.0, 10.0), (0.25, 30.0), (0.5, 10.0), (0.75, 45.0), (1.0, 10.0)]

    def test_contractive_range_map_builds(self):
        model = build_model(self.DATA_EQ, TWO_DOMAINS, SPLIT, Constant(0.9),
                            range_map=Affine(0.5, 5.0))
        rep = contraction_report(model)
        assert rep.range_lipschitz == 0.5
        assert rep.scale_abs_max * rep.range_lipschitz == pytest.approx(0.45)
        s = refine_attractor(model, 6)
        gx, gy = merged_curve(s)
        for x, y in self.DATA_EQ:
            assert gy[np.nonzero(gx == x)[0][0]] == y
        span = model.y_envelope[1] - model.y_envelope[0]
        assert functional_residual(model, s) <= 1e-9 * span

    def test_fixed_point_mismatch_rejected(self):
        with pytest.raises(ModelError, match="vertical map sends node"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                        range_map=Affine(0.5, 5.0))


# ---------------------------------------------------------------------------
# reference: the x map and vertical map as one expression each, evaluated
# per region into fresh arrays (the code `_refine_step` replaced)
# ---------------------------------------------------------------------------

def ref_map_apply(model, i, x):
    rl, rh = model.data.region_bounds(i)
    dl, _ = model.domain_bounds(i)
    c = model.map_ratio(i)
    x = np.asarray(x, dtype=np.float64)
    if model.flip[i]:
        return rh - c * (x - dl)
    return rl + c * (x - dl)


def ref_eval_region_map(model, i, x, y):
    lx = ref_map_apply(model, i, x)
    s = model.scaling[i](lx)
    return s * (model.range_map(y) - model.base(x)) + model.interpolant(lx)


def ref_refine_step(model, sampling):
    """One round with every region's maps evaluated on its whole feeder
    run, then copied (reversed when flipped) into the new curve."""
    prev = sampling.starts
    runs = [(prev[r.start], prev[r.stop]) for r in map(model.feeders, range(model.n_regions))]
    starts = tuple(accumulate((e - s for s, e in runs), initial=0))
    xs, ys = np.empty(starts[-1] + 1), np.empty(starts[-1] + 1)
    for i, (s, e) in enumerate(runs):
        ux, uy = sampling.xs[s:e + 1], sampling.ys[s:e + 1]
        step = -1 if model.flip[i] else 1
        a, b = starts[i], starts[i + 1]
        xs[a:b + 1] = ref_map_apply(model, i, ux)[::step]
        ys[a:b + 1] = ref_eval_region_map(model, i, ux, uy)[::step]
        xs[a], xs[b] = model.data.region_bounds(i)
        ys[a], ys[b] = model.data.ys[i], model.data.ys[i + 1]
    return starts, xs, ys


def assert_steps_match_reference(model, max_depth=8, max_total=2 ** 17):
    sampling = refine_attractor(model, 0)
    while (sampling.depth < max_depth
           and plan_depth(model, sampling.depth + 1).total <= max_total):
        starts, xs, ys = ref_refine_step(model, sampling)
        sampling = refined_copy(model, sampling)
        assert sampling.starts == starts
        assert sampling.xs.tobytes() == xs.tobytes() and sampling.ys.tobytes() == ys.tobytes()


# every endpoint height of a domain is Y0, and this non-affine range map fixes it
Y0 = 10.0
DATA_Y0 = [(0.0, Y0), (0.25, 30.0), (0.5, Y0), (0.75, 45.0), (1.0, Y0)]


def range_map_fixing(y0):
    return Sum((Affine(0.5, 0.5 * y0), Sinusoid(0.2, 1.3, -1.3 * y0, "sin")))


SCALINGS = st.one_of(
    st.builds(Constant, st.floats(-0.9, 0.9)),
    st.builds(lambda a, b: Polynomial((a, b)), st.floats(-0.3, 0.3), st.floats(-0.2, 0.2)),
    st.builds(Sinusoid, st.floats(-0.9, 0.9), st.floats(0.5, 30.0), st.floats(-3.0, 3.0),
              st.sampled_from(["sin", "cos"])))


@st.composite
def refine_models(draw):
    """Random wirings (shared and distinct domains, flips), Constant,
    Polynomial or Sinusoid scalings, one or one per region, and the
    identity or a non-affine range map; None if the build fails."""
    n = draw(st.integers(2, 6))
    x0, span = draw(st.sampled_from([(0.0, 1.0), (2.0, 3.0), (-0.5, 0.3)]))
    xs = [x0 + span * i / n for i in range(n + 1)]
    spans, e = [], 0
    while e < n:   # spans that cover every region, each used at least once
        s = draw(st.integers(max(0, e - 2), min(e, n - 2)))
        e = draw(st.integers(max(s + 2, e + 1), n))
        spans.append((s, e))
    extra = st.lists(st.integers(0, len(spans) - 1),
                     min_size=n - len(spans), max_size=n - len(spans))
    gamma = draw(st.permutations(list(range(len(spans))) + draw(extra)))
    y0 = draw(st.floats(-5.0, 5.0))
    ends = {k for sp in spans for k in sp}
    ys = [y0 if k in ends else draw(st.floats(-5.0, 5.0)) for k in range(n + 1)]
    scaling = draw(st.lists(SCALINGS, min_size=1, max_size=n).filter(lambda v: len(v) in (1, n)))
    try:
        return build_model(list(zip(xs, ys)), spans, gamma, scaling,
                           range_map=range_map_fixing(y0) if draw(st.booleans()) else None,
                           flip=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    except ModelError:
        return None


STEP_MODELS = [
    pytest.param(build_model(DATA, TWO_DOMAINS, SPLIT, Sinusoid(0.8, 9.0, 0.3, "cos"),
                             flip=[True, False, False, True]), id="sinusoid-flips"),
    pytest.param(build_model(DATA, [(0, 2), (2, 4), (0, 4)], [2, 0, 1, 2],
                             [Polynomial((0.5, -0.3)), Constant(-0.6), Constant(0.7),
                              Sinusoid(0.5, 3.0, 0.0, "sin")], flip=[False, True, True, False]),
                 id="shared-and-distinct-domains"),
    pytest.param(build_model(DATA_Y0, TWO_DOMAINS, SPLIT, Constant(0.9),
                             range_map=range_map_fixing(Y0), flip=[False, True, False, True]),
                 id="non-affine-range-map"),
]


class TestRefineStep:
    """`_refine_step` against the per-region expressions it replaced, bit for bit."""

    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY + STEP_MODELS)
    def test_models_match_reference(self, model):
        assert_steps_match_reference(model)

    @settings(max_examples=80, deadline=None)
    @given(refine_models())
    def test_random_models_match_reference(self, model):
        if model is not None:
            assert_steps_match_reference(model, max_total=2 ** 14)

    @pytest.mark.parametrize("block", [1, 7, None])   # samples a block holds; None: all
    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    @pytest.mark.parametrize("model", FIXTURE_MODELS[:1] + STEP_MODELS)
    def test_blocks_and_cpus_match_reference(self, monkeypatch, model, cpus, block):
        # every block and band of the output-major walk, the region ends
        # inside a block and a flipped region cut by a block edge included
        monkeypatch.setattr(shares, "MIN_SHARE", 1)
        monkeypatch.setattr(shares, "BLOCK_BYTES", 1 << 62 if block is None else 8 * block)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert_steps_match_reference(model, max_depth=5)

    def test_non_affine_range_map_is_not_affine(self):
        model = STEP_MODELS[-1].values[0]
        ys = np.array([Y0, Y0 + 1.0, Y0 + 3.0])
        assert model.range_map(Y0) == Y0
        assert np.ptp(np.diff(model.range_map(ys)) / np.diff(ys)) > 0.01


class Itself(Affine):
    """The identity range map as the argument itself: a round's detail,
    written over the heights, is then computed from its own output array."""

    def __call__(self, x):
        return np.asarray(x, dtype=np.float64)


@st.composite
def uniform_wirings(draw, range_maps=("identity", "affine", "itself")):
    """Uniform wirings: k >= 1 domains of a = 2, 3 or 4 adjacent regions each,
    every domain used, flips, Constant, Polynomial or Sinusoid scalings,
    and the identity, a non-identity affine range map (fixing the domain
    endpoints' height) or `Itself`."""
    a = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 8 // a))
    n = a * k
    y0 = draw(st.floats(-5.0, 5.0))
    ys = [y0 if i % a == 0 else draw(st.floats(-5.0, 5.0)) for i in range(n + 1)]
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    domain_of = draw(st.permutations(list(range(k)) + extra))
    slope = draw(st.floats(0.5, 1.1).filter(lambda c: c != 1.0))
    range_map = {"identity": None, "affine": Affine(slope, (1.0 - slope) * y0),
                 "itself": Itself(1.0, 0.0)}[draw(st.sampled_from(range_maps))]
    scaling = draw(st.lists(SCALINGS, min_size=1, max_size=n).filter(lambda v: len(v) in (1, n)))
    try:
        return build_model([(i / n, y) for i, y in enumerate(ys)],
                           [(a * j, a * (j + 1)) for j in range(k)], domain_of, scaling,
                           range_map=range_map,
                           flip=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    except ModelError:
        return None


def assert_depths_match_reference(model, max_depth=8, max_total=2 ** 14):
    """refine_attractor at every depth against `ref_refine_step` run round
    by round, bit for bit; no sampling returned earlier changes."""
    ref, kept = refine_attractor(model, 0), []
    while True:
        got = refine_attractor(model, ref.depth)
        assert not got.xs.flags.writeable and not got.ys.flags.writeable
        assert got.starts == ref.starts
        assert got.xs.tobytes() == ref.xs.tobytes() and got.ys.tobytes() == ref.ys.tobytes()
        kept.append((got, got.xs.tobytes(), got.ys.tobytes()))
        if ref.depth == max_depth or plan_depth(model, ref.depth + 1).total > max_total:
            break
        starts, xs, ys = ref_refine_step(model, ref)
        ref = AttractorSampling(ref.depth + 1, xs, ys, starts)
    assert all(s.xs.tobytes() == xb and s.ys.tobytes() == yb for s, xb, yb in kept)


CONSUMING_MODELS = STEP_MODELS + [
    pytest.param(build_model(DATA, TWO_DOMAINS, SPLIT, Sinusoid(0.8, 9.0, 0.3, "cos"),
                             range_map=Itself(1.0, 0.0), flip=[True, False, False, True]),
                 id="aliased-range-map"),
    pytest.param(build_model(DATA_Y0, [(0, 4)], [0] * 4, Constant(0.6),
                             range_map=Affine(0.75, 0.25 * Y0), flip=[False, True, True, False]),
                 id="affine-range-map")]


def refine_peak(model, depth):
    """Bytes traced at the peak of refine_attractor(model, depth), its result
    included, after a shallow run has made what numpy and threading set
    up once."""
    refine_attractor(model, 2)
    tracemalloc.start()
    try:
        refine_attractor(model, depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_round_peak(model, depth, cpus):
    """The last round holds the detail (8 bytes an old sample), both new
    columns (16 bytes a new one) and at most four blocks a thread."""
    new, old = plan_depth(model, depth).total, plan_depth(model, depth - 1).total
    peak = refine_peak(model, depth)
    assert peak <= 16 * new + 8 * old + 4 * cpus * shares.BLOCK_BYTES


class TestConsumingRounds:
    """Rounds that consume their level: every depth's bits, and a peak that
    holds one old column, not a whole old level and a detail array."""

    @pytest.mark.parametrize("block", [1, 7, None])   # samples a block holds; None: all
    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    @pytest.mark.parametrize("model", FIXTURE_MODELS[:1] + CONSUMING_MODELS)
    def test_blocks_and_cpus_match_reference_rounds(self, monkeypatch, model, cpus, block):
        monkeypatch.setattr(shares, "MIN_SHARE", 1)
        monkeypatch.setattr(shares, "BLOCK_BYTES", 1 << 62 if block is None else 8 * block)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert_depths_match_reference(model)

    @settings(max_examples=40, deadline=None)
    @given(uniform_wirings(), st.sampled_from([1, 2, 3, 16]), st.sampled_from([1, 7, None]))
    def test_uniform_wirings_match_reference_rounds(self, model, cpus, block):
        assume(model is not None)
        with mock.patch.object(shares, "MIN_SHARE", 1), \
                mock.patch.object(shares, "BLOCK_BYTES", 1 << 62 if block is None else 8 * block), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            assert_depths_match_reference(model)

    def test_itself_hands_back_its_argument(self):
        y = np.array([1.0, -0.0, 3.5])
        assert Itself(1.0, 0.0)(y) is y
        model = CONSUMING_MODELS[-2].values[0]
        assert model.range_map(y) is y

    @settings(max_examples=20, deadline=None)
    @given(uniform_wirings(("identity", "affine")), st.sampled_from([1, 2]))
    def test_round_peak_on_uniform_wirings(self, model, cpus):
        # curves of at least 2 ** 20 samples: a kept old level (16 bytes
        # an old sample) would break the bound
        assume(model is not None)
        depth = next(d for d in count(1) if plan_depth(model, d).total >= 2 ** 20)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            assert_round_peak(model, depth, cpus)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_round_peak_on_the_analyze_model(self, monkeypatch, cpus):
        # perfbench's `analyze` shape: one domain of 4 regions, 4 194 305
        # samples at depth 10
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        model = build_model(DATA, [(0, 4)], [0] * 4, Constant(0.7))
        assert plan_depth(model, 10).total == 4 * 4 ** 10 + 1
        assert_round_peak(model, 10, cpus)


# ---------------------------------------------------------------------------
# reference: per-region arrays, each feeder run rebuilt by concatenation
# ---------------------------------------------------------------------------

def reference_depth_zero(model):
    xs, ys = model.data.xs, model.data.ys
    return [(np.array(xs[i:i + 2]), np.array(ys[i:i + 2])) for i in range(model.n_regions)]


def reference_merge_run(regions, run):
    """Concatenate a run of adjacent region samplings, dropping shared endpoints."""
    run = list(run)
    xs = [regions[run[0]][0]]
    ys = [regions[run[0]][1]]
    for j in run[1:]:
        xs.append(regions[j][0][1:])
        ys.append(regions[j][1][1:])
    return np.concatenate(xs), np.concatenate(ys)


def reference_refine_step(model, regions):
    out = []
    for i in range(model.n_regions):
        ux, uy = reference_merge_run(regions, model.feeders(i))
        nx = ref_map_apply(model, i, ux)
        ny = ref_eval_region_map(model, i, ux, uy)
        if model.flip[i]:
            nx = nx[::-1]
            ny = ny[::-1]
        nx = np.ascontiguousarray(nx)
        ny = np.ascontiguousarray(ny)
        rl, rh = model.data.region_bounds(i)
        nx[0], nx[-1] = rl, rh
        ny[0], ny[-1] = model.data.ys[i], model.data.ys[i + 1]
        out.append((nx, ny))
    return out


def assert_curve_matches_reference(model, max_depth=8, max_total=2 ** 19):
    ref = reference_depth_zero(model)
    sampling = refine_attractor(model, 0)
    while True:
        gx, gy = merged_curve(sampling)
        assert gx is sampling.xs and gy is sampling.ys
        assert not gx.flags.writeable and not gy.flags.writeable
        rx, ry = reference_merge_run(ref, range(model.n_regions))
        assert gx.tobytes() == rx.tobytes() and gy.tobytes() == ry.tobytes()
        assert len(sampling.regions) == len(ref)
        for (vx, vy), (ex, ey) in zip(sampling.regions, ref):
            assert np.shares_memory(vx, gx) and np.shares_memory(vy, gy)
            assert vx.tobytes() == ex.tobytes() and vy.tobytes() == ey.tobytes()
        if (sampling.depth == max_depth
                or plan_depth(model, sampling.depth + 1).total > max_total):
            break
        ref = reference_refine_step(model, ref)
        sampling = refined_copy(model, sampling)
    final = refine_attractor(model, sampling.depth)
    assert final.starts == sampling.starts
    assert final.xs.tobytes() == gx.tobytes() and final.ys.tobytes() == gy.tobytes()


class TestOneCurve:
    """The single x-sorted curve against the per-region arrays it replaced."""

    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_models_match_reference(self, model):
        assert_curve_matches_reference(model)

    @settings(max_examples=60, deadline=None)
    @given(wirings())
    def test_random_wirings_match_reference(self, model):
        if model is not None:
            assert_curve_matches_reference(model)

    def test_starts_delimit_regions(self):
        s = refine_attractor(example_model(), 3)
        assert s.starts == (0, 8, 16, 24, 32) and s.xs.size == 33
        for i, (vx, _) in enumerate(s.regions):
            assert (vx[0], vx[-1]) == example_model().data.region_bounds(i)


@st.composite
def random_models(draw):
    n = draw(st.integers(3, 6))
    ys = draw(st.lists(st.floats(-10.0, 10.0), min_size=n + 1, max_size=n + 1))
    n_dom = draw(st.integers(1, max(1, n // 2)))
    spans = []
    for _ in range(n_dom):
        s = draw(st.integers(0, n - 2))
        e = draw(st.integers(s + 2, n))
        spans.append((s, e))
    gamma = draw(st.lists(st.integers(0, n_dom - 1), min_size=n, max_size=n))
    s_val = draw(st.floats(0.0, 0.85))
    flip = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, ys, spans, gamma, s_val, flip


@settings(max_examples=40, deadline=None)
@given(random_models())
def test_random_geometries_keep_core_invariants(params):
    n, ys, spans, gamma, s_val, flip = params
    xs = [i / n for i in range(n + 1)]
    try:
        model = build_model(list(zip(xs, ys)), spans, gamma, Constant(s_val), flip=flip)
    except ModelError:
        return  # e.g. some region covered by no assigned domain
    # the reported transition is the loop reference's, so its rows are
    # stochastic and dual to the connection pattern
    M = report_transition(model)
    assert M.tolist() == ref_connectivity(model.data, model.domains, model.domain_of)[1].tolist()
    assert np.allclose(M.sum(axis=1), 1.0)
    assert np.array_equal(model.connection.T > 0, M > 0)
    sampling = refine_attractor(model, 4)
    gx, gy = merged_curve(sampling)
    assert np.all(np.diff(gx) > 0)
    for x, y in zip(model.data.xs, model.data.ys):
        assert gy[np.nonzero(gx == x)[0][0]] == y
    span = model.y_envelope[1] - model.y_envelope[0]
    assert functional_residual(model, sampling) <= 1e-9 * span


class TestDefaults:
    def test_default_interpolant_hits_all_nodes(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        h = default_interpolant(data)
        for x, y in DATA:
            assert float(h(x)) == pytest.approx(y, abs=1e-9)

    def test_default_base_quadratic_for_split(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        g = default_base(data, TWO_DOMAINS)
        assert isinstance(g, Polynomial)
        assert len(g.coefficients) == 3
        for i in (0, 2, 4):
            assert float(g(data.xs[i])) == pytest.approx(data.ys[i], abs=1e-9)

    def test_default_base_line_for_whole_domain(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        g = default_base(data, [(0, 4)])
        assert isinstance(g, Affine)


# ---------------------------------------------------------------------------
# reference: each consumer certifies every region itself, the base once
# per region (the code `scale_range` and `lipschitz_bounds` replaced)
# ---------------------------------------------------------------------------

def ref_offset_lipschitz(model, i, lip_s, max_s):
    reg, dom = model.data.region_bounds(i), model.domain_bounds(i)
    c = abs(model.map_ratio(i))
    return (lip_s * c * abs_extrema(model.base, dom)[1]
            + max_s * lipschitz_bound(model.base, dom)
            + lipschitz_bound(model.interpolant, reg) * c)


def ref_contraction_report(model):
    data, env = model.data, model.y_envelope
    c_L = max(abs(model.map_ratio(i)) for i in range(model.n_regions))
    a_bar = abs_extrema(model.range_map, env)[1]
    L_a = lipschitz_bound(model.range_map, env)
    c_s = s_bar = L_b = 0.0
    for i in range(model.n_regions):
        reg = data.region_bounds(i)
        lip_s = lipschitz_bound(model.scaling[i], reg)
        max_s = abs_extrema(model.scaling[i], reg)[1]
        c_s = max(c_s, lip_s)
        s_bar = max(s_bar, max_s)
        L_b = max(L_b, ref_offset_lipschitz(model, i, lip_s, max_s))
    coupling = c_s * c_L * a_bar + L_b
    if coupling > 0.0:
        weight_limit = (1.0 - c_L) / coupling
        weight = 0.5 * weight_limit
    else:
        weight_limit = math.inf
        weight = 1.0
    overall = max(c_L + weight * coupling, s_bar * L_a)
    return ContractionReport(c_L, c_s, L_b, a_bar, s_bar, L_a, weight_limit, weight,
                             overall, bool(overall < 1.0))


def ref_scaling_envelopes(model):
    lo = np.empty(model.n_regions)
    hi = np.empty(model.n_regions)
    for i in range(model.n_regions):
        lo[i], hi[i] = abs_extrema(model.scaling[i], model.data.region_bounds(i))
    return lo, hi


def ref_variation_rows(model, sampling):
    gx, gy = merged_curve(sampling)
    env = model.y_envelope
    scale = max(1.0, env[1] - env[0])
    L_a = lipschitz_bound(model.range_map, env)
    rows = []
    for i in range(model.n_regions):
        reg = model.data.region_bounds(i)
        dom = model.domain_bounds(i)
        lhs = max_variation(gx, gy, reg[0], reg[1])
        r_dom = max_variation(gx, gy, dom[0], dom[1])
        in_dom = (gx >= dom[0]) & (gx <= dom[1])
        a_f = float(np.max(np.abs(model.range_map(gy[in_dom]))))
        s_hi = abs_extrema(model.scaling[i], reg)[1]
        c_s = lipschitz_bound(model.scaling[i], reg)
        L_b = ref_offset_lipschitz(model, i, c_s, s_hi)
        rhs = s_hi * L_a * r_dom + (dom[1] - dom[0]) * (c_s * a_f + L_b)
        rows.append(VariationCheck(i, lhs, rhs, bool(lhs <= rhs + 1e-9 * scale)))
    return rows


def ref_size_envelope(model, margin):
    data = model.data
    lo, hi = data.xs[0], data.xs[-1]
    lip_h = lipschitz_bound(model.interpolant, (lo, hi))
    lip_b = lipschitz_bound(model.base, (lo, hi))
    h_lo, h_hi = _sampled_range(model.interpolant, lip_h, lo, hi)
    base_lo = min(h_lo, min(data.ys))
    base_hi = max(h_hi, max(data.ys))
    s_max = max(abs_extrema(model.scaling[i], data.region_bounds(i))[1]
                for i in range(model.n_regions))
    env = (base_lo - margin, base_hi + margin)
    reason = "vertical contraction is marginal"
    for k in range(rifs.ENVELOPE_ROUNDS):
        L_a = lipschitz_bound(model.range_map, env)
        if s_max * L_a >= 1.0:
            break
        g_lo, g_hi = _sampled_range(
            lambda x: model.range_map(model.interpolant(x)) - model.base(x),
            L_a * lip_h + lip_b, lo, hi)
        detail = s_max * max(-g_lo, g_hi) / (1.0 - s_max * L_a)
        new_env = (base_lo - detail - margin, base_hi + detail + margin)
        if new_env[0] >= env[0] - 1e-12 and new_env[1] <= env[1] + 1e-12:
            return new_env, ()
        env = new_env
        reason = f"the certified y envelope had not settled by round {k + 1}"
    widest = max(len(model.feeders(i)) for i in range(model.n_regions))
    sampling = refine_attractor(model, 0)
    while sampling.depth < 6 or sampling.xs.size * widest <= 200_000:
        sampling = refined_copy(model, sampling)
    depth, ys = sampling.depth, sampling.ys
    obs_lo, obs_hi = float(ys.min()), float(ys.max())
    pad = 0.25 * (obs_hi - obs_lo) + margin
    note = (f"{reason}; y envelope sized from a depth-{depth} "
            "sample with 25% padding, not from a certified bound")
    return (min(base_lo, obs_lo) - pad, max(base_hi, obs_hi) + pad), (note,)


def ref_envelope_and_warnings(model):
    """Envelope sizing, then the scaling check, each certifying every region."""
    data = model.data
    env, warnings = ref_size_envelope(model, 0.5 * (max(data.ys) - min(data.ys)) + 1.0)
    warnings = list(warnings)
    L_a = lipschitz_bound(model.range_map, env)
    for i in range(model.n_regions):
        s_hi = abs_extrema(model.scaling[i], data.region_bounds(i))[1]
        if s_hi * L_a >= 1.0:   # a built model passed the check; it only warned
            warnings.append(
                f"region {i}: |scaling| * range Lipschitz touches {s_hi * L_a:.6g} >= 1 "
                "at isolated points; contraction is marginal there")
    return env, tuple(warnings)


def hexed(values):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def assert_certified_as_reference(model, depth=4):
    rep, ref = contraction_report(model), ref_contraction_report(model)
    assert hexed(astuple(rep)) == hexed(astuple(ref))
    for got, want in zip(model.scale_range.T, ref_scaling_envelopes(model)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    env, warnings = ref_envelope_and_warnings(model)
    assert hexed(model.y_envelope) == hexed(env)
    assert model.warnings == warnings
    sampling = refine_attractor(model, depth)
    rows = variation_bound_report(model, sampling)
    assert [hexed(astuple(r)) for r in rows] == [
        hexed(astuple(r)) for r in ref_variation_rows(model, sampling)]


SPECS = st.one_of(
    st.builds(Constant, st.floats(-1.0, 1.0)),
    st.builds(lambda c: Polynomial(tuple(c)),
              st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)),
    st.builds(Sinusoid, st.floats(-1.0, 1.0), st.floats(0.5, 30.0), st.floats(-3.0, 3.0),
              st.sampled_from(["sin", "cos"])))
SUM_OR_SPEC = st.one_of(SPECS, st.builds(lambda t: Sum(tuple(t)),
                                         st.lists(SPECS, min_size=2, max_size=3)))


@st.composite
def certified_models(draw):
    """Random wirings with several regions on one domain, and
    Polynomial/Sinusoid/Sum scalings and bases; None if the build fails."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        xs = [i / n for i in range(n + 1)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, 47), min_size=n - 1, max_size=n - 1)))
        xs = [0.0] + [c / 48 for c in cuts] + [1.0]
    x0, span = draw(st.sampled_from([(0.0, 1.0), (2.0, 3.0), (-0.5, 0.3)]))
    xs = [x0 + span * x for x in xs]
    spans, e = [], 0
    while e < n:   # overlapping spans that cover every region
        s = draw(st.integers(max(0, e - 2), min(e, n - 2)))
        e = draw(st.integers(max(s + 2, e + 1), n))
        spans.append((s, e))
    # each span is used at least once, the remaining regions share them
    extra = st.lists(st.integers(0, len(spans) - 1),
                     min_size=n - len(spans), max_size=n - len(spans))
    gamma = draw(st.permutations(list(range(len(spans))) + draw(extra)))
    scaling = []
    for spec in draw(st.lists(SUM_OR_SPEC, min_size=1, max_size=n).filter(
            lambda v: len(v) in (1, n))):
        top = abs_extrema(spec, (xs[0], xs[-1]))[1]
        target = draw(st.one_of(st.floats(0.05, 0.95), st.just(1.0)))
        scaling.append(Scaled(target / top, spec) if top > 1e-3 else spec)
    slope, intercept = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    base = None
    if draw(st.booleans()):
        # terms that vanish on every node keep the base exact at the domain ends:
        # a polynomial with those roots and a sine whose period divides the gaps
        ends = sorted({xs[k] for sp in spans for k in sp})
        bump = Polynomial(tuple(np.polynomial.polynomial.polyfromroots(ends)))
        omega = 240 * math.pi / span   # every node sits on a multiple of span/240
        base = Sum((Affine(slope, intercept), Scaled(draw(st.floats(-2.0, 2.0)), bump),
                    Sinusoid(draw(st.floats(-0.5, 0.5)), omega, -omega * x0, "sin")))
    try:
        # linear data keep the default interpolant exact on any node layout
        return build_model([(x, slope * x + intercept) for x in xs], spans, gamma,
                           scaling, base=base,
                           flip=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    except ModelError:
        return None


def wide_model():
    """perfbench's wide `analyze` model (seed 1): 96 regions, cubic interpolant."""
    doc = workloads.generate("analyze", 1)["wide.json"]
    return parse_config(json.loads(workloads.dumps(doc))).curve.build()


class TestBaseMaxOnly:
    """`lipschitz_bounds` takes the base's max |b| per domain from a max-side
    run alone, with the bits the max column of a full range gives."""

    @pytest.mark.parametrize("model", FIXTURE_MODELS + [pytest.param(None, id="perfbench-wide")])
    def test_bounds_match_the_full_range(self, monkeypatch, model):
        model = model or wide_model()
        got = rifs.lipschitz_bounds(model)
        monkeypatch.setattr(rifs, "abs_max_each",
                            lambda spec, intervals: abs_extrema_each(spec, intervals)[:, 1])
        want = rifs.lipschitz_bounds(model)
        assert got[0] == want[0]
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]


class TestOneCertification:
    """The stored |scaling| ranges and `lipschitz_bounds` against the
    per-region certification they replaced, bit for bit."""

    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_models_match_reference(self, model):
        assert_certified_as_reference(model)

    @settings(max_examples=80, deadline=None)
    @given(certified_models())
    def test_random_models_match_reference(self, model):
        if model is not None:
            assert_certified_as_reference(model)

    def test_scale_range_is_read_only(self):
        model = example_model(Sinusoid(1.0, 1.0, 0.0, "cos"))
        assert model.scale_range.shape == (4, 2)
        assert not model.scale_range.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.scale_range[0, 1] = 0.5
        for view in model.scale_range.T:
            assert not view.flags.writeable
            assert np.shares_memory(view, model.scale_range)

    @staticmethod
    def spy(monkeypatch):
        """Record every certification rifs asks for, batched or scalar, as
        (name, spec, list of intervals)."""
        calls = []
        for name in ("abs_extrema_each", "abs_max_each", "lipschitz_bound_each", "abs_extrema",
                     "lipschitz_bound"):
            def counted(spec, intervals, _fn=getattr(rifs, name), _name=name):
                ivs = intervals if _name.endswith("_each") else [intervals]
                calls.append((_name, spec, [tuple(map(float, iv)) for iv in ivs]))
                return _fn(spec, intervals)
            monkeypatch.setattr(rifs, name, counted)
        return calls

    @staticmethod
    def seen(calls, name, spec):
        """The interval list of each call `name` made on spec."""
        return [ivs for n, f, ivs in calls if n == name and f is spec]

    def test_each_region_and_domain_certified_once(self, monkeypatch):
        calls, seen = self.spy(monkeypatch), self.seen
        scaling = [Constant(0.2), Constant(0.4), Constant(0.6), Constant(0.8)]
        model = build_model(DATA, TWO_DOMAINS, SPLIT, scaling)
        regions = [model.data.region_bounds(i) for i in range(4)]
        whole = [(0.0, 1.0)]
        assert [seen(calls, "abs_extrema_each", f) for f in scaling] == [[[r]] for r in regions]
        for spec in (model.base, model.interpolant):
            assert not seen(calls, "abs_extrema_each", spec)
            assert not seen(calls, "abs_extrema", spec)
            # envelope sizing bounds the slopes once, over the whole curve
            assert seen(calls, "lipschitz_bound", spec) == [whole]
        assert not any(f is g for n, f, _ in calls if n != "abs_extrema_each" for g in scaling)

        calls.clear()
        contraction_report(model)
        variation_bound_report(model, refine_attractor(model, 3))
        curve_dimension_bounds(model)
        assert not any(seen(calls, name, f) for f in scaling
                       for name in ("abs_extrema_each", "abs_extrema", "lipschitz_bound"))
        # two reports, each certifying the base once per domain span, in one
        # call, and its max |b| alone
        domains = [(0.0, 0.5), (0.5, 1.0)]
        assert not seen(calls, "abs_extrema_each", model.base)
        assert seen(calls, "abs_max_each", model.base) == [domains] * 2
        assert seen(calls, "lipschitz_bound_each", model.base) == [domains] * 2
        assert ([seen(calls, "lipschitz_bound_each", f) for f in scaling]
                == [[[r]] * 2 for r in regions])
        assert seen(calls, "lipschitz_bound_each", model.interpolant) == [regions] * 2
        # the scalar entry points only see the range map, on the y envelope
        assert {(n, f) for n, f, _ in calls if not n.endswith("_each")} == {
            ("abs_extrema", model.range_map), ("lipschitz_bound", model.range_map)}

    def test_shared_scaling_certified_in_one_call(self, monkeypatch):
        calls, seen = self.spy(monkeypatch), self.seen
        shared = Sinusoid(0.8, 3.0, 0.2, "cos")
        model = build_model(DATA, TWO_DOMAINS, SPLIT, shared)
        regions = [model.data.region_bounds(i) for i in range(4)]
        assert seen(calls, "abs_extrema_each", shared) == [regions]
        calls.clear()
        contraction_report(model)
        assert seen(calls, "lipschitz_bound_each", shared) == [regions]
        assert not seen(calls, "abs_extrema_each", shared)
