import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Affine, Constant, LagrangeNodes, ModelError, Polynomial,
                       Sinusoid, abs_extrema, build_model, contraction_report,
                       default_base, default_interpolant, derive_connectivity,
                       eval_F, eval_scalar, functional_residual, lipschitz_bound,
                       merged_curve, refine_attractor)
from fractalis.rifs import (DomainSpec, InterpolationData, RegionAssignment,
                            _depth_zero, _eval_region_map, _refine_step, plan_depth)
from test_plan_depth import EXACT_FAMILY, FIXTURE_MODELS, wirings

DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
TWO_DOMAINS = [(0, 2), (2, 4)]
SPLIT = [0, 1, 0, 1]


def example_model(scaling=Constant(0.9)):
    return build_model(DATA, TWO_DOMAINS, SPLIT, scaling)


def whole_domain_model(scaling):
    return build_model(DATA, [(0, 4)], [0, 0, 0, 0], scaling)


class TestConnectivity:
    def test_split_fixture_matrices(self):
        # hand-derived: regions 0,1 sit in domain [0, 0.5], regions 2,3 in [0.5, 1];
        # each region is covered by the domains assigned to regions {0,2} or {1,3}
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        C, M = derive_connectivity(data, DomainSpec(tuple(TWO_DOMAINS)),
                                   RegionAssignment(tuple(SPLIT)))
        assert C.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1],
                              [1, 1, 0, 0], [0, 0, 1, 1]]
        assert M.tolist() == [[0.5, 0.0, 0.5, 0.0], [0.5, 0.0, 0.5, 0.0],
                              [0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5]]

    def test_whole_interval_uniform(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        C, M = derive_connectivity(data, DomainSpec(((0, 4),)),
                                   RegionAssignment((0, 0, 0, 0)))
        assert np.all(C == 1)
        assert np.allclose(M, 0.25)

    def test_row_sums_exactly_one(self):
        for model in (example_model(), whole_domain_model(Constant(0.5))):
            assert np.all(model.transition.sum(axis=1) == 1.0)

    def test_connection_transition_duality(self):
        model = example_model()
        C, M = model.connection, model.transition
        for i in range(4):
            for j in range(4):
                assert (C[i, j] == 1) == (M[j, i] > 0)

    def test_minimal_two_region_model(self):
        model = build_model([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], [(0, 2)], [0, 0],
                            Constant(0.3))
        assert np.all(model.connection == 1)
        assert np.allclose(model.transition, 0.5)


def ref_connectivity(data, domains, assignment):
    """The loop body derive_connectivity replaced; validation is shared."""
    n = data.n_regions
    dom = assignment.domain_of

    def contains(region, k):
        s, e = domains.spans[k]
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
    return data, DomainSpec(spans), RegionAssignment(tuple(dom))


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
    C, M = derive_connectivity(*wiring)
    for got, want in zip((C, M), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()


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

    def test_interpolant_must_hit_nodes(self):
        with pytest.raises(ModelError, match="interpolant misses node"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                        interpolant=Constant(0.0))

    def test_base_must_hit_domain_endpoints(self):
        with pytest.raises(ModelError, match="base misses"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(0.5),
                        base=Constant(0.0))

    def test_large_constant_scaling_rejected(self):
        with pytest.raises(ModelError, match="scaling"):
            build_model(DATA, TWO_DOMAINS, SPLIT, Constant(1.0))

    def test_marginal_scaling_warns(self):
        model = example_model(Sinusoid(1.0, 1.0, 0.0, "cos"))
        assert any("isolated points" in w for w in model.warnings)

    def test_default_base_differs_from_interpolant(self):
        model = example_model()
        # base: quadratic through nodes 0, 2, 4; interpolant: quartic through all
        assert eval_scalar(model.base, 0.5) == pytest.approx(10.0, abs=1e-9)
        assert eval_scalar(model.base, 0.25) != pytest.approx(30.0, abs=1.0)

    def test_data_envelope_contains_nodes(self):
        model = example_model()
        lo, hi = model.y_envelope
        assert lo < min(y for _, y in DATA) and hi > max(y for _, y in DATA)


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
            expect = eval_scalar(model.interpolant, lx)
            assert eval_F(model, 0, x, y) == pytest.approx(expect, abs=1e-12)

    def test_against_direct_formula(self):
        model = example_model()
        x, y = 0.25, 30.0
        lx = 0.5 * x
        expect = (eval_scalar(model.scaling[0], lx)
                  * (y - eval_scalar(model.base, x))
                  + eval_scalar(model.interpolant, lx))
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
    for _ in range(2):
        L_a = lipschitz_bound(model.range_map, env)
        assert s_max * L_a < 1.0
        gap = model.range_map(model.interpolant(xs)) - model.base(xs)
        slack = (L_a * lip_h + lipschitz_bound(model.base, (lo, hi))) * (hi - lo) / 4096 * 0.5
        detail = s_max * (float(np.abs(gap).max()) + slack) / (1.0 - s_max * L_a)
        new_env = (base_lo - detail - margin, base_hi + detail + margin)
        if new_env[0] >= env[0] - 1e-12 and new_env[1] <= env[1] + 1e-12:
            return new_env
        env = new_env
    return env


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
        nx = model.map_apply(i, ux)
        ny = _eval_region_map(model, i, ux, uy)
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
    sampling = _depth_zero(model)
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
        sampling = _refine_step(model, sampling)
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
    return n, ys, spans, gamma, s_val


@settings(max_examples=40, deadline=None)
@given(random_models())
def test_random_geometries_keep_core_invariants(params):
    n, ys, spans, gamma, s_val = params
    xs = [i / n for i in range(n + 1)]
    try:
        model = build_model(list(zip(xs, ys)), spans, gamma, Constant(s_val))
    except ModelError:
        return  # e.g. some region covered by no assigned domain
    # transition rows are stochastic and dual to the connection pattern
    assert np.allclose(model.transition.sum(axis=1), 1.0)
    assert np.array_equal(model.connection.T > 0, model.transition > 0)
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
            assert eval_scalar(h, x) == pytest.approx(y, abs=1e-9)

    def test_default_base_quadratic_for_split(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        g = default_base(data, DomainSpec(tuple(TWO_DOMAINS)))
        assert isinstance(g, Polynomial)
        assert len(g.coefficients) == 3
        for i in (0, 2, 4):
            assert eval_scalar(g, data.xs[i]) == pytest.approx(data.ys[i], abs=1e-9)

    def test_default_base_line_for_whole_domain(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        g = default_base(data, DomainSpec(((0, 4),)))
        assert isinstance(g, Affine)
