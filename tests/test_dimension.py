import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (BoxCountSeries, Constant, HypothesisError, NumericalError, Sinusoid,
                       box_count_graph, box_count_surface,
                       build_model, check_irreducible, curve_dimension_bounds,
                       curve_scale_schedule, estimate_curve_dimension,
                       fit_dimension, max_variation, merged_curve,
                       nodes_collinear, nonneg_spectral_radius,
                       refine_attractor, spectral_radius,
                       variation_bound_report, HeightField)
from fractalis import dimension
from fractalis.rifs import InterpolationData, ModelError

DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]


def whole_domain_model(scaling):
    return build_model(DATA, [(0, 4)], [0, 0, 0, 0], scaling)


def split_model(scaling):
    return build_model(DATA, [(0, 2), (2, 4)], [0, 1, 0, 1], scaling)


def reachable_everywhere(A):
    """Brute-force strong connectivity via per-node BFS (test oracle)."""
    S = np.asarray(A) > 0
    n = S.shape[0]
    for start in range(n):
        seen = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for v in np.nonzero(S[u])[0]:
                if v not in seen:
                    seen.add(int(v))
                    queue.append(int(v))
        if len(seen) != n:
            return False
    return True


def random_irreducible(rng):
    n = int(rng.integers(2, 9))
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    perm = rng.permutation(n)
    for i in range(n):
        A[perm[i], perm[(i + 1) % n]] = rng.random() + 0.05
    return A


class TestIrreducible:
    def test_spec_examples(self):
        assert not check_irreducible(np.eye(2))
        assert check_irreducible([[0, 1], [1, 0]])
        assert not check_irreducible([[1, 1], [0, 1]])

    def test_exhaustive_order_three(self):
        for bits in itertools.product([0, 1], repeat=9):
            A = np.array(bits, dtype=float).reshape(3, 3)
            assert check_irreducible(A) == reachable_everywhere(A)

    def test_random_order_eight(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            A = (rng.random((8, 8)) < 0.25).astype(float)
            assert check_irreducible(A) == reachable_everywhere(A)


class TestSpectralRadius:
    def test_row_constant(self):
        assert spectral_radius(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-10)

    def test_symmetric_swap(self):
        assert spectral_radius([[0, 2], [2, 0]]) == pytest.approx(2.0, abs=1e-10)

    def test_two_cycle_geometric_mean(self):
        assert spectral_radius([[0, 1], [2, 0]]) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="strongly connected"):
            spectral_radius(np.eye(2))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            spectral_radius([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            check_irreducible(np.ones((2, 3)))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            A = random_irreducible(rng)
            rho = spectral_radius(A)
            assert rho == pytest.approx(max(abs(np.linalg.eigvals(A))), abs=1e-8)

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            A = random_irreducible(rng)
            rho = spectral_radius(A)
            i, j = rng.integers(0, A.shape[0], 2)
            B = A.copy()
            B[i, j] += rng.random()
            assert spectral_radius(B) >= rho - 1e-10

    def test_nonneg_fallback_handles_zero_rows(self):
        A = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert nonneg_spectral_radius(A) == pytest.approx(2.0, abs=1e-10)
        assert nonneg_spectral_radius(np.zeros((3, 3))) == 0.0

    def test_nonneg_fallback_matches_strict_on_irreducible(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            A = random_irreducible(rng)
            assert nonneg_spectral_radius(A) == pytest.approx(spectral_radius(A), abs=1e-9)


def ref_spectral_radius(A):
    """`spectral_radius` as it was with a power iteration of its own and a
    1 x 1 branch (test reference); irreducibility is the caller's."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    shift = float(A.max())
    A = A + shift * np.eye(n)
    x = np.ones(n)
    for _ in range(dimension.POWER_CAP):
        y = A @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= dimension.POWER_TOL * max(hi, 1.0):
            return 0.5 * (lo + hi) - shift
        x = y / np.linalg.norm(y)
    raise NumericalError("no convergence")


def ref_nonneg_spectral_radius(A):
    """`nonneg_spectral_radius` as it was: the largest component rate, a
    singleton's diagonal entry read directly (test reference)."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    S = (A > 0) | np.eye(n, dtype=bool)
    for k in range(n):   # Warshall closure
        S = S | (S[:, [k]] & S[[k], :])
    R = S & S.T
    best, seen = 0.0, np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        comp = np.nonzero(R[i])[0]
        seen[comp] = True
        block = A[np.ix_(comp, comp)]
        best = max(best, float(block[0, 0]) if comp.size == 1 else ref_spectral_radius(block))
    return best


@st.composite
def sparse_nonneg(draw):
    """Nonnegative n x n matrices, n <= 8, with a random zero pattern: their
    components include singletons with zero and with nonzero diagonals."""
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(0.05, 10.0), min_size=n * n, max_size=n * n))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array([v if k else 0.0 for v, k in zip(values, keep)]).reshape(n, n)


class TestOnePerronIteration:
    """Both growth rates run one iteration, with no 1 x 1 branch, and give
    the bits the two separate copies gave."""

    @given(sparse_nonneg())
    @settings(max_examples=150, deadline=None)
    def test_nonneg_matches_reference(self, A):
        assert nonneg_spectral_radius(A).hex() == ref_nonneg_spectral_radius(A).hex()
        if reachable_everywhere(A):
            assert spectral_radius(A).hex() == ref_spectral_radius(A).hex()

    @given(st.floats(0.0, 1e300))
    def test_one_by_one_is_its_entry(self, a):
        for rate in (spectral_radius([[a]]), nonneg_spectral_radius([[a]])):
            assert rate.hex() == ref_spectral_radius([[a]]).hex() == a.hex()

    def test_singleton_components(self):
        # node 0 alone with a loop, node 1 alone without one, nodes 2-3 a cycle
        A = np.array([[3.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.5, 0.0]])
        assert nonneg_spectral_radius(A) == 3.0
        A[0, 0] = 0.0
        assert nonneg_spectral_radius(A).hex() == ref_nonneg_spectral_radius(A).hex()
        assert nonneg_spectral_radius(A) == pytest.approx(1.0, abs=1e-10)

    def test_three_closures_per_bounds(self, monkeypatch):
        calls, closure = [], dimension._reachability

        def counting(A):
            calls.append(A.shape)
            return closure(A)
        monkeypatch.setattr(dimension, "_reachability", counting)
        for model in (whole_domain_model(Constant(0.6)),
                      split_model(Sinusoid(1.0, 8 * math.pi, 0.0, "cos"))):
            calls.clear()
            curve_dimension_bounds(model)
            assert len(calls) == 3


class TestEnvelopes:
    def test_constant_scaling(self):
        lo, hi = whole_domain_model(Constant(0.9)).scale_range.T
        assert np.all(lo == 0.9) and np.all(hi == 0.9)

    def test_slow_cosine(self):
        lo, hi = split_model(Sinusoid(1.0, 1.0, 0.0, "cos")).scale_range.T
        assert hi[0] == 1.0
        assert lo[0] == pytest.approx(math.cos(0.25), rel=1e-12)

    def test_fast_cosine_full_swing(self):
        lo, hi = split_model(Sinusoid(1.0, 8 * math.pi, 0.0, "cos")).scale_range.T
        assert np.all(hi == 1.0) and np.all(lo == 0.0)


class TestCollinear:
    def test_straight_line(self):
        data = InterpolationData((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        assert nodes_collinear(data, (0, 2))

    def test_example_data_not_collinear(self):
        data = InterpolationData(tuple(p[0] for p in DATA), tuple(p[1] for p in DATA))
        assert not nodes_collinear(data, (0, 2))

    def test_midpoint_on_segment(self):
        data = InterpolationData((0.0, 0.5, 1.0), (2.0, 3.0, 4.0))
        assert nodes_collinear(data, (0, 2))


class TestDimensionBounds:
    def test_constant_06_exact(self):
        rep = curve_dimension_bounds(whole_domain_model(Constant(0.6)))
        expect = 1 + math.log(2.4, 4)
        assert rep.spectral_upper == pytest.approx(2.4, abs=1e-9)
        assert rep.exact == pytest.approx(expect, abs=1e-9)
        assert rep.lower_bound == pytest.approx(expect, abs=1e-9)
        assert rep.upper_bound == pytest.approx(expect, abs=1e-9)

    def test_constant_02_dimension_one(self):
        rep = curve_dimension_bounds(whole_domain_model(Constant(0.2)))
        assert rep.spectral_upper == pytest.approx(0.8, abs=1e-9)
        assert rep.exact == 1.0

    def test_split_cosine_bracket(self):
        rep = curve_dimension_bounds(split_model(Sinusoid(1.0, 8 * math.pi, 0.0, "cos")))
        assert rep.spectral_upper == pytest.approx(2.0, abs=1e-9)
        assert rep.spectral_lower == pytest.approx(0.0, abs=1e-12)
        assert rep.lower_bound == 1.0
        assert rep.upper_bound == pytest.approx(2.0, abs=1e-9)
        assert rep.exact is None
        assert any("lower bound" in n for n in rep.notes)

    def test_spectral_rate_cross_checked_against_dense_oracle(self):
        model = split_model(Sinusoid(1.0, 1.0, 0.0, "cos"))
        rep = curve_dimension_bounds(model)
        _, s_hi = model.scale_range.T
        dense = max(abs(np.linalg.eigvals(np.diag(s_hi) @ model.connection)))
        assert rep.spectral_upper == pytest.approx(dense, abs=1e-8)

    def test_nonuniform_nodes_rejected(self):
        model = build_model([(0.0, 0.0), (0.2, 1.0), (0.5, 0.0), (1.0, 1.0)],
                            [(0, 3)], [0, 0, 0], Constant(0.3))
        with pytest.raises(HypothesisError, match="uniform"):
            curve_dimension_bounds(model)

    def test_collinear_domains_rejected(self):
        flat = [(0.0, 1.0), (0.25, 1.0), (0.5, 1.0), (0.75, 1.0), (1.0, 1.0)]
        model = build_model(flat, [(0, 4)], [0, 0, 0, 0], Constant(0.6))
        with pytest.raises(HypothesisError, match="collinear"):
            curve_dimension_bounds(model)

    def test_reducible_connection_rejected(self):
        # each half feeds only itself: two decoupled blocks
        model = build_model(DATA, [(0, 2), (2, 4)], [0, 0, 1, 1], Constant(0.6))
        assert not check_irreducible(model.connection)
        with pytest.raises(HypothesisError, match="irreducible"):
            curve_dimension_bounds(model)

    def test_envelope_ordering(self):
        for scaling in (Constant(0.6), Sinusoid(1.0, 1.0, 0.0, "cos"),
                        Sinusoid(1.0, 8 * math.pi, 0.0, "cos")):
            rep = curve_dimension_bounds(split_model(scaling))
            assert rep.spectral_lower <= rep.spectral_upper + 1e-12
            assert rep.lower_bound <= rep.upper_bound + 1e-12
            assert 1.0 <= rep.lower_bound and rep.upper_bound <= 2.0 + 1e-12


class TestBoxCountGraph:
    def test_flat_graph(self):
        xs = np.linspace(0, 1, 101)
        assert box_count_graph(xs, np.zeros_like(xs), 0.25) == 4

    def test_diagonal_matches_point_count(self):
        t = np.linspace(0.0, 1.0, 101)
        assert box_count_graph(t, t, 0.5) == 2

    def test_counts_at_least_point_counts(self):
        # column covers dominate cell-per-point counting for graphs
        rng = np.random.default_rng(13)
        xs = np.sort(rng.random(400))
        ys = np.cumsum(rng.standard_normal(400)) * 0.05
        for d in (0.25, 0.125, 0.0625):
            cells = np.unique(np.floor(np.column_stack([xs, ys]) / d), axis=0)
            assert box_count_graph(xs, ys, d) >= len(cells)

    def test_monotone_under_nested_refinement(self):
        rng = np.random.default_rng(31)
        xs = np.sort(np.concatenate([[0.0, 1.0], rng.random(500)]))
        ys = np.cumsum(rng.standard_normal(xs.size)) * 0.1
        counts = [box_count_graph(xs, ys, 2.0 ** -k) for k in range(1, 7)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestBoxCountSurface:
    def test_flat_field(self):
        f = HeightField(8, np.zeros((9, 9)))
        assert box_count_surface(f, 0.25) == 16

    def test_constant_inside_cell(self):
        f = HeightField(8, np.full((9, 9), 0.1))
        assert box_count_surface(f, 0.25) == 16

    def test_linear_ramp_aligned(self):
        x = np.tile(np.linspace(0, 1, 9), (9, 1))
        assert box_count_surface(HeightField(8, x), 0.25) == 16

    def test_misaligned_delta_rejected(self):
        f = HeightField(8, np.zeros((9, 9)))
        with pytest.raises(ValueError, match="aligned|tile"):
            box_count_surface(f, 0.3)
        with pytest.raises(ValueError, match="tile"):
            box_count_surface(f, 3 / 8)


class TestFit:
    def test_exact_power_laws(self):
        for s in (1.0, 1.5, 2.0):
            deltas = [4.0 ** -r for r in (2, 3, 4)]
            counts = [round(4.0 ** (s * r)) for r in (2, 3, 4)]
            est, r2 = fit_dimension(BoxCountSeries(tuple(deltas), tuple(counts)))
            assert est == pytest.approx(s, abs=1e-12)
            assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_counts_slope_zero(self):
        est, r2 = fit_dimension(BoxCountSeries((0.25, 0.125, 0.0625), (7, 7, 7)))
        assert est == 0.0
        assert r2 == 1.0

    def test_too_few_scales(self):
        with pytest.raises(ValueError, match="3 scales"):
            fit_dimension(BoxCountSeries((0.25, 0.125), (1, 2)))

    def test_series_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            BoxCountSeries((0.1, 0.25), (1, 2))
        with pytest.raises(ValueError, match="not decrease"):
            BoxCountSeries((0.25, 0.125), (5, 3))


class TestMaxVariation:
    def test_constant_samples(self):
        assert max_variation([0, 0.5, 1], [2, 2, 2], 0.0, 1.0) == 0.0

    def test_identity(self):
        xs = np.linspace(0, 1, 11)
        assert max_variation(xs, xs, 0.0, 1.0) == 1.0

    def test_plain_values(self):
        assert max_variation([0, 1, 2], [1, 5, 2], 0.0, 2.0) == 4.0

    def test_subinterval(self):
        assert max_variation([0, 1, 2], [1, 5, 2], 1.5, 2.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            max_variation([0.0, 1.0], [1.0, 2.0], 2.0, 3.0)


class TestVariationBound:
    def test_zero_scaling_bounded_by_interpolant_lipschitz(self):
        model = split_model(Constant(0.0))
        checks = variation_bound_report(model, refine_attractor(model, 6))
        assert all(c.ok for c in checks)

    def test_constant_curve(self):
        flat = [(0.0, 3.0), (0.25, 3.0), (0.5, 3.0), (0.75, 3.0), (1.0, 3.0)]
        model = build_model(flat, [(0, 2), (2, 4)], [0, 1, 0, 1], Constant(0.0),
                            base=Constant(3.0), interpolant=Constant(3.0))
        checks = variation_bound_report(model, refine_attractor(model, 5))
        assert all(c.lhs == 0.0 and c.ok for c in checks)

    def test_example_fixture_depth8(self):
        model = split_model(Constant(0.9))
        checks = variation_bound_report(model, refine_attractor(model, 8))
        assert len(checks) == 4
        assert all(c.ok for c in checks)


class TestSchedule:
    def test_uniform_schedule_uses_domain_width(self):
        model = whole_domain_model(Constant(0.6))
        deltas = curve_scale_schedule(model, 2, 6)
        assert deltas == [4.0 ** -r / 4 for r in range(2, 7)]

    def test_estimate_report_shape(self):
        model = whole_domain_model(Constant(0.6))
        rep, sampling = estimate_curve_dimension(model, 2, 4, depth=6)
        assert len(rep.series.deltas) == 3
        assert rep.estimate is not None and 0 < rep.estimate < 2.5
        assert sampling.depth == 6

    def test_auto_depth_meets_spacing_rule(self):
        model = whole_domain_model(Constant(0.6))
        rep, sampling = estimate_curve_dimension(model, 2, 4)
        gx, _ = merged_curve(sampling)
        assert float(np.diff(gx).max()) <= min(rep.series.deltas) / 4.0

    def test_shallow_depth_drops_unsaturated_scales(self):
        # depth 6 leaves x gaps 4^-7, a quarter of delta_5 = 4^-6 / 4: only
        # the finest scale goes
        model = whole_domain_model(Constant(0.6))
        rep, sampling = estimate_curve_dimension(model, 2, 6, depth=6)
        assert "dropped 1 under-resolved scale (x spacing 6.1e-05)" in rep.notes
        assert rep.series.deltas == tuple(4.0 ** -r / 4 for r in range(2, 6))
        assert sampling.depth == 6

    def test_unresolved_scales_are_counted_not_listed(self):
        # only the prefix the plan resolves is listed: a million requested
        # scales cost no list of a million deltas
        model = whole_domain_model(Constant(0.6))
        tracemalloc.start()
        try:
            rep, _ = estimate_curve_dimension(model, 2, 10 ** 6, depth=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert f"dropped {10 ** 6 - 5} under-resolved scales (x spacing 6.1e-05)" in rep.notes
        assert rep.series.deltas == tuple(4.0 ** -r / 4 for r in range(2, 6))

    @pytest.mark.parametrize("r_lo, r_hi, message", [
        (2.5, 6, "r_lo must be an integer, got 2.5"),   # used to raise a bare TypeError
        (True, 6, "r_lo must be an integer, got True"),
        (-3, 6, "r_lo must be >= 0"),
        (2, 6.0, "r_hi must be an integer, got 6.0"),
        (2, np.float64(6), f"r_hi must be an integer, got {np.float64(6)!r}"),
        (4, 3, "r_hi must be >= 4")],
        ids=["r_lo-float", "r_lo-bool", "r_lo-negative", "r_hi-float", "r_hi-float64",
             "r_hi-below-r_lo"])
    def test_scale_arguments_checked(self, r_lo, r_hi, message):
        model = whole_domain_model(Constant(0.6))
        for call in (curve_scale_schedule, estimate_curve_dimension):
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                call(model, r_lo, r_hi)

    def test_r_hi_past_float_range_drops_its_scales(self):
        # 10**400 used to raise a bare OverflowError; like 10**6, its delta
        # underflows, and the unresolved scales are dropped with the note
        model = whole_domain_model(Constant(0.6))
        rep, _ = estimate_curve_dimension(model, 2, 10 ** 400, depth=6)
        assert f"dropped {10 ** 400 - 5} under-resolved scales (x spacing 6.1e-05)" in rep.notes
        assert rep.series == estimate_curve_dimension(model, 2, 10 ** 6, depth=6)[0].series

    def test_hopeless_depth_rejected(self):
        model = whole_domain_model(Constant(0.6))
        with pytest.raises(ModelError, match="too coarse .* saturates only 2 of 5 scales"):
            estimate_curve_dimension(model, 2, 6, depth=4)
