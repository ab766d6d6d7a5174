import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Affine, BivariateSpec, Constant, FunctionSpecError,
                       LagrangeNodes, Polynomial, Scaled, SeparableTerm,
                       Sinusoid, Sum, abs_extrema, bivariate_from_json,
                       bivariate_to_json, eval_bivariate, eval_scalar,
                       lagrange_from_nodes, lipschitz_bound, scalar_from_json,
                       scalar_to_json)

EX2_NODES = ((0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0))


def spec_zoo():
    return [
        Constant(0.9),
        Constant(-3.0),
        Affine(-3.0, 7.0),
        Affine(2.0, -0.5),
        Polynomial((0.25, -1.0, 1.0)),
        Polynomial((1.0, 0.0, -2.0, 0.5, 0.25)),
        Sinusoid(1.0, 8 * math.pi, 0.0, "cos"),
        Sinusoid(0.5, 12 * math.pi, 0.0, "sin"),
        Sinusoid(1.0, 1.0, 0.3, "cos"),
        LagrangeNodes(EX2_NODES),
        LagrangeNodes(((0.0, 0.5), (0.5, 0.9), (1.0, 0.2))),
        Sum((Sinusoid(1.0, 1.0, 0.0, "cos"), Sinusoid(1.0, 1.0, 0.0, "sin"))),
        Scaled(0.5, Sum((Sinusoid(1.0, 1.0, 0.0, "cos"),
                         Sinusoid(1.0, 1.0, 0.0, "sin")))),
        Scaled(-2.0, Polynomial((0.0, 1.0, -1.0))),
    ]


class TestEval:
    def test_constant(self):
        assert eval_scalar(Constant(0.9), 0.3) == 0.9

    def test_sinusoid_at_zero(self):
        assert eval_scalar(Sinusoid(1.0, 8 * math.pi, 0.0, "cos"), 0.0) == 1.0

    def test_lagrange_hits_nodes(self):
        spec = LagrangeNodes(EX2_NODES)
        assert eval_scalar(spec, 0.75) == 50.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1.0, 2.0, 37)
        for spec in spec_zoo():
            vec = spec(xs)
            ref = np.array([eval_scalar(spec, float(x)) for x in xs])
            np.testing.assert_allclose(vec, ref, rtol=0, atol=0)

    def test_sum_is_sum_of_evals(self):
        parts = (Affine(1.0, 2.0), Sinusoid(0.3, 4.0, 0.1, "sin"))
        s = Sum(parts)
        for x in (-0.3, 0.0, 0.7, 1.9):
            assert eval_scalar(s, x) == sum(eval_scalar(p, x) for p in parts)

    def test_scaled_is_factor_times_eval(self):
        inner = Polynomial((1.0, -2.0, 0.5))
        for x in (-0.3, 0.0, 0.7):
            assert eval_scalar(Scaled(1.5, inner), x) == 1.5 * eval_scalar(inner, x)


class TestBivariate:
    def test_bilinear_corner(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),))
        assert eval_bivariate(spec, 0.0, 1.0) == 1.0

    def test_offset_paraboloid_center(self):
        q = Polynomial((0.25, -1.0, 1.0))
        spec = BivariateSpec((SeparableTerm(q, Constant(1.0)),
                              SeparableTerm(Constant(1.0), q)))
        assert eval_bivariate(spec, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_constant_fy_reduces_to_fx(self):
        fx_part = Polynomial((1.0, 2.0, -1.0))
        spec = BivariateSpec((SeparableTerm(fx_part, Constant(1.0)),))
        for x in (0.0, 0.3, 0.9):
            assert eval_bivariate(spec, x, 0.77) == eval_scalar(fx_part, x)

    def test_grid_matches_pointwise(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),
                              SeparableTerm(Sinusoid(1.0, 2.0, 0.0, "cos"),
                                            Polynomial((0.5, 1.0)))))
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 1, 5)
        g = spec.grid(xs, ys)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                assert g[iy, ix] == pytest.approx(eval_bivariate(spec, float(x), float(y)), abs=1e-14)


class TestLipschitz:
    def test_constant_zero(self):
        assert lipschitz_bound(Constant(5.0), (0.0, 1.0)) == 0.0

    def test_affine_slope(self):
        assert lipschitz_bound(Affine(-3.0, 7.0), (0.0, 1.0)) == 3.0

    def test_sinusoid_full_swing(self):
        got = lipschitz_bound(Sinusoid(0.5, 12 * math.pi, 0.0, "sin"), (0.0, 1.0))
        assert got == pytest.approx(6 * math.pi, rel=1e-15)

    def test_sinusoid_partial_interval_exact(self):
        # derivative of cos is -sin; on [0, 0.25] max |sin| is sin(0.25)
        got = lipschitz_bound(Sinusoid(1.0, 1.0, 0.0, "cos"), (0.0, 0.25))
        assert got == pytest.approx(math.sin(0.25), rel=1e-15)

    def test_difference_quotients_never_exceed_bound(self):
        rng = np.random.default_rng(7)
        for spec in spec_zoo():
            lo, hi = -0.5, 1.5
            bound = lipschitz_bound(spec, (lo, hi))
            u = rng.uniform(lo, hi, 10_000)
            v = rng.uniform(lo, hi, 10_000)
            keep = u != v
            u, v = u[keep], v[keep]
            q = np.abs(spec(u) - spec(v)) / np.abs(u - v)
            assert q.max() <= bound * (1 + 1e-9) + 1e-12


class TestAbsExtrema:
    def test_constant(self):
        assert abs_extrema(Constant(0.9), (0.0, 0.25)) == (0.9, 0.9)

    def test_cos_decreasing(self):
        mn, mx = abs_extrema(Sinusoid(1.0, 1.0, 0.0, "cos"), (0.0, 0.25))
        assert mx == 1.0
        assert mn == pytest.approx(math.cos(0.25), rel=1e-15)

    def test_affine_sign_change(self):
        mn, mx = abs_extrema(Affine(2.0, -0.5), (0.0, 0.5))
        assert (mn, mx) == (0.0, 0.5)

    def test_full_period_inside_region(self):
        mn, mx = abs_extrema(Sinusoid(1.0, 8 * math.pi, 0.0, "cos"), (0.0, 0.25))
        assert (mn, mx) == (0.0, 1.0)

    def test_bounds_hold_on_samples(self):
        rng = np.random.default_rng(11)
        for spec in spec_zoo():
            lo, hi = -0.5, 1.5
            mn, mx = abs_extrema(spec, (lo, hi))
            vals = np.abs(spec(rng.uniform(lo, hi, 10_000)))
            assert vals.min() >= mn - 1e-9
            assert vals.max() <= mx + 1e-9

    def test_scaled_extrema_scale(self):
        inner = Polynomial((1.0, 0.0, -2.0))
        mn, mx = abs_extrema(inner, (0.0, 1.0))
        smn, smx = abs_extrema(Scaled(-3.0, inner), (0.0, 1.0))
        assert smn == pytest.approx(3 * mn, abs=1e-12)
        assert smx == pytest.approx(3 * mx, abs=1e-12)


class TestLagrangeFromNodes:
    def test_single_node_constant(self):
        assert lagrange_from_nodes([(0.0, 1.0)]) == Constant(1.0)

    def test_two_nodes_affine(self):
        assert lagrange_from_nodes([(0.0, 0.0), (1.0, 1.0)]) == Affine(1.0, 0.0)

    def test_degree_four_through_data(self):
        poly = lagrange_from_nodes(EX2_NODES)
        assert isinstance(poly, Polynomial)
        assert len(poly.coefficients) == 5
        assert eval_scalar(poly, 0.5) == pytest.approx(10.0, abs=1e-9)

    def test_reproduces_every_node(self):
        for nodes in (EX2_NODES, ((0.0, 0.5), (0.5, 0.9), (1.0, 0.2))):
            spec = lagrange_from_nodes(nodes)
            for x, y in nodes:
                assert eval_scalar(spec, x) == pytest.approx(y, abs=1e-9 * (1 + abs(y)))

    def test_duplicate_x_rejected(self):
        with pytest.raises(FunctionSpecError):
            lagrange_from_nodes([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(FunctionSpecError):
            LagrangeNodes(((0.0, 1.0), (0.0, 2.0)))


class TestValidation:
    def test_empty_polynomial(self):
        with pytest.raises(FunctionSpecError):
            Polynomial(())

    def test_bad_wave(self):
        with pytest.raises(FunctionSpecError):
            Sinusoid(1.0, 1.0, 0.0, "tan")

    def test_empty_sum(self):
        with pytest.raises(FunctionSpecError):
            Sum(())

    def test_empty_bivariate(self):
        with pytest.raises(FunctionSpecError):
            BivariateSpec(())

    def test_bad_interval(self):
        with pytest.raises(FunctionSpecError):
            lipschitz_bound(Constant(1.0), (1.0, 1.0))


class TestJsonCodec:
    def test_round_trip_zoo(self):
        for spec in spec_zoo():
            again = scalar_from_json(scalar_to_json(spec))
            assert again == spec

    def test_documented_sinusoid_encoding(self):
        obj = {"kind": "sinusoid", "amplitude": 1, "omega": 25.132741,
               "phase": 0, "wave": "cos"}
        spec = scalar_from_json(obj)
        assert spec == Sinusoid(1.0, 25.132741, 0.0, "cos")

    def test_bivariate_round_trip(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),))
        assert bivariate_from_json(bivariate_to_json(spec)) == spec

    def test_bivariate_shortcuts(self):
        of_x = bivariate_from_json({"of_x": {"kind": "constant", "value": 2.0}})
        assert eval_bivariate(of_x, 0.3, 0.9) == 2.0
        of_y = bivariate_from_json({"of_y": {"kind": "affine", "slope": 1.0, "intercept": 0.0}})
        assert eval_bivariate(of_y, 0.3, 0.9) == 0.9

    def test_unknown_kind(self):
        with pytest.raises(FunctionSpecError):
            scalar_from_json({"kind": "mystery"})


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=5),
       st.floats(-2, 2), st.floats(-3, 3))
def test_sum_scaled_algebra(coeffs, factor, x):
    inner = Polynomial(tuple(coeffs))
    assert eval_scalar(Scaled(factor, inner), x) == factor * eval_scalar(inner, x)
    doubled = Sum((inner, inner))
    assert eval_scalar(doubled, x) == eval_scalar(inner, x) + eval_scalar(inner, x)


@settings(max_examples=50)
@given(st.floats(0.01, 3.0), st.floats(-20.0, 20.0), st.floats(-3.0, 3.0),
       st.sampled_from(["cos", "sin"]), st.floats(-2.0, 2.0), st.floats(0.01, 4.0))
def test_sinusoid_extrema_bracket_samples(amp, omega, phase, wave, lo, width):
    spec = Sinusoid(amp, omega, phase, wave)
    hi = lo + width
    mn, mx = abs_extrema(spec, (lo, hi))
    xs = np.linspace(lo, hi, 2001)
    vals = np.abs(spec(xs))
    assert vals.max() <= mx + 1e-9 * max(1.0, mx)
    assert vals.min() >= mn - 1e-9 * max(1.0, mx)


# ---------------------------------------------------------------------------
# reference: the per-piece bisection and the two derivative bodies the
# catalog used before piece bounds took arrays.  Every certified number
# must match it bit for bit.
# ---------------------------------------------------------------------------

def ref_certified_abs_range(value, seg_lip, lo, hi,
                            width_tol=1e-6, gap_tol=1e-9, max_pieces=262144):
    edges = np.linspace(lo, hi, 9)
    u, v = edges[:-1].copy(), edges[1:].copy()
    fmid = np.asarray(value(0.5 * (u + v)), dtype=np.float64)
    rad = np.array([seg_lip(a, b) for a, b in zip(u, v)]) * (v - u) * 0.5
    ends = np.abs(np.asarray(value(np.array([lo, hi])), dtype=np.float64))

    for _ in range(64):
        enc_lo, enc_hi = fmid - rad, fmid + rad
        abs_mid = np.abs(fmid)
        abs_top = np.maximum(np.abs(enc_lo), np.abs(enc_hi))
        abs_bot = np.where((enc_lo <= 0.0) & (0.0 <= enc_hi), 0.0,
                           np.minimum(np.abs(enc_lo), np.abs(enc_hi)))
        best_max = max(float(ends.max()), float(abs_mid.max()))
        best_min = min(float(ends.min()), float(abs_mid.min()))
        ub_max = float(abs_top.max())
        lb_min = float(abs_bot.min())
        if ub_max - best_max <= gap_tol and best_min - lb_min <= gap_tol:
            break
        cand = ((v - u) > width_tol) & ((abs_top > best_max + gap_tol)
                                        | (abs_bot < best_min - gap_tol))
        n_new = int(cand.sum())
        if n_new == 0 or u.size + n_new > max_pieces:
            break
        cu, cv = u[cand], v[cand]
        cm = 0.5 * (cu + cv)
        keep = ~cand
        u = np.concatenate([u[keep], cu, cm])
        v = np.concatenate([v[keep], cm, cv])
        new_mids = 0.5 * (np.concatenate([cu, cm]) + np.concatenate([cm, cv]))
        new_f = np.asarray(value(new_mids), dtype=np.float64)
        new_rad = np.array([seg_lip(a, b) for a, b in
                            zip(np.concatenate([cu, cm]), np.concatenate([cm, cv]))])
        new_rad *= 0.5 * (np.concatenate([cm, cv]) - np.concatenate([cu, cm]))
        fmid = np.concatenate([fmid[keep], new_f])
        rad = np.concatenate([rad[keep], new_rad])

    enc_lo, enc_hi = fmid - rad, fmid + rad
    abs_top = np.maximum(np.abs(enc_lo), np.abs(enc_hi))
    abs_bot = np.where((enc_lo <= 0.0) & (0.0 <= enc_hi), 0.0,
                       np.minimum(np.abs(enc_lo), np.abs(enc_hi)))
    return max(0.0, float(abs_bot.min())), float(abs_top.max())


def ref_poly_lip(coeffs, u, v):
    X = max(abs(u), abs(v))
    total = 0.0
    p = 1.0
    for k in range(1, len(coeffs)):
        total += k * abs(coeffs[k]) * p
        p *= X
    return total


def ref_horner(coeffs, x):
    r = np.zeros_like(x)
    for c in reversed(coeffs):
        r = r * x + c
    return r


def ref_power_coeffs(spec):
    xs = np.array([x for x, _ in spec.nodes])
    ys = np.array([y for _, y in spec.nodes])
    if len(xs) == 1:
        return (float(ys[0]),)
    V = np.vander(xs, increasing=True)
    return tuple(float(c) for c in np.linalg.solve(V, ys))


def ref_derivative_max(c, lo, hi):
    d = (0.0,) if len(c) == 1 else tuple(k * c[k] for k in range(1, len(c)))
    return ref_certified_abs_range(
        lambda x: ref_horner(d, np.asarray(x, dtype=np.float64)),
        lambda u, v: ref_poly_lip(d, u, v),
        lo, hi)[1]


def ref_seg_lip(spec, u, v):
    if isinstance(spec, Constant):
        return 0.0
    if isinstance(spec, Affine):
        return abs(float(spec.slope))
    if isinstance(spec, Sinusoid):
        return abs(spec.amplitude * spec.omega)
    if isinstance(spec, Polynomial):
        return ref_poly_lip(spec.coefficients, u, v)
    if isinstance(spec, LagrangeNodes):
        return ref_poly_lip(ref_power_coeffs(spec), u, v)
    if isinstance(spec, Sum):
        return sum(ref_seg_lip(t, u, v) for t in spec.terms)
    return abs(spec.factor) * ref_seg_lip(spec.spec, u, v)


def ref_abs_extrema(spec, lo, hi):
    if isinstance(spec, (Polynomial, LagrangeNodes, Sum)):
        return ref_certified_abs_range(spec, lambda u, v: ref_seg_lip(spec, u, v), lo, hi)
    if isinstance(spec, Scaled):
        mn, mx = ref_abs_extrema(spec.spec, lo, hi)
        return abs(spec.factor) * mn, abs(spec.factor) * mx
    return spec.abs_extrema(lo, hi)


def ref_lipschitz(spec, lo, hi):
    if isinstance(spec, Polynomial):
        return ref_derivative_max(spec.coefficients, lo, hi)
    if isinstance(spec, LagrangeNodes):
        return ref_derivative_max(ref_power_coeffs(spec), lo, hi)
    if isinstance(spec, Sum):
        return sum(ref_lipschitz(t, lo, hi) for t in spec.terms)
    if isinstance(spec, Scaled):
        return abs(spec.factor) * ref_lipschitz(spec.spec, lo, hi)
    return spec.lipschitz_bound(lo, hi)


def assert_same_bits(spec, lo, hi):
    assert abs_extrema(spec, (lo, hi)) == tuple(map(float, ref_abs_extrema(spec, lo, hi)))
    assert lipschitz_bound(spec, (lo, hi)) == float(ref_lipschitz(spec, lo, hi))


SHIFTS = [(-1.3, 0.7), (0.0, 1.0), (0.0, 0.25), (2.0, 3.0), (5.0, 1.1), (-0.5, 2.0)]


@pytest.mark.parametrize("lo,width", SHIFTS)
def test_zoo_bounds_match_per_piece_reference(lo, width):
    for spec in spec_zoo():
        assert_same_bits(spec, lo, lo + width)


coeff = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def lagrange_specs(draw):
    n = draw(st.integers(1, 7))
    x0, span = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.7), (2.0, 3.0), (5.0, 1.1)]))
    cuts = sorted(draw(st.sets(st.integers(0, 24), min_size=n, max_size=n)))
    ys = draw(st.lists(coeff, min_size=n, max_size=n))
    return LagrangeNodes(tuple((x0 + span * c / 24, y) for c, y in zip(cuts, ys)))


polynomials = st.lists(coeff, min_size=1, max_size=6).map(lambda c: Polynomial(tuple(c)))
leaves = st.one_of(
    polynomials,
    lagrange_specs(),
    st.builds(Affine, coeff, coeff),
    st.builds(Constant, coeff),
    st.builds(Sinusoid, coeff, st.floats(-20.0, 20.0), st.floats(-3.0, 3.0),
              st.sampled_from(["cos", "sin"])))
specs = st.one_of(
    leaves,
    st.lists(leaves, min_size=1, max_size=3).map(lambda t: Sum(tuple(t))),
    st.builds(Scaled, coeff, st.one_of(
        leaves, st.lists(leaves, min_size=1, max_size=3).map(lambda t: Sum(tuple(t))))))


@settings(max_examples=60, deadline=None)
@given(specs, st.sampled_from(SHIFTS))
def test_random_bounds_match_per_piece_reference(spec, shift):
    lo, width = shift
    assert_same_bits(spec, lo, lo + width)


def test_lagrange_from_nodes_is_the_power_basis_of_the_nodes():
    for nodes in (EX2_NODES, ((0.0, 0.5), (0.5, 0.9), (1.0, 0.2)),
                  ((5.0, 1.0), (5.5, -2.0), (5.75, 0.0), (6.1, 3.0))):
        poly = lagrange_from_nodes(nodes)
        assert poly.coefficients == ref_power_coeffs(LagrangeNodes(nodes))


def test_piece_bounds_take_arrays_of_piece_ends():
    u = np.array([-2.0, -0.5, 0.0, 1.5])
    v = np.array([-1.0, 0.5, 0.25, 3.0])
    for spec in spec_zoo():
        got = np.broadcast_to(spec._seg_lip(u, v), u.shape)
        ref = [ref_seg_lip(spec, a, b) for a, b in zip(u, v)]
        assert got.tolist() == ref


def test_non_finite_derivative_coefficient_raises():
    # 2 * 1e308 overflows: the derivative is no finite polynomial, and the
    # bound used to come back as inf or NaN
    with pytest.raises(FunctionSpecError, match="finite"):
        lipschitz_bound(Polynomial((0.0, 1e308, 1e308)), (0.0, 1.0))


def test_non_finite_power_basis_raises():
    # x**2 overflows in the Vandermonde matrix, so the power basis is NaN
    spec = LagrangeNodes(((0.0, 0.0), (1e160, 1.0), (2e160, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FunctionSpecError, match="finite"):
            lipschitz_bound(spec, (0.0, 1e160))
        with pytest.raises(FunctionSpecError, match="finite"):
            abs_extrema(spec, (0.0, 1e160))
