import functools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalis import (Affine, BivariateSpec, Constant, FunctionSpecError,
                       LagrangeNodes, Polynomial, Scaled, SeparableTerm,
                       Sinusoid, Sum, abs_extrema, lagrange_from_nodes, lipschitz_bound)
from fractalis.catalog import (MAX_PIECES, _horner, abs_extrema_each, abs_max_each,
                               lipschitz_bound_each)
from fractalis.config import ConfigError, bivariate_from_json, scalar_from_json

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


def zoo_json():
    """spec_zoo(), entry by entry, in its documented JSON form."""
    cos1 = {"kind": "sinusoid", "amplitude": 1, "omega": 1, "phase": 0, "wave": "cos"}
    sin1 = {"kind": "sinusoid", "amplitude": 1, "omega": 1, "phase": 0, "wave": "sin"}
    return [
        {"kind": "constant", "value": 0.9},
        {"kind": "constant", "value": -3},
        {"kind": "affine", "slope": -3, "intercept": 7},
        {"kind": "affine", "slope": 2, "intercept": -0.5},
        {"kind": "polynomial", "coefficients": [0.25, -1, 1]},
        {"kind": "polynomial", "coefficients": [1, 0, -2, 0.5, 0.25]},
        {"kind": "sinusoid", "amplitude": 1, "omega": 8 * math.pi, "phase": 0, "wave": "cos"},
        {"kind": "sinusoid", "amplitude": 0.5, "omega": 12 * math.pi, "wave": "sin"},
        {"kind": "sinusoid", "amplitude": 1, "omega": 1, "phase": 0.3},
        {"kind": "lagrange", "nodes": [list(node) for node in EX2_NODES]},
        {"kind": "lagrange", "nodes": [[0, 0.5], [0.5, 0.9], [1, 0.2]]},
        {"kind": "sum", "terms": [cos1, sin1]},
        {"kind": "scaled", "factor": 0.5, "spec": {"kind": "sum", "terms": [cos1, sin1]}},
        {"kind": "scaled", "factor": -2,
         "spec": {"kind": "polynomial", "coefficients": [0, 1, -1]}},
    ]


def at(spec, x, y):
    """A bivariate spec's value at one point, from its tensor grid."""
    return float(spec.grid([x], [y])[0, 0])


class TestEval:
    def test_constant(self):
        assert float(Constant(0.9)(0.3)) == 0.9

    def test_sinusoid_at_zero(self):
        assert float(Sinusoid(1.0, 8 * math.pi, 0.0, "cos")(0.0)) == 1.0

    def test_lagrange_hits_nodes(self):
        spec = LagrangeNodes(EX2_NODES)
        assert float(spec(0.75)) == 50.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1.0, 2.0, 37)
        for spec in spec_zoo():
            vec = spec(xs)
            ref = np.array([float(spec(float(x))) for x in xs])
            np.testing.assert_allclose(vec, ref, rtol=0, atol=0)

    def test_sum_is_sum_of_evals(self):
        parts = (Affine(1.0, 2.0), Sinusoid(0.3, 4.0, 0.1, "sin"))
        s = Sum(parts)
        for x in (-0.3, 0.0, 0.7, 1.9):
            assert float(s(x)) == sum(float(p(x)) for p in parts)

    def test_scaled_is_factor_times_eval(self):
        inner = Polynomial((1.0, -2.0, 0.5))
        for x in (-0.3, 0.0, 0.7):
            assert float(Scaled(1.5, inner)(x)) == 1.5 * float(inner(x))


class TestBivariate:
    def test_bilinear_corner(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),))
        assert at(spec, 0.0, 1.0) == 1.0

    def test_offset_paraboloid_center(self):
        q = Polynomial((0.25, -1.0, 1.0))
        spec = BivariateSpec((SeparableTerm(q, Constant(1.0)),
                              SeparableTerm(Constant(1.0), q)))
        assert at(spec, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_constant_fy_reduces_to_fx(self):
        fx_part = Polynomial((1.0, 2.0, -1.0))
        spec = BivariateSpec((SeparableTerm(fx_part, Constant(1.0)),))
        for x in (0.0, 0.3, 0.9):
            assert at(spec, x, 0.77) == float(fx_part(x))

    def test_grid_matches_pointwise(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),
                              SeparableTerm(Sinusoid(1.0, 2.0, 0.0, "cos"),
                                            Polynomial((0.5, 1.0)))))
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 1, 5)
        g = spec.grid(xs, ys)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                want = sum(float(t.fx(x)) * float(t.fy(y)) for t in spec.terms)
                assert g[iy, ix] == pytest.approx(want, abs=1e-14)


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
        assert float(poly(0.5)) == pytest.approx(10.0, abs=1e-9)

    def test_reproduces_every_node(self):
        for nodes in (EX2_NODES, ((0.0, 0.5), (0.5, 0.9), (1.0, 0.2))):
            spec = lagrange_from_nodes(nodes)
            for x, y in nodes:
                assert float(spec(x)) == pytest.approx(y, abs=1e-9 * (1 + abs(y)))

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("named, make", [
        pytest.param(named, make, id=named) for named, make in (
            ("constant value", lambda v: Constant(v)),
            ("affine slope", lambda v: Affine(v, 1.0)),
            ("affine intercept", lambda v: Affine(1.0, v)),
            ("polynomial coefficients[2]", lambda v: Polynomial((1.0, 2.0, v))),
            ("sinusoid amplitude", lambda v: Sinusoid(v, 1.0, 0.0, "cos")),
            ("sinusoid omega", lambda v: Sinusoid(1.0, v, 0.0, "sin")),
            ("sinusoid phase", lambda v: Sinusoid(1.0, 1.0, v, "cos")),
            ("lagrange nodes[1][0]", lambda v: LagrangeNodes(((0.0, 1.0), (v, 2.0)))),
            ("lagrange nodes[1][1]", lambda v: LagrangeNodes(((0.0, 1.0), (1.0, v)))),
            ("scaled factor", lambda v: Scaled(v, Constant(1.0))))])
    def test_every_variant_refuses_a_non_finite_parameter(self, named, make, value):
        with pytest.raises(FunctionSpecError, match=re.escape(
                f"{named} must be finite, got {value!r}")):
            make(value)

    def test_no_nan_range_is_certified(self):
        # Constant(nan) used to certify (nan, nan) as its |f| range
        with pytest.raises(FunctionSpecError, match="constant value must be finite"):
            abs_extrema(Constant(math.nan), (0.0, 1.0))

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
    def test_non_finite_scaled_factor(self, factor):
        with pytest.raises(FunctionSpecError, match="scaled factor must be finite"):
            Scaled(factor, Constant(1.0))

    def test_singular_lagrange_power_basis(self):
        # nodes an ulp apart at 1: the Vandermonde rows 1, x, x^2 are exactly
        # dependent, though the barycentric weights are finite
        e = 2.0 ** -52
        spec = LagrangeNodes(((1.0, 0.0), (1.0 + e, 1.0), (1.0 + 2 * e, 0.0)))
        with pytest.raises(FunctionSpecError, match="no power basis"):
            lipschitz_bound(spec, (1.0, 1.0 + 2 * e))

    @pytest.mark.parametrize("nodes, weight", [
        # 1e-170 * 2e-170 underflows to 0: the weight used to divide by zero
        pytest.param(((0.0, 1.0), (1e-170, 1.0), (2e-170, 1.0)), "inf", id="1e-170"),
        pytest.param(((0.0, 0.0), (1e-300, 1.0), (2e-300, 0.0)), "inf", id="1e-300"),
        # 1e200 * -1e200 overflows: the weight was -0, and every value 0/0 = NaN
        pytest.param(((0.0, 20.0), (1e200, 0.0), (-1e200, 0.0)), "-0.0", id="1e200"),
        pytest.param(((0.0, 0.0), (1e160, 1.0), (2e160, 0.0)), "0.0", id="1e160"),
        # the difference itself overflows
        pytest.param(((-1e308, 0.0), (1e308, 1.0)), "-0.0", id="1e308")])
    def test_lagrange_weight_out_of_range_refused(self, nodes, weight):
        with pytest.raises(FunctionSpecError, match=re.escape(
                f"lagrange nodes[0]: barycentric weight 1/prod(x_j - x_k) is {weight}; "
                "the nodes are too close together or too far apart")):
            LagrangeNodes(nodes)


class TestJsonCodec:
    def test_decodes_zoo(self):
        assert [scalar_from_json(obj) for obj in zoo_json()] == spec_zoo()

    def test_documented_sinusoid_encoding(self):
        obj = {"kind": "sinusoid", "amplitude": 1, "omega": 25.132741,
               "phase": 0, "wave": "cos"}
        spec = scalar_from_json(obj)
        assert spec == Sinusoid(1.0, 25.132741, 0.0, "cos")

    def test_bivariate_decodes(self):
        spec = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),))
        obj = {"terms": [{"fx": {"kind": "affine", "slope": -1, "intercept": 1},
                          "fy": {"kind": "affine", "slope": 1, "intercept": 0}}]}
        assert bivariate_from_json(obj) == spec

    def test_bivariate_shortcuts(self):
        of_x = bivariate_from_json({"of_x": {"kind": "constant", "value": 2.0}})
        assert at(of_x, 0.3, 0.9) == 2.0
        of_y = bivariate_from_json({"of_y": {"kind": "affine", "slope": 1.0, "intercept": 0.0}})
        assert at(of_y, 0.3, 0.9) == 0.9

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            scalar_from_json({"kind": "mystery"})


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=5),
       st.floats(-2, 2), st.floats(-3, 3))
def test_sum_scaled_algebra(coeffs, factor, x):
    inner = Polynomial(tuple(coeffs))
    assert float(Scaled(factor, inner)(x)) == factor * float(inner(x))
    doubled = Sum((inner, inner))
    assert float(doubled(x)) == float(inner(x)) + float(inner(x))


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

def ref_certified_max(value, seg_lip, lo, hi, side,
                      width_tol=1e-6, gap_tol=1e-9, max_pieces=262144):
    """Bound on the max of side * |f| over [lo, hi]: side +1 is max |f|,
    side -1 is -(min |f|)."""
    edges = np.linspace(lo, hi, 9)
    u, v = edges[:-1].copy(), edges[1:].copy()
    fmid = np.asarray(value(0.5 * (u + v)), dtype=np.float64)
    rad = np.array([seg_lip(a, b) for a, b in zip(u, v)]) * (v - u) * 0.5
    ends = side * np.abs(np.asarray(value(np.array([lo, hi])), dtype=np.float64))

    def piece_bounds():
        enc_lo, enc_hi = fmid - rad, fmid + rad
        if side > 0:
            return np.maximum(np.abs(enc_lo), np.abs(enc_hi))
        return -np.where((enc_lo <= 0.0) & (0.0 <= enc_hi), 0.0,
                         np.minimum(np.abs(enc_lo), np.abs(enc_hi)))

    for _ in range(64):
        g_top = piece_bounds()
        best = max(float(ends.max()), float((side * np.abs(fmid)).max()))
        if float(g_top.max()) - best <= gap_tol:
            break
        cand = ((v - u) > width_tol) & (g_top > best + gap_tol)
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

    return float(piece_bounds().max())


def ref_certified_abs_range(value, seg_lip, lo, hi):
    return (max(0.0, -ref_certified_max(value, seg_lip, lo, hi, -1)),
            ref_certified_max(value, seg_lip, lo, hi, 1))


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


@functools.lru_cache(maxsize=None)   # one solve per spec, not per piece
def ref_power_coeffs(spec):
    xs = np.array([x for x, _ in spec.nodes])
    ys = np.array([y for _, y in spec.nodes])
    if len(xs) == 1:
        return (float(ys[0]),)
    V = np.vander(xs, increasing=True)
    return tuple(float(c) for c in np.linalg.solve(V, ys))


def ref_derivative_max(c, lo, hi):
    d = (0.0,) if len(c) == 1 else tuple(k * c[k] for k in range(1, len(c)))
    return ref_certified_max(
        lambda x: ref_horner(d, np.asarray(x, dtype=np.float64)),
        lambda u, v: ref_poly_lip(d, u, v),
        lo, hi, 1)


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
    return spec._range(lo, hi)   # closed forms: per-interval scalar math


def ref_lipschitz(spec, lo, hi):
    if isinstance(spec, Polynomial):
        return ref_derivative_max(spec.coefficients, lo, hi)
    if isinstance(spec, LagrangeNodes):
        return ref_derivative_max(ref_power_coeffs(spec), lo, hi)
    if isinstance(spec, Sum):
        return sum(ref_lipschitz(t, lo, hi) for t in spec.terms)
    if isinstance(spec, Scaled):
        return abs(spec.factor) * ref_lipschitz(spec.spec, lo, hi)
    return spec._lip(lo, hi)


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
    # x**2 overflows in the Vandermonde matrix, so the power basis is NaN;
    # the nodes are 1e150 apart, so the barycentric weights are finite
    spec = LagrangeNodes(((2e154, 0.0), (2e154 + 1e150, 1.0), (2e154 + 2e150, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FunctionSpecError, match="finite"):
            lipschitz_bound(spec, (2e154, 2e154 + 2e150))
        with pytest.raises(FunctionSpecError, match="finite"):
            abs_extrema(spec, (2e154, 2e154 + 2e150))


# ---------------------------------------------------------------------------
# reference: the one-interval bisection the batched one replaced, run for
# one side, with the reason and round it stopped in.  Each interval of a
# batch must come out as this gives it alone, bit for bit.
# ---------------------------------------------------------------------------

def ref_one_interval(spec, lo, hi, side):
    """(bound on max side*|f|, (why, round)) of the one-interval bisection."""
    edges = np.linspace(lo, hi, 9)
    u, v = edges[:-1], edges[1:]
    fmid = np.asarray(spec(0.5 * (u + v)), dtype=np.float64)
    rad = spec._seg_lip(u, v) * (v - u) * 0.5
    ends = np.abs(np.asarray(spec(np.array([lo, hi])), dtype=np.float64))
    stop = ("rounds", 64)
    for rnd in range(64):
        if side > 0:
            top = np.abs(fmid) + rad
            best = max(float(ends.max()), float(np.abs(fmid).max()))
        else:
            top = -np.maximum(np.abs(fmid) - rad, 0.0)
            best = -min(float(ends.min()), float(np.abs(fmid).min()))
        if top.max() - best <= 1e-9:
            stop = ("gap", rnd)
            break
        cand = ((v - u) > 1e-6) & (top > best + 1e-9)
        n_new = int(cand.sum())
        if n_new == 0 or u.size + n_new > 262144:
            stop = ("none" if n_new == 0 else "max_pieces", rnd)
            break
        cu, cv = u[cand], v[cand]
        cm = 0.5 * (cu + cv)
        nu, nv = np.concatenate([cu, cm]), np.concatenate([cm, cv])
        keep = ~cand
        u = np.concatenate([u[keep], nu])
        v = np.concatenate([v[keep], nv])
        fmid = np.concatenate([fmid[keep], np.asarray(spec(0.5 * (nu + nv)), dtype=np.float64)])
        rad = np.concatenate([rad[keep], spec._seg_lip(nu, nv) * (nv - nu) * 0.5])
    top = np.abs(fmid) + rad if side > 0 else -np.maximum(np.abs(fmid) - rad, 0.0)
    return float(top.max()), stop


def ref_one_range(spec, lo, hi):
    """(min |f|, max |f|): one run per side, a NaN min clamped to 0.0."""
    return max(0.0, -ref_one_interval(spec, lo, hi, -1)[0]), ref_one_interval(spec, lo, hi, 1)[0]


def ref_one_abs_extrema(spec, lo, hi):
    if isinstance(spec, (Polynomial, LagrangeNodes, Sum)):
        return ref_one_range(spec, lo, hi)
    if isinstance(spec, Scaled):
        mn, mx = ref_one_abs_extrema(spec.spec, lo, hi)
        return abs(spec.factor) * mn, abs(spec.factor) * mx
    return spec._range(lo, hi)


def ref_one_lipschitz(spec, lo, hi):
    if isinstance(spec, Polynomial):
        return ref_one_interval(spec._derivative, lo, hi, 1)[0]
    if isinstance(spec, LagrangeNodes):
        return ref_one_lipschitz(spec._power, lo, hi)
    if isinstance(spec, Sum):
        return sum(ref_one_lipschitz(t, lo, hi) for t in spec.terms)
    if isinstance(spec, Scaled):
        return abs(spec.factor) * ref_one_lipschitz(spec.spec, lo, hi)
    return spec._lip(lo, hi)


def assert_batch_matches_one_by_one(spec, intervals):
    ranges = abs_extrema_each(spec, intervals)
    lips = lipschitz_bound_each(spec, intervals)
    assert ranges.shape == (len(intervals), 2) and lips.shape == (len(intervals),)
    for (lo, hi), row, lip in zip(intervals, ranges.tolist(), lips.tolist()):
        want = ref_one_abs_extrema(spec, lo, hi)
        assert [v.hex() for v in row] == [float(v).hex() for v in want]
        assert lip.hex() == float(ref_one_lipschitz(spec, lo, hi)).hex()
        assert abs_extrema(spec, (lo, hi)) == tuple(row)
        assert lipschitz_bound(spec, (lo, hi)) == lip


def sine(draw):
    return Sinusoid(draw(coeff), draw(st.floats(0.5, 40.0)), draw(st.floats(-3.0, 3.0)),
                    draw(st.sampled_from(["sin", "cos"])))


@st.composite
def bisected_specs(draw):
    """Polynomial, Lagrange, Scaled and Sum specs, the sums with sine terms."""
    kind = draw(st.sampled_from(["polynomial", "lagrange", "scaled", "sum"]))
    if kind == "polynomial":
        return draw(polynomials)
    if kind == "lagrange":
        return draw(lagrange_specs())
    leaf = draw(st.one_of(polynomials, lagrange_specs()))
    if kind == "scaled":
        return Scaled(draw(coeff), leaf)
    return Sum((leaf, *(sine(draw) for _ in range(draw(st.integers(1, 2))))))


intervals = st.lists(
    st.tuples(st.floats(-2.0, 6.0), st.sampled_from([1e-5, 1e-3, 0.05, 0.3, 1.0, 2.5])).map(
        lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(st.one_of(specs, bisected_specs()), intervals)
def test_abs_max_each_is_the_range_max(spec, ivs):
    # the max side alone, with the bits of abs_extrema_each's max column
    want = abs_extrema_each(spec, ivs)[:, 1]
    assert abs_max_each(spec, ivs).tobytes() == want.tobytes()


def exact_lagrange(nodes, x):
    """The interpolating polynomial through `nodes` at x, in exact rationals."""
    total = Fraction(0)
    for j, (xj, yj) in enumerate(nodes):
        term = Fraction(yj)
        for k, (xk, _) in enumerate(nodes):
            if k != j:
                term *= (Fraction(x) - Fraction(xk)) / (Fraction(xj) - Fraction(xk))
        total += term
    return total


class TestLagrangeFarFromNodes:
    """Nodes 1e150 apart have weights near 5e-301, so every barycentric term
    w_j / (x - x_j) underflows to zero at each x but a node; those points
    are evaluated again with the weights scaled by a power of two."""

    NODES = ((1e150, 1.0), (2e150, 0.0), (3e150, 0.0))
    XS = [0.0, -0.0, 1e-300, -1e150, 5e149, 1.5e150, 2.5e150, 4e150, 7e150, -3e150]

    @pytest.mark.parametrize("x", XS)
    def test_matches_the_exact_quadratic(self, x):
        spec = LagrangeNodes(self.NODES)
        want = float(exact_lagrange(self.NODES, x))
        for got in (spec(np.float64(x)), spec(np.array([x]))[0]):
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_arrays_mix_nodes_and_rescaled_points(self):
        spec = LagrangeNodes(self.NODES)
        xs = np.array([0.0, 1e150, 2e150, 3e150, 4e150])
        got = spec(xs)
        assert got[1:4].tolist() == [1.0, 0.0, 0.0]
        assert got[[0, 4]].tolist() == pytest.approx([3.0, 1.0], rel=1e-12)
        assert got.tolist() == [float(spec(np.float64(x))) for x in xs]

    # at e = 512 a weight underflows to 0, at e = -512 it overflows
    @pytest.mark.parametrize("e", range(-511, 512))
    def test_values_keep_the_bits_of_unit_nodes(self, e):
        # nodes and x times 2**e: each term scales by 2**(-3e), exactly while
        # it stays normal (-340 <= e < 340), and the rescaled sums of points
        # where some term is subnormal (from e = 340), underflows to 0 or
        # overflows (from e = -341) give the same bits as unit nodes do
        unit = LagrangeNodes(((1.0, 1.0), (2.0, 0.0), (3.0, 0.0)))
        moved = LagrangeNodes(tuple((math.ldexp(x, e), y) for x, y in unit.nodes))
        xs = np.array([0.0, -0.0, 0.5, 1.5, 2.5, 4.0, -1.0, 1.0, 3.0])
        assert moved(np.ldexp(xs, e)).tobytes() == unit(xs).tobytes()


class TestBatchedBisection:
    @settings(max_examples=60, deadline=None)
    @given(bisected_specs(), intervals)
    # x within |w_j * y_j| / DBL_MAX of a node overflowed the barycentric terms
    @example(LagrangeNodes(((0.0, 2.0),)), [(1.1125369292536007e-308, 1e-05)])
    @example(LagrangeNodes(((0.0, 0.0),)), [(2.2e-309, 1e-05)])
    @example(LagrangeNodes(((0.0, 2.0), (1.0, 3.0))), [(1e-308, 1e-05)])
    def test_random_batches_match_one_by_one(self, spec, ivs):
        assert_batch_matches_one_by_one(spec, ivs)

    def test_intervals_stop_in_different_rounds_and_at_max_pieces(self):
        # sin - sin is 0 everywhere, but its piece bound 2 * 7 never shrinks
        # below the gap before pieces reach REFINE_WIDTH: on the max side
        # every piece splits each round, and [0, 1] runs into MAX_PIECES
        flat = Sum((Sinusoid(1.0, 7.0, 0.0, "sin"), Sinusoid(-1.0, 7.0, 0.0, "sin")))
        ivs = [(0.0, 1.0), (0.5, 0.501), (2.0, 2.05), (3.0, 3.00002)]
        stops = [ref_one_interval(flat, lo, hi, 1)[1] for lo, hi in ivs]
        assert stops[0] == ("max_pieces", 15)
        assert {why for why, _ in stops[1:]} == {"none"}
        assert len({rnd for _, rnd in stops}) == len(ivs)
        assert_batch_matches_one_by_one(flat, ivs)

        bumpy = Sum((Polynomial((0.3, -1.2, 0.8, 0.5)), Sinusoid(0.4, 11.0, 0.2, "sin")))
        ivs = [(-1.3, 0.7), (0.0, 1.0), (2.0, 2.001), (5.0, 6.1), (0.25, 0.2500001)]
        stops = [ref_one_interval(bumpy, lo, hi, 1)[1] for lo, hi in ivs]
        assert len({rnd for _, rnd in stops}) >= 3
        assert_batch_matches_one_by_one(bumpy, ivs)
        assert_batch_matches_one_by_one(Scaled(-2.5, bumpy), ivs)
        assert_batch_matches_one_by_one(LagrangeNodes(EX2_NODES), ivs)

        # on [-1e17, 1e17] the min side's pieces at 0 keep splitting
        # through all 64 rounds; the intervals beside it stop long before
        square = Polynomial((0.0, 0.0, 1.0))
        ivs = [(0.0, 1.0), (-1e17, 1e17), (2.0, 3.0)]
        stops = [ref_one_interval(square, lo, hi, -1)[1] for lo, hi in ivs]
        assert stops[1] == ("rounds", 64)
        assert all(why != "rounds" for why, _ in stops[::2])
        assert_batch_matches_one_by_one(square, ivs)

    def test_max_pieces_is_per_interval(self):
        # two intervals that each fill MAX_PIECES hold twice that between them
        flat = Sum((Sinusoid(1.0, 7.0, 0.0, "sin"), Sinusoid(-1.0, 7.0, 0.0, "sin")))
        assert MAX_PIECES == 262144
        assert_batch_matches_one_by_one(flat, [(0.0, 1.0), (4.0, 5.0)])

    def test_closed_forms_per_interval(self):
        ivs = [(0.0, 0.25), (0.25, 3.0), (-1.0, 0.0)]
        for spec in (Constant(-0.7), Affine(2.0, -0.5), Sinusoid(1.0, 8 * math.pi, 0.3, "cos")):
            assert_batch_matches_one_by_one(spec, ivs)

    def test_non_finite_values_as_one_by_one(self):
        # 1e308*x - 1e308*x is NaN past x = 1.8 and 0 before it: NaN pieces
        # stay unsplit, their max is NaN and their min clamps to 0.0, also
        # where Scaled multiplies the NaN before the clamp
        nan_past = Sum((Polynomial((0.0, 1e308)), Polynomial((0.0, -1e308))))
        ivs = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.5)]
        for spec in (nan_past, Scaled(-2.0, nan_past), Scaled(0.0, nan_past),
                     Scaled(1e-320, Scaled(3.0, nan_past))):
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                got = abs_extrema_each(spec, ivs)
                want = [ref_one_abs_extrema(spec, lo, hi) for lo, hi in ivs]
            assert [[v.hex() for v in row] for row in got.tolist()] == [
                [float(v).hex() for v in row] for row in want]
            assert got[1:, 0].tolist() == [0.0, 0.0] and np.isnan(got[1:, 1]).all()

    @pytest.mark.parametrize("bad", [[(0.0, 1.0), (1.0, 1.0)], [(0.0, math.nan)], [0.0, 1.0],
                                     [(0.0, 1.0, 2.0)]])
    def test_bad_intervals_rejected(self, bad):
        with pytest.raises(FunctionSpecError, match="interval"):
            abs_extrema_each(Polynomial((1.0, 2.0)), bad)


def test_horner_in_place_matches_fresh_temporaries():
    spec = Polynomial((0.25, -1.0, 1.0, 0.5, -0.125))
    x = np.linspace(-2.0, 3.0, 1001)
    for arg in (x, x[::-1], x[::3]):
        assert spec(arg).tobytes() == ref_horner(spec.coefficients, arg).tobytes()
    got = spec(np.float64(0.3))
    assert type(got) is np.float64
    assert got == ref_horner(spec.coefficients, np.asarray(0.3))


def zero_filled_horner(coeffs, x):
    """The loop `_horner` replaced: a zero start, then r *= x; r += c for
    every coefficient."""
    r = np.zeros_like(x)[()]
    for c in reversed(coeffs):
        r *= x
        r += c
    return r


@pytest.mark.parametrize("coeffs", [(2.5,), (-0.0,), (0.0, 1.0), (-1.5, 0.0, -0.0),
                                    (0.25, -1.0, 1.0, 0.5, -0.125), (1e300, 1e300, 3.0)])
def test_horner_matches_the_zero_filled_loop(coeffs):
    # 0 * x starts the result as the zero fill times x did: -0.0 for a
    # negative x, NaN for +-inf and NaN
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -2.0, 3.5, 1e-310, -1e200])
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _horner(coeffs, x), zero_filled_horner(coeffs, x)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        for v in x.tolist():
            got, want = _horner(coeffs, np.asarray(v)), zero_filled_horner(coeffs, np.asarray(v))
            assert type(got) is type(want) is np.float64
            assert float(got).hex() == float(want).hex()


class TestGridSignedZero:
    def test_first_term_is_the_start(self):
        # the result starts as the first term's outer product, so an all
        # -0.0 product stays -0.0 (a zero-filled start made it +0.0)
        xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 3)
        g = BivariateSpec((SeparableTerm(Constant(-0.0), Constant(1.0)),)).grid(xs, ys)
        assert g.shape == (3, 5) and np.all(g == 0.0) and np.all(np.signbit(g))

    def test_equal_to_zero_filled_sum_up_to_signed_zeros(self):
        spec = BivariateSpec((SeparableTerm(Affine(-2.0, 1.0), Constant(-0.0)),
                              SeparableTerm(Sinusoid(0.3, 7.0, 0.1, "sin"), Affine(1.0, -0.5)),
                              SeparableTerm(Constant(-0.0), Constant(2.0))))
        xs, ys = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 17)
        ref = np.zeros((ys.size, xs.size))
        for t in spec.terms:
            ref += np.outer(t.fy(ys), t.fx(xs))
        g = spec.grid(xs, ys)
        assert np.array_equal(g, ref)
        nonzero = ref != 0.0
        assert g[nonzero].tobytes() == ref[nonzero].tobytes()
        assert np.any(np.signbit(g) & ~nonzero) and not np.any(np.signbit(ref) & ~nonzero)
