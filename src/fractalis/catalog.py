"""Closed catalog of analyzable one- and two-variable functions.

Every free function the curve/surface machinery consumes (vertical scaling
factors, the range map, base and interpolant curves, surface coefficient
functions) is described by one of the variants below instead of an opaque
callable.  That keeps two things computable that the dimension analysis
needs as *inputs*: a certified Lipschitz constant and certified bounds on
min/max of |f| over an interval.  Every variant's numbers must be finite
(`_check_finite`, called by each constructor).  `config` reads their JSON form.

Both bounds are certified on many intervals at once
(`lipschitz_bound_each`, `abs_extrema_each`, and `abs_max_each` for the
max |f| side alone); `lipschitz_bound` and `abs_extrema` are their
one-interval calls.  Every scalar variant implements three methods on
arrays of ends: `_seg_lip(u, v)` bounds f's Lipschitz constant on each
piece, `_lip_each(lo, hi)` certifies it on each interval, and
`_side_each(lo, hi, side)` certifies the max of side * |f| on each
interval (side +1: max |f|; side -1: -min |f|).  `abs_extrema_each` is
two side calls, one per side, and `abs_max_each` the +1 side alone.
Sides are exact for Constant/Affine/Sinusoid (closed-form critical
points, per interval).  Polynomial/Lagrange/Sum sides are one run of the
one bisection, `_certified_max`, on the pieces of all intervals
together, over their `_seg_lip` bounds; Scaled scales its spec's side.
A polynomial's Lipschitz bound is the +1 side of its derivative;
Lagrange nodes take it from their power-basis polynomial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "FunctionSpecError",
    "Constant",
    "Affine",
    "Polynomial",
    "Sinusoid",
    "LagrangeNodes",
    "Sum",
    "Scaled",
    "ScalarSpec",
    "SeparableTerm",
    "BivariateSpec",
    "identity",
    "lipschitz_bound",
    "abs_extrema",
    "lipschitz_bound_each",
    "abs_extrema_each",
    "abs_max_each",
    "lagrange_from_nodes",
]

REFINE_WIDTH = 1e-6     # pieces narrower than this are not bisected
REFINE_GAP = 1e-9       # enclosure gap at which bisection stops
MAX_PIECES = 262144     # bisection stops before holding more pieces


class FunctionSpecError(ValueError):
    """Malformed function description."""


def _arr(x):
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# sinusoid closed forms
# ---------------------------------------------------------------------------

def _contains_node(u0, u1, offset):
    # is there an integer k with offset + k*pi in [u0, u1]?
    k = math.ceil((u0 - offset) / math.pi)
    return offset + k * math.pi <= u1


def _trig_abs_range(amplitude, omega, phase, wave, lo, hi):
    """Exact (min, max) of |amplitude * wave(omega*x + phase)| on [lo, hi]."""
    a = abs(amplitude)
    if a == 0.0:
        return 0.0, 0.0
    if omega == 0.0:
        v = a * abs(math.cos(phase) if wave == "cos" else math.sin(phase))
        return v, v
    u0, u1 = sorted((omega * lo + phase, omega * hi + phase))
    if wave == "sin":
        # sin(u) = cos(u - pi/2)
        u0 -= math.pi / 2
        u1 -= math.pi / 2
    peaks = _contains_node(u0, u1, 0.0)          # |cos| = 1 at multiples of pi
    zeros = _contains_node(u0, u1, math.pi / 2)  # |cos| = 0 at pi/2 + k*pi
    ends = (abs(math.cos(u0)), abs(math.cos(u1)))
    mx = 1.0 if peaks else max(ends)
    mn = 0.0 if zeros else min(ends)
    return a * mn, a * mx


# ---------------------------------------------------------------------------
# certified range refinement
# ---------------------------------------------------------------------------

def _per_interval(ufunc, init, owner, values):
    """ufunc-reduce each piece's value into its interval's slot of a copy of init."""
    out = np.array(init, dtype=np.float64)
    ufunc.at(out, owner, values)
    return out


def _certified_max(spec, lo, hi, side):
    """Certified upper bound on the max of g = side * |f| over each interval
    [lo[j], hi[j]], as an array (`lo`, `hi` arrays of ends): side +1 bounds
    max |f|, side -1 bounds min |f| as -max(-|f|).

    Each interval starts as the 8 pieces np.linspace(lo, hi, 9) cuts, and
    every piece carries its interval's index.  ``spec._seg_lip(u, v)``
    bounds f's Lipschitz constant on arrays of pieces [u, v]; with
    r = L*(width/2), g on a piece is at most |f(mid)| + r (side +1) or
    -max(0, |f(mid)| - r) (side -1).  Each round evaluates spec and its
    bounds once, on all new pieces of all intervals.  Per interval, pieces
    whose bound exceeds the best g seen (ends, midpoints) by more than
    REFINE_GAP are bisected, unless narrower than REFINE_WIDTH.  An
    interval leaves the loop when that gap closes, when it has no
    candidates, when splitting would take its own pieces past MAX_PIECES,
    or after 64 rounds, with the largest bound of its pieces.  Pieces never
    meet across intervals, so each interval's result is the one a call on
    it alone returns; m intervals may hold up to m * MAX_PIECES pieces.  A
    NaN piece is never split and makes its interval's result NaN.
    """
    lo, hi = _arr(lo), _arr(hi)
    m = lo.size
    out = np.empty(m)
    width = hi - lo
    step = width / 8
    k = np.arange(9.0)
    # np.linspace(lo, hi, 9) row by row, its branch for a denormal step included
    edges = np.where((step == 0.0)[:, None], k / 8 * width[:, None],
                     k * step[:, None]) + lo[:, None]
    edges[:, -1] = hi
    u, v = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.repeat(np.arange(m), 8)
    fmid = _arr(spec(0.5 * (u + v)))
    rad = spec._seg_lip(u, v) * (v - u) * 0.5
    ends = (side * np.abs(_arr(spec(np.concatenate([lo, hi]))))).reshape(2, m).max(axis=0)
    live, counts = np.ones(m, dtype=bool), np.full(m, 8)

    for rnd in range(65):   # the bounds after the 64th round of splits are final
        abs_mid = np.abs(fmid)
        top = abs_mid + rad if side > 0 else -np.maximum(abs_mid - rad, 0.0)
        top_max = _per_interval(np.maximum, np.full(m, -np.inf), owner, top)
        best = _per_interval(np.maximum, ends, owner, side * abs_mid)
        cand = ((v - u) > REFINE_WIDTH) & (top > best[owner] + REFINE_GAP)
        n_new = np.bincount(owner[cand], minlength=m)
        done = live & ((top_max - best <= REFINE_GAP) | (n_new == 0)
                       | (counts + n_new > MAX_PIECES) | (rnd == 64))
        if done.any():
            out[done] = top_max[done]
            live &= ~done
            if not live.any():
                return out
            alive = live[owner]
            u, v, fmid, rad, cand, owner = (a[alive] for a in (u, v, fmid, rad, cand, owner))
        counts += n_new
        cu, cv, co = u[cand], v[cand], owner[cand]
        cm = 0.5 * (cu + cv)
        nu, nv = np.concatenate([cu, cm]), np.concatenate([cm, cv])
        keep = ~cand
        u = np.concatenate([u[keep], nu])
        v = np.concatenate([v[keep], nv])
        owner = np.concatenate([owner[keep], co, co])
        fmid = np.concatenate([fmid[keep], _arr(spec(0.5 * (nu + nv)))])
        rad = np.concatenate([rad[keep], spec._seg_lip(nu, nv) * (nv - nu) * 0.5])


def _poly_lip_coeff(coeffs, u, v):
    # sum_k k*|c_k| * X^(k-1), X = max(|u|, |v|) per piece: cheap certified bound
    X = np.maximum(np.abs(u), np.abs(v))
    total = 0.0
    p = 1.0
    for k in range(1, len(coeffs)):
        total += k * abs(coeffs[k]) * p
        p *= X
    return total


def _horner(coeffs, x):
    r = np.multiply(x, 0.0)   # 0 * x, as a zero start times x; a 0-d x gives a numpy scalar
    r += coeffs[-1]
    for c in reversed(coeffs[:-1]):
        r *= x   # in place on arrays
        r += c
    return r


def _check_finite(kind, **params):
    """Every variant's finiteness rule: the first non-finite entry of a keyword
    parameter raises FunctionSpecError naming it, e.g. "lagrange nodes[2][1]"."""
    for name, value in params.items():
        values = np.asarray(value, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            index = "".join(f"[{i}]" for i in bad[0])
            raise FunctionSpecError(f"{kind} {name}{index} must be finite, "
                                    f"got {float(values[tuple(bad[0])])!r}")


# ---------------------------------------------------------------------------
# scalar variants
#
# Every variant bounds itself with three methods on arrays of ends:
# `_seg_lip(u, v)` a Lipschitz bound per piece, for the bisection;
# `_lip_each(lo, hi)` a certified Lipschitz bound per interval; and
# `_side_each(lo, hi, side)` the certified max of side * |f| per interval,
# in `_certified_max`'s convention (+1: max |f|; -1: -min |f|).
# ---------------------------------------------------------------------------

class _ClosedForm:
    """The three bound methods from the closed forms `_lip(lo, hi)` and
    `_range(lo, hi)` = (min |f|, max |f|), one interval at a time in scalar
    `math` (np.cos may differ from math.cos by an ulp).  `_lip_each` is
    `_lip` per interval, and `_side_each` takes `_range`'s max column for
    side +1 and its negated min column for side -1.  `_seg_lip` is `_lip`,
    which holds where `_lip` does not read its interval; `Sinusoid` gives a
    global bound instead."""

    def _seg_lip(self, u, v):
        return self._lip(u, v)

    def _lip_each(self, lo, hi):
        return np.array([self._lip(a, b) for a, b in zip(lo.tolist(), hi.tolist())])

    def _side_each(self, lo, hi, side):
        column = 1 if side > 0 else 0
        return np.array([side * self._range(a, b)[column]
                         for a, b in zip(lo.tolist(), hi.tolist())], dtype=np.float64)


@dataclass(frozen=True)
class Constant(_ClosedForm):
    value: float

    def __post_init__(self):
        _check_finite("constant", value=self.value)

    def __call__(self, x):
        return np.full(np.shape(_arr(x)), float(self.value))

    def _lip(self, lo, hi):
        return 0.0

    def _range(self, lo, hi):
        v = abs(float(self.value))
        return v, v


@dataclass(frozen=True)
class Affine(_ClosedForm):
    slope: float
    intercept: float

    def __post_init__(self):
        _check_finite("affine", slope=self.slope, intercept=self.intercept)

    def __call__(self, x):
        return self.slope * _arr(x) + self.intercept

    def _lip(self, lo, hi):
        return abs(float(self.slope))

    def _range(self, lo, hi):
        a, b = float(self.slope), float(self.intercept)
        vals = [abs(a * lo + b), abs(a * hi + b)]
        if a != 0.0:
            root = -b / a
            if lo < root < hi:
                vals.append(0.0)
        return min(vals), max(vals)


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple  # ascending powers

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 1:
            raise FunctionSpecError("polynomial needs at least one coefficient")
        _check_finite("polynomial", coefficients=coeffs)
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        return _horner(self.coefficients, _arr(x))

    @cached_property
    def _derivative(self):
        c = self.coefficients
        return Polynomial(tuple(k * c[k] for k in range(1, len(c))) or (0.0,))

    def _lip_each(self, lo, hi):
        return _certified_max(self._derivative, lo, hi, 1)

    _side_each = _certified_max

    def _seg_lip(self, u, v):
        return _poly_lip_coeff(self.coefficients, u, v)


@dataclass(frozen=True)
class Sinusoid(_ClosedForm):
    amplitude: float
    omega: float
    phase: float
    wave: str  # "cos" or "sin"

    def __post_init__(self):
        if self.wave not in ("cos", "sin"):
            raise FunctionSpecError(f"sinusoid wave must be 'cos' or 'sin', got {self.wave!r}")
        _check_finite("sinusoid", amplitude=self.amplitude, omega=self.omega, phase=self.phase)

    def __call__(self, x):
        u = self.omega * _arr(x) + self.phase
        f = np.cos if self.wave == "cos" else np.sin
        return self.amplitude * f(u)

    def _lip(self, lo, hi):
        # derivative of A*cos is -A*w*sin, of A*sin is A*w*cos
        dual = "sin" if self.wave == "cos" else "cos"
        return _trig_abs_range(self.amplitude * self.omega, self.omega,
                               self.phase, dual, lo, hi)[1]

    def _range(self, lo, hi):
        return _trig_abs_range(self.amplitude, self.omega, self.phase,
                               self.wave, lo, hi)

    def _seg_lip(self, u, v):
        # global derivative bound; cheap, and member-wise interval
        # exactness cannot see cancellation inside sums anyway
        return abs(self.amplitude * self.omega)


@dataclass(frozen=True)
class LagrangeNodes:
    nodes: tuple  # ((x, y), ...) with distinct x

    def __post_init__(self):
        nodes = tuple((float(x), float(y)) for x, y in self.nodes)
        if len(nodes) < 1:
            raise FunctionSpecError("lagrange spec needs at least one node")
        _check_finite("lagrange", nodes=nodes)
        xs = [x for x, _ in nodes]
        if len(set(xs)) != len(xs):
            raise FunctionSpecError("lagrange nodes must have distinct x values")
        # barycentric weights 1 / prod(x_j - x_k); a product that overflows
        # gives a zero weight, and then every value is 0/0
        weights = []
        for j, xj in enumerate(xs):
            p = 1.0
            for k, xk in enumerate(xs):
                if k != j:
                    p *= xj - xk
            w = 1.0 / p if p else math.inf
            if w == 0.0 or not math.isfinite(w):
                raise FunctionSpecError(
                    f"lagrange nodes[{j}]: barycentric weight 1/prod(x_j - x_k) is {w!r}; "
                    "the nodes are too close together or too far apart")
            weights.append(w)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_weights", tuple(weights))

    @cached_property
    def _power(self):
        # the same polynomial in the power basis: piece and derivative bounds
        xs = np.array([x for x, _ in self.nodes])
        ys = np.array([y for _, y in self.nodes])
        with np.errstate(over="ignore"):   # Polynomial rejects what overflows
            vander = np.vander(xs, increasing=True)
        try:
            return Polynomial(tuple(np.linalg.solve(vander, ys)))
        except np.linalg.LinAlgError as exc:
            raise FunctionSpecError(f"lagrange nodes have no power basis: {exc}") from exc

    def _sums(self, x, weights):
        """(num, den, hit, exact, off): the barycentric sums at x over
        `weights`, where x is a node that node's y, and where some term
        w_j / (x - x_j) or its product with y_j is not a normal float.
        Terms that overflow are left out of the sums; subnormal or zero
        terms are kept."""
        num = np.zeros(np.shape(x))
        den = np.zeros(np.shape(x))
        hit = np.zeros(np.shape(x), dtype=bool)
        off = np.zeros(np.shape(x), dtype=bool)
        exact = np.zeros(np.shape(x))
        for (xj, yj), wj in zip(self.nodes, weights):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                c = wj / (x - xj)
                cy = c * yj
            h = x == xj
            big = np.isinf(c) | np.isinf(cy)
            hit = hit | h
            off = off | big | (np.abs(c) < np.finfo(np.float64).tiny)
            exact = np.where(h, yj, exact)
            num = num + np.where(big, 0.0, cy)
            den = den + np.where(big, 0.0, c)
        return num, den, hit, exact, off

    def __call__(self, x):
        x = _arr(x)
        num, den, hit, exact, off = self._sums(x, self._weights)
        # far from the nodes a term w_j / (x - x_j) may be subnormal or
        # underflow to 0, losing digits, and between nodes closer together
        # than ~2**-340 it may overflow; there the sums are taken again with
        # every weight times 2**k, k bringing the largest term near 1, which
        # cancels exactly in num / den
        lost = off & ~hit
        if lost.any():
            with np.errstate(over="ignore", invalid="ignore"):
                top = np.max([np.frexp(wj)[1] - np.frexp(x - xj)[1]
                              for (xj, _), wj in zip(self.nodes, self._weights)], axis=0)
            k = np.where(lost, -top, 0)
            scaled = self._sums(x, [np.ldexp(wj, k) for wj in self._weights])
            num, den = np.where(lost, scaled[0], num), np.where(lost, scaled[1], den)
        with np.errstate(invalid="ignore", divide="ignore"):
            interp = num / den
        return np.where(hit, exact, interp)

    def _lip_each(self, lo, hi):
        return self._power._lip_each(lo, hi)

    # barycentric values; only the piece bounds use the power basis
    _side_each = _certified_max

    def _seg_lip(self, u, v):
        return self._power._seg_lip(u, v)


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) < 1:
            raise FunctionSpecError("sum needs at least one term")
        object.__setattr__(self, "terms", terms)

    def __call__(self, x):
        x = _arr(x)
        out = self.terms[0](x)
        for t in self.terms[1:]:
            out = out + t(x)
        return out

    def _lip_each(self, lo, hi):
        parts = [t._lip_each(lo, hi) for t in self.terms]
        with np.errstate(over="ignore"):   # inf, as the sum of floats was
            return sum(parts)

    _side_each = _certified_max

    def _seg_lip(self, u, v):
        return sum(t._seg_lip(u, v) for t in self.terms)


@dataclass(frozen=True)
class Scaled:
    factor: float
    spec: "ScalarSpec"

    def __post_init__(self):
        _check_finite("scaled", factor=self.factor)

    def __call__(self, x):
        return self.factor * self.spec(_arr(x))

    def _lip_each(self, lo, hi):
        return self._times(self.spec._lip_each(lo, hi))

    def _side_each(self, lo, hi, side):
        return self._times(self.spec._side_each(lo, hi, side))

    def _times(self, bounds):
        with np.errstate(over="ignore"):   # inf, as the product of floats was
            return abs(self.factor) * bounds

    def _seg_lip(self, u, v):
        return abs(self.factor) * self.spec._seg_lip(u, v)


ScalarSpec = Union[Constant, Affine, Polynomial, Sinusoid, LagrangeNodes, Sum, Scaled]


def identity():
    return Affine(1.0, 0.0)


# ---------------------------------------------------------------------------
# bivariate: sums of separable terms fx(x)*fy(y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableTerm:
    fx: ScalarSpec
    fy: ScalarSpec


@dataclass(frozen=True)
class BivariateSpec:
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) < 1:
            raise FunctionSpecError("bivariate spec needs at least one term")
        object.__setattr__(self, "terms", terms)

    def grid(self, xs, ys, out=None):
        """Evaluate on a tensor grid; result[iy, ix] = f(xs[ix], ys[iy]).

        The first term's outer product is the result, and the other terms
        are added into it, so an entry where every product is -0.0 stays
        -0.0 (a sum started from +0.0 would turn it into +0.0).  With
        `out`, a float64 array of shape (len(ys), len(xs)), the result is
        written there, with the same values, and returned.
        """
        xs, ys = _arr(xs), _arr(ys)
        first, *rest = self.terms
        out = np.outer(first.fy(ys), first.fx(xs), out)
        for t in rest:
            out += np.outer(t.fy(ys), t.fx(xs))
        return out


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _check_intervals(intervals):
    ends = np.array(intervals, dtype=np.float64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise FunctionSpecError(f"intervals must be (lo, hi) pairs, got shape {ends.shape}")
    lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
    bad = ~(lo < hi)
    if bad.any():
        j = int(np.argmax(bad))
        raise FunctionSpecError(
            f"interval must satisfy lo < hi, got [{float(lo[j])}, {float(hi[j])}]")
    return lo, hi


def lipschitz_bound_each(spec, intervals):
    """Certified Lipschitz bound of spec on each (lo, hi) interval, as an
    array: one bisection for all of them."""
    return spec._lip_each(*_check_intervals(intervals))


def abs_extrema_each(spec, intervals):
    """Certified (min |f|, max |f|) of spec on each (lo, hi) interval, as an
    (m, 2) array: two side runs for all of them, one per side.  A NaN min
    (from a NaN piece) clamps to 0.0."""
    lo, hi = _check_intervals(intervals)
    low = -spec._side_each(lo, hi, -1)
    return np.column_stack([np.where(low > 0.0, low, 0.0), spec._side_each(lo, hi, 1)])


def abs_max_each(spec, intervals):
    """Column 1 of `abs_extrema_each`, the certified max |f| per interval,
    with the same bits; the min side is not run."""
    return spec._side_each(*_check_intervals(intervals), 1)


def lipschitz_bound(spec, interval):
    return float(lipschitz_bound_each(spec, (interval,))[0])


def abs_extrema(spec, interval):
    return tuple(abs_extrema_each(spec, (interval,))[0].tolist())


def lagrange_from_nodes(nodes):
    """Interpolating polynomial through the nodes as a catalog spec.

    One node collapses to a Constant, two to an Affine, otherwise the
    power-basis Polynomial of degree len(nodes)-1.
    """
    spec = LagrangeNodes(tuple(nodes))
    if len(spec.nodes) == 1:
        return Constant(spec.nodes[0][1])
    if len(spec.nodes) == 2:
        (x0, y0), (x1, y1) = spec.nodes
        slope = (y1 - y0) / (x1 - x0)
        return Affine(slope, y0 - slope * x0)
    return spec._power

