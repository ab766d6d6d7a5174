"""Closed catalog of analyzable one- and two-variable functions.

Every free function the curve/surface machinery consumes (vertical scaling
factors, the range map, base and interpolant curves, surface coefficient
functions) is described by one of the variants below instead of an opaque
callable.  That keeps two things computable that the dimension analysis
needs as *inputs*: a certified Lipschitz constant and certified bounds on
min/max of |f| over an interval.  Every variant's numbers must be finite
(`_check_finite`, called by each constructor).  `config` reads their JSON form.

Both bounds are certified on many intervals at once
(`lipschitz_bound_each`, `abs_extrema_each`); `lipschitz_bound` and
`abs_extrema` are their one-interval calls.  Bounds are exact for
Constant/Affine/Sinusoid (closed-form critical points, per interval).
Polynomial/Lagrange/Sum ranges come from one bisection,
`_certified_abs_range`, which refines the pieces of all intervals
together, over per-piece Lipschitz bounds that every variant computes on
arrays of pieces (`_seg_lip`).  A polynomial's Lipschitz bound is its
derivative's bisected max |.|; Lagrange nodes take both bounds from their
power-basis polynomial.
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

def _abs_enclosure(fmid, rad):
    """Per piece, an upper bound on max |f| and a lower bound on min |f|."""
    enc_lo, enc_hi = fmid - rad, fmid + rad
    top = np.maximum(np.abs(enc_lo), np.abs(enc_hi))
    bot = np.where((enc_lo <= 0.0) & (0.0 <= enc_hi), 0.0,
                   np.minimum(np.abs(enc_lo), np.abs(enc_hi)))
    return top, bot


def _per_interval(ufunc, init, owner, values):
    """ufunc-reduce each piece's value into its interval's slot of a copy of init."""
    out = np.array(init, dtype=np.float64)
    ufunc.at(out, owner, values)
    return out


def _certified_abs_range(spec, lo, hi):
    """Certified (min |f|, max |f|) of a catalog spec over each interval
    [lo[j], hi[j]], as an (m, 2) array; `lo` and `hi` are arrays of ends.

    Each interval starts as the 8 pieces np.linspace(lo, hi, 9) cuts, and
    every piece carries its interval's index.  ``spec._seg_lip(u, v)``
    bounds f's Lipschitz constant on each piece [u, v] (arrays of piece
    ends), so a piece encloses f within f(mid) +- L*(width/2).  Each round
    evaluates spec and its bounds once, on all new pieces of all
    intervals.  Best values, enclosure gaps and stop conditions are
    reduced per interval: an interval's pieces that could still move its
    bounds are bisected until its gap is at most REFINE_GAP or their width
    below REFINE_WIDTH.  An interval leaves the loop when its gap closes,
    when it has no candidates, when splitting would take its own pieces
    past MAX_PIECES, or after 64 rounds: the outward bounds of its pieces
    at that point go to its row, and its pieces are dropped.  Pieces never
    meet across intervals, so each interval's result is the one a call on
    that interval alone returns; the m intervals may hold up to
    m * MAX_PIECES pieces between them.
    """
    lo, hi = _arr(lo), _arr(hi)
    m = lo.size
    out = np.empty((m, 2))
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
    ends = np.abs(_arr(spec(np.concatenate([lo, hi])))).reshape(2, m)
    ends_max, ends_min = ends.max(axis=0), ends.min(axis=0)
    live, counts = np.ones(m, dtype=bool), np.full(m, 8)

    def bounds():
        top, bot = _abs_enclosure(fmid, rad)
        return (top, bot, _per_interval(np.maximum, np.full(m, -np.inf), owner, top),
                _per_interval(np.minimum, np.full(m, np.inf), owner, bot))

    def record(done, top_max, bot_min):
        out[done, 0] = np.where(bot_min[done] > 0.0, bot_min[done], 0.0)
        out[done, 1] = top_max[done]

    for _ in range(64):
        top, bot, top_max, bot_min = bounds()
        abs_mid = np.abs(fmid)
        best_max = _per_interval(np.maximum, ends_max, owner, abs_mid)
        best_min = _per_interval(np.minimum, ends_min, owner, abs_mid)
        done = (top_max - best_max <= REFINE_GAP) & (best_min - bot_min <= REFINE_GAP)
        cand = ((v - u) > REFINE_WIDTH) & ((top > best_max[owner] + REFINE_GAP)
                                           | (bot < best_min[owner] - REFINE_GAP))
        n_new = np.bincount(owner[cand], minlength=m)
        done = live & (done | (n_new == 0) | (counts + n_new > MAX_PIECES))
        if done.any():
            record(done, top_max, bot_min)
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

    _, _, top_max, bot_min = bounds()
    record(live, top_max, bot_min)
    return out


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
# Every variant bounds itself on arrays of intervals: `_lip_each(lo, hi)`
# gives one Lipschitz bound per interval, `_range_each(lo, hi)` one
# (min |f|, max |f|) row per interval.
# ---------------------------------------------------------------------------

class _ClosedForm:
    """Bounds from the closed forms `_lip(lo, hi)` and `_range(lo, hi)`,
    one interval at a time in scalar `math` (np.cos may differ from
    math.cos by an ulp).  `_seg_lip` is `_lip`, which holds where `_lip`
    does not read its interval; `Sinusoid` gives a global bound instead."""

    def _seg_lip(self, u, v):
        return self._lip(u, v)

    def _lip_each(self, lo, hi):
        return np.array([self._lip(a, b) for a, b in zip(lo.tolist(), hi.tolist())])

    def _range_each(self, lo, hi):
        rows = [self._range(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        return np.array(rows, dtype=np.float64).reshape(-1, 2)


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
        return _certified_abs_range(self._derivative, lo, hi)[:, 1]

    def _range_each(self, lo, hi):
        return _certified_abs_range(self, lo, hi)

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
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def _weights(self):
        xs = [x for x, _ in self.nodes]
        w = []
        for j, xj in enumerate(xs):
            p = 1.0
            for k, xk in enumerate(xs):
                if k != j:
                    p *= xj - xk
            w.append(1.0 / p)
        return tuple(w)

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

    def __call__(self, x):
        x = _arr(x)
        num = np.zeros(np.shape(x))
        den = np.zeros(np.shape(x))
        hit = np.zeros(np.shape(x), dtype=bool)
        exact = np.zeros(np.shape(x))
        for (xj, yj), wj in zip(self.nodes, self._weights):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                c = wj / (x - xj)
                cy = c * yj
            # an exact hit, or x so near xj that the other terms vanish beside it
            h = np.isinf(c) | np.isinf(cy)
            hit = hit | h
            exact = np.where(h, yj, exact)
            num = num + np.where(h, 0.0, cy)
            den = den + np.where(h, 0.0, c)
        with np.errstate(invalid="ignore", divide="ignore"):
            interp = num / den
        return np.where(hit, exact, interp)

    def _lip_each(self, lo, hi):
        return self._power._lip_each(lo, hi)

    def _range_each(self, lo, hi):
        # barycentric values; only the piece bounds use the power basis
        return _certified_abs_range(self, lo, hi)

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

    def _range_each(self, lo, hi):
        return _certified_abs_range(self, lo, hi)

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

    def _range_each(self, lo, hi):
        return self._times(self.spec._range_each(lo, hi))

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
    (m, 2) array: one bisection for all of them."""
    return spec._range_each(*_check_intervals(intervals))


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

