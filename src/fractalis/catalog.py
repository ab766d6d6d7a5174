"""Closed catalog of analyzable one- and two-variable functions.

Every free function the curve/surface machinery consumes (vertical scaling
factors, the range map, base and interpolant curves, surface coefficient
functions) is described by one of the variants below instead of an opaque
callable.  That keeps two things computable that the dimension analysis
needs as *inputs*: a certified Lipschitz constant and certified bounds on
min/max of |f| over an interval.

Bounds are exact for Constant/Affine/Sinusoid (closed-form critical
points).  Polynomial/Lagrange/Sum ranges come from one bisection,
`_certified_abs_range`, over per-piece Lipschitz bounds that every
variant computes on arrays of pieces (`_seg_lip`).  A polynomial's
Lipschitz bound is its derivative's bisected max |.|; Lagrange nodes
take both bounds from their power-basis polynomial.
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
    "eval_scalar",
    "eval_bivariate",
    "lipschitz_bound",
    "abs_extrema",
    "lagrange_from_nodes",
    "scalar_to_json",
    "scalar_from_json",
    "bivariate_to_json",
    "bivariate_from_json",
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


def _certified_abs_range(spec, lo, hi):
    """Certified (min |f|, max |f|) of a catalog spec over [lo, hi].

    ``spec._seg_lip(u, v)`` bounds f's Lipschitz constant on each piece
    [u, v] (arrays of piece ends), so a piece encloses f within f(mid) +-
    L*(width/2).  Each round evaluates spec and its bounds once, on all
    new pieces.  Pieces that could still move the global bounds are
    bisected until the enclosure gap is below REFINE_GAP or their width
    below REFINE_WIDTH, up to MAX_PIECES.  The bounds are outward.
    """
    edges = np.linspace(lo, hi, 9)
    u, v = edges[:-1], edges[1:]
    fmid = _arr(spec(0.5 * (u + v)))
    rad = spec._seg_lip(u, v) * (v - u) * 0.5
    ends = np.abs(_arr(spec(np.array([lo, hi]))))

    for _ in range(64):
        top, bot = _abs_enclosure(fmid, rad)
        abs_mid = np.abs(fmid)
        best_max = max(float(ends.max()), float(abs_mid.max()))
        best_min = min(float(ends.min()), float(abs_mid.min()))
        if top.max() - best_max <= REFINE_GAP and best_min - bot.min() <= REFINE_GAP:
            break
        cand = ((v - u) > REFINE_WIDTH) & ((top > best_max + REFINE_GAP)
                                           | (bot < best_min - REFINE_GAP))
        n_new = int(cand.sum())
        if n_new == 0 or u.size + n_new > MAX_PIECES:
            break
        cu, cv = u[cand], v[cand]
        cm = 0.5 * (cu + cv)
        nu, nv = np.concatenate([cu, cm]), np.concatenate([cm, cv])
        keep = ~cand
        u = np.concatenate([u[keep], nu])
        v = np.concatenate([v[keep], nv])
        fmid = np.concatenate([fmid[keep], _arr(spec(0.5 * (nu + nv)))])
        rad = np.concatenate([rad[keep], spec._seg_lip(nu, nv) * (nv - nu) * 0.5])

    top, bot = _abs_enclosure(fmid, rad)
    return max(0.0, float(bot.min())), float(top.max())


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
    r = np.zeros_like(x)
    for c in reversed(coeffs):
        r = r * x + c
    return r


# ---------------------------------------------------------------------------
# scalar variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, x):
        return np.full(np.shape(_arr(x)), float(self.value))

    def lipschitz_bound(self, lo, hi):
        return 0.0

    def abs_extrema(self, lo, hi):
        v = abs(float(self.value))
        return v, v

    def _seg_lip(self, u, v):
        return 0.0


@dataclass(frozen=True)
class Affine:
    slope: float
    intercept: float

    def __call__(self, x):
        return self.slope * _arr(x) + self.intercept

    def lipschitz_bound(self, lo, hi):
        return abs(float(self.slope))

    def abs_extrema(self, lo, hi):
        a, b = float(self.slope), float(self.intercept)
        vals = [abs(a * lo + b), abs(a * hi + b)]
        if a != 0.0:
            root = -b / a
            if lo < root < hi:
                vals.append(0.0)
        return min(vals), max(vals)

    def _seg_lip(self, u, v):
        return abs(float(self.slope))


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple  # ascending powers

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 1:
            raise FunctionSpecError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise FunctionSpecError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        return _horner(self.coefficients, _arr(x))

    @cached_property
    def _derivative(self):
        c = self.coefficients
        return Polynomial(tuple(k * c[k] for k in range(1, len(c))) or (0.0,))

    def lipschitz_bound(self, lo, hi):
        return _certified_abs_range(self._derivative, lo, hi)[1]

    def abs_extrema(self, lo, hi):
        return _certified_abs_range(self, lo, hi)

    def _seg_lip(self, u, v):
        return _poly_lip_coeff(self.coefficients, u, v)


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    omega: float
    phase: float
    wave: str  # "cos" or "sin"

    def __post_init__(self):
        if self.wave not in ("cos", "sin"):
            raise FunctionSpecError(f"sinusoid wave must be 'cos' or 'sin', got {self.wave!r}")

    def __call__(self, x):
        u = self.omega * _arr(x) + self.phase
        f = np.cos if self.wave == "cos" else np.sin
        return self.amplitude * f(u)

    def lipschitz_bound(self, lo, hi):
        # derivative of A*cos is -A*w*sin, of A*sin is A*w*cos
        dual = "sin" if self.wave == "cos" else "cos"
        return _trig_abs_range(self.amplitude * self.omega, self.omega,
                               self.phase, dual, lo, hi)[1]

    def abs_extrema(self, lo, hi):
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
        return Polynomial(tuple(np.linalg.solve(vander, ys)))

    def __call__(self, x):
        x = _arr(x)
        num = np.zeros(np.shape(x))
        den = np.zeros(np.shape(x))
        hit = np.zeros(np.shape(x), dtype=bool)
        exact = np.zeros(np.shape(x))
        for (xj, yj), wj in zip(self.nodes, self._weights):
            d = x - xj
            h = d == 0.0
            if np.any(h):
                hit = hit | h
                exact = np.where(h, yj, exact)
                d = np.where(h, 1.0, d)
            c = wj / d
            num = num + c * yj
            den = den + c
        with np.errstate(invalid="ignore", divide="ignore"):
            interp = num / den
        return np.where(hit, exact, interp)

    def lipschitz_bound(self, lo, hi):
        return self._power.lipschitz_bound(lo, hi)

    def abs_extrema(self, lo, hi):
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

    def lipschitz_bound(self, lo, hi):
        return sum(t.lipschitz_bound(lo, hi) for t in self.terms)

    def abs_extrema(self, lo, hi):
        return _certified_abs_range(self, lo, hi)

    def _seg_lip(self, u, v):
        return sum(t._seg_lip(u, v) for t in self.terms)


@dataclass(frozen=True)
class Scaled:
    factor: float
    spec: "ScalarSpec"

    def __call__(self, x):
        return self.factor * self.spec(_arr(x))

    def lipschitz_bound(self, lo, hi):
        return abs(self.factor) * self.spec.lipschitz_bound(lo, hi)

    def abs_extrema(self, lo, hi):
        mn, mx = self.spec.abs_extrema(lo, hi)
        f = abs(self.factor)
        return f * mn, f * mx

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

    def value(self, x, y):
        x, y = _arr(x), _arr(y)
        out = self.terms[0].fx(x) * self.terms[0].fy(y)
        for t in self.terms[1:]:
            out = out + t.fx(x) * t.fy(y)
        return out

    def grid(self, xs, ys):
        """Evaluate on a tensor grid; result[iy, ix] = f(xs[ix], ys[iy])."""
        xs, ys = _arr(xs), _arr(ys)
        out = np.zeros((ys.size, xs.size))
        for t in self.terms:
            out += np.outer(t.fy(ys), t.fx(xs))
        return out


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def eval_scalar(spec, x):
    out = spec(_arr(x))
    return float(out) if np.ndim(x) == 0 else out


def eval_bivariate(spec, x, y):
    out = spec.value(x, y)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def _check_interval(interval):
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise FunctionSpecError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
    return lo, hi


def lipschitz_bound(spec, interval):
    lo, hi = _check_interval(interval)
    return float(spec.lipschitz_bound(lo, hi))


def abs_extrema(spec, interval):
    lo, hi = _check_interval(interval)
    mn, mx = spec.abs_extrema(lo, hi)
    return float(mn), float(mx)


def lagrange_from_nodes(nodes):
    """Interpolating polynomial through the nodes as a catalog spec.

    One node collapses to a Constant, two to an Affine, otherwise the
    power-basis Polynomial of degree len(nodes)-1.
    """
    nodes = [(float(x), float(y)) for x, y in nodes]
    if len(nodes) < 1:
        raise FunctionSpecError("need at least one node")
    xs = [x for x, _ in nodes]
    if len(set(xs)) != len(xs):
        raise FunctionSpecError("interpolation nodes must have distinct x values")
    if len(nodes) == 1:
        return Constant(nodes[0][1])
    if len(nodes) == 2:
        (x0, y0), (x1, y1) = nodes
        slope = (y1 - y0) / (x1 - x0)
        return Affine(slope, y0 - slope * x0)
    return LagrangeNodes(tuple(nodes))._power


# ---------------------------------------------------------------------------
# JSON codec (tagged variants)
# ---------------------------------------------------------------------------

def scalar_to_json(spec):
    if isinstance(spec, Constant):
        return {"kind": "constant", "value": spec.value}
    if isinstance(spec, Affine):
        return {"kind": "affine", "slope": spec.slope, "intercept": spec.intercept}
    if isinstance(spec, Polynomial):
        return {"kind": "polynomial", "coefficients": list(spec.coefficients)}
    if isinstance(spec, Sinusoid):
        return {"kind": "sinusoid", "amplitude": spec.amplitude,
                "omega": spec.omega, "phase": spec.phase, "wave": spec.wave}
    if isinstance(spec, LagrangeNodes):
        return {"kind": "lagrange", "nodes": [[x, y] for x, y in spec.nodes]}
    if isinstance(spec, Sum):
        return {"kind": "sum", "terms": [scalar_to_json(t) for t in spec.terms]}
    if isinstance(spec, Scaled):
        return {"kind": "scaled", "factor": spec.factor,
                "spec": scalar_to_json(spec.spec)}
    raise FunctionSpecError(f"not a scalar spec: {type(spec).__name__}")


def scalar_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FunctionSpecError(f"function spec must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(float(obj["value"]))
        if kind == "affine":
            return Affine(float(obj["slope"]), float(obj["intercept"]))
        if kind == "polynomial":
            return Polynomial(tuple(obj["coefficients"]))
        if kind == "sinusoid":
            return Sinusoid(float(obj["amplitude"]), float(obj["omega"]),
                            float(obj.get("phase", 0.0)), obj.get("wave", "cos"))
        if kind == "lagrange":
            return LagrangeNodes(tuple((x, y) for x, y in obj["nodes"]))
        if kind == "sum":
            return Sum(tuple(scalar_from_json(t) for t in obj["terms"]))
        if kind == "scaled":
            return Scaled(float(obj["factor"]), scalar_from_json(obj["spec"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FunctionSpecError):
            raise
        raise FunctionSpecError(f"bad {kind!r} spec: {exc}") from exc
    raise FunctionSpecError(f"unknown function kind {kind!r}")


def bivariate_to_json(spec):
    return {"terms": [{"fx": scalar_to_json(t.fx), "fy": scalar_to_json(t.fy)}
                      for t in spec.terms]}


def bivariate_from_json(obj):
    if isinstance(obj, dict) and "of_x" in obj:
        return BivariateSpec((SeparableTerm(scalar_from_json(obj["of_x"]), Constant(1.0)),))
    if isinstance(obj, dict) and "of_y" in obj:
        return BivariateSpec((SeparableTerm(Constant(1.0), scalar_from_json(obj["of_y"])),))
    if not isinstance(obj, dict) or "terms" not in obj:
        raise FunctionSpecError("bivariate spec needs 'terms' (or 'of_x'/'of_y')")
    terms = tuple(SeparableTerm(scalar_from_json(t["fx"]), scalar_from_json(t["fy"]))
                  for t in obj["terms"])
    return BivariateSpec(terms)
