"""Recurrent-IFS fractal interpolation curves.

A model bundles interpolation data, domain/region wiring, per-region
vertical scaling functions and the base/interpolant pair.  Curve points
are produced by exact forward refinement: every emitted point is the
image of attractor points under the region maps, so no convergence
tolerance is involved.  The curve is one x-sorted array pair: region i's
samples are the images of the run of samples on its source domain.
Region-endpoint samples are pinned to the exact data nodes (their map
images agree with the nodes up to rounding); this keeps interpolation
exact and makes refinement bit-stable across depths.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

import numpy as np

from . import catalog
from .catalog import ScalarSpec, abs_extrema, identity, lipschitz_bound

__all__ = [
    "ModelError",
    "InterpolationData",
    "DomainSpec",
    "RegionAssignment",
    "RifsModel",
    "AttractorSampling",
    "DepthPlan",
    "ContractionReport",
    "default_interpolant",
    "default_base",
    "derive_connectivity",
    "build_model",
    "eval_F",
    "plan_depth",
    "refine_attractor",
    "merged_curve",
    "functional_residual",
    "contraction_report",
]

NODE_TOL = 1e-9          # relative tolerance for node-value checks
GRID = 4097              # samples of a sampled enclosure and the scaling probe
SCALE_FRACTION = 1.0 / 64
POINT_LIMIT = 2 ** 26    # ~2.4 GB at the ~36 bytes a refined point costs at peak


class ModelError(ValueError):
    """Invalid model configuration."""


@dataclass(frozen=True)
class InterpolationData:
    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys):
            raise ModelError("data: x and y lists differ in length")
        if len(xs) < 3:
            raise ModelError("data: need at least 3 nodes (2 regions)")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ModelError("data: x values must be strictly increasing")
        if not all(math.isfinite(v) for v in xs + ys):
            raise ModelError("data: values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n_regions(self):
        return len(self.xs) - 1

    def region_bounds(self, i):
        return self.xs[i], self.xs[i + 1]


@dataclass(frozen=True)
class DomainSpec:
    spans: tuple  # ((start_node, end_node), ...)

    def __post_init__(self):
        spans = tuple((int(s), int(e)) for s, e in self.spans)
        if len(spans) < 1:
            raise ModelError("domains: need at least one domain")
        for k, (s, e) in enumerate(spans):
            if e - s < 2:
                raise ModelError(
                    f"domains[{k}]: must span at least 2 regions (end - start >= 2), "
                    f"got [{s}, {e}]")
            if s < 0:
                raise ModelError(f"domains[{k}]: start node {s} out of range")
        object.__setattr__(self, "spans", spans)


@dataclass(frozen=True)
class RegionAssignment:
    domain_of: tuple  # per region, 0-based domain index

    def __post_init__(self):
        object.__setattr__(self, "domain_of", tuple(int(k) for k in self.domain_of))


@dataclass(frozen=True)
class RifsModel:
    data: InterpolationData
    domains: DomainSpec
    assignment: RegionAssignment
    scaling: tuple            # per region ScalarSpec
    range_map: ScalarSpec     # applied to y inside the vertical map
    base: ScalarSpec          # matches node values at domain endpoints
    interpolant: ScalarSpec   # passes through every node
    flip: tuple               # per region bool, orientation of the x map
    connection: np.ndarray    # 0/1, row i marks regions feeding region i
    transition: np.ndarray    # row-stochastic companion matrix
    y_envelope: tuple         # (lo, hi)
    warnings: tuple = ()

    @property
    def n_regions(self):
        return self.data.n_regions

    def domain_bounds(self, i):
        s, e = self.domains.spans[self.assignment.domain_of[i]]
        return self.data.xs[s], self.data.xs[e]

    def map_ratio(self, i):
        rl, rh = self.data.region_bounds(i)
        dl, dh = self.domain_bounds(i)
        return (rh - rl) / (dh - dl)

    def map_apply(self, i, x):
        """Region i's contraction from its domain onto the region."""
        rl, rh = self.data.region_bounds(i)
        dl, _ = self.domain_bounds(i)
        c = self.map_ratio(i)
        x = np.asarray(x, dtype=np.float64)
        if self.flip[i]:
            return rh - c * (x - dl)
        return rl + c * (x - dl)

    def map_invert(self, i, x):
        rl, rh = self.data.region_bounds(i)
        dl, _ = self.domain_bounds(i)
        c = self.map_ratio(i)
        x = np.asarray(x, dtype=np.float64)
        if self.flip[i]:
            return dl + (rh - x) / c
        return dl + (x - rl) / c

    def feeders(self, i):
        """Regions whose content refines region i (a contiguous run)."""
        s, e = self.domains.spans[self.assignment.domain_of[i]]
        return range(s, e)


@dataclass(frozen=True)
class AttractorSampling:
    """Read-only x-sorted curve samples after `depth` rounds; region i holds
    samples starts[i]..starts[i + 1], sharing its ends with its neighbours."""
    depth: int
    xs: np.ndarray
    ys: np.ndarray
    starts: tuple   # n_regions + 1 offsets; starts[-1] is the last sample

    def __post_init__(self):
        self.xs.flags.writeable = self.ys.flags.writeable = False

    @property
    def regions(self):
        """Per region (xs, ys) views into the curve."""
        return tuple((self.xs[a:b + 1], self.ys[a:b + 1])
                     for a, b in zip(self.starts, self.starts[1:]))


@dataclass(frozen=True)
class DepthPlan:
    """A refinement depth and the samples it yields, known before refining."""
    depth: int
    points: tuple        # samples per region
    gaps: tuple          # largest x gap between adjacent samples, per region
    note: str | None = None

    @property
    def total(self):
        """Samples in the merged curve, shared region endpoints counted once."""
        return sum(self.points) - (len(self.points) - 1)

    @property
    def gap(self):
        return max(self.gaps)


@dataclass(frozen=True)
class ContractionReport:
    map_contraction: float     # worst |ratio| of the x maps
    scale_lipschitz: float     # worst Lipschitz constant of a scaling function
    offset_lipschitz: float    # worst Lipschitz constant of the x-only offset term
    range_abs_max: float       # max |range_map| over the y envelope
    scale_abs_max: float       # worst max |scaling| over its region
    range_lipschitz: float     # Lipschitz constant of range_map on the envelope
    weight_limit: float        # metric weights below this make every map contract
    weight_used: float
    overall_factor: float
    contractive: bool

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def default_interpolant(data):
    """Polynomial through every node."""
    return catalog.lagrange_from_nodes(list(zip(data.xs, data.ys)))


def default_base(data, domains):
    """Polynomial through the nodes used as domain endpoints.

    Distinct from the full interpolant on purpose: with base == interpolant
    the vertical map cancels and the fixed curve degenerates to the
    interpolant itself.
    """
    idx = sorted({s for s, _ in domains.spans} | {e for _, e in domains.spans})
    return catalog.lagrange_from_nodes([(data.xs[i], data.ys[i]) for i in idx])


def derive_connectivity(data, domains, assignment):
    """Connection matrix C and row-stochastic companion M.

    C[i, j] = 1 iff region j lies inside region i's source domain;
    M[i, j] = 1/a_i over the a_i regions j whose source domain contains
    region i.  Each region's source span is compared with every region
    index at once, so both are exact.
    """
    n = data.n_regions
    dom = assignment.domain_of
    if len(dom) != n:
        raise ModelError(
            f"region assignment: expected {n} entries (one per region), got {len(dom)}")
    for i, k in enumerate(dom):
        if not 0 <= k < len(domains.spans):
            raise ModelError(f"region assignment[{i}]: domain index {k} out of range")
    for k, (s, e) in enumerate(domains.spans):
        if e > n:
            raise ModelError(f"domains[{k}]: end node {e} exceeds node count")

    spans = np.array(domains.spans, dtype=np.int64)[list(dom)]
    j = np.arange(n)
    C = ((spans[:, :1] <= j) & (j + 1 <= spans[:, 1:])).astype(np.int64)
    users = C.sum(axis=0)
    if not users.all():
        raise ModelError(
            f"region {int(np.argmin(users))} is contained in no assigned domain; "
            "its content would never be used")
    return C, np.ascontiguousarray(C.T / users[:, None])


def build_model(data, domains, assignment, scaling, range_map=None,
                base=None, interpolant=None, flip=None):
    """Validate the ingredients and assemble a RifsModel.

    Endpoint identities (base/interpolant node values and the endpoint
    behaviour of the composed vertical map) are checked numerically; the
    y envelope is then sized to provably (or, for marginal scalings,
    empirically) contain the fixed curve.
    """
    if not isinstance(data, InterpolationData):
        data = InterpolationData(tuple(p[0] for p in data), tuple(p[1] for p in data))
    if not isinstance(domains, DomainSpec):
        domains = DomainSpec(tuple(domains))
    if not isinstance(assignment, RegionAssignment):
        assignment = RegionAssignment(tuple(assignment))
    n = data.n_regions
    scaling = tuple(scaling) if isinstance(scaling, (list, tuple)) else (scaling,)
    if len(scaling) == 1:
        scaling = scaling * n
    if len(scaling) != n:
        raise ModelError(f"scaling: expected 1 or {n} function specs, got {len(scaling)}")
    range_map = range_map if range_map is not None else identity()
    interpolant = interpolant if interpolant is not None else default_interpolant(data)
    base = base if base is not None else default_base(data, domains)
    flip = tuple(bool(f) for f in flip) if flip is not None else (False,) * n
    if len(flip) != n:
        raise ModelError(f"flip: expected {n} entries, got {len(flip)}")

    C, M = derive_connectivity(data, domains, assignment)

    ys = np.array(data.ys)
    spread = float(ys.max() - ys.min())
    margin = 0.5 * spread + 1.0
    envelope = (float(ys.min() - margin), float(ys.max() + margin))
    model = RifsModel(data, domains, assignment, scaling, range_map, base,
                      interpolant, flip, C, M, envelope)

    for i in range(n):
        if not abs(model.map_ratio(i)) < 1.0:
            raise ModelError(
                f"region {i}: x map ratio {model.map_ratio(i):.6g} is not a contraction "
                "(domain must be wider than the region)")

    for i, x in enumerate(data.xs):
        got = float(interpolant(np.float64(x)))
        if abs(got - data.ys[i]) > NODE_TOL * (1.0 + abs(data.ys[i])):
            raise ModelError(
                f"interpolant misses node {i}: f({x}) = {got}, expected {data.ys[i]}")
    endpoint_nodes = sorted({s for s, _ in domains.spans} | {e for _, e in domains.spans})
    for i in endpoint_nodes:
        got = float(base(np.float64(data.xs[i])))
        if abs(got - data.ys[i]) > NODE_TOL * (1.0 + abs(data.ys[i])):
            raise ModelError(
                f"base misses domain-endpoint node {i}: f({data.xs[i]}) = {got}, "
                f"expected {data.ys[i]}")

    # endpoint identity of the composed vertical map: the x map carries the
    # domain endpoints onto the region endpoints, and the vertical map must
    # carry the matching node heights along
    for i in range(n):
        s, e = domains.spans[assignment.domain_of[i]]
        pairs = [(s, i + 1), (e, i)] if flip[i] else [(s, i), (e, i + 1)]
        for node, target in pairs:
            xa, ya = data.xs[node], data.ys[node]
            expect = data.ys[target]
            got = float(_eval_region_map(model, i, np.float64(xa), np.float64(ya)))
            if abs(got - expect) > NODE_TOL * (1.0 + abs(expect)):
                raise ModelError(
                    f"region {i}: vertical map sends node {node} to {got}, "
                    f"expected {expect} (base/interpolant/range_map endpoint mismatch)")

    # only a structurally sound system reaches envelope sizing (the marginal
    # branch refines it, which diverges for broken map families)
    envelope, env_warnings = _size_envelope(model, margin)
    model = replace(model, y_envelope=envelope)
    warnings = list(env_warnings)

    # scaling bound |s| * L_a < 1, with a measure-zero allowance at isolated points
    L_a = lipschitz_bound(range_map, envelope)
    for i in range(n):
        lo, hi = data.region_bounds(i)
        s_hi = abs_extrema(scaling[i], (lo, hi))[1]
        if s_hi * L_a < 1.0:
            continue
        grid = np.linspace(lo, hi, GRID)
        frac = float(np.mean(np.abs(scaling[i](grid)) * L_a >= 1.0 - 1e-12))
        if frac > SCALE_FRACTION:
            raise ModelError(
                f"region {i}: |scaling| * range Lipschitz reaches "
                f"{s_hi * L_a:.6g} >= 1 on {frac:.1%} of the region")
        warnings.append(
            f"region {i}: |scaling| * range Lipschitz touches {s_hi * L_a:.6g} >= 1 "
            "at isolated points; contraction is marginal there")

    return replace(model, warnings=tuple(warnings))


def _sampled_range(f, lip, lo, hi):
    """Enclosure of the range of f on [lo, hi] from GRID samples, padded
    by `lip` (a Lipschitz bound of f) times half a grid step."""
    xs = np.linspace(lo, hi, GRID)
    vals = f(xs)
    slack = lip * (hi - lo) / (GRID - 1) * 0.5
    return float(vals.min()) - slack, float(vals.max()) + slack


def _size_envelope(model, margin):
    """Envelope wide enough to hold the fixed curve.

    With strict vertical contraction (max|s| * L_range < 1) the fixed
    point satisfies sup|f - interpolant| <= s_max * sup|range(interpolant)
    - base| / (1 - s_max * L_range), which gives a certified range.  In
    the marginal case (|s| touching 1) that bound is void, so the range
    of a deep refinement sample is padded instead.
    """
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
    for _ in range(2):
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
    else:
        return env, ()

    # marginal contraction: pad the range of a deep sample
    depth = max(6, plan_depth(model, max_points=200_000).depth)
    ys = refine_attractor(model, depth).ys
    if not np.all(np.isfinite(ys)):
        raise ModelError("vertical maps diverge under refinement; "
                         "|scaling| must stay below 1/L_range on the regions")
    obs_lo, obs_hi = float(ys.min()), float(ys.max())
    pad = 0.25 * (obs_hi - obs_lo) + margin
    note = (f"vertical contraction is marginal; y envelope sized from a depth-{depth} "
            "sample with 25% padding, not from a certified bound")
    return (min(base_lo, obs_lo) - pad, max(base_hi, obs_hi) + pad), (note,)


# ---------------------------------------------------------------------------
# evaluation and refinement
# ---------------------------------------------------------------------------

def _eval_region_map(model, i, x, y):
    """Vertical component for region i: s(L(x)) * (a(y) - base(x)) + interpolant(L(x))."""
    lx = model.map_apply(i, x)
    s = model.scaling[i](lx)
    return s * (model.range_map(y) - model.base(x)) + model.interpolant(lx)


def eval_F(model, i, x, y):
    """Vertical map of region i at (x, y); x must lie in the region's domain."""
    dl, dh = model.domain_bounds(i)
    xs = np.asarray(x, dtype=np.float64)
    tol = 1e-12 * max(1.0, abs(dl), abs(dh))
    if np.any(xs < dl - tol) or np.any(xs > dh + tol):
        raise ModelError(f"x outside region {i}'s domain [{dl}, {dh}]")
    out = _eval_region_map(model, i, xs, np.asarray(y, dtype=np.float64))
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def _depth_zero(model):
    xs, ys = model.data.xs, model.data.ys
    return AttractorSampling(0, np.array(xs), np.array(ys), tuple(range(len(xs))))


def _refine_step(model, sampling):
    prev = sampling.starts
    runs = [(prev[r.start], prev[r.stop]) for r in map(model.feeders, range(model.n_regions))]
    starts = tuple(accumulate((e - s for s, e in runs), initial=0))
    xs, ys = np.empty(starts[-1] + 1), np.empty(starts[-1] + 1)
    for i, (s, e) in enumerate(runs):
        ux, uy = sampling.xs[s:e + 1], sampling.ys[s:e + 1]
        step = -1 if model.flip[i] else 1
        a, b = starts[i], starts[i + 1]
        xs[a:b + 1] = model.map_apply(i, ux)[::step]
        ys[a:b + 1] = _eval_region_map(model, i, ux, uy)[::step]
        xs[a], xs[b] = model.data.region_bounds(i)
        ys[a], ys[b] = model.data.ys[i], model.data.ys[i + 1]
    return AttractorSampling(sampling.depth + 1, xs, ys, starts)


def plan_depth(model, depth=None, spacing=None, max_points=POINT_LIMIT):
    """Pick a refinement depth from the exact count and gap recursions.

    A round maps each region's feeder run through one affine x map, so
    its samples become sum(p over feeders) - (feeders - 1) and its
    largest x gap |map ratio| * max(g over feeders).  Nothing is refined.
    Without `depth` the plan stops at the first depth whose gap is at
    most `spacing`, or, with a note, once the total times the widest
    feeder run exceeds `max_points`.  Over POINT_LIMIT points is refused.
    """
    if depth is not None and depth < 0:
        raise ModelError("depth must be >= 0")
    runs = [model.feeders(i) for i in range(model.n_regions)]
    widest = max(len(r) for r in runs)
    xs = model.data.xs
    plan = DepthPlan(0, (2,) * len(runs), tuple(b - a for a, b in zip(xs, xs[1:])))
    while True:
        if plan.total > POINT_LIMIT:
            raise ModelError(
                f"depth {plan.depth if depth is None else depth} needs more than "
                f"{POINT_LIMIT} points ({plan.total} at depth {plan.depth})")
        if plan.depth == depth or (depth is None and spacing is not None
                                   and plan.gap <= spacing):
            return plan
        if depth is None and plan.total * widest > max_points:
            return replace(plan, note=(
                f"sampling budget of {max_points} points reached at depth "
                f"{plan.depth}; finest scales may be under-resolved"))
        plan = DepthPlan(
            plan.depth + 1,
            tuple(sum(plan.points[j] for j in r) - (len(r) - 1) for r in runs),
            tuple(abs(model.map_ratio(i)) * max(plan.gaps[j] for j in r)
                  for i, r in enumerate(runs)))


def refine_attractor(model, depth):
    """Exact attractor samples after `depth` refinement rounds.

    Depth 0 is the data nodes grouped by region; each round maps the
    content of every region's source domain through that region's maps.
    """
    if depth < 0:
        raise ModelError("depth must be >= 0")
    sampling = _depth_zero(model)
    for _ in range(depth):
        sampling = _refine_step(model, sampling)
    return sampling


def merged_curve(sampling):
    """Global (xs, ys) of the sampled curve: the sampling's own read-only arrays."""
    return sampling.xs, sampling.ys


def functional_residual(model, sampling):
    """Worst self-consistency defect of the sampled curve.

    Every emitted point (x, y) of region i must satisfy
    y = F_i(Linv(x), f(Linv(x))) with f the piecewise-linear interpolant
    of the global point set; the maximum |difference| is returned.
    """
    gx, gy = merged_curve(sampling)
    worst = 0.0
    for i, (xs, ys) in enumerate(sampling.regions):
        u = model.map_invert(i, xs)
        dl, dh = model.domain_bounds(i)
        if model.flip[i]:
            u[0], u[-1] = dh, dl
        else:
            u[0], u[-1] = dl, dh
        fhat = np.interp(u, gx, gy)
        r = np.abs(ys - _eval_region_map(model, i, u, fhat))
        worst = max(worst, float(r.max()))
    return worst


def _offset_lipschitz(model, i, lip_s, max_s):
    """Lipschitz bound of region i's offset term -s(L(x))*base(x) +
    interpolant(L(x)) on its domain, from the scaling's lip_s and max_s."""
    reg, dom = model.data.region_bounds(i), model.domain_bounds(i)
    c = abs(model.map_ratio(i))
    return (lip_s * c * abs_extrema(model.base, dom)[1]
            + max_s * lipschitz_bound(model.base, dom)
            + lipschitz_bound(model.interpolant, reg) * c)


def contraction_report(model):
    """Constants showing the region maps contract in a weighted metric.

    The x part contracts at map_contraction; the vertical part couples x
    and y through the scaling, range and offset terms.  With a metric
    |dx| + w*|dy| and any weight 0 < w < weight_limit the joint factor is
    max(map_contraction + w*coupling, scale_abs_max*range_lipschitz),
    which stays below 1 exactly when scale_abs_max*range_lipschitz < 1.
    """
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
        L_b = max(L_b, _offset_lipschitz(model, i, lip_s, max_s))

    coupling = c_s * c_L * a_bar + L_b
    if coupling > 0.0:
        weight_limit = (1.0 - c_L) / coupling
        weight = 0.5 * weight_limit
    else:
        weight_limit = math.inf
        weight = 1.0
    overall = max(c_L + weight * coupling, s_bar * L_a)
    return ContractionReport(
        map_contraction=c_L,
        scale_lipschitz=c_s,
        offset_lipschitz=L_b,
        range_abs_max=a_bar,
        scale_abs_max=s_bar,
        range_lipschitz=L_a,
        weight_limit=weight_limit,
        weight_used=weight,
        overall_factor=overall,
        contractive=bool(overall < 1.0),
    )
