"""Recurrent-IFS fractal interpolation curves.

A model bundles interpolation data, domain/region wiring, per-region
vertical scaling functions and the base/interpolant pair; `build_model`
builds it from plain values and `derive_connectivity` checks the wiring.
Curve points are produced by exact forward refinement: every emitted
point is the image of attractor points under the region maps, so no
convergence tolerance is involved.  The curve is one x-sorted array
pair: region i's samples are the images of the run of samples on its
source domain.  Region-endpoint samples are pinned to the exact data
nodes (their map images agree with the nodes up to rounding); this keeps
interpolation exact and makes refinement bit-stable across depths.

A refinement round consumes the level it refines.  It writes the
region-independent part of the vertical map over the old heights, once
per old sample, then walks the new curve output-major twice, in
cache-sized blocks on up to one joined thread per usable CPU: the first
walk writes each region's x images of its feeder samples into its part
of a block, after which the old x column is released; the second fills
the new heights from those x values, the interpolant added once per
block.  `refine_slabs` runs a round over any ranges of the new level
instead: the detail goes into an array of its own, and each range, a
slab, is written into one reused pair of buffers, so the level is never
held whole.

Each region's |scaling| range is certified once (`RifsModel.scale_range`)
and every Lipschitz bound the reports use comes from `lipschitz_bounds`.
Both certify each spec over all of its intervals in one batched call
(`catalog.abs_extrema_each`, `catalog.lipschitz_bound_each`); the base's
max |b| per domain span takes the max side alone (`catalog.abs_max_each`).
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, count

import numpy as np

from . import catalog, shares
from .catalog import (ScalarSpec, abs_extrema, abs_extrema_each, abs_max_each, identity,
                      lipschitz_bound, lipschitz_bound_each)

__all__ = [
    "ModelError",
    "check_size",
    "InterpolationData",
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
    "resolves",
    "refine_attractor",
    "refine_slabs",
    "merged_curve",
    "functional_residual",
    "lipschitz_bounds",
    "contraction_report",
]

NODE_TOL = 1e-9          # relative tolerance for node-value checks
GRID = 4097              # samples of a sampled enclosure and the scaling probe
SCALE_FRACTION = 1.0 / 64
POINT_LIMIT = 2 ** 26    # ~1.4 GB at the ~20.5 bytes a refined point costs at peak
SAMPLES_PER_SCALE = 4    # a planned mesh width delta holds at least 4 x gaps
DEFAULT_DEPTH = 8        # the depth planned when neither a depth nor a mesh width is given
ENVELOPE_ROUNDS = 64     # rounds of the certified y-envelope iteration before it gives up


class ModelError(ValueError):
    """Invalid model configuration."""


def check_size(name, value, least, error=ModelError):
    """Depth or resolution `value`: an Integral, not a bool, >= least; else `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}")
    return int(value)


@dataclass(frozen=True)
class InterpolationData:
    xs: tuple
    ys: tuple

    def __post_init__(self):
        for what, values in (("x", self.xs), ("y", self.ys)):
            for i, v in enumerate(values):
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ModelError(f"data[{i}]: {what} must be a number, got {v!r}")
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
class RifsModel:
    data: InterpolationData
    domains: tuple            # ((start_node, end_node), ...) int pairs
    domain_of: tuple          # per region, 0-based int index into domains
    scaling: tuple            # per region ScalarSpec
    range_map: ScalarSpec     # applied to y inside the vertical map
    base: ScalarSpec          # matches node values at domain endpoints
    interpolant: ScalarSpec   # passes through every node
    flip: tuple               # per region bool, orientation of the x map
    connection: np.ndarray    # 0/1, row i marks regions feeding region i
    scale_range: np.ndarray   # read-only (n, 2): certified min/max |scaling| per region
    y_envelope: tuple         # (lo, hi)
    warnings: tuple = ()

    @property
    def n_regions(self):
        return self.data.n_regions

    def domain_bounds(self, i):
        s, e = self.domains[self.domain_of[i]]
        return self.data.xs[s], self.data.xs[e]

    def map_ratio(self, i):
        rl, rh = self.data.region_bounds(i)
        dl, dh = self.domain_bounds(i)
        return (rh - rl) / (dh - dl)

    def map_apply(self, i, x, out=None):
        """Region i's contraction from its domain onto the region, written
        into `out` when given."""
        rl, rh = self.data.region_bounds(i)
        dl, _ = self.domain_bounds(i)
        c = self.map_ratio(i)
        t = np.multiply(c, np.subtract(np.asarray(x, dtype=np.float64), dl, out=out), out=out)
        return np.subtract(rh, t, out=out) if self.flip[i] else np.add(rl, t, out=out)

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
        s, e = self.domains[self.domain_of[i]]
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


def resolves(gap, delta):
    """SAMPLES_PER_SCALE * gap <= delta, with 1e-9 relative slack so rounding ties count."""
    return SAMPLES_PER_SCALE * gap <= delta * (1.0 + 1e-9)


@dataclass(frozen=True)
class DepthPlan:
    """A refinement depth and the samples it yields, known before refining."""
    depth: int
    points: tuple        # samples per region
    gaps: tuple          # largest x gap between adjacent samples, per region

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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def default_interpolant(data):
    """Polynomial through every node."""
    return catalog.lagrange_from_nodes(list(zip(data.xs, data.ys)))


def _endpoint_nodes(domains):
    """Sorted indices of the nodes that start or end a domain."""
    return sorted({node for span in domains for node in span})


def _misses(got, want):
    """True unless `got` is within NODE_TOL of the node value `want` (NaN misses)."""
    return not abs(got - want) <= NODE_TOL * (1.0 + abs(want))


def default_base(data, domains):
    """Polynomial through the nodes used as domain endpoints.

    Distinct from the full interpolant on purpose: with base == interpolant
    the vertical map cancels and the fixed curve degenerates to the
    interpolant itself.
    """
    return catalog.lagrange_from_nodes(
        [(data.xs[i], data.ys[i]) for i in _endpoint_nodes(domains)])


def derive_connectivity(data, domains, domain_of):
    """Check every wiring rule, unused domains too; return the connection matrix C.

    C[i, j] = 1 iff region j lies inside region i's source domain.  Each
    region's source span is compared with every region index at once.
    """
    n = data.n_regions
    if len(domains) < 1:
        raise ModelError("domains: need at least one domain")
    for k, span in enumerate(domains):
        if len(span) != 2 or any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
                                 for v in span):
            raise ModelError(
                f"domains[{k}]: expected a pair of integer node indices, got {span!r}")
        s, e = span
        if e - s < 2:
            raise ModelError(
                f"domains[{k}]: must span at least 2 regions (end - start >= 2), "
                f"got [{s}, {e}]")
        if s < 0:
            raise ModelError(f"domains[{k}]: start node {s} out of range")
    if len(domain_of) != n:
        raise ModelError(
            f"region assignment: expected {n} entries (one per region), got {len(domain_of)}")
    for i, k in enumerate(domain_of):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ModelError(
                f"region assignment[{i}]: expected an integer domain index, got {k!r}")
        if not 0 <= k < len(domains):
            raise ModelError(f"region assignment[{i}]: domain index {k} out of range")
    for k, (s, e) in enumerate(domains):
        if e > n:
            raise ModelError(f"domains[{k}]: end node {e} exceeds node count")

    spans = np.array(domains, dtype=np.int64)[list(domain_of)]
    j = np.arange(n)
    C = ((spans[:, :1] <= j) & (j + 1 <= spans[:, 1:])).astype(np.int64)
    users = C.sum(axis=0)
    if not users.all():
        raise ModelError(
            f"region {int(np.argmin(users))} is contained in no assigned domain; "
            "its content would never be used")
    return C


def build_model(data, domains, domain_of, scaling, range_map=None,
                base=None, interpolant=None, flip=None):
    """Validate the ingredients and assemble a RifsModel.

    `data` holds (x, y) pairs, `domains` integer (start_node, end_node)
    pairs, `domain_of` a domain index per region and `flip` a bool per
    region.  The wiring is checked first, by `derive_connectivity`; each
    region's |scaling| range is certified once, into the read-only
    `scale_range`.  Endpoint identities (base/interpolant node values, the
    endpoint behaviour of the composed vertical map) are checked
    numerically; the y envelope is then sized to contain the fixed curve,
    provably or, with a note, empirically (`_size_envelope`).  The scaling
    bound |s| * L_range < 1 is checked before the vertical maps are
    evaluated when the range map is affine (L_range is then its slope),
    and after sizing otherwise (L_range is certified on the envelope).
    """
    data = InterpolationData(tuple(p[0] for p in data), tuple(p[1] for p in data))
    C = derive_connectivity(data, domains, domain_of)
    domains = tuple((int(s), int(e)) for s, e in domains)
    domain_of = tuple(int(k) for k in domain_of)
    n = data.n_regions
    scaling = tuple(scaling) if isinstance(scaling, (list, tuple)) else (scaling,)
    if len(scaling) == 1:
        scaling = scaling * n
    if len(scaling) != n:
        raise ModelError(f"scaling: expected 1 or {n} function specs, got {len(scaling)}")
    flip = tuple(flip) if flip is not None else (False,) * n
    if len(flip) != n:
        raise ModelError(f"flip: expected {n} entries, got {len(flip)}")
    for i, f in enumerate(flip):
        if not isinstance(f, (bool, np.bool_)):
            raise ModelError(f"flip[{i}]: expected a boolean, got {f!r}")

    range_map = range_map if range_map is not None else identity()
    interpolant = interpolant if interpolant is not None else default_interpolant(data)
    base = base if base is not None else default_base(data, domains)
    scale_range = _each_spec(abs_extrema_each, scaling, _region_intervals(data))
    scale_range.flags.writeable = False

    ys = np.array(data.ys)
    spread = float(ys.max() - ys.min())
    margin = 0.5 * spread + 1.0
    envelope = (float(ys.min() - margin), float(ys.max() + margin))
    model = RifsModel(data, domains, domain_of, scaling, range_map, base,
                      interpolant, flip, C, scale_range, envelope)

    for i in range(n):
        if not abs(model.map_ratio(i)) < 1.0:
            raise ModelError(
                f"region {i}: x map ratio {model.map_ratio(i):.6g} is not a contraction "
                "(domain must be wider than the region)")

    for f, nodes, what in ((interpolant, range(n + 1), "interpolant misses node"),
                           (base, _endpoint_nodes(domains), "base misses domain-endpoint node")):
        for i in nodes:
            got = float(f(np.float64(data.xs[i])))
            if _misses(got, data.ys[i]):
                raise ModelError(f"{what} {i}: f({data.xs[i]}) = {got}, expected {data.ys[i]}")

    # an affine range map's Lipschitz bound does not depend on the envelope,
    # so the scaling bound runs first: a diverging system is refused before
    # its maps are evaluated or refined
    scale_notes = None
    if isinstance(range_map, catalog.Affine):
        scale_notes = _check_scaling(model, lipschitz_bound(range_map, envelope))

    # endpoint identity of the composed vertical map: the x map carries the
    # domain endpoints onto the region endpoints, and the vertical map must
    # carry the matching node heights along
    for i in range(n):
        s, e = domains[domain_of[i]]
        pairs = [(s, i + 1), (e, i)] if flip[i] else [(s, i), (e, i + 1)]
        for node, target in pairs:
            xa, ya = data.xs[node], data.ys[node]
            expect = data.ys[target]
            got = float(_eval_region_map(model, i, np.float64(xa), np.float64(ya)))
            if _misses(got, expect):
                raise ModelError(
                    f"region {i}: vertical map sends node {node} to {got}, "
                    f"expected {expect} (base/interpolant/range_map endpoint mismatch)")

    # only a structurally sound system reaches envelope sizing (the sampled
    # branch refines it, which diverges for broken map families)
    envelope, env_warnings = _size_envelope(model, margin)
    model = replace(model, y_envelope=envelope)
    if scale_notes is None:
        scale_notes = _check_scaling(model, lipschitz_bound(range_map, envelope))
    return replace(model, warnings=tuple(env_warnings) + tuple(scale_notes))


def _region_intervals(data):
    return np.array([data.region_bounds(i) for i in range(data.n_regions)])


def _each_spec(certify, specs, intervals):
    """certify(spec, intervals) for per-region specs: one call per distinct
    spec object, over the intervals of the regions that use it."""
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec), (spec, []))[1].append(i)
    out = None
    for spec, idx in groups.values():
        got = certify(spec, intervals[idx])
        if out is None:
            out = np.empty((len(specs),) + got.shape[1:])
        out[idx] = got
    return out


def _check_scaling(model, L_a):
    """Scaling bound |s| * L_a < 1, with a measure-zero allowance at
    isolated points; returns the notes for regions that touch 1."""
    notes = []
    for i, s_hi in enumerate(model.scale_range[:, 1].tolist()):
        if s_hi * L_a < 1.0:
            continue
        grid = np.linspace(*model.data.region_bounds(i), GRID)
        with np.errstate(over="ignore"):   # an overflowing |s| counts as >= 1
            frac = float(np.mean(np.abs(model.scaling[i](grid)) * L_a >= 1.0 - 1e-12))
        if frac > SCALE_FRACTION:
            raise ModelError(
                f"region {i}: |scaling| * range Lipschitz reaches "
                f"{s_hi * L_a:.6g} >= 1 on {frac:.1%} of the region")
        notes.append(
            f"region {i}: |scaling| * range Lipschitz touches {s_hi * L_a:.6g} >= 1 "
            "at isolated points; contraction is marginal there")
    return notes


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
    - base| / (1 - s_max * L_range), L_range taken on the envelope; that
    bound is iterated until it lies inside the envelope it came from,
    which certifies it.  Where s_max * L_range >= 1 on the first envelope
    (marginal), or the iteration has not settled when it reaches 1 or
    ENVELOPE_ROUNDS rounds, the range of a deep refinement sample is
    padded instead, with a note giving the reason.
    """
    data = model.data
    lo, hi = data.xs[0], data.xs[-1]
    lip_h = lipschitz_bound(model.interpolant, (lo, hi))
    lip_b = lipschitz_bound(model.base, (lo, hi))
    h_lo, h_hi = _sampled_range(model.interpolant, lip_h, lo, hi)
    base_lo = min(h_lo, min(data.ys))
    base_hi = max(h_hi, max(data.ys))
    s_max = float(model.scale_range[:, 1].max())

    env = (base_lo - margin, base_hi + margin)
    reason = "vertical contraction is marginal"
    for k in range(ENVELOPE_ROUNDS):
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

    # no certified bound: pad the range of a deep sample, the first at
    # depth >= 6 whose points times the widest feeder run pass 200_000
    widest = max(len(model.feeders(i)) for i in range(model.n_regions))
    depth = next(d for d in count(6) if plan_depth(model, d).total * widest > 200_000)
    ys = refine_attractor(model, depth).ys
    if not np.all(np.isfinite(ys)):
        raise ModelError("vertical maps diverge under refinement; "
                         "|scaling| must stay below 1/L_range on the regions")
    obs_lo, obs_hi = float(ys.min()), float(ys.max())
    pad = 0.25 * (obs_hi - obs_lo) + margin
    note = (f"{reason}; y envelope sized from a depth-{depth} "
            "sample with 25% padding, not from a certified bound")
    return (min(base_lo, obs_lo) - pad, max(base_hi, obs_hi) + pad), (note,)


# ---------------------------------------------------------------------------
# evaluation and refinement
# ---------------------------------------------------------------------------

def _detail(model, x, y, out=None):
    """The part of every vertical map on a domain that does not depend on
    the region: range_map(y) - base(x), written into `out` when given."""
    return np.subtract(model.range_map(y), model.base(x), out=out)


def _eval_region_map(model, i, x, y):
    """Vertical component for region i: s(L(x)) * (a(y) - base(x)) + interpolant(L(x))."""
    lx = model.map_apply(i, x)
    out = model.scaling[i](lx) * _detail(model, x, y)
    out += model.interpolant(lx)
    return out


def eval_F(model, i, x, y):
    """Vertical map of region i at (x, y); x must lie in the region's domain."""
    dl, dh = model.domain_bounds(i)
    xs = np.asarray(x, dtype=np.float64)
    tol = 1e-12 * max(1.0, abs(dl), abs(dh))
    if np.any(xs < dl - tol) or np.any(xs > dh + tol):
        raise ModelError(f"x outside region {i}'s domain [{dl}, {dh}]")
    out = _eval_region_map(model, i, xs, np.asarray(y, dtype=np.float64))
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


class _Round:
    """One refinement round on a level (xs, ys, starts): the samples of any
    range of the new level, written into buffers the caller gives.

    Construction writes `_detail` once per old sample into `detail`, which
    may be `ys` itself.  `xs_into(lo, out)` then writes new samples lo ..
    lo + out.size - 1 of the x column: each region that overlaps writes
    the x images of its feeder samples into its part of `out`, in reverse
    for a flipped region.  `ys_into(lo, xs, out)` writes the same samples'
    heights from those x values: scaling_i(x) * detail for each region,
    then the interpolant added once per block.  Region ends are pinned to
    the nodes.  Each write walks `out` in blocks (`shares.run_blocks`,
    width 1: about BLOCK_BYTES of samples a block, on up to one joined
    thread per usable CPU).  Every operation is elementwise, so the bytes
    do not depend on the ranges, the blocks or the CPU count.
    """

    def __init__(self, model, xs, ys, starts, detail):
        self.model, self.old_x, self.detail = model, xs, detail
        self.runs = [(starts[r.start], starts[r.stop])
                     for r in map(model.feeders, range(model.n_regions))]
        self.starts = tuple(accumulate((e - s for s, e in self.runs), initial=0))
        self.size = self.starts[-1] + 1
        shares.run_blocks(ys.size, 1, lambda lo, hi, _: _detail(
            model, xs[lo:hi], ys[lo:hi], out=detail[lo:hi]))

    def _parts(self, lo, hi, base):
        """Per region that overlaps new samples [lo, hi): (i, its samples
        there as a slice of a buffer holding sample `base` at 0, the step
        -1 when flipped, else 1, and the old samples they image)."""
        starts, n = self.starts, self.model.n_regions
        for i in range(min(bisect_right(starts, lo), n) - 1, min(bisect_left(starts, hi), n)):
            # region i holds new samples a..b, the images of old samples
            # s..e (e..s when flipped); p..q - 1 of them lie in [lo, hi)
            (s, e), a, b = self.runs[i], starts[i], starts[i + 1]
            p, q = max(lo, a), min(hi, b + 1)
            u = e - (q - 1 - a) if self.model.flip[i] else s + (p - a)
            yield (i, slice(p - base, q - base), -1 if self.model.flip[i] else 1,
                   slice(u, u + q - p))

    def _write(self, lo, out, block, nodes):
        """block(a, b) over the blocks of new samples lo .. lo + out.size - 1,
        then the region ends among them set to `nodes`; returns `out`."""
        shares.run_blocks(out.size, 1, lambda a, b, _: block(lo + a, lo + b))
        ks = range(bisect_left(self.starts, lo), bisect_left(self.starts, lo + out.size))
        out[[self.starts[k] - lo for k in ks]] = nodes[ks.start:ks.stop]
        return out

    def xs_into(self, lo, out):
        model, old_x = self.model, self.old_x

        def block(a, b):
            for i, new, step, old in self._parts(a, b, lo):
                model.map_apply(i, old_x[old], out=out[new][::step])
        return self._write(lo, out, block, model.data.xs)

    def ys_into(self, lo, xs, out):
        model, detail = self.model, self.detail

        def block(a, b):
            for i, new, step, old in self._parts(a, b, lo):
                np.multiply(model.scaling[i](xs[new][::step]), detail[old], out=out[new][::step])
            out[a - lo:b - lo] += model.interpolant(xs[a - lo:b - lo])
        return self._write(lo, out, block, model.data.ys)


def _refine_step(model, level):
    """One refinement round on `level`, a list [xs, ys, starts] that the
    round consumes and refills with the next level.

    `_Round` writes the detail over the consumed heights, then the whole
    new x column; the consumed x column is released before the new
    heights are allocated and written from it.  A round at its peak
    holds the detail and both new columns: 8 bytes per old sample and 16
    per new one.
    """
    rnd = _Round(model, *level, detail=level[1])
    del level[:]
    xs = rnd.xs_into(0, np.empty(rnd.size))
    rnd.old_x = None
    ys = rnd.ys_into(0, xs, np.empty(xs.size))
    level[:] = xs, ys, rnd.starts


def plan_depth(model, depth=None, delta=None):
    """Every command's sampling depth, from the exact count and gap recursions.

    A round maps each region's feeder run through one affine x map, so
    its samples become sum(p over feeders) - (feeders - 1) and its
    largest x gap |map ratio| * max(g over feeders).  Nothing is refined.
    `depth` is planned as given; else the shallowest depth that `resolves`
    `delta`, the finest mesh width served; else DEFAULT_DEPTH.  A plan
    over POINT_LIMIT points is refused.
    """
    if depth is not None:
        check_size("depth", depth, 0)
    elif delta is None:
        depth = DEFAULT_DEPTH
    runs = [model.feeders(i) for i in range(model.n_regions)]
    xs = model.data.xs
    plan = DepthPlan(0, (2,) * len(runs), tuple(b - a for a, b in zip(xs, xs[1:])))
    while True:
        if plan.total > POINT_LIMIT:
            raise ModelError(
                f"depth {plan.depth if depth is None else depth} needs more than "
                f"{POINT_LIMIT} points ({plan.total} at depth {plan.depth})")
        if plan.depth == depth or (depth is None and resolves(plan.gap, delta)):
            return plan
        plan = DepthPlan(
            plan.depth + 1,
            tuple(sum(plan.points[j] for j in r) - (len(r) - 1) for r in runs),
            tuple(abs(model.map_ratio(i)) * max(plan.gaps[j] for j in r)
                  for i, r in enumerate(runs)))


def refine_attractor(model, depth):
    """Exact attractor samples after `depth` refinement rounds.

    Depth 0 is the data nodes grouped by region; each round maps the
    content of every region's source domain through that region's maps.
    Each round consumes the level it refines (`_refine_step`): heights
    become the detail, the new x column is written and the old one
    released, then the new heights are written.  Only the last level
    becomes a sampling, so a sampling a caller holds is never written.
    """
    check_size("depth", depth, 0)
    xs, ys = model.data.xs, model.data.ys
    level = [np.array(xs), np.array(ys), tuple(range(len(xs)))]
    for _ in range(depth):
        _refine_step(model, level)
    return AttractorSampling(depth, *level)


def refine_slabs(model, sampling, cuts):
    """The level after `sampling` as consecutive slabs (xs, ys), each
    slab's last sample the next one's first.

    One round (`_Round`) writes the detail of `sampling`'s samples into
    an array of its own, then one slab at a time into one reused pair of
    buffers: a slab is a read-only view of them, valid until the next is
    asked for.  A slab ends at the start of a region k in `cuts` (0 < k <
    n_regions) once it holds at least as many samples as `sampling`; the
    last slab ends at the last sample, so with no cut the level is one
    slab.  The slabs, each shared end sample taken once, are
    refine_attractor(model, sampling.depth + 1)'s arrays bit for bit.
    From the first slab on, the round holds `sampling`'s x column and the
    detail, 16 bytes an old sample, and the buffers, 16 bytes a sample of
    the largest slab; its heights are held only by a caller that keeps
    `sampling`.
    """
    xs, ys = merged_curve(sampling)
    rnd = _Round(model, xs, ys, sampling.starts, np.empty(ys.size))
    least, last = ys.size, rnd.size - 1
    del sampling, xs, ys   # the round holds x and the detail
    slabs, lo = [], 0
    for end in sorted({rnd.starts[k] for k in cuts}) + [last]:
        if end - lo + 1 >= least or end == last:
            slabs.append((lo, end + 1))
            lo = end
    size = max(hi - lo for lo, hi in slabs)
    bx, by = np.empty(size), np.empty(size)
    for lo, hi in slabs:
        x = rnd.xs_into(lo, bx[:hi - lo])
        y = rnd.ys_into(lo, x, by[:hi - lo])
        x.flags.writeable = y.flags.writeable = False
        yield x, y


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


def lipschitz_bounds(model):
    """Certified Lipschitz bounds: range map on the y envelope, and per region
    the scaling and the offset term -s(L(x))*base(x) + interpolant(L(x)) on
    the domain.  Each spec is certified in one call: the interpolant over
    all regions, each scaling over the regions that use it, and the base
    over all domain spans."""
    data, n = model.data, model.n_regions
    regions = _region_intervals(data)
    lip_s = _each_spec(lipschitz_bound_each, model.scaling, regions)
    lip_h = lipschitz_bound_each(model.interpolant, regions)
    doms = [(data.xs[s], data.xs[e]) for s, e in model.domains]
    dom_of = list(model.domain_of)
    b_max = abs_max_each(model.base, doms)[dom_of]
    b_lip = lipschitz_bound_each(model.base, doms)[dom_of]
    c = np.abs([model.map_ratio(i) for i in range(n)])
    return (lipschitz_bound(model.range_map, model.y_envelope), lip_s,
            lip_s * c * b_max + model.scale_range[:, 1] * b_lip + lip_h * c)


def contraction_report(model):
    """Constants showing the region maps contract in a weighted metric.

    The x part contracts at map_contraction; the vertical part couples x
    and y through the scaling, range and offset terms.  With a metric
    |dx| + w*|dy| and any weight 0 < w < weight_limit the joint factor is
    max(map_contraction + w*coupling, scale_abs_max*range_lipschitz),
    which stays below 1 exactly when scale_abs_max*range_lipschitz < 1.
    Per-region constants are maxima of `scale_range` and `lipschitz_bounds`.
    """
    c_L = max(abs(model.map_ratio(i)) for i in range(model.n_regions))
    a_bar = abs_extrema(model.range_map, model.y_envelope)[1]
    L_a, lip_s, lip_off = lipschitz_bounds(model)
    c_s, s_bar, L_b = (float(v.max()) for v in (lip_s, model.scale_range[:, 1], lip_off))

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
