"""Dimension analysis.

Connectivity predicates and Perron growth rates for nonnegative matrices,
closed-form dimension bounds for uniform models, mesh box counting for
sampled graphs and height fields, and the log-log regression estimator.
Certified constants are read from `rifs`.

Mesh convention: cells are half-open and anchored at the origin.  Graph
and height-field counting work per column: the vertical extent spanned by
the samples is covered with floor-indexed cells, closing the top edge.
Columns are closed intervals, so samples on a column boundary extend both
neighbours; nested schedules then give monotone counts.  A graph width
whose columns the samples show to be index runs (sample j*m on gridline
j, the samples between off-grid) takes its extents from run minima and
maxima, reduced from a finer run width where the run lengths divide;
any other width's columns are found by binary search on the sorted x
samples, so only samples next to a gridline are classified.  Height-field
columns over a schedule of scales come from one min/max pyramid: each
nested scale reduces the finer scale's block extents.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import shares
from .catalog import abs_extrema  # noqa: F401  (unused; perfbench's tracer test patches it)
from .rifs import (POINT_LIMIT, ModelError, check_size, lipschitz_bounds, merged_curve,
                   plan_depth, refine_attractor, resolves)

__all__ = [
    "NumericalError",
    "HypothesisError",
    "BoxCountError",
    "BoxCountSeries",
    "DimensionReport",
    "VariationCheck",
    "check_irreducible",
    "spectral_radius",
    "nonneg_spectral_radius",
    "nodes_collinear",
    "curve_dimension_bounds",
    "box_count_graph",
    "box_count_surface",
    "fit_dimension",
    "max_variation",
    "variation_bound_report",
    "curve_scale_schedule",
    "estimate_curve_dimension",
    "analyze_curve",
]

POWER_TOL = 1e-10
POWER_CAP = 100000
GRID_SNAP = 1e-12   # relative; fp noise in coord/delta is ~2e-16 * q
COLLINEAR_TOL = 1e-12
DROP_COARSEST_AT = 5


class NumericalError(RuntimeError):
    """Iteration failed to converge."""


class HypothesisError(ValueError):
    """A requirement of the closed-form dimension bounds is not met."""


class BoxCountError(ModelError):
    """A mesh too fine for its heights: cell indices or counts past 2^53."""


# ---------------------------------------------------------------------------
# nonnegative matrices
# ---------------------------------------------------------------------------

def _as_square(A):
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)) or np.any(A < 0):
        raise ValueError("matrix entries must be finite and >= 0")
    return A


def _reachability(A):
    """R[i, j] is True iff j is reachable from i in zero or more steps.

    Boolean transitive closure of the support by repeated squaring: each
    float64 product of 0/1 matrices is exact and is clipped back to 0/1,
    and about log2(n) squarings cover every path of length <= n - 1.
    """
    n = A.shape[0]
    R = ((A > 0) | np.eye(n, dtype=bool)).astype(np.float64)
    reach = 1
    while reach < n - 1:
        R = np.minimum(R @ R, 1.0)
        reach *= 2
    return R > 0


def check_irreducible(A):
    """True iff the support digraph is strongly connected."""
    return bool(_reachability(_as_square(A)).all())


def _perron(A):
    """Perron growth rate of a validated irreducible nonnegative block.

    Power iteration from the all-ones vector on the shifted matrix
    A + max(A)*I.  The shift makes the dominant eigenvalue simple and
    well separated even for periodic supports (where plain iteration
    oscillates forever) and is subtracted back exactly, since shifting a
    nonnegative matrix moves its growth rate by exactly the shift.
    Iteration stops once the two-sided ratio bracket
    min_i (Ax)_i/x_i <= rho <= max_i (Ax)_i/x_i is tighter than
    POWER_TOL, so the returned midpoint carries a certified error bound.
    A block [a] returns 0.5*(4a) - a = a exactly; at any size, entries
    past about 4.5e307 overflow the shifted sums.
    """
    n = A.shape[0]
    shift = float(A.max())
    A = A + shift * np.eye(n)
    x = np.ones(n)
    lo = hi = 0.0
    for _ in range(POWER_CAP):
        y = A @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= POWER_TOL * max(hi, 1.0):
            return 0.5 * (lo + hi) - shift
        x = y / np.linalg.norm(y)
    raise NumericalError(
        f"power iteration did not converge in {POWER_CAP} steps "
        f"(last bracket [{lo - shift:.17g}, {hi - shift:.17g}]); "
        "the dominant eigenvalue may be nearly tied")


def spectral_radius(A):
    """Perron growth rate of an irreducible nonnegative matrix (`_perron`)."""
    A = _as_square(A)
    if not _reachability(A).all():
        raise ValueError("matrix support is not strongly connected (reducible); "
                         "the Perron growth rate is not isolated")
    return _perron(A)


def nonneg_spectral_radius(A):
    """Growth rate for any nonnegative matrix.

    Decomposes the support into strongly connected components and takes
    the largest component rate; block-triangular structure makes this
    exact.  Needed when scaling envelopes put zero rows into an otherwise
    irreducible pattern.
    """
    A = _as_square(A)
    n = A.shape[0]
    R = _reachability(A)
    R = R & R.T   # R[i] marks the strongly connected component of i
    best = 0.0
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        comp = np.nonzero(R[i])[0]
        seen[comp] = True
        best = max(best, _perron(A[np.ix_(comp, comp)]))   # irreducible by construction
    return best


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def nodes_collinear(data, span):
    """True iff the nodes in the node-index span [start, end] lie on one line."""
    s, e = span
    if e - s < 2:
        raise ValueError("span must hold at least 3 nodes")
    xs = np.array(data.xs[s:e + 1])
    ys = np.array(data.ys[s:e + 1])
    scale = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-300)
    # doubled triangle areas of consecutive node triples
    areas = np.abs((xs[1:-1] - xs[:-2]) * (ys[2:] - ys[:-2])
                   - (xs[2:] - xs[:-2]) * (ys[1:-1] - ys[:-2]))
    return bool(np.all(areas <= 2.0 * COLLINEAR_TOL * scale * scale))


@dataclass(frozen=True)
class BoxCountSeries:
    deltas: tuple
    counts: tuple
    mesh: str = "origin-anchored half-open cells, top edge closed"

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        counts = tuple(int(c) for c in self.counts)
        if len(deltas) != len(counts):
            raise ValueError("deltas and counts differ in length")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("deltas must be strictly decreasing")
        if any(c < 1 for c in counts):
            raise ValueError("counts must be >= 1")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError("counts must not decrease as delta shrinks")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class DimensionReport:
    spectral_lower: float | None = None
    spectral_upper: float | None = None
    regions_per_domain: int | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    exact: float | None = None
    series: BoxCountSeries | None = None
    estimate: float | None = None
    r_squared: float | None = None
    notes: tuple = ()


def _uniform_geometry(model):
    """(spacing, regions_per_domain); raises HypothesisError naming the failure."""
    xs = np.array(model.data.xs)
    gaps = np.diff(xs)
    span = float(xs[-1] - xs[0])
    if float(gaps.max() - gaps.min()) > 1e-12 * max(span, 1.0):
        raise HypothesisError("nodes are not uniformly spaced")
    widths = {e - s for s, e in model.domains}
    if len(widths) != 1:
        raise HypothesisError("domains do not all span the same number of regions")
    return float(gaps.mean()), widths.pop()


def curve_dimension_bounds(model):
    """Closed-form box-dimension bounds for a uniform model.

    Requires uniformly spaced nodes, equal-width domains of a >= 2
    regions, an identity range map, an irreducible connection pattern and
    at least one domain whose nodes are not collinear.  The bounds come
    from growth rates of the envelope-weighted connection matrix:
    1 + log_a(rate) for the min/max envelopes.  A max rate <= 1 forces
    dimension exactly 1, and coinciding envelopes with rate > 1 give an
    exact value.
    """
    _, a = _uniform_geometry(model)

    env = model.y_envelope
    probe = np.linspace(env[0], env[1], 17)
    if np.max(np.abs(model.range_map(probe) - probe)) > 1e-12 * (1.0 + np.abs(probe).max()):
        raise HypothesisError("range map is not the identity")
    if not check_irreducible(model.connection):
        raise HypothesisError("connection matrix is not irreducible")
    if all(nodes_collinear(model.data, span) for span in model.domains):
        raise HypothesisError("every domain's nodes are collinear")

    s_lo, s_hi = model.scale_range.T
    C = model.connection.astype(np.float64)
    lam_hi = nonneg_spectral_radius(np.diag(s_hi) @ C)
    lam_lo = nonneg_spectral_radius(np.diag(s_lo) @ C)

    if lam_hi <= 1.0:
        return DimensionReport(
            spectral_lower=lam_lo, spectral_upper=lam_hi, regions_per_domain=a,
            lower_bound=1.0, upper_bound=1.0, exact=1.0,
            notes=("max-envelope growth rate <= 1: dimension is exactly 1",))
    notes = []
    upper = 1.0 + math.log(lam_hi, a)
    if lam_lo > 1.0:
        lower = 1.0 + math.log(lam_lo, a)
    else:
        lower = 1.0
        notes.append(
            f"min-envelope growth rate {lam_lo:.6g} <= 1: the logarithmic lower-bound "
            "formula only applies above 1, so the trivial lower bound 1 is reported")
    exact = None
    if lam_lo > 1.0 and abs(lam_hi - lam_lo) <= 1e-12 * lam_hi:
        exact = upper
        notes.append("scaling envelopes coincide: bounds collapse to an exact value")
    return DimensionReport(spectral_lower=lam_lo, spectral_upper=lam_hi,
                           regions_per_domain=a, lower_bound=lower,
                           upper_bound=upper, exact=exact, notes=tuple(notes))


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def _on_gridline(q):
    """True where q lies within GRID_SNAP (relative) of an integer."""
    r = np.rint(q)
    return np.abs(q - r) <= GRID_SNAP * np.maximum(1.0, np.abs(q))


def _snapped_floor(q):
    """floor, with the values where `_on_gridline` holds rounded first."""
    return np.where(_on_gridline(q), np.rint(q), np.floor(q)).astype(np.int64)


def _vspan_cells(vmin, vmax, delta):
    """Cells covering [vmin, vmax], top edge closed, at least 1 per column;
    BoxCountError where the extents bound an index or the sum at 2^53."""
    vmin, vmax = np.asarray(vmin), np.asarray(vmax)
    lo, hi, delta = float(vmin.min()), float(vmax.max()), float(delta)
    if max(hi, -lo) / delta >= 2 ** 53 - 1 or vmin.size * ((hi - lo) / delta + 2) >= 2 ** 53:
        raise BoxCountError(f"delta {delta:.3g} is too fine for heights up to {max(hi, -lo):.3g} "
                            "in magnitude: cell indices or counts could reach 2^53")
    bot = _snapped_floor(vmin / delta)
    top = -_snapped_floor(-vmax / delta) - 1   # the snapped ceil, less 1
    return np.maximum(top - bot + 1, 1)


def _graph_columns(xs, delta):
    """(base, top, fold): the first and last closed column of width `delta`
    over the sorted samples, and whether the samples on the last gridline
    fold into the column below.  More than POINT_LIMIT columns raise
    ValueError."""
    q_ends = xs[[0, -1]] / delta
    first, last = (int(c) for c in _snapped_floor(q_ends))
    # top-edge closure in x: when the rightmost samples sit exactly on a
    # mesh line, fold that final run into the column below instead of
    # opening a new one
    fold = bool(_on_gridline(q_ends[-1]))
    top = last - fold
    base = min(first, top)   # a set on one gridline folds whole
    if top - base + 1 > POINT_LIMIT:
        raise ValueError(f"delta {delta!r} needs {top - base + 1} columns over the samples' "
                         f"x range, more than {POINT_LIMIT}")
    return base, top, fold


def _run_length(xs, delta, base, top):
    """m when each closed column base + j of width `delta` holds exactly the
    samples j*m ... (j+1)*m, else None.

    Sample j*m must be on gridline base + j, for j = 0 .. cols (the last
    one folds), and samples j*m + 1 and (j+1)*m - 1 off every gridline in
    column base + j.  x / delta is monotone in x, so each sample between
    those two is in that column and off every gridline too.
    """
    cols, n = top - base + 1, xs.size - 1
    if n < cols or n % cols:
        return None
    m = n // cols
    lines = base + np.arange(cols + 1)
    q = xs[::m] / delta
    if not (np.all(_on_gridline(q)) and np.array_equal(_snapped_floor(q), lines)):
        return None
    for inner in (xs[1::m], xs[m - 1::m]) if m > 1 else ():
        q = inner / delta
        if np.any(_on_gridline(q)) or not np.array_equal(np.floor(q), lines[:-1]):
            return None
    return m


def _graph_extents(xs, ys, delta, base, top, fold):
    """(min, max) of ys over each closed column base..top of width delta,
    (inf, -inf) where a column holds no sample.

    xs is searched for the windows around the interior gridlines; outside
    them floor(x / delta) is the column and no sample is on a gridline, so
    only the window samples are classified.
    """
    n, cols = xs.size, top - base + 1
    cmin, cmax = np.full(cols, np.inf), np.full(cols, -np.inf)
    k = np.arange(base + 1, top + 1, dtype=np.int64)
    w = 4.0 * GRID_SNAP * np.maximum(1.0, np.abs(k))
    lo = np.searchsorted(xs, (k - w) * delta, side="left")
    hi = np.searchsorted(xs, (k + w) * delta, side="right")
    size = hi - lo   # window samples, concatenated in order
    win = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
    win = np.unique(win)   # windows overlap only beyond |k| ~ 1e11
    q = xs[win] / delta
    col = _snapped_floor(q)
    grid = _on_gridline(q)
    folded = fold & (col == top + fold)
    col -= folded
    # column k starts at its first sample with col >= k (col never
    # decreases); the first column at 0
    starts = np.minimum(np.append(win, n)[np.searchsorted(col, k, side="left")], hi)
    starts = np.concatenate(([0], starts, [n]))
    full = starts[:-1] < starts[1:]
    cmin[full] = np.minimum.reduceat(ys, starts[:-1][full])
    cmax[full] = np.maximum.reduceat(ys, starts[:-1][full])
    # closed columns: boundary samples also extend the column below
    dup = grid & ~folded & (col > base)
    if np.any(dup):
        with np.errstate(invalid="ignore"):   # a NaN is rejected below
            np.minimum.at(cmin, col[dup] - 1 - base, ys[win[dup]])
            np.maximum.at(cmax, col[dup] - 1 - base, ys[win[dup]])
    # only a column without samples may keep a non-finite extent, (inf, -inf)
    hit = np.isfinite(cmin) & np.isfinite(cmax)
    if not np.all(hit | ((cmin == np.inf) & (cmax == -np.inf))):
        raise ValueError("ys must be finite")
    return cmin, cmax


def _run_extents(ys, m, finer):
    """(min, max) of ys over each closed run j*m ... (j+1)*m; from the runs
    of a finer run length that divides m when `finer` holds them.  Runs
    are reduced by `ufunc.reduceat`, not over a short reshaped axis."""
    if finer is not None and m % finer[0] == 0:
        fm, lo, hi = finer
        starts = np.arange(0, lo.size, m // fm)
        return np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
    starts = np.arange(0, ys.size - 1, m)
    with np.errstate(invalid="ignore"):   # a NaN is rejected below
        lo = np.minimum(np.minimum.reduceat(ys[:-1], starts), ys[m::m])
        hi = np.maximum(np.maximum.reduceat(ys[:-1], starts), ys[m::m])
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("ys must be finite")
    return lo, hi


def box_count_graph(xs, ys, delta):
    """Mesh cells met by the sampled graph of a function.

    xs must be a finite, non-decreasing 1-D array and ys a finite 1-D
    array of the same length; anything else raises ValueError.  Each closed x
    column contributes the floor-indexed cover of the vertical extent of
    its samples; samples exactly on a column boundary extend both
    neighbouring columns.  This saturates for graphs where raw point
    counting would need one sample per cell.  Memory and time grow with
    the column count, so a delta needing more than rifs.POINT_LIMIT
    columns over the x range raises ValueError before any is built.

    `delta` is one width, and the count an int, or a sequence of widths,
    and the counts a tuple in the same order.  Widths are taken finest
    first.  Where the samples show that every column is an index run
    (`_run_length`, checked on each width's own samples), the extents are
    run minima and maxima, reduced from the last such width when its run
    length divides this one's; any other width is searched
    (`_graph_extents`).  Either way the counts are those of separate
    one-width calls.
    """
    scalar = np.ndim(delta) == 0
    deltas = [float(d) for d in np.atleast_1d(delta)]
    if not all(d > 0 for d in deltas):
        raise ValueError("delta must be positive")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.shape != xs.shape:
        raise ValueError(f"xs and ys must be 1-D arrays of equal length, "
                         f"got shapes {xs.shape} and {ys.shape}")
    if xs.size == 0:
        raise ValueError("empty sample set")
    # with finite ends, ascending neighbours also rule out inf and NaN inside
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])
            and np.all(xs[1:] >= xs[:-1])):
        if not np.all(np.isfinite(xs)):
            raise ValueError("xs must be finite")
        raise ValueError("xs must be sorted ascending")
    columns = [_graph_columns(xs, d) for d in deltas]   # every width passes before any count
    counts = [0] * len(deltas)
    runs = None   # (m, min, max) of the last width counted by index runs
    for i in sorted(range(len(deltas)), key=deltas.__getitem__):   # finest first
        d, (base, top, fold) = deltas[i], columns[i]
        m = _run_length(xs, d, base, top)
        if m is None:
            cmin, cmax = _graph_extents(xs, ys, d, base, top, fold)
            hit = np.isfinite(cmin)
            cmin, cmax = cmin[hit], cmax[hit]
        else:
            cmin, cmax = _run_extents(ys, m, runs)
            runs = (m, cmin, cmax)
        counts[i] = int(_vspan_cells(cmin, cmax, d).sum())
    return counts[0] if scalar else tuple(counts)


def _closed_blocks(H, m):
    """(min, max) of H over each closed m x m block of grid steps, as (n, n)
    arrays: rows [I*m, (I+1)*m] inclusive, then the same on columns.

    Block rows are taken as many at a time as fit in `shares.BLOCK_BYTES`,
    at least one, on the caller's thread (a second thread was measured to
    lose): their row-wise min goes into one scratch block, is copied with
    the m columns of each block on the leading axis, and is reduced over
    that axis straight into the result; then the same for the max.  So no
    array of H's size is made, and no reduction runs over a short inner
    axis.  min and max are exact, so no block size changes the result.
    """
    n, width = (H.shape[0] - 1) // m, H.shape[1]
    cmin, cmax = np.empty((n, n)), np.empty((n, n))
    block = max(1, shares.BLOCK_BYTES // (8 * m * width))   # block rows a block holds
    scratch = np.empty((min(block, n), width))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = H[lo * m:hi * m].reshape(hi - lo, m, width)
        edge = H[(lo + 1) * m:hi * m + 1:m]
        r = scratch[:hi - lo]
        t = np.empty((m, hi - lo, n))   # t[k, i, J] = r[i, J*m + k]
        for reduce, combine, out in ((np.min, np.minimum, cmin), (np.max, np.maximum, cmax)):
            combine(reduce(rows, axis=1, out=r), edge, out=r)
            np.copyto(t, r[:, :-1].reshape(hi - lo, n, m).transpose(2, 0, 1))
            c = reduce(t, axis=0, out=out[lo:hi])
            combine(c, r[:, m::m], out=c)
    return cmin, cmax


def _surface_blocks(field, deltas):
    """Check every delta, then yield (delta, min, max) of the closed blocks
    at each one, finest first.

    A closed 2m-block's min and max are exactly those of its four closed
    m-children, so a level whose block size is a multiple f of the
    previous level's reduces that level's (n, n) arrays in f x f tiles,
    folding the f^2 strided views of tile entries into the result; any
    other level (the first, or a schedule that is not nested) reduces the
    field itself.
    """
    res = field.resolution
    sizes = []
    for delta in deltas:
        if delta <= 0:
            raise ValueError("delta must be positive")
        m = int(round(delta * res))
        if m < 1 or abs(delta * res - m) > 1e-9 * max(1.0, delta * res):
            raise ValueError(f"delta {delta} is not aligned to the grid step 1/{res}")
        if res % m != 0:
            raise ValueError(f"delta {delta} does not tile the unit square on a 1/{res} grid")
        sizes.append(m)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    prev = None
    for delta, m in reversed(list(zip(deltas, sizes))):
        if prev is not None and m % prev[0] == 0:
            pm, finer_lo, finer_hi = prev
            f = m // pm
            lo, hi = finer_lo[::f, ::f].copy(), finer_hi[::f, ::f].copy()
            for a, b in list(itertools.product(range(f), repeat=2))[1:]:
                np.minimum(lo, finer_lo[a::f, b::f], out=lo)
                np.maximum(hi, finer_hi[a::f, b::f], out=hi)
        else:
            lo, hi = _closed_blocks(field.heights, m)
        prev = (m, lo, hi)
        yield delta, lo, hi


def _surface_counts(field, deltas):
    """box_count_surface at each of the strictly decreasing deltas, from one
    min/max pyramid (`_surface_blocks`); every delta is checked first."""
    deltas = tuple(float(d) for d in deltas)
    counts = [box_count_surface(field, delta, (lo, hi))
              for delta, lo, hi in _surface_blocks(field, deltas)]
    return counts[::-1]


def box_count_surface(field, delta, blocks=None):
    """Mesh cubes met by the sampled graph of a height field.

    delta must be an integer multiple of the grid step that tiles the
    unit square.  Each closed delta x delta column contributes the
    floor-indexed cover of the height range over its (m+1)^2 samples.
    `blocks` is the (min, max) pair of those columns when the caller
    already holds it from `_surface_blocks`, as `_surface_counts` does
    for a whole schedule.
    """
    if blocks is None:
        blocks = next(_surface_blocks(field, (float(delta),)))[1:]
    lo, hi = blocks
    return int(_vspan_cells(lo, hi, delta).sum())


def fit_dimension(series):
    """Least-squares slope of log(count) against -log(delta), with r^2."""
    if len(series.deltas) < 3:
        raise ValueError("need at least 3 scales to fit")
    x = -np.log(np.array(series.deltas))
    y = np.log(np.array(series.counts, dtype=np.float64))
    vx = float(np.var(x))
    if vx == 0.0:
        raise ValueError("degenerate scale schedule: zero variance in log delta")
    slope = float(np.cov(x, y, bias=True)[0, 1] / vx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return slope, r2


def max_variation(xs, ys, lo, hi):
    """max - min of the samples with x in the closed interval [lo, hi]."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    mask = (xs >= lo) & (xs <= hi)
    if not np.any(mask):
        raise ValueError(f"no samples in [{lo}, {hi}]")
    sel = ys[mask]
    return float(sel.max() - sel.min())


# ---------------------------------------------------------------------------
# oscillation bound diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationCheck:
    region: int
    lhs: float
    rhs: float
    ok: bool


def variation_bound_report(model, sampling):
    """Per-region check that the curve's oscillation obeys its contraction bound.

    For region i fed from domain D: the oscillation of the curve on the
    region must not exceed s_max * L_range * osc(D) plus |D| times the
    coupling of the scaling and offset terms.  The constants come from
    `rifs`, the oscillations from the samples.
    """
    gx, gy = merged_curve(sampling)
    scale = max(1.0, model.y_envelope[1] - model.y_envelope[0])
    L_a, lip_s, lip_off = lipschitz_bounds(model)
    rows = []
    for i, s_hi in enumerate(model.scale_range[:, 1].tolist()):
        reg = model.data.region_bounds(i)
        dom = model.domain_bounds(i)
        lhs = max_variation(gx, gy, reg[0], reg[1])
        r_dom = max_variation(gx, gy, dom[0], dom[1])
        in_dom = (gx >= dom[0]) & (gx <= dom[1])
        a_f = float(np.max(np.abs(model.range_map(gy[in_dom]))))
        rhs = float(s_hi * L_a * r_dom + (dom[1] - dom[0]) * (lip_s[i] * a_f + lip_off[i]))
        rows.append(VariationCheck(i, lhs, rhs, bool(lhs <= rhs + 1e-9 * scale)))
    return rows


# ---------------------------------------------------------------------------
# estimation pipeline
# ---------------------------------------------------------------------------

def _scale_rule(model, r_lo, r_hi):
    """The mesh delta(r) of `curve_scale_schedule`, for integers
    0 <= r_lo <= r_hi (`check_size`, else ModelError)."""
    r_lo = check_size("r_lo", r_lo, 0)
    check_size("r_hi", r_hi, r_lo)
    try:
        _, a = _uniform_geometry(model)
    except HypothesisError:
        a = 2
    xs = model.data.xs
    span = xs[-1] - xs[0]
    n = model.n_regions

    def delta(r):
        try:
            return span * float(a) ** (-r) / n
        except OverflowError:   # r past float range; a^-r is 0.0 from r = 1075 on
            return 0.0
    return delta


def curve_scale_schedule(model, r_lo=2, r_hi=6):
    """Geometric mesh schedule delta_r = span * a^(-r) / n for r in [r_lo, r_hi].

    The ratio a is the common domain width in regions when the geometry
    is uniform, else 2.
    """
    return list(map(_scale_rule(model, r_lo, r_hi), range(r_lo, r_hi + 1)))


def fit_report(series, notes=()):
    """Fit a box-count series, leaving out the coarsest scale (where boundary
    effects dominate) when there are DROP_COARSEST_AT or more."""
    fit_series = series
    if len(series.deltas) >= DROP_COARSEST_AT:
        fit_series = BoxCountSeries(series.deltas[1:], series.counts[1:])
        notes = tuple(notes) + ("coarsest scale dropped from the regression",)
    estimate, r2 = fit_dimension(fit_series)
    return DimensionReport(series=series, estimate=estimate, r_squared=r2,
                           notes=tuple(notes))


def estimate_curve_dimension(model, r_lo=2, r_hi=6, depth=None):
    """Box-count estimate of the curve's dimension over a geometric schedule.

    `plan_depth` plans the depth for the finest delta alone, before any
    scale is listed: delta_r falls with r, so the scales it resolves
    (`rifs.resolves`) are a prefix r_lo..r_max, the rest are dropped with
    a note, and under three left is refused.  Counts use per-column
    vertical covers of the sampled graph (raw point counting cannot
    saturate fine meshes at any practical depth).  All usable scales are
    counted in one `box_count_graph` call on the curve's own arrays; on a
    uniform model each scale's columns are index runs of the curve, and
    the coarser scales reduce the finer scales' runs.  The fit follows
    `fit_report`.

    Returns (report, sampling).
    """
    delta = _scale_rule(model, r_lo, r_hi)
    plan = plan_depth(model, depth, delta(r_hi))
    usable = list(itertools.takewhile(lambda d: resolves(plan.gap, d),
                                      map(delta, range(r_lo, r_hi + 1))))
    requested = r_hi - r_lo + 1
    if len(usable) < 3:
        raise ModelError(
            f"sampling too coarse for the requested scales: x spacing {plan.gap:.3g} "
            f"saturates only {len(usable)} of {requested} scales; raise the depth")
    dropped = requested - len(usable)
    notes = [f"dropped {dropped} under-resolved scale{'s' if dropped > 1 else ''} "
             f"(x spacing {plan.gap:.3g})"] if dropped else []
    sampling = refine_attractor(model, plan.depth)
    gx, gy = merged_curve(sampling)
    counts = box_count_graph(gx, gy, usable)
    return fit_report(BoxCountSeries(tuple(usable), counts), notes), sampling


def analyze_curve(model, r_lo=2, r_hi=6, depth=None):
    """Theoretical bounds (when the hypotheses hold) merged with an estimate."""
    empirical, sampling = estimate_curve_dimension(model, r_lo, r_hi, depth)
    try:
        bounds = curve_dimension_bounds(model)
    except HypothesisError as exc:
        bounds = DimensionReport(notes=(f"closed-form bounds unavailable: {exc}",))
    report = replace(bounds, series=empirical.series, estimate=empirical.estimate,
                     r_squared=empirical.r_squared, notes=empirical.notes + bounds.notes)
    return report, sampling
