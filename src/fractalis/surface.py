"""Fractal surfaces composed from curves and Lipschitz coefficients.

A surface is a finite sum of separable layers: coefficient(x, y) times a
curve value read along x or along y.  Curves enter as sampled polylines
(typically attractor samples); the true curves are continuous, so the
lookup error is controlled by the sampling density.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import shares
from .catalog import BivariateSpec
from .dimension import BoxCountSeries, _surface_counts, fit_report
from .rifs import (SAMPLES_PER_SCALE, ModelError, check_size, merged_curve, refine_attractor,
                   resolves)

__all__ = [
    "CurveSamples",
    "SurfaceLayer",
    "SurfaceSpec",
    "HeightField",
    "eval_surface",
    "composed_surface_dimension",
    "estimate_surface_dimension",
]


def too_coarse(gap, resolution):
    """Why a curve on [0, 1] with largest x gap `gap` is too coarse for the grid."""
    return (f"curve sampling too coarse for resolution {resolution}: max gap {gap:.3g} > "
            f"{1.0 / (SAMPLES_PER_SCALE * resolution):.3g}; refine deeper")


@dataclass(frozen=True)
class CurveSamples:
    """A curve on [0, 1] as sorted samples, evaluated piecewise-linearly."""
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("curve samples need matching 1-d arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("curve sample x values must be strictly increasing")
        if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
            raise ValueError("curve samples must cover [0, 1]; renormalize first")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_model(cls, model, depth):
        """Sample a curve model and renormalize its x range onto [0, 1]."""
        gx, gy = merged_curve(refine_attractor(model, depth))
        x0, x1 = model.data.xs[0], model.data.xs[-1]
        if x0 != 0.0 or x1 != 1.0:
            gx = (gx - x0) / (x1 - x0)
            gx[0], gx[-1] = 0.0, 1.0
        return cls(gx, gy)

    def value(self, x):
        return np.interp(x, self.xs, self.ys)

    @property
    def max_gap(self):
        return float(np.diff(self.xs).max())


@dataclass(frozen=True)
class SurfaceLayer:
    curve: CurveSamples
    coeff: BivariateSpec


@dataclass(frozen=True)
class SurfaceSpec:
    """Layers read along x plus layers read along y."""
    x_layers: tuple
    y_layers: tuple = ()

    def __post_init__(self):
        x_layers = tuple(self.x_layers)
        y_layers = tuple(self.y_layers)
        if not x_layers and not y_layers:
            raise ValueError("surface spec needs at least one layer")
        object.__setattr__(self, "x_layers", x_layers)
        object.__setattr__(self, "y_layers", y_layers)


@dataclass(frozen=True)
class HeightField:
    """Read-only heights on the uniform (m+1) x (m+1) grid over [0, 1]^2.

    heights[iy, ix] is the value at (ix/m, iy/m); height_min/height_max is their range.
    """
    resolution: int
    heights: np.ndarray
    height_min: float = field(init=False)
    height_max: float = field(init=False)

    def __post_init__(self):
        check_size("resolution", self.resolution, 2, ValueError)
        H = np.asarray(self.heights, dtype=np.float64)
        m = self.resolution
        if H.shape != (m + 1, m + 1):
            raise ValueError(f"heights must be ({m + 1}, {m + 1}), got {H.shape}")
        object.__setattr__(self, "height_min", float(H.min()))
        object.__setattr__(self, "height_max", float(H.max()))
        if not np.isfinite([self.height_min, self.height_max]).all():   # min/max carry NaN
            raise ValueError("heights must be finite")
        H.flags.writeable = False
        object.__setattr__(self, "heights", H)


def eval_surface(spec, resolution):
    """Sum the layers on the grid: coeff(x, y) * curve(x or y).

    Every curve's samples must resolve a grid cell, by `rifs.resolves`
    on its largest x gap and 1/resolution, or ModelError (`too_coarse`)
    is raised before any layer is summed.  `rifs.plan_depth(model,
    delta=(x1 - x0) / resolution)` gives the shallowest such depth.

    Each curve is interpolated on the grid axis once.  The rows of the
    grid are then summed in row blocks of about `shares.BLOCK_BYTES`, in
    one band per usable CPU on joined threads (`shares.run_blocks`): a
    block evaluates each coefficient on its rows into its thread's
    scratch block, multiplies by the curve values and adds that into the
    heights, layer by layer in order, so the heights are those of a
    one-band, one-block sum, bit for bit, and no temporary of the grid's
    size is made.
    """
    m = check_size("resolution", resolution, 2, ValueError)
    for layer in spec.x_layers + spec.y_layers:
        if not resolves(layer.curve.max_gap, 1.0 / m):
            raise ModelError(too_coarse(layer.curve.max_gap, m))
    axis = np.linspace(0.0, 1.0, m + 1)
    H = np.zeros((m + 1, m + 1))
    terms = ([(layer.coeff, layer.curve.value(axis), True) for layer in spec.x_layers]
             + [(layer.coeff, layer.curve.value(axis), False) for layer in spec.y_layers])

    def block(lo, hi, scratch):
        g = scratch[:hi - lo]
        for coeff, values, along_x in terms:
            coeff.grid(axis, axis[lo:hi], out=g)
            g *= values[None, :] if along_x else values[lo:hi, None]
            H[lo:hi] += g

    shares.run_blocks(m + 1, m + 1, block)
    return HeightField(m, H)


def composed_surface_dimension(dims):
    """Dimension of a composed surface: 1 + max over the layer curve dimensions."""
    dims = list(dims)
    if not dims:
        raise ValueError("need at least one curve dimension")
    for d in dims:
        if not 1.0 <= d <= 2.0:
            raise ValueError(f"curve dimension {d} outside [1, 2]")
    return 1.0 + max(dims)


def estimate_surface_dimension(field, deltas):
    """Box-count estimate for a height field over grid-aligned scales.

    Scales must be strictly decreasing, at least 3 of them; every scale
    is checked before any counting starts.  The counts come from one
    min/max pyramid built from the finest scale up, and equal
    `box_count_surface` at each scale.  The fit follows `fit_report`, as
    for curves.
    """
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) < 3:
        raise ValueError("need at least 3 scales")
    return fit_report(BoxCountSeries(deltas, tuple(_surface_counts(field, deltas))))
