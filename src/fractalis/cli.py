"""Command-line front end.

    fractalis curve   --config cfg.json [--out-dir DIR] [--depth N]
    fractalis surface --config cfg.json [--out-dir DIR] [--depth N] [--resolution N]
    fractalis analyze --config cfg.json [--out-dir DIR] [--depth N]

Flags override the matching fields of the config, read by `config.load_config`.
`rifs.plan_depth` plans every depth before any refinement; README "Configuration"
gives the rules.  Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import dimension, io, surface
from .catalog import FunctionSpecError
from .config import ConfigError, load_config
from .dimension import NumericalError
from .rifs import (POINT_LIMIT, ModelError, contraction_report, merged_curve, plan_depth,
                   refine_attractor, resolves)

__all__ = ["main"]


def _out_dir(cfg, args):
    """The output directory; each command creates it right before its first
    artifact, so a refused run leaves none behind."""
    return Path(args.out_dir or cfg.out_dir or "out")


def _depth(args, model_cfg, where, planner):
    """The depth asked for (the flag over the config, else None) and the
    field that sets it: `planner` when the depth is left to plan_depth."""
    if args.depth is not None:
        return args.depth, "--depth"
    return model_cfg.depth, planner if model_cfg.depth is None else f"{where}.depth"


def _for_field(field, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ModelError or FunctionSpecError (a
    certification the config's specs cannot pass) reported against `field`."""
    try:
        return fn(*args, **kwargs)
    except (ModelError, FunctionSpecError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _model_summary(model, sampling):
    """The model part of a report; an unbounded weight limit is written as null."""
    sizes = [b - a + 1 for a, b in zip(sampling.starts, sampling.starts[1:])]
    contraction = asdict(contraction_report(model))
    if contraction["weight_limit"] == math.inf:
        contraction["weight_limit"] = None
    C = model.connection
    return {
        "contraction": contraction,
        "connection_matrix": C.tolist(),
        "transition_matrix": (C.T / C.sum(axis=0)[:, None]).tolist(),
        "depth": sampling.depth,
        "points_per_region": sizes,
        "points_total": sampling.xs.size,
        "y_envelope": list(model.y_envelope),
        "warnings": list(model.warnings),
    }


def _cmd_curve(cfg, args):
    out = _out_dir(cfg, args)
    depth, field = _depth(args, cfg.curve, "config", "config.depth")
    model = _for_field("config", cfg.curve.build)
    plan = _for_field(field, plan_depth, model, depth)
    sampling = refine_attractor(model, plan.depth)
    gx, gy = merged_curve(sampling)
    out.mkdir(parents=True, exist_ok=True)
    io.write_curve_csv(out / "curve.csv", gx, gy)
    io.write_json(out / "report.json", _model_summary(model, sampling))
    print(f"curve: {gx.size} points at depth {plan.depth} -> {out}")
    return 0


def _cmd_analyze(cfg, args):
    out = _out_dir(cfg, args)
    depth, field = _depth(args, cfg.curve, "config", "scales.r_hi")
    model = _for_field("config", cfg.curve.build)
    report, sampling = _for_field(field, dimension.analyze_curve, model, *cfg.scales,
                                  depth=depth)
    payload = asdict(report)
    payload["model"] = _model_summary(model, sampling)
    out.mkdir(parents=True, exist_ok=True)
    io.write_json(out / "dimension.json", payload)
    io.write_box_csv(out / "boxcounts.csv", report.series)
    bounds = ("[{:.5f}, {:.5f}]".format(report.lower_bound, report.upper_bound)
              if report.lower_bound is not None else "unavailable")
    print(f"analyze: estimate {report.estimate:.5f} (r^2 {report.r_squared:.5f}), "
          f"bounds {bounds} -> {out}")
    return 0


def _cmd_surface(cfg, args):
    out = _out_dir(cfg, args)
    grid = "resolution" if args.resolution is None else "--resolution"
    resolution = cfg.resolution if args.resolution is None else args.resolution
    if resolution < 2:
        raise ConfigError(f"{grid}: must be >= 2")

    # every layer is built and planned before any curve is refined
    planned = []
    for axis in ("x", "y"):
        key = f"{axis}_curves"
        for i, (model_cfg, coeff) in enumerate(getattr(cfg, key)):
            depth, field = _depth(args, model_cfg, f"{key}[{i}].curve", f"{grid} ({key}[{i}])")
            model = _for_field(f"{key}[{i}].curve", model_cfg.build)
            span = model.data.xs[-1] - model.data.xs[0]
            plan = _for_field(field, plan_depth, model, depth, span / resolution)
            if not resolves(plan.gap, span / resolution):
                raise ConfigError(f"{field}: {surface.too_coarse(plan.gap / span, resolution)}")
            planned.append((axis, model, plan, coeff))
    _for_field(grid, surface.check_grid, resolution)
    obj_lines = (resolution + 1) ** 2 + 2 * resolution ** 2
    if cfg.obj and obj_lines > POINT_LIMIT:
        raise ConfigError(f"{grid}: with obj true, the OBJ of a {resolution}x{resolution} grid "
                          f"needs more than {POINT_LIMIT} lines ({obj_lines} vertices and faces)")

    layers = {"x": [], "y": []}
    curve_details = []
    for axis, model, plan, coeff in planned:
        samples = surface.CurveSamples.from_model(model, plan.depth)
        layers[axis].append(surface.SurfaceLayer(samples, coeff))
        detail = {"axis": axis, "depth": plan.depth, "points": int(samples.xs.size)}
        try:
            bounds = dimension.curve_dimension_bounds(model)
            detail["dimension_bounds"] = [bounds.lower_bound, bounds.upper_bound]
            detail["dimension_exact"] = bounds.exact
        except dimension.HypothesisError as exc:
            detail["dimension_note"] = f"bounds unavailable: {exc}"
        curve_details.append(detail)

    spec = surface.SurfaceSpec(tuple(layers["x"]), tuple(layers["y"]))
    field = _for_field(grid, surface.eval_surface, spec, resolution)

    out.mkdir(parents=True, exist_ok=True)
    io.write_pgm(out / "surface.pgm", field)
    if cfg.obj:
        io.write_obj(out / "surface.obj", field)

    formula = None
    if all("dimension_bounds" in d for d in curve_details):
        lower, upper = zip(*(d["dimension_bounds"] for d in curve_details))
        exact = [d["dimension_exact"] for d in curve_details]
        formula = {"lower": surface.composed_surface_dimension(lower),
                   "upper": surface.composed_surface_dimension(upper),
                   "exact": (surface.composed_surface_dimension(exact)
                             if None not in exact else None)}
    io.write_json(out / "report.json", {
        "resolution": resolution,
        "height_min": field.height_min,
        "height_max": field.height_max,
        "curves": curve_details,
        "formula_dimension": formula,
        "obj": bool(cfg.obj),
    })
    print(f"surface: {resolution}x{resolution} grid -> {out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fractalis",
        description="Recurrent fractal curves, composed surfaces, dimension analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curve", "surface", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--depth", type=int, default=None)
        if name == "surface":
            p.add_argument("--resolution", type=int, default=None)
    args = parser.parse_args(argv)

    handlers = {"curve": _cmd_curve, "surface": _cmd_surface, "analyze": _cmd_analyze}
    try:
        cfg = load_config(args.config)
        if cfg.mode != args.command:
            raise ConfigError(
                f"config mode is {cfg.mode!r} but the {args.command!r} command was invoked")
        return handlers[args.command](cfg, args)
    except (ConfigError, ModelError) as exc:   # any other ValueError is a bug: let it show
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
