"""JSON run configurations.

One document drives a run.  Common curve-model fields:

    data            [[x, y], ...] interpolation nodes (JSON numbers)
    domains         [[start_node, end_node], ...] node-index spans (JSON integers)
    region_domains  per region, 0-based JSON integer index into "domains"
    scaling         function spec or list of per-region specs
    range_map       function spec (default: identity)
    base            function spec or "interpolate" (default): polynomial
                    through the domain-endpoint nodes
    interpolant     function spec or "interpolate" (default): polynomial
                    through every node
    flip            optional per-region JSON booleans (reverse map orientation)
    depth           optional refinement depth, a JSON integer >= 0

Mode "curve" adds nothing.  Mode "analyze" adds optional "scales":
{"r_lo": 2, "r_hi": 6}, JSON integers with 1 <= r_lo and r_lo + 2 <= r_hi
(a fit needs three scales).  Mode "surface" replaces the model fields
with "x_curves"/"y_curves", each entry {"curve": {model fields},
"coeff": bivariate spec}, plus an integer "resolution" (default 256) and
an optional JSON boolean "obj" (default false).
`rifs.plan_depth` plans each missing depth (README "Configuration" gives
the rules).
Bivariate specs are {"terms": [{"fx": spec, "fy": spec}, ...]} or the
shortcuts {"of_x": spec} / {"of_y": spec}.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import (FunctionSpecError, bivariate_from_json, identity,
                      scalar_from_json)
from .rifs import (DomainSpec, InterpolationData, ModelError,
                   RegionAssignment, build_model)

__all__ = ["ConfigError", "CurveModelConfig", "RunConfig", "parse_config"]

DEFAULT_DEPTH = 8


class ConfigError(ValueError):
    """Configuration document rejected; the message names the field."""


def _require(obj, key, where):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return obj[key]


def _int(value, where):
    """value, which must be a JSON integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _integer(obj, key, where, default):
    """obj[key] as by `_int`, or default when the key is absent."""
    return _int(obj[key], where) if key in obj else default


def _number(value, where):
    """value, which must be a JSON number (not a bool or string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return value


def _list(value, where, what, length=None):
    """value, which must be a JSON list, of `length` items when given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _pairs(obj, key, where, names, item):
    """obj[key]: a list of two-item lists `names`, each item checked by `item`."""
    raw = _list(_require(obj, key, where), f"{where}.{key}", f"a list of pairs {names}")
    return tuple(
        tuple(item(v, f"{where}.{key}[{i}][{j}]") for j, v in enumerate(
            _list(pair, f"{where}.{key}[{i}]", f"a pair {names}", 2)))
        for i, pair in enumerate(raw))


def _boolean(value, where):
    """value, which must be a JSON boolean (not a number, string or null)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    return value


def _spec(obj, where):
    try:
        return scalar_from_json(obj)
    except FunctionSpecError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _bivariate(obj, where):
    try:
        return bivariate_from_json(obj)
    except FunctionSpecError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class CurveModelConfig:
    data: InterpolationData
    domains: DomainSpec
    assignment: RegionAssignment
    scaling: tuple
    range_map: object
    base: object        # spec or None for the default
    interpolant: object
    flip: tuple | None
    depth: int | None   # None: planned by the command (see the module docstring)

    @classmethod
    def from_dict(cls, obj, where="config"):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object")
        nodes = _pairs(obj, "data", where, "[x, y]", _number)
        spans = _pairs(obj, "domains", where, "[start_node, end_node]", _int)
        raw = _list(_require(obj, "region_domains", where), f"{where}.region_domains",
                    "a list of domain indices")
        domain_of = tuple(_int(k, f"{where}.region_domains[{i}]") for i, k in enumerate(raw))
        try:
            data = InterpolationData(tuple(x for x, _ in nodes), tuple(y for _, y in nodes))
            domains = DomainSpec(spans)
            assignment = RegionAssignment(domain_of)
        except ModelError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        raw_scaling = _require(obj, "scaling", where)
        if isinstance(raw_scaling, list):
            scaling = tuple(_spec(s, f"{where}.scaling[{i}]")
                            for i, s in enumerate(raw_scaling))
        else:
            scaling = (_spec(raw_scaling, f"{where}.scaling"),)
        range_map = (_spec(obj["range_map"], f"{where}.range_map")
                     if "range_map" in obj else identity())
        base = obj.get("base", "interpolate")
        base = None if base == "interpolate" else _spec(base, f"{where}.base")
        interp = obj.get("interpolant", "interpolate")
        interp = None if interp == "interpolate" else _spec(interp, f"{where}.interpolant")
        flip = None
        if "flip" in obj:
            raw = _list(obj["flip"], f"{where}.flip", "a list of booleans")
            flip = tuple(_boolean(f, f"{where}.flip[{i}]") for i, f in enumerate(raw))
        depth = _integer(obj, "depth", f"{where}.depth", None)
        if depth is not None and depth < 0:
            raise ConfigError(f"{where}.depth: must be >= 0")
        return cls(data, domains, assignment, scaling, range_map, base, interp,
                   flip, depth)

    def build(self):
        return build_model(self.data, self.domains, self.assignment, self.scaling,
                           self.range_map, self.base, self.interpolant, self.flip)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    out_dir: str | None = None
    curve: CurveModelConfig | None = None
    scales: tuple | None = None          # (r_lo, r_hi) for analyze
    x_curves: tuple = ()                 # ((CurveModelConfig, BivariateSpec), ...)
    y_curves: tuple = ()
    resolution: int = 256
    obj: bool = False


def parse_config(obj):
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected a JSON object")
    mode = _require(obj, "mode", "top level")
    out_dir = obj.get("out_dir")

    if mode in ("curve", "analyze"):
        curve = CurveModelConfig.from_dict(obj, "config")
        scales = None
        if mode == "analyze":
            raw = obj.get("scales", {})
            if not isinstance(raw, dict):
                raise ConfigError("scales: expected an object with r_lo/r_hi")
            r_lo = _integer(raw, "r_lo", "scales.r_lo", 2)
            r_hi = _integer(raw, "r_hi", "scales.r_hi", 6)
            if r_lo < 1:
                raise ConfigError(f"scales.r_lo: must be >= 1, got {r_lo}")
            if r_hi < r_lo + 2:
                raise ConfigError(f"scales.r_hi: must be >= r_lo + 2 (a fit needs "
                                  f"3 scales), got r_lo {r_lo}, r_hi {r_hi}")
            scales = (r_lo, r_hi)
        return RunConfig(mode=mode, out_dir=out_dir, curve=curve, scales=scales)

    if mode == "surface":
        def layers(key):
            out = []
            raw = _list(obj.get(key, []), key, "a list of {curve, coeff} layers")
            for i, entry in enumerate(raw):
                if not isinstance(entry, dict) or "curve" not in entry or "coeff" not in entry:
                    raise ConfigError(f"{key}[{i}]: needs 'curve' and 'coeff'")
                model = CurveModelConfig.from_dict(entry["curve"], f"{key}[{i}].curve")
                coeff = _bivariate(entry["coeff"], f"{key}[{i}].coeff")
                out.append((model, coeff))
            return tuple(out)

        x_curves = layers("x_curves")
        y_curves = layers("y_curves")
        if not x_curves and not y_curves:
            raise ConfigError("surface config needs at least one of x_curves/y_curves")
        resolution = _integer(obj, "resolution", "resolution", 256)
        if resolution < 2:
            raise ConfigError("resolution: must be >= 2")
        return RunConfig(mode=mode, out_dir=out_dir, x_curves=x_curves,
                         y_curves=y_curves, resolution=resolution,
                         obj=_boolean(obj.get("obj", False), "obj"))

    raise ConfigError(f"mode: expected 'curve', 'surface' or 'analyze', got {mode!r}")
