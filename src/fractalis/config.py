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
`rifs.plan_depth` plans a missing depth: x gaps of at most a quarter of
the finest mesh served (analyze scale or surface cell); a curve gets 8.
An optional "out_dir" must be a string.
Bivariate specs are {"terms": [{"fx": spec, "fy": spec}, ...]} or the
shortcuts {"of_x": spec} / {"of_y": spec}; spec parameters must be JSON
numbers and lists (`catalog.scalar_from_json`).
Parsing checks JSON types, naming a bad value's path; the model fields
are kept as parsed and `CurveModelConfig.build` passes them to
`rifs.build_model`, which checks the data and the wiring.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import FunctionSpecError, bivariate_from_json, scalar_from_json
from .rifs import build_model

__all__ = ["ConfigError", "CurveModelConfig", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Configuration document rejected; the message names the field."""


def _require(obj, key, where):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return obj[key]


_JSON_TYPES = {"an integer": int, "a number": (int, float), "a boolean": bool}


def _json(value, where, what):
    """value, which must be JSON `what`: "an integer", "a number" or "a
    boolean".  A bool is only a boolean; strings and null are none of them."""
    if not isinstance(value, _JSON_TYPES[what]) or isinstance(value, bool) != (what == "a boolean"):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _integer(obj, key, where, default):
    """obj[key], which must be a JSON integer, or default when the key is absent."""
    return _json(obj[key], where, "an integer") if key in obj else default


def _list(value, where, what, length=None):
    """value, which must be a JSON list, of `length` items when given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _pairs(obj, key, where, names, what):
    """obj[key]: a list of two-item lists `names` of JSON `what` (see `_json`)."""
    raw = _list(_require(obj, key, where), f"{where}.{key}", f"a list of pairs {names}")
    return tuple(
        tuple(_json(v, f"{where}.{key}[{i}][{j}]", what) for j, v in enumerate(
            _list(pair, f"{where}.{key}[{i}]", f"a pair {names}", 2)))
        for i, pair in enumerate(raw))


def _spec(obj, where, parse=scalar_from_json):
    """parse(obj), a catalog JSON decoder, with its error named after `where`."""
    try:
        return parse(obj)
    except FunctionSpecError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class CurveModelConfig:
    """A curve model's `rifs.build_model` keyword arguments, and its depth."""
    arguments: dict
    depth: int | None   # None: planned by the command (see the module docstring)

    @classmethod
    def from_dict(cls, obj, where="config"):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object")
        data = _pairs(obj, "data", where, "[x, y]", "a number")
        domains = _pairs(obj, "domains", where, "[start_node, end_node]", "an integer")
        raw = _list(_require(obj, "region_domains", where), f"{where}.region_domains",
                    "a list of domain indices")
        domain_of = tuple(_json(k, f"{where}.region_domains[{i}]", "an integer")
                          for i, k in enumerate(raw))
        raw_scaling = _require(obj, "scaling", where)
        if isinstance(raw_scaling, list):
            scaling = tuple(_spec(s, f"{where}.scaling[{i}]") for i, s in enumerate(raw_scaling))
        else:
            scaling = (_spec(raw_scaling, f"{where}.scaling"),)
        range_map = _spec(obj["range_map"], f"{where}.range_map") if "range_map" in obj else None
        base = obj.get("base", "interpolate")
        base = None if base == "interpolate" else _spec(base, f"{where}.base")
        interp = obj.get("interpolant", "interpolate")
        interp = None if interp == "interpolate" else _spec(interp, f"{where}.interpolant")
        flip = None
        if "flip" in obj:
            raw = _list(obj["flip"], f"{where}.flip", "a list of booleans")
            flip = tuple(_json(f, f"{where}.flip[{i}]", "a boolean") for i, f in enumerate(raw))
        depth = _integer(obj, "depth", f"{where}.depth", None)
        if depth is not None and depth < 0:
            raise ConfigError(f"{where}.depth: must be >= 0")
        return cls(dict(data=data, domains=domains, domain_of=domain_of, scaling=scaling,
                        range_map=range_map, base=base, interpolant=interp, flip=flip), depth)

    def build(self):
        """The model; a ModelError names the data or wiring fault."""
        return build_model(**self.arguments)


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
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a string, got {out_dir!r}")

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
                coeff = _spec(entry["coeff"], f"{key}[{i}].coeff", bivariate_from_json)
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
                         obj=_json(obj.get("obj", False), "obj", "a boolean"))

    raise ConfigError(f"mode: expected 'curve', 'surface' or 'analyze', got {mode!r}")
