"""JSON run configurations: the one reader of the config format.

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
    depth           optional refinement depth, a JSON integer >= 0; else
                    `rifs.plan_depth` plans it (8 for a curve)

Mode "curve" adds nothing.  Mode "analyze" adds optional "scales":
{"r_lo": 2, "r_hi": 6}, JSON integers with 1 <= r_lo and r_lo + 2 <= r_hi
(a fit needs three scales).  Mode "surface" replaces the model fields
with "x_curves"/"y_curves", each entry {"curve": {model fields},
"coeff": bivariate spec}, plus an integer "resolution" (default 256) and
an optional JSON boolean "obj" (default false).
An optional "out_dir" must be a string.  Specs: `scalar_from_json`,
`bivariate_from_json`.  One reader per JSON type names a refused value's
path; a number (an int or float, not a bool) must lie in float range,
and an object refuses a field it does not know.  `CurveModelConfig.build`
passes the parsed model fields to `rifs.build_model`, which checks them.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial

from .catalog import (Affine, BivariateSpec, Constant, FunctionSpecError, LagrangeNodes,
                      Polynomial, Scaled, SeparableTerm, Sinusoid, Sum)
from .rifs import build_model

__all__ = ["ConfigError", "CurveModelConfig", "RunConfig", "bivariate_from_json",
           "load_config", "parse_config", "scalar_from_json"]


class ConfigError(ValueError):
    """Configuration document rejected; the message names the field."""


# reader(value, where) returns what JSON `value` at path `where` holds, or
# raises ConfigError naming `where`; a spec's paths start at "" (see `_spec`)

_TOP = "top level"
_REQUIRED = object()   # the default of a field that must be present


def _fail(where, problem):
    return ConfigError(f"{where}: {problem}" if where else problem)


def _at(where, key):
    return key if where in ("", _TOP) else f"{where}.{key}"


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # refuses NaN, +/-Infinity, 1e400 and 10**400
        raise _fail(where, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, where, least=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"expected an integer, got {value!r}")
    _number(value, where)
    if least is not None and value < least:
        raise _fail(where, f"must be >= {least}")
    return value


def _check(test, what):
    """Reader of a value that passes `test`, refused as not `what`."""
    def read(value, where):
        if not test(value):
            raise _fail(where, f"expected {what}, got {value!r}")
        return value
    return read


def _choice(*options):
    return _check(lambda value: value in options,
                  ", ".join(map(repr, options[:-1])) + f" or {options[-1]!r}")


_BOOLEAN = _check(lambda value: isinstance(value, bool), "a boolean")


def _list(item, what="a list", length=None):
    """Reader of a JSON list (of `length` items, when given) of `item`s, as a tuple."""
    def read(value, where):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise _fail(where, f"expected {what}, got {value!r}")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return read


def _object(value, where, fields, prefix=""):
    """The fields of JSON object `value`, each read by its reader: `fields` maps
    every field it may hold to (reader, default); `prefix` leads its own refusals."""
    if not isinstance(value, dict):
        raise _fail(where, f"expected an object, got {value!r}")
    for key in value:
        if key not in fields:
            raise _fail(where, f"{prefix}unknown field {key!r}")
    read = {}
    for key, (reader, default) in fields.items():
        if key in value:
            read[key] = reader(value[key], _at(where, key))
        elif default is _REQUIRED:
            raise _fail(where, f"{prefix}missing required field {key!r}")
        else:
            read[key] = default
    return read


def _tag(value, where, key, reader):
    """Field `key` of object `value`, which says what other fields it may hold."""
    if isinstance(value, dict):
        value = {key: value[key]} if key in value else {}
    return _object(value, where, {key: (reader, _REQUIRED)})[key]


def scalar_from_json(obj, where=""):
    """Spec from its JSON form.  A ConfigError names the refused field's
    path below `where`, e.g. `terms[1].value: expected a number, got '0.5'`;
    a variant refuses its own parameters with FunctionSpecError."""
    kind = _tag(obj, where, "kind", _KIND)
    make, fields = _KINDS[kind]
    args = _object(obj, where, {"kind": (_KIND, _REQUIRED), **fields}, f"{kind!r} spec: ")
    return make(**{k: v for k, v in args.items() if k != "kind"})


_NUMBER = (_number, _REQUIRED)
_KINDS = {   # kind: (variant, its fields, named as the variant's parameters)
    "constant": (Constant, {"value": _NUMBER}),
    "affine": (Affine, {"slope": _NUMBER, "intercept": _NUMBER}),
    "polynomial": (Polynomial, {"coefficients": (_list(_number), _REQUIRED)}),
    "sinusoid": (Sinusoid, {"amplitude": _NUMBER, "omega": _NUMBER, "phase": (_number, 0.0),
                            "wave": (_choice("cos", "sin"), "cos")}),
    "lagrange": (LagrangeNodes, {"nodes": (_list(_list(_number, "a list of 2", 2)), _REQUIRED)}),
    "sum": (Sum, {"terms": (_list(scalar_from_json), _REQUIRED)}),
    "scaled": (Scaled, {"factor": _NUMBER, "spec": (scalar_from_json, _REQUIRED)}),
}
_KIND = _choice(*_KINDS)
_SCALAR = (scalar_from_json, _REQUIRED)


def _term(value, where):
    return SeparableTerm(**_object(value, where, {"fx": _SCALAR, "fy": _SCALAR}))


def bivariate_from_json(obj, where=""):
    """{"terms": [{"fx": spec, "fy": spec}, ...]}, or a one-term shortcut
    {"of_x": spec} or {"of_y": spec}, refused as by `scalar_from_json`."""
    forms = _object(obj, where, {"terms": (_list(_term, "a list of {fx, fy} terms"), ()),
                                 "of_x": (scalar_from_json, None),
                                 "of_y": (scalar_from_json, None)})
    if len(obj) != 1:
        raise _fail(where, "expected exactly one of the fields 'terms', 'of_x' and 'of_y'")
    if forms["of_x"] is not None:
        return BivariateSpec((SeparableTerm(forms["of_x"], Constant(1.0)),))
    if forms["of_y"] is not None:
        return BivariateSpec((SeparableTerm(Constant(1.0), forms["of_y"]),))
    return BivariateSpec(forms["terms"])


def _spec(value, where, decode=scalar_from_json):
    """A spec, refused as "config.scaling: terms[1].value: ..." below its field."""
    try:
        return decode(value)
    except (ConfigError, FunctionSpecError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _specs(value, where):   # one spec, or one per region
    return _list(_spec)(value, where) if isinstance(value, list) else (_spec(value, where),)


def _interpolate_or_spec(value, where):
    return None if value == "interpolate" else _spec(value, where)


_MODEL = {
    "data": (_list(_list(_number, "a pair [x, y]", 2), "a list of pairs [x, y]"), _REQUIRED),
    "domains": (_list(_list(_integer, "a pair [start_node, end_node]", 2),
                      "a list of pairs [start_node, end_node]"), _REQUIRED),
    "region_domains": (_list(_integer, "a list of domain indices"), _REQUIRED),
    "scaling": (_specs, _REQUIRED),
    "range_map": (_spec, None),
    "base": (_interpolate_or_spec, None),
    "interpolant": (_interpolate_or_spec, None),
    "flip": (_list(_BOOLEAN, "a list of booleans"), None),
    "depth": (partial(_integer, least=0), None),
}


@dataclass(frozen=True)
class CurveModelConfig:
    """A curve model's `rifs.build_model` keyword arguments, and its depth."""
    arguments: dict
    depth: int | None   # None: planned by the command (see the module docstring)

    @classmethod
    def from_dict(cls, obj, where="config"):
        arguments = _object(obj, where, _MODEL)
        arguments["domain_of"] = arguments.pop("region_domains")
        return cls(arguments, arguments.pop("depth"))

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


def _scales(value, where):
    r_lo, r_hi = _object(value, where, {"r_lo": (_integer, 2), "r_hi": (_integer, 6)}).values()
    if r_lo < 1:
        raise _fail(_at(where, "r_lo"), f"must be >= 1, got {r_lo}")
    if r_hi < r_lo + 2:
        raise _fail(_at(where, "r_hi"), f"must be >= r_lo + 2 (a fit needs 3 scales), "
                                         f"got r_lo {r_lo}, r_hi {r_hi}")
    return r_lo, r_hi


def _layer(value, where):   # (curve, coeff)
    fields = {"curve": (CurveModelConfig.from_dict, _REQUIRED),
              "coeff": (partial(_spec, decode=bivariate_from_json), _REQUIRED)}
    return tuple(_object(value, where, fields).values())


_MODE = _choice("curve", "surface", "analyze")
_LAYERS = (_list(_layer, "a list of {curve, coeff} layers"), ())


def parse_config(obj):
    """The run config document `obj` describes; a ConfigError names a refused field."""
    mode = _tag(obj, _TOP, "mode", _MODE)
    top = {"mode": (_MODE, _REQUIRED),
           "out_dir": (_check(lambda value: isinstance(value, str), "a string"), None)}
    if mode == "surface":
        run = _object(obj, _TOP, {**top, "x_curves": _LAYERS, "y_curves": _LAYERS,
                                  "resolution": (partial(_integer, least=2), 256),
                                  "obj": (_BOOLEAN, False)})
        if not run["x_curves"] and not run["y_curves"]:
            raise _fail(_TOP, "expected x_curves or y_curves, or both")
        return RunConfig(**run)
    if mode == "analyze":
        top["scales"] = (_scales, (2, 6))
    # the model fields sit beside the run's own at the top, as the object "config"
    run = _object({k: v for k, v in obj.items() if k in top}, _TOP, top)
    curve = CurveModelConfig.from_dict({k: v for k, v in obj.items() if k not in top})
    return RunConfig(curve=curve, **run)


def load_config(path):
    """parse_config of the JSON file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
