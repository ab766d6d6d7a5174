"""Seeded inputs, their preconditions, the pass each workload runs, and output checks.

Every workload has fixed structural sizes (regions, depths, resolutions,
scales); the seed only draws data values, scaling constants and the
region-to-domain wiring, so runs on different seeds do the same amount of
work.  The program sees only the generated JSON configs.

Most layers have one workload where they do most of the work and at least
one where they do little or none.  Model construction, certification and
dimension bounds lead no workload: the wide model that exercises them runs
inside analyze, because alone its timings spread too far to bound.

The checks never trust the program's own numbers: point counts come from
the refinement recursion p' = sum(feeder points) - (feeders - 1), exact
dimensions from numpy eigenvalues of diag(s) @ C, and file layouts from
the documented PGM/OBJ formats.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

# one-line reasons; BENCHMARK.json carries the same text
WHY = {
    "export": "io float formatting (curve CSV, surface OBJ) is nearly all the cost; no dimension estimate runs",
    "analyze": "box counting of two exact 4.2 M-point models, plus certification and O(n^4) bounds of a 96-region model",
    "surface": "eval_surface, box_count_surface and write_pgm work on 2049^2 float64 height fields",
}
WORKLOADS = tuple(WHY)

EXPORT_DEPTH = 16            # 4 regions x 2 maps: 4 * 2^16 + 1 = 262145 points
EXPORT_RESOLUTION = 384
EXPORT_SURFACE_DEPTH = 9
ANALYZE_DEPTH = 10           # 4 regions, each fed by all 4: 4^11 + 1 = 4194305 points
SCALES = {"r_lo": 2, "r_hi": 6}
SURFACE_RESOLUTION = 2048
SURFACE_DEPTH = 11           # x gap 2^-13 = 1 / (4 * 2048), the eval_surface limit
SURFACE_DELTAS = tuple(2.0 ** -k for k in range(2, 9))
WIDE_REGIONS = 96
WIDE_DEPTH = 8

# (op id, command, config file); an op's artifacts go to <out>/<op id>/
PASSES = {
    "export": (("curve", "curve", "curve.json"), ("surface", "surface", "surface.json")),
    "analyze": (("model1", "analyze", "model1.json"), ("model2", "analyze", "model2.json"),
                ("wide", "analyze", "wide.json")),
    "surface": (("surface", "surface", "surface.json"), ("estimate", "estimate", "surface.json")),
}

EXACT_TOL = 1e-9


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _const(value):
    return {"kind": "constant", "value": value}


# ---------------------------------------------------------------------------
# independent reference values
# ---------------------------------------------------------------------------

def _scalings(doc):
    raw = doc["scaling"]
    if isinstance(raw, dict):
        raw = [raw] * len(doc["region_domains"])
    return [spec["value"] if spec["kind"] == "constant" else None for spec in raw]


def connection(doc):
    """C[i, j] = 1 iff region j lies in the source domain of region i."""
    n = len(doc["region_domains"])
    C = np.zeros((n, n))
    for i, k in enumerate(doc["region_domains"]):
        s, e = doc["domains"][k]
        C[i, s:e] = 1.0
    return C


def irreducible(C):
    """Strong connectivity of the support digraph: every node reaches 0 and 0 reaches all."""
    A = np.asarray(C) > 0
    for M in (A, A.T):
        seen = np.zeros(len(A), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = M[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def closed_form(doc):
    """Exact box dimension 1 + log_a rho(diag(s) C) of a constant-scaling uniform model."""
    (a,) = {e - s for s, e in doc["domains"]}
    rho = float(np.abs(np.linalg.eigvals(np.diag(_scalings(doc)) @ connection(doc))).max())
    return 1.0 + math.log(rho) / math.log(a) if rho > 1.0 else 1.0


def predicted_points(doc, depth):
    """Per-region sample counts after `depth` refinements (shared endpoints counted once)."""
    spans, dom = doc["domains"], doc["region_domains"]
    p = [2] * len(dom)
    for _ in range(depth):
        p = [sum(p[s:e]) - (e - s - 1) for s, e in (spans[k] for k in dom)]
    return p


def curve_problems(doc):
    """Why a curve config lacks a closed-form dimension above 1, or [] when it has one."""
    problems = []
    xs = [x for x, _ in doc["data"]]
    n = len(xs) - 1
    if any(x != i / n for i, x in enumerate(xs)):
        problems.append("nodes are not uniform on [0, 1]")
    if len({e - s for s, e in doc["domains"]}) != 1:
        problems.append("domains differ in width")
    s = _scalings(doc)
    if None in s or not all(0.0 < abs(v) < 1.0 for v in s):
        problems.append("scaling is not a per-region constant with 0 < |s| < 1")
        return problems
    C = connection(doc)
    if not irreducible(C):
        problems.append("connection pattern is reducible")
        return problems
    ys = [y for _, y in doc["data"]]
    if all(abs((xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (xs[i + 2] - xs[i]) * (ys[i + 1] - ys[i]))
           <= 1e-9 * max(1.0, abs(ys[i + 1]))
           for ds, de in doc["domains"] for i in range(ds, de - 1)):
        problems.append("every domain's nodes are collinear")
    if closed_form(doc) <= 1.0:
        problems.append("growth rate <= 1: the dimension is the trivial 1")
    return problems


def check_preconditions(workload, docs):
    """Problems that would make a workload's input unfit to time, [] when fit."""
    problems = []
    for name, doc in docs.items():
        if doc["mode"] == "surface":
            limit = Fraction(1, 4 * doc["resolution"])
            for axis in ("x_curves", "y_curves"):
                for i, layer in enumerate(doc[axis]):
                    curve = layer["curve"]
                    problems += [f"{name} {axis}[{i}]: {p}" for p in curve_problems(curve)]
                    (a,) = {e - s for s, e in curve["domains"]}
                    gap = Fraction(1, len(curve["region_domains"]) * a ** curve["depth"])
                    if gap > limit:
                        problems.append(f"{name} {axis}[{i}]: depth {curve['depth']} leaves "
                                        f"x gap {gap} above 1/(4*resolution) = {limit}")
        else:
            problems += [f"{name}: {p}" for p in curve_problems(doc)]
    return problems


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def _four_region_curve(rng, depth):
    """4 uniform regions, two 2-region domains, per-region constant scaling in [0.55, 0.9]."""
    while True:
        doc = {
            "data": [[i / 4, round(rng.uniform(0.0, 50.0), 3)] for i in range(5)],
            "domains": [[0, 2], [2, 4]],
            "region_domains": [rng.randrange(2) for _ in range(4)],
            "scaling": [_const(round(rng.uniform(0.55, 0.9), 4)) for _ in range(4)],
            "depth": depth,
        }
        if not curve_problems(doc):
            return doc


def _analyze_model(rng):
    """The exact constant-scaling family: one domain, 4 maps per region, s in [0.3, 0.9]."""
    while True:
        doc = {
            "mode": "analyze",
            "data": [[i / 4, round(rng.uniform(0.0, 50.0), 3)] for i in range(5)],
            "domains": [[0, 4]],
            "region_domains": [0, 0, 0, 0],
            "scaling": _const(round(rng.uniform(0.3, 0.9), 4)),
            "depth": ANALYZE_DEPTH,
            "scales": dict(SCALES),
        }
        if not curve_problems(doc):
            return doc


def _surface(rng, resolution, depth, obj):
    def layer():
        coeff = round(rng.uniform(0.3, 1.0), 3)
        return {"curve": _four_region_curve(rng, depth),
                "coeff": {"terms": [{"fx": _const(coeff), "fy": _const(1.0)}]}}
    return {"mode": "surface", "resolution": resolution, "obj": obj,
            "x_curves": [layer()], "y_curves": [layer()]}


def _wide(rng):
    """WIDE_REGIONS regions on a cubic, half as many two-region domains, each used by two regions.

    The cubic itself is the interpolant (the default Lagrange interpolant is
    refused at this many nodes); the base adds a sine that vanishes on every
    domain endpoint, so base and interpolant agree exactly where they must.
    """
    n = WIDE_REGIONS
    while True:
        coeffs = [round(rng.uniform(-1.0, 1.0), 4) for _ in range(4)]
        cubic = {"kind": "polynomial", "coefficients": coeffs}
        sine = {"kind": "sinusoid", "amplitude": round(rng.uniform(0.05, 0.5), 3),
                "omega": (n // 2) * math.pi, "phase": 0.0, "wave": "sin"}
        data = [[i / n, sum(c * (i / n) ** k for k, c in enumerate(coeffs))]
                for i in range(n + 1)]
        wiring = list(range(n // 2)) * 2
        rng.shuffle(wiring)
        doc = {
            "mode": "analyze",
            "data": data,
            "domains": [[2 * k, 2 * k + 2] for k in range(n // 2)],
            "region_domains": wiring,
            "scaling": [_const(round(rng.uniform(0.6, 0.95), 4)) for _ in range(n)],
            "interpolant": cubic,
            "base": {"kind": "sum", "terms": [cubic, sine]},
            "depth": WIDE_DEPTH,
            "scales": dict(SCALES),
        }
        if not curve_problems(doc):
            return doc


def generate(workload, seed):
    """{config file name: config document} for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "export":
        curve = dict(_four_region_curve(rng, EXPORT_DEPTH), mode="curve")
        return {"curve.json": curve,
                "surface.json": _surface(rng, EXPORT_RESOLUTION, EXPORT_SURFACE_DEPTH, True)}
    if workload == "analyze":
        return {"model1.json": _analyze_model(rng), "model2.json": _analyze_model(rng),
                "wide.json": _wide(rng)}
    if workload == "surface":
        return {"surface.json": _surface(rng, SURFACE_RESOLUTION, SURFACE_DEPTH, False)}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(docs, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (directory / name).write_text(dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _estimate_surface(config_path, target):
    """Library path: rebuild the CLI's height field and box-count it over SURFACE_DELTAS."""
    from fractalis import config, surface

    with open(config_path, encoding="utf-8") as fh:
        cfg = config.parse_config(json.load(fh))

    def layers(entries):
        return tuple(surface.SurfaceLayer(surface.CurveSamples.from_model(mc.build(), mc.depth), coeff)
                     for mc, coeff in entries)

    field = surface.eval_surface(surface.SurfaceSpec(layers(cfg.x_curves), layers(cfg.y_curves)),
                                 cfg.resolution)
    report = surface.estimate_surface_dimension(field, SURFACE_DELTAS)
    target.mkdir(parents=True, exist_ok=True)
    payload = {"estimate": report.estimate, "r_squared": report.r_squared,
               "deltas": list(report.series.deltas), "counts": list(report.series.counts),
               "height_min": float(field.heights.min()), "height_max": float(field.heights.max())}
    (target / "estimate.json").write_text(dumps(payload), encoding="utf-8")


def run_pass(workload, inputs, out):
    """Run every op of one pass; returns [{"op": id, "error": None or message}]."""
    from fractalis import cli

    results = []
    for op, command, config in PASSES[workload]:
        target = out / op
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if command == "estimate":
                    _estimate_surface(inputs / config, target)
                else:
                    code = cli.main([command, "--config", str(inputs / config),
                                     "--out-dir", str(target)])
                    if code != 0:
                        error = f"exit code {code}"
        except Exception as exc:  # a failed op is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        results.append({"op": op, "error": error})
    return results


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _check_curve(directory, doc):
    from fractalis import config, rifs

    depth = doc["depth"]
    per_region = predicted_points(doc, depth)
    total = sum(per_region) - (len(per_region) - 1)
    raw = (directory / "curve.csv").read_bytes()
    lines = raw.count(b"\n")
    if lines != total:
        return [f"curve.csv has {lines} lines, predicted {total}"], None
    xy = np.array([float(v) for v in raw.replace(b",", b" ").split()]).reshape(-1, 2)
    outcome = {"values_sha256": hashlib.sha256(xy.tobytes()).hexdigest()}
    problems = []
    if not np.all(np.diff(xy[:, 0]) > 0):
        problems.append("curve.csv x values are not strictly increasing")
    model = config.parse_config(doc).curve.build()
    gx, gy = rifs.merged_curve(rifs.refine_attractor(model, depth))
    if not (np.array_equal(xy[:, 0], gx) and np.array_equal(xy[:, 1], gy)):
        problems.append("curve.csv does not parse back to refine_attractor's arrays")
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    if report["points_per_region"] != per_region or report["points_total"] != total:
        problems.append("report.json point counts differ from the prediction")
    return problems, outcome


def _estimated(estimate, exact):
    return {"estimate": estimate, "abs_err": abs(estimate - exact)}


def _check_dimension(directory, doc):
    """(problems, outcome) for an analyze run."""
    payload = json.loads((directory / "dimension.json").read_text(encoding="utf-8"))
    exact = closed_form(doc)
    problems = []
    if payload["exact"] is None or abs(payload["exact"] - exact) > EXACT_TOL:
        problems.append(f"dimension.json exact {payload['exact']} != closed form {exact!r}")
    series = payload["series"]
    rows = [line.split(",") for line in
            (directory / "boxcounts.csv").read_text(encoding="utf-8").splitlines()]
    if ([float(d) for d, _ in rows] != series["deltas"]
            or [int(c) for _, c in rows] != series["counts"]):
        problems.append("boxcounts.csv differs from the dimension.json series")
    requested = doc["scales"]["r_hi"] - doc["scales"]["r_lo"] + 1
    if not 3 <= len(series["deltas"]) <= requested:
        problems.append(f"{len(series['deltas'])} of {requested} scales kept")
    if payload["estimate"] is None:
        problems.append("dimension.json has no estimate")
        return problems, None
    return problems, _estimated(payload["estimate"], exact)


def surface_exact(doc):
    return 1.0 + max(closed_form(layer["curve"]) for layer in doc["x_curves"] + doc["y_curves"])


def _check_surface(directory, doc):
    m = doc["resolution"]
    problems = []
    raw = (directory / "surface.pgm").read_bytes()
    header = f"P5\n{m + 1} {m + 1}\n65535\n".encode("ascii")
    if not raw.startswith(header) or len(raw) != len(header) + 2 * (m + 1) ** 2:
        problems.append("surface.pgm header or size is not P5 with (m+1)^2 16-bit samples")
    else:
        px = np.frombuffer(raw, dtype=">u2", offset=len(header))
        if px.min() != 0 or px.max() != 65535:
            problems.append("surface.pgm samples do not span the report's min..max")
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    if report["resolution"] != m or not report["height_min"] < report["height_max"]:
        problems.append("report.json resolution or height range is wrong")
    formula = report["formula_dimension"] or {}
    exact = surface_exact(doc)
    if formula.get("exact") is None or abs(formula["exact"] - exact) > EXACT_TOL:
        problems.append(f"report.json formula exact {formula.get('exact')} != closed form {exact!r}")
    if doc["obj"]:
        obj = (directory / "surface.obj").read_bytes()
        nv = obj.count(b"\nv ") + obj.startswith(b"v ")
        nf = obj.count(b"\nf ")
        if (nv, nf) != ((m + 1) ** 2, 2 * m * m) or obj.count(b"\n") != nv + nf:
            problems.append(f"surface.obj has {nv} vertices and {nf} faces, "
                            f"expected {(m + 1) ** 2} and {2 * m * m}")
    return problems, report


def check_outputs(workload, docs, out):
    """({op id: [problem, ...]}, {op id: outcome}) for one pass.

    An outcome is what a performance change must leave exactly unchanged:
    a dimension estimate with its |estimate - exact|, or the sha256 of the
    curve values.  Ops without one (surface files) are checked only.
    """
    problems = {op: [] for op, _, _ in PASSES[workload]}
    outcomes = {}
    for op, command, config in PASSES[workload]:
        directory, doc = out / op, docs[config]
        try:
            if command == "curve":
                found, outcomes[op] = _check_curve(directory, doc)
            elif command == "analyze":
                found, outcomes[op] = _check_dimension(directory, doc)
            elif command == "surface":
                found = _check_surface(directory, doc)[0]
            else:
                found = []
                est = json.loads((directory / "estimate.json").read_text(encoding="utf-8"))
                report = json.loads((out / "surface" / "report.json").read_text(encoding="utf-8"))
                if (est["height_min"], est["height_max"]) != (report["height_min"], report["height_max"]):
                    found.append("estimate field extrema differ from report.json")
                if est["estimate"] is None:
                    found.append("no surface estimate")
                    outcomes[op] = None
                else:
                    outcomes[op] = _estimated(est["estimate"], surface_exact(doc))
            problems[op] += found
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems[op].append(f"unreadable output: {type(exc).__name__}: {exc}")
            outcomes.setdefault(op, None)
    return problems, outcomes


def dim_abs_err(workload, outcomes):
    """Largest |estimate - exact| of a pass; None without estimates or when one is missing."""
    estimating = [op for op, command, _ in PASSES[workload] if command in ("analyze", "estimate")]
    errors = [(outcomes.get(op) or {}).get("abs_err") for op in estimating]
    return max(errors) if errors and None not in errors else None
