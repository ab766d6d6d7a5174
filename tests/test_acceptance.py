"""Acceptance suite.

One test per criterion; each prints a PASS line with its runtime budget
(run with ``pytest -s`` to see them while green).  Tolerances are pinned
here, not configurable.
"""
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import fractalis as fx
from fractalis.config import parse_config

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
DIM_06 = 1.0 + math.log(2.4, 4)   # closed form for constant scaling 0.6, 4 maps


class Timer:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} "
              f"({elapsed:.2f}s of {self.limit:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")


def load_fixture_models():
    """Every curve model shipped in fixtures/, keyed by fixture and role."""
    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        cfg = parse_config(json.loads(path.read_text()))
        if cfg.mode in ("curve", "analyze"):
            out[path.stem] = [cfg.curve.build()]
        else:
            out[path.stem] = [mc.build() for mc, _ in cfg.x_curves + cfg.y_curves]
    return out


@pytest.fixture(scope="module")
def fixture_models():
    return load_fixture_models()


@pytest.fixture(scope="module")
def model_s06():
    return fx.build_model(DATA, [(0, 4)], [0, 0, 0, 0], fx.Constant(0.6))


def test_criterion_01_interpolation_exactness(fixture_models):
    with Timer(1, "interpolation-exactness", 1.0):
        for name, models in fixture_models.items():
            for model in models:
                gx, gy = fx.merged_curve(fx.refine_attractor(model, 6))
                for x, y in zip(model.data.xs, model.data.ys):
                    hits = np.nonzero(gx == x)[0]
                    assert hits.size == 1, f"{name}: node x={x} missing"
                    assert abs(gy[hits[0]] - y) <= 1e-12 * (1.0 + abs(y))


def test_criterion_02_fixed_point_residual(fixture_models):
    with Timer(2, "fixed-point-residual", 10.0):
        for name, models in fixture_models.items():
            for model in models:
                span = model.y_envelope[1] - model.y_envelope[0]
                residuals = {d: fx.functional_residual(model, fx.refine_attractor(model, d))
                             for d in range(4, 11)}
                assert residuals[8] <= 1e-6 * span, f"{name}: residual {residuals[8]}"
                for d in range(4, 10):
                    assert residuals[d + 1] <= residuals[d] + 1e-15 * span, (
                        f"{name}: residual rose from depth {d} to {d + 1}")


def test_criterion_03_closed_form_prediction(model_s06):
    with Timer(3, "constant-scaling-closed-form", 60.0):
        bounds = fx.curve_dimension_bounds(model_s06)
        assert bounds.exact == pytest.approx(DIM_06, abs=1e-9)
        assert bounds.exact == pytest.approx(1.6315172, abs=1e-6)
        report, _ = fx.estimate_curve_dimension(model_s06, 2, 6, depth=10)
        assert report.series.deltas == tuple(4.0 ** -r / 4 for r in range(2, 7))
        assert abs(report.estimate - DIM_06) <= 0.10
        assert report.r_squared >= 0.995


def test_criterion_04_dimension_one_case():
    with Timer(4, "dimension-one-case", 60.0):
        model = fx.build_model(DATA, [(0, 4)], [0, 0, 0, 0], fx.Constant(0.2))
        bounds = fx.curve_dimension_bounds(model)
        assert bounds.exact == 1.0
        report, _ = fx.estimate_curve_dimension(model, 2, 6, depth=9)
        assert abs(report.estimate - 1.0) <= 0.10


def test_criterion_05_envelope_bracket():
    with Timer(5, "envelope-bracket", 120.0):
        model = fx.build_model(DATA, [(0, 2), (2, 4)], [0, 1, 0, 1],
                               fx.Sinusoid(1.0, 8 * math.pi, 0.0, "cos"))
        lo, hi = model.scale_range.T
        assert lo.min() < hi.max(), "envelopes must be nondegenerate"
        bounds = fx.curve_dimension_bounds(model)
        report, _ = fx.estimate_curve_dimension(model, 2, 6, depth=12)
        assert bounds.lower_bound - 0.10 <= report.estimate <= bounds.upper_bound + 0.10


def test_criterion_06_surface_composition(model_s06):
    with Timer(6, "surface-composition", 300.0):
        f = fx.CurveSamples.from_model(model_s06, 10)
        lx = np.linspace(0.0, 1.0, 2 ** 14 + 1)
        line = fx.CurveSamples(lx, 20.0 - 10.0 * lx)
        one = fx.BivariateSpec((fx.SeparableTerm(fx.Constant(1.0), fx.Constant(1.0)),))
        spec = fx.SurfaceSpec((fx.SurfaceLayer(f, one),),
                              (fx.SurfaceLayer(line, one),))
        field = fx.eval_surface(spec, 4096)
        report = fx.estimate_surface_dimension(field, [2.0 ** -r for r in range(3, 8)])
        predicted = fx.composed_surface_dimension([DIM_06, 1.0])
        assert predicted == pytest.approx(1.0 + DIM_06)
        assert abs(report.estimate - predicted) <= 0.15


def test_criterion_07_coefficient_invariance(model_s06):
    with Timer(7, "coefficient-invariance", 120.0):
        report_f, plan = fx.estimate_curve_dimension(model_s06, 2, 6, depth=10)
        gx, gy = fx.merged_curve(fx.refine_attractor(model_s06, plan.depth))
        coeff = fx.Sum((fx.Sinusoid(1.0, 14 * math.pi, 0.0, "cos"), fx.Constant(2.0)))
        # certified lower bound on min|coeff| is outward but must stay well above 0
        assert fx.abs_extrema(coeff, (0.0, 1.0))[0] >= 0.9
        scaled = coeff(gx) * gy
        deltas = fx.curve_scale_schedule(model_s06, 2, 6)
        counts = [fx.box_count_graph(gx, scaled, d) for d in deltas]
        est, _ = fx.fit_dimension(fx.BoxCountSeries(tuple(deltas[1:]), tuple(counts[1:])))
        assert abs(est - report_f.estimate) <= 0.10


def test_criterion_08_growth_rate_oracle():
    with Timer(8, "growth-rate-oracle", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            perm = rng.permutation(n)
            for i in range(n):
                A[perm[i], perm[(i + 1) % n]] = rng.random() + 0.05
            rho = fx.spectral_radius(A)
            oracle = float(max(abs(np.linalg.eigvals(A))))
            assert abs(rho - oracle) <= 1e-8
            i, j = rng.integers(0, n, 2)
            B = A.copy()
            B[i, j] += rng.random()
            assert fx.spectral_radius(B) >= rho - 1e-10


def test_criterion_09_irreducibility_oracle():
    def reachable_everywhere(S):
        n = S.shape[0]
        for start in range(n):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in np.nonzero(S[u])[0]:
                    if v not in seen:
                        seen.add(int(v))
                        stack.append(int(v))
            if len(seen) != n:
                return False
        return True

    with Timer(9, "irreducibility-oracle", 10.0):
        for bits in itertools.product([0, 1], repeat=9):
            A = np.array(bits, dtype=float).reshape(3, 3)
            assert fx.check_irreducible(A) == reachable_everywhere(A > 0)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            A = (rng.random((8, 8)) < rng.uniform(0.05, 0.5)).astype(float)
            assert fx.check_irreducible(A) == reachable_everywhere(A > 0)


def test_criterion_10_oscillation_bound(fixture_models):
    with Timer(10, "oscillation-bound", 60.0):
        for name, models in fixture_models.items():
            for model in models:
                checks = fx.variation_bound_report(model, fx.refine_attractor(model, 8))
                for c in checks:
                    assert c.ok, f"{name} region {c.region}: {c.lhs} > {c.rhs}"


def test_criterion_11_estimator_calibration():
    with Timer(11, "estimator-calibration", 10.0):
        for exponent in (1.0, 1.5, 2.0):
            deltas = tuple(4.0 ** -r for r in (2, 3, 4))
            counts = tuple(round(4.0 ** (exponent * r)) for r in (2, 3, 4))
            est, r2 = fx.fit_dimension(fx.BoxCountSeries(deltas, counts))
            assert abs(est - exponent) <= 1e-12
            assert r2 >= 1.0 - 1e-12
