"""The sampling planner against refinement itself.

`plan_depth` predicts sample counts and x gaps without refining.  These
tests hold it to what `refine_attractor` produces, to the trial-refinement
loop it replaced for the `analyze` auto depth (kept below as the
reference, with the point limit as its one ceiling), and to the gap rule
`eval_surface` enforces.
"""
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Constant, CurveSamples, ModelError, build_model,
                       curve_scale_schedule, merged_curve)
from fractalis import rifs
from fractalis.config import parse_config
from fractalis.rifs import POINT_LIMIT, _depth_zero, _refine_step, plan_depth

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
EPS = np.finfo(np.float64).eps


def fixture_models():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        cfg = parse_config(json.loads(path.read_text()))
        curves = ([cfg.curve] if cfg.curve is not None
                  else [mc for mc, _ in cfg.x_curves + cfg.y_curves])
        out += [pytest.param(mc.build(), id=f"{path.stem}-{k}")
                for k, mc in enumerate(curves)]
    return out


FIXTURE_MODELS = fixture_models()
EXACT_FAMILY = [pytest.param(build_model(DATA, [(0, 4)], [0] * 4, Constant(s)), id=f"s{s}")
                for s in (0.3, 0.6, 0.95)]


@st.composite
def wirings(draw):
    """Random RIFS wirings: any span layout, flips, uniform or uneven nodes."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        xs = [i / n for i in range(n + 1)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, 47), min_size=n - 1, max_size=n - 1)))
        xs = [0.0] + [c / 48 for c in cuts] + [1.0]
    x0, span = draw(st.sampled_from([(0.0, 1.0), (2.0, 3.0), (-0.5, 0.3)]))
    xs = [x0 + span * x for x in xs]
    spans = [(s, draw(st.integers(s + 2, n)))
             for s in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=3))]
    gamma = draw(st.lists(st.integers(0, len(spans) - 1), min_size=n, max_size=n))
    flip = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    try:
        # linear data keep the default interpolants exact on any node layout
        return build_model([(x, 0.5 * x) for x in xs], spans, gamma, Constant(0.4),
                           flip=flip)
    except ModelError:
        return None   # some region is fed into no assigned domain


def trial_depth(model, spacing, limit):
    """The auto-depth loop the planner replaced: refine, measure, repeat.
    None once the curve holds more than `limit` points."""
    sampling = _depth_zero(model)
    while True:
        gx, _ = merged_curve(sampling)
        if gx.size > limit:
            return None
        if float(np.diff(gx).max()) <= spacing:
            return sampling.depth
        sampling = _refine_step(model, sampling)


def auto_depth(model, delta, limit):
    """plan_depth's depth for mesh width `delta` under POINT_LIMIT `limit`,
    None where it refuses."""
    with mock.patch.object(rifs, "POINT_LIMIT", limit):
        try:
            return plan_depth(model, delta=delta).depth
        except ModelError:
            return None


def assert_plans_match_refinement(model, max_depth=8, max_total=2 ** 17):
    xs = model.data.xs
    tol = 16 * EPS * max(abs(xs[0]), abs(xs[-1]))
    sampling = _depth_zero(model)
    while sampling.depth <= max_depth:
        plan = plan_depth(model, sampling.depth)
        assert plan.depth == sampling.depth
        assert plan.points == tuple(rx.size for rx, _ in sampling.regions)
        assert plan.total == merged_curve(sampling)[0].size
        for got, (rx, _) in zip(plan.gaps, sampling.regions):
            assert got == pytest.approx(float(np.diff(rx).max()), rel=1e-12, abs=tol)
        if plan_depth(model, sampling.depth + 1).total > max_total:
            break
        sampling = _refine_step(model, sampling)


def assert_auto_depth_matches_trial(model, r_hi, limit):
    delta = min(curve_scale_schedule(model, 2, r_hi))
    plan = auto_depth(model, delta, limit)
    ref = trial_depth(model, delta / 4.0, limit)
    if plan != ref:
        # only an exact tie can split them: the gap equals the spacing in
        # real arithmetic, and rounding decides each side's comparison; the
        # side that goes one depth further may meet the limit there
        d = min(x for x in (plan, ref) if x is not None)
        assert abs(plan_depth(model, d).gap - delta / 4.0) <= 1e-12 * delta
        assert None in (plan, ref) or abs(plan - ref) <= 1


class TestCountsAndGaps:
    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_models(self, model):
        assert_plans_match_refinement(model)

    @settings(max_examples=60, deadline=None)
    @given(wirings())
    def test_random_wirings(self, model):
        if model is not None:
            assert_plans_match_refinement(model)


class TestAutoDepth:
    @pytest.mark.parametrize("limit", [2 ** 16, 2 ** 20, 2 ** 23])
    @pytest.mark.parametrize("r_hi", [4, 5, 6])
    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_models_match_trial_loop(self, model, r_hi, limit):
        # at 2^16 the 4-map models' r_hi = 6 plan (65537 points) is refused
        delta = min(curve_scale_schedule(model, 2, r_hi))
        assert auto_depth(model, delta, limit) == trial_depth(model, delta / 4.0, limit)

    @settings(max_examples=60, deadline=None)
    @given(wirings(), st.sampled_from([4, 5, 6]),
           st.sampled_from([2 ** 10, 2 ** 14, 2 ** 18]))
    def test_random_wirings_match_trial_loop(self, model, r_hi, limit):
        if model is not None:
            assert_auto_depth_matches_trial(model, r_hi, limit)


class TestSurfaceDepth:
    @pytest.mark.parametrize("resolution", [16, 48, 64, 256, 384, 1024, 2048])
    @pytest.mark.parametrize("model", [
        *(m for m in FIXTURE_MODELS if m.id[:5] in ("fig3a", "fig3b", "fig4c", "fig4d")),
        pytest.param(build_model([(2.0 + 0.75 * i, y) for i, y in
                                  enumerate((1.0, 3.0, -1.0, 2.0, 0.0))],
                                 [(0, 2), (2, 4)], [0, 1, 0, 1], Constant(0.5)),
                     id="on-2-5"),
        pytest.param(build_model([(0.1 * i, y) for i, y in
                                  enumerate((1.0, 3.0, -1.0, 2.0, 0.0))],
                                 [(0, 4)], [0] * 4, Constant(0.5)),
                     id="on-0-0.4"),
    ])
    def test_smallest_depth_passing_the_gap_rule(self, model, resolution):
        xs = model.data.xs
        plan = plan_depth(model, delta=(xs[-1] - xs[0]) / resolution)
        limit = 1.0 / (4.0 * resolution)
        assert CurveSamples.from_model(model, plan.depth).max_gap <= limit
        if plan.depth > 0:
            assert CurveSamples.from_model(model, plan.depth - 1).max_gap > limit


class TestPointLimit:
    def test_explicit_depth_refused_with_count(self):
        model = EXACT_FAMILY[1].values[0]      # 4 maps: 4 * 4^d + 1 points
        assert plan_depth(model, 11).total == 4 * 4 ** 11 + 1 <= POINT_LIMIT
        with pytest.raises(ModelError, match=f"depth 20 .* \\({4 * 4 ** 12 + 1} at depth 12"):
            plan_depth(model, 20)

    def test_auto_depth_refused_with_count(self):
        model = EXACT_FAMILY[1].values[0]
        with pytest.raises(ModelError, match=f"depth 12 .* \\({4 * 4 ** 12 + 1} at depth 12"):
            plan_depth(model, delta=4.0 ** -14)

    def test_negative_depth_refused(self):
        with pytest.raises(ModelError, match=">= 0"):
            plan_depth(EXACT_FAMILY[0].values[0], -1)


class TestPolicy:
    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_default_depth(self, model):
        assert plan_depth(model) == plan_depth(model, rifs.DEFAULT_DEPTH)
        assert rifs.DEFAULT_DEPTH == 8

    def test_explicit_depth_ignores_delta(self):
        model = EXACT_FAMILY[0].values[0]
        assert plan_depth(model, 3, delta=1e-6) == plan_depth(model, 3)

    def test_resolves_allows_a_rounding_tie_only(self):
        model = EXACT_FAMILY[0].values[0]
        plan = plan_depth(model, 5)     # gap 4^-6
        delta = rifs.SAMPLES_PER_SCALE * plan.gap
        assert plan.resolves(delta) and plan.resolves(delta * (1 - 1e-10))
        assert not plan.resolves(delta * (1 - 2e-9))
        # the auto-depth stop has no slack: a tie one ulp short goes a depth deeper
        assert plan_depth(model, delta=delta).depth == 5
        assert plan_depth(model, delta=np.nextafter(delta, 0.0)).depth == 6
