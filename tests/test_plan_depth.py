"""The sampling planner against refinement itself.

`plan_depth` predicts sample counts and x gaps without refining.  These
tests hold it to what `refine_attractor` produces, to the trial-refinement
loop it replaced for the `analyze` auto depth (kept below as the
reference), and to the gap rule `eval_surface` enforces.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Constant, CurveSamples, ModelError, build_model,
                       curve_scale_schedule, merged_curve)
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


def trial_depth(model, spacing, max_points):
    """The auto-depth loop the planner replaced: refine, measure, repeat."""
    sampling = _depth_zero(model)
    widest = max(len(model.feeders(i)) for i in range(model.n_regions))
    while True:
        gx, _ = merged_curve(sampling)
        if float(np.diff(gx).max()) <= spacing:
            return sampling.depth, None
        if gx.size * widest > max_points:
            return sampling.depth, (
                f"sampling budget of {max_points} points reached at depth "
                f"{sampling.depth}; finest scales may be under-resolved")
        sampling = _refine_step(model, sampling)


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


def assert_auto_depth_matches_trial(model, r_hi, budget):
    spacing = min(curve_scale_schedule(model, 2, r_hi)) / 4.0
    plan = plan_depth(model, spacing=spacing, max_points=budget)
    ref = trial_depth(model, spacing, budget)
    if (plan.depth, plan.note) != ref:
        # only an exact tie can split them: the gap equals the spacing in
        # real arithmetic, and rounding decides each side's comparison
        d = min(plan.depth, ref[0])
        assert abs(plan_depth(model, d).gap - spacing) <= 1e-12 * spacing
        assert abs(plan.depth - ref[0]) <= 1


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
    @pytest.mark.parametrize("budget", [2 ** 16, 2 ** 20, 2 ** 23])
    @pytest.mark.parametrize("r_hi", [4, 5, 6])
    @pytest.mark.parametrize("model", FIXTURE_MODELS + EXACT_FAMILY)
    def test_fixture_models_match_trial_loop(self, model, r_hi, budget):
        spacing = min(curve_scale_schedule(model, 2, r_hi)) / 4.0
        plan = plan_depth(model, spacing=spacing, max_points=budget)
        assert (plan.depth, plan.note) == trial_depth(model, spacing, budget)

    def test_budget_note(self):
        model = EXACT_FAMILY[1].values[0]
        spacing = min(curve_scale_schedule(model, 2, 6)) / 4.0
        plan = plan_depth(model, spacing=spacing, max_points=2 ** 16)
        assert plan.depth == 6 and "budget of 65536 points" in plan.note

    @settings(max_examples=60, deadline=None)
    @given(wirings(), st.sampled_from([4, 5, 6]),
           st.sampled_from([2 ** 16, 2 ** 20, 2 ** 23]))
    def test_random_wirings_match_trial_loop(self, model, r_hi, budget):
        if model is not None:
            assert_auto_depth_matches_trial(model, r_hi, budget)


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
        plan = plan_depth(model, spacing=(xs[-1] - xs[0]) / (4.0 * resolution))
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

    def test_negative_depth_refused(self):
        with pytest.raises(ModelError, match=">= 0"):
            plan_depth(EXACT_FAMILY[0].values[0], -1)
