"""The sampling planner against refinement itself.

`plan_depth` predicts sample counts and x gaps without refining.  These
tests hold it to what `refine_attractor` produces, to the trial-refinement
loop it replaced for the `analyze` auto depth (kept below as the
reference, with the point limit as its one ceiling), and to the one gap
rule, `rifs.resolves`, that its stop, the `analyze` scale filter, the
`surface` command and `eval_surface` share.  Ties that rounding puts an
ulp over the rule come from nodes at tenths and at thirds.
"""
import json
import re
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (BivariateSpec, Constant, CurveSamples, ModelError, SeparableTerm,
                       SurfaceLayer, SurfaceSpec, build_model, curve_scale_schedule,
                       estimate_curve_dimension, eval_surface, merged_curve)
from fractalis import rifs
from fractalis.config import parse_config
from fractalis.rifs import (POINT_LIMIT, AttractorSampling, _refine_step, plan_depth,
                            refine_attractor, resolves)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
EPS = np.finfo(np.float64).eps
SAMPLES_PER_SCALE = rifs.SAMPLES_PER_SCALE


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
# nodes at tenths and at thirds: every depth's x gap against a power-of-4
# mesh is a tie that rounding puts an ulp or two over the gap rule
TIE_YS = (1.0, 3.0, -1.0, 2.0, 0.0)
TIE_NODES = {"tenths": [0.1 * i for i in range(5)], "thirds": [i / 3 for i in range(5)]}
TIES = [pytest.param(build_model(list(zip(xs, TIE_YS)), [(0, 4)], [0] * 4, Constant(0.5)),
                     id=f"on-{name}") for name, xs in TIE_NODES.items()]


def refined_copy(model, sampling):
    """The level after `sampling`, from one round on copies of its arrays:
    a round consumes its level, and the caller keeps `sampling`."""
    level = [sampling.xs.copy(), sampling.ys.copy(), sampling.starts]
    _refine_step(model, level)
    return AttractorSampling(sampling.depth + 1, *level)


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
    sampling = refine_attractor(model, 0)
    while True:
        gx, _ = merged_curve(sampling)
        if gx.size > limit:
            return None
        if float(np.diff(gx).max()) <= spacing:
            return sampling.depth
        sampling = refined_copy(model, sampling)


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
    sampling = refine_attractor(model, 0)
    while sampling.depth <= max_depth:
        plan = plan_depth(model, sampling.depth)
        assert plan.depth == sampling.depth
        assert plan.points == tuple(rx.size for rx, _ in sampling.regions)
        assert plan.total == merged_curve(sampling)[0].size
        for got, (rx, _) in zip(plan.gaps, sampling.regions):
            assert got == pytest.approx(float(np.diff(rx).max()), rel=1e-12, abs=tol)
        if plan_depth(model, sampling.depth + 1).total > max_total:
            break
        sampling = refined_copy(model, sampling)


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
        pytest.param(TIES[0].values[0], id="on-0-0.4"),
        pytest.param(TIES[1].values[0], id="on-0-1.33"),
    ])
    def test_smallest_depth_passing_the_gap_rule(self, model, resolution):
        # the renormalized samples that eval_surface checks, by the same rule
        xs = model.data.xs
        plan = plan_depth(model, delta=(xs[-1] - xs[0]) / resolution)
        assert resolves(CurveSamples.from_model(model, plan.depth).max_gap, 1.0 / resolution)
        if plan.depth > 0:
            assert not resolves(CurveSamples.from_model(model, plan.depth - 1).max_gap,
                                1.0 / resolution)

    @pytest.mark.parametrize("model", TIES)
    def test_ties_plan_the_depth_that_resolves(self, model):
        # gap 4^-5 renormalized, one ulp or two over 1 / (4 * 256)
        span = model.data.xs[-1] - model.data.xs[0]
        plan = plan_depth(model, delta=span / 256)
        assert plan.depth == 4 and resolves(plan.gap, span / 256)
        assert SAMPLES_PER_SCALE * plan.gap > span / 256
        samples = CurveSamples.from_model(model, 4)
        assert SAMPLES_PER_SCALE * samples.max_gap > 1.0 / 256
        spec = SurfaceSpec((SurfaceLayer(samples, BivariateSpec(
            (SeparableTerm(Constant(1.0), Constant(1.0)),))),))
        assert eval_surface(spec, 256).resolution == 256


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


@pytest.mark.parametrize("depth", [2.5, 2.0, np.float64(3), True])
@pytest.mark.parametrize("entry", [plan_depth, refine_attractor])
def test_depth_must_be_an_integer(entry, depth):
    # a float never equalled a planned depth, and range() refused it with a bare TypeError
    with pytest.raises(ModelError, match=f"^{re.escape(f'depth must be an integer, got {depth!r}')}$"):
        entry(EXACT_FAMILY[0].values[0], depth)


class TestOneRule:
    @settings(max_examples=60, deadline=None)
    @given(wirings(), st.integers(0, 5),
           st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 1e-10, 1.0 - 2e-9, 0.7]))
    def test_auto_depth_is_the_shallowest_that_resolves(self, model, k, factor):
        # mesh widths at, an ulp or two around and just past depth k's tie
        if model is None:
            return
        delta = SAMPLES_PER_SCALE * plan_depth(model, k).gap * factor
        try:
            want = next(d for d in count() if resolves(plan_depth(model, d).gap, delta))
        except ModelError:   # past POINT_LIMIT before any depth resolves
            with pytest.raises(ModelError):
                plan_depth(model, delta=delta)
            return
        assert plan_depth(model, delta=delta).depth == want

    @pytest.mark.parametrize("model", TIES)
    def test_analyze_ties_plan_the_depth_that_resolves(self, model):
        # the finest r_hi = 6 scale needs gap 4^-8 * span, and depth 7's
        # gap is that, an ulp or two over
        delta = min(curve_scale_schedule(model, 2, 6))
        refined = refine_attractor(model, 7)
        assert resolves(float(np.diff(refined.xs).max()), delta)
        assert SAMPLES_PER_SCALE * float(np.diff(refined.xs).max()) > delta
        report, plan = estimate_curve_dimension(model)
        assert plan.depth == 7 and len(report.series.deltas) == 5


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
        assert resolves(plan.gap, delta) and resolves(plan.gap, delta * (1 - 1e-10))
        assert not resolves(plan.gap, delta * (1 - 2e-9))
        # the auto-depth stop is the same rule: a tie one ulp short stops at
        # depth 5 too, and only a delta past the slack goes a depth deeper
        assert plan_depth(model, delta=delta).depth == 5
        assert plan_depth(model, delta=np.nextafter(delta, 0.0)).depth == 5
        assert plan_depth(model, delta=delta * (1 - 2e-9)).depth == 6
