import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalis import (Affine, BivariateSpec, Constant, CurveSamples,
                       SeparableTerm, Sinusoid, SurfaceLayer, SurfaceSpec,
                       box_count_surface, build_model, composed_surface_dimension,
                       dimension, estimate_surface_dimension, eval_surface, HeightField)
from fractalis.config import parse_config
from fractalis.dimension import _surface_counts, _vspan_cells
from fractalis.rifs import ModelError

DATA = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SURFACE_FIXTURES = ("fig3a", "fig3b", "fig4c", "fig4d")


def const_coeff(v):
    return BivariateSpec((SeparableTerm(Constant(v), Constant(1.0)),))


def dense_line(y0, y1, n=4097):
    xs = np.linspace(0.0, 1.0, n)
    return CurveSamples(xs, y0 + (y1 - y0) * xs)


def split_curve(scaling, depth=8):
    model = build_model(DATA, [(0, 2), (2, 4)], [0, 1, 0, 1], scaling)
    return CurveSamples.from_model(model, depth)


class TestCurveSamples:
    def test_from_model_keeps_dyadic_grid(self):
        c = split_curve(Constant(0.9), depth=4)
        assert c.xs[0] == 0.0 and c.xs[-1] == 1.0
        assert c.xs.size == 4 * 2 ** 4 + 1

    def test_renormalizes_other_intervals(self):
        model = build_model([(2.0, 1.0), (3.0, 5.0), (4.0, 2.0), (5.0, 0.0)],
                            [(0, 3)], [0, 0, 0], Constant(0.4))
        c = CurveSamples.from_model(model, 3)
        assert c.xs[0] == 0.0 and c.xs[-1] == 1.0
        assert c.value(0.0) == 1.0 and c.value(1.0) == 0.0

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            CurveSamples(np.array([0.0, 0.5]), np.array([1.0, 2.0]))

    def test_interpolates_nodes(self):
        c = split_curve(Constant(0.9))
        for x, y in DATA:
            assert c.value(x) == y


class TestEvalSurface:
    def test_single_x_layer_constant_along_y(self):
        f = split_curve(Constant(0.5))
        field = eval_surface(SurfaceSpec((SurfaceLayer(f, const_coeff(1.0)),)), 64)
        assert np.all(field.heights == field.heights[0, :][None, :])
        np.testing.assert_allclose(field.heights[0, :],
                                   f.value(np.linspace(0, 1, 65)))

    def test_example_corner_value(self):
        # constant coefficients 0.5 / 0.8 with both curves interpolating the
        # data: F(0,0) = 0.5*20 + 0.8*20 = 26
        f = split_curve(Sinusoid(1.0, 1.0, 0.0, "cos"))
        g = split_curve(Constant(0.5))
        spec = SurfaceSpec((SurfaceLayer(f, const_coeff(0.5)),),
                           (SurfaceLayer(g, const_coeff(0.8)),))
        field = eval_surface(spec, 128)
        assert field.heights[0, 0] == pytest.approx(26.0, abs=1e-9)

    def test_vanishing_bilinear_corner(self):
        f = split_curve(Constant(0.5))
        lam = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Affine(1.0, 0.0)),))
        mu = BivariateSpec((SeparableTerm(Affine(1.0, 0.0), Affine(-1.0, 1.0)),))
        spec = SurfaceSpec((SurfaceLayer(f, lam),), (SurfaceLayer(f, mu),))
        field = eval_surface(spec, 64)
        assert field.heights[0, 0] == 0.0

    def test_y_layer_orientation(self):
        # coefficient (1 - x) on a y curve: heights[iy, ix] = (1 - x) * g(y)
        g = split_curve(Constant(0.5))
        coeff = BivariateSpec((SeparableTerm(Affine(-1.0, 1.0), Constant(1.0)),))
        field = eval_surface(SurfaceSpec((), (SurfaceLayer(g, coeff),)), 64)
        axis = np.linspace(0, 1, 65)
        gv = g.value(axis)
        np.testing.assert_allclose(field.heights[:, 0], gv, atol=1e-12)
        assert np.all(field.heights[:, -1] == 0.0)
        np.testing.assert_allclose(field.heights[:, 32], 0.5 * gv, atol=1e-12)

    def test_superposition_exact(self):
        f = split_curve(Constant(0.5))
        g = split_curve(Constant(0.3))
        lam1, lam2 = const_coeff(0.7), const_coeff(-0.2)
        both = eval_surface(SurfaceSpec((SurfaceLayer(f, lam1),
                                         SurfaceLayer(g, lam2))), 32)
        one = eval_surface(SurfaceSpec((SurfaceLayer(f, lam1),)), 32)
        two = eval_surface(SurfaceSpec((SurfaceLayer(g, lam2),)), 32)
        assert np.array_equal(both.heights, one.heights + two.heights)

    def test_boundary_interpolation(self):
        # coefficient (1 - y) on an x curve: the y = 0 edge reproduces the curve
        f = split_curve(Constant(0.8))
        lam = BivariateSpec((SeparableTerm(Constant(1.0), Affine(-1.0, 1.0)),))
        field = eval_surface(SurfaceSpec((SurfaceLayer(f, lam),)), 64)
        edge = field.heights[0, :]
        np.testing.assert_allclose(edge, f.value(np.linspace(0, 1, 65)), atol=1e-12)
        assert np.all(field.heights[-1, :] == 0.0)
        for x, y in DATA:
            ix = round(x * 64)
            if abs(ix / 64 - x) < 1e-12:
                assert edge[ix] == y

    def test_resolution_too_small(self):
        f = split_curve(Constant(0.5))
        with pytest.raises(ValueError, match=">= 2"):
            eval_surface(SurfaceSpec((SurfaceLayer(f, const_coeff(1.0)),)), 1)

    @pytest.mark.parametrize("resolution", [256.7, 64.0, np.float64(64), True])
    def test_resolution_must_be_an_integer(self, resolution):
        # int() used to truncate 256.7 to a 256 grid
        f = split_curve(Constant(0.5))
        with pytest.raises(ValueError, match=f"^{re.escape(f'resolution must be an integer, got {resolution!r}')}$"):
            eval_surface(SurfaceSpec((SurfaceLayer(f, const_coeff(1.0)),)), resolution)

    def test_coarse_curve_rejected(self):
        shallow = split_curve(Constant(0.5), depth=2)
        with pytest.raises(ModelError, match="too coarse"):
            eval_surface(SurfaceSpec((SurfaceLayer(shallow, const_coeff(1.0)),)), 512)

    def test_heights_byte_equal_to_the_product_expression(self):
        # the layer sum eval_surface replaced: one coeff * curve temporary per
        # layer; the coefficient crosses zero and the curves take negative
        # values, so products include -0.0
        def ref_grid(coeff, axis):
            out = np.zeros((axis.size, axis.size))   # the zero-filled start
            for t in coeff.terms:
                out += np.outer(t.fy(axis), t.fx(axis))
            return out

        def ref_eval_surface(spec, m):
            axis = np.linspace(0.0, 1.0, m + 1)
            H = np.zeros((m + 1, m + 1))
            for layer in spec.x_layers:
                H += ref_grid(layer.coeff, axis) * layer.curve.value(axis)[None, :]
            for layer in spec.y_layers:
                H += ref_grid(layer.coeff, axis) * layer.curve.value(axis)[:, None]
            return H

        f = split_curve(Constant(0.5))
        g = dense_line(-3.0, 5.0)
        cross = BivariateSpec((SeparableTerm(Affine(-2.0, 1.0), Affine(1.0, -0.5)),
                               SeparableTerm(Sinusoid(0.3, 7.0, 0.1, "sin"), Constant(-1.0))))
        spec = SurfaceSpec((SurfaceLayer(g, cross), SurfaceLayer(f, const_coeff(-0.7))),
                           (SurfaceLayer(g, const_coeff(0.0)), SurfaceLayer(f, cross)))
        axis = np.linspace(0.0, 1.0, 65)
        products = cross.grid(axis, axis) * g.value(axis)[None, :]
        assert np.any(np.signbit(products) & (products == 0.0))
        for m in (2, 64, 100):
            assert eval_surface(spec, m).heights.tobytes() == ref_eval_surface(spec, m).tobytes()

        # coefficients that hold -0.0: `grid` keeps it, the heights do not
        negzero = BivariateSpec((SeparableTerm(Constant(-0.0), Constant(1.0)),))
        mixed = BivariateSpec((SeparableTerm(Affine(-2.0, 1.0), Constant(-0.0)),
                               SeparableTerm(Constant(0.5), Constant(-0.0))))
        assert np.all(np.signbit(negzero.grid(axis, axis)))
        assert np.all(np.signbit(mixed.grid(axis, axis)[:, axis < 0.5]))
        spec = SurfaceSpec((SurfaceLayer(g, negzero), SurfaceLayer(f, mixed)),
                           (SurfaceLayer(g, mixed), SurfaceLayer(f, cross)))
        for m in (2, 64, 100):
            heights = eval_surface(spec, m).heights
            assert heights.tobytes() == ref_eval_surface(spec, m).tobytes()
            assert not np.any(np.signbit(heights) & (heights == 0.0))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            SurfaceSpec(())


class TestHeightField:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="heights must be"):
            HeightField(4, np.zeros((4, 4)))

    @pytest.mark.parametrize("resolution", [4.0, np.float64(4), True])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match=f"^{re.escape(f'resolution must be an integer, got {resolution!r}')}$"):
            HeightField(resolution, np.zeros((5, 5)))

    def test_finite_validation(self):
        bad = np.zeros((5, 5))
        bad[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HeightField(4, bad)

    def test_range_is_kept_and_heights_are_read_only(self):
        H = np.linspace(-2.0, 3.0, 25).reshape(5, 5)
        field = HeightField(4, H)
        assert (field.height_min, field.height_max) == (-2.0, 3.0)
        with pytest.raises(ValueError, match="read-only"):
            field.heights[0, 0] = 7.0   # the kept range would no longer hold
        with pytest.raises(TypeError):
            HeightField(4, H, height_min=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (3, 1), (4, 4)])
    def test_one_bad_cell_is_refused(self, value, cell):
        bad = np.linspace(-2.0, 3.0, 25).reshape(5, 5)
        bad[cell] = value
        with pytest.raises(ValueError, match="^heights must be finite$"):
            HeightField(4, bad)


class TestComposedDimension:
    def test_pair(self):
        assert composed_surface_dimension([1.5, 1.2]) == 2.5

    def test_smooth(self):
        assert composed_surface_dimension([1.0, 1.0]) == 2.0

    def test_many(self):
        assert composed_surface_dimension([1.3, 1.6, 1.4]) == pytest.approx(2.6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            composed_surface_dimension([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            composed_surface_dimension([2.5])

    @given(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=4),
           st.floats(0.0, 0.5))
    @settings(max_examples=60)
    def test_monotone(self, dims, bump):
        base = composed_surface_dimension(dims)
        raised = dims.copy()
        raised[0] = min(2.0, raised[0] + bump)
        assert composed_surface_dimension(raised) >= base


class TestEstimateSurface:
    def test_flat_plane_dimension_two(self):
        field = HeightField(256, np.zeros((257, 257)))
        rep = estimate_surface_dimension(field, [2.0 ** -k for k in range(2, 6)])
        assert rep.estimate == pytest.approx(2.0, abs=0.05)

    def test_smooth_ramp_dimension_two(self):
        ax = np.linspace(0, 1, 257)
        H = np.add.outer(0.3 * ax, 0.5 * ax)
        rep = estimate_surface_dimension(HeightField(256, H), [2.0 ** -k for k in range(2, 6)])
        assert rep.estimate == pytest.approx(2.0, abs=0.05)

    def test_requires_three_scales(self):
        field = HeightField(64, np.zeros((65, 65)))
        with pytest.raises(ValueError, match="3 scales"):
            estimate_surface_dimension(field, [0.25, 0.125])

    def test_extrusion_counts_factor_exactly(self):
        # a field constant along y is K stacked copies of its x section, so
        # the 3D count must be exactly K times the 2D graph count of the
        # section sampled on the same grid
        from fractalis import box_count_graph, box_count_surface

        model = build_model(DATA, [(0, 4)], [0, 0, 0, 0], Constant(0.6))
        f = CurveSamples.from_model(model, 7)
        res = 1024
        field = eval_surface(SurfaceSpec((SurfaceLayer(f, const_coeff(1.0)),)), res)
        axis = np.linspace(0, 1, res + 1)
        section = field.heights[0, :]
        for delta in (2.0 ** -3, 2.0 ** -5, 2.0 ** -7):
            k = round(1 / delta)
            assert box_count_surface(field, delta) == k * box_count_graph(
                axis, section, delta)

    def test_extruded_half_dimension_curve(self):
        # constant scaling 0.5 over 4 whole-interval maps has exact curve
        # dimension 1 + log_4(2) = 1.5; extruding along y adds one
        model = build_model(DATA, [(0, 4)], [0, 0, 0, 0], Constant(0.5))
        f = CurveSamples.from_model(model, 9)
        spec = SurfaceSpec((SurfaceLayer(f, const_coeff(1.0)),))
        field = eval_surface(spec, 1024)
        rep = estimate_surface_dimension(field, [2.0 ** -r for r in range(3, 8)])
        assert rep.estimate == pytest.approx(2.5, abs=0.15)


# ---------------------------------------------------------------------------
# pyramid box counting against the per-scale body it replaced
# ---------------------------------------------------------------------------

def ref_box_count_surface(field, delta):
    """The per-scale body `_surface_counts` replaced: closed blocks by
    reduceat over the whole field, at every scale."""
    H = field.heights
    res = field.resolution
    m = int(round(delta * res))
    cuts = np.arange(0, res, m)
    rmin = np.minimum(np.minimum.reduceat(H, cuts, axis=0), H[m::m, :])
    rmax = np.maximum(np.maximum.reduceat(H, cuts, axis=0), H[m::m, :])
    cmin = np.minimum(np.minimum.reduceat(rmin, cuts, axis=1), rmin[:, m::m])
    cmax = np.maximum(np.maximum.reduceat(rmax, cuts, axis=1), rmax[:, m::m])
    return int(_vspan_cells(cmin, cmax, delta).sum())


def fixture_field(name):
    cfg = parse_config(json.loads((FIXTURES / f"{name}.json").read_text()))

    def layers(entries):
        return tuple(SurfaceLayer(CurveSamples.from_model(mc.build(), mc.depth), coeff)
                     for mc, coeff in entries)

    return eval_surface(SurfaceSpec(layers(cfg.x_curves), layers(cfg.y_curves)),
                        cfg.resolution)


HEIGHT_KINDS = ("random", "signed_zero", "constant", "integral", "gridline")


@st.composite
def fields_and_schedules(draw):
    """A field of one height kind and a strictly decreasing schedule of
    grid-aligned deltas, nested or not."""
    res = draw(st.sampled_from([2, 8, 12, 16, 24, 30, 36]))
    divisors = [m for m in range(1, res + 1) if res % m == 0]
    sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=6, unique=True))
    deltas = [m / res for m in sorted(sizes, reverse=True)]
    kind = draw(st.sampled_from(HEIGHT_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (res + 1, res + 1)
    if kind == "random":
        H = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 0.3, 5.0]))
    elif kind == "signed_zero":
        H = rng.choice([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5], size=shape)
    elif kind == "constant":
        H = np.full(shape, draw(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.1, 1e9])))
    elif kind == "integral":
        H = rng.integers(-4, 5, size=shape).astype(np.float64)
    else:   # heights on the gridlines of one of the deltas, as products k * delta
        H = rng.integers(-6, 7, size=shape) * draw(st.sampled_from(deltas))
    return HeightField(res, H), deltas


class TestSurfaceCounts:
    @given(fields_and_schedules())
    @settings(max_examples=300, deadline=None)
    def test_schedule_equals_per_scale_reference(self, case):
        field, deltas = case
        assert _surface_counts(field, deltas) == [ref_box_count_surface(field, d)
                                                  for d in deltas]

    @given(fields_and_schedules())
    @settings(max_examples=100, deadline=None)
    def test_single_delta_equals_reference(self, case):
        field, deltas = case
        for d in deltas:
            assert box_count_surface(field, d) == ref_box_count_surface(field, d)
            assert _surface_counts(field, [d]) == [ref_box_count_surface(field, d)]

    @pytest.mark.parametrize("sizes", [(6, 4, 3, 2), (6, 4, 3, 2, 1), (12, 6, 4, 3, 2, 1),
                                       (4, 3, 2), (3, 2, 1)])
    def test_non_nested_schedules_res_12(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        field = HeightField(12, rng.standard_normal((13, 13)))
        deltas = [m / 12 for m in sizes]
        assert _surface_counts(field, deltas) == [ref_box_count_surface(field, d)
                                                  for d in deltas]

    def test_pyramid_reduces_previous_level_when_nested(self, monkeypatch):
        # nested levels never touch the field again; (4, 3, 2) reduces it at
        # every level, since 3 and 4 are not multiples of the level before them
        calls = []
        closed = dimension._closed_blocks

        def spy(H, m):
            calls.append(m)
            return closed(H, m)

        monkeypatch.setattr(dimension, "_closed_blocks", spy)
        field = HeightField(12, np.random.default_rng(5).standard_normal((13, 13)))
        _surface_counts(field, [12 / 12, 6 / 12, 2 / 12, 1 / 12])
        assert calls == [1]
        calls.clear()
        _surface_counts(field, [4 / 12, 3 / 12, 2 / 12])
        assert calls == [2, 3, 4]

    @pytest.mark.parametrize("name", SURFACE_FIXTURES)
    def test_fixture_surfaces(self, name):
        field = fixture_field(name)
        deltas = [2.0 ** -k for k in range(9)]
        assert _surface_counts(field, deltas) == [ref_box_count_surface(field, d)
                                                  for d in deltas]

    @pytest.mark.parametrize("deltas, message", [
        ([0.25, 0.5, 0.125], "strictly decreasing"),
        ([0.5, 0.25, 0.25], "strictly decreasing"),
        ([0.5, 0.25, 0.0], "positive"),
        ([0.5, 0.25, 0.1], "aligned"),
        ([0.5, 0.25, 3 / 16], "tile"),
    ])
    def test_every_delta_checked_before_any_reduction(self, monkeypatch, deltas, message):
        def no_reduction(H, m):
            raise AssertionError("a reduction ran before every delta was checked")

        monkeypatch.setattr(dimension, "_closed_blocks", no_reduction)
        field = HeightField(16, np.zeros((17, 17)))
        with pytest.raises(ValueError, match=message):
            _surface_counts(field, deltas)
        with pytest.raises(ValueError, match=message):
            estimate_surface_dimension(field, deltas)

    def test_box_count_surface_error_texts_kept(self):
        field = HeightField(8, np.zeros((9, 9)))
        with pytest.raises(ValueError, match="^delta must be positive$"):
            box_count_surface(field, -0.25)
        with pytest.raises(ValueError, match="^delta 0.3 is not aligned to the grid step 1/8$"):
            box_count_surface(field, 0.3)
        with pytest.raises(ValueError,
                           match="^delta 0.375 does not tile the unit square on a 1/8 grid$"):
            box_count_surface(field, 3 / 8)

    def test_estimate_counts_every_scale_through_box_count_surface(self, monkeypatch):
        # one call per scale, each given its level's blocks
        seen = []
        counted = dimension.box_count_surface

        def spy(field, delta, blocks=None):
            seen.append((delta, blocks is not None))
            return counted(field, delta, blocks)

        monkeypatch.setattr(dimension, "box_count_surface", spy)
        field = HeightField(16, np.random.default_rng(2).standard_normal((17, 17)))
        deltas = [0.5, 0.25, 0.125, 0.0625]
        rep = estimate_surface_dimension(field, deltas)
        assert seen == [(d, True) for d in reversed(deltas)]
        assert list(rep.series.counts) == [ref_box_count_surface(field, d) for d in deltas]
