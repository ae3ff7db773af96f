import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alsim.metrics import Curve, CurvePoint, accounting_x, aurc_segment, interpolate_at_budget, naurc


class TestCurve:
    def test_needs_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            Curve(())

    def test_rejects_nonincreasing_x(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Curve.from_pairs([(0, 0), (0, 1)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Curve.from_pairs([(0, float("nan"))])


class TestAurcSegment:
    def test_flat_zero(self):
        assert aurc_segment(CurvePoint(0, 0), CurvePoint(10, 0)) == 0.0

    def test_constant_curve(self):
        assert aurc_segment(CurvePoint(0, 3.5), CurvePoint(4, 3.5)) == pytest.approx(14.0)

    def test_hand_trapezoid(self):
        assert aurc_segment(CurvePoint(0, 0), CurvePoint(10, 10)) == pytest.approx(50.0)

    def test_nonincreasing_x_rejected(self):
        with pytest.raises(ValueError):
            aurc_segment(CurvePoint(5, 0), CurvePoint(5, 1))


class TestInterpolateAtBudget:
    def test_midpoint(self):
        curve = Curve.from_pairs([(0, 0), (10, 10)])
        assert interpolate_at_budget(curve, 5) == pytest.approx(5.0)

    def test_hold_past_curve_end(self):
        curve = Curve.from_pairs([(0, 1), (8, 3)])
        assert interpolate_at_budget(curve, 10) == 3.0

    def test_exact_knots(self):
        curve = Curve.from_pairs([(0, 1), (4, 7), (9, 2)])
        for p in curve.points:
            assert interpolate_at_budget(curve, p.x) == p.y

    def test_budget_below_start_rejected(self):
        curve = Curve.from_pairs([(5, 1), (8, 3)])
        with pytest.raises(ValueError, match="below the curve start"):
            interpolate_at_budget(curve, 4)


class TestNaurc:
    def test_constant_curve(self):
        curve = Curve.from_pairs([(0, 7.0), (20, 7.0)])
        assert naurc(curve, 10) == pytest.approx(7.0, abs=1e-12)

    def test_linear_ramp_interpolated(self):
        curve = Curve.from_pairs([(0, 0), (10, 10)])
        assert naurc(curve, 5) == pytest.approx(2.5, abs=1e-12)

    def test_held_tail(self):
        curve = Curve.from_pairs([(0, 0), (4, 4), (8, 4)])
        assert naurc(curve, 10) == pytest.approx(3.2, abs=1e-12)

    def test_budget_at_start_rejected(self):
        curve = Curve.from_pairs([(0, 0), (10, 10)])
        with pytest.raises(ValueError, match="must exceed"):
            naurc(curve, 0)

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_budget_rejected(self, budget):
        # The curve starts below both budgets, so only the sign refuses them.
        curve = Curve.from_pairs([(-5, 1.0), (5, 1.0)])
        with pytest.raises(ValueError, match=f"budget must be > 0, got {budget}"):
            naurc(curve, budget)

    @pytest.mark.parametrize("budget", [math.inf, math.nan, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        curve = Curve.from_pairs([(0, 0), (10, 10)])
        with pytest.raises(ValueError, match="budget must be finite"):
            naurc(curve, budget)
        with pytest.raises(ValueError, match="budget must be finite"):
            interpolate_at_budget(curve, budget)

    def test_collinear_point_invariance(self, rng):
        for _ in range(100):
            xs = sorted(rng.uniform(0, 100, 4))
            if min(b - a for a, b in zip(xs, xs[1:])) < 1e-6:
                continue
            ys = rng.uniform(-5, 5, 4)
            base = Curve.from_pairs(zip(xs, ys))
            # insert a collinear knot in the middle of the second segment
            xm = (xs[1] + xs[2]) / 2
            ym = ys[1] + (ys[2] - ys[1]) * (xm - xs[1]) / (xs[2] - xs[1])
            dense = Curve.from_pairs(
                [(xs[0], ys[0]), (xs[1], ys[1]), (xm, ym), (xs[2], ys[2]), (xs[3], ys[3])]
            )
            budget = float(rng.uniform(xs[0] + 1e-3, xs[3] + 20))
            assert naurc(dense, budget) == pytest.approx(naurc(base, budget), abs=1e-12)

    def test_scales_linearly_in_y(self, rng):
        curve = Curve.from_pairs([(0, 1.0), (5, 4.0), (9, 2.0)])
        scaled = Curve.from_pairs([(0, 3.0), (5, 12.0), (9, 6.0)])
        assert naurc(scaled, 7) == pytest.approx(3.0 * naurc(curve, 7), abs=1e-12)

    def test_mean_value_bounds(self, rng):
        # curves anchored at x=0, the campaign convention; a later start
        # deliberately drags the value below min(y) because the missing
        # region counts as zero area
        for _ in range(100):
            xs = [0.0] + sorted(set(float(x) for x in rng.uniform(1, 50, 4)))
            ys = [float(y) for y in rng.uniform(-3, 3, len(xs))]
            curve = Curve.from_pairs(zip(xs, ys))
            budget = float(rng.uniform(1e-3, xs[-1] + 10))
            value = naurc(curve, budget)
            assert min(ys) - 1e-9 <= value <= max(ys) + 1e-9

    def test_late_start_penalized_below_min(self):
        curve = Curve.from_pairs([(30.0, 1.0), (40.0, 1.0)])
        assert naurc(curve, 40.0) == pytest.approx(0.25, abs=1e-12)

    @given(
        level=st.floats(-1e3, 1e3),
        xs=st.lists(st.floats(1e-3, 1e3), max_size=5, unique=True),
        budget=st.floats(1e-3, 2e3),
    )
    def test_constant_curve_from_zero_scores_its_level(self, level, xs, budget):
        curve = Curve.from_pairs((x, level) for x in [0.0, *sorted(xs)])
        assert naurc(curve, budget) == pytest.approx(level, rel=1e-12, abs=1e-12)

    @given(
        points=st.lists(
            st.tuples(st.floats(0.0, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
            min_size=1, max_size=6, unique_by=lambda p: p[0],
        ),
        budget=st.floats(1e-3, 2e3),
    )
    def test_monotone_in_y(self, points, budget):
        points = sorted(points)
        low = Curve.from_pairs((x, y) for x, y, _ in points)
        high = Curve.from_pairs((x, y + lift) for x, y, lift in points)
        if budget > points[0][0]:
            # Interpolation rounds to within an ulp of the level's magnitude.
            assert naurc(high, budget) >= naurc(low, budget) - 1e-12 * 2e3


def _ev(charged):
    return SimpleNamespace(charged=charged)


class TestAccountingX:
    def test_instance_mode_cumulative_charges(self):
        logs = [
            SimpleNamespace(events=[_ev(True)] * 3, selected_images=()),
            SimpleNamespace(events=[_ev(True)] * 2, selected_images=()),
        ]
        assert accounting_x(logs, "instance") == [3, 5]

    def test_image_mode_sums_labelable_counts(self):
        logs = [
            SimpleNamespace(events=(), selected_images=[("a", 4)]),
            SimpleNamespace(events=(), selected_images=[("b", 6)]),
        ]
        assert accounting_x(logs, "image") == [4, 10]

    def test_false_positive_charges_but_suppression_does_not(self):
        logs = [
            SimpleNamespace(
                events=[_ev(True), _ev(True), _ev(False)],  # match, null, suppressed
                selected_images=(),
            )
        ]
        assert accounting_x(logs, "instance") == [2]

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            accounting_x([], "pixel")
