import math

import pytest

from alsim.geometry import (
    labeling_radius,
    match_request,
    suppress_duplicate,
)
from alsim.records import CameraModel

from conftest import make_gt


class TestLabelingRadius:
    def test_kitti_scale_example(self):
        r = labeling_radius(CameraModel(707.05, 707.05), 30.0, 2.0)
        assert r.r_x == pytest.approx(47.136666666, abs=1e-6)
        assert abs(r.r_x - 47.0) <= 1.0

    def test_cancellation(self):
        r = labeling_radius(CameraModel(17.5, 17.5), 17.5, 1.0)
        assert r.r_x == 1.0
        assert r.r_y == 1.0

    def test_doubling_depth_halves_radius(self):
        cam = CameraModel(707.05, 612.3)
        r1 = labeling_radius(cam, 13.7, 2.0)
        r2 = labeling_radius(cam, 27.4, 2.0)
        assert r2.r_x == r1.r_x / 2.0
        assert r2.r_y == r1.r_y / 2.0

    @pytest.mark.parametrize("depth", [0.0, -3.0])
    def test_nonpositive_depth_rejected(self, depth):
        with pytest.raises(ValueError):
            labeling_radius(CameraModel(100.0, 100.0), depth, 2.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            labeling_radius(CameraModel(100.0, 100.0), 10.0, 0.0)


def brute_force_match(req_center, pred_depth, gts, cam, h_scale, min_px):
    """Independent filter-and-minimize oracle for request matching."""
    rx = h_scale * cam.f_x / pred_depth
    ry = h_scale * cam.f_y / pred_depth
    eligible = [
        g
        for g in gts
        if g.pixel_height >= min_px
        and abs(g.center2d[0] - req_center[0]) <= rx
        and abs(g.center2d[1] - req_center[1]) <= ry
    ]
    if not eligible:
        return None
    return min(
        eligible,
        key=lambda g: (math.hypot(g.center2d[0] - req_center[0], g.center2d[1] - req_center[1]), g.gt_id),
    ).gt_id


class TestMatchRequest:
    CAM = CameraModel(100.0, 100.0)

    def test_exact_center_match(self):
        gts = [make_gt(7, center=(50.0, 60.0))]
        result = match_request((50.0, 60.0), 10.0, 0, gts, self.CAM, 2.0, 25.0)
        assert result.gt_id == 7
        assert result.distance == 0.0

    def test_outside_window_is_null(self):
        # radius at depth 10 is 20 px, place the gt 30 px away on x
        gts = [make_gt(7, center=(80.0, 60.0))]
        result = match_request((50.0, 60.0), 10.0, 0, gts, self.CAM, 2.0, 25.0)
        assert result.gt_id is None
        assert not result.matched

    def test_closest_of_two_wins(self):
        gts = [make_gt(1, center=(53.0, 60.0)), make_gt(2, center=(55.0, 60.0))]
        result = match_request((50.0, 60.0), 10.0, 0, gts, self.CAM, 2.0, 25.0)
        assert result.gt_id == brute_force_match((50.0, 60.0), 10.0, gts, self.CAM, 2.0, 25.0) == 1
        assert result.distance == pytest.approx(3.0)

    def test_short_gt_filtered(self):
        gts = [make_gt(1, center=(50.0, 60.0), pixel_height=10.0)]
        result = match_request((50.0, 60.0), 10.0, 0, gts, self.CAM, 2.0, 25.0)
        assert result.gt_id is None

    def test_matches_brute_force_on_random_fixtures(self, rng):
        for _ in range(300):
            center = tuple(rng.uniform(0, 200, 2))
            depth = float(rng.uniform(5, 40))
            gts = [
                make_gt(
                    g,
                    center=tuple(rng.uniform(0, 200, 2)),
                    pixel_height=float(rng.uniform(5, 80)),
                )
                for g in range(int(rng.integers(0, 6)))
            ]
            got = match_request(center, depth, 0, gts, self.CAM, 2.0, 25.0)
            assert got.gt_id == brute_force_match(center, depth, gts, self.CAM, 2.0, 25.0)


class TestSuppressDuplicate:
    CAM = CameraModel(100.0, 100.0)

    def test_identical_request_suppressed(self):
        prior = [((50.0, 60.0), 3)]
        assert suppress_duplicate((50.0, 60.0), 10.0, 3, prior, self.CAM, 2.0)

    def test_other_class_not_suppressed(self):
        prior = [((50.0, 60.0), 1)]
        assert not suppress_duplicate((50.0, 60.0), 10.0, 3, prior, self.CAM, 2.0)

    def test_boundary_is_inclusive(self):
        # radius from the new request's depth: r_x = 2*100/10 = 20
        rx = 0.95 * (2.0 * self.CAM.f_x / 10.0)
        prior = [((50.0, 60.0), 3)]
        assert suppress_duplicate((50.0 + rx, 60.0), 10.0, 3, prior, self.CAM, 2.0)
        assert not suppress_duplicate((50.0 + rx + 1e-9, 60.0), 10.0, 3, prior, self.CAM, 2.0)

    def test_no_priors(self):
        assert not suppress_duplicate((50.0, 60.0), 10.0, 3, [], self.CAM, 2.0)
