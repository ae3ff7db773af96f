import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alsim.records import CameraModel, ViewSpec, validate_dataset

from conftest import build_dataset, make_gt, make_record


VIEWS = (ViewSpec("a", 2, 0.5), ViewSpec("b", 3, 0.5))


def two_view_record(iid, **kw):
    feats = {"a": [1.0, 2.0], "b": [0.1, 0.2, 0.3]}
    return make_record(iid, features=feats, **kw)


class TestValidateDataset:
    def test_valid_fixture_has_no_violations(self):
        data = build_dataset(
            [two_view_record(0), two_view_record(1)],
            [make_gt(10)],
            views=VIEWS,
        )
        assert validate_dataset(data) == []

    def test_negative_pred_depth_names_instance(self):
        data = build_dataset([two_view_record(5, pred_depth=-1.0)], [], views=VIEWS)
        violations = validate_dataset(data)
        assert len(violations) == 1
        assert "instance 5" in violations[0]
        assert "pred_depth" in violations[0]

    def test_short_ground_truth_is_not_a_violation(self):
        # the 25-px rule applies at request-matching time, not here
        data = build_dataset([two_view_record(0)], [make_gt(1, pixel_height=10.0)], views=VIEWS)
        assert validate_dataset(data) == []

    def test_duplicate_instance_ids_flagged(self):
        data = build_dataset([two_view_record(3), two_view_record(3)], [], views=VIEWS)
        assert any("duplicate instance_id" in v for v in validate_dataset(data))

    def test_dimension_mismatch_flagged(self):
        rec = make_record(0, features={"a": [1.0, 2.0], "b": [0.1, 0.2]})
        data = build_dataset([rec], [], views=VIEWS)
        assert any("dimension" in v for v in validate_dataset(data))

    def test_missing_view_flagged(self):
        rec = make_record(0, features={"a": [1.0, 2.0]})
        data = build_dataset([rec], [], views=VIEWS)
        assert any("missing feature view" in v for v in validate_dataset(data))

    def test_confidence_out_of_range_flagged(self):
        data = build_dataset([two_view_record(0, confidence=1.5)], [], views=VIEWS)
        assert any("confidence" in v for v in validate_dataset(data))

    def test_missing_optional_fields_allowed(self):
        data = build_dataset(
            [two_view_record(0, confidence=None, pred_depth=None)], [], views=VIEWS
        )
        assert validate_dataset(data) == []

    def test_nonpositive_gt_depth_flagged(self):
        data = build_dataset([two_view_record(0)], [make_gt(1, depth=0.0)], views=VIEWS)
        assert any("gt 1" in v and "depth" in v for v in validate_dataset(data))

    @pytest.mark.parametrize(
        "record, gt, tag, field",
        [
            ({"pred_depth": float("inf")}, {}, "instance 0", "pred_depth"),
            ({"aux_depths": (12.0, float("nan"))}, {}, "instance 0", "aux_depths"),
            ({}, {"depth": float("inf")}, "gt 1", "depth"),
            ({}, {"pixel_height": float("nan")}, "gt 1", "pixel_height"),
            ({}, {"center": (float("nan"), float("inf"))}, "gt 1", "center2d"),
            ({}, {"center": (10.0, float("-inf"))}, "gt 1", "center2d"),
        ],
    )
    def test_non_finite_scalars_flagged(self, record, gt, tag, field):
        data = build_dataset([two_view_record(0, **record)], [make_gt(1, **gt)], views=VIEWS)
        violations = validate_dataset(data)
        assert len(violations) == 1
        assert tag in violations[0] and field in violations[0] and "finite" in violations[0]

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_flagged(self, lam):
        views = (VIEWS[0], ViewSpec("b", 3, lam))
        violations = validate_dataset(build_dataset([two_view_record(0)], [], views=views))
        assert len(violations) == 1
        assert "view 'b'" in violations[0] and "lambda must be finite" in violations[0]

    @pytest.mark.parametrize(
        "fx, fy", [(float("inf"), 100.0), (100.0, float("nan")), (float("-inf"), 100.0), (0.0, 100.0)]
    )
    def test_focal_lengths_must_be_finite_and_positive(self, fx, fy):
        data = build_dataset([two_view_record(0)], [], views=VIEWS, camera=CameraModel(fx, fy))
        violations = validate_dataset(data)
        assert len(violations) == 1
        assert violations[0].startswith("camera: focal lengths must be finite and > 0")


class TestDatasetHelpers:
    def test_labelable_counts_apply_height_filter(self):
        gts = [
            make_gt(0, image_id="a", pixel_height=30.0),
            make_gt(1, image_id="a", pixel_height=10.0),
            make_gt(2, image_id="b", pixel_height=60.0),
        ]
        data = build_dataset([two_view_record(0, image_id="a")], gts, views=VIEWS)
        assert data.labelable_counts(25.0) == {"a": 1, "b": 1}
        assert data.images == {"a": 2, "b": 1}

    def test_view_lookup(self):
        data = build_dataset([two_view_record(0)], [], views=VIEWS)
        assert data.view("a").dim == 2
        with pytest.raises(KeyError):
            data.view("missing")

    def test_matrix_stacks_the_rows_once(self):
        data = build_dataset([two_view_record(0), two_view_record(1)], [], views=VIEWS)
        m = data.matrix("b")
        assert m.dtype == np.float64
        assert np.array_equal(m, np.stack([r.features["b"] for r in data.instances]))
        assert data.matrix("b") is m
        # A replaced dataset may hold other records: it stacks its own.
        fewer = replace(data, instances=data.instances[:1])
        assert fewer.matrix("b").shape == (1, 3)
        assert build_dataset([], [], views=VIEWS).matrix("a").shape == (0, 2)
        with pytest.raises(KeyError):
            data.matrix("missing")

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**70])
    def test_ids_outside_int64_flagged(self, big):
        fits = [2**63 - 1, -(2**63)]
        data = build_dataset(
            [two_view_record(i) for i in [*fits, big]], [make_gt(i) for i in [big, *fits]], views=VIEWS
        )
        assert validate_dataset(data) == [
            f"instance {big}: instance_id must be within int64",
            f"gt {big}: gt_id must be within int64",
        ]
        with pytest.raises(ValueError, match=f"^instance_id {big} is outside int64$"):
            data.instance_ids

    def test_field_columns_built_once(self):
        data = build_dataset([two_view_record(7), two_view_record(3)], [], views=VIEWS)
        cx = data.column("cx")
        assert cx == tuple(r.box2d.cx for r in data.instances)
        assert data.column("cx") is cx
        assert data.column("pred_depth") == tuple(r.pred_depth for r in data.instances)
        assert replace(data, instances=data.instances[1:]).column("instance_id") == (3,)

    def test_instance_ids_column_built_once(self):
        data = build_dataset([two_view_record(7), two_view_record(3)], [], views=VIEWS)
        ids = data.instance_ids
        assert ids.dtype == np.int64 and ids.tolist() == [7, 3]
        assert data.instance_ids is ids
        with pytest.raises(ValueError):
            ids[0] = 1
        # A replaced dataset may hold other records: it builds its own.
        assert replace(data, instances=data.instances[1:]).instance_ids.tolist() == [3]
        assert build_dataset([], [], views=VIEWS).instance_ids.shape == (0,)


def reference_violations(d):
    """The per-record validator that the column validator replaced, kept
    as the reference its output must equal."""
    violations = []
    if not (0 < d.camera.f_x < math.inf and 0 < d.camera.f_y < math.inf):
        violations.append(f"camera: focal lengths must be finite and > 0, got ({d.camera.f_x}, {d.camera.f_y})")
    seen_views = set()
    for v in d.views:
        if v.name in seen_views:
            violations.append(f"view {v.name!r}: duplicate view name")
        seen_views.add(v.name)
        if v.dim < 1:
            violations.append(f"view {v.name!r}: dim must be >= 1, got {v.dim}")
        if not 0 <= v.lam < math.inf:
            violations.append(f"view {v.name!r}: lambda must be finite and >= 0, got {v.lam}")
    seen_ids = set()
    for r in d.instances:
        tag = f"instance {r.instance_id}"
        if r.instance_id in seen_ids:
            violations.append(f"{tag}: duplicate instance_id")
        seen_ids.add(r.instance_id)
        if r.image_id not in d.images:
            violations.append(f"{tag}: image_id {r.image_id!r} not in dataset images")
        if not all(math.isfinite(x) for x in (r.box2d.cx, r.box2d.cy, r.box2d.w, r.box2d.h)):
            violations.append(f"{tag}: box2d coordinates must be finite")
        elif r.box2d.w < 0 or r.box2d.h < 0:
            violations.append(f"{tag}: box2d width/height must be >= 0")
        if r.pred_depth is not None and not 0 < r.pred_depth < math.inf:
            violations.append(f"{tag}: pred_depth must be finite and > 0, got {r.pred_depth}")
        if r.aux_depths is not None and not all(map(math.isfinite, r.aux_depths)):
            violations.append(f"{tag}: aux_depths must be finite, got {r.aux_depths}")
        if r.confidence is not None and not 0.0 <= r.confidence <= 1.0:
            violations.append(f"{tag}: confidence must be in [0, 1], got {r.confidence}")
        for v in d.views:
            vec = r.features.get(v.name)
            if vec is None:
                violations.append(f"{tag}: missing feature view {v.name!r}")
            elif vec.shape != (v.dim,):
                violations.append(f"{tag}: view {v.name!r} has dimension {vec.shape}, declared {v.dim}")
    seen_gt = set()
    for g in d.ground_truth:
        tag = f"gt {g.gt_id}"
        if g.gt_id in seen_gt:
            violations.append(f"{tag}: duplicate gt_id")
        seen_gt.add(g.gt_id)
        if not (math.isfinite(g.center2d[0]) and math.isfinite(g.center2d[1])):
            violations.append(f"{tag}: center2d must be finite, got {g.center2d}")
        if not 0 < g.depth < math.inf:
            violations.append(f"{tag}: depth must be finite and > 0, got {g.depth}")
        if not 0 <= g.pixel_height < math.inf:
            violations.append(f"{tag}: pixel_height must be finite and >= 0, got {g.pixel_height}")
    return violations


# Values that pass, and the faults injected beside them, rarer, so that a
# record often has one fault alone. Integral numbers check that each message
# prints the record's own value.
def values(good, faults):
    return st.sampled_from(list(good) * 8 + list(faults))


INF, NAN = float("inf"), float("nan")
REAL = values([12.5, 0.25, 3, -0.0], [NAN, INF, -INF])
INSTANCE = st.builds(
    make_record,
    instance_id=st.integers(0, 12),
    image_id=values(["img0", "img1"], ["unknown"]),
    center=st.tuples(REAL, REAL),
    size=st.tuples(values([5.0, 0.0, 2], [-1.5, -3, NAN, INF]), values([5.0, 0.0, 2], [-1.5, -3, NAN, INF])),
    features=values(
        [{"a": [1.0, 2.0], "b": [0.1, 0.2, 0.3]}],
        [{"a": [1.0, 2.0]}, {"a": [1.0, 2.0, 3.0], "b": [0.1, 0.2, 0.3]}, {"b": [[0.1, 0.2, 0.3]]}, {}],
    ),
    pred_depth=values([None, 20.0, 7], [0.0, -2.5, -1, NAN, INF]),
    confidence=values([None, 0.5, 0.0, 1], [1.5, -0.25, NAN]),
    aux_depths=values([None, (), (12.0, 13.5), (9, 11.0)], [(NAN,), (4.0, INF)]),
)
GT = st.builds(
    make_gt,
    gt_id=st.integers(0, 8),
    image_id=st.sampled_from(["img0", "img1"]),
    center=st.tuples(REAL, REAL),
    depth=values([20.0, 3], [0.0, -4.0, NAN, INF]),
    pixel_height=values([60.0, 0.0, 12], [-1.0, NAN, INF]),
)
VIEW_SETS = values(
    [VIEWS, ()],
    [(VIEWS[0], ViewSpec("b", 3, NAN)), (VIEWS[0], ViewSpec("b", 0, 0.5)), VIEWS + (ViewSpec("a", 4, 0.1),)],
)


class TestColumnValidator:
    @settings(deadline=None, max_examples=300)
    @given(
        instances=st.lists(INSTANCE, max_size=8),
        gts=st.lists(GT, max_size=5),
        views=VIEW_SETS,
        camera=values([CameraModel(100.0, 100.0)], [CameraModel(INF, 50), CameraModel(0.0, 1.0)]),
    )
    def test_equals_the_per_record_reference(self, instances, gts, views, camera):
        data = build_dataset(instances, gts, views=views, camera=camera)
        # Images not every record names: an unknown image id is a fault.
        data = replace(data, images={k: n for k, n in data.images.items() if k != "unknown"})
        assert validate_dataset(data) == reference_violations(data)
