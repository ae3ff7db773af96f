from dataclasses import replace

import numpy as np
import pytest

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
