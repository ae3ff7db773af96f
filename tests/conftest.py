"""Shared builders for unit and acceptance tests."""

from __future__ import annotations

import numpy as np
import pytest

from alsim.records import Box2D, CameraModel, Dataset, GroundTruthObject, InstanceRecord, ViewSpec


def make_record(
    instance_id,
    image_id="img0",
    class_id=0,
    center=(100.0, 100.0),
    size=(40.0, 40.0),
    features=None,
    pred_depth=20.0,
    confidence=0.5,
    aux_depths=None,
):
    feats = {}
    if features is not None:
        feats = {name: np.asarray(vec, dtype=np.float64) for name, vec in features.items()}
    return InstanceRecord(
        image_id=image_id,
        instance_id=instance_id,
        class_id=class_id,
        box2d=Box2D(center[0], center[1], size[0], size[1]),
        features=feats,
        pred_depth=pred_depth,
        confidence=confidence,
        aux_depths=aux_depths,
    )


def make_gt(gt_id, image_id="img0", class_id=0, center=(100.0, 100.0), depth=20.0, pixel_height=60.0):
    return GroundTruthObject(
        gt_id=gt_id,
        image_id=image_id,
        class_id=class_id,
        center2d=center,
        depth=depth,
        pixel_height=pixel_height,
    )


def scalar_records(values, ids=None):
    """1-D feature records for metric-agnostic selection tests."""
    if ids is None:
        ids = list(range(len(values)))
    return [make_record(i, features={"v": [float(x)]}) for i, x in zip(ids, values)]


class _Euclid1D:
    """Absolute difference of the 1-D feature "v": a scalar callable for
    brute-force references, plus the ``embed``/``between`` pair that
    selection and the covering radius use."""

    def __call__(self, a, b):
        return abs(float(a.features["v"][0]) - float(b.features["v"][0]))

    def embed(self, records):
        return np.array([float(r.features["v"][0]) for r in records]).reshape(len(records), 1)

    def between(self, A, B):
        return np.abs(A - B.T)


euclid1d = _Euclid1D()


def build_dataset(instances, gts, views=(), camera=None):
    images: dict[str, int] = {}
    for r in instances:
        images.setdefault(r.image_id, 0)
    for g in gts:
        images.setdefault(g.image_id, 0)
        images[g.image_id] += 1
    return Dataset(
        camera=camera or CameraModel(100.0, 100.0),
        views=tuple(views),
        instances=tuple(instances),
        ground_truth=tuple(gts),
        images=images,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
