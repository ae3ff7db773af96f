"""Domain types for the instance pool, ground truth, and feature views."""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from numbers import Integral
from operator import attrgetter

import numpy as np

__all__ = [
    "CameraModel",
    "Box2D",
    "ViewSpec",
    "InstanceRecord",
    "GroundTruthObject",
    "Dataset",
    "validate_dataset",
]


@dataclass(frozen=True)
class CameraModel:
    """Pinhole focal lengths in pixels."""

    f_x: float
    f_y: float


@dataclass(frozen=True, slots=True)
class Box2D:
    """Axis-aligned 2D box given by center, width, and height in pixels."""

    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class ViewSpec:
    """A named feature view: vector dimensionality plus its fusion weight."""

    name: str
    dim: int
    lam: float


@dataclass(frozen=True, eq=False, slots=True)
class InstanceRecord:
    """One detector prediction in the unlabeled pool.

    ``features`` maps view name to a float vector. A loaded record's
    ``features`` is a read-only ``_MatrixRow`` over its dataset's per-view
    matrices, so it holds no arrays of its own; a record built by hand may
    pass any mapping, such as a dict. ``pred_depth`` and
    ``confidence`` may be absent; strategies that need them reject such
    pools at setup time. ``aux_depths`` holds depth predictions of
    auxiliary ensemble members already associated to this instance.
    """

    image_id: str
    instance_id: int
    class_id: int
    box2d: Box2D
    features: Mapping[str, np.ndarray] = field(default_factory=dict)
    pred_depth: float | None = None
    confidence: float | None = None
    aux_depths: tuple[float, ...] | None = None

    @property
    def center(self) -> tuple[float, float]:
        return (self.box2d.cx, self.box2d.cy)


class _MatrixRow(Mapping):
    """Row ``row`` of each view's matrix in ``matrices``, read as a mapping
    from view name to vector: ``self[name]`` is ``matrices[name][row]``, a
    view of the matrix made on each read. The loader gives every record one,
    over one dict that all its records share, in place of a dict of row
    views per record, and checks that each matrix has one row per record,
    so ``row`` is always in range."""

    __slots__ = ("matrices", "row")

    def __init__(self, matrices: Mapping[str, np.ndarray], row: int):
        self.matrices = matrices
        self.row = row

    def __getitem__(self, name: str) -> np.ndarray:
        return self.matrices[name][self.row]

    def __iter__(self) -> Iterator[str]:
        return iter(self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """An annotatable object known to the oracle."""

    gt_id: int
    image_id: str
    class_id: int
    center2d: tuple[float, float]
    depth: float
    pixel_height: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable container for one feature export.

    ``images`` maps image id to its ground-truth object count, in
    manifest order. ``matrix(name)`` is one view's features as a single
    matrix in instance order, and ``instance_ids`` the instance ids as one
    column. The loader hands over the matrices that its records'
    ``features`` read their rows from; any other dataset, such as a
    ``dataclasses.replace`` with other instances, stacks a view's rows on
    first use and keeps the result, and every dataset builds its id column
    on first use. Those memos are the only thing that changes after
    construction, and each only ever gains a value equal to the records'
    fields, so the container is safe to share read-only across workers.
    Treat the matrices as read-only: the loader's are the records' own
    feature rows.
    """

    camera: CameraModel
    views: tuple[ViewSpec, ...]
    instances: tuple[InstanceRecord, ...]
    ground_truth: tuple[GroundTruthObject, ...]
    images: dict[str, int]
    # Not an init field, so ``dataclasses.replace`` starts an empty memo.
    _matrices: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def matrix(self, name: str) -> np.ndarray:
        """The ``(len(instances), dim)`` float64 features of view ``name``,
        one row per instance in instance order."""
        m = self._matrices.get(name)
        if m is None:
            dim = self.view(name).dim
            rows = [r.features[name] for r in self.instances]
            m = np.array(rows, dtype=np.float64).reshape(len(self.instances), dim)
            self._matrices[name] = m
        return m

    @cached_property
    def instance_ids(self) -> np.ndarray:
        """The read-only int64 instance ids, one per instance in instance order."""
        ids = np.fromiter((r.instance_id for r in self.instances), dtype=np.int64, count=len(self.instances))
        ids.flags.writeable = False
        return ids

    def labelable_counts(self, min_px_height: float) -> dict[str, int]:
        """Per-image count of ground-truth objects tall enough to label."""
        counts = {img: 0 for img in self.images}
        for g in self.ground_truth:
            if g.pixel_height >= min_px_height:
                counts[g.image_id] = counts.get(g.image_id, 0) + 1
        return counts

    def view(self, name: str) -> ViewSpec:
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(f"unknown view {name!r}")


# The record field that each column of ``_Columns`` lists.
_INSTANCE_FIELDS = {
    "image_id": "image_id",
    "instance_id": "instance_id",
    "class_id": "class_id",
    "cx": "box2d.cx",
    "cy": "box2d.cy",
    "w": "box2d.w",
    "h": "box2d.h",
    "pred_depth": "pred_depth",
    "confidence": "confidence",
    "aux_depths": "aux_depths",
}
_GT_FIELDS = {
    "gt_id": "gt_id",
    "gt_image_id": "image_id",
    "gt_class_id": "class_id",
    "center2d": "center2d",
    "depth": "depth",
    "pixel_height": "pixel_height",
}


@dataclass(frozen=True, eq=False)
class _Columns:
    """A dataset as one list per record field: the form the loader reads
    lines into, and the one validation and writing read.

    Entry ``i`` of each instance column is that field of the ``i``-th
    instance, and likewise for the ground-truth columns; those prefixed
    ``gt_`` share their name with an instance field. The entries are the
    values the records hold: the loader checks and converts each column
    once, and a dataset stacks its records' fields as they are.
    ``matrices`` holds each view's features. ``feature_shapes`` is filled
    only for a dataset stacked from records, whose vectors may be
    misshapen or absent: per view name, each row's vector shape, or
    ``None`` where the record has no vector. The loader checks each
    matrix as it reads it instead.
    """

    camera: CameraModel
    views: tuple[ViewSpec, ...]
    images: dict[str, int]
    matrices: Mapping[str, np.ndarray]
    image_id: list[str]
    instance_id: list[int]
    class_id: list[int]
    cx: list[float]
    cy: list[float]
    w: list[float]
    h: list[float]
    pred_depth: list[float | None]
    confidence: list[float | None]
    aux_depths: list[tuple[float, ...] | None]
    gt_id: list[int]
    gt_image_id: list[str]
    gt_class_id: list[int]
    center2d: list[tuple[float, float]]
    depth: list[float]
    pixel_height: list[float]
    feature_shapes: Mapping[str, list[tuple[int, ...] | None]] = field(default_factory=dict)

    @classmethod
    def stack(cls, d: Dataset) -> _Columns:
        """The columns of ``d``'s records; a view's matrix is stacked only
        if each of its rows has the declared shape."""
        inst, gts = d.instances, d.ground_truth
        shapes: dict[str, list] = {}
        matrices = {}
        for v in d.views:
            if v.name in shapes:
                continue
            vecs = (r.features.get(v.name) for r in inst)
            shapes[v.name] = rows = [None if vec is None else vec.shape for vec in vecs]
            if rows.count((v.dim,)) == len(rows):
                matrices[v.name] = d.matrix(v.name)
        columns = {name: list(map(attrgetter(f), inst)) for name, f in _INSTANCE_FIELDS.items()}
        columns.update((name, list(map(attrgetter(f), gts))) for name, f in _GT_FIELDS.items())
        return cls(
            camera=d.camera, views=d.views, images=d.images, matrices=matrices, feature_shapes=shapes, **columns
        )


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _whole(value) -> int:
    """``value`` as an int: 3, 3.0 and numpy numbers like them pass; a
    fraction, a non-finite float, a boolean, a string or anything else
    raises ValueError. Plain type tests first: the loader calls this per
    value of a column that needs converting."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer() or isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


def _real(value) -> float:
    """A JSON number as a float; a boolean, a string or anything else
    raises ValueError. Plain type tests only: the loader calls this per
    value of a column that needs converting."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def _repeats(ids: list) -> set[int]:
    """The rows whose id an earlier row already has."""
    if len(set(ids)) == len(ids):
        return set()
    seen: set = set()
    rows = set()
    for i, x in enumerate(ids):
        if x in seen:
            rows.add(i)
        seen.add(x)
    return rows


def _fails(values: list, ok, optional: bool = False) -> np.ndarray:
    """The mask of the rows whose value, read as float64, fails ``ok``;
    with ``optional``, rows whose value is ``None`` pass."""
    a = np.array(values, dtype=np.float64)  # None reads as NaN, which fails every test
    bad = ~ok(a)
    if optional:
        rows = np.flatnonzero(bad)
        bad[rows] = [values[i] is not None for i in rows.tolist()]
    return bad


def validate_dataset(d: Dataset | _Columns) -> list[str]:
    """Check every type invariant and return the list of violations.

    Violations are data, not exceptions: each entry names the offending
    record and the broken rule. An empty list means the dataset is valid.
    Note the 25-px minimum height is a selection-time rule, so short
    ground-truth objects are not flagged here.

    ``d`` is a dataset or its columns. Each rule is first tested over a
    whole column; the messages are then made, record by record, for the
    rows some test flagged.
    """
    c = d if isinstance(d, _Columns) else _Columns.stack(d)
    violations: list[str] = []

    if not (0 < c.camera.f_x < math.inf and 0 < c.camera.f_y < math.inf):
        violations.append(f"camera: focal lengths must be finite and > 0, got ({c.camera.f_x}, {c.camera.f_y})")

    seen_views: set[str] = set()
    for v in c.views:
        if v.name in seen_views:
            violations.append(f"view {v.name!r}: duplicate view name")
        seen_views.add(v.name)
        if v.dim < 1:
            violations.append(f"view {v.name!r}: dim must be >= 1, got {v.dim}")
        if not 0 <= v.lam < math.inf:
            violations.append(f"view {v.name!r}: lambda must be finite and >= 0, got {v.lam}")

    n = len(c.instance_id)
    repeated = _repeats(c.instance_id)
    box = np.array([c.cx, c.cy, c.w, c.h], dtype=np.float64)
    flagged = ~np.isfinite(box).all(axis=0) | (box[2] < 0) | (box[3] < 0)
    flagged |= _fails(c.pred_depth, lambda a: (0 < a) & (a < math.inf), optional=True)
    flagged |= _fails(c.confidence, lambda a: (0 <= a) & (a <= 1), optional=True)
    aux = np.fromiter(chain.from_iterable(filter(None, c.aux_depths)), dtype=np.float64)
    if not np.isfinite(aux).all():
        flagged |= [a is not None and not all(map(math.isfinite, a)) for a in c.aux_depths]
    flagged[list(repeated)] = True
    if not c.images.keys() >= set(c.image_id):
        flagged |= [image_id not in c.images for image_id in c.image_id]
    misshapen = []
    for v in c.views:
        shapes = c.feature_shapes.get(v.name)
        if shapes is not None and shapes.count((v.dim,)) != n:
            misshapen.append((v, shapes))
            flagged |= [s != (v.dim,) for s in shapes]

    for i in np.flatnonzero(flagged).tolist():
        tag = f"instance {c.instance_id[i]}"
        if i in repeated:
            violations.append(f"{tag}: duplicate instance_id")
        if c.image_id[i] not in c.images:
            violations.append(f"{tag}: image_id {c.image_id[i]!r} not in dataset images")
        if not _finite(c.cx[i], c.cy[i], c.w[i], c.h[i]):
            violations.append(f"{tag}: box2d coordinates must be finite")
        elif c.w[i] < 0 or c.h[i] < 0:
            violations.append(f"{tag}: box2d width/height must be >= 0")
        # Chained comparisons against inf also refuse NaN, without a call.
        pred_depth, aux_depths, confidence = c.pred_depth[i], c.aux_depths[i], c.confidence[i]
        if pred_depth is not None and not 0 < pred_depth < math.inf:
            violations.append(f"{tag}: pred_depth must be finite and > 0, got {pred_depth}")
        if aux_depths is not None and not all(map(math.isfinite, aux_depths)):
            violations.append(f"{tag}: aux_depths must be finite, got {aux_depths}")
        if confidence is not None and not 0.0 <= confidence <= 1.0:
            violations.append(f"{tag}: confidence must be in [0, 1], got {confidence}")
        for v, shapes in misshapen:
            if shapes[i] is None:
                violations.append(f"{tag}: missing feature view {v.name!r}")
            elif shapes[i] != (v.dim,):
                violations.append(f"{tag}: view {v.name!r} has dimension {shapes[i]}, declared {v.dim}")

    m = len(c.gt_id)
    repeated = _repeats(c.gt_id)
    flagged = ~np.isfinite(np.array(c.center2d, dtype=np.float64).reshape(m, 2)).all(axis=1)
    flagged |= _fails(c.depth, lambda a: (0 < a) & (a < math.inf))
    flagged |= _fails(c.pixel_height, lambda a: (0 <= a) & (a < math.inf))
    flagged[list(repeated)] = True
    for i in np.flatnonzero(flagged).tolist():
        tag = f"gt {c.gt_id[i]}"
        if i in repeated:
            violations.append(f"{tag}: duplicate gt_id")
        center2d, depth, pixel_height = c.center2d[i], c.depth[i], c.pixel_height[i]
        if not (math.isfinite(center2d[0]) and math.isfinite(center2d[1])):
            violations.append(f"{tag}: center2d must be finite, got {center2d}")
        if not 0 < depth < math.inf:
            violations.append(f"{tag}: depth must be finite and > 0, got {depth}")
        if not 0 <= pixel_height < math.inf:
            violations.append(f"{tag}: pixel_height must be finite and >= 0, got {pixel_height}")

    return violations
