"""Manifest and feature-blob I/O.

A dataset on disk is a JSON Lines manifest plus one sidecar blob file
per feature view. The manifest starts with a header line::

    {"kind": "header",
     "views": [{"name": ..., "dim": ..., "lambda": ...}, ...],
     "camera": {"fx": ..., "fy": ...},
     "blobs": {view_name: relative_path, ...}}

followed by ``{"kind": "instance", ...}`` and ``{"kind": "gt", ...}``
lines in any order. A raw export (``alsim ingest`` input) has the same
lines with no ``blobs``; each instance line carries its vectors inline as
``"features": {view_name: [...], ...}``. Both go through one line parser
and one assembly step, so they are refused for the same faults. Blob
layout, bit-exact:

    magic ``ALF1`` | uint32 LE count | uint32 LE dim | count*dim float32 LE

rows are stored row-major, one row per instance in manifest order.
Features are float32 on disk and widened to float64 in memory.
"""

from __future__ import annotations

import json
import re
import struct
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from .records import (
    Box2D,
    CameraModel,
    Dataset,
    GroundTruthObject,
    InstanceRecord,
    ViewSpec,
    _real,
    _whole,
    validate_dataset,
)

__all__ = ["DatasetError", "read_blob", "write_blob", "load_dataset", "read_raw_export", "write_dataset"]

_MAGIC = b"ALF1"


class DatasetError(ValueError):
    """Raised for malformed manifests, blobs, or invariant violations."""


def write_blob(path, matrix) -> None:
    """Write a (count, dim) float matrix as an ALF1 blob."""
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    if arr.ndim != 2:
        raise DatasetError(f"blob matrix must be 2-D, got shape {arr.shape}")
    count, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", count, dim))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_blob(path) -> np.ndarray:
    """Read an ALF1 blob into a float64 (count, dim) matrix."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read blob ({exc.strerror})") from exc
    if len(raw) < 12 or raw[:4] != _MAGIC:
        raise DatasetError(f"{path}: not an ALF1 blob")
    count, dim = struct.unpack("<II", raw[4:12])
    expected = 12 + count * dim * 4
    if len(raw) != expected:
        raise DatasetError(f"{path}: blob truncated or oversized ({len(raw)} bytes, expected {expected})")
    data = np.frombuffer(raw, dtype="<f4", offset=12, count=count * dim)
    return data.reshape(count, dim).astype(np.float64)


def _parse_views(header: dict) -> tuple[ViewSpec, ...]:
    views = []
    for entry in header.get("views", []):
        views.append(ViewSpec(name=str(entry["name"]), dim=_whole(entry["dim"]), lam=_real(entry["lambda"])))
    return tuple(views)


def _parse_instance(obj: dict, inline: dict[str, tuple[array, list[int]]]) -> InstanceRecord:
    box = obj["box2d"]
    aux = obj.get("aux_depths")
    record = InstanceRecord(
        image_id=str(obj["image_id"]),
        instance_id=_whole(obj["instance_id"]),
        class_id=_whole(obj["class_id"]),
        box2d=Box2D(_real(box["cx"]), _real(box["cy"]), _real(box["w"]), _real(box["h"])),
        features={},
        pred_depth=None if obj.get("pred_depth") is None else _real(obj["pred_depth"]),
        confidence=None if obj.get("confidence") is None else _real(obj["confidence"]),
        aux_depths=None if aux is None else tuple(map(_real, aux)),
    )
    for name, vec in obj.get("features", {}).items():
        flat, lengths = inline[name]
        flat.fromlist(vec)
        lengths.append(len(vec))
    return record


def _parse_gt(obj: dict) -> GroundTruthObject:
    cx, cy = obj["center2d"]
    return GroundTruthObject(
        gt_id=_whole(obj["gt_id"]),
        image_id=str(obj["image_id"]),
        class_id=_whole(obj["class_id"]),
        center2d=(_real(cx), _real(cy)),
        depth=_real(obj["depth"]),
        pixel_height=_real(obj["pixel_height"]),
    )


def _non_utf8_location(path: Path) -> str:
    """``path:line`` of the first line (split on newlines) that is not
    UTF-8, or the bare path if every line decodes."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}:{lineno}"
    return str(path)


def _read_manifest(path: Path):
    """Parse every line of a manifest or raw export.

    Returns the header, the instance and gt records in file order, and the
    ``features`` vectors that instance lines carry inline, as
    ``{view: (flat float64 buffer, length of each line's vector)}``.
    """
    header = None
    instances: list[InstanceRecord] = []
    gts: list[GroundTruthObject] = []
    inline: dict[str, tuple[array, list[int]]] = defaultdict(lambda: (array("d"), []))
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read ({exc.strerror})") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
                kind = obj.get("kind") if isinstance(obj, dict) else None
                if kind == "header":
                    if header is not None:
                        raise DatasetError(f"{path}:{lineno}: duplicate header line")
                    header = obj
                    continue
                if kind not in ("instance", "gt"):
                    raise DatasetError(f"{path}:{lineno}: unknown record kind {kind!r}")
                try:
                    if kind == "instance":
                        instances.append(_parse_instance(obj, inline))
                    else:
                        gts.append(_parse_gt(obj))
                except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise DatasetError(f"{path}:{lineno}: malformed {kind} line ({exc!r})") from exc
        except UnicodeDecodeError as exc:
            # Text is decoded in chunks, so the failing line is found again.
            raise DatasetError(f"{_non_utf8_location(path)}: not UTF-8 text ({exc.reason})") from exc
    if header is None:
        raise DatasetError(f"{path}: manifest has no header line")
    return header, instances, gts, inline


def _image_table(instances, gts) -> dict[str, int]:
    # First-seen order over instance then gt lines keeps loading
    # order-preserving and deterministic.
    images: dict[str, int] = {}
    for r in instances:
        images.setdefault(r.image_id, 0)
    for g in gts:
        images.setdefault(g.image_id, 0)
        images[g.image_id] += 1
    return images


def _assemble(path: Path, header: dict, instances, gts, view_matrix) -> Dataset:
    """Build a dataset from parsed lines and ``view_matrix(view)``, one
    (instances, dim) feature matrix per declared view.

    Each matrix is checked once for shape and finiteness; the result is not
    yet validated.
    """
    try:
        views = _parse_views(header)
        cam = header.get("camera", {})
        camera = CameraModel(f_x=_real(cam["fx"]), f_y=_real(cam["fy"]))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: malformed header line ({exc!r})") from exc

    feature_rows: dict[str, np.ndarray] = {}
    for v in views:
        matrix = view_matrix(v)
        if matrix.shape[0] != len(instances):
            raise DatasetError(
                f"view {v.name!r}: {matrix.shape[0]} feature rows for {len(instances)} instances"
            )
        if matrix.shape[1] != v.dim:
            raise DatasetError(
                f"view {v.name!r}: dimension mismatch (declared {v.dim}, rows have {matrix.shape[1]})"
            )
        if not np.isfinite(matrix).all():
            raise DatasetError(f"view {v.name!r}: non-finite feature values")
        feature_rows[v.name] = matrix

    # The records are still private to the parser, which gave each an
    # empty feature dict: fill it in place instead of rebuilding records.
    for name, matrix in feature_rows.items():
        for r, row in zip(instances, matrix):
            r.features[name] = row
    dataset = Dataset(
        camera=camera,
        views=views,
        instances=tuple(instances),
        ground_truth=tuple(gts),
        images=_image_table(instances, gts),
    )
    # The rows above are views of these matrices: ``Dataset.matrix`` hands
    # them out instead of stacking the rows again.
    dataset._matrices.update(feature_rows)
    return dataset


def load_dataset(path) -> Dataset:
    """Load and fully validate a dataset from a manifest file.

    Raises ``DatasetError`` on malformed input, blob/view dimension
    mismatch, non-finite features, duplicate ids, or any type-invariant
    violation.
    """
    path = Path(path)
    header, instances, gts, _ = _read_manifest(path)
    blob_refs = header.get("blobs", {})

    def blob_matrix(v: ViewSpec) -> np.ndarray:
        if v.name not in blob_refs:
            raise DatasetError(f"header declares view {v.name!r} but no blob reference")
        return read_blob(path.parent / blob_refs[v.name])

    dataset = _assemble(path, header, instances, gts, blob_matrix)
    violations = validate_dataset(dataset)
    if violations:
        raise DatasetError("invalid dataset: " + "; ".join(violations))
    return dataset


def read_raw_export(path) -> Dataset:
    """Parse a raw export: manifest lines whose instances carry their
    feature vectors inline instead of in blobs.

    Raises ``DatasetError`` on the same malformed input as
    ``load_dataset``. The result is not validated; callers report
    ``validate_dataset`` violations themselves.
    """
    path = Path(path)
    header, instances, gts, inline = _read_manifest(path)

    def inline_matrix(v: ViewSpec) -> np.ndarray:
        flat, lengths = inline.get(v.name, (array("d"), []))
        if lengths.count(v.dim) != len(lengths):
            raise DatasetError(f"view {v.name!r}: inline vectors differ from the declared dim {v.dim}")
        return np.frombuffer(flat, dtype=np.float64).reshape(len(lengths), v.dim)

    return _assemble(path, header, instances, gts, inline_matrix)


def _blob_name(index: int, view_name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_-]", "_", view_name)
    return f"view{index:02d}_{safe}.alf"


def _instance_line(r: InstanceRecord) -> dict:
    obj = {
        "kind": "instance",
        "image_id": r.image_id,
        "instance_id": r.instance_id,
        "class_id": r.class_id,
        "box2d": {"cx": r.box2d.cx, "cy": r.box2d.cy, "w": r.box2d.w, "h": r.box2d.h},
        "pred_depth": r.pred_depth,
        "confidence": r.confidence,
    }
    if r.aux_depths is not None:
        obj["aux_depths"] = list(r.aux_depths)
    return obj


def _gt_line(g: GroundTruthObject) -> dict:
    return {
        "kind": "gt",
        "gt_id": g.gt_id,
        "image_id": g.image_id,
        "class_id": g.class_id,
        "center2d": [g.center2d[0], g.center2d[1]],
        "depth": g.depth,
        "pixel_height": g.pixel_height,
    }


def write_dataset(dataset: Dataset, manifest_path) -> None:
    """Write a dataset as manifest plus blobs next to the manifest.

    Round-trips with ``load_dataset``: feature blobs come back
    byte-identical because vectors are stored as float32 on both sides.
    """
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)

    blobs = {}
    for i, v in enumerate(dataset.views):
        name = _blob_name(i, v.name)
        write_blob(manifest_path.parent / name, dataset.matrix(v.name))
        blobs[v.name] = name

    header = {
        "kind": "header",
        "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in dataset.views],
        "camera": {"fx": dataset.camera.f_x, "fy": dataset.camera.f_y},
        "blobs": blobs,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for r in dataset.instances:
            fh.write(json.dumps(_instance_line(r), separators=(",", ":")) + "\n")
        for g in dataset.ground_truth:
            fh.write(json.dumps(_gt_line(g), separators=(",", ":")) + "\n")
