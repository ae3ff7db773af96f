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
``"features": {view_name: [...], ...}``; a view the header does not
declare is refused, and so is an inline vector in a manifest, whose
views are read from their blobs. Both go through one line parser and
one assembly step, so they are refused for the same faults. The parser
decodes each line once and appends its fields to one column per field
(``records._Columns``); each column's types are checked once, and a
faulty line is refused by ``path:line``, the earliest first. Validation
and writing read those columns, so ``alsim ingest`` builds no records;
``load_dataset`` and ``read_raw_export`` build theirs from the checked
columns in one pass. The assembly keeps one float64 matrix per view,
checked to fit float32, and each loaded record's ``features`` reads its
row of those matrices, so records hold no arrays of their own. Blob
layout, bit-exact:

    magic ``ALF1`` | uint32 LE count | uint32 LE dim | count*dim float32 LE

rows are stored row-major, one row per instance in manifest order.
Features are float32 on disk and widened to float64 in memory.
"""

from __future__ import annotations

import json
import os
import re
import struct
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator, Mapping
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .records import (
    Box2D,
    CameraModel,
    Dataset,
    GroundTruthObject,
    InstanceRecord,
    ViewSpec,
    _Columns,
    _GT_FIELDS,
    _INSTANCE_FIELDS,
    _MatrixRow,
    _real,
    _whole,
    validate_dataset,
)

__all__ = ["DatasetError", "read_blob", "write_blob", "load_dataset", "read_raw_export", "write_dataset"]

_MAGIC = b"ALF1"


class DatasetError(ValueError):
    """Raised for malformed manifests, blobs, or invariant violations."""


def write_blob(path, matrix) -> None:
    """Write a (count, dim) float matrix as an ALF1 blob.

    Raises ``DatasetError``, writing nothing, if the matrix is not 2-D or
    holds a value that is not finite as float32.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise DatasetError(f"blob matrix must be 2-D, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        data = arr.astype("<f4")
    if not np.isfinite(data).all():
        raise DatasetError("blob matrix must be finite as float32")
    count, dim = data.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", count, dim))
        fh.write(data.tobytes(order="C"))


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


_INT64 = range(-(2**63), 2**63)


def _int64(value) -> int:
    """``_whole(value)``, refused outside int64, which the id columns hold."""
    whole = _whole(value)
    if whole not in _INT64:
        raise ValueError(f"expected a whole number within int64, got {value!r}")
    return whole


def _real_or_none(value) -> float | None:
    return None if value is None else _real(value)


def _reals(values) -> tuple[float, ...] | None:
    return None if values is None else tuple(map(_real, values))


def _all_int64(values: list) -> bool:
    return set(map(type, values)) <= {int} and (not values or min(values) in _INT64 and max(values) in _INT64)


def _all_float(values) -> bool:
    return set(map(type, values)) <= {float}


def _all_float_or_none(values: list) -> bool:
    return set(map(type, values)) <= {float, type(None)}


def _all_float_items(values: list) -> bool:
    return _all_float(chain.from_iterable(filter(None, values)))


# The checked columns of instance and gt lines, in the order in which the
# line parser reads their fields. Each has a test that its values already
# are what the records hold, which passes for a whole column of well-typed
# lines, and the conversion of one value that the column takes otherwise:
# it raises for the first faulty value.
_CHECKS = {
    "instance": (
        ("instance_id", _all_int64, _int64),
        ("class_id", _all_int64, _int64),
        ("cx", _all_float, _real),
        ("cy", _all_float, _real),
        ("w", _all_float, _real),
        ("h", _all_float, _real),
        ("pred_depth", _all_float_or_none, _real_or_none),
        ("confidence", _all_float_or_none, _real_or_none),
        ("aux_depths", _all_float_items, _reals),
    ),
    "gt": (
        ("gt_id", _all_int64, _int64),
        ("gt_class_id", _all_int64, _int64),
        ("center2d", _all_float_items, _reals),
        ("depth", _all_float, _real),
        ("pixel_height", _all_float, _real),
    ),
}


def _check_columns(path: Path, cols: dict[str, list], lines: dict[str, array]) -> None:
    """Check each column of ``cols`` once, replacing it by its converted
    values where it needs converting.

    ``lines[kind]`` holds the line number of each row. The fault raised is
    that of the earliest line, and within a line that of the field read
    first, so it is the one a line-by-line check would meet first.
    """
    faults = []
    for kind, checks in _CHECKS.items():
        for order, (name, well_typed, convert) in enumerate(checks):
            values = cols[name]
            if well_typed(values):
                continue
            converted: list = []
            try:
                for value in values:
                    converted.append(convert(value))
            except (TypeError, ValueError, OverflowError) as exc:
                faults.append((lines[kind][len(converted)], order, kind, exc))
            else:
                cols[name] = converted
    if faults:
        lineno, _, kind, exc = min(faults, key=lambda fault: fault[:2])
        raise DatasetError(f"{path}:{lineno}: malformed {kind} line ({exc!r})") from exc


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


def _read_lines(path: Path, fh, cols: dict[str, list], lines: dict[str, array], inline) -> dict | None:
    """Append the fields of each instance and gt line of ``fh`` to their
    columns and return the header line.

    Each line is decoded once and each field appended as it is read, so a
    line that fails partway leaves the fields read before the fault in the
    columns. The values are not checked here; ``_check_columns`` checks
    each column once.
    """
    decode = json.JSONDecoder().raw_decode
    intern = sys.intern
    header = None
    instance_line, gt_line = lines["instance"].append, lines["gt"].append
    image_id, instance_id, class_id = cols["image_id"].append, cols["instance_id"].append, cols["class_id"].append
    cx, cy, w, h = cols["cx"].append, cols["cy"].append, cols["w"].append, cols["h"].append
    pred_depth, confidence, aux_depths = cols["pred_depth"].append, cols["confidence"].append, cols["aux_depths"].append
    gt_id, gt_image_id, gt_class_id = cols["gt_id"].append, cols["gt_image_id"].append, cols["gt_class_id"].append
    center2d, depth, pixel_height = cols["center2d"].append, cols["depth"].append, cols["pixel_height"].append
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = decode(line)
            if end != len(line):
                raise ValueError("extra data")
        except ValueError:
            try:
                obj = json.loads(line)  # for its error text
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        kind = obj.get("kind") if isinstance(obj, dict) else None
        try:
            if kind == "instance":
                instance_line(lineno)
                box = obj["box2d"]
                aux = obj.get("aux_depths")
                image_id(intern(str(obj["image_id"])))
                instance_id(obj["instance_id"])
                class_id(obj["class_id"])
                cx(box["cx"])
                cy(box["cy"])
                w(box["w"])
                h(box["h"])
                pred_depth(obj.get("pred_depth"))
                confidence(obj.get("confidence"))
                aux_depths(None if aux is None else tuple(aux))
                for name, vec in obj.get("features", {}).items():
                    flat, lengths = inline[name]
                    flat.fromlist(vec)
                    lengths.append(len(vec))
                continue
            if kind == "gt":
                gt_line(lineno)
                x, y = obj["center2d"]
                gt_id(obj["gt_id"])
                gt_image_id(intern(str(obj["image_id"])))
                gt_class_id(obj["class_id"])
                center2d((x, y))
                depth(obj["depth"])
                pixel_height(obj["pixel_height"])
                continue
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"{path}:{lineno}: malformed {kind} line ({exc!r})") from exc
        if kind != "header":
            raise DatasetError(f"{path}:{lineno}: unknown record kind {kind!r}")
        if header is not None:
            raise DatasetError(f"{path}:{lineno}: duplicate header line")
        header = obj
    return header


def _image_table(image_ids: list[str], gt_image_ids: list[str]) -> dict[str, int]:
    # First-seen order over instance then gt lines keeps loading
    # order-preserving and deterministic.
    images = dict.fromkeys(image_ids, 0)
    images.update(Counter(gt_image_ids))
    return images


def _read_manifest(path: Path):
    """Read every line of a manifest or raw export into columns.

    Returns the ``_Columns`` of its lines, whose ``matrices`` is still
    empty (image ids interned, so each image has one ``str``), the header
    line, and the ``features`` vectors that instance lines carry inline,
    as ``{view: (flat float64 buffer, length of each line's vector)}``.
    A faulty line is refused with its ``path:line``; a value of the wrong
    type on an earlier line is refused first.
    """
    cols: dict[str, list] = {name: [] for name in (*_INSTANCE_FIELDS, *_GT_FIELDS)}
    lines = {"instance": array("q"), "gt": array("q")}
    inline: dict[str, tuple[array, list[int]]] = defaultdict(lambda: (array("d"), []))
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read ({exc.strerror})") from exc
    with fh:
        try:
            header = _read_lines(path, fh, cols, lines, inline)
        except (DatasetError, UnicodeDecodeError) as exc:
            _check_columns(path, cols, lines)
            if isinstance(exc, UnicodeDecodeError):
                # Text is decoded in chunks, so the failing line is found again.
                raise DatasetError(f"{_non_utf8_location(path)}: not UTF-8 text ({exc.reason})") from exc
            raise
    _check_columns(path, cols, lines)
    if header is None:
        raise DatasetError(f"{path}: manifest has no header line")

    try:
        views = _parse_views(header)
        cam = header.get("camera", {})
        camera = CameraModel(f_x=_real(cam["fx"]), f_y=_real(cam["fy"]))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: malformed header line ({exc!r})") from exc
    declared = {v.name for v in views}
    undeclared = [name for name in inline if name not in declared]
    if undeclared:
        raise DatasetError(
            f"{path}: instance lines carry features of undeclared view(s) {', '.join(map(repr, undeclared))}"
        )
    images = _image_table(cols["image_id"], cols["gt_image_id"])
    return _Columns(camera=camera, views=views, images=images, matrices={}, **cols), header, inline


# Magnitudes from here up round to infinity as float32.
_FLOAT32_OVERFLOW = 2.0**128 * (1 - 2.0**-25)


def _read_matrices(views: tuple[ViewSpec, ...], count: int, matrices: dict[str, np.ndarray], view_matrix) -> None:
    """Fill ``matrices`` with ``view_matrix(view)``, one (count, dim)
    matrix per declared view, each checked once for shape, finiteness and
    the float32 range that blobs store."""
    for v in views:
        matrix = view_matrix(v)
        if matrix.shape[0] != count:
            raise DatasetError(f"view {v.name!r}: {matrix.shape[0]} feature rows for {count} instances")
        if matrix.shape[1] != v.dim:
            raise DatasetError(
                f"view {v.name!r}: dimension mismatch (declared {v.dim}, rows have {matrix.shape[1]})"
            )
        if not np.isfinite(matrix).all():
            raise DatasetError(f"view {v.name!r}: non-finite feature values")
        if matrix.size and max(matrix.max(), -matrix.min()) >= _FLOAT32_OVERFLOW:
            raise DatasetError(f"view {v.name!r}: feature values overflow float32")
        matrices[v.name] = matrix


def _dataset(c: _Columns) -> Dataset:
    """The dataset whose records are built, in one pass, from the checked
    columns ``c``; their ``features`` read their rows of ``c.matrices``."""
    rows = map(_MatrixRow, repeat(c.matrices), range(len(c.instance_id)))
    boxes = map(Box2D, c.cx, c.cy, c.w, c.h)
    instances = map(
        InstanceRecord, c.image_id, c.instance_id, c.class_id, boxes, rows, c.pred_depth, c.confidence, c.aux_depths
    )
    gts = map(GroundTruthObject, c.gt_id, c.gt_image_id, c.gt_class_id, c.center2d, c.depth, c.pixel_height)
    return Dataset(camera=c.camera, views=c.views, instances=tuple(instances), ground_truth=tuple(gts), images=c.images)


def load_dataset(path) -> Dataset:
    """Load and fully validate a dataset from a manifest file.

    Raises ``DatasetError`` on malformed input, blob/view dimension
    mismatch, non-finite features, duplicate ids, or any type-invariant
    violation.
    """
    path = Path(path)
    columns, header, inline = _read_manifest(path)
    blob_refs = header.get("blobs", {})

    def blob_matrix(v: ViewSpec) -> np.ndarray:
        if v.name not in blob_refs:
            raise DatasetError(f"header declares view {v.name!r} but no blob reference")
        if v.name in inline:
            raise DatasetError(f"{path}: instance lines carry inline features of view {v.name!r}, which has a blob")
        return read_blob(path.parent / blob_refs[v.name])

    violations = validate_dataset(columns)
    dataset = _dataset(columns)
    matrices = columns.matrices
    # The blobs are read once the records are built and the column lists
    # freed, so their memory can be reused: on the benchmark's seed-0
    # 50k-instance export this lowered the peak resident set of a load by
    # about 8 MB. A blob fault is still reported before the violations.
    del columns
    _read_matrices(dataset.views, len(dataset.instances), matrices, blob_matrix)
    if violations:
        raise DatasetError("invalid dataset: " + "; ".join(violations))
    # ``Dataset.matrix`` hands out the matrices the records read their rows
    # from instead of stacking the rows again.
    dataset._matrices.update(matrices)
    return dataset


def _raw_columns(path) -> _Columns:
    """The columns of a raw export, not validated: ``read_raw_export``
    builds its records from them, and ``alsim ingest`` validates and writes
    them without building any."""
    path = Path(path)
    columns, _, inline = _read_manifest(path)

    def inline_matrix(v: ViewSpec) -> np.ndarray:
        flat, lengths = inline.get(v.name, (array("d"), []))
        if lengths.count(v.dim) != len(lengths):
            raise DatasetError(f"view {v.name!r}: inline vectors differ from the declared dim {v.dim}")
        return np.frombuffer(flat, dtype=np.float64).reshape(len(lengths), v.dim)

    _read_matrices(columns.views, len(columns.instance_id), columns.matrices, inline_matrix)
    return columns


def read_raw_export(path) -> Dataset:
    """Parse a raw export: manifest lines whose instances carry their
    feature vectors inline instead of in blobs.

    Raises ``DatasetError`` on the same malformed input as
    ``load_dataset``. The result is not validated; callers report
    ``validate_dataset`` violations themselves.
    """
    columns = _raw_columns(path)
    dataset = _dataset(columns)
    dataset._matrices.update(columns.matrices)
    return dataset


def _blob_name(index: int, view_name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_-]", "_", view_name)
    return f"view{index:02d}_{safe}.alf"


def _instance_lines(c: _Columns) -> Iterator[dict]:
    """The manifest line of each instance of ``c``, in order."""
    boxes = zip(c.cx, c.cy, c.w, c.h)
    rows = zip(c.image_id, c.instance_id, c.class_id, boxes, c.pred_depth, c.confidence, c.aux_depths)
    for image_id, instance_id, class_id, (cx, cy, w, h), pred_depth, confidence, aux_depths in rows:
        line = {
            "kind": "instance",
            "image_id": image_id,
            "instance_id": instance_id,
            "class_id": class_id,
            "box2d": {"cx": cx, "cy": cy, "w": w, "h": h},
            "pred_depth": pred_depth,
            "confidence": confidence,
        }
        if aux_depths is not None:
            line["aux_depths"] = list(aux_depths)
        yield line


def _gt_lines(c: _Columns) -> Iterator[dict]:
    """The manifest line of each ground-truth object of ``c``, in order."""
    rows = zip(c.gt_id, c.gt_image_id, c.gt_class_id, c.center2d, c.depth, c.pixel_height)
    for gt_id, image_id, class_id, center2d, depth, pixel_height in rows:
        yield {
            "kind": "gt",
            "gt_id": gt_id,
            "image_id": image_id,
            "class_id": class_id,
            "center2d": [center2d[0], center2d[1]],
            "depth": depth,
            "pixel_height": pixel_height,
        }


def _write_all_or_none(directory: Path, writers: Mapping[str, Callable[[Path], None]]) -> None:
    """Make ``directory`` and write each named file there: its writer is
    given a temporary path beside the file. The files are moved into place,
    in order, only once every writer has finished. On failure the temporary
    files, and any file this call already moved into place, are removed
    before the error propagates."""
    temps: dict[Path, Path] = {}
    moved: list[Path] = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            temps[directory / name] = temp = directory / f"{name}.tmp"
            write(temp)
        for path, temp in temps.items():
            os.replace(temp, path)
            moved.append(path)
    except BaseException:
        for path in moved:
            path.unlink(missing_ok=True)
        raise
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def write_dataset(dataset: Dataset | _Columns, manifest_path) -> None:
    """Write a dataset, or its columns, as manifest plus blobs next to the
    manifest.

    Round-trips with ``load_dataset``: feature blobs come back
    byte-identical because vectors are stored as float32 on both sides.
    The blobs and then the manifest are moved into place only once all of
    them are written, so a failed write leaves none of them behind.
    """
    c = dataset if isinstance(dataset, _Columns) else _Columns.stack(dataset)
    manifest_path = Path(manifest_path)
    blobs = {v.name: _blob_name(i, v.name) for i, v in enumerate(c.views)}
    header = {
        "kind": "header",
        "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in c.views],
        "camera": {"fx": c.camera.f_x, "fy": c.camera.f_y},
        "blobs": blobs,
    }

    def write_manifest(path: Path) -> None:
        encode = json.JSONEncoder(separators=(",", ":")).encode
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode(header) + "\n")
            for line in chain(_instance_lines(c), _gt_lines(c)):
                fh.write(encode(line) + "\n")

    writers = {name: partial(write_blob, matrix=c.matrices[view]) for view, name in blobs.items()}
    writers[manifest_path.name] = write_manifest
    _write_all_or_none(manifest_path.parent, writers)
