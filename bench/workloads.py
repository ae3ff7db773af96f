"""Benchmark workloads and their seeded inputs.

Every input is synthetic: ``alsim.simulation.generate_synthetic`` makes
it from the workload seed, and this module writes it to disk before any
timing starts, so the program under test receives only files. The
writers here follow the formats documented in ``alsim.dataio`` and
``alsim ingest`` without calling the program's own writers, so a change
to the write side cannot change the inputs it is measured on.

Feature vectors are rounded to float32 before they are written, so every
value in the raw export is exactly representable in an ALF1 blob and an
ingest round trip must reproduce the blob bytes bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` names the path a user takes: ``simulate`` is the
    ``alsim simulate`` command followed by ``alsim naurc`` on its curve,
    ``library`` is ``load_dataset`` + ``run_campaign`` with an external
    hook + ``naurc`` called from Python, and ``ingest`` is
    ``alsim ingest`` followed by ``load_dataset`` of its output.
    """

    name: str
    kind: str
    clusters: int
    per_cluster: int
    strategy: str = "random"
    budgets: tuple[int, ...] = ()
    pca_var_keep: float | None = None
    why: str = ""

    @property
    def instances(self) -> int:
        return self.clusters * self.per_cluster

    def fingerprint(self) -> str:
        """Digest of everything that shapes the inputs and the outputs."""
        fields = asdict(self)
        del fields["why"]
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:12]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coreset_greedy", "simulate", clusters=100, per_cluster=25,
            strategy="coreset", budgets=(200, 400, 800), pca_var_keep=0.95,
            why="greedy k-center with PCA: selection.rank_pool and features.pairwise dominate; "
                "the only workload that runs compress_views",
        ),
        Workload(
            "random_hook", "simulate", clusters=400, per_cluster=25,
            strategy="random", budgets=(200, 400, 800),
            why="ranking is one sort, so the covering-radius hook and load_dataset dominate; "
                "bypasses greedy selection",
        ),
        Workload(
            "oracle_dense", "library", clusters=40, per_cluster=250,
            strategy="random", budgets=tuple(190 * r for r in range(1, 31)),
            why="crowded images over 30 rounds: match/suppress and run_round bookkeeping dominate; "
                "bypasses features and selection",
        ),
        Workload(
            "ingest_roundtrip", "ingest", clusters=2000, per_cluster=25,
            why="50k-instance raw export: the only workload on the cli parser and the dataio "
                "write side, then the read side",
        ),
    )
}


# ------------------------------------------------------------- writers


def _float32_features(dataset) -> dict[str, np.ndarray]:
    return {
        v.name: np.array([r.features[v.name] for r in dataset.instances], dtype="<f4")
        for v in dataset.views
    }


def _blob_bytes(matrix: np.ndarray) -> bytes:
    count, dim = matrix.shape
    return b"ALF1" + struct.pack("<II", count, dim) + matrix.astype("<f4").tobytes()


def _header(dataset) -> dict:
    return {
        "kind": "header",
        "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in dataset.views],
        "camera": {"fx": dataset.camera.f_x, "fy": dataset.camera.f_y},
    }


def _instance_obj(r) -> dict:
    return {
        "kind": "instance",
        "image_id": r.image_id,
        "instance_id": r.instance_id,
        "class_id": r.class_id,
        "box2d": {"cx": r.box2d.cx, "cy": r.box2d.cy, "w": r.box2d.w, "h": r.box2d.h},
        "pred_depth": r.pred_depth,
        "confidence": r.confidence,
        "aux_depths": list(r.aux_depths),
    }


def _gt_obj(g) -> dict:
    return {
        "kind": "gt",
        "gt_id": g.gt_id,
        "image_id": g.image_id,
        "class_id": g.class_id,
        "center2d": list(g.center2d),
        "depth": g.depth,
        "pixel_height": g.pixel_height,
    }


def _write_lines(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_manifest(dataset, directory: Path) -> None:
    """Write ``manifest.jsonl`` plus one ALF1 blob per view."""
    feats = _float32_features(dataset)
    header = _header(dataset)
    header["blobs"] = {}
    for i, v in enumerate(dataset.views):
        name = f"view{i:02d}.alf"
        (directory / name).write_bytes(_blob_bytes(feats[v.name]))
        header["blobs"][v.name] = name
    _write_lines(
        directory / "manifest.jsonl",
        [header, *map(_instance_obj, dataset.instances), *map(_gt_obj, dataset.ground_truth)],
    )


def write_raw(dataset, path: Path) -> dict:
    """Write a raw JSONL export with inline features; return what an
    exact round trip must reproduce."""
    feats = _float32_features(dataset)

    def instance_lines():
        for i, r in enumerate(dataset.instances):
            obj = _instance_obj(r)
            obj["features"] = {name: m[i].tolist() for name, m in feats.items()}
            yield obj

    _write_lines(path, [_header(dataset), *instance_lines(), *map(_gt_obj, dataset.ground_truth)])
    return {
        "instances": len(dataset.instances),
        "ground_truth": len(dataset.ground_truth),
        "blob_sha256": {n: hashlib.sha256(_blob_bytes(m)).hexdigest() for n, m in feats.items()},
        "loaded_sha256": {
            n: hashlib.sha256(m.astype("<f8").tobytes()).hexdigest() for n, m in feats.items()
        },
    }


def prepare_inputs(w: Workload, seed: int, work: Path) -> Path:
    """Write the inputs of ``(w, seed)`` under ``work`` once and reuse them.

    One seed per workload is kept on disk; a new seed replaces it.
    """
    directory = work / "inputs" / w.name
    stamp = f"{w.fingerprint()} seed={seed}\n"
    ready = directory / "READY"
    if ready.is_file() and ready.read_text() == stamp:
        return directory

    from alsim.simulation import SyntheticSpec, generate_synthetic

    shutil.rmtree(directory, ignore_errors=True)
    tmp = directory.with_name(w.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    dataset = generate_synthetic(SyntheticSpec(clusters=w.clusters, per_cluster=w.per_cluster), seed=seed)
    if w.kind == "ingest":
        expected = write_raw(dataset, tmp / "raw.jsonl")
        (tmp / "expected.json").write_text(json.dumps(expected, sort_keys=True))
    else:
        write_manifest(dataset, tmp)
        campaign: dict = {"round_budgets": list(w.budgets)}
        if w.pca_var_keep is not None:
            campaign["pca_var_keep"] = w.pca_var_keep
        config = {
            "dataset": "manifest.jsonl",
            "seeds": [seed],
            "strategy": {"kind": w.strategy},
            "campaign": campaign,
        }
        (tmp / "config.json").write_text(json.dumps(config, sort_keys=True))
    (tmp / "READY").write_text(stamp)
    tmp.rename(directory)
    return directory
