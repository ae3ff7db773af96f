import errno
import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from alsim.cli import main, read_curve_csv
from alsim.dataio import load_dataset, write_dataset
from alsim.features import FusedCosineMetric
from alsim.records import Box2D, GroundTruthObject, InstanceRecord
from alsim.selection import StrategyConfig
from alsim.simulation import CampaignConfig, SyntheticSpec, covering_radius, generate_synthetic, run_campaign


def raw_lines(duplicate_id=False):
    header = {
        "kind": "header",
        "views": [{"name": "v", "dim": 2, "lambda": 1.0}],
        "camera": {"fx": 100.0, "fy": 100.0},
    }
    lines = [header]
    for i in range(3):
        lines.append(
            {
                "kind": "instance",
                "image_id": "img0",
                "instance_id": 0 if duplicate_id else i,
                "class_id": 0,
                "box2d": {"cx": 10.0 + i, "cy": 10.0, "w": 5.0, "h": 30.0},
                "pred_depth": 12.0,
                "confidence": 0.4,
                "features": {"v": [float(i), 1.0]},
            }
        )
    lines.append(
        {
            "kind": "gt",
            "gt_id": 50,
            "image_id": "img0",
            "class_id": 0,
            "center2d": [10.0, 10.0],
            "depth": 12.0,
            "pixel_height": 40.0,
        }
    )
    return lines


def write_raw(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_valid_input_produces_loadable_dataset(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines())
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        manifest = out / "manifest.jsonl"
        assert manifest.exists()
        assert list(out.glob("*.alf"))
        data = load_dataset(manifest)
        assert len(data.instances) == 3

    def test_missing_input_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["ingest", "--input", str(missing), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read")
        assert not (tmp_path / "out").exists()

    def test_duplicate_ids_exit_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines(duplicate_id=True))
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "duplicate instance_id" in capsys.readouterr().err

    def test_empty_input_exit_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines()[:1])
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_validation_failure_exit_1(self, tmp_path, capsys):
        lines = raw_lines()
        lines[1]["pred_depth"] = -2.0
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "violation" in capsys.readouterr().err

    def test_second_header_rejected(self, tmp_path, capsys):
        second = dict(raw_lines()[0], camera={"fx": 50.0, "fy": 50.0})
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines() + [second])
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert f"{raw}:6: duplicate header line" in capsys.readouterr().err

    def test_invalid_json_names_path_and_line(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines())
        raw.write_text(raw.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert f"{raw}:6: invalid JSON" in capsys.readouterr().err

    def test_non_finite_features_rejected(self, tmp_path, capsys):
        lines = raw_lines()
        lines[2]["features"]["v"] = [float("nan"), 1.0]
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "view 'v': non-finite feature values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_utf16_input_exit_1(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_bytes("\n".join(json.dumps(obj) for obj in raw_lines()).encode("utf-16"))
        assert raw.read_bytes()[:2] == b"\xff\xfe"
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {raw}:1: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("views", "lambda", float("nan")),
            ("views", "lambda", float("inf")),
            ("camera", "fx", float("inf")),
            ("camera", "fy", float("-inf")),
        ],
        ids=["lambda_nan", "lambda_inf", "fx_inf", "fy_-inf"],
    )
    def test_non_finite_weight_or_focal_length_exit_1(self, tmp_path, capsys, section, key, value):
        lines = raw_lines()
        (lines[0]["views"][0] if section == "views" else lines[0]["camera"])[key] = value
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_gt_center_exit_1(self, tmp_path, capsys):
        lines = raw_lines()
        lines[4]["center2d"] = [float("nan"), float("inf")]
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "gt 50: center2d must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, key, value, message",
        [
            (2, "instance_id", 1.7, ":3: malformed instance line"),
            (1, "class_id", 0.9, ":2: malformed instance line"),
            (1, "class_id", True, ":2: malformed instance line"),
            (4, "gt_id", "3", ":5: malformed gt line"),
            (0, "views", [{"name": "v", "dim": 2.9, "lambda": 1.0}], ": malformed header line"),
        ],
        ids=["instance_id-1.7", "class_id-0.9", "class_id-true", "gt_id-string", "dim-2.9"],
    )
    def test_non_integral_ids_exit_1(self, tmp_path, capsys, line, key, value, message):
        lines = raw_lines()
        lines[line][key] = value
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {raw}{message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, key, value, message",
        [
            (1, "pred_depth", "12", ":2: malformed instance line"),
            (2, "confidence", True, ":3: malformed instance line"),
            (3, "box2d", {"cx": 12.0, "cy": 10.0, "w": 5.0, "h": True}, ":4: malformed instance line"),
            (4, "depth", "12.5", ":5: malformed gt line"),
            (4, "pixel_height", False, ":5: malformed gt line"),
            (0, "camera", {"fx": "100", "fy": 100.0}, ": malformed header line"),
        ],
        ids=["pred_depth-string", "confidence-true", "box2d_h-true", "depth-string", "pixel_height-false",
             "fx-string"],
    )
    def test_non_numeric_values_exit_1(self, tmp_path, capsys, line, key, value, message):
        lines = raw_lines()
        lines[line][key] = value
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {raw}{message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("features", [{}, {"v": [1.0, 2.0, 3.0]}])
    def test_missing_or_misshapen_inline_view_rejected(self, tmp_path, capsys, features):
        lines = raw_lines()
        lines[2]["features"] = features
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "view 'v'" in capsys.readouterr().err

    def test_undeclared_inline_view_exit_1(self, tmp_path, capsys):
        lines = raw_lines()
        lines[2]["features"]["zz"] = [3.0, 4.0]
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "undeclared view(s) 'zz'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blocked", ["output_is_a_file", "manifest_is_a_directory"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, blocked):
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines())
        out = tmp_path / "out"
        if blocked == "output_is_a_file":
            out.write_text("kept\n", encoding="utf-8")
        else:
            (out / "manifest.jsonl").mkdir(parents=True)
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_unwritable_manifest_leaves_no_blob(self, tmp_path, capsys):
        # The blobs are written and moved into place with the manifest, so
        # a manifest path that names a directory leaves nothing new behind.
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines())
        out = tmp_path / "out"
        (out / "manifest.jsonl").mkdir(parents=True)
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.jsonl"]

    def test_id_outside_int64_exit_1(self, tmp_path, capsys):
        lines = raw_lines()
        lines[2]["instance_id"] = 2**70
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}:3: malformed instance line (") and "int64" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_features_overflowing_float32_exit_1(self, tmp_path, capsys):
        # Finite as float64, infinite in the float32 blob: refused before
        # anything is written, with no numpy overflow warning.
        lines = raw_lines()
        lines[2]["features"]["v"] = [1e39, 1.0]
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: view 'v': feature values overflow float32\n"
        assert not (tmp_path / "out").exists()

    def test_builds_no_records(self, tmp_path, capsys, monkeypatch):
        built = []

        def counting(init):
            return lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs)

        for cls in (InstanceRecord, Box2D, GroundTruthObject):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, raw_lines())
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 0
        assert built == []
        assert len(load_dataset(tmp_path / "out" / "manifest.jsonl").instances) == 3
        assert len(built) == 7  # the loader builds them: 3 records, their boxes and 1 gt

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        # A small generated export plus lines that exercise every way a
        # value is written back: integral numbers in float fields, whole
        # floats in id fields, absent optional fields, an empty and a
        # missing aux list, a non-ASCII image id, and ground-truth lines
        # before the instances. The digest was taken before the ingest path
        # read columns; it covers the manifest and every blob.
        data = generate_synthetic(SyntheticSpec(clusters=3, per_cluster=4), seed=11)
        header = {
            "kind": "header",
            "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in data.views],
            "camera": {"fx": data.camera.f_x, "fy": 700},
        }
        lines = [header, {"kind": "gt", "gt_id": 90.0, "image_id": "bêld", "class_id": 2,
                          "center2d": [3, 4.5], "depth": 7, "pixel_height": 30.25}]
        for i, r in enumerate(data.instances):
            lines.append({
                "kind": "instance", "image_id": r.image_id, "instance_id": r.instance_id,
                "class_id": r.class_id,
                "box2d": {"cx": r.box2d.cx, "cy": r.box2d.cy, "w": r.box2d.w, "h": r.box2d.h},
                "pred_depth": r.pred_depth, "confidence": r.confidence, "aux_depths": list(r.aux_depths),
                "features": {v.name: data.matrix(v.name)[i].tolist() for v in data.views},
            })
        lines += [{"kind": "gt", "gt_id": g.gt_id, "image_id": g.image_id, "class_id": g.class_id,
                   "center2d": list(g.center2d), "depth": g.depth, "pixel_height": g.pixel_height}
                  for g in data.ground_truth]
        features = {v.name: [0.5] * v.dim for v in data.views}
        lines += [
            {"kind": "instance", "image_id": "bêld", "instance_id": 100.0, "class_id": 3.0,
             "box2d": {"cx": 10, "cy": 20, "w": 0, "h": -0.0}, "pred_depth": 12, "confidence": 1,
             "aux_depths": [], "features": features},
            {"kind": "instance", "image_id": "img0000", "instance_id": 101, "class_id": 0,
             "box2d": {"cx": 1e-7, "cy": 2.5e10, "w": 3.0, "h": 4.0}, "pred_depth": None, "features": features},
        ]
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == "c2a7db22865eb4086962543314cd82ac866dfa847cf56a04122228368499f737"


@pytest.fixture
def sim_setup(tmp_path):
    data = generate_synthetic(SyntheticSpec(clusters=4, per_cluster=6), seed=2)
    manifest = tmp_path / "data" / "manifest.jsonl"
    write_dataset(data, manifest)
    config = {
        "dataset": str(manifest),
        "strategy": {"kind": "random"},
        "campaign": {"round_budgets": [4, 8], "initial_fraction": 0.25},
        "seeds": [0, 1, 2],
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config, config_path, tmp_path


class TestSimulate:
    def test_id_outside_int64_exit_1(self, sim_setup, capsys):
        # The campaign's id column is int64: the load refuses such an id.
        _, config_path, tmp_path = sim_setup
        manifest = tmp_path / "data" / "manifest.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        instance = json.loads(lines[1])
        assert instance["kind"] == "instance"
        lines[1] = json.dumps(dict(instance, instance_id=2**70))
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:2: malformed instance line (") and "int64" in err
        assert err.count("\n") == 1

    def test_writes_per_seed_and_mean_curves(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        for seed in (0, 1, 2):
            assert (out / f"seed_{seed}" / "curve.csv").exists()
            assert (out / f"seed_{seed}" / "rounds.jsonl").exists()
            assert (out / f"seed_{seed}" / "state.json").exists()
        assert (out / "curve_mean.csv").exists()
        curve = read_curve_csv(out / "seed_0" / "curve.csv")
        assert curve.points[0].x == 0.0

    def test_failed_write_leaves_no_partial_file(self, sim_setup, monkeypatch, capsys):
        # A complete run, then a rerun with other budgets whose state.json
        # write runs out of space halfway: every seed file must still hold
        # the first run's bytes, and no temporary file may be left.
        config, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 0
        seed_dir = out / "seed_0"
        before = {f.name: f.read_bytes() for f in seed_dir.iterdir()}
        assert sorted(before) == ["curve.csv", "rounds.jsonl", "state.json"]

        config["campaign"]["round_budgets"] = [3, 6]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        real_write_text = Path.write_text

        def out_of_space(path, text, *args, **kwargs):
            if path.name.startswith("state.json"):
                real_write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return real_write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", out_of_space)
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in seed_dir.iterdir()} == before

    def test_unwritable_mean_curve_exit_1(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        (out / "curve_mean.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["curve_mean.csv", "seed_0", "seed_1", "seed_2"]

    def test_out_that_is_a_file_exit_1(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "outfile"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_curve_is_the_campaigns_own_covering_radius(self, sim_setup):
        # The CLI passes no hook: its curve is run_campaign's built-in
        # radius, and the last point is the covering radius of the labels
        # its outputs record.
        config, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "1"]) == 0
        cli_curve = read_curve_csv(out / "seed_1" / "curve.csv")

        data = load_dataset(Path(config["dataset"]))
        cfg = CampaignConfig(StrategyConfig("random", seed=1), (4, 8), initial_fraction=0.25)
        curve, _ = run_campaign(cfg, data)
        assert [p.y for p in cli_curve.points] == [p.y for p in curve.points]

        state = json.loads((out / "seed_1" / "state.json").read_text(encoding="utf-8"))
        events = (out / "seed_1" / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
        matched = {ev["instance_id"] for ev in map(json.loads, events) if ev["outcome"] == "matched"}
        labeled = [r for r in data.instances if r.image_id in state["labeled_images"] or r.instance_id in matched]
        pool = [r for r in data.instances if r not in labeled]
        radius = covering_radius(labeled, pool, FusedCosineMetric(data.views))
        assert abs(cli_curve.points[-1].y - radius) <= 1e-12

    def test_short_seed_curve_logged_when_mean_is_cut(self, tmp_path, caplog):
        # img0001 keeps one instance: a seed that labels img0000 first
        # exhausts the pool after one round, one that labels img0001 runs
        # all three.
        data = generate_synthetic(SyntheticSpec(clusters=2, per_cluster=6), seed=0)
        kept = lambda obj, ident: obj.image_id == "img0000" or ident == 6
        data = replace(
            data,
            instances=tuple(r for r in data.instances if kept(r, r.instance_id)),
            ground_truth=tuple(g for g in data.ground_truth if kept(g, g.gt_id)),
            images={"img0000": 6, "img0001": 1},
        )
        manifest = tmp_path / "data" / "manifest.jsonl"
        write_dataset(data, manifest)
        config = {
            "dataset": str(manifest),
            "strategy": {"kind": "random"},
            "campaign": {"round_budgets": [2, 4, 6], "initial_fraction": 0.5},
        }
        config_path = tmp_path / "run.json"

        def simulate(seeds, out):
            config_path.write_text(json.dumps(dict(config, seeds=seeds)), encoding="utf-8")
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="alsim.cli"):
                assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            return caplog.messages

        messages = simulate([0, 1], tmp_path / "cut")
        assert len(read_curve_csv(tmp_path / "cut" / "seed_0" / "curve.csv")) == 4
        assert len(read_curve_csv(tmp_path / "cut" / "seed_1" / "curve.csv")) == 2
        assert len(read_curve_csv(tmp_path / "cut" / "curve_mean.csv")) == 2
        assert messages == [
            "curve_mean.csv keeps the first 2 points, the shortest seed's curve; "
            "points per seed: seed 0: 4, seed 1: 2"
        ]
        assert simulate([0, 2], tmp_path / "even") == []

    def test_round_log_event_schema(self, sim_setup):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 0
        lines = (out / "seed_0" / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {"round", "instance_id", "image_id", "outcome", "charged"} <= set(event)
            assert event["outcome"] in ("matched", "null", "suppressed")
            if event["outcome"] == "matched":
                assert "gt_id" in event
                assert event["charged"] is True
            if event["outcome"] == "suppressed":
                assert event["charged"] is False

    def test_reruns_are_byte_identical(self, sim_setup):
        _, config_path, tmp_path = sim_setup
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
        for rel in ("seed_0/curve.csv", "seed_1/curve.csv", "seed_2/curve.csv", "curve_mean.csv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_crowded_rounds_are_pinned(self, tmp_path):
        # Crowded images, a third of their objects kept: most windows hold
        # several open objects, many requests find none, and suppressions
        # pile up. The digest was taken before the oracle kept each image's
        # open objects sorted by centre x and built light events; it covers
        # every byte of both seeds' rounds.jsonl.
        data = generate_synthetic(SyntheticSpec(clusters=4, per_cluster=60), seed=3)
        data = replace(data, ground_truth=data.ground_truth[::3])
        manifest = tmp_path / "data" / "manifest.jsonl"
        write_dataset(data, manifest)
        config = {
            "dataset": str(manifest),
            "strategy": {"kind": "random"},
            "campaign": {"round_budgets": list(range(8, 97, 8)), "initial_fraction": 0.25},
            "seeds": [0, 1],
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for seed in config["seeds"]:
            digest.update((out / f"seed_{seed}" / "rounds.jsonl").read_bytes())
        assert digest.hexdigest() == "565ab7efcc4bd0820ecea9b48516a4d50d7f8424880c4bb983b8f3ac79f7f94b"

    @pytest.mark.parametrize("kind", ["random", "coreset"])
    def test_reruns_in_other_processes_are_byte_identical(self, sim_setup, kind):
        # Two interpreters with different string hashes: no output may
        # depend on the iteration order of a set or dict of strings.
        config, config_path, tmp_path = sim_setup
        config_path.write_text(json.dumps(dict(config, strategy={"kind": kind})), encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        outs = [tmp_path / "hash1", tmp_path / "hash2"]
        for hashseed, out in zip(("1", "2"), outs):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "alsim.cli", "simulate", "--config", str(config_path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        files = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(outs[1])) for p in outs[1].rglob("*") if p.is_file())
        per_seed = [f"seed_{s}/{name}" for s in config["seeds"] for name in ("curve.csv", "rounds.jsonl", "state.json")]
        assert set(per_seed) | {"curve_mean.csv"} <= set(files)
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_seed_override_runs_single_seed(self, sim_setup):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "7"]) == 0
        assert (out / "seed_7" / "curve.csv").exists()
        assert not (out / "seed_0").exists()

    def test_unknown_strategy_exit_2_with_names(self, sim_setup, capsys):
        config, config_path, tmp_path = sim_setup
        config["strategy"] = {"kind": "mystery"}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "mystery" in err
        assert "coreset" in err and "random" in err

    def test_coreset_strategy_defaults_to_all_views(self, sim_setup, tmp_path):
        config, config_path, _ = sim_setup
        config["strategy"] = {"kind": "coreset"}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "runs_coreset"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 0
        assert (out / "seed_0" / "curve.csv").exists()

    def test_missing_dataset_exit_1(self, sim_setup, capsys):
        config, config_path, tmp_path = sim_setup
        config["dataset"] = str(tmp_path / "absent.jsonl")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'absent.jsonl'}: cannot read")

    @pytest.mark.parametrize("kind", ["random", "coreset"])
    def test_zero_initial_fraction_exit_2(self, sim_setup, capsys, kind):
        config, config_path, tmp_path = sim_setup
        config["strategy"] = {"kind": kind}
        config["campaign"]["initial_fraction"] = 0
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert "initial_fraction must be > 0" in capsys.readouterr().err

    def test_missing_config_key_exit_2(self, sim_setup, capsys):
        config, config_path, tmp_path = sim_setup
        del config["campaign"]["round_budgets"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "path, value",
        [
            (("campaign", "pca_var_keep"), "0.9"),
            (("campaign", "H"), [1]),
            (("campaign", "alpha"), True),
            (("campaign", "initial_fraction"), "0.25"),
            (("campaign",), [4, 8]),
            (("strategy",), "random"),
            (("strategy", "far_depth_filters"), [25]),
            (("strategy", "far_depth_filters", "max_depth"), {"m": 50}),
            (("strategy", "views"), 5),
            (("seeds",), "12"),
            (("seeds",), [1.7]),
            (("seeds",), [True]),
            (("campaign", "round_budgets"), [4, 8.6]),
            (("campaign", "round_budgets"), [1.5, 3.9]),
            (("seeds",), 5),
            (("campaign", "round_budgets"), 8),
            (("dataset",), 5),
            (("output",), 5),
            (("campaign", "min_px_height"), float("nan")),
            (("campaign", "H"), float("inf")),
            (("strategy", "far_depth_filters", "max_depth"), float("nan")),
            (("strategy", "far_depth_filters", "min_px_height"), float("-inf")),
            pytest.param(("campaign", "alpha"), 10**400, id="campaign.alpha-10**400"),
            (("seeds",), [-1]),
            (("seeds",), [0, -3.0]),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else json.dumps(v),
    )
    def test_wrong_json_type_exit_2(self, sim_setup, capsys, path, value):
        config, config_path, tmp_path = sim_setup
        *parents, key = path
        target = config
        for name in parents:
            target = target.setdefault(name, {})
        target[key] = value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize(
        "strategy, named",
        [
            ({"kind": "random", "far_depth_filters": {"max_depth": "x"}}, "max_depth"),
            ({"kind": "mystery"}, "mystery"),
            ("random", "strategy"),
        ],
        ids=["filter_value", "kind", "not_an_object"],
    )
    def test_strategy_checked_before_the_load(self, sim_setup, capsys, strategy, named):
        # The dataset is absent: a bad strategy key must be named (exit 2),
        # not hidden behind the load error (exit 1).
        config, config_path, tmp_path = sim_setup
        config.update(dataset=str(tmp_path / "absent.jsonl"), strategy=strategy)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("campaign", "alpha"), -1, "alpha"),
            (("strategy", "kind"), "mystery", "mystery"),
            (("strategy", "views"), ["nope"], "views"),
            (("seeds",), [2, -1], "seeds"),
        ],
        ids=["alpha", "kind", "views", "seeds"],
    )
    def test_refused_config_leaves_no_output_dir(self, sim_setup, capsys, path, value, named):
        config, config_path, tmp_path = sim_setup
        *parents, key = path
        target = config
        for name in parents:
            target = target[name]
        target[key] = value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, named",
        [
            (("extra",), "config: unknown key 'extra'"),
            (("strategy", "veiws"), "strategy: unknown key 'veiws'"),
            (("strategy", "far_depth_filters", "max_dpeth"), "far_depth_filters: unknown key 'max_dpeth'"),
            (("campaign", "HH"), "campaign: unknown key 'HH'"),
        ],
        ids=["config", "strategy", "far_depth_filters", "campaign"],
    )
    def test_unknown_key_exit_2_before_the_load(self, sim_setup, capsys, path, named):
        # The dataset is absent: an undocumented key, which the run would
        # otherwise ignore, must be named (exit 2) before the load.
        config, config_path, tmp_path = sim_setup
        config["dataset"] = str(tmp_path / "absent.jsonl")
        *parents, key = path
        target = config
        for name in parents:
            target = target.setdefault(name, {})
        target[key] = 3
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}; known keys: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, message",
        [
            (("dataset",), "config: missing key 'dataset'"),
            (("campaign", "round_budgets"), "campaign: missing key 'round_budgets'"),
            (("campaign",), "campaign: missing key 'round_budgets'"),
            (("strategy", "kind"), "strategy: missing key 'kind'"),
            (("strategy",), "strategy: missing key 'kind'"),
        ],
        ids=["dataset", "campaign.round_budgets", "campaign", "strategy.kind", "strategy"],
    )
    def test_missing_key_named_before_the_load(self, sim_setup, capsys, path, message):
        # The dataset is absent: a missing key is named (exit 2) first.
        config, config_path, tmp_path = sim_setup
        config["dataset"] = str(tmp_path / "absent.jsonl")
        *parents, key = path
        target = config
        for name in parents:
            target = target[name]
        del target[key]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "seeds, named",
        [("x", "seeds must be a list"), ([-1], "seeds must be >= 0"), ([1, 1], "seeds must not repeat")],
        ids=["not_a_list", "negative", "repeated"],
    )
    def test_config_seeds_checked_under_seed_override(self, sim_setup, capsys, seeds, named):
        config, config_path, tmp_path = sim_setup
        config["seeds"] = seeds
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not out.exists()

    def test_repeated_seed_exit_2(self, sim_setup, capsys):
        config, config_path, tmp_path = sim_setup
        config["seeds"] = [0, 2, 0, 1, 2]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seeds must not repeat, got 0, 2 more than once\n"
        assert not out.exists()

    def test_negative_seed_override_exit_2(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_integral_float_seeds_and_budgets_run(self, sim_setup):
        config, config_path, tmp_path = sim_setup
        config.update(seeds=[1.0])
        config["campaign"]["round_budgets"] = [4.0, 8.0]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("seed_*")) == ["seed_1"]
        state = json.loads((out / "seed_1" / "state.json").read_text(encoding="utf-8"))
        assert type(state["seed"]) is int and state["rounds"] == 2

    def test_null_number_takes_its_default(self, sim_setup):
        config, config_path, tmp_path = sim_setup
        config["campaign"].update(H=None, alpha=None, pca_var_keep=None)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "0"]) == 0

    def test_config_not_an_object_exit_2(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        config_path.write_text("[]", encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    @pytest.mark.parametrize(
        "kind",
        ["random", "confidence", "ens_depth_var", "close_depth", "far_depth", "coreset", "coreset_box3d", "ideal"],
    )
    def test_every_strategy_kind_runs(self, sim_setup, kind):
        config, config_path, tmp_path = sim_setup
        config["strategy"] = {"kind": kind}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / f"runs_{kind}"
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "0"]) == 0
        assert (out / "seed_0" / "curve.csv").exists()

    @pytest.mark.parametrize(
        "kind,field,message",
        [
            ("confidence", "confidence", "confidence strategy: confidence missing on 24 of 24 instances, first"),
            ("close_depth", "pred_depth", "campaign needs pred_depth on every instance; missing on 24 of 24, first"),
            ("coreset", "pred_depth", "campaign needs pred_depth on every instance; missing on 24 of 24, first"),
        ],
    )
    def test_missing_field_refusal_names_count_and_first_ids(self, sim_setup, capsys, kind, field, message):
        # One short error line whatever the export's size.
        config, config_path, tmp_path = sim_setup
        data = generate_synthetic(SyntheticSpec(clusters=4, per_cluster=6), seed=2)
        data = replace(data, instances=tuple(replace(r, **{field: None}) for r in data.instances))
        write_dataset(data, tmp_path / "bare" / "manifest.jsonl")
        config.update(dataset=str(tmp_path / "bare" / "manifest.jsonl"), strategy={"kind": kind})
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message} [0, 1, 2, 3, 4]\n"


class TestNaurc:
    def write_curve(self, path, pairs, comment=""):
        path.write_text(comment + "x,y\n" + "\n".join(f"{x},{y}" for x, y in pairs) + "\n", encoding="utf-8")

    def test_constant_curve_scores_its_level(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        self.write_curve(path, [(0, 7.0), (20, 7.0)])
        assert main(["naurc", "--curves", str(path), "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "flat,10.0,7.0" in out

    def test_hand_curves(self, tmp_path, capsys):
        ramp = tmp_path / "ramp.csv"
        self.write_curve(ramp, [(0, 0), (10, 10)])
        held = tmp_path / "held.csv"
        self.write_curve(held, [(0, 0), (4, 4), (8, 4)])
        assert main(["naurc", "--curves", str(ramp), "--budget", "5"]) == 0
        assert "ramp,5.0,2.5" in capsys.readouterr().out
        assert main(["naurc", "--curves", str(held), "--budget", "10"]) == 0
        assert "held,10.0,3.2" in capsys.readouterr().out

    def test_rows_sorted_descending(self, tmp_path, capsys):
        lo = tmp_path / "lo.csv"
        self.write_curve(lo, [(0, 1.0), (20, 1.0)])
        hi = tmp_path / "hi.csv"
        self.write_curve(hi, [(0, 5.0), (20, 5.0)])
        assert main(["naurc", "--curves", str(lo), str(hi), "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert out.index("hi,") < out.index("lo,")

    def test_lower_is_better_curves_rank_lowest_first(self, tmp_path, capsys):
        # Covering-radius curves as ``simulate`` writes them: the one that
        # falls faster (NAURC 0.525 against 0.8) is the better one.
        for name, pairs in (("fast", [(0, 0.9), (10, 0.5), (20, 0.2)]), ("slow", [(0, 0.9), (10, 0.8), (20, 0.7)])):
            self.write_curve(tmp_path / f"{name}.csv", pairs, "# config=0123abcd seed=0 better=lower\n")
        paths = [str(tmp_path / "slow.csv"), str(tmp_path / "fast.csv")]
        assert main(["naurc", "--curves", *paths, "--budget", "20"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[0] for row in rows[2:]] == ["fast", "slow"]
        assert float(rows[2].split(",")[2]) == pytest.approx(0.525)

    def test_simulate_curve_and_external_curve_refused_together(self, sim_setup, capsys):
        _, config_path, tmp_path = sim_setup
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        for rel in ("seed_0/curve.csv", "curve_mean.csv"):
            assert (out / rel).read_text(encoding="utf-8").splitlines()[0].endswith(" better=lower")
        capsys.readouterr()
        baseline = tmp_path / "baseline.csv"
        self.write_curve(baseline, [(0, 0.1), (20, 0.4)])
        table = tmp_path / "table.csv"
        args = ["naurc", "--curves", str(out / "curve_mean.csv"), str(baseline), "--budget", "8", "--out", str(table)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot rank lower-is-better curves (curve_mean) with higher-is-better ones (baseline)\n"
        )
        assert not table.exists()

    def test_empty_curve_gets_error_row(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n", encoding="utf-8")
        assert main(["naurc", "--curves", str(empty), "--budget", "10"]) == 0
        captured = capsys.readouterr()
        assert "empty,10.0,error" in captured.out
        assert "empty curve" in captured.err

    @pytest.mark.parametrize("row", ["10,2,3", "10,abc", "10"])
    def test_malformed_row_named_by_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# better=lower\nx,y\n0,1.0\n{row}\n", encoding="utf-8")
        assert main(["naurc", "--curves", str(bad), "--budget", "10"]) == 0
        captured = capsys.readouterr()
        assert "bad,10.0,error" in captured.out
        assert captured.err == f"error: bad: {bad}:4: malformed curve row {row!r}, expected two numbers x,y\n"

    def test_budget_below_first_knot_gets_error_row(self, tmp_path, capsys):
        late = tmp_path / "late.csv"
        self.write_curve(late, [(50, 1.0), (60, 2.0)])
        assert main(["naurc", "--curves", str(late), "--budget", "10"]) == 0
        assert "late,10.0,error" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["inf", "nan", "-inf"])
    def test_non_finite_budget_exit_2(self, tmp_path, capsys, budget):
        # Refused before any curve is read: the curve file does not exist.
        assert main(["naurc", "--curves", str(tmp_path / "absent.csv"), f"--budget={budget}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --budget must be a finite number")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_exit_2(self, tmp_path, capsys, budget):
        # The curve starts below the budget, so naurc alone would divide by it.
        neg = tmp_path / "neg.csv"
        neg.write_text("-5,1\n5,1\n", encoding="utf-8")
        assert main(["naurc", "--curves", str(neg), f"--budget={budget}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --budget must be a finite number > 0, got {float(budget)!r}\n"

    def test_colliding_stems_qualified_by_directory(self, tmp_path, capsys):
        for sub, level in (("a", 1.0), ("b", 2.0)):
            d = tmp_path / sub
            d.mkdir()
            self.write_curve(d / "curve_mean.csv", [(0, level), (20, level)])
        assert main([
            "naurc",
            "--curves", str(tmp_path / "a" / "curve_mean.csv"), str(tmp_path / "b" / "curve_mean.csv"),
            "--budget", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "a/curve_mean,10.0,1.0" in out
        assert "b/curve_mean,10.0,2.0" in out

    def test_table_written_to_file(self, tmp_path):
        path = tmp_path / "flat.csv"
        self.write_curve(path, [(0, 2.0), (20, 2.0)])
        table = tmp_path / "table.csv"
        assert main(["naurc", "--curves", str(path), "--budget", "10", "--out", str(table)]) == 0
        text = table.read_text(encoding="utf-8")
        assert text.splitlines()[1] == "method,budget,naurc"

    def test_table_written_into_a_new_directory(self, tmp_path):
        path = tmp_path / "flat.csv"
        self.write_curve(path, [(0, 2.0), (20, 2.0)])
        table = tmp_path / "missing" / "dir" / "table.csv"
        assert main(["naurc", "--curves", str(path), "--budget", "10", "--out", str(table)]) == 0
        assert table.read_text(encoding="utf-8").splitlines()[2] == "flat,10.0,2.0"
        assert [p.name for p in table.parent.iterdir()] == ["table.csv"]


@pytest.mark.parametrize(
    "command, flag, target, named",
    [("simulate", "--out", "runs", "runs"), ("naurc", "--out", "table.csv", ""), ("ingest", "--output", "dataset", "dataset")],
    ids=["simulate", "naurc", "ingest"],
)
def test_output_under_a_regular_file_exit_1(sim_setup, capsys, command, flag, target, named):
    # Each command's output path lies under a regular file: one error line
    # names the directory that could not be made, and nothing is left.
    _, config_path, tmp_path = sim_setup
    (tmp_path / "flat.csv").write_text("x,y\n0,1.0\n10,1.0\n", encoding="utf-8")
    write_raw(tmp_path / "raw.jsonl", raw_lines())
    inputs = {
        "simulate": ["--config", str(config_path)],
        "naurc": ["--curves", str(tmp_path / "flat.csv"), "--budget", "5"],
        "ingest": ["--input", str(tmp_path / "raw.jsonl")],
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    assert main([command, *inputs, flag, str(blocker / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker / named}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert not list(tmp_path.rglob("*.tmp"))
