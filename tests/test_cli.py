import json
import logging
from dataclasses import replace

import pytest

from alsim.cli import main, read_curve_csv
from alsim.dataio import load_dataset, write_dataset
from alsim.simulation import SyntheticSpec, generate_synthetic


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

    @pytest.mark.parametrize("features", [{}, {"v": [1.0, 2.0, 3.0]}])
    def test_missing_or_misshapen_inline_view_rejected(self, tmp_path, capsys, features):
        lines = raw_lines()
        lines[2]["features"] = features
        raw = tmp_path / "raw.jsonl"
        write_raw(raw, lines)
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "out")]) == 1
        assert "view 'v'" in capsys.readouterr().err


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


class TestNaurc:
    def write_curve(self, path, pairs):
        path.write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in pairs) + "\n", encoding="utf-8")

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

    def test_empty_curve_gets_error_row(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n", encoding="utf-8")
        assert main(["naurc", "--curves", str(empty), "--budget", "10"]) == 0
        captured = capsys.readouterr()
        assert "empty,10.0,error" in captured.out
        assert "empty curve" in captured.err

    def test_budget_below_first_knot_gets_error_row(self, tmp_path, capsys):
        late = tmp_path / "late.csv"
        self.write_curve(late, [(50, 1.0), (60, 2.0)])
        assert main(["naurc", "--curves", str(late), "--budget", "10"]) == 0
        assert "late,10.0,error" in capsys.readouterr().out

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
