import gc
import json
import pickle
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alsim import dataio
from alsim.dataio import (
    DatasetError,
    load_dataset,
    read_blob,
    read_raw_export,
    write_blob,
    write_dataset,
)
from alsim.records import ViewSpec, validate_dataset
from alsim.simulation import SyntheticSpec, generate_synthetic

from conftest import build_dataset, make_gt, make_record


VIEWS = (ViewSpec("feat3", 3, 0.4), ViewSpec("feat2", 2, 0.6))


def fixture_dataset(rng):
    instances = [
        make_record(
            i,
            image_id=f"img{i % 2}",
            features={"feat3": rng.normal(size=3), "feat2": rng.normal(size=2)},
            pred_depth=float(rng.uniform(5, 40)),
            confidence=float(rng.uniform(0, 1)),
            aux_depths=(float(rng.uniform(5, 40)),) if i % 2 else None,
        )
        for i in range(4)
    ]
    gts = [make_gt(100 + i, image_id=f"img{i % 2}") for i in range(3)]
    return build_dataset(instances, gts, views=VIEWS)


class TestBlob:
    def test_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(5, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.alf"
        write_blob(path, matrix)
        assert np.array_equal(read_blob(path), matrix)

    @given(
        matrix=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        )
    )
    def test_float32_matrices_roundtrip_and_rewrite_identically(self, tmp_path_factory, matrix):
        directory = tmp_path_factory.mktemp("blob")
        first, second = directory / "a.alf", directory / "b.alf"
        write_blob(first, matrix.astype(np.float64))
        loaded = read_blob(first)
        assert loaded.dtype == np.float64 and loaded.shape == matrix.shape
        assert np.array_equal(loaded, matrix)
        write_blob(second, loaded)
        assert second.read_bytes() == first.read_bytes()

    def test_layout(self, tmp_path):
        path = tmp_path / "x.alf"
        write_blob(path, [[1.0, 2.0]])
        raw = path.read_bytes()
        assert raw[:4] == b"ALF1"
        assert struct.unpack("<II", raw[4:12]) == (1, 2)
        assert np.frombuffer(raw, dtype="<f4", offset=12).tolist() == [1.0, 2.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.alf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetError, match="not an ALF1 blob"):
            read_blob(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e39, -3.5e38, float("inf"), float("nan")])
    def test_values_not_finite_as_float32_refused(self, tmp_path, value):
        path = tmp_path / "x.alf"
        with pytest.raises(DatasetError, match="finite as float32"):
            write_blob(path, [[1.0, value]])
        assert not path.exists()
        write_blob(path, [[1.0, float(np.finfo(np.float32).max)]])
        assert read_blob(path)[0, 1] == np.finfo(np.float32).max

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.alf"
        write_blob(path, [[1.0, 2.0], [3.0, 4.0]])
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DatasetError, match="truncated"):
            read_blob(path)


class TestManifestRoundTrip:
    def test_identity_roundtrip(self, tmp_path, rng):
        data = fixture_dataset(rng)
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(data, manifest)
        loaded = load_dataset(manifest)

        assert [r.instance_id for r in loaded.instances] == [r.instance_id for r in data.instances]
        assert loaded.views == data.views
        assert loaded.camera == data.camera
        assert loaded.images == data.images
        assert loaded.ground_truth == data.ground_truth
        for a, b in zip(loaded.instances, data.instances):
            assert a.pred_depth == b.pred_depth
            assert a.confidence == b.confidence
            assert a.aux_depths == b.aux_depths
            for name in b.features:
                # float32 on disk: loading returns the widened float32 values
                assert np.array_equal(a.features[name], b.features[name].astype(np.float32))

    def test_blobs_byte_identical_after_reload(self, tmp_path, rng):
        data = fixture_dataset(rng)
        m1 = tmp_path / "one" / "manifest.jsonl"
        write_dataset(data, m1)
        loaded = load_dataset(m1)
        m2 = tmp_path / "two" / "manifest.jsonl"
        write_dataset(loaded, m2)
        blobs1 = sorted(p.name for p in m1.parent.glob("*.alf"))
        blobs2 = sorted(p.name for p in m2.parent.glob("*.alf"))
        assert blobs1 == blobs2
        for name in blobs1:
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()

    def test_loaded_matrices_are_the_records_rows(self, tmp_path, rng):
        data = fixture_dataset(rng)
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(data, manifest)
        loaded = load_dataset(manifest)
        for v in VIEWS:
            m = loaded.matrix(v.name)
            assert m.shape == (len(loaded.instances), v.dim)
            assert all(np.shares_memory(m, r.features[v.name]) for r in loaded.instances)
            assert np.array_equal(m, data.matrix(v.name).astype(np.float32))

    def test_load_is_deterministic_and_order_preserving(self, tmp_path, rng):
        data = fixture_dataset(rng)
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(data, manifest)
        a = load_dataset(manifest)
        b = load_dataset(manifest)
        assert [r.instance_id for r in a.instances] == [r.instance_id for r in b.instances]
        assert list(a.images) == list(b.images)

    def test_failed_write_keeps_the_previous_dataset(self, tmp_path, rng, monkeypatch):
        # The manifest fails halfway through its instance lines, after every
        # blob is written: the dataset already there keeps its bytes and no
        # temporary file is left.
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(fixture_dataset(rng), manifest)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        instance_lines = dataio._instance_lines
        written = []

        def failing(columns):
            for line in instance_lines(columns):
                written.append(line["instance_id"])
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
                yield line

        monkeypatch.setattr(dataio, "_instance_lines", failing)
        with pytest.raises(OSError, match="No space left"):
            write_dataset(fixture_dataset(rng), manifest)
        assert written == [0, 1]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_view_some_record_lacks_is_named_and_nothing_written(self, tmp_path):
        views = (ViewSpec("a", 2, 0.5), ViewSpec("b", 3, 0.5))
        records = [
            make_record(0, features={"a": [1.0, 2.0], "b": [0.1, 0.2, 0.3]}),
            make_record(1, features={"a": [3.0, 4.0]}),
        ]
        data = build_dataset(records, [make_gt(10)], views=views)
        with pytest.raises(DatasetError, match="^view 'b': not every instance has a vector of the declared dimension$"):
            write_dataset(data, tmp_path / "out" / "manifest.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_synthetic_dataset_roundtrip(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(clusters=3, per_cluster=4), seed=8)
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(data, manifest)
        loaded = load_dataset(manifest)
        assert len(loaded.instances) == 12
        assert loaded.images == data.images


class TestLoadedRecords:
    """A loaded record's ``features`` reads its row of the dataset's
    matrices: it holds no arrays, and no dict, of its own."""

    def loaded(self, tmp_path, rng):
        write_dataset(fixture_dataset(rng), tmp_path / "manifest.jsonl")
        return load_dataset(tmp_path / "manifest.jsonl")

    def test_keys_are_the_declared_views(self, tmp_path, rng):
        for r in self.loaded(tmp_path, rng).instances:
            assert list(r.features) == [v.name for v in VIEWS] and len(r.features) == len(VIEWS)
            assert "feat3" in r.features and "unknown" not in r.features
            assert r.features.get("unknown") is None
            with pytest.raises(KeyError):
                r.features["unknown"]

    def test_rows_are_read_only(self, tmp_path, rng):
        r = self.loaded(tmp_path, rng).instances[0]
        with pytest.raises(TypeError):
            r.features["feat3"] = np.zeros(3)

    def test_pickle_round_trips_the_values(self, tmp_path, rng):
        loaded = self.loaded(tmp_path, rng)
        copy = pickle.loads(pickle.dumps(loaded))
        for a, b in zip(loaded.instances, copy.instances, strict=True):
            assert list(a.features) == list(b.features)
            for v in VIEWS:
                assert np.array_equal(a.features[v.name], b.features[v.name])
        for v in VIEWS:
            assert np.array_equal(copy.matrix(v.name), loaded.matrix(v.name))

    def test_replaced_dataset_stacks_its_own_rows(self, tmp_path, rng):
        loaded = self.loaded(tmp_path, rng)
        half = replace(loaded, instances=loaded.instances[::2])
        for v in VIEWS:
            expected = np.stack([r.features[v.name] for r in loaded.instances[::2]])
            assert np.array_equal(half.matrix(v.name), expected)
            assert np.array_equal(half.matrix(v.name), loaded.matrix(v.name)[::2])

    def test_both_readers_share_memory_with_the_matrices(self, tmp_path, rng):
        data = fixture_dataset(rng)
        raw = tmp_path / "raw.jsonl"
        lines = [{"kind": "header", "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in VIEWS],
                  "camera": {"fx": data.camera.f_x, "fy": data.camera.f_y}}]
        lines += [{"kind": "instance", "image_id": r.image_id, "instance_id": r.instance_id, "class_id": r.class_id,
                   "box2d": {"cx": r.box2d.cx, "cy": r.box2d.cy, "w": r.box2d.w, "h": r.box2d.h},
                   "pred_depth": r.pred_depth, "confidence": r.confidence, "aux_depths": r.aux_depths,
                   "features": {k: list(x) for k, x in r.features.items()}}
                  for r in data.instances]
        raw.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n", encoding="utf-8")
        write_dataset(data, tmp_path / "manifest.jsonl")
        for loaded in (read_raw_export(raw), load_dataset(tmp_path / "manifest.jsonl")):
            for v in VIEWS:
                m = loaded.matrix(v.name)
                assert all(np.shares_memory(m, r.features[v.name]) for r in loaded.instances)

    def test_validation_reads_the_declared_views_of_loaded_rows(self, tmp_path, rng):
        loaded = self.loaded(tmp_path, rng)
        assert validate_dataset(loaded) == []
        wider = replace(loaded, views=(ViewSpec("feat3", 4, 0.4), VIEWS[1]))
        assert validate_dataset(wider) == [
            f"instance {r.instance_id}: view 'feat3' has dimension (3,), declared 4" for r in loaded.instances
        ]
        extra = replace(loaded, views=VIEWS + (ViewSpec("feat9", 9, 0.0),))
        assert validate_dataset(extra) == [
            f"instance {r.instance_id}: missing feature view 'feat9'" for r in loaded.instances
        ]

    def test_one_image_id_object_per_image(self, tmp_path, rng):
        loaded = self.loaded(tmp_path, rng)
        by_image = {}
        for obj in loaded.instances + loaded.ground_truth:
            assert by_image.setdefault(obj.image_id, obj.image_id) is obj.image_id
        assert set(by_image) == {"img0", "img1"}

    def test_retained_bytes_per_instance(self, tmp_path):
        # The Python objects a loaded dataset keeps alive beyond its
        # features are compared, in this process, with those of the same
        # dataset whose records each hold a dict of row views. On CPython
        # 3.11, at 2k synthetic instances with their ground-truth objects,
        # that is about 920 B per instance against 1480 B; when the loader
        # itself gave each record such a dict, the two were equal.
        path = tmp_path / "m.jsonl"
        write_dataset(generate_synthetic(SyntheticSpec(clusters=80, per_cluster=25), seed=0), path)
        load_dataset(path)  # warm up the parser's caches

        def with_row_dicts():
            d = load_dataset(path)
            rows = [
                replace(r, features={v.name: d.matrix(v.name)[i] for v in d.views})
                for i, r in enumerate(d.instances)
            ]
            return replace(d, instances=tuple(rows))

        def retained_per_instance(build):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                data = build()
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(data.instances) == 2000
            features = sum(data.matrix(v.name).nbytes for v in data.views)
            return (retained - features) / len(data.instances)

        loaded = retained_per_instance(lambda: load_dataset(path))
        assert loaded < 0.8 * retained_per_instance(with_row_dicts)


class TestLoadErrors:
    def _write_manifest(self, tmp_path, lines):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n", encoding="utf-8")
        return manifest

    def _header(self, blobs, dim=2):
        return {
            "kind": "header",
            "views": [{"name": "v", "dim": dim, "lambda": 1.0}],
            "camera": {"fx": 100.0, "fy": 100.0},
            "blobs": blobs,
        }

    def _instance(self, iid):
        return {
            "kind": "instance",
            "image_id": "img0",
            "instance_id": iid,
            "class_id": 0,
            "box2d": {"cx": 10.0, "cy": 10.0, "w": 5.0, "h": 5.0},
            "pred_depth": 10.0,
            "confidence": 0.5,
        }

    def test_dimension_mismatch(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0, 3.0]])
        manifest = self._write_manifest(
            tmp_path, [self._header({"v": "v.alf"}, dim=8), self._instance(0)]
        )
        with pytest.raises(DatasetError, match="dimension mismatch"):
            load_dataset(manifest)

    def test_duplicate_instance_id(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0], [3.0, 4.0]])
        manifest = self._write_manifest(
            tmp_path, [self._header({"v": "v.alf"}), self._instance(5), self._instance(5)]
        )
        with pytest.raises(DatasetError, match="duplicate instance_id"):
            load_dataset(manifest)

    def test_row_count_mismatch(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0], [3.0, 4.0]])
        manifest = self._write_manifest(
            tmp_path, [self._header({"v": "v.alf"}), self._instance(0)]
        )
        with pytest.raises(DatasetError, match="rows"):
            load_dataset(manifest)

    def test_missing_header(self, tmp_path):
        manifest = self._write_manifest(tmp_path, [self._instance(0)])
        with pytest.raises(DatasetError, match="no header"):
            load_dataset(manifest)

    def test_invalid_json_line(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"kind": "header"\nnot json\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="invalid JSON"):
            load_dataset(manifest)

    def test_invariant_violation_fails_load(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        bad = self._instance(0)
        bad["pred_depth"] = -4.0
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), bad])
        with pytest.raises(DatasetError, match="pred_depth"):
            load_dataset(manifest)

    def test_non_finite_feature_blob(self, tmp_path):
        # Written by hand: write_blob refuses non-finite values.
        (tmp_path / "v.alf").write_bytes(b"ALF1" + struct.pack("<II2f", 1, 2, 1.0, float("inf")))
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), self._instance(0)])
        with pytest.raises(DatasetError, match="view 'v': non-finite feature values"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda lines: lines[0]["camera"].pop("fy"), "manifest.jsonl: malformed header line"),
            (lambda lines: lines[1].pop("box2d"), "manifest.jsonl:2: malformed instance line"),
            (lambda lines: lines.append([1, 2]), "manifest.jsonl:3: unknown record kind"),
        ],
        ids=["header", "instance", "not_an_object"],
    )
    def test_malformed_lines_name_the_file(self, tmp_path, mangle, message):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        lines = [self._header({"v": "v.alf"}), self._instance(0)]
        mangle(lines)
        manifest = self._write_manifest(tmp_path, lines)
        with pytest.raises(DatasetError, match=message):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda h: h["views"][0].update({"lambda": float("nan")}), "view 'v': lambda must be finite"),
            (lambda h: h["views"][0].update({"lambda": float("inf")}), "view 'v': lambda must be finite"),
            (lambda h: h["camera"].update({"fx": float("inf")}), "camera: focal lengths must be finite"),
            (lambda h: h["camera"].update({"fy": float("nan")}), "camera: focal lengths must be finite"),
        ],
        ids=["lambda_nan", "lambda_inf", "fx_inf", "fy_nan"],
    )
    def test_non_finite_weight_or_focal_length_refused(self, tmp_path, mangle, message):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        header = self._header({"v": "v.alf"})
        mangle(header)
        manifest = self._write_manifest(tmp_path, [header, self._instance(0)])
        with pytest.raises(DatasetError, match=message):
            load_dataset(manifest)

    @pytest.mark.parametrize("center", [[float("nan"), float("inf")], [10.0, float("-inf")]], ids=["nan", "-inf"])
    def test_non_finite_gt_center_refused(self, tmp_path, center):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        gt = {"kind": "gt", "gt_id": 3, "image_id": "img0", "class_id": 0, "center2d": center,
              "depth": 10.0, "pixel_height": 40.0}
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), self._instance(0), gt])
        with pytest.raises(DatasetError, match="gt 3: center2d must be finite"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "line, key, value, message",
        [
            (1, "instance_id", 1.7, "manifest.jsonl:2: malformed instance line"),
            (1, "class_id", 0.9, "manifest.jsonl:2: malformed instance line"),
            (1, "class_id", True, "manifest.jsonl:2: malformed instance line"),
            (2, "gt_id", "3", "manifest.jsonl:3: malformed gt line"),
            (2, "class_id", False, "manifest.jsonl:3: malformed gt line"),
        ],
        ids=["instance_id-1.7", "class_id-0.9", "class_id-true", "gt_id-string", "gt_class_id-false"],
    )
    def test_non_integral_ids_refused(self, tmp_path, line, key, value, message):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        gt = {"kind": "gt", "gt_id": 3, "image_id": "img0", "class_id": 0, "center2d": [10.0, 10.0],
              "depth": 10.0, "pixel_height": 40.0}
        lines = [self._header({"v": "v.alf"}), self._instance(0), gt]
        lines[line][key] = value
        with pytest.raises(DatasetError, match=message):
            load_dataset(self._write_manifest(tmp_path, lines))

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda ls: ls[1].update(pred_depth="12"), "manifest.jsonl:2: malformed instance line"),
            (lambda ls: ls[1].update(confidence=True), "manifest.jsonl:2: malformed instance line"),
            (lambda ls: ls[1]["box2d"].update(h=True), "manifest.jsonl:2: malformed instance line"),
            (lambda ls: ls[1].update(aux_depths=["9.5"]), "manifest.jsonl:2: malformed instance line"),
            (lambda ls: ls[1].update(aux_depths="12"), "manifest.jsonl:2: malformed instance line"),
            (lambda ls: ls[2].update(depth="12.5"), "manifest.jsonl:3: malformed gt line"),
            (lambda ls: ls[2].update(pixel_height=False), "manifest.jsonl:3: malformed gt line"),
            (lambda ls: ls[2].update(center2d=[10.0, "10"]), "manifest.jsonl:3: malformed gt line"),
            (lambda ls: ls[0]["camera"].update(fx="100"), "manifest.jsonl: malformed header line"),
            (lambda ls: ls[0]["camera"].update(fy=True), "manifest.jsonl: malformed header line"),
            (lambda ls: ls[0]["camera"].update(fy=10**400), "manifest.jsonl: malformed header line"),
            (lambda ls: ls[0]["views"][0].update({"lambda": "1"}), "manifest.jsonl: malformed header line"),
        ],
        ids=["pred_depth-string", "confidence-true", "box2d_h-true", "aux_depths-string-item",
             "aux_depths-string", "depth-string", "pixel_height-false", "center2d-string", "fx-string",
             "fy-true", "fy-overflow", "lambda-string"],
    )
    def test_non_numeric_values_refused(self, tmp_path, mangle, message):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        gt = {"kind": "gt", "gt_id": 3, "image_id": "img0", "class_id": 0, "center2d": [10.0, 10.0],
              "depth": 10.0, "pixel_height": 40.0}
        lines = [self._header({"v": "v.alf"}), self._instance(0), gt]
        mangle(lines)
        with pytest.raises(DatasetError, match=message):
            load_dataset(self._write_manifest(tmp_path, lines))

    @pytest.mark.parametrize("first", ["type", "missing_key"])
    def test_the_earlier_of_two_faulty_lines_is_named(self, tmp_path, first):
        # A type fault is found by its column's check, after every line is
        # read, and a missing key while the line is read: either way the
        # earlier line is the one refused.
        write_blob(tmp_path / "v.alf", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        lines = [self._header({"v": "v.alf"}), self._instance(0), self._instance(1), self._instance(2)]
        type_line, key_line = (lines[1], lines[3]) if first == "type" else (lines[3], lines[1])
        type_line["confidence"] = "0.5"
        del key_line["box2d"]
        with pytest.raises(DatasetError) as info:
            load_dataset(self._write_manifest(tmp_path, lines))
        fault = "ValueError(\"expected a number, got '0.5'\")" if first == "type" else "KeyError('box2d')"
        assert str(info.value).endswith(f"manifest.jsonl:2: malformed instance line ({fault})")

    def test_a_fault_on_the_same_line_is_named_in_reading_order(self, tmp_path):
        # A line with a fault in an early field and a missing later key is
        # refused for the field a line-by-line reader meets first.
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        instance = self._instance(0)
        instance["class_id"] = 0.5
        del instance["box2d"]["h"]
        with pytest.raises(DatasetError, match=r"manifest.jsonl:2: malformed instance line \(ValueError"):
            load_dataset(self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), instance]))

    def _raw_lines(self, count):
        """A raw export's lines: a header without blobs, ``count`` instances
        with their vectors inline, and one gt line."""
        header = self._header({})
        del header["blobs"]
        instances = [dict(self._instance(i), features={"v": [float(i), 1.0]}) for i in range(count)]
        gt = {"kind": "gt", "gt_id": 3, "image_id": "img0", "class_id": 0, "center2d": [10.0, 10.0],
              "depth": 10.0, "pixel_height": 40.0}
        return [header, *instances, gt]

    @pytest.mark.parametrize(
        "line, key, value, fault",
        [
            (1, "features", {"v": [True, 1.0]}, "ValueError('expected a number, got True')"),
            (1, "features", {"v": [1.0, False]}, "ValueError('expected a number, got False')"),
            (1, "image_id", None, "TypeError('intern() argument must be str, not None')"),
            (1, "image_id", False, "TypeError('intern() argument must be str, not bool')"),
            (1, "image_id", 7, "TypeError('intern() argument must be str, not int')"),
            (2, "image_id", 7, "TypeError('intern() argument must be str, not int')"),
        ],
        ids=["features-true", "features-false", "image_id-null", "image_id-false", "image_id-int",
             "gt_image_id-int"],
    )
    def test_booleans_in_vectors_and_non_string_image_ids_refused(self, tmp_path, line, key, value, fault):
        lines = self._raw_lines(1)
        lines[line][key] = value
        kind = "instance" if line == 1 else "gt"
        with pytest.raises(DatasetError) as info:
            read_raw_export(self._write_manifest(tmp_path, lines))
        assert str(info.value).endswith(f"manifest.jsonl:{line + 1}: malformed {kind} line ({fault})")

    def test_non_string_view_name_refused(self, tmp_path):
        lines = self._raw_lines(1)
        lines[0]["views"][0]["name"] = 3
        with pytest.raises(DatasetError) as info:
            read_raw_export(self._write_manifest(tmp_path, lines))
        fault = "TypeError('intern() argument must be str, not int')"
        assert str(info.value).endswith(f"manifest.jsonl: malformed header line ({fault})")

    @pytest.mark.parametrize("key, value", [("features", {"v": [True, 1.0]}), ("image_id", 7)])
    def test_a_fault_read_earlier_is_named_before_a_refused_value(self, tmp_path, key, value):
        # A boolean item or a non-string image id is refused while its line
        # is read, a type fault by its column's check after every line: the
        # earlier line is named, and on one line the field read first.
        lines = self._raw_lines(3)
        lines[3][key] = value
        lines[1]["confidence"] = "0.5"
        with pytest.raises(DatasetError) as info:
            read_raw_export(self._write_manifest(tmp_path, lines))
        assert str(info.value).endswith("manifest.jsonl:2: malformed instance line "
                                        "(ValueError(\"expected a number, got '0.5'\"))")
        lines[1]["confidence"] = 0.5
        lines[3]["class_id"] = 0.5
        with pytest.raises(DatasetError) as info:
            read_raw_export(self._write_manifest(tmp_path, lines))
        # The image id is read before the class id, the vectors after it.
        fault = {"features": "ValueError('expected a whole number, got 0.5')",
                 "image_id": "TypeError('intern() argument must be str, not int')"}[key]
        assert str(info.value).endswith(f"manifest.jsonl:4: malformed instance line ({fault})")

    @pytest.mark.parametrize("line, key", [(1, "instance_id"), (1, "class_id"), (2, "gt_id"), (2, "class_id")])
    def test_ids_outside_int64_refused(self, tmp_path, line, key):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        gt = {"kind": "gt", "gt_id": 3, "image_id": "img0", "class_id": 0, "center2d": [10.0, 10.0],
              "depth": 10.0, "pixel_height": 40.0}
        lines = [self._header({"v": "v.alf"}), self._instance(0), gt]
        lines[line][key] = 2**63
        kind = "instance" if line == 1 else "gt"
        with pytest.raises(DatasetError, match=f"manifest.jsonl:{line + 1}: malformed {kind} line .*within int64"):
            load_dataset(self._write_manifest(tmp_path, lines))
        lines[line][key] = -(2**63)
        assert load_dataset(self._write_manifest(tmp_path, lines)).instances

    def test_integral_numbers_load_as_floats(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        instance = dict(self._instance(0), pred_depth=12, confidence=1, aux_depths=[9, 11.5])
        data = load_dataset(self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), instance]))
        r = data.instances[0]
        assert (r.pred_depth, r.confidence, r.aux_depths) == (12.0, 1.0, (9.0, 11.5))
        assert type(r.pred_depth) is float and type(r.aux_depths[0]) is float

    def test_fractional_dim_refused(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}, dim=2.9), self._instance(0)])
        with pytest.raises(DatasetError, match="manifest.jsonl: malformed header line"):
            load_dataset(manifest)

    def test_integral_floats_load_as_ints(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        instance = dict(self._instance(0), instance_id=4.0, class_id=2.0)
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}, dim=2.0), instance])
        data = load_dataset(manifest)
        r = data.instances[0]
        assert (r.instance_id, r.class_id, data.views[0].dim) == (4, 2, 2)
        assert type(r.instance_id) is int and type(r.class_id) is int and type(data.views[0].dim) is int

    def test_non_utf8_manifest_names_path_and_line(self, tmp_path):
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"})])
        manifest.write_bytes(manifest.read_bytes() + b'{"kind": "gt", "image_id": "\xff"}\n')
        with pytest.raises(DatasetError, match="manifest.jsonl:2: not UTF-8 text"):
            load_dataset(manifest)

    def test_undeclared_inline_view_refused(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        instance = dict(self._instance(0), features={"zz": [3.0]})
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), instance])
        with pytest.raises(DatasetError, match="undeclared view\\(s\\) 'zz'"):
            load_dataset(manifest)

    def test_inline_vector_of_a_blob_view_refused(self, tmp_path):
        write_blob(tmp_path / "v.alf", [[1.0, 2.0]])
        instance = dict(self._instance(0), features={"v": [7.0, 8.0, 9.0]})
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), instance])
        with pytest.raises(DatasetError, match="inline features of view 'v', which has a blob"):
            load_dataset(manifest)

    def test_missing_files_name_the_path(self, tmp_path):
        with pytest.raises(DatasetError, match="absent.jsonl: cannot read"):
            load_dataset(tmp_path / "absent.jsonl")
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), self._instance(0)])
        with pytest.raises(DatasetError, match="v.alf: cannot read blob"):
            load_dataset(manifest)
