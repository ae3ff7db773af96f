import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alsim.dataio import DatasetError, load_dataset, read_blob, write_blob, write_dataset
from alsim.records import ViewSpec
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

    def test_synthetic_dataset_roundtrip(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(clusters=3, per_cluster=4), seed=8)
        manifest = tmp_path / "manifest.jsonl"
        write_dataset(data, manifest)
        loaded = load_dataset(manifest)
        assert len(loaded.instances) == 12
        assert loaded.images == data.images


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
        write_blob(tmp_path / "v.alf", [[1.0, float("inf")]])
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

    def test_missing_files_name_the_path(self, tmp_path):
        with pytest.raises(DatasetError, match="absent.jsonl: cannot read"):
            load_dataset(tmp_path / "absent.jsonl")
        manifest = self._write_manifest(tmp_path, [self._header({"v": "v.alf"}), self._instance(0)])
        with pytest.raises(DatasetError, match="v.alf: cannot read blob"):
            load_dataset(manifest)
