"""Cube persistence: save_cube/load_cube round trips."""

import json
import os

import pytest

from repro.cluster import cluster1
from repro.core.export import load_cube, save_cube
from repro.core.naive import naive_iceberg_cube
from repro.errors import SchemaError
from repro.queries import iceberg_cube


class TestRoundTrip:
    def test_exact_round_trip(self, small_skewed, tmp_path):
        result = naive_iceberg_cube(small_skewed, minsup=2)
        save_cube(result, tmp_path / "cube")
        loaded = load_cube(tmp_path / "cube")
        assert loaded.equals(result), loaded.diff(result)

    def test_parallel_result_round_trip(self, small_uniform, tmp_path):
        run = iceberg_cube(small_uniform, minsup=3, cluster_spec=cluster1(2))
        save_cube(run.result, tmp_path / "cube")
        assert load_cube(tmp_path / "cube").equals(run.result)

    def test_manifest_structure(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        manifest = save_cube(result, tmp_path / "cube")
        assert manifest["format"] == "repro-cube/1"
        assert manifest["format_version"] == 1
        assert manifest["dims"] == list(small_uniform.dims)
        assert manifest["total_cells"] == result.total_cells()
        on_disk = json.loads((tmp_path / "cube" / "manifest.json").read_text())
        assert on_disk == manifest

    def test_one_file_per_cuboid(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        save_cube(result, tmp_path / "cube")
        files = {f for f in os.listdir(tmp_path / "cube") if f.endswith(".csv")}
        assert "all.csv" in files
        assert "A.csv" in files
        assert "A_B_C_D.csv" in files
        assert len(files) == len(result.cuboids)

    def test_float_values_exact(self, tmp_path):
        from repro.core.result import CubeResult

        result = CubeResult(("A",))
        result.add_cell(("A",), (0,), 3, 0.1 + 0.2)  # not representable cleanly
        save_cube(result, tmp_path / "cube")
        loaded = load_cube(tmp_path / "cube")
        assert loaded.cuboid(("A",))[(0,)] == (3, 0.1 + 0.2)


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SchemaError):
            load_cube(tmp_path)

    def test_unknown_format(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other/9"}')
        with pytest.raises(SchemaError):
            load_cube(tmp_path)

    def test_header_mismatch_detected(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        save_cube(result, tmp_path / "cube")
        path = tmp_path / "cube" / "A.csv"
        lines = path.read_text().splitlines()
        lines[0] = "wrong,count,sum"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_cube(tmp_path / "cube")

    def test_cell_count_mismatch_detected(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        save_cube(result, tmp_path / "cube")
        path = tmp_path / "cube" / "A.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
        with pytest.raises(SchemaError):
            load_cube(tmp_path / "cube")

    def test_unsupported_format_version(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        save_cube(result, tmp_path / "cube")
        manifest_path = tmp_path / "cube" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError):
            load_cube(tmp_path / "cube")

    def test_version_field_optional_for_old_saves(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=2)
        save_cube(result, tmp_path / "cube")
        manifest_path = tmp_path / "cube" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["format_version"]  # a pre-versioning save
        manifest_path.write_text(json.dumps(manifest))
        assert load_cube(tmp_path / "cube").equals(result)


class TestAtomicWrites:
    def test_save_leaves_no_temp_files(self, small_uniform, tmp_path):
        result = naive_iceberg_cube(small_uniform, minsup=1)
        save_cube(result, tmp_path / "cube")
        leftovers = [f for f in os.listdir(tmp_path / "cube") if ".tmp" in f]
        assert leftovers == []

    def test_overwrite_is_atomic_on_failure(self, small_uniform, tmp_path):
        """A save that dies mid-write must leave the previous cube intact
        (temp file + rename, never in-place truncation)."""
        from repro.core import export

        result = naive_iceberg_cube(small_uniform, minsup=2)
        save_cube(result, tmp_path / "cube")

        class Boom(RuntimeError):
            pass

        def exploding(handle):
            handle.write(b"partial garbage")
            raise Boom()

        path = str(tmp_path / "cube" / "A.csv")
        before = (tmp_path / "cube" / "A.csv").read_text()
        with pytest.raises(Boom):
            export.publish(path, exploding)
        assert (tmp_path / "cube" / "A.csv").read_text() == before
        assert not any(map(export.is_debris, os.listdir(tmp_path / "cube")))
        # and the whole cube still loads
        assert load_cube(tmp_path / "cube").equals(result)
