"""Command-line interface: every subcommand exercised in-process."""

import csv
import io
import json
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boxqi import cli, convergence, isosurface, nearbest, qi


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, err = run(capsys, "info", "--m", "11")
    assert code == 0 and err == ""
    assert "coefficients: |A| = 3211 active of 3375 slots" in out
    assert "operator norm bound: 9.945 (179/18)" in out
    assert "data points: 13 x 13 x 13 = 2197" in out
    assert ("memory: coefficients 26.4 KiB (read by evaluation), "
            "optional dense patch export 8.5 MiB") in out


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "--class", "3,3,3", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["norm"] == "13/8"
    assert doc["norm_4sf"] == "1.625"
    assert doc["class"] == [3, 3, 3] and doc["n"] == 2
    weights = {tuple(w["index"]): w["weight"] for w in doc["weights"]}
    assert weights[(3, 3, 3)] == "21/16"
    assert all(w != "0" for w in weights.values())  # nonzero entries only


def test_derive_infeasible(capsys):
    code, out, _ = run(capsys, "derive", "--class", "0,0,-1", "--n", "2")
    assert code == 0
    assert json.loads(out)["status"] == "infeasible"


def test_norm_table_csv(capsys):
    code, out, _ = run(capsys, "norm-table", "--class", "0,0,-1",
                       "--n", "1..4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
    assert [r["status"] for r in rows] == ["infeasible"] * 3 + ["optimal"]
    assert rows[3]["norm_4sf"] == "127.1"
    assert rows[3]["class"] == "0,0,-1"


def test_norm_table_rounds_the_exact_norm(capsys, monkeypatch):
    # an exact 1/10 must print as 0.1; its float rounds up to 0.1001
    def tenth(system):
        return nearbest.L1Solution("optimal", system, [], Fraction(1, 10))

    monkeypatch.setattr(nearbest, "minimize_l1", tenth)
    code, out, _ = run(capsys, "norm-table", "--class", "3,3,3", "--n", "2")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["norm"] == "0.1" and row["norm_4sf"] == "0.1"


def test_stencils_csv_and_json(capsys):
    code, out, _ = run(capsys, "stencils", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 23
    by_class = {r["class"]: r for r in rows}
    assert by_class["0,0,-1"]["n"] == "11"
    assert by_class["0,0,-1"]["l1_4sf"] == "8.774"
    assert by_class["3,3,3"]["l1_4sf"] == "1.625"
    code, out, _ = run(capsys, "stencils", "--class", "3,3,3",
                       "--format", "json")
    doc = json.loads(out)
    assert len(doc) == 1 and doc[0]["n"] == 2
    weights = {tuple(w["index"]): w["weight"] for w in doc[0]["weights"]}
    assert weights[(3, 3, 3)] == "21/16"


def test_sample_writes_npy(capsys, tmp_path):
    out_path = tmp_path / "f2.npy"
    code, out, _ = run(capsys, "sample", "--fn", "f2", "--m", "16",
                       "--out", str(out_path))
    assert code == 0
    data = np.load(out_path)
    assert data.shape == (18, 18, 18)
    assert "18 x 18 x 18" in out


def test_pipeline_approximate_eval_isosurface(capsys, tmp_path):
    spline_path = tmp_path / "f2.qis"
    code, out, _ = run(capsys, "approximate", "--fn", "f2", "--m", "16",
                       "--out", str(spline_path))
    assert code == 0 and spline_path.exists()

    # determinism: a second run produces identical bytes
    again = tmp_path / "again.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "16",
        "--out", str(again))
    assert spline_path.read_bytes() == again.read_bytes()

    code, out, _ = run(capsys, "eval", "--in", str(spline_path),
                       "--grid", "21", "--fn", "f2")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert int(row["points"]) == 21 ** 3
    assert 0.0 < float(row["max_error"]) < 2e-2

    mesh_path = tmp_path / "f2.obj"
    code, out, _ = run(capsys, "isosurface", "--in", str(spline_path),
                       "--iso", "0.3", "--res", "12",
                       "--out", str(mesh_path))
    assert code == 0
    assert f"wrote {mesh_path}" in out and "vertices" in out
    mesh = isosurface.read_obj(mesh_path.read_text())
    assert len(mesh.vertices) > 0

    ply_path = tmp_path / "f2.ply"
    code, out, _ = run(capsys, "isosurface", "--in", str(spline_path),
                       "--iso", "0.3", "--res", "12", "--fn", "f2",
                       "--out", str(ply_path))
    assert code == 0
    with_err = isosurface.read_ply(ply_path.read_bytes())
    assert with_err.scalars is not None


def test_eval_paths_do_not_compile(capsys, tmp_path, monkeypatch):
    spline_path = tmp_path / "f2.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "11",
        "--out", str(spline_path))

    def refuse(self, *args, **kwargs):
        raise AssertionError("compile called on an evaluation path")

    monkeypatch.setattr(qi.QISpline, "compile", refuse)
    code, _, err = run(capsys, "eval", "--in", str(spline_path),
                       "--grid", "5", "--fn", "f2")
    assert code == 0 and err == ""
    code, _, err = run(capsys, "isosurface", "--in", str(spline_path),
                       "--iso", "0.3", "--res", "6",
                       "--out", str(tmp_path / "f2.obj"))
    assert code == 0 and err == ""
    assert convergence.gradient_error("f2", 11, eval_points=5) > 0.0


def test_isosurface_output_errors_come_before_extraction(capsys, tmp_path,
                                                         monkeypatch):
    spline_path = tmp_path / "f2.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "11",
        "--out", str(spline_path))

    def refuse(*args, **kwargs):
        raise AssertionError("extracted before the output was checked")

    monkeypatch.setattr(isosurface, "extract", refuse)
    for extra, message in (
            (["--out", str(tmp_path / "x.stl")],
             "error: unknown mesh format 'stl'"),
            (["--fn", "f2", "--out", str(tmp_path / "x.obj")],
             "error: --fn needs PLY output")):
        code, out, err = run(capsys, "isosurface", "--in", str(spline_path),
                             "--iso", "0.3", *extra)
        assert code == 1 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f2.qis"]


def test_isosurface_takes_a_resolution_per_axis(capsys, tmp_path):
    """``--res`` parses as ``--m`` does: three counts give the mesh of
    ``IsoRequest`` with those counts, and a malformed value fails with one
    line and no mesh."""
    spline_path = tmp_path / "f2.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "11",
        "--out", str(spline_path))
    mesh_path = tmp_path / "f2.ply"
    code, out, err = run(capsys, "isosurface", "--in", str(spline_path),
                         "--iso", "0.3", "--res", "22,13,11",
                         "--out", str(mesh_path))
    assert code == 0 and err == ""
    expected = isosurface.extract(qi.QISpline.load(spline_path),
                                  isosurface.IsoRequest(0.3, (22, 13, 11)))
    assert mesh_path.read_bytes() == isosurface.write_ply(expected)
    assert out.startswith(f"wrote {mesh_path} ({len(expected.vertices)} ")
    code, out, err = run(capsys, "isosurface", "--in", str(spline_path),
                         "--iso", "0.3", "--res", "12,12,x",
                         "--out", str(tmp_path / "x.obj"))
    assert code == 1 and out == ""
    assert err == "error: --res takes integers, got '12,12,x'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f2.ply", "f2.qis"]


def test_approximate_from_raw_volume(capsys, tmp_path, rng):
    from boxqi import volume
    header = volume.VolumeHeader((13, 13, 13))
    samples = rng.integers(0, 256, size=(13, 13, 13)).astype(np.float64)
    volume.save_volume(tmp_path / "scan.raw", header, samples)
    spline_path = tmp_path / "scan.qis"
    code, out, _ = run(capsys, "approximate", "--in",
                       str(tmp_path / "scan.raw"), "--out", str(spline_path))
    assert code == 0
    spline = qi.QISpline.load(spline_path)
    assert spline.grid.m == (11, 11, 11)


def test_approximate_from_npy(capsys, tmp_path, rng):
    npy = tmp_path / "field.npy"
    np.save(npy, rng.normal(size=(13, 13, 13)))
    out_path = tmp_path / "field.qis"
    code, _, _ = run(capsys, "approximate", "--in", str(npy),
                     "--h", "0.5", "--out", str(out_path))
    assert code == 0
    assert qi.QISpline.load(out_path).grid.h == 0.5


def test_truncated_spline_header_is_one_error(capsys, tmp_path):
    path = tmp_path / "short.qis"
    path.write_bytes(qi.QISpline.MAGIC + b"\x01\x00\x00")
    # a whole header claiming m = 100000, then 64 bytes: refused unallocated
    huge = tmp_path / "huge.qis"
    huge.write_bytes(qi.QISpline.MAGIC + struct.pack(
        "<IIIId", 1, 100000, 100000, 100000, 1.0) + bytes(64))
    for argv in (["eval", "--in", str(path), "--grid", "5"],
                 ["isosurface", "--in", str(path), "--iso", "0.3",
                  "--out", str(tmp_path / "x.obj")],
                 ["eval", "--in", str(huge), "--grid", "5"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: spline file truncated")
        assert err.count("\n") == 1


@pytest.mark.parametrize("sidecar", [
    '{"dims": 13}',
    '{"dims": [13, 13, 13], "spacing": 1.0}',
    '{"dims": [[13], 13, 13]}',
    '{"dims": [13, 13, 13], "dtype": ["u8"]}',
    '{"dims": [13.9, 13, 13]}',
    '{"dims": ["13", 13, 13]}',
    '{"dims": [13, 13, 13], "spacing": [1, 1, true]}',
    '{"dims": [13, 13, 13], "spacing": [1, 1, NaN]}',
    '{"dims": [13, 13, 13], "spacing": [1, 1, Infinity]}',
    '{"dims": [13, 13, 13], "spacing": [1, 1, "1"]}',
])
def test_approximate_rejects_malformed_sidecar(capsys, tmp_path, sidecar):
    raw = tmp_path / "scan.raw"
    raw.write_bytes(bytes(13 ** 3))
    (tmp_path / "scan.raw.json").write_text(sidecar)
    code, _, err = run(capsys, "approximate", "--in", str(raw),
                       "--out", str(tmp_path / "scan.qis"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("dtype", [complex, bool, str])
def test_approximate_rejects_npy_that_is_not_real(capsys, tmp_path, dtype):
    npy = tmp_path / "c.npy"
    np.save(npy, np.zeros((13, 13, 13)).astype(dtype))
    out = tmp_path / "c.qis"
    code, _, err = run(capsys, "approximate", "--in", str(npy),
                       "--out", str(out))
    assert code == 1 and not out.exists()
    assert err.startswith("error: samples must be a real integer or "
                          "floating ndarray")
    assert err.count("\n") == 1


def test_approximate_rejects_npy_that_is_not_3d(capsys, tmp_path):
    npy = tmp_path / "flat.npy"
    np.save(npy, np.zeros((13, 13)))
    code, _, err = run(capsys, "approximate", "--in", str(npy),
                       "--out", str(tmp_path / "flat.qis"))
    assert code == 1
    assert err.startswith("error: ") and "3D" in err
    assert err.count("\n") == 1


def test_convergence_csv(capsys):
    code, out, _ = run(capsys, "convergence", "--fn", "f3", "--m", "16",
                       "--grid", "21")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["fn"] == "f3" and row["m"] == "16"
    assert float(row["max_error"]) < 1e-2
    assert row["rf"] == ""


def test_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--in", str(tmp_path / "nope.qis"),
                       "--grid", "5")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(capsys, "approximate", "--fn", "f1",
                       "--out", str(tmp_path / "x.qis"))  # missing --m
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "derive", "--class", "1,2", "--n", "2")
    assert code == 1 and "error:" in err  # malformed class triple
    with pytest.raises(SystemExit):
        cli.main(["unknown-subcommand"])


@pytest.mark.parametrize("argv", [
    ("derive", "--class", "3,3,3", "--n", "2"),
    ("derive", "--class", "3,3,3", "--n", "2", "--format", "csv"),
    ("stencils", "--class", "3,3,3", "--format", "json"),
    ("stencils", "--format", "csv"),
])
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    _, printed, _ = run(capsys, *argv)
    out_path = tmp_path / "result"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    assert out_path.read_text() == printed


@pytest.mark.parametrize("argv", [
    ("derive", "--class", "3,3,3", "--n", "2", "--h", "0.5"),
    ("derive", "--class", "3,3,3", "--n", "2", "--no-tie"),
    ("norm-table", "--class", "3,3,3", "--n", "2", "--h", "0.5"),
    ("norm-table", "--class", "3,3,3", "--n", "2", "--tie"),
])
def test_derivations_take_no_cell_width_or_tie_option(capsys, argv):
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    assert "unrecognized arguments" in capsys.readouterr().err


def test_norm_table_rejects_an_empty_n_range(capsys):
    code, out, err = run(capsys, "norm-table", "--class", "3,3,3",
                         "--n", "8..3")
    assert code == 1 and out == ""
    assert err == "error: --n range '8..3' is empty\n"


@pytest.mark.parametrize("argv, flag, value", [
    (("info", "--m", "x"), "--m", "x"),
    (("derive", "--class", "a,b,c", "--n", "2"), "--class", "a,b,c"),
    (("norm-table", "--class", "3,3,3", "--n", "1..x"), "--n", "1..x"),
    (("convergence", "--fn", "f1", "--m", "16,x"), "--m", "16,x"),
])
def test_a_non_integer_value_names_its_flag(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {flag} takes integers, got {value!r}\n"


def test_derive_rejects_a_class_outside_the_index_set(capsys):
    code, out, err = run(capsys, "derive", "--class", "50,0,0", "--n", "2")
    assert code == 1 and out == ""
    assert err == ("error: alpha (50, 0, 0) not in the index set A of a "
                   "(11, 11, 11) grid\n")


def test_eval_rejects_empty_grid(capsys, tmp_path):
    spline_path = tmp_path / "f2.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "11",
        "--out", str(spline_path))
    code, out, err = run(capsys, "eval", "--in", str(spline_path),
                         "--grid", "0")
    assert code == 1 and out == ""
    assert err == "error: evaluation grid needs n >= 1 points per axis, " \
                  "got 0\n"


def test_eval_grid_streams_its_points(capsys, tmp_path):
    """Memory of ``eval --grid n`` does not grow with the n^3 points."""
    spline_path = tmp_path / "f2.qis"
    run(capsys, "approximate", "--fn", "f2", "--m", "16",
        "--out", str(spline_path))
    run(capsys, "eval", "--in", str(spline_path), "--grid", "3", "--fn",
        "f2")  # build the cached tables outside the trace
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "eval", "--in", str(spline_path),
                           "--grid", "101", "--fn", "f2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["points"] == \
        str(101 ** 3)
    assert peak < 16 << 20


def test_csv_out_files_match_stdout(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "norm-table", "--class", "3,3,3",
                       "--n", "1,2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() != ""
    rows = list(csv.DictReader(out_path.open()))
    assert [r["norm_4sf"] for r in rows] == ["3.5", "1.625"]
