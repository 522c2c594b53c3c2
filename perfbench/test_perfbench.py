"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each check must reject a deliberately wrong result, a reduced-size round of
every workload must complete with no failed operation, and the traced run
must restore every attribute it patched.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from boxqi import isosurface, nearbest, qi  # noqa: E402
from boxqi.geometry import DomainGrid  # noqa: E402

SMALL = {
    "f2-m32": dict(lattice=21, grad_lattice=21, iso_resolution=16,
                   probes_per_batch=2),
    "ct-scan": dict(shape=(24, 24, 16), lattice=9, grad_lattice=5,
                    iso_resolution=8, probes_per_batch=2,
                    reps={"compile": 3}),
    "l1-derive": dict(iso_resolution=8, probes_per_batch=1, reps={}),
}


def small(name):
    w = workloads.WORKLOADS[name]
    cells = workloads.TOKEN_CELLS if name == "l1-derive" else w.cells
    return replace(w, recon=replace(w.recon, **SMALL[name]), cells=cells)


def _spline(ref, m=11):
    grid = DomainGrid(m, m, m, h=1.0 / m)
    return qi.approximate(ref.value(checks.data_lattice(grid.m, grid.h)),
                          grid).compile()


def _perturbed(spline, delta):
    coeffs = spline.coefficients.copy()
    coeffs[7, 7, 7] += delta
    return qi.QISpline(spline.grid, coeffs).compile()


@pytest.fixture(scope="module")
def cubic():
    pts = checks.uniform_lattice((1.0, 1.0, 1.0), 21)
    return checks.Cubic(np.random.default_rng(5), pts), pts


def test_value_and_gradient_checks_reject_a_perturbed_coefficient(cubic):
    ref, pts = cubic
    spline = _spline(ref)
    assert ref.check_values(pts, spline.eval(pts)) is None
    assert ref.check_gradient(pts, spline.gradient(pts)) is None
    wrong = _perturbed(spline, 1e-6)
    assert ref.check_values(pts, wrong.eval(pts)) is not None
    assert ref.check_gradient(pts, wrong.gradient(pts)) is not None


def test_f2_and_scan_checks_reject_a_perturbed_coefficient():
    f2 = checks.F2()
    grid = DomainGrid(32, 32, 32, h=1 / 32)
    spline = qi.approximate(f2.value(checks.data_lattice(grid.m, grid.h)),
                            grid)
    pts = checks.uniform_lattice((1.0, 1.0, 1.0), 35)
    assert f2.check_values(pts, spline.eval(pts, mode="compiled")) is None
    coeffs = spline.coefficients.copy()
    coeffs[17, 9, 9] += 0.1
    wrong = qi.QISpline(grid, coeffs)
    assert f2.check_values(pts, wrong.eval(pts, mode="compiled")) is not None

    ms = (22, 22, 14)
    body = checks.ScanBody(np.random.default_rng(3), ms, 8)
    scan = qi.approximate(body.samples(),
                          DomainGrid(*ms, h=1.0))
    pts = checks.uniform_lattice(ms, 23)
    assert body.check_values(pts, scan.eval(pts)) is None
    assert body.check_gradient(pts, scan.gradient(pts)) is None
    coeffs = scan.coefficients.copy()
    coeffs[8, 8, 8] += 200.0
    wrong = qi.QISpline(scan.grid, coeffs)
    assert body.check_values(pts, wrong.eval(pts)) is not None
    assert body.check_gradient(pts, wrong.gradient(pts)) is not None


def test_mesh_check_rejects_a_shifted_vertex_and_a_fourth_triangle(cubic):
    ref, _ = cubic
    spline = _spline(ref)
    rho = float(ref.value(np.array([0.5, 0.5, 0.5])))
    mesh = isosurface.extract(spline, isosurface.IsoRequest(
        rho, resolution=12, refine=True))
    box = (1.0, 1.0, 1.0)
    assert checks.check_mesh(mesh.vertices, mesh.triangles, ref, rho,
                             box) is None
    shifted = mesh.vertices.copy()
    shifted[0] += 0.01 * ref.grad(shifted[0]) / np.linalg.norm(
        ref.grad(shifted[0]))
    assert checks.check_mesh(shifted, mesh.triangles, ref, rho,
                             box) is not None
    crowded = np.concatenate([mesh.triangles, mesh.triangles[:1],
                              mesh.triangles[:1]])
    assert checks.edge_uses(crowded).max() > 2
    assert checks.check_mesh(mesh.vertices, crowded, ref, rho,
                             box) is not None

    text = isosurface.write_obj(mesh)
    assert checks.check_obj(text, mesh.vertices, mesh.triangles) is None
    moved = mesh.vertices.copy()
    moved[3, 1] = np.nextafter(moved[3, 1], 2.0)
    assert checks.check_obj(text, moved, mesh.triangles) is not None


def test_file_checks_reject_a_changed_byte(tmp_path):
    spline = _spline(checks.Cubic(np.random.default_rng(1),
                                  np.zeros((1, 3))))
    path = tmp_path / "s.qis"
    spline.save(path)
    blob = bytearray(path.read_bytes())
    assert checks.qis_coefficient_bytes(bytes(blob),
                                        spline.coefficients) is None
    blob[-3] ^= 1
    assert checks.qis_coefficient_bytes(bytes(blob),
                                        spline.coefficients) is not None
    samples = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    assert checks.raw_bytes(samples)[:2] == b"\x00\x00"
    assert checks.raw_bytes(samples)[2:4] == b"\x0c\x00"  # x runs fastest


def test_derivation_check_rejects_a_wrong_weight_norm_or_status():
    grid = DomainGrid(11, 11, 11, h=1.0)
    key, n, printed = (0, 0, -1), 4, "127.1"
    sol = nearbest.minimize_l1(nearbest.constraint_system(key, n, grid))
    args = (key, grid.m, printed, sol.status, sol.system.points)
    assert checks.check_derivation(*args, sol.weights, sol.norm) is None
    weights = list(sol.weights)
    weights[0] += Fraction(1, 1000)
    assert checks.check_derivation(*args, weights, sol.norm) is not None
    assert checks.check_derivation(*args, sol.weights,
                                   sol.norm + 1) is not None
    assert checks.check_derivation(key, grid.m, None, sol.status,
                                   sol.system.points, sol.weights,
                                   sol.norm) is not None
    assert checks.rounded_up(Fraction(99999, 10)) == Fraction("10000")
    assert checks.rounded_up(Fraction(44, 9)) == Fraction("4.889")


def test_tie_share_counts_diagonal_planes():
    grid = DomainGrid(32, 32, 32, h=1 / 32)
    pts = checks.uniform_lattice((1.0, 1.0, 1.0), 65)
    assert checks.tie_share(pts, grid.h, grid.m) == 1.0
    rng = np.random.default_rng(0)
    assert checks.tie_share(rng.uniform(size=(1000, 3)), grid.h,
                            grid.m) == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_round_of_each_workload_completes(name, tmp_path):
    rec = workloads.Recorder()
    workloads.run_round(small(name), np.random.default_rng(7), rec, tmp_path)
    assert rec.failures == [] and rec.failed == 0 and rec.attempted > 0
    assert set(rec.values) == {"fit_msamples_per_s", "compile_s",
                               "eval_mpts_per_s", "grad_mpts_per_s",
                               "iso_s", "derive_s"}
    assert len(rec.probe_ms) >= 5


def _attributes():
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _, _ in tracing._targets()]


def test_traced_round_reports_every_layer_and_restores_attributes(tmp_path):
    before = _attributes()
    rec = workloads.Recorder()
    workloads.run_round(small("l1-derive"), np.random.default_rng(1), rec,
                        tmp_path)
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw
                   for owner, attr, raw in before)
        rec = workloads.Recorder(tracer)
        workloads.run_round(small("ct-scan"), np.random.default_rng(1), rec,
                            tmp_path)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)
    assert rec.failed == 0
    metrics = tracing.layer_metrics(tracer, 0, 1)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["geometry.locate_points"] > 0
    assert metrics["simplex.lp_columns"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f2-m32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
