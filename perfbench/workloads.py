"""The workloads: one round of user-facing boxqi operations on seeded inputs.

Every workload runs the same round: fit, compile, evaluate a lattice, take
the gradient on a lattice, extract and write an isosurface, probe a freshly
loaded spline with small closed-loop ``eval`` calls, and derive near-best
functionals.  The workloads differ in what they feed it, which is what
makes different layers dominate:

* ``f2-m32``: the paper's f2 at m = 32 with the reconstruction study
  (values and gradients on the 139^3 error lattice's pattern, a refined
  isosurface), and a token derivation;
* ``ct-scan``: a synthetic 256 x 256 x 99 u16 scan through the raw-file
  path, streamed evaluation, an unrefined isosurface, a token gradient
  lattice and a token derivation;
* ``l1-derive``: the paper's printed norm-table cells, with a token
  reconstruction of a cubic on the canonical m = 11 grid.

The token parts exist so that every workload reports every end-to-end
metric; they are sized to stay a small share of the round.  The machine's
speed changes in phases of a few seconds, so probe calls and short token
steps run in small batches at slots spread over the round, and each metric
is the mean of all its samples in the run.
Repetition counts are fixed, so every round attempts the same operations.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from checks import (F2, Cubic, ScanBody, check_derivation, check_mesh,
                    check_obj, data_lattice, qis_coefficient_bytes, raw_bytes,
                    uniform_lattice)

#: the derivation grid of the paper's tables
CANONICAL_M = (11, 11, 11)

#: criterion 05: nine printed cells and three infeasible radii
TABLE_CELLS = (
    ((0, 0, -1), 4, "127.1"), ((0, 0, -1), 5, "55.27"),
    ((0, 0, -1), 6, "29.28"), ((0, 0, -1), 7, "20.13"),
    ((0, 0, -1), 8, "15.37"),
    ((1, 1, 1), 2, "4.5"), ((2, 2, 2), 1, "3.5"),
    ((3, 3, 3), 2, "1.625"), ((3, 0, 0), 3, "9.945"),
    ((0, 0, -1), 1, None), ((0, 0, -1), 2, None), ((0, 0, -1), 3, None),
)

#: the token derivation: three small printed cells, the one that sets the
#: operator-norm bound among them
TOKEN_CELLS = (((3, 0, 0), 3, "9.945"), ((1, 1, 1), 2, "4.5"),
               ((3, 3, 3), 2, "1.625"))

_BUDGET = 1 << 30            # the documented default compile budget
_PATCH_BYTES = 24 * 35 * 8   # dense Bernstein patches per cube
PROBE_POINTS = 32            # points per probe call: a few dozen


@dataclass(frozen=True)
class Reconstruction:
    source: str                 # "f2", "cubic" or "scan"
    shape: tuple                # cells per axis, or voxels for "scan"
    lattice: int                # points per axis for eval
    grad_lattice: int           # points per axis for gradient
    iso_resolution: int
    refine: bool
    probes_per_batch: int
    iso_value: float | None = None  # None: the field's value at the centre
    reps: dict = field(default_factory=dict)  # op -> repetitions per round


@dataclass(frozen=True)
class Workload:
    name: str
    recon: Reconstruction
    cells: tuple
    #: short token steps, run at the slots between the other steps instead
    #: of once per round: each slot runs a probe batch and the next group
    slot_steps: tuple
    cubic_check: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("f2-m32",
             Reconstruction("f2", (32, 32, 32), lattice=70, grad_lattice=70,
                            iso_resolution=32, refine=True, iso_value=0.3,
                            probes_per_batch=7, reps={"fit": 3, "compile": 3}),
             TOKEN_CELLS, slot_steps=(("derive",),), cubic_check=True),
    Workload("ct-scan",
             Reconstruction("scan", (256, 256, 99), lattice=71,
                            grad_lattice=25, iso_resolution=48, refine=False,
                            iso_value=26000.0, probes_per_batch=13,
                            reps={"compile": 200}),
             TOKEN_CELLS, slot_steps=(("derive", "compile", "gradient"),)),
    Workload("l1-derive",
             Reconstruction("cubic", CANONICAL_M, lattice=21, grad_lattice=21,
                            iso_resolution=16, refine=True,
                            probes_per_batch=3,
                            reps={"compile": 3, "eval": 3, "gradient": 2}),
             TABLE_CELLS, slot_steps=(("fit",), ("compile",), ("eval",),
                                      ("gradient",), ("iso",))),
)}


class Missing(RuntimeError):
    """An operation's input was not produced, because an earlier one raised."""


def need(value):
    if value is None:
        raise Missing("input missing after an earlier failure")
    return value


class Recorder:
    """Counts operations, records their times, and runs their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict[str, list[float]] = {}
        self.probe_calls = 0
        self.probe_ms: list[float] = []

    def quiet(self):
        """Program calls made by checks are kept out of the trace."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def op(self, label, fn, check=None, traced=True):
        """Run one operation; (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with nullcontext() if traced else self.quiet():
                result = fn()
        except Exception:  # the run goes on and reports the failure
            self._fail(label, traceback.format_exc(limit=4))
            return None, None
        seconds = time.perf_counter() - start
        if check is not None:
            with self.quiet():
                problem = check(result)
            if problem:
                self._fail(label, problem)
        return result, seconds

    def repeat(self, label, reps, fn, check):
        """``reps`` operations; returns the last result and the median time."""
        result, times = None, []
        for _ in range(reps):
            result, seconds = self.op(label, fn, check)
            if seconds is not None:
                times.append(seconds)
        return result, (median(times) if times else None)

    def sample(self, metric, value):
        if value is not None:
            self.values.setdefault(metric, []).append(value)

    def _fail(self, label, problem):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {problem}")


def run_round(workload: Workload, rng, rec: Recorder, workdir) -> None:
    r = ReconstructionRound(workload.recon, rng, rec, workdir)
    r.fit()
    r.reload()
    steps = {"fit": r.fit, "compile": r.compile, "eval": r.eval,
             "gradient": r.gradient, "iso": r.iso,
             "derive": lambda: derive_pass(workload.cells, rng, rec)}
    groups = itertools.cycle(workload.slot_steps)
    in_slots = {name for group in workload.slot_steps for name in group}

    def slot():
        r.probe()
        for name in next(groups):
            steps[name]()

    if "compile" in in_slots:
        slot()
    for name in ("compile", "eval", "gradient", "iso"):
        if name not in in_slots:
            steps[name]()
            slot()
    if workload.cubic_check:
        cubic_reproduction(workload.recon, rng, rec)
    if "derive" not in in_slots:
        derive_pass(workload.cells, rng, rec, between=slot)
    slot()


def _domain(spec: Reconstruction):
    if spec.source == "scan":
        ms = tuple(n - 2 for n in spec.shape)   # h = 1, index units
        return ms, 1.0
    return spec.shape, 1.0 / spec.shape[0]      # the unit cube


class ReconstructionRound:
    """Seeded inputs of one round, and its steps as methods."""

    def __init__(self, spec: Reconstruction, rng, rec: Recorder, workdir):
        from boxqi import volume
        from boxqi.geometry import DomainGrid

        self.spec, self.rng, self.rec = spec, rng, rec
        self.ms, h = _domain(spec)
        self.grid = DomainGrid(*self.ms, h=h)
        self.extent = np.array(self.ms) * h
        self.lattice = uniform_lattice(self.extent, spec.lattice)
        self.glattice = uniform_lattice(self.extent, spec.grad_lattice)
        self.obj = workdir / "mesh.obj"
        self.qis = workdir / "spline.qis"
        self.raw = workdir / "scan.raw"
        self.spline = self.compiled = self.fresh = None

        if spec.source == "f2":
            self.ref = F2()
        elif spec.source == "cubic":
            self.ref = Cubic(rng, self.lattice)
        else:
            self.ref = ScanBody(rng, self.ms, spec.iso_resolution)
        self.rho = (spec.iso_value if spec.iso_value is not None
                    else float(self.ref.value(self.extent / 2.0)))

        if spec.source == "scan":
            samples = self.ref.samples()
            header = volume.VolumeHeader(spec.shape, dtype="u16")
            rec.op("volume.save_volume",
                   lambda: volume.save_volume(self.raw, header, samples),
                   lambda _: None
                   if self.raw.read_bytes() == raw_bytes(samples)
                   else "raw: file bytes differ from the u16 encoding")
        else:
            samples = self.ref.value(data_lattice(self.ms, h))
        self.samples = samples

    def fit(self):
        """Samples to coefficients; for the scan, raw file to .qis."""
        from boxqi import qi, volume

        rec, samples = self.rec, self.samples
        if self.spec.source == "scan":
            def fit():
                loaded, vgrid, _ = volume.load_volume(self.raw)
                spline = qi.approximate(loaded, vgrid)
                spline.save(self.qis)
                return loaded, spline

            def check(result):
                if not np.array_equal(result[0], samples):
                    return "raw: loaded samples differ from those written"
                return qis_coefficient_bytes(self.qis.read_bytes(),
                                             result[1].coefficients)

            result, seconds = rec.repeat("fit", self.spec.reps.get("fit", 1),
                                         fit, check)
            self.spline = result[1] if result else None
        else:
            self.spline, seconds = rec.repeat(
                "fit", self.spec.reps.get("fit", 1),
                lambda: qi.approximate(samples, self.grid),
                lambda s: None if np.isfinite(s.coefficients).all()
                else "fit: non-finite coefficients")
        rec.sample("fit_msamples_per_s",
                   samples.size / seconds / 1e6 if seconds else None)

    def reload(self):
        """The spline the probes use, saved (the scan's fit saves it) and
        loaded back."""
        from boxqi import qi

        spline = self.spline
        if self.spec.source != "scan":
            self.rec.op("save", lambda: need(spline).save(self.qis),
                        lambda _: qis_coefficient_bytes(
                            self.qis.read_bytes(), spline.coefficients))

        def check(loaded):
            if loaded.grid != self.grid or not np.array_equal(
                    loaded.coefficients, need(spline).coefficients):
                return ".qis: reloaded spline differs from the one saved"
            return None

        self.fresh, _ = self.rec.op(
            "load", lambda: qi.QISpline.load(self.qis), check)

    def compile(self):
        self.compiled, seconds = self.rec.repeat(
            "compile", self.spec.reps.get("compile", 1),
            lambda: need(self.spline).compile(), self._check_compiled)
        self.rec.sample("compile_s", seconds)

    def _check_compiled(self, compiled):
        ms, plan = self.ms, compiled.compiled
        if math.prod(ms) * _PATCH_BYTES <= _BUDGET:
            if plan.mode != "dense" or plan.patches.shape != (*ms, 24, 35):
                return f"compile: expected dense patches, got {plan.mode}"
        elif plan.mode != "streamed" or \
                ms[1] * ms[2] * plan.slab_rows * _PATCH_BYTES > _BUDGET:
            return "compile: streamed plan exceeds the 1 GiB budget"
        return None

    def eval(self):
        _, seconds = self.rec.repeat(
            "eval", self.spec.reps.get("eval", 1),
            lambda: need(self.compiled).eval(self.lattice),
            lambda v: self.ref.check_values(self.lattice, v))
        self.rec.sample("eval_mpts_per_s", len(self.lattice) / seconds / 1e6
                        if seconds else None)

    def gradient(self):
        def check(grads):
            problem = self.ref.check_gradient(self.glattice, grads)
            if problem is None and self.spec.source == "f2":
                problem = self._finite_difference_check(grads)
            return problem

        _, seconds = self.rec.repeat(
            "gradient", self.spec.reps.get("gradient", 1),
            lambda: need(self.compiled).gradient(self.glattice), check)
        self.rec.sample("grad_mpts_per_s", len(self.glattice) / seconds / 1e6
                        if seconds else None)

    def _finite_difference_check(self, grads):
        """The gradient is the derivative of the spline's own values."""
        delta = 1e-5 * self.grid.h
        inner = np.all((self.glattice > delta)
                       & (self.glattice < self.extent - delta), axis=1)
        pick = self.rng.choice(np.nonzero(inner)[0], size=512, replace=False)
        p = self.glattice[pick]
        fd = np.stack([(self.compiled.eval(p + delta * e)
                        - self.compiled.eval(p - delta * e)) / (2 * delta)
                       for e in np.eye(3)], axis=-1)
        worst = float(np.abs(fd - grads[pick]).max())
        if not worst <= 1e-6:
            return f"gradient: differs from central differences by {worst:.2e}"
        return None

    def iso(self):
        from boxqi import isosurface

        def run():
            mesh = isosurface.extract(need(self.compiled), isosurface.IsoRequest(
                self.rho, resolution=self.spec.iso_resolution,
                refine=self.spec.refine))
            isosurface.write_mesh(mesh, self.obj)
            return mesh

        _, seconds = self.rec.repeat(
            "iso", self.spec.reps.get("iso", 1), run,
            lambda mesh: check_mesh(mesh.vertices, mesh.triangles, self.ref,
                                    self.rho, self.extent)
            or check_obj(self.obj.read_text(), mesh.vertices,
                         mesh.triangles))
        self.rec.sample("iso_s", seconds)

    def probe(self):
        """A batch of small closed-loop ``eval`` calls on the reloaded spline."""
        for _ in range(self.spec.probes_per_batch):
            pts = self.rng.uniform(0.0, 1.0, size=(PROBE_POINTS, 3))
            pts *= self.extent
            compare = self.rec.probe_calls % 10 == 0
            self.rec.probe_calls += 1

            def check(values, pts=pts, compare=compare):
                problem = self.ref.check_values(pts, values)
                if problem is None and compare:
                    other = self.fresh.eval(pts, mode="compiled")
                    scale = np.abs(values).max()
                    if not np.abs(other - values).max() <= 1e-7 * scale:
                        problem = "probe: direct and compiled modes disagree"
                return problem

            _, seconds = self.rec.op(
                "probe", lambda pts=pts: need(self.fresh).eval(pts), check)
            if seconds is not None:
                self.rec.probe_ms.append(seconds * 1e3)


def cubic_reproduction(spec: Reconstruction, rng, rec: Recorder):
    """A seeded cubic on the workload's grid, dense patches, values and
    gradients at random points and on the diagonal tie planes x = y."""
    from boxqi import qi
    from boxqi.geometry import DomainGrid

    ms, h = _domain(spec)
    grid = DomainGrid(*ms, h=h)
    pts = rng.uniform(0.0, 1.0, size=(4096, 3)) * np.array(ms) * h
    pts[2048:, 1] = pts[2048:, 0]
    cubic = Cubic(rng, pts)
    samples = cubic.value(data_lattice(ms, h))

    def run():
        spline = qi.approximate(samples, grid).compile("dense")
        return spline.eval(pts), spline.gradient(pts)

    rec.op("cubic reproduction", run,
           lambda r: cubic.check_values(pts, r[0])
           or cubic.check_gradient(pts, r[1]), traced=False)


def derive_pass(cells, rng, rec: Recorder, between=None):
    """Every cell once, in a seeded order; ``between`` runs after each."""
    from boxqi import nearbest
    from boxqi.geometry import DomainGrid

    grid = DomainGrid(*CANONICAL_M, h=1.0)
    cells = list(cells)
    rng.shuffle(cells)
    total = 0.0
    for key, n, printed in cells:
        def check(sol, key=key, printed=printed):
            return check_derivation(key, CANONICAL_M, printed, sol.status,
                                    sol.system.points, sol.weights, sol.norm)
        _, seconds = rec.op(
            f"derive {key} n={n}",
            lambda key=key, n=n: nearbest.minimize_l1(
                nearbest.constraint_system(key, n, grid)), check)
        total += seconds or 0.0
        if between is not None:
            between()
    rec.sample("derive_s", total)
