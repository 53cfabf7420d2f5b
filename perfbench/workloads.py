"""Seeded inputs, job runners and output checks for the benchmark workloads.

A workload is an endless sequence of cycles.  Cycle k draws its inputs from
``numpy.random.default_rng([seed, k])``; the slot list of a cycle is fixed,
so every run holds the same mix of sizes and commands and only the physics
(family, parameters, level, coupling, shape, random vectors) changes with
the seed.  The program only ever sees the generated inputs.

Every function of respectra is reached through its module attribute
(``friedrichs.find_pole``, ``perturbation.BiorthogonalSystem.from_exact``),
so the wrappers installed by ``tracing.Tracer`` see the calls.

Tolerances are the ones the package's own tests and ``validate`` use:
pole residual 1e-12; completeness and generator 1e-6 (validate); order-2
kernel completeness 5e-3 (test_completeness_residual_third_order); oracle
survival gap 1e-3 (acceptance criterion 4), 2.5e-3 with a kernel
(test_kernel_dynamics_against_oracle); Liouville normalization 1e-8
(criterion 6); barrier bound-state residual 1e-10 (criterion 8); ``validate``
exits 0 with every check passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from respectra import (barrier, cli, contour, dynamics, friedrichs, model, perturbation,
                       states)

TOL_POLE = 1e-12
TOL_COMPLETE = 1e-6
TOL_KERNEL_COMPLETE = 5e-3
TOL_ORACLE = 1e-3
TOL_ORACLE_KERNEL = 2.5e-3
TOL_LIOUVILLE_NORM = 1e-8
TOL_BOUND_STATE = 1e-10

FAMILIES = ("sqrt_exp", "poly_exp", "lorentz_sqrt")
CLI_ORACLE_N = 1000
CENSUS_ORACLE_N = (2000, 4000)

ACCURACY_KEYS = ("pole_residual_max", "completeness_max", "generator_max",
                 "kernel_completeness_max", "oracle_gap_max", "liouville_norm_defect_max",
                 "validate_value_over_tol_max")


@dataclass
class Job:
    kind: str          # exact, kernel, or the CLI command
    params: dict
    group: str = "workload"   # workload, census or defect (see run.py)

    @property
    def label(self) -> str:
        """The kind, with the node count of library jobs, a ``-kernel``
        suffix for CLI configs whose model has a kernel and the oracle size
        of census configs; jobs outside the workload carry their group as a
        prefix."""
        if "n_nodes" in self.params:
            base = f"{self.kind}-n{self.params['n_nodes']}"
        elif "kernel" in self.params["doc"].get("model", {}):
            base = f"{self.kind}-kernel"
        elif self.group == "census":
            base = f"{self.kind}-oracle{self.params['doc']['grid']['oracle_n']}"
        else:
            base = self.kind
        return base if self.group == "workload" else f"{self.group}-{base}"


@dataclass
class Check:
    """Failure reasons found by checking one job's outputs."""

    reasons: list = field(default_factory=list)

    def require(self, ok, reason):
        if not ok:
            self.reasons.append(reason)


class Accuracy:
    """Worst accuracy figures seen by the checks of one run."""

    def __init__(self):
        self.values = {k: 0.0 for k in ACCURACY_KEYS}

    def update(self, key, value):
        value = float(value)
        if not math.isfinite(value):
            value = sys.float_info.max      # JSON has no inf or nan
        self.values[key] = max(self.values[key], value)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=complex)).tobytes())
    return h.hexdigest()


class _LibraryWorkload:
    # re-running a library job doubles its cost, so only the first cycle
    # (one job per size slot) is re-run for the determinism check
    RERUN_ALL = False

    def reruns(self, job):
        return 1

    def parallel(self, job):
        return False

    def __init__(self, seed, workdir):
        self.seed = seed

    def cleanup(self, job):
        pass


def _model_doc(rng, eps_range, omega_range=(0.8, 1.5), families=FAMILIES):
    family = str(rng.choice(families))
    if family == "lorentz_sqrt":
        params = [float(rng.uniform(1.5, 3.0))]
    else:
        params = [float(rng.uniform(0.8, 1.25))]
    return {"family": family, "params": params,
            "omega": float(rng.uniform(*omega_range)),
            "epsilon": float(rng.uniform(*eps_range))}


def _make_model(doc, n_nodes, shape="rectangle", kernel=None):
    spec = model.default_contour(doc["omega"], n_nodes=n_nodes, shape=shape)
    return model.make_model(doc["family"], doc["params"], doc["omega"], doc["epsilon"],
                            spec, kernel)


# --------------------------------------------------------------------------
# exact: kernel-free library jobs at n = 200 and 800
# --------------------------------------------------------------------------

class ExactWorkload(_LibraryWorkload):
    """build_contour -> find_pole -> from_exact -> survival_curve ->
    reconstruct_inner / reconstruct_H on a seeded random pair."""

    name = "exact"
    # one n = 800 job per seven n = 200 jobs (the n = 800 job costs about
    # five times more): 32 jobs (4 cycles) per 18 s run, the median and the
    # 11th-largest job sit among the n = 200 jobs for anywhere from 2 to 10
    # cycles, and the n = 800 jobs take a third of the time, so they move
    # jobs_per_s
    SLOTS = (800, 200, 200, 200, 200, 200, 200, 200)
    # the single-panel semi-ellipse misses the 1e-6 completeness tolerance
    # at n = 200 for about half of the draws (up to 5e-5); it meets it at
    # n = 800, so n = 200 jobs keep the default rectangle and the failing
    # case is measured by defect_jobs() instead
    SHAPES = {800: ("rectangle", "semi_ellipse"), 200: ("rectangle",)}

    def cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        jobs = []
        for n in self.SLOTS:
            doc = _model_doc(rng, (0.05, 0.12))
            doc.update(n_nodes=n, shape=str(rng.choice(self.SHAPES[n])),
                       vec_seed=int(rng.integers(2**31)))
            jobs.append(Job("exact", doc))
        return jobs

    def run(self, job):
        p = job.params
        m = _make_model(p, p["n_nodes"], p["shape"])
        grid = contour.build_contour(m.contour)
        pole = friedrichs.find_pole(m, grid=grid)
        system = perturbation.BiorthogonalSystem.from_exact(m, grid)
        curve = dynamics.survival_curve(system, dynamics.default_time_grid(m, 200))
        rng = np.random.default_rng(p["vec_seed"])
        psi, phi = states.random_analytic(rng), states.random_analytic(rng)
        inner = system.reconstruct_inner(psi, phi)
        gen = system.reconstruct_H(psi, phi)
        return {"model": m, "pole": pole, "curve": curve, "psi": psi, "phi": phi,
                "inner": inner, "gen": gen}

    def check(self, job, out, acc):
        c = Check()
        m, pole, curve = out["model"], out["pole"], out["curve"]
        rgrid = contour.real_axis_grid(m.contour.cutoff)
        acc.update("pole_residual_max", pole.residual)
        c.require(pole.residual <= TOL_POLE, f"pole residual {pole.residual:.3e} > {TOL_POLE}")
        err = abs(out["inner"] - states.real_axis_inner(out["psi"], out["phi"], rgrid))
        acc.update("completeness_max", err)
        c.require(err <= TOL_COMPLETE, f"completeness {err:.3e} > {TOL_COMPLETE}")
        err = abs(out["gen"] - states.real_axis_inner_H(m, out["psi"], out["phi"], rgrid))
        acc.update("generator_max", err)
        c.require(err <= TOL_COMPLETE, f"generator {err:.3e} > {TOL_COMPLETE}")
        # survival at t = 0 is completeness on the bare level
        err = abs(curve.survival[0] - 1.0)
        acc.update("completeness_max", err)
        c.require(err <= TOL_COMPLETE, f"survival(0) off by {err:.3e}")
        c.require(bool(np.all(np.isfinite(curve.survival)))
                  and float(np.max(curve.survival)) <= 1.0 + TOL_COMPLETE,
                  "survival not finite or above 1")
        return c

    def fingerprint(self, job, out):
        return _digest(out["pole"].lambda_pole, out["curve"].amplitude, out["inner"],
                       out["gen"])


# --------------------------------------------------------------------------
# kernel: separable-kernel jobs, the O(N^3) nested pole_kernel_integral path
# --------------------------------------------------------------------------

class KernelWorkload(_LibraryWorkload):
    """from_perturbation(order=2) -> reconstruct_inner on a random pair ->
    survival_curve, with the separable continuum-continuum kernel."""

    name = "kernel"
    # one size: the O(N^3) cost makes job time steep in n, so with mixed
    # sizes a run with one cycle more or less moves the median and the
    # 11th-largest job from one size to the other.  n = 44 gives ~32 jobs
    # per 18 s run, enough for the 11th-largest job to sit near p65, and
    # ~5.3e4 scalar eval_V2 calls per job
    SLOTS = (44,)

    def cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        jobs = []
        for n in self.SLOTS:
            # the 5e-3 tolerance was set on sqrt_exp at eps = 0.1; the
            # order-2 residual grows like eps^3 (see the README)
            doc = _model_doc(rng, (0.04, 0.08), (0.8, 1.2), families=("sqrt_exp",))
            doc.update(n_nodes=n, vec_seed=int(rng.integers(2**31)))
            jobs.append(Job("kernel", doc))
        return jobs

    def run(self, job):
        p = job.params
        m = _make_model(p, p["n_nodes"], kernel="separable_sqrt_exp")
        system = perturbation.BiorthogonalSystem.from_perturbation(m, 2)
        rng = np.random.default_rng(p["vec_seed"])
        psi, phi = states.random_analytic(rng), states.random_analytic(rng)
        inner = system.reconstruct_inner(psi, phi)
        curve = dynamics.survival_curve(system, dynamics.default_time_grid(m, 200))
        return {"model": m, "curve": curve, "psi": psi, "phi": phi, "inner": inner}

    def check(self, job, out, acc):
        c = Check()
        m, curve = out["model"], out["curve"]
        rgrid = contour.real_axis_grid(m.contour.cutoff)
        err = abs(out["inner"] - states.real_axis_inner(out["psi"], out["phi"], rgrid))
        acc.update("kernel_completeness_max", err)
        c.require(err <= TOL_KERNEL_COMPLETE,
                  f"order-2 completeness {err:.3e} > {TOL_KERNEL_COMPLETE}")
        err = abs(curve.survival[0] - 1.0)
        acc.update("kernel_completeness_max", err)
        c.require(err <= TOL_KERNEL_COMPLETE, f"survival(0) off by {err:.3e}")
        c.require(bool(np.all(np.isfinite(curve.survival))), "survival not finite")
        return c

    def fingerprint(self, job, out):
        return _digest(out["curve"].amplitude, out["inner"])


# --------------------------------------------------------------------------
# known defects: cases that miss a tolerance, measured outside the workloads
# --------------------------------------------------------------------------

def defect_jobs(seed, count):
    """``count`` draws of each known failing case, under the ``defect`` group:
    the semi-ellipse contour at n = 200 (exact jobs) and order-2
    ``lorentz_sqrt`` kernel systems at eps >= 0.09 (kernel jobs).  Their check
    results are measurements, not failures of the run."""
    rng = np.random.default_rng([seed, 10**6 + 1])
    jobs = []
    for _ in range(count):
        doc = _model_doc(rng, (0.05, 0.12))
        doc.update(n_nodes=200, shape="semi_ellipse", vec_seed=int(rng.integers(2**31)))
        jobs.append(Job("exact", doc, "defect"))
    for _ in range(count):
        doc = _model_doc(rng, (0.09, 0.12), (0.8, 1.2), families=("lorentz_sqrt",))
        doc.update(n_nodes=KernelWorkload.SLOTS[0], vec_seed=int(rng.integers(2**31)))
        jobs.append(Job("kernel", doc, "defect"))
    return jobs


# --------------------------------------------------------------------------
# cli: in-process respectra.cli.main runs of all five commands
# --------------------------------------------------------------------------

def _recurrence_horizon(doc, n_nodes, oracle_n, kernel=None):
    """The grid ``horizon`` (in units of 1/rate), capped so the oracle's
    recurrence time 2 pi oracle_n / cutoff stays 25% beyond the last time."""
    m = _make_model(doc, n_nodes, kernel=kernel)
    t_rec = 2.0 * np.pi * oracle_n / m.contour.cutoff
    return float(min(5.0, 0.8 * t_rec * dynamics.decay_rate(m)))


def _evolve_config(rng, kernel, oracle_n):
    if kernel:
        # the kernel tolerance was set on sqrt_exp with a = 1, the kernel's
        # own profile; the order-2 gap grows with a and omega
        doc = _model_doc(rng, (0.06, 0.1), (0.8, 1.2), families=("sqrt_exp",))
        doc["params"] = [1.0]
        n_nodes, kern = 100, "separable_sqrt_exp"
    else:
        doc = _model_doc(rng, (0.08, 0.12))
        n_nodes, kern = 200, None
    horizon = _recurrence_horizon(doc, n_nodes, oracle_n, kern)
    doc["contour"] = {"n_nodes": n_nodes}
    if kern:
        doc["kernel"] = kern
    return {"command": "evolve", "model": doc,
            "grid": {"oracle_n": oracle_n, "t_points": 200, "horizon": horizon}}


def _spectrum_config(rng):
    # n = 300 keeps spectrum jobs clearly slower than liouville jobs
    doc = _model_doc(rng, (0.05, 0.12))
    doc["contour"] = {"n_nodes": 300,
                      "shape": str(rng.choice(("rectangle", "semi_ellipse")))}
    return {"command": "spectrum", "model": doc}


def _liouville_config(rng):
    doc = _model_doc(rng, (0.03, 0.1))
    return {"command": "liouville", "model": doc,
            "grid": {"liouville_n": 100, "t_points": 200}}


def _barrier_config(rng):
    return {"command": "barrier",
            "barrier": {"a": float(rng.uniform(0.7, 0.9)), "b": float(rng.uniform(9.0, 11.0)),
                        "v0": float(rng.uniform(0.24, 0.26)),
                        "v1": float(rng.uniform(0.085, 0.1))},
            "grid": {"sweep_points": 9}}


def _validate_config(rng):
    doc = _model_doc(rng, (0.06, 0.12))
    doc["contour"] = {"n_nodes": 200}
    return {"command": "validate", "model": doc, "seed": int(rng.integers(2**31))}


def _csv_rows(path):
    """Data rows of an artifact CSV (after the hash line and the header)."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


class CliWorkload:
    """All five commands through ``respectra.cli.main``; each config is run
    again into the same cleared output directory (outside the job's time) and
    the artifact bytes are compared."""

    name = "cli"
    RERUN_ALL = True
    # 13 configs: 2 barrier and 2 liouville (fastest), 4 spectrum, 1 evolve
    # with the kernel, 3 kernel-free evolve, 1 validate (slowest).  The
    # median (rank 6.5 of 13 per cycle) falls among the spectrum jobs (ranks
    # 4-8) and, with 3 to 6 cycles, the 11th-largest job among the
    # kernel-free evolve jobs (ranks 10-12), which take longer than the
    # kernel one
    SLOTS = ("evolve", "spectrum", "barrier", "evolve", "liouville", "spectrum",
             "evolve_kernel", "barrier", "spectrum", "liouville", "validate", "evolve",
             "spectrum")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self._next = 0

    def _job(self, cfg, group="workload"):
        self._next += 1
        ident = self._next
        cfg = dict(cfg, output_dir=str(self.workdir / f"out-{ident}"))
        path = self.workdir / f"cfg-{ident}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return Job(cfg["command"], {"config": str(path), "doc": cfg}, group)

    def _draw(self, rng, slot, oracle_n=CLI_ORACLE_N):
        if slot == "evolve":
            return _evolve_config(rng, False, oracle_n)
        if slot == "evolve_kernel":
            return _evolve_config(rng, True, oracle_n)
        if slot == "spectrum":
            return _spectrum_config(rng)
        if slot == "liouville":
            return _liouville_config(rng)
        if slot == "barrier":
            return _barrier_config(rng)
        return _validate_config(rng)

    def cycle(self, k):
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, k])
        return [self._job(self._draw(rng, slot)) for slot in self.SLOTS]

    def census(self, oracle_sizes):
        """One kernel-free evolve config per given oracle size: the ROADMAP
        item-1 oracle sizes, too slow for the workload's own mix."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 10**6])
        return [self._job(_evolve_config(rng, False, n), "census") for n in oracle_sizes]

    def run(self, job):
        out = Path(job.params["doc"]["output_dir"])
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["--config", job.params["config"]])
        return {"code": code, "messages": sink.getvalue()}

    def fingerprint(self, job, out):
        """sha256 over the names and bytes of every artifact the run wrote."""
        h = hashlib.sha256()
        root = Path(job.params["doc"]["output_dir"])
        for p in sorted(root.iterdir()) if root.is_dir() else ():
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    def check(self, job, out, acc):
        c = Check()
        doc = job.params["doc"]
        c.require(out["code"] == 0,
                  f"exit code {out['code']}: {out['messages'].strip()[-300:]}")
        if out["code"] == 0:
            try:
                getattr(self, f"_check_{job.kind}")(doc, Path(doc["output_dir"]), c, acc)
            except (OSError, ValueError, KeyError, IndexError) as e:
                c.reasons.append(f"unreadable artifacts: {e!r}")
        return c

    def parallel(self, job):
        """Whether the job's time is mostly multi-threaded: the oracle's dense
        eigh in evolve, validate's thread pool (which runs an oracle too).
        Such jobs are scaled by run.parallel_probe()."""
        return job.kind in ("evolve", "validate")

    def reruns(self, job):
        # validate's worker threads share one random generator; whether two
        # runs draw in a different order depends on timing jitter (1 in 10
        # re-runs on a quiet two-core VM), so its configs get three re-runs
        return 3 if job.kind == "validate" else 1

    def cleanup(self, job):
        shutil.rmtree(job.params["doc"]["output_dir"], ignore_errors=True)
        Path(job.params["config"]).unlink(missing_ok=True)

    # -- per-command checks ----------------------------------------------------
    def _check_spectrum(self, doc, out, c, acc):
        spec = json.loads((out / "spectrum.json").read_text())
        system = json.loads((out / "system.json").read_text())
        n_nodes = doc["model"]["contour"]["n_nodes"]
        c.require(system["n_nodes"] == n_nodes and len(system["cont_right_d_re"]) == n_nodes,
                  "system.json does not hold one coefficient per node")
        c.require(spec["lambda_pert2"][1] < 0, "second-order width has the wrong sign")
        acc.update("pole_residual_max", spec["residual"])
        c.require(spec["residual"] <= TOL_POLE,
                  f"pole residual {spec['residual']:.3e} > {TOL_POLE}")

    def _check_evolve(self, doc, out, c, acc):
        rows = _csv_rows(out / "evolve.csv")
        data = np.array(rows, dtype=float)
        c.require(len(rows) == doc["grid"]["t_points"], "evolve.csv row count")
        gap = float(np.max(np.abs(data[:, 1] - data[:, 2])))
        tol = TOL_ORACLE_KERNEL if "kernel" in doc["model"] else TOL_ORACLE
        acc.update("oracle_gap_max", gap)
        c.require(gap <= tol, f"spectral vs oracle survival gap {gap:.3e} > {tol}")

    def _check_liouville(self, doc, out, c, acc):
        rows = _csv_rows(out / "liouville_trajectory.csv")
        norm = np.array([r[3] for r in rows], dtype=float)
        defect = float(np.max(np.abs(norm - 1.0)))
        acc.update("liouville_norm_defect_max", defect)
        c.require(defect <= TOL_LIOUVILLE_NORM,
                  f"probability defect {defect:.3e} > {TOL_LIOUVILLE_NORM}")
        cloud = _csv_rows(out / "liouville_eigenvalues.csv")
        c.require({r[0] for r in cloud} == {"decay", "invariant", "u1", "1u", "uu"},
                  "eigenvalue cloud misses a branch")

    def _check_barrier(self, doc, out, c, acc):
        payload = json.loads((out / "barrier.json").read_text())
        sweep = _csv_rows(out / "barrier_sweep.csv")
        c.require(len(sweep) == doc["grid"]["sweep_points"], "barrier_sweep.csv row count")
        # the sweep starts at the config's own barrier length
        first = float(sweep[0][2])
        c.require(payload["width"] > 0 and abs(first - payload["width"]) <= 1e-12 * first,
                  f"width {payload['width']} vs first sweep row {first}")
        b = doc["barrier"]
        spec = barrier.BarrierSpec(a=b["a"], b=b["b"], v0=b["v0"], v1=b["v1"])
        resid = barrier.bound_state_residual(spec, barrier.solve_bound_state(spec))
        c.require(resid <= TOL_BOUND_STATE, f"bound-state residual {resid:.3e}")

    def _check_validate(self, doc, out, c, acc):
        rows = _csv_rows(out / "validate.csv")
        c.require(len(rows) == 24, f"validate.csv has {len(rows)} checks, expected 24")
        worst = 0.0
        for name, passed, value, tol in rows:
            value, tol = float(value), float(tol)
            c.require(passed == "1", f"validate check {name} failed")
            worst = max(worst, value / tol if tol > 0 else (0.0 if value == 0 else math.inf))
        acc.update("validate_value_over_tol_max", worst)


WORKLOADS = {w.name: w for w in (ExactWorkload, KernelWorkload, CliWorkload)}
