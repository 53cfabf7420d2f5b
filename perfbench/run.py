#!/usr/bin/env python3
"""Benchmark of respectra, run against the checkout's ``src/``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact|kernel|cli --seed N --seconds S --trace 0|1

One process, one closed-loop client: each job starts when the previous job
and its checks are done.  The run repeats complete cycles of its workload
(see ``workloads.py``) until ``--seconds`` of jobs and checks have run at the
nominal machine speed (see ``speed_probe``), checks every output,
and prints a human-readable report followed, as the last line of standard
output, by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
installs the span tracer of ``tracing.py`` and reports the per-layer metrics
instead.  ``--smoke`` runs one cycle with one set-up probe pair and one
draw of each known defect, for the benchmark's own tests.  Run details
(environment, failures, spans) are written under ``.bench_out/`` in the
checkout.

Exit codes: 0 when the run completed (even if some checks failed: those are
counted in ``failed``), 2 when the program under test cannot be imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PAIRS = 6
TAIL_BEYOND = 10
DEFECT_DRAWS = 6
WALL_CAP = 1.3
# wall times of speed_probe() and parallel_probe() at the nominal machine
# speed: the two-core VM the benchmark was built on, in its faster state
REFERENCE_S = 0.005
REFERENCE_PARALLEL_S = 0.030
# the set-up reference task: a fresh interpreter importing the third-party
# modules respectra imports, and its wall time at the nominal machine speed
REFERENCE_IMPORT = "import numpy, scipy.optimize, scipy.special; print('ready', flush=True)"
REFERENCE_IMPORT_S = 0.6
CLI_COMMANDS = ("spectrum", "evolve", "liouville", "barrier", "validate")
workloads = None     # imported by main() once src/ is on sys.path


def _import_program():
    """Import respectra from the checkout's src/ and nowhere else."""
    pkg = SRC / "respectra"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from the root of a respectra checkout")
    sys.path.insert(0, str(SRC))
    try:
        import respectra
    except ImportError as e:
        sys.exit(f"perfbench: cannot import respectra from {SRC}: {e}")
    if Path(respectra.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: respectra imported from {respectra.__file__}, not {pkg}")


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def _blas_threads():
    """Thread count of each OpenBLAS loaded into this process."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def _environment(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "respectra_threads_env": os.environ.get("RESPECTRA_THREADS"),
    }


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

def speed_probe():
    """Wall time of a fixed task of the same kind as most jobs (a Python loop
    over small complex numpy arrays), taken around every job that runs on
    one core.  Its ratio to REFERENCE_S is the machine's slowdown at that
    moment: on a shared VM it swings by up to 2x within minutes, and the
    job's time is divided by it (the raw wall times are in the notes)."""
    import numpy as np
    z = np.linspace(0.1, 20.0, 200) - 0.3j
    t0 = time.perf_counter()
    acc = 0j
    for i in range(150):
        v = np.sqrt(z) * np.exp(-0.5 * z * (1.0 + i / 600.0))
        acc += complex(np.sum(v / (z[i % 200] + 0.01 - z)))
        acc += sum(complex(x) for x in v[:20])
    return time.perf_counter() - t0


def parallel_probe():
    """Wall time of a dense Hermitian eigendecomposition (n = 300) on the
    default BLAS threads, taken around every job whose time is mostly
    multi-threaded (see ``parallel`` in workloads.py), with REFERENCE_PARALLEL_S
    as its nominal time: such jobs keep both cores busy and follow the load
    on both, which the one-core speed_probe() does not see."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a += a.conj().T
    t0 = time.perf_counter()
    np.linalg.eigh(a)
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# set-up time: fresh interpreters up to the first job being ready
# --------------------------------------------------------------------------

def _probe(args):
    """Child side of a set-up probe: import, generate the first cycle, report."""
    _import_program()
    import workloads
    workdir = OUT / f"probe-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.cycle(0)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def _ready_seconds(cmd):
    """Wall time from starting ``cmd`` to its line ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe {cmd[1:]} failed (exit {code})")
    return t1 - t0


def _setup_seconds(args, pairs):
    """Set-up time at the nominal machine speed, and its raw wall time.

    ``pairs`` times, a set-up probe and the reference import run back to
    back, in alternating order (this process has already imported everything
    once, so the files are in the page cache).  The median over the pairs of probe time / reference time, scaled by
    REFERENCE_IMPORT_S, is the set-up time.  Start-up is loader and import
    work (plus a little input generation), which the
    job-shaped speed_probe() tracks poorly, so the reference is an import
    too; it holds only modules respectra does not own, so a change to
    respectra's own set-up moves the probe and not the reference."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", REFERENCE_IMPORT]
    probes, refs = [], []
    for i in range(pairs):
        for cmd in (probe, reference) if i % 2 == 0 else (reference, probe):
            (probes if cmd is probe else refs).append(_ready_seconds(cmd))
    ratio = statistics.median(p / r for p, r in zip(probes, refs))
    return ratio * REFERENCE_IMPORT_S, statistics.median(probes)


# --------------------------------------------------------------------------
# the measured loop
# --------------------------------------------------------------------------

@dataclass
class Record:
    job: object
    wall_s: float
    slowdown: float      # probe time / its reference time around the job
    reasons: list        # failure reasons; empty when every check passed
    check_wall_s: float = 0.0

    @property
    def seconds(self):
        """Job time at the nominal machine speed."""
        return self.wall_s / self.slowdown


class Runner:
    """Runs jobs and keeps one Record per job: ``records`` for the
    workload's own jobs, ``census`` and ``defects`` for the traced run's
    extra jobs (see main), each group with its own accuracy figures."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.acc = workloads.Accuracy()
        self.records = []
        self.census, self.census_acc = [], workloads.Accuracy()
        self.defects, self.defect_acc = [], workloads.Accuracy()
        self.check_s = 0.0       # checks of the workload's own jobs
        self.reruns = 0
        self.rerun_mismatch = 0

    def _timed(self, wl, job):
        t0 = time.perf_counter()
        if self.tracer is None:
            out = wl.run(job)
        else:
            with self.tracer.job_span(job.label):
                out = wl.run(job)
        return out, time.perf_counter() - t0

    def do(self, wl, job, acc, rerun=False):
        probe, reference = ((parallel_probe, REFERENCE_PARALLEL_S) if wl.parallel(job)
                            else (speed_probe, REFERENCE_S))
        before = probe()
        t0 = time.perf_counter()
        try:
            out, dt = self._timed(wl, job)
        except Exception as e:   # a raising job is a failed job, timed like the rest
            dt = time.perf_counter() - t0
            slowdown = (before + probe()) / (2 * reference)
            wl.cleanup(job)
            return Record(job, dt, slowdown, [f"raised {type(e).__name__}: {e}"])
        slowdown = (before + probe()) / (2 * reference)
        t0 = time.perf_counter()
        try:
            reasons = wl.check(job, out, acc).reasons
            if rerun:
                first = wl.fingerprint(job, out)
                self.reruns += 1
                self.rerun_mismatch += any(wl.fingerprint(job, wl.run(job)) != first
                                           for _ in range(wl.reruns(job)))
        except Exception as e:
            reasons = [f"check raised {type(e).__name__}: {e}"]
        wl.cleanup(job)
        return Record(job, dt, slowdown, reasons, time.perf_counter() - t0)

    def loop(self, seconds, max_cycles=None):
        """Complete cycles until ``seconds`` of jobs and checks have run, counted
        at the nominal machine speed, so that the number of cycles depends on
        the program and not on how busy the machine was; on a machine more
        than WALL_CAP times slower, until WALL_CAP * ``seconds`` of wall time
        have passed, so that a run's length stays bounded."""
        start = time.perf_counter()
        k = 0
        while True:
            for job in self.wl.cycle(k):
                rec = self.do(self.wl, job, self.acc, self.wl.RERUN_ALL or k == 0)
                self.check_s += rec.check_wall_s
                self.records.append(rec)
            k += 1
            spent = sum((rec.wall_s + rec.check_wall_s) / rec.slowdown for rec in self.records)
            if (spent >= seconds or time.perf_counter() - start >= WALL_CAP * seconds
                    or (max_cycles and k >= max_cycles)):
                return k

    def run_census(self, census_wl, oracle_sizes):
        for job in census_wl.census(oracle_sizes):
            self.census.append(self.do(census_wl, job, self.census_acc))

    def run_defects(self, seed, draws, workdir):
        library = {name: workloads.WORKLOADS[name](seed, workdir) for name in ("exact", "kernel")}
        for job in workloads.defect_jobs(seed, draws):
            self.defects.append(self.do(library[job.kind], job, self.defect_acc))

    def overhead_pairs(self, n_jobs=4):
        """Traced / untraced time of the workload's first jobs, each run both
        ways in alternating order."""
        totals = {True: 0.0, False: 0.0}
        first = itertools.chain.from_iterable(map(self.wl.cycle, itertools.count()))
        jobs = list(itertools.islice(first, n_jobs))
        self.tracer.uninstall()
        self._timed(self.wl, jobs[0])     # warm-up: first-call costs are not tracing
        for i, job in enumerate(jobs):
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
                totals[traced] += self._timed(self.wl, job)[1]
        # only now: cleanup removes a CLI job's config file
        for job in jobs:
            self.wl.cleanup(job)
        self.tracer.install()
        self.tracer.stats.clear()
        self.tracer.spans.clear()
        return totals[True] / totals[False] - 1.0


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _tail(times):
    """Time at the highest percentile with at least TAIL_BEYOND jobs beyond it
    (the 11th-largest job), that percentile, and the sample count."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(runner, setup_s):
    times = [rec.seconds for rec in runner.records]
    walls = [rec.wall_s for rec in runner.records]
    failed = sum(1 for rec in runner.records if rec.reasons)
    attempted = len(runner.records)
    tail, pct, count = _tail(times)
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "artifact_match_share": (1.0 - runner.rerun_mismatch / max(1, runner.reruns), "share"),
    }
    notes = {"job_s_tail_percentile": pct, "job_s_tail_samples": count,
             "artifact_reruns": runner.reruns, "artifact_mismatches": runner.rerun_mismatch,
             "wall_job_s_p50": statistics.median(walls), "wall_job_s_tail": _tail(walls)[0],
             "wall_jobs_per_s": len(walls) / sum(walls),
             "slowdown_p50": statistics.median(rec.slowdown for rec in runner.records)}
    return metrics, notes


LAYER_FUNCTIONS = [
    ("contour.build_contour", ("calls", "self_s")),
    ("contour.pole_kernel_integral", ("calls", "self_s")),
    ("friedrichs.find_pole", ("calls", "self_s")),
    ("friedrichs.exact_system", ("self_s",)),
    ("perturbation.from_exact", ("self_s",)),
    ("perturbation.from_perturbation", ("self_s",)),
    ("perturbation.overlap_tables", ("calls", "self_s")),
    ("perturbation.pair_coeffs", ("calls",)),
    ("model.eval_V2", ("calls", "self_s")),
    ("dynamics.survival_curve", ("self_s",)),
    ("dynamics.oracle_survival_curve", ("self_s",)),
    ("oracle.discretize", ("calls", "self_s")),
    ("liouville.LiouvilleSystem", ("self_s",)),
    ("liouville.evolve_state", ("calls", "self_s")),
    ("liouville.GeneralizedState.expect", ("self_s",)),
    ("barrier.resonance_width", ("self_s",)),
    ("barrier.width_sweep", ("self_s",)),
    ("cli.main", ("self_s",)),
]
UNITS = {"calls": "count/job", "self_s": "s/job"}


def per_layer(runner, overhead):
    """Per-job means over the workload's own traced jobs; the census and the
    known defects report under their own names."""
    jobs = len(runner.records)
    labels = {rec.job.label for rec in runner.records}
    totals = defaultdict(lambda: defaultdict(float))
    for (label, name), stat in runner.tracer.stats.items():
        if label in labels:
            for key, value in stat.items():
                totals[name][key] += value
    metrics = {}
    for name, keys in LAYER_FUNCTIONS:
        for key in keys:
            metrics[f"{name}.{key}"] = (totals[name][key] / jobs, UNITS[key])
    pole = totals["friedrichs.find_pole"]
    metrics["friedrichs.find_pole.iterations"] = (pole["iterations"] / jobs, "count/job")
    metrics["friedrichs.find_pole.newton_share"] = (
        pole["newton"] / pole["calls"] if pole["calls"] else 0.0, "share")
    disc = totals["oracle.discretize"]
    metrics["oracle.discretize.flops_computed"] = (disc["flops_computed"] / jobs, "flop/job")
    metrics["oracle.discretize.bytes_computed"] = (disc["bytes_computed"] / jobs, "B/job")
    for command in CLI_COMMANDS:
        walls = [rec.wall_s for rec in runner.records if rec.job.kind == command]
        metrics[f"cli.{command}.wall_s_p50"] = (statistics.median(walls) if walls else 0.0,
                                                "s")
    for key, value in runner.acc.values.items():
        metrics[f"accuracy.{key}"] = (value, "ratio" if "over_tol" in key else "abs")
    metrics["harness.check_s"] = (runner.check_s / jobs, "s/job")
    metrics["harness.trace_overhead_share"] = (overhead, "share")
    # one census job per oracle size; zero where the census did not run
    census = {rec.job.params["doc"]["grid"]["oracle_n"]: rec for rec in runner.census}
    for n in workloads.CENSUS_ORACLE_N:
        rec = census.get(n)
        eigh = runner.tracer.stats.get((rec.job.label, "oracle.discretize"), {}) if rec else {}
        metrics[f"census.evolve_oracle{n}.wall_s"] = (rec.wall_s if rec else 0.0, "s")
        metrics[f"census.evolve_oracle{n}.discretize_self_s"] = (eigh.get("self_s", 0.0), "s")
    metrics["census.oracle_gap_max"] = (runner.census_acc.values["oracle_gap_max"], "abs")
    for name, kind, key in (("semi_ellipse_n200", "exact", "completeness_max"),
                            ("lorentz_kernel", "kernel", "kernel_completeness_max")):
        recs = [rec for rec in runner.defects if rec.job.kind == kind]
        metrics[f"defect.{name}.{key}"] = (runner.defect_acc.values[key], "abs")
        metrics[f"defect.{name}.fail_share"] = (
            sum(1 for rec in recs if rec.reasons) / len(recs) if recs else 0.0, "share")
    return metrics


def calls_by_label(runner):
    """Calls per job of each traced function, by job label."""
    counts = defaultdict(int)
    for rec in runner.records + runner.census + runner.defects:
        counts[rec.job.label] += 1
    table = defaultdict(dict)
    for (kind, name), stat in runner.tracer.stats.items():
        table[kind][name] = round(stat["calls"] / counts[kind], 3)
    return {kind: dict(sorted(row.items())) for kind, row in sorted(table.items())}


# --------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle and one set-up probe (benchmark self-test)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # the program must see the environment a user has
    os.environ.pop("RESPECTRA_THREADS", None)
    if args.probe:
        return _probe(args)
    _import_program()
    global workloads
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    env = _environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, run_dir / "wl")
    tracer = Tracer() if args.trace else None
    runner = Runner(wl, tracer)
    if tracer is None:
        setup_s, setup_wall_s = _setup_seconds(args, 1 if args.smoke else SETUP_PAIRS)
        cycles = runner.loop(args.seconds, 1 if args.smoke else None)
        metrics, notes = end_to_end(runner, setup_s)
        notes["wall_setup_s"] = setup_wall_s
        print("notes: " + json.dumps(notes, sort_keys=True))
    else:
        # the workload, then (cli only) the ROADMAP item-1 oracle sizes, then
        # the known defects; only the first feeds the per-layer means
        tracer.install()
        overhead = 0.0 if args.smoke else runner.overhead_pairs()
        cycles = runner.loop(args.seconds, 1 if args.smoke else None)
        if args.workload == "cli":
            sizes = workloads.CENSUS_ORACLE_N[:1 if args.smoke else None]
            runner.run_census(workloads.CliWorkload(args.seed, run_dir / "census"), sizes)
        runner.run_defects(args.seed, 1 if args.smoke else DEFECT_DRAWS, run_dir / "defect")
        tracer.uninstall()
        metrics = per_layer(runner, overhead)

    failures = [{"label": rec.job.label, "params": rec.job.params, "reasons": rec.reasons}
                for rec in runner.records + runner.census if rec.reasons]
    for f in failures:
        print("FAILED " + json.dumps(f, sort_keys=True, default=str))
    for rec in runner.defects:
        if rec.reasons:
            print("KNOWN DEFECT " + json.dumps({"label": rec.job.label, "params": rec.job.params,
                                                "reasons": rec.reasons}, sort_keys=True))
    details = {"environment": env, "cycles": cycles, "failures": failures,
               "jobs": [(rec.job.label, rec.wall_s, rec.slowdown)
                        for rec in runner.records + runner.census + runner.defects],
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    if tracer is not None:
        details["calls_per_job_by_label"] = calls_by_label(runner)
        details["spans"] = tracer.spans
        print("calls per job by label: " + json.dumps(details["calls_per_job_by_label"]))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    details_path = OUT / f"{run_dir.name}.json"
    details_path.write_text(json.dumps(details, default=str) + "\n")
    print(f"details: {details_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    result = {"correct": not failures, "attempted": len(runner.records) + len(runner.census),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            sys.exit(2)
        raise
