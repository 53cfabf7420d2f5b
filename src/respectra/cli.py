"""Command-line front door: config ingestion, experiment orchestration and
deterministic CSV/JSON emission.

Config document (JSON)::

    {
      "command":  "spectrum" | "evolve" | "liouville" | "barrier" | "validate",
      "model":    {"family": str, "params": [..], "omega": float, "epsilon": float,
                   "contour": {"depth": f, "cutoff": f, "n_nodes": i, "shape": s},
                   "kernel": "separable_sqrt_exp"},            # model commands
      "barrier":  {"a": f, "b": f, "v0": f, "v1": f, "mu": f, "hbar": f},
      "output_dir": str,          # overridden by --out
      "seed": int,                # overridden by --seed
      "tolerances": {"pole": f},  # overridden by --tolerance
      "grid": {"oracle_n": i, "t_points": i, "horizon": f,
               "liouville_n": i, "sweep_points": i}
    }

Unknown keys anywhere are rejected, and so are sections that are not JSON
objects and numeric fields that are not JSON numbers.  Outputs are
byte-deterministic: floats use 17 significant digits, no timestamps, and every
file embeds the sha256 of the effective config without its ``output_dir``, so
the same physics under two ``--out`` directories writes the same bytes.  Exit
codes: 0 success, 1 numerical failure, 2 config error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from .contour import build_contour, integrate_contour, plemelj_integral, real_axis_grid
from .dynamics import (decay_rate, default_time_grid, exponential_approx,
                       oracle_survival_curve, survival_curve)
from .errors import ConfigError, RespectraError
from .friedrichs import find_pole
from .liouville import (LiouvilleGrids, LiouvilleSystem, check_physicality, evolve_state,
                        unstable_state_functional)
from .model import (ModelSpec, config_number, config_section, eval_V, eval_Vbar, make_model,
                    model_from_dict)
from .oracle import discretize, propagate, recurrence_time
from .perturbation import (BiorthogonalSystem, PlainTerm, VectorCoeffs, pair_coeffs,
                           perturb_discrete)
from .states import random_analytic, real_axis_inner, real_axis_inner_H

SPEC_VERSION = "1"

_TOP_KEYS = {"command", "model", "barrier", "output_dir", "seed", "tolerances", "grid"}
_GRID_KEYS = {"oracle_n", "t_points", "horizon", "liouville_n", "sweep_points"}
_TOL_KEYS = {"pole"}
_INT_KEYS = {"oracle_n", "t_points", "liouville_n", "sweep_points"}
_COMMANDS = ("spectrum", "evolve", "liouville", "barrier", "validate")


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


def _config_hash(cfg: dict) -> str:
    """sha256 of the effective config without ``output_dir``: where the
    artifacts go is not part of what they describe, so one config written to
    two directories gives the same bytes."""
    physics = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(physics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json(path: Path, payload: dict, cfg_hash: str):
    payload = dict(payload)
    payload["spec_version"] = SPEC_VERSION
    payload["config_sha256"] = cfg_hash
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows, cfg_hash: str):
    lines = [f"# config_sha256={cfg_hash} spec_version={SPEC_VERSION}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def load_config(path: str, overrides: dict) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except OSError as e:
        raise ConfigError(f"config file cannot be read: {e}") from e
    except ValueError as e:
        # invalid JSON or UTF-8, or an integer literal beyond Python's digit limit
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if doc.get("command") not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}")
    for key in ("model", "barrier"):
        config_section(doc, key)
    for key, allowed in (("grid", _GRID_KEYS), ("tolerances", _TOL_KEYS)):
        section = config_section(doc, key)
        if set(section) - allowed:
            raise ConfigError(f"unknown {key} keys {sorted(set(section) - allowed)}")
        for name, value in section.items():
            config_number(value, f"{key} {name}", integer=name in _INT_KEYS)
    if "seed" in doc:
        config_number(doc["seed"], "seed", integer=True)
    if not isinstance(doc.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {doc['output_dir']!r}")
    cfg = dict(doc)
    cfg.setdefault("output_dir", "out")
    cfg.setdefault("seed", 1234)
    cfg.setdefault("tolerances", {})
    cfg.setdefault("grid", {})
    if cfg["command"] == "validate":
        # with no model section, validate checks this model (and --nodes sizes it)
        cfg.setdefault("model", {"family": "sqrt_exp", "params": [1.0], "omega": 1.0,
                                 "epsilon": 0.1})
    if overrides.get("out") is not None:
        cfg["output_dir"] = overrides["out"]
    if overrides.get("seed") is not None:
        cfg["seed"] = int(overrides["seed"])
    if overrides.get("tolerance") is not None:
        cfg["tolerances"] = dict(cfg["tolerances"], pole=float(overrides["tolerance"]))
    if overrides.get("nodes") is not None:
        mdl = dict(cfg.get("model", {}))
        contour = dict(mdl.get("contour", {}))
        contour["n_nodes"] = int(overrides["nodes"])
        mdl["contour"] = contour
        cfg["model"] = mdl
    return cfg


def _model_from_cfg(cfg: dict) -> ModelSpec:
    if "model" not in cfg:
        raise ConfigError(f"command {cfg['command']!r} needs a 'model' section")
    return model_from_dict(cfg["model"])


def _barrier_from_cfg(cfg: dict) -> barrier_mod.BarrierSpec:
    if "barrier" not in cfg:
        raise ConfigError("command 'barrier' needs a 'barrier' section")
    doc = config_section(cfg, "barrier")
    allowed = {"a", "b", "v0", "v1", "mu", "hbar"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown barrier keys {sorted(unknown)}")
    for key in ("a", "b", "v0", "v1"):
        if key not in doc:
            raise ConfigError(f"barrier section missing {key!r}")
    vals = {key: float(config_number(doc.get(key, 1.0), f"barrier {key}")) for key in allowed}
    return barrier_mod.BarrierSpec(**vals)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_spectrum(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    tol = float(cfg["tolerances"].get("pole", 1e-13))
    # one grid for every stage; the pole is solved once, at the config tolerance
    grid = build_contour(model.contour)
    ser = perturb_discrete(model, 2, grid)
    lam2 = ser.eigenvalue
    payload = {
        "omega": model.omega_level,
        "epsilon": model.coupling,
        "lambda_pert2": [lam2.real, lam2.imag],
        "order1_shift": [ser.lambda_at(1).real, ser.lambda_at(1).imag],
    }
    if not model.has_kernel():
        pole = find_pole(model, tol=tol, grid=grid)
        payload.update({
            "lambda_exact": [pole.lambda_pole.real, pole.lambda_pole.imag],
            "gap": abs(pole.lambda_pole - lam2),
            "residual": pole.residual,
            "iterations": pole.iterations,
            "method": pole.method,
        })
        system = BiorthogonalSystem.from_exact(model, grid, pole)
    else:
        payload.update({"lambda_exact": None,
                        "note": "kernel present: closed-form pole unavailable"})
        system = BiorthogonalSystem.from_perturbation(model, 2, grid)
    _write_json(outdir / "spectrum.json", payload, cfg_hash)
    _write_json(outdir / "system.json", system.to_dict(), cfg_hash)
    return 0


def cmd_evolve(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    grid_cfg = cfg["grid"]
    ts = default_time_grid(model, int(grid_cfg.get("t_points", 200)),
                           float(grid_cfg.get("horizon", 5.0)))
    if model.has_kernel():
        system = BiorthogonalSystem.from_perturbation(model, 2)
    else:
        system = BiorthogonalSystem.from_exact(model)
    spec_curve = survival_curve(system, ts)
    n_oracle = int(grid_cfg.get("oracle_n", 2000))
    t_rec = recurrence_time(n_oracle, model.contour.cutoff)
    if ts[-1] > t_rec:
        # past it the midpoint grid revives and the oracle column means nothing
        raise ConfigError(f"the oracle grid of oracle_n = {n_oracle} bins revives at "
                          f"t = {t_rec:.6g}, before the last time {ts[-1]:.6g}; "
                          f"oracle_n >= {math.ceil(n_oracle * ts[-1] / t_rec)} "
                          "covers the horizon")
    oracle_curve = oracle_survival_curve(model, ts, n_oracle)
    expo = exponential_approx(model, ts)
    rows = zip(ts, spec_curve.survival, oracle_curve.survival, np.atleast_1d(expo))
    _write_csv(outdir / "evolve.csv",
               ["t", "survival_spectral", "survival_oracle", "survival_exponential"],
               rows, cfg_hash)
    return 0


def cmd_liouville(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    grid_cfg = cfg["grid"]
    n_li = int(grid_cfg.get("liouville_n", 100))
    grids = LiouvilleGrids.for_model(model, n_nodes=n_li)
    lsys = LiouvilleSystem(model, grids)
    rows = [("decay", lsys.lam_d.real, lsys.lam_d.imag), ("invariant", 0.0, 0.0)]
    for branch, lams in (("u1", lsys.lam_u1(grids.gamma_bar.nodes)),
                         ("1u", lsys.lam_1u(grids.gamma.nodes)),
                         ("uu", grids.gamma_bar.nodes - grids.gamma.nodes)):
        rows.extend((branch, float(lam.real), float(lam.imag)) for lam in lams)
    _write_csv(outdir / "liouville_eigenvalues.csv", ["branch", "re", "im"],
               rows, cfg_hash)

    ts = default_time_grid(model, int(grid_cfg.get("t_points", 200)),
                           float(grid_cfg.get("horizon", 5.0)))
    rho0 = unstable_state_functional()
    traj = []
    for t in ts:
        st = evolve_state(model, rho0, float(t), lsys)
        traj.append((float(t), st.c1.real,
                     st.atom_weight(model.omega_level, grids).real,
                     st.normalization(grids).real))
    _write_csv(outdir / "liouville_trajectory.csv",
               ["t", "rho_level", "atom_weight_at_level", "rho_identity"],
               traj, cfg_hash)
    return 0


def cmd_barrier(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    spec = _barrier_from_cfg(cfg)
    res = barrier_mod.resonance_width(spec)
    payload = {
        "a": spec.a, "b": spec.b, "v0": spec.v0, "v1": spec.v1,
        "mu": spec.mu, "hbar": spec.hbar,
        "e1": res.e1, "v11": res.v11, "k_tilde": res.k_tilde,
        "width": res.width, "survival_rate": res.survival_rate,
    }
    _write_json(outdir / "barrier.json", payload, cfg_hash)
    n_sweep = int(cfg["grid"].get("sweep_points", 9))
    rows = barrier_mod.width_sweep(spec, spec.b * np.linspace(1.0, 1.6, n_sweep))
    _write_csv(outdir / "barrier_sweep.csv",
               ["b", "barrier_length", "width", "k_tilde"],
               [(r["b"], r["barrier_length"], r["width"], r["k_tilde"]) for r in rows],
               cfg_hash)
    return 0


# --------------------------------------------------------------------------
# validation suite
# --------------------------------------------------------------------------

def _validation_checks(model: ModelSpec):
    """Named fast checks over the whole stack; each takes its own random
    generator and returns (value, tol)."""
    grid = build_contour(model.contour)
    # identity checks need adequate resolution even for coarse user configs
    qspec = replace(model.contour, n_nodes=max(200, model.contour.n_nodes))
    qgrid = build_contour(qspec)
    rgrid = real_axis_grid(model.contour.cutoff, 400)
    om, X = model.omega_level, model.contour.cutoff
    # objects several checks read are built once, on first use; a build that
    # raises fails every check that reads it
    _pole = cache(lambda: find_pole(model, grid=grid))
    _series = cache(lambda: perturb_discrete(model, 2, grid))
    _exact = cache(lambda: BiorthogonalSystem.from_exact(model, grid, _pole()))
    _lsys = cache(lambda: LiouvilleSystem(model, LiouvilleGrids.for_model(model, n_nodes=64)))

    def schwarz_reflection(rng):
        z = (rng.uniform(0.2, X * 0.8, 100)
             + 1j * rng.uniform(-model.contour.depth, model.contour.depth, 100))
        lhs = np.conj(np.asarray(eval_V(model, np.conj(z))))
        rhs = np.asarray(eval_Vbar(model, z))
        return float(np.max(np.abs(lhs - rhs))), 1e-14

    def coupling_linearity(rng):
        m2 = make_model(model.form_factor.family_id, model.form_factor.params,
                        om, 2 * model.coupling, model.contour)
        z = 0.7 + 0.2j
        return float(abs(eval_V(m2, z) - 2 * eval_V(model, z))), 1e-15

    def path_measure(rng):
        return float(abs(np.sum(grid.weights) - X)), 1e-10

    def path_first_moment(rng):
        return float(abs(np.sum(grid.weights * grid.nodes) - X**2 / 2)), 1e-9

    def deformation_identity(rng):
        worst = 0.0
        for _ in range(3):
            c = rng.standard_normal(3)
            f = (lambda z, c=c: eval_V(model if model.coupling > 0 else
                                       make_model("sqrt_exp", [1.0], om, 1.0, model.contour), z)
                 * (c[0] + c[1] * z + c[2] * z**2) * np.exp(-0.4 * z))
            lhs = integrate_contour(qgrid, f)
            rhs = np.sum(rgrid.weights.real * f(rgrid.nodes.real))
            worst = max(worst, abs(lhs - rhs))
        return float(worst), 1e-8

    def plemelj_consistency(rng):
        f = lambda z: np.exp(-0.7 * z) * (1 + z)
        x0 = 0.9 * om + 0.3
        lhs = integrate_contour(qgrid, lambda z: f(z) / (x0 - z))
        rhs = plemelj_integral(f, x0, "+i0", grid=rgrid)
        return float(abs(lhs - rhs)), 1e-8

    def plemelj_conjugation(rng):
        f = lambda w: np.exp(-w)
        a = plemelj_integral(f, 1.1, "+i0", grid=rgrid)
        b = plemelj_integral(f, 1.1, "-i0", grid=rgrid)
        return float(abs(np.conj(a) - b)), 1e-12

    def quadrature_order(rng):
        f = lambda z: np.exp(-z) * np.cos(z.real * 0 + 1.0)
        quad = lambda n: integrate_contour(build_contour(replace(model.contour, n_nodes=n)), f)
        exact = quad(800)
        e1, e2 = abs(quad(32) - exact), abs(quad(64) - exact)
        ratio = e1 / max(e2, 1e-300)
        return float(4.0 - min(ratio, 4.0)), 0.5  # passes when ratio >= 3.5

    def pole_residual(rng):
        return float(_pole().residual), 1e-12

    def pole_half_plane(rng):
        lam = _pole().lambda_pole
        return float(max(0.0, lam.imag if model.coupling > 0 else 0.0)), 0.0

    def order1_shift_zero(rng):
        return float(abs(_series().lambda_at(1))), 0.0

    def gauge_condition(rng):
        worst = 0.0
        for _, r, l in _series().orders[1:]:
            worst = max(worst, abs(r.d), abs(l.d))
        return float(worst), 0.0

    def exact_normalization(rng):
        s = _exact()
        return float(abs(pair_coeffs(s.disc_left, s.disc_right, grid) - 1)), 1e-8

    def exact_cross_orthogonality(rng):
        s = _exact()
        worst = max(np.max(np.abs(s.cont_right.pair(s.disc_left))),
                    np.max(np.abs(s.cont_left.pair(s.disc_right))))
        return float(worst), 1e-8

    def exact_completeness(rng):
        s = _exact()
        worst = 0.0
        for _ in range(3):
            psi, phi = random_analytic(rng), random_analytic(rng)
            worst = max(worst, abs(s.reconstruct_inner(psi, phi)
                                   - real_axis_inner(psi, phi, rgrid)))
        return float(worst), 1e-6

    def generator_reconstruction(rng):
        s = _exact()
        psi, phi = random_analytic(rng), random_analytic(rng)
        return float(abs(s.reconstruct_H(psi, phi)
                         - real_axis_inner_H(model, psi, phi, rgrid))), 1e-6

    def projector_algebra(rng):
        vec = VectorCoeffs(d=complex(rng.standard_normal(), rng.standard_normal()),
                           smooth=(PlainTerm(lambda z: np.exp(-0.4 * z)),))
        back = vec.project_d() + vec.project_continuum()
        same = (back.d == vec.d and back.smooth == vec.smooth)
        double = vec.project_d().project_continuum()
        zero = (double.d == 0 and not double.smooth)
        return float(0.0 if (same and zero) else 1.0), 0.0

    def non_self_adjoint(rng):
        if model.coupling == 0:
            return 0.0, 0.0
        s = BiorthogonalSystem.from_perturbation(model, 2, grid)
        smooth_r = sum(t.values(grid) for t in s.disc_right.smooth)
        smooth_l = sum(t.values(grid) for t in s.disc_left.smooth)
        gap = float(np.max(np.abs(smooth_l - np.conj(smooth_r))))
        return float(0.0 if gap > 1e-10 else 1.0), 0.0

    def oracle_unitarity(rng):
        d = discretize(model, 300)
        v = np.zeros(d.dimension, dtype=complex)
        v[0] = 1.0
        out = propagate(d, v, 3.0 / max(decay_rate(model), 0.05))
        return float(abs(np.linalg.norm(out) - 1.0)), 1e-12

    def liouville_decay_mode(rng):
        v = complex(eval_V(model, om))
        return float(abs(LiouvilleSystem(model).lam_d
                         - 2j * np.pi * (v * np.conj(v)).real)), 1e-10

    def liouville_physicality(rng):
        lsys = _lsys()
        u = lsys.grids.gamma_bar.nodes[20]
        worst = 0.0
        for eig in (lsys.zero.decay_left,
                    lsys.branch_u1(u).left,
                    lsys.branch_1u(np.conj(u)).left,
                    lsys.branch_uu(u, np.conj(u)).left):
            ok, val = check_physicality(model, eig)
            if not ok:
                return float(val), 1e-8
            worst = max(worst, val)
        return float(worst), 1e-8

    def liouville_symmetry(rng):
        return _lsys().symmetry_defect(), 1e-10

    def probability_conservation(rng):
        lsys = _lsys()
        rho0 = unstable_state_functional()
        worst = 0.0
        for t in (0.0, 1.0 / max(decay_rate(model), 0.05)):
            st = evolve_state(model, rho0, t, lsys)
            worst = max(worst, abs(st.normalization(lsys.grids) - 1))
        return float(worst), 1e-8

    def barrier_bound_state(rng):
        spec = barrier_mod.BarrierSpec(a=1.0, b=6.0, v0=0.3, v1=0.12)
        bs = barrier_mod.solve_bound_state(spec)
        return float(barrier_mod.bound_state_residual(spec, bs)), 1e-10

    return [(fn.__name__, fn) for fn in (
        schwarz_reflection, coupling_linearity, path_measure, path_first_moment,
        deformation_identity, plemelj_consistency, plemelj_conjugation, quadrature_order,
        pole_residual, pole_half_plane, order1_shift_zero, gauge_condition,
        exact_normalization, exact_cross_orthogonality, exact_completeness,
        generator_reconstruction, projector_algebra, non_self_adjoint, oracle_unitarity,
        liouville_decay_mode, liouville_physicality, liouville_symmetry,
        probability_conservation, barrier_bound_state)]


def cmd_validate(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    if model.has_kernel():
        # the pole, exact-system and Liouville checks solve the kernel-free model
        raise ConfigError(f"validate needs a model without a continuum kernel, got kernel "
                          f"{model.kernel.family_id!r}; the exact kernel solution it would "
                          "check against is ROADMAP item 3")
    checks = _validation_checks(model)
    # one independent stream per check: the draws of a check never depend on
    # which checks ran before it
    streams = np.random.SeedSequence(int(cfg["seed"])).spawn(len(checks))

    def run(name, fn, stream):
        try:
            value, tol = fn(np.random.default_rng(stream))
            return (name, value <= tol, value, tol, "")
        except RespectraError as e:
            return (name, False, np.inf, 0.0, str(e))

    results = [run(name, fn, stream) for (name, fn), stream in zip(checks, streams)]

    width = max(len(r[0]) for r in results)
    lines = []
    for name, ok, value, tol, msg in results:
        status = "PASS" if ok else "FAIL"
        detail = msg if msg else f"value={value:.3e} tol={tol:.1e}"
        lines.append(f"{name:<{width}}  {status}  {detail}")
    table = "\n".join(lines)
    print(table)
    _write_csv(outdir / "validate.csv", ["check", "passed", "value", "tolerance"],
               [(n, int(ok), v, t) for n, ok, v, t, _ in results], cfg_hash)
    return 0 if all(r[1] for r in results) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="respectra",
        description="Resonance spectral decompositions on deformed contours.")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override contour node count")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the pole solve tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized invariant sampling")
    parser.add_argument("--dump-grid", action="store_true",
                        help="also write the contour nodes/weights to grid.csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, vars(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_hash = _config_hash(cfg)
    if args.dump_grid and "model" in cfg:
        try:
            grid = build_contour(_model_from_cfg(cfg).contour)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        _write_csv(outdir / "grid.csv", ["node_re", "node_im", "weight_re", "weight_im"],
                   zip(grid.nodes.real, grid.nodes.imag,
                       grid.weights.real, grid.weights.imag), cfg_hash)
    handlers = {
        "spectrum": cmd_spectrum,
        "evolve": cmd_evolve,
        "liouville": cmd_liouville,
        "barrier": cmd_barrier,
        "validate": cmd_validate,
    }
    try:
        return handlers[cfg["command"]](cfg, outdir, cfg_hash)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RespectraError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
