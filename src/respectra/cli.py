"""Command-line front door: config ingestion, experiment orchestration and
deterministic CSV/JSON emission.

The config document is a JSON object that ``RUN_SCHEMA`` describes: its
sections, their keys, the kind of each value, its default and its least
value.  ``load_config`` checks the whole document against it once, after
the command-line overrides, whatever the command.  Outputs are
byte-deterministic: floats use 17 significant digits, no timestamps, and every
file embeds the sha256 of the effective config without its ``output_dir``, so
the same physics under two ``--out`` directories writes the same bytes.  Exit
codes: 0 success, 1 numerical failure, 2 config error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from .contour import MIN_NODES, build_contour, integrate_contour, plemelj_integral, real_axis_grid
from .dynamics import (decay_rate, default_time_grid, exponential_approx,
                       oracle_survival_curve, survival_curve)
from .errors import ConfigError, RespectraError
from .liouville import (LiouvilleGrids, LiouvilleSystem, check_physicality, evolve_state,
                        relaxation_curve, unstable_state_functional)
from .model import (MODEL_SCHEMA, REQUIRED, ModelSpec, check_section, eval_V, eval_Vbar,
                    make_model, model_from_dict)
from .oracle import MIN_BINS, secular_system
from .perturbation import BiorthogonalSystem, pair_coeffs, perturb_discrete
from .states import AnalyticVector, random_analytic, real_axis_inner, real_axis_inner_H

SPEC_VERSION = "1"

# with no model section, validate checks this model (and --nodes sizes it)
_VALIDATE_MODEL = {"family": "sqrt_exp", "params": [1.0], "omega": 1.0, "epsilon": 0.1}


def _config_hash(cfg: dict) -> str:
    """sha256 of the effective config without ``output_dir``: where the
    artifacts go is not part of what they describe, so one config written to
    two directories gives the same bytes."""
    physics = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(physics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_text(path: Path, text: str):
    """Write an artifact, making its directory first, so that a run refused
    before its first artifact leaves no directory behind."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:    # e.g. the path, or one of its parents, is a file
        raise ConfigError(f"output_dir {str(path.parent)!r} cannot be made a directory: {e}") from e
    path.write_text(text)


def _write_json(path: Path, payload: dict, cfg_hash: str):
    """One sorted top-level key per line, each value on its line by
    ``json.dumps`` without ``indent``, which keeps the C encoder."""
    payload = dict(payload, spec_version=SPEC_VERSION, config_sha256=cfg_hash)
    items = (f"  {json.dumps(k)}: {json.dumps(payload[k], sort_keys=True)}"
             for k in sorted(payload))
    _write_text(path, "{\n" + ",\n".join(items) + "\n}\n")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    return "%.17e" % x if isinstance(x, (float, np.floating)) else str(x)


def _column(col) -> list[str]:
    """One CSV column as text: a float array in one pass over its
    ``tolist()``, any other sequence cell by cell; floats with 17
    significant digits, integers and booleans as integers, anything else by
    ``str``."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return ["%.17e" % x for x in col.tolist()]
    return [_cell(x) for x in col]


def _write_csv(path: Path, header: list[str], columns, cfg_hash: str):
    """A CSV of the given columns, each an array or a sequence of cells."""
    lines = [f"# config_sha256={cfg_hash} spec_version={SPEC_VERSION}",
             ",".join(header)]
    lines.extend(map(",".join, zip(*map(_column, columns))))
    _write_text(path, "\n".join(lines) + "\n")


def load_config(path: str, overrides: dict) -> dict:
    """The run document at ``path`` with the command-line ``overrides``
    applied and the top-level defaults of ``RUN_SCHEMA`` filled in, checked
    against ``RUN_SCHEMA``."""
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
    cfg = {key: copy.deepcopy(default) for key, (_, default, *_) in RUN_SCHEMA.items()
           if default is not None and default is not REQUIRED}
    cfg.update(doc)
    if cfg.get("command") == "validate":
        cfg.setdefault("model", copy.deepcopy(_VALIDATE_MODEL))
    if overrides.get("out") is not None:
        cfg["output_dir"] = overrides["out"]
    if overrides.get("seed") is not None:
        cfg["seed"] = overrides["seed"]
    if overrides.get("tolerance") is not None and isinstance(cfg["tolerances"], dict):
        cfg["tolerances"] = dict(cfg["tolerances"], pole=overrides["tolerance"])
    model = cfg.get("model")
    if overrides.get("nodes") is not None and isinstance(model, dict):
        contour = model.get("contour", {})
        if isinstance(contour, dict):
            cfg["model"] = dict(model, contour=dict(contour, n_nodes=overrides["nodes"]))
    return check_section(cfg, RUN_SCHEMA, "config")


def _setting(cfg: dict, section: str, key: str):
    """A ``grid`` or ``tolerances`` value of a checked config, or its
    ``RUN_SCHEMA`` default."""
    kind, default, *_ = RUN_SCHEMA[section][0][key]
    value = cfg[section].get(key, default)
    return int(value) if kind == "integer" else float(value)


def _time_grid(cfg: dict, model: ModelSpec) -> np.ndarray:
    return default_time_grid(model, _setting(cfg, "grid", "t_points"),
                             _setting(cfg, "grid", "horizon"))


def _model_from_cfg(cfg: dict) -> ModelSpec:
    if "model" not in cfg:
        raise ConfigError(f"command {cfg['command']!r} needs a 'model' section")
    return model_from_dict(cfg["model"])


def _system(cfg: dict, model: ModelSpec, grid) -> BiorthogonalSystem:
    """The system of ``spectrum`` and ``evolve`` on ``grid``: exact, its pole
    solved at ``tolerances.pole``, or with a kernel the order-2 one."""
    if model.has_kernel():
        return BiorthogonalSystem.from_perturbation(model, 2, grid)
    return BiorthogonalSystem.from_exact(model, grid, _setting(cfg, "tolerances", "pole"))


def _barrier_from_cfg(cfg: dict) -> barrier_mod.BarrierSpec:
    if "barrier" not in cfg:
        raise ConfigError("command 'barrier' needs a 'barrier' section")
    return barrier_mod.BarrierSpec(**{key: float(v) for key, v in cfg["barrier"].items()})


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_spectrum(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    # one grid for every stage
    grid = build_contour(model.contour)
    ser = perturb_discrete(model, 2, grid)
    lam2 = ser.eigenvalue
    payload = {
        "omega": model.omega_level,
        "epsilon": model.coupling,
        "lambda_pert2": [lam2.real, lam2.imag],
        "order1_shift": [ser.lambda_at(1).real, ser.lambda_at(1).imag],
    }
    system = _system(cfg, model, grid)
    if not model.has_kernel():
        pole = system.pole_result
        payload.update({
            "lambda_exact": [pole.lambda_pole.real, pole.lambda_pole.imag],
            "gap": abs(pole.lambda_pole - lam2),
            "residual": pole.residual,
            "iterations": pole.iterations,
            "method": pole.method,
        })
    else:
        payload.update({"lambda_exact": None,
                        "note": "kernel present: closed-form pole unavailable"})
    _write_json(outdir / "spectrum.json", payload, cfg_hash)
    _write_json(outdir / "system.json", system.to_dict(), cfg_hash)
    return 0


def cmd_evolve(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    ts = _time_grid(cfg, model)
    n_oracle = _setting(cfg, "grid", "oracle_n")
    # every phase exp(-i w_j t) of the oracle's midpoints returns to -1 at t_rec:
    # past it the grid revives and the oracle column means nothing; refused
    # before any spectral work
    t_rec = 2.0 * np.pi * n_oracle / model.contour.cutoff
    if ts[-1] > t_rec:
        raise ConfigError(f"the oracle grid of oracle_n = {n_oracle} bins revives at "
                          f"t = {t_rec:.6g}, before the last time {ts[-1]:.6g}; "
                          f"oracle_n >= {math.ceil(n_oracle * ts[-1] / t_rec)} "
                          "covers the horizon")
    spec_curve = survival_curve(_system(cfg, model, build_contour(model.contour)), ts)
    oracle_curve = oracle_survival_curve(model, ts, n_oracle)
    expo = exponential_approx(model, ts)
    _write_csv(outdir / "evolve.csv",
               ["t", "survival_spectral", "survival_oracle", "survival_exponential"],
               [ts, spec_curve.survival, oracle_curve.survival, expo], cfg_hash)
    return 0


def cmd_liouville(cfg: dict, outdir: Path, cfg_hash: str) -> int:
    model = _model_from_cfg(cfg)
    if model.has_kernel():
        raise ConfigError(f"liouville needs a model without a continuum kernel, got kernel "
                          f"{model.kernel.family_id!r}: the superoperator branch supports "
                          "no continuum kernel")
    grids = LiouvilleGrids.for_model(model, n_nodes=_setting(cfg, "grid", "liouville_n"))
    lsys = LiouvilleSystem(model, grids)
    branches = {"decay": [lsys.lam_d], "invariant": [0.0],
                "u1": lsys.lam_u1(grids.gamma_bar.nodes),
                "1u": lsys.lam_1u(grids.gamma.nodes),
                "uu": grids.gamma_bar.nodes - grids.gamma.nodes}
    lams = np.concatenate(list(branches.values())).astype(complex)
    labels = [b for b, ls in branches.items() for _ in ls]
    _write_csv(outdir / "liouville_eigenvalues.csv", ["branch", "re", "im"],
               [labels, lams.real, lams.imag], cfg_hash)

    ts = _time_grid(cfg, model)
    curve = relaxation_curve(lsys, unstable_state_functional(), ts)
    _write_csv(outdir / "liouville_trajectory.csv",
               ["t", "rho_level", "atom_weight_at_level", "rho_identity"],
               [ts, curve.level.real, curve.atom_weight.real, curve.normalization.real],
               cfg_hash)
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
    n_sweep = _setting(cfg, "grid", "sweep_points")
    rows = barrier_mod.width_sweep(spec, spec.b * np.linspace(1.0, 1.6, n_sweep))
    header = ["b", "barrier_length", "width", "k_tilde"]
    _write_csv(outdir / "barrier_sweep.csv", header,
               [[r[k] for r in rows] for k in header], cfg_hash)
    return 0


# --------------------------------------------------------------------------
# validation suite
# --------------------------------------------------------------------------

def _validation_checks(model: ModelSpec):
    """Named fast checks over the whole stack; each takes its own random
    generator and returns (value, tol)."""
    grid = build_contour(model.contour)
    # the identity and Liouville checks need adequate resolution even for coarse configs
    qgrid = build_contour(replace(model.contour, n_nodes=max(200, model.contour.n_nodes)))
    rgrid = real_axis_grid(model.contour.cutoff, 400)
    om, X, depth = model.omega_level, model.contour.cutoff, model.contour.depth

    def inside(z: complex) -> complex:
        # z moved into 0 < Re z < X, |Im z| <= depth, each part only where it lies outside
        re = z.real if 0 < z.real < X else 0.5 * X
        im = z.imag if abs(z.imag) <= depth else math.copysign(0.5 * depth, z.imag)
        return complex(re, im)

    # objects several checks read are built once, on first use; a build that
    # raises fails every check that reads it
    _series = cache(lambda: perturb_discrete(model, 2, grid))
    _exact = cache(lambda: BiorthogonalSystem.from_exact(model, grid))
    _lsys = cache(lambda: LiouvilleSystem(model, LiouvilleGrids(qgrid)))

    def schwarz_reflection(rng):
        lo = 0.2 if 0.2 < X * 0.8 else X * 0.4
        z = rng.uniform(lo, X * 0.8, 100) + 1j * rng.uniform(-depth, depth, 100)
        lhs = np.conj(np.asarray(eval_V(model, np.conj(z))))
        rhs = np.asarray(eval_Vbar(model, z))
        return float(np.max(np.abs(lhs - rhs))), 1e-14

    def coupling_linearity(rng):
        m2 = make_model(model.form_factor.family_id, model.form_factor.params,
                        om, 2 * model.coupling, model.contour)
        z = inside(0.7 + 0.2j)
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
        x0 = inside(0.9 * om + 0.3).real
        lhs = integrate_contour(qgrid, lambda z: f(z) / (x0 - z))
        rhs = plemelj_integral(f, x0, +1, grid=rgrid)
        return float(abs(lhs - rhs)), 1e-8

    def plemelj_conjugation(rng):
        f = lambda w: np.exp(-w)
        x0 = inside(1.1).real
        a = plemelj_integral(f, x0, +1, grid=rgrid)
        b = plemelj_integral(f, x0, -1, grid=rgrid)
        return float(abs(np.conj(a) - b)), 1e-12

    def quadrature_order(rng):
        f = lambda z: np.exp(-z) * np.cos(z.real * 0 + 1.0)
        quad = lambda n: integrate_contour(build_contour(replace(model.contour, n_nodes=n)), f)
        exact = quad(800)
        e1, e2 = abs(quad(32) - exact), abs(quad(64) - exact)
        ratio = e1 / max(e2, 1e-300)
        return float(4.0 - min(ratio, 4.0)), 0.5  # passes when ratio >= 3.5

    def pole_residual(rng):
        return float(_exact().pole_result.residual), 1e-12

    def pole_half_plane(rng):
        lam = _exact().pole_result.lambda_pole
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
        vec = AnalyticVector(complex(rng.standard_normal(), rng.standard_normal()),
                             lambda z: np.exp(-0.4 * z))
        back = vec.project_d() + vec.project_continuum()
        same = (back.d == vec.d and back.profile is vec.profile)
        double = vec.project_d().project_continuum()
        zero = (double.d == 0 and double.profile is None)
        return float(0.0 if (same and zero) else 1.0), 0.0

    def non_self_adjoint(rng):
        if model.coupling == 0:
            return 0.0, 0.0
        right, left = _series().totals
        gap = float(np.max(np.abs(left.at(grid.nodes) - np.conj(right.at(grid.nodes)))))
        return float(0.0 if gap > 1e-10 else 1.0), 0.0

    def oracle_unitarity(rng):
        # the oracle evolve runs; its eigenbasis U is unitary if and only if
        # it keeps every norm: sum_k |u_k^H v|^2 = 1 for a unit v
        system = secular_system(model, 300)
        v = rng.standard_normal(system.dimension) + 1j * rng.standard_normal(system.dimension)
        v /= np.linalg.norm(v)
        return float(abs(np.sqrt(np.sum(system.modes(np.conj(v), v))) - 1.0)), 1e-12

    def liouville_decay_mode(rng):
        return float(abs(_lsys().lam_d - 1j * decay_rate(model))), 1e-10

    def liouville_physicality(rng):
        lsys = _lsys()
        u = lsys.grids.gamma_bar.nodes[20]
        up = np.conj(u)
        worst = 0.0
        for left, eigenvalue in ((lsys.decay_left, lsys.lam_d),
                                 (lsys.left_u1(u), lsys.lam_u1(u)),
                                 (lsys.left_1u(up), lsys.lam_1u(up)),
                                 (lsys.left_uu(u, up), u - up)):
            ok, val = check_physicality(left, eigenvalue, lsys.grids)
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
            st = evolve_state(lsys, rho0, t)
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
                          f"{model.kernel.family_id!r}: there is no exact solution with a "
                          "continuum kernel to check against")
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
    names, passed, values, tols, _ = zip(*results)
    _write_csv(outdir / "validate.csv", ["check", "passed", "value", "tolerance"],
               [names, [int(ok) for ok in passed], values, tols], cfg_hash)
    return 0 if all(r[1] for r in results) else 3


COMMANDS = {"spectrum": cmd_spectrum, "evolve": cmd_evolve, "liouville": cmd_liouville,
            "barrier": cmd_barrier, "validate": cmd_validate}

# section -> key -> (kind, default[, least]), as model.check_section reads it;
# a default of None leaves an absent key to the code that builds from it
RUN_SCHEMA = {
    "command": (tuple(COMMANDS), REQUIRED),
    "model": (MODEL_SCHEMA, None),
    # the fields of BarrierSpec, with its defaults of mu and hbar
    "barrier": ({f.name: ("number", REQUIRED if f.default is MISSING else f.default)
                 for f in fields(barrier_mod.BarrierSpec)}, None),
    "output_dir": ("string", "out"),
    "seed": ("integer", 1234, 0),
    "tolerances": ({"pole": ("positive", 1e-13)}, {}),
    "grid": ({"oracle_n": ("integer", 2000, MIN_BINS), "t_points": ("integer", 200, 1),
              "horizon": ("number", 5.0), "liouville_n": ("integer", 100, MIN_NODES),
              "sweep_points": ("integer", 9, 1)}, {}),
}


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
        outdir = Path(cfg["output_dir"])
        cfg_hash = _config_hash(cfg)
        code = COMMANDS[cfg["command"]](cfg, outdir, cfg_hash)
        # after it, so a refused run writes nothing; barrier runs on no contour
        if args.dump_grid and cfg["command"] != "barrier":
            spec = _model_from_cfg(cfg).contour
            if cfg["command"] == "liouville":       # the curve liouville runs on
                spec = replace(spec, n_nodes=_setting(cfg, "grid", "liouville_n"))
            grid = build_contour(spec)
            _write_csv(outdir / "grid.csv", ["node_re", "node_im", "weight_re", "weight_im"],
                       [grid.nodes.real, grid.nodes.imag, grid.weights.real, grid.weights.imag],
                       cfg_hash)
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RespectraError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
