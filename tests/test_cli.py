import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from respectra import cli, oracle
from respectra.cli import main
from respectra.errors import ConfigError, RespectraError


def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MODEL = {"family": "sqrt_exp", "params": [1.0], "omega": 1.0, "epsilon": 0.1,
         "contour": {"n_nodes": 128}}
BARRIER = {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.092}


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"command": "spectrum", "model": MODEL, "typo": 1})
    assert main(["--config", cfg]) == 2


def test_bad_command_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"command": "explode", "model": MODEL})
    assert main(["--config", cfg]) == 2


def test_model_required(tmp_path):
    cfg = _write_cfg(tmp_path, {"command": "spectrum"})
    assert main(["--config", cfg]) == 2


@pytest.mark.parametrize("doc,reason", [
    ([{"command": "spectrum", "model": MODEL}], "config must be a JSON object"),
    ({"command": "barrier"}, "command 'barrier' needs a 'barrier' section"),
    ({"command": "spectrum", "model": dict(MODEL, omega=-1.0)},
     "omega_level must be positive"),
    ({"command": "barrier", "barrier": dict(BARRIER, b=3.0)}, "need b >= 5")])
def test_refusal_names_its_reason(tmp_path, capsys, doc, reason):
    # refused before the output directory, or any of its parents, is made
    out = tmp_path / "xo" / "o"
    assert main(["--config", _write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "xo").exists()


def test_spectrum_free_model(tmp_path):
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, epsilon=0.0)}
    cfg = _write_cfg(tmp_path, doc)
    assert main(["--config", cfg]) == 0
    payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    assert payload["lambda_exact"] == [1.0, 0.0]
    assert payload["gap"] == 0.0
    assert payload["spec_version"] == "1"
    assert len(payload["config_sha256"]) == 64


def test_spectrum_with_coupling(tmp_path):
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"), "model": MODEL}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    assert payload["lambda_pert2"][1] < 0
    assert payload["residual"] <= 1e-12


def test_numerical_failure_exit_code(tmp_path, capsys):
    # pole below a too-shallow contour: exit 1, not a traceback
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, contour={"depth": 0.005, "n_nodes": 128})}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 1
    assert "numerical failure" in capsys.readouterr().err


def test_evolve_outputs(tmp_path):
    doc = {"command": "evolve", "output_dir": str(tmp_path / "o"), "model": MODEL,
           "grid": {"t_points": 201, "oracle_n": 800}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    lines = (tmp_path / "o" / "evolve.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "t,survival_spectral,survival_oracle,survival_exponential"
    # the 201-point grid on [0, 5/rate] hits t = 1/rate at row 40
    row = lines[2 + 40].split(",")
    assert abs(float(row[3]) - np.exp(-1.0)) < 1e-12


def test_evolve_deterministic(tmp_path):
    doc = {"command": "evolve", "output_dir": str(tmp_path / "o"), "model": MODEL,
           "grid": {"t_points": 32, "oracle_n": 800}}
    cfg = _write_cfg(tmp_path, doc)
    assert main(["--config", cfg]) == 0
    first = (tmp_path / "o" / "evolve.csv").read_bytes()
    assert main(["--config", cfg]) == 0
    assert (tmp_path / "o" / "evolve.csv").read_bytes() == first


def test_evolve_past_the_oracle_recurrence_is_config_error(tmp_path, capsys, monkeypatch):
    # eps = 0.03 puts the 5/rate horizon at t = 2403; 1000 bins on [0, 20]
    # revive at t = 2 pi 1000 / 20 = 314, where the oracle column stops
    # meaning anything; 7651 bins are the fewest that reach the horizon.
    # The refusal comes before the spectral system is built.
    def build(*args, **kwargs):
        raise AssertionError("evolve built the spectral system before refusing")

    monkeypatch.setattr(cli.BiorthogonalSystem, "from_exact", build)
    doc = {"command": "evolve", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, epsilon=0.03), "grid": {"oracle_n": 1000}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "oracle_n >= 7651" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_evolve_oracle_needs_no_dense_eigh(tmp_path, monkeypatch, kernel):
    # kernel-free and factored-kernel models take the secular oracle
    def dense(*args, **kwargs):
        raise AssertionError("evolve fell back to the dense O(n^3) oracle")

    monkeypatch.setattr(oracle, "discretize", dense)
    model = dict(MODEL, kernel=kernel) if kernel else MODEL
    doc = {"command": "evolve", "output_dir": str(tmp_path / "o"), "model": model,
           "grid": {"t_points": 32, "oracle_n": 800}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0


def test_liouville_outputs(tmp_path):
    doc = {"command": "liouville", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, epsilon=0.05),
           "grid": {"liouville_n": 64, "t_points": 16}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    cloud = (tmp_path / "o" / "liouville_eigenvalues.csv").read_text().splitlines()
    tags = {line.split(",")[0] for line in cloud[2:]}
    assert tags == {"decay", "invariant", "u1", "1u", "uu"}
    traj = (tmp_path / "o" / "liouville_trajectory.csv").read_text().splitlines()
    assert traj[1] == "t,rho_level,atom_weight_at_level,rho_identity"
    rows = np.array([line.split(",") for line in traj[2:]], dtype=float)
    assert rows.shape == (16, 4)
    # probability stays 1, and what leaves the level grows at the resonance
    assert np.max(np.abs(rows[:, 3] - 1.0)) <= 1e-8
    assert np.max(np.abs(rows[:, 2] + rows[:, 1] - 1.0)) <= 1e-12


def test_liouville_trajectory_builds_no_state_per_time(tmp_path, monkeypatch):
    # the trajectory is one array pass over the time grid, not a loop of states
    def per_time(*args, **kwargs):
        raise AssertionError("liouville built a relaxed state per time point")

    monkeypatch.setattr(cli, "evolve_state", per_time)
    doc = {"command": "liouville", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, epsilon=0.05),
           "grid": {"liouville_n": 64, "t_points": 16}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0


@pytest.mark.parametrize("shape,n,a,omega,eps,depth,cutoff", [
    ("rectangle", 91, 2.87449198647823, 5.721781224913234, 0.8239664543582123,
     0.9489370286267742, 9.287873211454597),
    ("semi_ellipse", 19, 2.3243752912337734, 5.295185071064273, 0.10106473051064621,
     2.1319324267920767, 14.84818331580838),
    ("rectangle", 89, 2.96511796295006, 4.293043206579401, 0.7529056769085614,
     1.0098760198544998, 23.767919956193857)],
    ids=["rectangle-91", "semi_ellipse-19", "rectangle-89"])
def test_liouville_refuses_a_growing_mode(tmp_path, capsys, shape, n, a, omega, eps, depth,
                                          cutoff):
    # the curves do not resolve the golden-rule width 2 pi |V(Omega)|^2, so
    # lambda_d (or a branch eigenvalue) falls below the axis and exp(i lambda
    # t) would overflow the trajectory into NaN rows: refused, no artifact
    doc = {"command": "liouville", "output_dir": str(tmp_path / "o"),
           "model": {"family": "poly_exp", "params": [a], "omega": omega, "epsilon": eps,
                     "contour": {"shape": shape, "depth": depth, "cutoff": cutoff}},
           "grid": {"liouville_n": n, "t_points": 20}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "a mode grows" in err and "2 pi |V(Omega)|^2" in err
    assert not (tmp_path / "o").exists()


def test_liouville_refuses_a_kernel_model(tmp_path, capsys):
    # refused before any grid is built, as validate refuses it
    doc = {"command": "liouville", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, kernel="separable_sqrt_exp")}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    assert "supports no continuum kernel" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_form_factor_pole_inside_the_contour_is_config_error(tmp_path, capsys):
    # lorentz_sqrt with s = 1.5 has a pole at depth 1.5, inside a contour of
    # depth 2: a contour the document cannot have, refused as every command
    # builds its model
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"),
           "model": {"family": "lorentz_sqrt", "params": [1.5], "omega": 1.0, "epsilon": 0.1,
                     "contour": {"depth": 2.0}}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    assert "config error: form factor 'lorentz_sqrt' has a singularity at depth 1.5, " \
        "inside the contour depth 2.0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_barrier_outputs(tmp_path):
    doc = {"command": "barrier", "output_dir": str(tmp_path / "o"),
           "barrier": {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.092},
           "grid": {"sweep_points": 3}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    payload = json.loads((tmp_path / "o" / "barrier.json").read_text())
    assert payload["width"] > 0
    sweep = (tmp_path / "o" / "barrier_sweep.csv").read_text().splitlines()
    assert len(sweep) == 2 + 3


def test_barrier_closed_channel_exit(tmp_path):
    doc = {"command": "barrier", "output_dir": str(tmp_path / "o"),
           "barrier": {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.02}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 1


VALIDATE_CHECKS = [
    "schwarz_reflection", "coupling_linearity", "path_measure", "path_first_moment",
    "deformation_identity", "plemelj_consistency", "plemelj_conjugation", "quadrature_order",
    "pole_residual", "pole_half_plane", "order1_shift_zero", "gauge_condition",
    "exact_normalization", "exact_cross_orthogonality", "exact_completeness",
    "generator_reconstruction", "projector_algebra", "non_self_adjoint", "oracle_unitarity",
    "liouville_decay_mode", "liouville_physicality", "liouville_symmetry",
    "probability_conservation", "barrier_bound_state"]


def _assert_validate_table(out):
    rows = [row.split(",") for row in (out / "validate.csv").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == VALIDATE_CHECKS
    assert all(row[1] == "1" for row in rows)


def test_validate_passes(tmp_path):
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"),
           "model": MODEL, "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    _assert_validate_table(tmp_path / "o")


# the checks that need the pole of eta
POLE_CHECKS = {"pole_residual", "pole_half_plane", "exact_normalization",
               "exact_cross_orthogonality", "exact_completeness", "generator_reconstruction"}


def test_validate_reports_every_check_when_some_fail(tmp_path, capsys):
    # eta has a second zero in this deep rectangle's strip: every check that
    # needs the pole fails with the zero count's reason, the other checks
    # still run and pass, and the exit code says that some check failed
    model = dict(MODEL, epsilon=0.54, contour={"depth": 1.0, "cutoff": 20.0, "n_nodes": 400})
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"), "model": model, "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 3
    rows = [row.split(",") for row in
            (tmp_path / "o" / "validate.csv").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == VALIDATE_CHECKS
    assert {row[0] for row in rows if row[1] == "0"} == POLE_CHECKS
    table = capsys.readouterr().out
    for name in POLE_CHECKS:
        assert re.search(rf"^{name} +FAIL  eta has 2 zeros in the strip", table, re.M)


def test_validate_without_a_model_takes_the_node_override(tmp_path):
    # a model-less validate config checks the default model, and --nodes
    # sizes its contour like any other model's
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc), "--nodes", "300", "--dump-grid"]) == 0
    _assert_validate_table(tmp_path / "o")
    assert len((tmp_path / "o" / "grid.csv").read_text().splitlines()) == 2 + 300


def test_validate_passes_on_a_coarse_default_model(tmp_path, capsys):
    # at 100 nodes every Liouville check runs on the same 200-node grid as
    # the other identity checks, so the decay mode resolves (it failed at
    # 1.7e-9 on the 100-node grid it had to itself)
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc), "--nodes", "100"]) == 0
    _assert_validate_table(tmp_path / "o")
    assert capsys.readouterr().out.count("  PASS  ") == 24


def test_validate_builds_no_dense_oracle(tmp_path, monkeypatch, capsys):
    # oracle_unitarity checks the secular oracle that evolve runs, not a
    # dense eigendecomposition of its own
    def dense(*args, **kwargs):
        raise AssertionError("validate built the dense O(n^3) oracle")

    monkeypatch.setattr(oracle, "discretize", dense)
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc), "--nodes", "200"]) == 0
    _assert_validate_table(tmp_path / "o")
    assert capsys.readouterr().out.count("  PASS  ") == 24


def test_validate_refuses_a_kernel_model(tmp_path, capsys):
    # refused before any check runs, not failed check by check
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, kernel="separable_sqrt_exp"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "separable_sqrt_exp" in err
    assert "no exact solution with a continuum kernel" in err
    assert not (tmp_path / "o").exists()


def test_cli_overrides(tmp_path):
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "ignored"),
           "model": MODEL}
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "override"
    assert main(["--config", cfg, "--out", str(out), "--nodes", "150",
                 "--tolerance", "1e-11", "--seed", "3"]) == 0
    assert (out / "spectrum.json").exists()


def test_spectrum_emits_system_samples(tmp_path):
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"), "model": MODEL}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
    payload = json.loads((tmp_path / "o" / "system.json").read_text())
    assert payload["source"] == "exact"
    assert len(payload["nodes_re"]) == MODEL["contour"]["n_nodes"]
    assert len(payload["cont_right_d_re"]) == MODEL["contour"]["n_nodes"]


def test_spectrum_system_uses_the_config_pole(tmp_path):
    # system.json is assembled on the pole spectrum.json reports, solved once
    # at the configured tolerance
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"), "model": MODEL}
    assert main(["--config", _write_cfg(tmp_path, doc), "--tolerance", "1e-6"]) == 0
    spectrum = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    system = json.loads((tmp_path / "o" / "system.json").read_text())
    assert system["pole"] == spectrum["lambda_exact"]


def test_evolve_solves_its_pole_at_the_config_tolerance(tmp_path):
    # a loose pole tolerance moves the spectral survival and nothing else
    cols = {}
    for tol in (1e-13, 1e-4):
        out = tmp_path / str(tol)
        doc = dict(RERUN_CONFIGS["evolve"], output_dir=str(out), tolerances={"pole": tol})
        assert main(["--config", _write_cfg(tmp_path, doc)]) == 0
        cols[tol] = np.loadtxt(out / "evolve.csv", delimiter=",", skiprows=2)
    moved = np.max(np.abs(cols[1e-4] - cols[1e-13]), axis=0)
    assert moved[1] > 1e-6 and not np.any(moved[[0, 2, 3]])


MALFORMED = {
    "contour_shape_unknown": {"command": "spectrum",
                              "model": dict(MODEL, contour={"shape": "circle"})},
    "contour_too_few_nodes": {"command": "spectrum",
                              "model": dict(MODEL, contour={"n_nodes": 8})},
    "epsilon_not_finite": {"command": "spectrum", "model": dict(MODEL, epsilon=float("nan"))},
    "grid_not_object": {"command": "evolve", "model": MODEL, "grid": 5},
    "omega_string": {"command": "spectrum", "model": dict(MODEL, omega="one")},
    "param_beyond_float": {"command": "spectrum", "model": dict(MODEL, params=[10**400])},
    "n_nodes_string": {"command": "spectrum", "model": dict(MODEL, contour={"n_nodes": "x"})},
    "oracle_n_string": {"command": "evolve", "model": MODEL, "grid": {"oracle_n": "many"}},
    "barrier_string": {"command": "barrier",
                       "barrier": {"a": "x", "b": 10.0, "v0": 0.25, "v1": 0.092}},
    # out-of-range run settings
    "t_points_zero": {"command": "evolve", "model": MODEL,
                      "grid": {"t_points": 0, "oracle_n": 800}},
    "sweep_points_negative": {"command": "barrier", "barrier": BARRIER,
                              "grid": {"sweep_points": -3}},
    "seed_negative": {"command": "validate", "model": MODEL, "seed": -1},
    "liouville_n_below_contour_minimum": {"command": "liouville", "model": MODEL,
                                          "grid": {"liouville_n": 8, "t_points": 4}},
    "oracle_n_zero": {"command": "evolve", "model": MODEL,
                      "grid": {"t_points": 3, "oracle_n": 0}},
    "barrier_hbar_subnormal": {"command": "barrier", "barrier": dict(BARRIER, hbar=1e-320)},
    # the same checks on the command line
    "seed_override_negative": ({"command": "validate", "model": MODEL}, ["--seed", "-1"]),
    "tolerance_override_nan": ({"command": "spectrum", "model": MODEL},
                               ["--tolerance", "nan"]),
    "tolerance_zero": {"command": "spectrum", "model": MODEL, "tolerances": {"pole": 0}},
    "tolerance_negative": {"command": "spectrum", "model": MODEL,
                           "tolerances": {"pole": -1e-13}},
    "tolerance_override_zero": ({"command": "spectrum", "model": MODEL}, ["--tolerance", "0"]),
    "dump_grid_contour_shape_unknown": ({"command": "spectrum",
                                         "model": dict(MODEL, contour={"shape": "circle"})},
                                        ["--dump-grid"]),
    # sections the command does not read
    "unread_barrier": {"command": "spectrum", "model": MODEL,
                       "barrier": {"typo": 1, "a": "x"}},
    "unread_model": {"command": "barrier", "barrier": BARRIER,
                     "model": {"family": 5, "omega": "x", "junk": 1}},
    "unread_grid_key": {"command": "liouville", "model": MODEL,
                        "grid": {"sweep_points": 0, "liouville_n": 32, "t_points": 4}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_is_config_error(tmp_path, capsys, name):
    # a document, or a (document, command-line flags) pair
    doc, flags = MALFORMED[name] if isinstance(MALFORMED[name], tuple) else (MALFORMED[name], [])
    doc = dict(doc, output_dir=str(tmp_path / "o"))
    assert main(["--config", _write_cfg(tmp_path, doc)] + flags) == 2
    assert "config error" in capsys.readouterr().err


# a valid document with every section and every key
FULL_DOC = {"command": "spectrum",
            "model": {"family": "sqrt_exp", "params": [1.0], "omega": 1.0, "epsilon": 0.1,
                      "contour": {"depth": 0.5, "cutoff": 20.0, "n_nodes": 64,
                                  "shape": "rectangle"},
                      "kernel": "separable_sqrt_exp"},
            "barrier": {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.092, "mu": 1.0, "hbar": 1.0},
            "output_dir": "out", "seed": 7, "tolerances": {"pole": 1e-13},
            "grid": {"oracle_n": 800, "t_points": 32, "horizon": 5.0, "liouville_n": 64,
                     "sweep_points": 5}}


def _fields(doc, prefix=()):
    """The path of every field of ``doc``, sections and their keys alike."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))


RUN_FIELDS = [".".join(path) for path in _fields(FULL_DOC) if path != ("command",)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=4)


@given(command=st.sampled_from(sorted(cli.COMMANDS)),
       fields=st.lists(st.sampled_from(RUN_FIELDS), min_size=1, max_size=2, unique=True),
       data=st.data())
def test_load_config_fuzz(command, fields, data):
    # a valid document with one or two fields, in any section, replaced by
    # arbitrary JSON values loads or is a config error; an accepted one
    # builds its model and barrier or raises a typed error, and every grid
    # and tolerance setting reads.  No command runs: a drawn oracle_n or
    # n_nodes can be arbitrarily large
    doc = dict(copy.deepcopy(FULL_DOC), command=command)
    for field in fields:
        *parents, key = field.split(".")
        target = doc
        for name in parents:
            target = target.get(name) if isinstance(target, dict) else None
        if isinstance(target, dict):
            target[key] = data.draw(JSON_VALUES, label=field)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = cli.load_config(str(path), {})
        except ConfigError:
            return
    for section in ("grid", "tolerances"):
        for key in cli.RUN_SCHEMA[section][0]:
            cli._setting(cfg, section, key)
    for build in (cli._model_from_cfg, cli._barrier_from_cfg):
        try:
            build(cfg)
        except RespectraError:
            pass


def test_readme_example_is_a_valid_document(tmp_path):
    # the document README shows under "Command line" loads and builds its model
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = cli.load_config(_write_cfg(tmp_path, json.loads(example)), {})
    cli._model_from_cfg(cfg)


def _long_seed(tmp_path):
    # an integer literal beyond Python's 4300-digit int-string limit
    p = tmp_path / "cfg.json"
    p.write_text('{"command": "spectrum", "seed": ' + "7" * 5001 + "}")
    return str(p)


def _not_utf8(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_bytes(b'{"command": "spectrum", "output_dir": "\xff\xfe"}')
    return str(p)


@pytest.mark.parametrize("make", [_long_seed, _not_utf8, lambda tmp_path: str(tmp_path)],
                         ids=["seed_5001_digits", "not_utf8", "directory"])
def test_unreadable_config_is_config_error(tmp_path, capsys, make):
    assert main(["--config", make(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_output_dir_is_not_part_of_the_artifacts(tmp_path):
    # the config hash leaves out where the artifacts go: one config written
    # to two directories (by output_dir and by --out) gives the same bytes
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "a"), "model": MODEL}
    cfg = _write_cfg(tmp_path, doc)
    assert main(["--config", cfg]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    runs = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
            for d in ("a", "b")]
    assert runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize("via", ["output_dir", "--out"])
def test_output_dir_that_is_a_file_is_config_error(tmp_path, capsys, via):
    # a file where the directory should go, or below one of its parents
    taken = tmp_path / "taken"
    taken.write_text("")
    doc = {"command": "spectrum", "model": MODEL, "output_dir": str(taken)}
    flags = ["--out", str(taken / "o")] if via == "--out" else []
    assert main(["--config", _write_cfg(tmp_path, doc)] + flags) == 2
    assert "config error: output_dir" in capsys.readouterr().err


def test_grid_dump_flag(tmp_path):
    # the curve the command ran on: the model's contour, or for liouville
    # that contour at liouville_n nodes
    for command, grid, n in (("spectrum", {}, MODEL["contour"]["n_nodes"]),
                             ("liouville", {"liouville_n": 64, "t_points": 4}, 64)):
        out = tmp_path / command
        doc = {"command": command, "output_dir": str(out), "model": MODEL, "grid": grid}
        assert main(["--config", _write_cfg(tmp_path, doc), "--dump-grid"]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[1] == "node_re,node_im,weight_re,weight_im"
        assert len(lines) == 2 + n, command


KERNEL_MODEL = dict(MODEL, kernel="separable_sqrt_exp")

RERUN_CONFIGS = {
    "spectrum": {"command": "spectrum", "model": MODEL},
    "spectrum_kernel": {"command": "spectrum", "model": KERNEL_MODEL},
    "evolve": {"command": "evolve", "model": MODEL,
               "grid": {"t_points": 32, "oracle_n": 800}},
    "evolve_kernel": {"command": "evolve", "model": KERNEL_MODEL,
                      "grid": {"t_points": 32, "oracle_n": 800}},
    "liouville": {"command": "liouville", "model": dict(MODEL, epsilon=0.05),
                  "grid": {"liouville_n": 64, "t_points": 16}},
    "barrier": {"command": "barrier",
                "barrier": {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.092},
                "grid": {"sweep_points": 5}},
    "validate": {"command": "validate", "model": MODEL, "seed": 11},
}

# the artifacts of every RERUN_CONFIGS entry, one directory each
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(tmp_path, name) -> Path:
    """Run RERUN_CONFIGS[name] into the cleared directory tmp_path/o."""
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    assert main(["--config", _write_cfg(tmp_path, dict(RERUN_CONFIGS[name],
                                                       output_dir=str(out)))]) == 0
    return out


@pytest.mark.parametrize("name", sorted(RERUN_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, name):
    # the same config run twice into the same cleared directory writes the
    # same artifact bytes
    runs = [{p.name: p.read_bytes() for p in sorted(_run(tmp_path, name).iterdir())}
            for _ in range(2)]
    assert runs[0] and runs[0] == runs[1]


def test_the_cli_loads_no_scipy(tmp_path):
    # a fresh process imports the CLI and runs spectrum, a kernel evolve and
    # barrier; no scipy module is loaded then, neither by the import nor
    # later, and no numpy.ma (which np.median imports)
    docs = [dict(RERUN_CONFIGS[name], output_dir=str(tmp_path / name))
            for name in ("spectrum", "evolve_kernel", "barrier")]
    code = ("import json, sys\n"
            "from respectra.cli import main\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert main(['--config', cfg]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy' or m.startswith('numpy.ma.')\n"
            "                        or m == 'numpy.ma')))\n")
    cfgs = [_write_cfg(tmp_path, doc, f"{i}.json") for i, doc in enumerate(docs)]
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *cfgs], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _split(path: Path):
    """An artifact as (skeleton, float arrays, row labels): the floats of a
    JSON value or list, and every float column of a CSV, become 1-d arrays
    named by their JSON key or CSV column; the skeleton holds the rest (text,
    integers, shape) with a marker in their place.  A CSV row is labelled by
    its first cell, a JSON list entry by its index."""
    arrays = {}

    def take(name, values):
        arrays[name] = np.atleast_1d(np.array(values, dtype=float))
        return "<float>"

    if path.suffix == ".json":
        def walk(x, name):
            if isinstance(x, float) or (isinstance(x, list) and x
                                        and all(isinstance(v, float) for v in x)):
                return take(name, x)
            if isinstance(x, dict):
                return {k: walk(v, f"{name}.{k}" if name else k) for k, v in x.items()}
            return ([walk(v, f"{name}[{i}]") for i, v in enumerate(x)]
                    if isinstance(x, list) else x)
        return walk(json.loads(path.read_text()), ""), arrays, None
    lines = path.read_text().splitlines()
    skeleton, header = lines[:2], lines[1].split(",")
    cols = list(zip(*(line.split(",") for line in lines[2:])))
    for name, col in zip(header, cols):
        try:
            values = [float(c) for c in col]
        except ValueError:
            values = None
        integers = all(c.lstrip("-").isdigit() for c in col)
        skeleton.append(list(col) if values is None or integers else take(name, values))
    return skeleton, arrays, [f"{header[0]}={c}" for c in cols[0]]


@pytest.mark.parametrize("name", sorted(RERUN_CONFIGS))
def test_artifacts_match_the_recorded_ones(tmp_path, name):
    # every number within 1e-12 of the recorded artifacts, relative to the
    # largest magnitude of its array; text and integers exactly as recorded.
    # A mismatch names the array, its worst row and both values there
    out = _run(tmp_path, name)
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(p.name for p in (GOLDEN / name).iterdir())
    for fname in files:
        skeleton, arrays, _ = _split(out / fname)
        ref_skeleton, ref_arrays, rows = _split(GOLDEN / name / fname)
        assert skeleton == ref_skeleton, fname
        for key, ref in ref_arrays.items():
            got = arrays[key]
            assert got.shape == ref.shape, f"{fname}: {key}"
            i = int(np.argmax(np.abs(got - ref)))
            row = f"row {i}" if rows is None else rows[i]
            assert abs(got[i] - ref[i]) <= 1e-12 * np.max(np.abs(ref)), (
                f"{fname}: {key} at {row}: {float(got[i])!r}, recorded {float(ref[i])!r}")


def _moves(old: Path, new: Path) -> list:
    """What re-recording the artifacts in ``old`` as those in ``new`` moves:
    for each float array, 'file: key: move', its largest change relative to
    the largest magnitude of the recorded array, and a line for each file or
    array added, removed or reshaped and each file whose text or integers
    changed."""
    lines = []
    olds, news = ({p.name for p in d.iterdir()} for d in (old, new))
    lines += [f"{fname}: removed" for fname in sorted(olds - news)]
    lines += [f"{fname}: new" for fname in sorted(news - olds)]
    for fname in sorted(olds & news):
        skeleton, arrays, _ = _split(new / fname)
        ref_skeleton, ref_arrays, _ = _split(old / fname)
        if skeleton != ref_skeleton:
            lines.append(f"{fname}: text or integers changed")
        for key, ref in ref_arrays.items():
            got = arrays.get(key)
            if got is None or got.shape != ref.shape:
                lines.append(f"{fname}: {key}: shape {ref.shape} -> "
                             f"{'removed' if got is None else got.shape}")
                continue
            move, scale = float(np.max(np.abs(got - ref))), float(np.max(np.abs(ref)))
            rel = move / scale if scale > 0 else (math.inf if move > 0 else 0.0)
            lines.append(f"{fname}: {key}: {rel:.3g}")
        lines += [f"{fname}: {key}: new" for key in arrays if key not in ref_arrays]
    return lines


def test_rerecording_reports_each_arrays_largest_move(tmp_path):
    # an array rewritten alike moves 0; a changed number moves its array by
    # its change over the recorded maximum; a dropped file is named
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(GOLDEN / "barrier", old)
    shutil.copytree(GOLDEN / "barrier", new)
    sweep = new / "barrier_sweep.csv"
    lines = sweep.read_text().splitlines()
    cells = lines[2].split(",")
    width = float(cells[2])
    cells[2] = repr(width * (1 + 1e-9))
    sweep.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    (new / "barrier.json").unlink()
    widths = _split(old / "barrier_sweep.csv")[1]["width"]
    assert _moves(old, new) == [
        "barrier.json: removed",
        "barrier_sweep.csv: b: 0",
        "barrier_sweep.csv: barrier_length: 0",
        f"barrier_sweep.csv: width: {width * 1e-9 / np.max(np.abs(widths)):.3g}",
        "barrier_sweep.csv: k_tilde: 0"]


def _record(*args):
    """Run this file as a script with ``args``: its completed process, after
    checking that tests/golden kept every byte."""
    src = str(Path(cli.__file__).resolve().parents[1])
    before = sorted((p, p.read_bytes()) for p in GOLDEN.rglob("*") if p.is_file())
    done = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert sorted((p, p.read_bytes()) for p in GOLDEN.rglob("*") if p.is_file()) == before
    return done


def test_recording_refuses_without_rerecord():
    # running this file as a script rewrites tests/golden only when asked to
    done = _record()
    assert done.returncode != 0 and "--rerecord" in done.stderr


def test_recording_refuses_an_unknown_set():
    # every name is checked before any set is re-recorded
    done = _record("--rerecord", "validate", "no_such_set")
    assert done.returncode != 0 and "no_such_set" in done.stderr


if __name__ == "__main__":
    # re-record tests/golden, every set or only the named ones:
    # PYTHONPATH=src python tests/test_cli.py --rerecord [NAME ...]
    import tempfile
    if sys.argv[1:2] != ["--rerecord"]:
        sys.exit("refusing to overwrite tests/golden, the artifacts the test suite "
                 "compares against; pass --rerecord [NAME ...] to re-record them")
    names = sys.argv[2:] or sorted(RERUN_CONFIGS)
    unknown = [name for name in names if name not in RERUN_CONFIGS]
    if unknown:
        sys.exit(f"no recorded set named {', '.join(unknown)}; "
                 f"the sets are {', '.join(sorted(RERUN_CONFIGS))}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            out = _run(Path(tmp), name)
            # each rewritten array's largest move against the old recording
            moves = _moves(GOLDEN / name, out) if (GOLDEN / name).is_dir() else ["new set"]
            print("\n".join(f"{name}/{line}" for line in moves))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(out, GOLDEN / name)
