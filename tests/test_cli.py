import json
import shutil

import numpy as np
import pytest

from respectra import oracle
from respectra.cli import main


def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MODEL = {"family": "sqrt_exp", "params": [1.0], "omega": 1.0, "epsilon": 0.1,
         "contour": {"n_nodes": 128}}


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


def test_evolve_past_the_oracle_recurrence_is_config_error(tmp_path, capsys):
    # eps = 0.03 puts the 5/rate horizon at t = 2403; 1000 bins on [0, 20]
    # revive at t = 2 pi 1000 / 20 = 314, where the oracle column stops
    # meaning anything; 7651 bins are the fewest that reach the horizon
    doc = {"command": "evolve", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, epsilon=0.03), "grid": {"oracle_n": 1000}}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "oracle_n >= 7651" in err
    assert not (tmp_path / "o" / "evolve.csv").exists()


@pytest.mark.parametrize("kernel", [None, "separable_sqrt_exp"])
def test_evolve_oracle_needs_no_dense_eigh(tmp_path, monkeypatch, kernel):
    # kernel-free and factored-kernel models take the O(n^2) secular oracle
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
    last = traj[-1].split(",")
    assert abs(float(last[3]) - 1.0) < 1e-8      # probability column stays 1


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


def test_validate_without_a_model_takes_the_node_override(tmp_path):
    # a model-less validate config checks the default model, and --nodes
    # sizes its contour like any other model's
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc), "--nodes", "300", "--dump-grid"]) == 0
    _assert_validate_table(tmp_path / "o")
    assert len((tmp_path / "o" / "grid.csv").read_text().splitlines()) == 2 + 300


def test_validate_refuses_a_kernel_model(tmp_path, capsys):
    # refused before any check runs, not failed check by check
    doc = {"command": "validate", "output_dir": str(tmp_path / "o"),
           "model": dict(MODEL, kernel="separable_sqrt_exp"), "seed": 7}
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "separable_sqrt_exp" in err and "ROADMAP item 3" in err
    assert not (tmp_path / "o" / "validate.csv").exists()


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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_is_config_error(tmp_path, capsys, name):
    doc = dict(MALFORMED[name], output_dir=str(tmp_path / "o"))
    assert main(["--config", _write_cfg(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


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


def test_grid_dump_flag(tmp_path):
    doc = {"command": "spectrum", "output_dir": str(tmp_path / "o"), "model": MODEL}
    assert main(["--config", _write_cfg(tmp_path, doc), "--dump-grid"]) == 0
    lines = (tmp_path / "o" / "grid.csv").read_text().splitlines()
    assert lines[1] == "node_re,node_im,weight_re,weight_im"
    assert len(lines) == 2 + MODEL["contour"]["n_nodes"]


RERUN_CONFIGS = {
    "spectrum": {"model": MODEL},
    "evolve": {"model": MODEL, "grid": {"t_points": 32, "oracle_n": 800}},
    "liouville": {"model": dict(MODEL, epsilon=0.05),
                  "grid": {"liouville_n": 64, "t_points": 16}},
    "barrier": {"barrier": {"a": 0.8, "b": 10.0, "v0": 0.25, "v1": 0.092},
                "grid": {"sweep_points": 5}},
    "validate": {"model": MODEL, "seed": 11},
}


@pytest.mark.parametrize("command", sorted(RERUN_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    # the same config run twice into the same cleared directory writes the
    # same artifact bytes
    out = tmp_path / "o"
    doc = dict(RERUN_CONFIGS[command], command=command, output_dir=str(out))
    cfg = _write_cfg(tmp_path, doc)
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert main(["--config", cfg]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]
