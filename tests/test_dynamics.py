import math

import numpy as np
import pytest

from respectra.contour import ContourSpec, build_contour
from respectra.dynamics import (decay_rate, default_time_grid, exponential_approx,
                                oracle_amplitude, oracle_survival_curve,
                                survival_curve, transition_amplitude_curve,
                                transition_amplitude_slope0)
from respectra.errors import ConfigError
from respectra.model import make_model
from respectra.oracle import amplitude_curve, discretize
from respectra.perturbation import BiorthogonalSystem
from respectra.states import AnalyticVector, random_analytic, real_axis_inner, unstable_state


@pytest.fixture(scope="module")
def dyn_grid():
    return build_contour(ContourSpec(depth=0.5, cutoff=20.0, n_nodes=400))


@pytest.fixture(scope="module")
def dyn_model():
    return make_model("sqrt_exp", [1.0], 1.0, 0.1,
                      ContourSpec(depth=0.5, cutoff=20.0, n_nodes=400))


@pytest.fixture(scope="module")
def exact_sys(dyn_model, dyn_grid):
    return BiorthogonalSystem.from_exact(dyn_model, dyn_grid)


def test_negative_time_refused(exact_sys):
    with pytest.raises(ConfigError):
        transition_amplitude_curve(exact_sys, unstable_state(), unstable_state(), [0.0, -0.5])
    with pytest.raises(ConfigError):
        exponential_approx(make_model("sqrt_exp", [1.0], 1.0, 0.1), [-1.0])
    # so is a time that is not finite, on the spectral and on the oracle side
    for t in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="non-negative and finite"):
            survival_curve(exact_sys, [0.0, t])
        with pytest.raises(ConfigError, match="non-negative and finite"):
            oracle_survival_curve(exact_sys.model, [0.0, t])


def test_continuation_side_tags_enforced(exact_sys):
    lower_only = AnalyticVector(d=1.0, profile=lambda z: np.exp(-z), side="lower")
    upper_only = AnalyticVector(d=1.0, profile=lambda z: np.exp(-z), side="upper")
    with pytest.raises(ConfigError):
        transition_amplitude_curve(exact_sys, lower_only, unstable_state(), [1.0])
    with pytest.raises(ConfigError):
        transition_amplitude_curve(exact_sys, unstable_state(), upper_only, [1.0])
    with pytest.raises(ValueError, match="side must be one of"):
        AnalyticVector(d=1.0, side="middle")


def test_zero_time_reduces_to_inner_product(exact_sys, axis_grid, rng):
    psi, phi = random_analytic(rng), random_analytic(rng)
    a0 = transition_amplitude_curve(exact_sys, psi, phi, [0.0])[0]
    assert abs(a0 - real_axis_inner(psi, phi, axis_grid)) < 1e-6


def test_free_limit_phase():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    s = BiorthogonalSystem.from_exact(m)
    psi = unstable_state()
    ts = np.array([0.0, 0.7, 3.0])
    a = transition_amplitude_curve(s, psi, psi, ts)
    assert np.max(np.abs(a - np.exp(-1j * 1.0 * ts))) < 1e-14
    assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-14


def test_survival_curve_initial_value(exact_sys, dyn_model):
    ts = default_time_grid(dyn_model, 50)
    c = survival_curve(exact_sys, ts)
    assert abs(c.survival[0] - 1.0) < 1e-9
    assert np.allclose(c.survival, np.abs(c.amplitude) ** 2)


def test_exponential_approx_values(dyn_model):
    rate = decay_rate(dyn_model)
    at_0, at_tau = exponential_approx(dyn_model, [0.0, 1.0 / rate])
    assert at_0 == 1.0 and abs(at_tau - np.exp(-1.0)) < 1e-15
    free = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    assert np.all(exponential_approx(free, [0.0, 5.0]) == 1.0)


def test_survival_tracks_exponential(exact_sys, dyn_model):
    rate = decay_rate(dyn_model)
    ts = np.linspace(0.0, 1.0 / dyn_model.coupling**2, 40)   # the validity window
    c = survival_curve(exact_sys, ts)
    band = np.abs(c.survival - np.exp(-rate * ts))
    assert np.max(band) < 5.0 * dyn_model.coupling**2


def test_spectral_vs_oracle(exact_sys, dyn_model):
    ts = default_time_grid(dyn_model, 120)
    spec_curve = survival_curve(exact_sys, ts)
    # the dense eigendecomposition, not the secular solve the oracle takes
    dsys = discretize(dyn_model, 1200)
    level = np.eye(dsys.dimension)[0]
    orac = np.abs(amplitude_curve(dsys, level, level, ts)) ** 2
    assert np.max(np.abs(spec_curve.survival - orac)) < 1e-3


def test_order2_system_deviation_is_width_mismatch(dyn_model, dyn_grid):
    # the order-2 width misses the true one by the square of the coupling, so
    # the survival deviation peaks near (1/e) eps^2
    s2 = BiorthogonalSystem.from_perturbation(dyn_model, 2, dyn_grid)
    ts = default_time_grid(dyn_model, 120)
    c2 = survival_curve(s2, ts)
    orac = oracle_survival_curve(dyn_model, ts, n_levels=1500)
    peak = np.max(np.abs(c2.survival - orac.survival))
    expect = np.exp(-1.0) * dyn_model.coupling**2
    assert 0.5 * expect < peak < 2.0 * expect


def test_pole_dominance_log_slope(exact_sys, dyn_model):
    rate = decay_rate(dyn_model)
    ts = np.linspace(1.0 / rate, 3.0 / rate, 60)
    c = survival_curve(exact_sys, ts)
    slope = np.polyfit(ts, np.log(c.survival), 1)[0]
    assert abs(slope + rate) / rate < 0.05


def test_slope_at_zero_consistency(exact_sys):
    psi = unstable_state()
    s = transition_amplitude_slope0(exact_sys, psi, psi)
    ts = np.array([0.0, 1e-4, 2e-4])
    amp = transition_amplitude_curve(exact_sys, psi, psi, ts)
    surv = np.abs(amp) ** 2
    fd = (-3 * surv[0] + 4 * surv[1] - surv[2]) / (2e-4)
    assert abs(s - fd) < 1e-6


def test_oracle_richardson(dyn_model):
    ts = default_time_grid(dyn_model, 60)
    a = oracle_survival_curve(dyn_model, ts, n_levels=1000)
    b = oracle_survival_curve(dyn_model, ts, n_levels=2000)
    assert np.max(np.abs(a.survival - b.survival)) < 1e-4


def test_oracle_free_limit():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    psi = unstable_state()
    a = oracle_amplitude(m, psi, psi, [1.3], n_levels=300)
    assert a.shape == (1,) and abs(a[0] - np.exp(-1.3j)) < 1e-12


def test_oracle_t0_unit(dyn_model):
    psi = unstable_state()
    assert abs(oracle_amplitude(dyn_model, psi, psi, [0.0], n_levels=300)[0] - 1.0) < 1e-13


def test_kernel_dynamics_against_oracle(default_spec):
    # with the separable kernel the assembled system still tracks the matrix
    # oracle; tolerance frozen from the measured deviation (1.4e-3) with
    # headroom for grid variation
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1,
                   ContourSpec(depth=0.5, cutoff=20.0, n_nodes=150),
                   kernel="separable_sqrt_exp")
    ts = default_time_grid(m, 50)
    s = BiorthogonalSystem.from_perturbation(m, 2)
    c = survival_curve(s, ts)
    orac = oracle_survival_curve(m, ts, n_levels=1500)
    assert np.max(np.abs(c.survival - orac.survival)) < 2.5e-3
