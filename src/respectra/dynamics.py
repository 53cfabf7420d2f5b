"""Time evolution from the spectral decomposition, the exponential law, and
the finite-matrix reference amplitudes.

The reference ("oracle") amplitudes propagate the midpoint-grid matrix of
``respectra.oracle``, on the model's continuum [0, cutoff], exactly, through
its secular roots (``oracle.secular_system``), with or without a kernel.

The spectral amplitude is the pole term plus the curve integral,
A(t) = e^{-i lambda t} <Psi|f> <f~|Phi> + \\int du e^{-iut} <Psi|f_u><f~_u|Phi>;
on the deformed path every continuum factor decays for t > 0, which is the
whole point of pushing the curve below the axis.  Negative times would turn
those factors into growing exponentials and are refused.  Every function of
time takes a grid of times and returns an array over it.  Both amplitudes
are a sum of m_k exp(-i z_k t) over a spectrum, the pole and the curve nodes
or the oracle's eigenvalues, taken at every time by ``contour.phase_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import phase_sum
from .errors import ConfigError
from .model import ModelSpec, eval_V
from .oracle import DiscretizedSystem, SecularSystem, amplitude_curve, secular_system
from .perturbation import BiorthogonalSystem
from .states import AnalyticVector, unstable_state


@dataclass(frozen=True)
class DecayCurve:
    times: np.ndarray
    survival: np.ndarray
    amplitude: np.ndarray


def _check_times(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all((ts >= 0) & (ts < np.inf)):
        raise ConfigError("times must be non-negative and finite: at a negative one a "
                          "decaying mode would grow exponentially")
    return ts


def decay_rate(model: ModelSpec) -> float:
    """The exponential-law rate 2 pi V(Omega)^2."""
    v = complex(eval_V(model, model.omega_level))
    return float(2.0 * np.pi * (v * np.conj(v)).real)


def transition_amplitude_curve(system: BiorthogonalSystem, psi: AnalyticVector,
                               phi: AnalyticVector, ts) -> np.ndarray:
    """<Psi| exp(-iHt) |Phi> on a grid of times: the overlaps are computed
    once and the pole and the curve nodes summed as one spectrum by
    ``contour.phase_sum``."""
    if psi.side == "lower" or phi.side == "upper":
        raise ConfigError("bra profiles must continue upward, ket profiles downward")
    ts = _check_times(ts)
    a0, b0, a, b = system.overlap_tables(psi, phi)
    return phase_sum(ts, np.append(system.pole, system.grid.nodes),
                     np.append(a0 * b0, system.grid.weights * a * b))


def transition_amplitude_slope0(system: BiorthogonalSystem, psi: AnalyticVector,
                                phi: AnalyticVector) -> float:
    """Exact d/dt of |amplitude|^2 at t = 0 from the mode sum."""
    a0, b0, a, b = system.overlap_tables(psi, phi)
    m = system.grid.weights * a * b
    amp0 = a0 * b0 + np.sum(m)
    damp0 = -1j * (system.pole * a0 * b0 + np.sum(system.grid.nodes * m))
    return float(2.0 * np.real(np.conj(amp0) * damp0))


def survival_curve(system: BiorthogonalSystem, t_grid) -> DecayCurve:
    """Survival of the bare level: amplitude and its squared modulus."""
    psi, ts = unstable_state(), _check_times(t_grid)
    amp = transition_amplitude_curve(system, psi, psi, ts)
    return DecayCurve(ts, np.abs(amp) ** 2, amp)


def exponential_approx(model: ModelSpec, ts) -> np.ndarray:
    """The textbook law exp(-2 pi V(Omega)^2 t) on a grid of times."""
    return np.exp(-decay_rate(model) * _check_times(ts))


def default_time_grid(model: ModelSpec, n_points: int = 200, horizon: float = 5.0) -> np.ndarray:
    """n points on [0, horizon / rate]: resolves both the slope region and the
    late pole-dominated tail."""
    rate = decay_rate(model)
    if rate == 0.0:
        return np.linspace(0.0, horizon, n_points)
    return np.linspace(0.0, horizon / rate, n_points)


def _vector_on_grid(vec: AnalyticVector, sys: DiscretizedSystem | SecularSystem) -> np.ndarray:
    out = np.zeros(sys.dimension, dtype=complex)
    out[0] = vec.d
    out[1:] = vec.at(sys.grid) * np.sqrt(sys.d_omega)
    return out


def oracle_amplitude(model: ModelSpec, psi: AnalyticVector, phi: AnalyticVector,
                     ts, n_levels: int = 2000) -> np.ndarray:
    """Reference amplitudes on a grid of times, of the n_levels-bin
    discretization of [0, cutoff] (exact propagation)."""
    ts = _check_times(ts)
    sys = secular_system(model, n_levels)
    return amplitude_curve(sys, _vector_on_grid(psi, sys), _vector_on_grid(phi, sys), ts)


def oracle_survival_curve(model: ModelSpec, t_grid, n_levels: int = 2000) -> DecayCurve:
    psi, ts = unstable_state(), _check_times(t_grid)
    amp = oracle_amplitude(model, psi, psi, ts, n_levels)
    return DecayCurve(ts, np.abs(amp) ** 2, amp)
