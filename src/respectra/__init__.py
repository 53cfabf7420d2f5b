"""Resonance spectral decompositions for a discrete level coupled to a
continuum, on deformed complex contours, with a Liouville-space extension."""

from .barrier import (BarrierResonance, BarrierSpec, even_scattering_state,
                      matrix_elements, resonance_width, solve_bound_state,
                      to_friedrichs_model)
from .contour import (ContourGrid, ContourSpec, build_contour, integrate_contour,
                      plemelj_integral, real_axis_grid)
from .dynamics import (DecayCurve, decay_rate, exponential_approx, oracle_amplitude,
                       oracle_survival_curve, survival_curve, transition_amplitude_curve,
                       transition_amplitude_slope0)
from .errors import (AnalyticityError, BoundStateError, ChannelClosedError, ConfigError,
                     ContourError, ConvergenceError, DegeneratePairError, EvaluationError,
                     RespectraError)
from .friedrichs import PoleResult, exact_system, find_pole
from .liouville import (BlockObservable, GeneralizedState, LiouvilleGrids,
                        LiouvilleSystem, RelaxationCurve, apply_L, check_physicality,
                        evolve_state, identity_observable, relaxation_curve,
                        unstable_state_functional)
from .model import (FormFactor, FormFactor2, ModelSpec, eval_V, eval_V2, eval_Vbar,
                    make_model, model_from_dict, separable_test_kernel)
from .oracle import (DiscretizedSystem, SecularSystem, commutator_apply, discretize,
                     propagate, secular_system)
from .perturbation import (BiorthogonalSystem, PerturbationSeries, normalize_pair,
                           pair_coeffs, perturb_continuous, perturb_discrete)
from .states import AnalyticVector, random_analytic, unstable_state

__version__ = "0.1.0"
