"""Model definitions: a discrete level embedded in a continuum, coupled by an
analytically continuable form factor and an optional continuum-continuum kernel.

The registry families are closed forms whose only branch point sits at the
origin (principal square root, cut on the negative real axis), so every
contour of bounded depth stays inside the analytic region.  The coupling
constant multiplies the form factor linearly and the kernel quadratically.

Every row of a model, V, Vbar(z) = conj(V(conj z)) and the kernel factor g,
is evaluated at points checked against the declared analyticity region,
which refuses a point off it rather than return a number there.
``eval_V``, ``eval_Vbar`` and ``eval_kernel_factor`` check and evaluate one
row; ``sample_rows`` checks a set of points once and then evaluates each row
there once, the one check serving Vbar too, since the region is symmetric
under conjugation.  So a table costs one check: ``SampledRows`` samples
one on a principal value, for a system's families, ``friedrichs.SampledEta``
and each ``liouville`` curve; the discrete branch samples its node rows so
too (``perturbation.perturb_discrete``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contour import MIN_NODES, ContourSpec, SampledPV
from .errors import AnalyticityError, ConfigError, ContourError

_REGION_SLACK_RE = 0.05
_REGION_SLACK_IM = 0.05


@dataclass(frozen=True)
class FormFactor:
    """Coupling function between the discrete level and the continuum.

    ``fn`` is the analytic continuation; ``pole_depth`` is the distance from
    the real axis to the nearest singularity off the origin (None = entire up
    to the origin branch point).
    """

    family_id: str
    params: tuple
    fn: Callable = field(repr=False)
    pole_depth: float | None = None


@dataclass(frozen=True)
class FormFactor2:
    """Continuum-continuum kernel K(z, z') = h(z) h(z'), held as its analytic
    ``factor`` h.

    A kernel is regular (no delta component on the diagonal) and Hermitian
    on the real axis, so h is real on the positive axis.  Every layer, the
    perturbative engine and both oracles, evaluates it through h alone
    (``eval_kernel_factor``).
    """

    family_id: str
    factor: Callable = field(repr=False)


def _sqrt_exp(params):
    a = params[0] if params else 1.0
    return lambda z: np.sqrt(z + 0j) * np.exp(-0.5 * a * np.asarray(z, dtype=complex))


def _poly_exp(params):
    a = params[0] if params else 1.0
    return lambda z: np.asarray(z, dtype=complex) * np.exp(-a * np.asarray(z, dtype=complex))


def _lorentz_sqrt(params):
    s = params[0]
    return lambda z: np.sqrt(z + 0j) / (1.0 + (np.asarray(z, dtype=complex) / s) ** 2)


FAMILIES: dict[str, dict] = {
    "sqrt_exp": {"build": _sqrt_exp, "n_params": (0, 1), "pole_depth": lambda p: None},
    "poly_exp": {"build": _poly_exp, "n_params": (0, 1), "pole_depth": lambda p: None},
    "lorentz_sqrt": {"build": _lorentz_sqrt, "n_params": (1, 1),
                     "pole_depth": lambda p: float(p[0])},
}


def make_form_factor(family_id: str, params=()) -> FormFactor:
    if family_id not in FAMILIES:
        raise ConfigError(f"unknown form-factor family {family_id!r}; "
                          f"registered: {sorted(FAMILIES)}")
    entry = FAMILIES[family_id]
    lo, hi = entry["n_params"]
    params = tuple(float(p) for p in params)
    if not lo <= len(params) <= hi:
        raise ConfigError(f"family {family_id!r} takes {lo}..{hi} params, got {len(params)}")
    if not all(0 < p < math.inf for p in params):
        raise ConfigError(f"family {family_id!r} params must be positive and finite, got {params}")
    return FormFactor(family_id, params, entry["build"](params), entry["pole_depth"](params))


def separable_test_kernel() -> FormFactor2:
    """The built-in separable kernel h(z) h(z'), h(z) = sqrt(z) exp(-z/2).

    Separability keeps every second-order double integral one dimensional and
    the kernel is manifestly regular on the diagonal.
    """
    return FormFactor2("separable_sqrt_exp", _sqrt_exp((1.0,)))


@dataclass(frozen=True)
class ModelSpec:
    """The tuple (level, coupling, form factor, optional kernel, contour)."""

    omega_level: float
    coupling: float
    form_factor: FormFactor
    kernel: FormFactor2 | None = None
    contour: ContourSpec = field(default_factory=ContourSpec)

    def __post_init__(self):
        _check_level(self.omega_level)
        if not 0 <= self.coupling < math.inf:
            raise ConfigError(f"coupling must be non-negative and finite, got {self.coupling}")
        if self.contour.cutoff <= self.omega_level:
            raise ConfigError("contour cutoff must exceed the discrete level")
        pd = self.form_factor.pole_depth
        if pd is not None and pd <= self.contour.depth:
            raise AnalyticityError(
                f"form factor {self.form_factor.family_id!r} has a singularity at depth "
                f"{pd}, inside the contour depth {self.contour.depth}")

    def has_kernel(self) -> bool:
        return self.kernel is not None and self.coupling > 0


def _check_level(omega_level: float):
    if not 0 < omega_level < math.inf:
        raise ConfigError(f"omega_level must be positive and finite, got {omega_level}")


def default_contour(omega_level: float, n_nodes: int = 200,
                    shape: str = "rectangle") -> ContourSpec:
    """Default path: rectangle of depth 0.5 truncated at max(20, 10*level)."""
    _check_level(omega_level)
    return ContourSpec(depth=0.5, cutoff=max(20.0, 10.0 * omega_level),
                       shape=shape, n_nodes=n_nodes)


def make_model(family_id: str, params, omega_level: float, coupling: float,
               contour_spec: ContourSpec | None = None,
               kernel: FormFactor2 | str | None = None) -> ModelSpec:
    """Validated model construction from registry identifiers."""
    ff = make_form_factor(family_id, params)
    if contour_spec is None:
        contour_spec = default_contour(omega_level)
    if isinstance(kernel, str):
        if kernel != "separable_sqrt_exp":
            raise ConfigError(f"unknown kernel {kernel!r}")
        kernel = separable_test_kernel()
    return ModelSpec(omega_level=float(omega_level), coupling=float(coupling),
                     form_factor=ff, kernel=kernel, contour=contour_spec)


def config_number(value, name: str, integer: bool = False):
    """``value`` checked to be a finite JSON number (an integral one if
    ``integer``)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


# the default of a key that a document must give
REQUIRED = object()


def check_section(doc, schema: dict, name: str) -> dict:
    """``doc`` checked to be a JSON object with the keys of ``schema``.

    ``schema`` maps each key to ``(kind, default)`` or ``(kind, default,
    least)``.  A kind is "string", "number", "positive" (a number above 0),
    "integer", "numbers" (a list of numbers), a tuple of the strings
    allowed, or the schema of a nested section.  A default of REQUIRED makes
    the key required, and one of None leaves the value of an absent key to
    the code that builds from the section; a number must be at least
    ``least``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}; allowed {sorted(schema)}")
    for key, (kind, default, *least) in schema.items():
        label = f"{name} {key}"
        if key not in doc:
            if default is REQUIRED:
                raise ConfigError(f"{name} missing required key {key!r}")
            continue
        value = doc[key]
        if isinstance(kind, dict):
            check_section(value, kind, label)
        elif isinstance(kind, tuple):
            if not isinstance(value, str) or value not in kind:
                raise ConfigError(f"{label} must be one of {kind}, got {value!r}")
        elif kind == "string":
            if not isinstance(value, str):
                raise ConfigError(f"{label} must be a string, got {value!r}")
        elif kind == "numbers":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{label} must be a list, got {value!r}")
            for entry in value:
                config_number(entry, f"{label} entry")
        else:
            config_number(value, label, integer=kind == "integer")
            if least and value < least[0]:
                raise ConfigError(f"{label} must be at least {least[0]}, got {value!r}")
            if kind == "positive" and not value > 0:
                raise ConfigError(f"{label} must be positive, got {value!r}")
    return doc


CONTOUR_SCHEMA = {"depth": ("number", None), "cutoff": ("number", None),
                  "n_nodes": ("integer", None, MIN_NODES), "shape": ("string", None)}
MODEL_SCHEMA = {"family": (tuple(FAMILIES), REQUIRED), "params": ("numbers", None),
                "omega": ("number", REQUIRED), "epsilon": ("number", REQUIRED),
                "contour": (CONTOUR_SCHEMA, None), "kernel": ("string", None)}


def model_from_dict(doc: dict) -> ModelSpec:
    """Model from a JSON-style document checked against ``MODEL_SCHEMA``."""
    check_section(doc, MODEL_SCHEMA, "model")
    omega = float(doc["omega"])
    cspec = None
    if "contour" in doc:
        base = default_contour(omega)
        given = doc["contour"]
        try:
            cspec = ContourSpec(depth=float(given.get("depth", base.depth)),
                                cutoff=float(given.get("cutoff", base.cutoff)),
                                shape=given.get("shape", base.shape),
                                n_nodes=int(given.get("n_nodes", base.n_nodes)))
        except ContourError as e:
            # a contour the document asks for but cannot have is a config mistake
            raise ConfigError(str(e)) from e
    try:
        return make_model(doc["family"], doc.get("params", ()), omega, float(doc["epsilon"]),
                          cspec, doc.get("kernel"))
    except AnalyticityError as e:
        # so is a contour that reaches a singularity of the form factor it names
        raise ConfigError(str(e)) from e


def _check_region(model: ModelSpec, *zs):
    """Refuse unless every point of the arrays ``zs``, checked as one set,
    lies in the model's declared analyticity region.  The region is
    symmetric under conjugation, so a set passes exactly when its conjugate
    does, and the check of z serves Vbar(z) = conj(V(conj z)) too."""
    zs = (np.asarray(zs[0], dtype=complex) if len(zs) == 1
          else np.concatenate([np.ravel(np.asarray(z, dtype=complex)) for z in zs]))
    sre = _REGION_SLACK_RE * max(1.0, model.contour.cutoff)
    sim = max(_REGION_SLACK_IM * model.contour.depth, 1e-2)
    ok = ((zs.real >= -0.01) & (zs.real <= model.contour.cutoff + sre)
          & (np.abs(zs.imag) <= model.contour.depth + sim))
    if not np.all(ok):
        bad = np.atleast_1d(zs)[~np.atleast_1d(ok)][:3]
        raise AnalyticityError(f"evaluation point(s) {bad} outside the declared "
                               "analyticity region of the model")


def _row(model: ModelSpec, name: str, z):
    """Row ``name`` of the model at z, unchecked: "V", the coupling function,
    "Vbar", its conjugate extension conj(V(conj z)), or "g", the kernel
    factor."""
    if name == "V":
        return model.coupling * model.form_factor.fn(z)
    if name == "Vbar":
        zc = np.conj(np.asarray(z, dtype=complex))
        return np.conj(model.coupling * model.form_factor.fn(zc))
    return model.coupling * model.kernel.factor(z)


def eval_V(model: ModelSpec, z):
    """Coupling function at complex z inside the analyticity strip."""
    _check_region(model, z)
    return _row(model, "V", z)


def eval_Vbar(model: ModelSpec, z):
    """Conjugate-extension rule: conj(V(conj z)).  Equals eval_V for families
    that are real on the positive axis."""
    _check_region(model, z)
    return _row(model, "Vbar", z)


def eval_V2(model: ModelSpec, z, zp):
    """Continuum-continuum kernel with its quadratic coupling factor,
    g(z) g(z')."""
    return eval_kernel_factor(model, z) * eval_kernel_factor(model, zp)


def eval_kernel_factor(model: ModelSpec, z):
    """g = coupling * h at z inside the analyticity strip, so that
    coupling^2 K(z, z') = g(z) g(z')."""
    _check_region(model, z)
    return _row(model, "g", z)


def sample_rows(model: ModelSpec, points, names=None) -> dict:
    """The rows ``names`` of the model at ``points``, after one check of the
    points against the analyticity region: name -> samples, each row
    evaluated once.  ``names`` defaults to "V" and "Vbar", and "g" with a
    kernel; ``points`` is an array, or a tuple of arrays checked as one set,
    and each row has its shape."""
    sets = points if isinstance(points, tuple) else (points,)
    _check_region(model, *sets)
    if names is None:
        names = ("V", "Vbar", "g") if model.has_kernel() else ("V", "Vbar")
    out = {}
    for name in names:
        at = tuple(np.asarray(_row(model, name, z), dtype=complex) for z in sets)
        out[name] = at if isinstance(points, tuple) else at[0]
    return out


class SampledRows:
    """The rows of one model on one ``SampledPV``, sampled once by
    ``sample_rows`` with one region check: V and Vbar, and with a kernel its
    factor g.

    ``nodes[name]`` holds a row at the nodes, (N,), and ``points[name]`` at
    each point of the principal value and its stencil, (M, 5), the point
    first; the names are "V", "Vbar" and "g".  They are sampled at
    ``pv.sampled_at``, one check covering every set there, and ``pv.split``.
    The families of a system, its discrete branch and
    ``friedrichs.SampledEta`` read one table and evaluate no row.
    """

    def __init__(self, model: ModelSpec, pv: SampledPV):
        self.model = model
        self.pv = pv
        rows = {name: pv.split(at) for name, at in sample_rows(model, pv.sampled_at).items()}
        self.nodes, self.points = ({name: at[i] for name, at in rows.items()} for i in (0, 1))
