import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from respectra.contour import ContourSpec
from respectra.errors import AnalyticityError, ConfigError
from respectra.model import (ModelSpec, eval_V, eval_V2, eval_Vbar, eval_kernel_factor,
                             make_model, model_from_dict, sample_rows, separable_test_kernel)
from respectra.states import random_analytic, real_axis_inner
import scipy.integrate as si


def test_registry_construction(default_model):
    # closed-form value: 0.1 * sqrt(1) * exp(-1/2)
    assert abs(eval_V(default_model, 1.0) - 0.06065306597126334) < 1e-16


def test_zero_coupling_is_free():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.0)
    z = np.linspace(0.1, 5.0, 7)
    assert np.all(eval_V(m, z) == 0)
    assert m.has_kernel() is False


def test_analyticity_guard():
    # a pole at depth 1.0 under a contour of depth 1.5 is rejected
    with pytest.raises(AnalyticityError):
        make_model("lorentz_sqrt", [1.0], 1.0, 0.1,
                   ContourSpec(depth=1.5, cutoff=20.0, n_nodes=64))
    # same family above a shallower contour is fine
    make_model("lorentz_sqrt", [1.0], 1.0, 0.1,
               ContourSpec(depth=0.5, cutoff=20.0, n_nodes=64))


def test_unknown_family():
    with pytest.raises(ConfigError):
        make_model("gauss", [1.0], 1.0, 0.1)
    # a family given parameters it cannot take, or a kernel it does not know
    for family, params, message in (("sqrt_exp", [1.0, 2.0], "takes 0..1 params"),
                                    ("lorentz_sqrt", [], "takes 1..1 params"),
                                    ("sqrt_exp", [0.0], "positive and finite, got (0.0,)"),
                                    ("sqrt_exp", [math.nan], "positive and finite, got (nan,)"),
                                    ("lorentz_sqrt", [math.inf], "finite, got (inf,)"),
                                    ("lorentz_sqrt", [math.nan], "finite, got (nan,)")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_model(family, params, 1.0, 0.1)
    with pytest.raises(ConfigError, match="unknown kernel 'gauss'"):
        make_model("sqrt_exp", [1.0], 1.0, 0.1, kernel="gauss")


def test_spec_invariants():
    with pytest.raises(ConfigError):
        make_model("sqrt_exp", [1.0], -1.0, 0.1)
    with pytest.raises(ConfigError):
        make_model("sqrt_exp", [1.0], 1.0, -0.1)
    with pytest.raises(ConfigError):
        make_model("sqrt_exp", [1.0], 30.0, 0.1,
                   ContourSpec(depth=0.5, cutoff=20.0, n_nodes=64))
    # a level or coupling that is not finite is refused by its value, the
    # level before any default contour is built from it
    spec = ContourSpec(depth=0.5, cutoff=20.0, n_nodes=64)
    for omega, eps, contour, message in (
            (1.0, math.nan, None, "coupling must be non-negative and finite, got nan"),
            (1.0, math.inf, spec, "coupling must be non-negative and finite, got inf"),
            (math.inf, 0.1, None, "omega_level must be positive and finite, got inf"),
            (math.nan, 0.1, None, "omega_level must be positive and finite, got nan"),
            (math.nan, 0.1, spec, "omega_level must be positive and finite, got nan")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_model("sqrt_exp", [1.0], omega, eps, contour)


def test_schwarz_reflection(default_model, rng):
    z = (rng.uniform(0.1, 18.0, 100) + 1j * rng.uniform(-0.5, 0.5, 100))
    lhs = np.conj(np.asarray(eval_V(default_model, np.conj(z))))
    rhs = np.asarray(eval_Vbar(default_model, z))
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_real_axis_agreement(default_model):
    w = np.linspace(0.05, 15.0, 9)
    v = np.asarray(eval_V(default_model, w))
    vb = np.asarray(eval_Vbar(default_model, w))
    assert np.max(np.abs(v - vb)) < 1e-16


def test_coupling_linearity(default_model, rng):
    m2 = make_model("sqrt_exp", [1.0], 1.0, 0.2, default_model.contour)
    z = rng.uniform(0.1, 10.0, 20) + 1j * rng.uniform(-0.4, 0.4, 20)
    assert np.max(np.abs(np.asarray(eval_V(m2, z))
                         - 2.0 * np.asarray(eval_V(default_model, z)))) == 0.0


def test_region_guard(default_model):
    with pytest.raises(AnalyticityError):
        eval_V(default_model, 5.0 - 3.0j)
    with pytest.raises(AnalyticityError):
        eval_V(default_model, 40.0 + 0j)


def test_one_point_outside_the_region_is_refused_by_every_evaluator():
    # g is checked like V and Vbar: off the declared region none of the
    # three returns a number
    m = make_model("sqrt_exp", [1.0], 1.0, 0.1, kernel="separable_sqrt_exp")
    for evaluate in (eval_V, eval_Vbar, eval_kernel_factor):
        with pytest.raises(AnalyticityError):
            evaluate(m, 5.0 - 3.0j)


# the declared region of REGION_MODEL: -0.01 <= Re z <= 20 + 1, |Im z| <= 0.5 + 0.025
REGION_MODEL = make_model("sqrt_exp", [1.0], 1.0, 0.1, ContourSpec(0.5, 20.0, "rectangle", 64),
                          "separable_sqrt_exp")
REGION_RE, REGION_IM = (-0.01, 21.0), 0.525
_EDGES = [REGION_RE[0], REGION_RE[1], np.nextafter(REGION_RE[0], -1.0),
          np.nextafter(REGION_RE[1], 99.0)]
REGION_POINTS = st.one_of(
    # inside
    st.builds(complex, st.floats(0.0, 20.0), st.floats(-0.5, 0.5)),
    # on an edge, or one ulp beyond it
    st.builds(complex, st.sampled_from(_EDGES), st.floats(-0.5, 0.5)),
    st.builds(complex, st.floats(0.0, 20.0),
              st.sampled_from([REGION_IM, -REGION_IM, np.nextafter(REGION_IM, 1.0)])),
    # outside, and NaN
    st.builds(complex, st.floats(-5.0, 40.0), st.floats(-3.0, 3.0)),
    st.sampled_from([complex(np.nan, 0.0), complex(1.0, np.nan)]))


def _refusal(evaluate, z):
    try:
        evaluate(z)
    except AnalyticityError as e:
        return str(e)
    return None


@given(points=st.lists(REGION_POINTS, min_size=1, max_size=6), conjugates=st.booleans())
def test_one_check_refuses_what_each_evaluator_refuses(points, conjugates):
    # the sampler's one region check refuses exactly the point sets that
    # eval_V, eval_Vbar and eval_kernel_factor refuse, with their message,
    # and those are the sets with a point outside the region or NaN; a set
    # it takes gives each evaluator's values bit for bit
    z = np.array(points + [p.conjugate() for p in points] * conjugates)
    m = REGION_MODEL
    inside = np.all((z.real >= REGION_RE[0]) & (z.real <= REGION_RE[1])
                    & (np.abs(z.imag) <= REGION_IM))
    refusals = {_refusal(lambda z: f(m, z), z)
                for f in (eval_V, eval_Vbar, eval_kernel_factor, sample_rows)}
    assert len(refusals) == 1
    assert (refusals == {None}) == bool(inside)
    if inside:
        rows = sample_rows(m, z)
        for name, f in (("V", eval_V), ("Vbar", eval_Vbar), ("g", eval_kernel_factor)):
            assert rows[name].tobytes() == np.asarray(f(m, z), dtype=complex).tobytes()


def test_separable_kernel_hermitian():
    m = make_model("sqrt_exp", [1.0], 1.0, 0.3, kernel=separable_test_kernel())
    w = np.linspace(0.1, 8.0, 6)
    mat = np.asarray(eval_V2(m, w[:, None], w[None, :]))
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-15


def test_kernel_quadratic_coupling():
    m1 = make_model("sqrt_exp", [1.0], 1.0, 0.1, kernel="separable_sqrt_exp")
    m2 = make_model("sqrt_exp", [1.0], 1.0, 0.2, kernel="separable_sqrt_exp")
    assert abs(eval_V2(m2, 1.0, 2.0) - 4.0 * eval_V2(m1, 1.0, 2.0)) < 1e-18


def test_model_from_dict_roundtrip():
    m = model_from_dict({"family": "sqrt_exp", "params": [1.0], "omega": 1.5,
                         "epsilon": 0.05,
                         "contour": {"depth": 0.4, "cutoff": 25.0, "n_nodes": 128}})
    assert m.omega_level == 1.5 and m.contour.n_nodes == 128


def test_model_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        model_from_dict({"family": "sqrt_exp", "omega": 1.0, "epsilon": 0.1,
                         "extra": 1})
    with pytest.raises(ConfigError):
        model_from_dict({"family": "sqrt_exp", "omega": 1.0, "epsilon": 0.1,
                         "contour": {"deep": 2}})
    with pytest.raises(ConfigError):
        model_from_dict({"family": "sqrt_exp", "epsilon": 0.1})
    with pytest.raises(ConfigError, match="n_nodes must be an integer, got 64.5"):
        model_from_dict({"family": "sqrt_exp", "omega": 1.0, "epsilon": 0.1,
                         "contour": {"n_nodes": 64.5}})



VALID_DOC = {"family": "lorentz_sqrt", "params": [2.0], "omega": 1.0, "epsilon": 0.1,
             "kernel": "separable_sqrt_exp",
             "contour": {"depth": 0.5, "cutoff": 20.0, "n_nodes": 64, "shape": "rectangle"}}
# dotted names are fields of the contour section; four of the ten, so that
# most documents carry a drawn contour value
DOC_FIELDS = ["family", "params", "omega", "epsilon", "kernel", "contour",
              "contour.depth", "contour.cutoff", "contour.n_nodes", "contour.shape"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=4)


@given(fields=st.lists(st.sampled_from(DOC_FIELDS), min_size=1, max_size=2, unique=True),
       data=st.data())
def test_model_from_dict_fuzz(fields, data):
    # a valid document with one or two fields replaced by arbitrary JSON
    # values gives a model or a config error, the form-factor pole the
    # replaced values put inside the contour depth included
    doc = copy.deepcopy(VALID_DOC)
    for field in fields:
        value = data.draw(JSON_VALUES, label=field)
        section, _, key = field.rpartition(".")
        target = doc[section] if section else doc
        if isinstance(target, dict):
            target[key] = value
    try:
        model = model_from_dict(doc)
    except ConfigError as e:
        if isinstance(e.__cause__, AnalyticityError):
            assert "inside the contour depth" in str(e)
        return
    assert isinstance(model, ModelSpec)

def test_reference_inner_product_against_quad(axis_grid, rng):
    psi = random_analytic(rng)
    phi = random_analytic(rng)
    got = real_axis_inner(psi, phi, axis_grid)
    re, _ = si.quad(lambda w: (psi.at(w) * phi.at(w)).real, 0, 20.0, limit=400)
    im, _ = si.quad(lambda w: (psi.at(w) * phi.at(w)).imag, 0, 20.0, limit=400)
    assert abs(got - (psi.d * phi.d + re + 1j * im)) < 1e-10
