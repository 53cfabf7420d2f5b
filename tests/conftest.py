import atexit
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from respectra.contour import ContourSpec, build_contour, real_axis_grid
from respectra.model import make_model

# property tests draw the same examples on every run and leave no example
# database behind; the cache of source constants hypothesis writes even so
# goes to a temporary directory instead of the checkout
settings.register_profile("respectra", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("respectra")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="respectra-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(scope="session")
def default_spec():
    return ContourSpec(depth=0.5, cutoff=20.0, shape="rectangle", n_nodes=200)


@pytest.fixture(scope="session")
def default_grid(default_spec):
    return build_contour(default_spec)


@pytest.fixture(scope="session")
def default_model(default_spec):
    # sqrt(z) exp(-z/2) coupling, level at 1, coupling 0.1
    return make_model("sqrt_exp", [1.0], 1.0, 0.1, default_spec)


@pytest.fixture(scope="session")
def axis_grid():
    return real_axis_grid(20.0, 400)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
