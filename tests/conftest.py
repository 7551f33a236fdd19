# The paper-ex1 preset deliberately exceeds the worst-case utilization
# margin and warns on construction; the filter lives in pyproject so runs
# stay readable.

import numpy as np
import pytest

from cscgd import make_rng
from cscgd.harness import SAMPLE_AVERAGE_ORACLE
from cscgd.oracles import ergodic_fstar
from cscgd.problems import paper_ex2


@pytest.fixture
def rng():
    return make_rng(20240801)


@pytest.fixture(scope="session")
def ex2_reference():
    """paper-ex2-k5's reference optimum at the harness's oracle parameters."""
    return ergodic_fstar(paper_ex2(), **SAMPLE_AVERAGE_ORACLE)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.max(np.abs(actual - expected))
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"
