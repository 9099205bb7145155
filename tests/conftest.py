import numpy as np
import pytest

from driftlab.moments import MomentMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240807)


def make_moments(phi_hat, sizes=None, pooled=None):
    """MomentMatrix straight from a (K+1, L) array (row 0 = target)."""
    phi_hat = np.asarray(phi_hat, dtype=float)
    k = phi_hat.shape[0] - 1
    return MomentMatrix(
        phi_hat=phi_hat,
        names=tuple(f"f{i}" for i in range(phi_hat.shape[1])),
        sizes=sizes or (100,) * (k + 1),
        source_names=tuple(f"source_{j + 1}" for j in range(k)),
        target_name="target",
        pooled_var=pooled,
    )


# the weight fit's t and F p-values come from driftlab's own incomplete beta:
# within these of scipy.stats, relative, wherever scipy's value is at least
# 1e-290; below it the two may differ by 1e-290 times the tolerance
T_RTOL = 1e-10
F_RTOL = 1e-11


def assert_tail_close(got, want, rtol):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-290 * rtol)
