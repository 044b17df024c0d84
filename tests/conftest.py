import pytest

from wavekam import enumerate_clusters
from wavekam.blockop import PairedBlockOperator
from wavekam.verify import (_random_block, _random_space_time,
                            rng_for)  # noqa: F401  (tests import rng_for from here)


@pytest.fixture
def lat_d2():
    return enumerate_clusters(2, 3)


@pytest.fixture
def lat_d1():
    return enumerate_clusters(1, 3)


def random_block_operator(lattice, nu, ell_max, rng, density=0.4, decay=1.5,
                          ell_support=None):
    """Random operator with coefficients damped by <ell,a,b>^-decay."""
    return _random_block(lattice, nu, ell_max, rng, density=density,
                         decay=decay, support=ell_support)


def random_paired(lattice, nu, ell_max, rng, scale=1.0, **kw):
    return PairedBlockOperator(
        random_block_operator(lattice, nu, ell_max, rng, **kw) * scale,
        random_block_operator(lattice, nu, ell_max, rng, **kw) * scale,
    )


def random_hamiltonian_paired(lattice, nu, ell_max, rng, scale=1.0, **kw):
    """Random field with r1* = -r1 and r2^T = r2 exactly."""
    r1 = random_block_operator(lattice, nu, ell_max, rng, **kw)
    r2 = random_block_operator(lattice, nu, ell_max, rng, **kw)
    r1 = (r1 - r1.adjoint()) * (0.5 * scale)
    r2 = (r2 + r2.transpose()) * (0.5 * scale)
    return PairedBlockOperator(r1, r2)


def random_space_time(lattice, nu, ell_max, rng, n_j=3, ell_support=1):
    """Random truncated space-time function supported on a few modes."""
    return _random_space_time(lattice, nu, ell_max, rng, n_j=n_j,
                              support=ell_support)
