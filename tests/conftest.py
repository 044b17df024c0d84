import numpy as np
import pytest

from wavekam import enumerate_clusters
from wavekam.blockop import BlockOperator, PairedBlockOperator
from wavekam.verify import rng_for  # noqa: F401  (tests import it from here)


@pytest.fixture
def lat_d2():
    return enumerate_clusters(2, 3)


@pytest.fixture
def lat_d1():
    return enumerate_clusters(1, 3)


def random_block_operator(lattice, nu, ell_max, rng, density=0.4, decay=1.5,
                          ell_support=None):
    """Random operator with coefficients damped by <ell,a,b>^-decay."""
    import itertools

    blocks = {}
    L = ell_max if ell_support is None else ell_support
    for ell in itertools.product(range(-L, L + 1), repeat=nu):
        for ca in lattice.clusters:
            for cb in lattice.clusters:
                if rng.random() > density:
                    continue
                w = max(1.0, np.linalg.norm(ell), ca.alpha, cb.alpha) ** (-decay)
                mat = w * (
                    rng.standard_normal((ca.n_alpha, cb.n_alpha))
                    + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha))
                )
                blocks[(ell, ca.alpha_sq, cb.alpha_sq)] = mat
    return BlockOperator(lattice, nu, ell_max, blocks)


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
    from wavekam import SpaceTimeFunction
    import itertools

    pts = list(lattice.all_points())
    u = SpaceTimeFunction(nu, ell_max, lattice.d)
    order = rng.permutation(len(pts))[:n_j]
    for k in order:
        j = pts[int(k)]
        for ell in itertools.product(
            range(-ell_support, ell_support + 1), repeat=nu
        ):
            u.set_coeff(ell, j, rng.standard_normal() + 1j * rng.standard_normal())
    return u
