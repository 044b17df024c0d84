"""The truncated-series engine and its callers against dense oracles.

Operators with ell-support 0 are phi-independent, so every product of them
stays at ell = 0 and the truncated series are exact in the box: the frozen
matrix at phi = 0 then obeys plain matrix algebra.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from wavekam import enumerate_clusters
from wavekam.blockop import PairedBlockOperator, operator_exponential
from wavekam.errors import DivergenceError, InversionError
from wavekam.multiplier import PairedMultiplier, multiplier_exponential
from wavekam.series import truncated_series

from conftest import (random_block_operator, random_hamiltonian_paired,
                      random_paired, rng_for)
from oracles import BlockMatrix2, neumann_inverse, push_forward
from test_multiplier import random_multiplier

PHI0 = np.zeros(2)


def scaled(x, size):
    return x * (size / x.decay_norm(0.0))


class TestEngine:
    def test_scalar_exponential(self):
        out = truncated_series(1.0, lambda t, k: t * 0.5 / k, 1e-16, 60,
                               norm=abs, rate=lambda k: 0.5 / k)
        assert out == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_small_term_does_not_stop_under_a_large_bound(self):
        terms = {1: 1e-20, 2: 0.5, 3: 0.0}
        step = lambda t, k: terms[k]  # noqa: E731
        # the bound stays 1: the tiny first term is not taken as convergence
        assert truncated_series(1.0, step, 1e-14, 60, norm=abs,
                                rate=lambda k: 1.0) == 1.5 + 1e-20
        # without an a-priori bound the term norm alone decides
        assert truncated_series(1.0, step, 1e-14, 60, norm=abs) == 1.0 + 1e-20

    def test_sum_after_the_first_term(self):
        out = truncated_series(0.5, lambda t, k: t * 0.5 / k, 1e-16, 60,
                               norm=abs, rate=lambda k: 0.5 / k, bound=0.5,
                               k0=1, total=0.0)
        assert out == pytest.approx(math.exp(0.5) - 1.5, rel=1e-14)

    def test_max_terms_raises_the_callers_error(self):
        with pytest.raises(InversionError, match="after 3 terms"):
            truncated_series(1.0, lambda t, k: t * 0.9, 1e-14, 3, norm=abs,
                             error=InversionError)


class TestExponentialOracle:
    def test_matches_expm_at_ell_support_0(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("series-expm")
        psi = scaled(random_hamiltonian_paired(lat, 2, 2, rng, ell_support=0,
                                               density=1.0), 0.5)
        got = operator_exponential(psi).matrix_at_phi(PHI0)
        want = expm(psi.matrix_at_phi(PHI0))
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_divergence_error(self):
        lat = enumerate_clusters(2, 2)
        psi = scaled(random_paired(lat, 2, 2, rng_for("series-div"),
                                   ell_support=0), 0.5)
        with pytest.raises(DivergenceError, match="exponential series"):
            operator_exponential(psi, max_terms=2)

    def test_multiplier_divergence_error(self, lat_d2):
        rng = rng_for("series-mult-div")
        psi = PairedMultiplier(
            random_multiplier(lat_d2, 2, 2, rng, order=0.0, support=0),
            random_multiplier(lat_d2, 2, 2, rng, order=0.0, support=0))
        psi = psi * (0.5 / psi.norm(0.0, 0.0))
        with pytest.raises(DivergenceError, match="multiplier exponential"):
            multiplier_exponential(psi, max_terms=2)


class TestNeumannOracle:
    def test_paired_inverse(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("series-neumann-paired")
        eye = PairedBlockOperator.identity(lat, 2, 2)
        phi = eye + scaled(random_paired(lat, 2, 2, rng, ell_support=0,
                                         density=1.0), 0.3)
        inv = neumann_inverse(phi)
        assert (inv.compose(phi) - eye).decay_norm(0.0) <= 1e-13
        assert (phi.compose(inv) - eye).decay_norm(0.0) <= 1e-13
        dense = phi.matrix_at_phi(PHI0)
        assert np.max(np.abs(inv.matrix_at_phi(PHI0) @ dense
                             - np.eye(len(dense)))) <= 1e-13

    def test_block_matrix2_inverse(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("series-neumann-m2")
        eye = BlockMatrix2.identity(lat, 2, 2)
        m = BlockMatrix2(*(random_block_operator(lat, 2, 2, rng, density=1.0,
                                                 ell_support=0)
                           for _ in range(4)))
        phi = eye + m * (0.3 / m.decay_norm(0.0))
        inv = neumann_inverse(phi)
        assert (inv.compose(phi) - eye).decay_norm(0.0) <= 1e-13
        assert (phi.compose(inv) - eye).decay_norm(0.0) <= 1e-13

    def test_no_convergence_within_max_terms(self):
        lat = enumerate_clusters(2, 2)
        eye = PairedBlockOperator.identity(lat, 2, 2)
        phi = eye + scaled(random_paired(lat, 2, 2, rng_for("series-nc"),
                                         ell_support=0), 0.5)
        with pytest.raises(InversionError, match="Neumann inverse"):
            neumann_inverse(phi, max_terms=2)

    def test_push_forward_rejects_a_map_far_from_identity(self):
        lat = enumerate_clusters(2, 2)
        x = random_hamiltonian_paired(lat, 2, 2, rng_for("series-2id"),
                                      ell_support=1)
        two = PairedBlockOperator.identity(lat, 2, 2) * 2.0
        with pytest.raises(InversionError, match="small perturbation"):
            push_forward(x, two, np.array([1.0, 0.5]))
