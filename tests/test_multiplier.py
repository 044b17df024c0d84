import math

import numpy as np
import pytest

from wavekam import AngleFunction, enumerate_clusters
from wavekam.blockop import block_decay_norm
from wavekam.multiplier import (
    FourierMultiplier,
    PairedMultiplier,
    multiplier_compose,
    multiplier_exponential,
    multiplier_norm,
    multiplier_to_blocks,
)

from conftest import random_space_time, rng_for
from oracles import block_apply


def random_multiplier(lattice, nu, ell_max, rng, order=0.0, scale=1.0, support=None):
    support = ell_max if support is None else support
    out = FourierMultiplier(lattice, nu, ell_max, order)
    for i, c in enumerate(lattice.clusters):
        f = AngleFunction(nu, ell_max)
        for _ in range(4):
            ell = tuple(int(x) for x in rng.integers(-support, support + 1, nu))
            f[ell] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        out.parts[i] = f * c.alpha**order
    return out


class TestNorm:
    def test_power_symbol_norm_one(self, lat_d2):
        for m in (-1.0, 0.0, 2.0):
            r = FourierMultiplier.from_alpha_symbol(
                lat_d2, 2, 2, lambda a: a**m, order=m
            )
            for s in (0.0, 1.0, 3.0):
                assert multiplier_norm(r, m, s) == pytest.approx(1.0)

    def test_zero(self, lat_d2):
        r = FourierMultiplier.zero(lat_d2, 2, 2)
        assert multiplier_norm(r, 0.0, 2.0) == 0.0

    def test_cos_over_alpha(self, lat_d2):
        g = AngleFunction.cosine(2, 2, (1, 0))
        r = FourierMultiplier(lat_d2, 2, 2, order=-1.0)
        for i, c in enumerate(lat_d2.clusters):
            r.parts[i] = g * (1.0 / c.alpha)
        for s in (0.0, 1.5):
            assert multiplier_norm(r, -1.0, s) == pytest.approx(g.sobolev_norm(s))

    def test_monotonicity_families(self, lat_d2):
        rng = rng_for("mult-mono")
        r = random_multiplier(lat_d2, 2, 2, rng)
        assert multiplier_norm(r, 0.0, 1.0) <= multiplier_norm(r, 0.0, 2.0) + 1e-14
        assert multiplier_norm(r, 1.0, 1.0) <= multiplier_norm(r, 0.0, 1.0) + 1e-14


class TestCompose:
    def test_identity_neutral(self, lat_d2):
        rng = rng_for("mult-id")
        r = random_multiplier(lat_d2, 2, 2, rng)
        one = FourierMultiplier.identity(lat_d2, 2, 2)
        out = multiplier_compose(r, one)
        for p, q in zip(out.parts, r.parts):
            assert p.distance(q) <= 1e-15 * max(1.0, q.linf_bound())

    def test_single_mode_convolution(self, lat_d2):
        r = FourierMultiplier.from_angle_function(
            lat_d2, AngleFunction.from_modes(2, 3, {(1, 0): 2.0})
        )
        b = FourierMultiplier.from_angle_function(
            lat_d2, AngleFunction.from_modes(2, 3, {(0, 1): 0.5j})
        )
        out = multiplier_compose(r, b)
        assert out.coeff((1, 1), 1) == pytest.approx(1.0j)
        assert out.order == 0.0

    def test_commutative(self, lat_d2):
        rng = rng_for("mult-comm")
        r = random_multiplier(lat_d2, 2, 2, rng)
        b = random_multiplier(lat_d2, 2, 2, rng)
        ab = multiplier_compose(r, b)
        ba = multiplier_compose(b, r)
        for p, q in zip(ab.parts, ba.parts):
            assert p.distance(q) <= 1e-13 * max(1.0, q.linf_bound())

    def test_orders_add(self, lat_d2):
        r = FourierMultiplier.from_alpha_symbol(lat_d2, 2, 1, lambda a: a, 1.0)
        b = FourierMultiplier.from_alpha_symbol(lat_d2, 2, 1, lambda a: 1 / a, -1.0)
        assert multiplier_compose(r, b).order == 0.0

    def test_interpolation_bound(self, lat_d2):
        rng = rng_for("mult-interp")
        s, s0 = 2.0, 1.5
        for _ in range(5):
            r = random_multiplier(lat_d2, 2, 2, rng, order=0.0)
            b = random_multiplier(lat_d2, 2, 2, rng, order=-1.0)
            lhs = multiplier_norm(multiplier_compose(r, b), -1.0, s)
            rhs = (
                multiplier_norm(r, 0.0, s) * multiplier_norm(b, -1.0, s0)
                + multiplier_norm(r, 0.0, s0) * multiplier_norm(b, -1.0, s)
            )
            assert lhs <= rhs * 2.0  # C(s) moderate for this data

    def test_iterated_composition_bound(self, lat_d2):
        # |||R^k|||_{km, s0} <= C^{k-1} |||R|||^k for k <= 4
        rng = rng_for("mult-iter")
        r = random_multiplier(lat_d2, 2, 2, rng, order=-1.0, scale=0.5)
        s0 = 1.5
        base = multiplier_norm(r, -1.0, s0)
        acc = r
        for k in range(2, 5):
            acc = multiplier_compose(acc, r)
            c_k = (multiplier_norm(acc, -k, s0) / base**k) ** (1.0 / (k - 1))
            assert c_k < 10.0


class TestExponential:
    def test_zero_gives_identity(self, lat_d2):
        z = PairedMultiplier.zero(lat_d2, 2, 2)
        phi, ge2 = multiplier_exponential(z)
        assert ge2.norm(0.0, 0.0) == 0.0
        eye = PairedMultiplier.identity(lat_d2, 2, 2)
        assert (phi - eye).norm(0.0, 0.0) == 0.0

    def test_diagonal_scalar_closed_form(self, lat_d2):
        # phi-independent diagonal symbol: exp is the pointwise exponential
        r = FourierMultiplier.from_alpha_symbol(
            lat_d2, 2, 2, lambda a: 0.3 / a, order=-1.0
        )
        psi = PairedMultiplier.diagonal(r)
        phi, _ = multiplier_exponential(psi)
        for i, c in enumerate(lat_d2.clusters):
            want = math.exp(0.3 / c.alpha)
            assert phi.r1.parts[i].mean() == pytest.approx(want, rel=1e-12)

    def test_exp_exp_minus_identity(self, lat_d2):
        # keep supports small so box-edge truncation stays beyond reach
        rng = rng_for("mult-exp")
        r1 = random_multiplier(lat_d2, 2, 5, rng, order=-1.0, scale=0.005, support=1)
        r2 = random_multiplier(lat_d2, 2, 5, rng, order=-1.0, scale=0.005, support=1)
        psi = PairedMultiplier(r1, r2)
        fwd, _ = multiplier_exponential(psi)
        bwd, _ = multiplier_exponential(psi * (-1.0))
        eye = PairedMultiplier.identity(lat_d2, 2, 5)
        assert (fwd.compose(bwd) - eye).norm(0.0, 0.0) <= 1e-12

    def test_ge2_tail_bound(self, lat_d2):
        rng = rng_for("mult-ge2")
        psi = PairedMultiplier(
            random_multiplier(lat_d2, 2, 2, rng, order=-1.0, scale=0.05),
            random_multiplier(lat_d2, 2, 2, rng, order=-1.0, scale=0.05),
        )
        phi, ge2 = multiplier_exponential(psi, s0=1.5)
        s = 2.0
        lhs = ge2.norm(-2.0, s)
        rhs = psi.norm(-1.0, s) * psi.norm(-1.0, 1.5)
        assert lhs <= 2.0 * rhs
        # Phi = Id + Psi + Phi_ge2 exactly
        recon = PairedMultiplier.identity(lat_d2, 2, 2) + psi + ge2
        assert (phi - recon).norm(0.0, 0.0) <= 1e-15


class TestBlocksConversion:
    def test_constant_one_gives_identity(self, lat_d2):
        r = FourierMultiplier.identity(lat_d2, 2, 2)
        blocks = multiplier_to_blocks(r)
        from wavekam.blockop import BlockOperator

        eye = BlockOperator.identity(lat_d2, 2, 2)
        assert (blocks - eye).hs_total() == 0.0

    def test_single_mode_single_cluster(self, lat_d2):
        r = FourierMultiplier.zero(lat_d2, 2, 2)
        i5 = lat_d2.alpha_sqs.index(5)
        r.parts[i5][(1, 0)] = 2.5
        blocks = multiplier_to_blocks(r)
        assert len(blocks) == 1
        m = blocks.block((1, 0), 5, 5)
        assert np.allclose(m, 2.5 * np.eye(8))

    def test_decay_norm_comparison(self, lat_d2):
        # |R|_s <= C |||R|||_{-s-(d-1)/2, s} with the computable truncation
        # constant C = max_alpha sqrt(n_alpha) / alpha^{(d-1)/2}
        rng = rng_for("mult-decay")
        d = lat_d2.d
        c_trunc = max(
            np.sqrt(c.n_alpha) / c.alpha ** ((d - 1) / 2.0)
            for c in lat_d2.clusters
        )
        for s in (0.0, 1.0, 2.0):
            m = -s - (d - 1) / 2.0
            r = random_multiplier(lat_d2, 2, 2, rng, order=m)
            lhs = block_decay_norm(multiplier_to_blocks(r), s)
            rhs = multiplier_norm(r, m, s)
            assert lhs <= c_trunc * rhs * (1 + 1e-12)

    def test_action_consistency(self, lat_d2):
        rng = rng_for("mult-action")
        r = random_multiplier(lat_d2, 2, 3, rng)
        u = random_space_time(lat_d2, 2, 3, rng, n_j=4, ell_support=1)
        direct = r.apply(u)
        via_blocks = block_apply(multiplier_to_blocks(r), u)
        diff = (direct + via_blocks * (-1.0)).sobolev_norm(0.0)
        assert diff <= 1e-13 * max(1.0, direct.sobolev_norm(0.0))


class TestAdjointness:
    def test_selfadjoint_iff_real_symbol(self, lat_d2):
        g_real = AngleFunction.cosine(2, 2, (1, 1), 0.7)
        r = FourierMultiplier.from_angle_function(lat_d2, g_real)
        assert r.is_real_symbol()
        blocks = multiplier_to_blocks(r)
        assert blocks.is_selfadjoint(1e-13)
        g_cplx = AngleFunction.from_modes(2, 2, {(1, 0): 1.0j})
        rc = FourierMultiplier.from_angle_function(lat_d2, g_cplx)
        assert not rc.is_real_symbol()
        assert not multiplier_to_blocks(rc).is_selfadjoint(1e-13)

    def test_multipliers_commute_as_blocks(self, lat_d2):
        from wavekam.blockop import compose

        rng = rng_for("mult-comm-blocks")
        a = multiplier_to_blocks(random_multiplier(lat_d2, 2, 2, rng))
        b = multiplier_to_blocks(random_multiplier(lat_d2, 2, 2, rng))
        comm = compose(a, b) - compose(b, a)
        assert comm.hs_total() <= 1e-12 * max(1.0, a.hs_total() * b.hs_total())
