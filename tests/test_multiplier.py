import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles

from wavekam import AngleFunction, SpaceTimeFunction, enumerate_clusters
from wavekam import blockop
from wavekam.blockop import block_decay_norm
from wavekam.multiplier import (
    FourierMultiplier,
    PairedMultiplier,
    multiplier_compose,
    multiplier_exponential,
    multiplier_norm,
)

from conftest import random_space_time, rng_for
from oracles import block_apply, multiplier_coeff


def random_multiplier(lattice, nu, ell_max, rng, order=0.0, scale=1.0, support=None):
    support = ell_max if support is None else support
    out = FourierMultiplier(lattice, nu, ell_max, order)
    for i, c in enumerate(lattice.clusters):
        f = AngleFunction(nu, ell_max)
        for _ in range(4):
            ell = tuple(int(x) for x in rng.integers(-support, support + 1, nu))
            f[ell] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        out.coeffs[i] = (f * c.alpha**order).coeffs.ravel()
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
            r.coeffs[i] = (g * (1.0 / c.alpha)).coeffs.ravel()
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
        for i in range(len(r.coeffs)):
            p, q = out.row(i), r.row(i)
            assert p.distance(q) <= 1e-15 * max(1.0, q.linf_bound())

    def test_single_mode_convolution(self, lat_d2):
        r = FourierMultiplier.from_angle_function(
            lat_d2, oracles.angle_from_modes(2, 3, {(1, 0): 2.0})
        )
        b = FourierMultiplier.from_angle_function(
            lat_d2, oracles.angle_from_modes(2, 3, {(0, 1): 0.5j})
        )
        out = multiplier_compose(r, b)
        assert multiplier_coeff(out, (1, 1), 1) == pytest.approx(1.0j)
        assert out.order == 0.0

    def test_commutative(self, lat_d2):
        rng = rng_for("mult-comm")
        r = random_multiplier(lat_d2, 2, 2, rng)
        b = random_multiplier(lat_d2, 2, 2, rng)
        ab = multiplier_compose(r, b)
        ba = multiplier_compose(b, r)
        for i in range(len(ab.coeffs)):
            p, q = ab.row(i), ba.row(i)
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
            assert phi.r1.row(i).mean() == pytest.approx(want, rel=1e-12)

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
        blocks = r.to_blocks()
        from wavekam.blockop import BlockOperator

        eye = BlockOperator.identity(lat_d2, 2, 2)
        assert (blocks - eye).hs_total() == 0.0

    def test_single_mode_single_cluster(self, lat_d2):
        r = FourierMultiplier.zero(lat_d2, 2, 2)
        i5 = lat_d2.alpha_sqs.index(5)
        r.row(i5)[(1, 0)] = 2.5
        blocks = r.to_blocks()
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
            lhs = block_decay_norm(r.to_blocks(), s)
            rhs = multiplier_norm(r, m, s)
            assert lhs <= c_trunc * rhs * (1 + 1e-12)

    def test_action_consistency(self, lat_d2):
        rng = rng_for("mult-action")
        r = random_multiplier(lat_d2, 2, 3, rng)
        u = random_space_time(lat_d2, 2, 3, rng, n_j=4, ell_support=1)
        direct = r.apply(u)
        via_blocks = block_apply(r.to_blocks(), u)
        diff = (direct + via_blocks * (-1.0)).sobolev_norm(0.0)
        assert diff <= 1e-13 * max(1.0, direct.sobolev_norm(0.0))


class TestAdjointness:
    def test_selfadjoint_iff_real_symbol(self, lat_d2):
        g_real = AngleFunction.cosine(2, 2, (1, 1), 0.7)
        r = FourierMultiplier.from_angle_function(lat_d2, g_real)
        assert r.is_real_symbol()
        blocks = r.to_blocks()
        assert oracles.is_selfadjoint(blocks, 1e-13)
        g_cplx = oracles.angle_from_modes(2, 2, {(1, 0): 1.0j})
        rc = FourierMultiplier.from_angle_function(lat_d2, g_cplx)
        assert not rc.is_real_symbol()
        assert not oracles.is_selfadjoint(rc.to_blocks(), 1e-13)

    def test_multipliers_commute_as_blocks(self, lat_d2):
        from wavekam.blockop import compose

        rng = rng_for("mult-comm-blocks")
        a = random_multiplier(lat_d2, 2, 2, rng).to_blocks()
        b = random_multiplier(lat_d2, 2, 2, rng).to_blocks()
        comm = compose(a, b) - compose(b, a)
        assert comm.hs_total() <= 1e-12 * max(1.0, a.hs_total() * b.hs_total())


# ---------------------------------------------------------------------------
# the (clusters x ell-box) array against the list-of-parts oracle, bit for bit
# ---------------------------------------------------------------------------


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _random_rows(lattice, nu, ell_max, rng, order=0.0, scale=1.0):
    """Rows that are zero, sparse on their own support or dense, with signed
    zeros among the stored coefficients."""
    shape = (len(lattice.clusters), (2 * ell_max + 1) ** nu)
    fill = rng.choice([0.0, 0.1, 0.5, 1.0], shape[0])[:, None]
    vals = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    zeros = rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)], shape)
    return FourierMultiplier(lattice, nu, ell_max, order,
                             np.where(rng.random(shape) < fill, vals, zeros))


def _assert_same(arr, lst):
    assert _bits(arr.coeffs) == _bits(oracles.to_array(lst))
    assert arr.order == lst.order


def _assert_same_blocks(x, y):
    assert list(x.stacks) == list(y.stacks)
    for key, (idx, mats) in x.stacks.items():
        assert _bits(idx) == _bits(y.stacks[key][0])
        assert _bits(mats) == _bits(y.stacks[key][1])


class TestArrayMatchesListOracle:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 2), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_operations_bit_equal(self, nu, L, seed):
        rng = rng_for("mult-array-oracle", nu, L, seed)
        lat = enumerate_clusters(2, 3)
        a = _random_rows(lat, nu, L, rng, order=float(rng.integers(-2, 2)))
        b = _random_rows(lat, nu, L, rng, order=-1.0)
        la, lb = oracles.from_array(a), oracles.from_array(b)
        box = (2 * L + 1,) * nu
        for x, y in ((a, b), (b, a), (a, a)):
            lx, ly = oracles.from_array(x), oracles.from_array(y)
            _assert_same(multiplier_compose(x, y), oracles.multiplier_compose(lx, ly))
            for i in range(len(lat.clusters)):
                oracles.assert_row_product_close(
                    x.row(i).product(y.row(i))[0].coeffs, x.row(i).coeffs,
                    y.row(i).coeffs, oracles.convolve_full(lx.parts[i].coeffs,
                                                           ly.parts[i].coeffs))
        _assert_same(a + b, la + lb)
        _assert_same(a - b, la - lb)
        for scalar in (-1.0, 0.5, 1j, -1j / 3.0):
            _assert_same(a * scalar, la * scalar)
        _assert_same(a.conj(), la.conj())
        omega = rng.standard_normal(nu)
        _assert_same(a.omega_dphi(omega), la.omega_dphi(omega))
        assert _bits(a.mean_per_cluster()) == _bits(la.mean_per_cluster())
        for tol in (1e-13, 1.0):
            assert a.is_real_symbol(tol) == la.is_real_symbol(tol)
        for m, s in ((None, 0.0), (0.0, 0.0), (-1.0, 1.5), (2.0, 3.0)):
            assert _bits(a.norm(m, s)) == _bits(la.norm(m, s))
        _assert_same_blocks(a.to_blocks(), la.to_blocks())
        assert a.to_rows() == la.to_rows()
        u = random_space_time(lat, nu, L, rng, n_j=4, ell_support=L) + SpaceTimeFunction(
            nu, L, lat.d, {(4, 4): AngleFunction(nu, L, rng.standard_normal(box))})  # off the lattice
        got, want = a.apply(u), la.apply(u)
        assert got.modes == want.modes
        assert _bits(got.coeffs) == _bits(want.coeffs)
        grid_n = 2 * L + 1 + int(rng.integers(0, 4))
        for fn in (lambda v: np.exp(1j * v), lambda v: np.exp(-1j * v)):
            got, alias = a.map_pointwise(fn, grid_n, -1.0)
            want, alias_ref = la.map_pointwise(fn, grid_n, -1.0)
            _assert_same(got, want)
            assert _bits(alias) == _bits(alias_ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_compose_fft_and_direct_rows(self, seed):
        # nu = 2, L = 6: dense rows have 169^2 > 16384 products and go by
        # FFT, sparse rows share the direct bincount, zero rows stay zero and
        # a row with one product each side forms it alone
        rng = rng_for("mult-array-fft", seed)
        lat = enumerate_clusters(2, 3)
        a = _random_rows(lat, 2, 6, rng)
        b = _random_rows(lat, 2, 6, rng)
        a.coeffs[0] = b.coeffs[1] = 0.0
        a.coeffs[2] = rng.standard_normal(169)
        b.coeffs[2] = rng.standard_normal(169) + 1j * rng.standard_normal(169)
        a.coeffs[3] = b.coeffs[3] = 0.0
        a.coeffs[3, 40], b.coeffs[3, 100] = complex(*rng.standard_normal(2)), 0.3 - 0.7j
        _assert_same(multiplier_compose(a, b), oracles.multiplier_compose(
            oracles.from_array(a), oracles.from_array(b)))

    def test_compose_mixed_supports_fit_chunk(self, monkeypatch):
        # random supports of 100 of 169 ells per row: the rows' union is the
        # whole box, 169^2 products a row against 100^2 of its own, so the
        # direct rows go a few at a time within the chunk
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 2**20)
        rng = rng_for("mult-array-chunk")
        lat = enumerate_clusters(2, 8)
        a, b = FourierMultiplier(lat, 2, 6), FourierMultiplier(lat, 2, 6)
        for x in (a, b):
            for row in x.coeffs:
                at = rng.permutation(169)[:100]
                row[at] = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        tracemalloc.start()
        try:
            got = multiplier_compose(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * blockop._CHUNK_BYTES
        _assert_same(got, oracles.multiplier_compose(
            oracles.from_array(a), oracles.from_array(b)))

    def test_exponential_pair_is_two_series(self, lat_d2):
        rng = rng_for("mult-exp-pair")
        for nu, L in ((1, 3), (2, 2), (2, 4)):
            psi = PairedMultiplier(
                _random_rows(lat_d2, nu, L, rng, order=-1.0, scale=0.05),
                _random_rows(lat_d2, nu, L, rng, order=-1.0, scale=0.05))
            fwd, ge2 = multiplier_exponential(psi)
            lfwd, lge2 = oracles.multiplier_exponential(oracles.PairedMultiplier(
                oracles.from_array(psi.r1), oracles.from_array(psi.r2)))
            for x, y in ((fwd, lfwd), (ge2, lge2)):
                _assert_same(x.r1, y.r1)
                _assert_same(x.r2, y.r2)


class TestSigma:
    """One sigma for both algebras: M^sigma has top row (r1*, -r2^T), for a
    multiplier (conj r1, -r2)."""

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_sigma_agrees_across_algebras(self, lat_d2, nu):
        # equal on every index and value; an off-diagonal zero of a block
        # (a symbol times the identity) may carry either sign of zero
        rng = rng_for("mult-sigma", nu)
        for L in (0, 1, 2):
            pm = PairedMultiplier(_random_rows(lat_d2, nu, L, rng),
                                  _random_rows(lat_d2, nu, L, rng))
            got, want = pm.sigma().to_paired_blocks(), pm.to_paired_blocks().sigma()
            for x, y in ((got.r1, want.r1), (got.r2, want.r2)):
                assert list(x.stacks) == list(y.stacks)
                for key, (idx, mats) in x.stacks.items():
                    assert _bits(idx) == _bits(y.stacks[key][0])
                    assert np.array_equal(mats, y.stacks[key][1])
                    diag = np.arange(mats.shape[1])
                    assert _bits(mats[:, diag, diag]) == _bits(y.stacks[key][1][:, diag, diag])

    @pytest.mark.parametrize("nu,L", [(1, 6), (2, 5), (3, 5)])
    def test_exponential_sigma_is_the_inverse_series(self, lat_d2, nu, L):
        # supports of one step in a box of L steps keep the series' products
        # off the box edge, so only rounding separates exp(Psi)^sigma from
        # exp(-Psi) when Psi is Hamiltonian (conj r1 = -r1)
        rng = rng_for("mult-sigma-exp", nu, L)
        x = random_multiplier(lat_d2, nu, L, rng, order=-1.0, scale=0.005, support=1)
        r2 = random_multiplier(lat_d2, nu, L, rng, order=-1.0, scale=0.005, support=1)
        for r1, hamiltonian in (((x - x.conj()) * 0.5, True), (x, False)):
            psi = PairedMultiplier(r1, r2)
            assert psi.is_hamiltonian() == hamiltonian
            got = multiplier_exponential(psi)[0].sigma()
            inv = oracles.multiplier_exponential_with_inverse(psi)[2]
            err = max(np.abs(got.r1.coeffs - inv.r1.coeffs).max(),
                      np.abs(got.r2.coeffs - inv.r2.coeffs).max())
            assert (err <= 1e-14) == hamiltonian, err
            # the oracle's negated terms are bit for bit the series of -Psi
            lbwd, _ = oracles.multiplier_exponential(oracles.PairedMultiplier(
                oracles.from_array(psi.r1), oracles.from_array(psi.r2)) * (-1.0))
            _assert_same(inv.r1, lbwd.r1)
            _assert_same(inv.r2, lbwd.r2)


def test_desk_pipeline_multiplier_calls(monkeypatch):
    """One desk pipeline: no per-cluster products from multiplier.py, and one
    exponential series per decoupling step."""
    from test_acceptance import OMEGA_REF, desk_problem
    from wavekam import regularization

    callers = []
    product = AngleFunction.product

    def counted_product(self, other):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return product(self, other)

    exps = []
    exponential = regularization.multiplier_exponential

    def counted_exponential(*args, **kwargs):
        exps.append(1)
        return exponential(*args, **kwargs)

    monkeypatch.setattr(AngleFunction, "product", counted_product)
    monkeypatch.setattr(regularization, "multiplier_exponential", counted_exponential)
    p = desk_problem(1e-3)
    regularization.run_pipeline(p, OMEGA_REF)
    assert callers.count("wavekam.multiplier") == 0
    assert len(exps) == p.M == 4


def test_desk_pipeline_zero_factor_skip_is_bit_identical(monkeypatch):
    """PairedMultiplier.compose skips the products of an identically zero
    factor: the desk pipeline forms fewer products and its r4 and mu stay
    bit for bit."""
    from test_acceptance import OMEGA_REF, desk_problem
    from wavekam import multiplier, regularization

    calls = []
    compose = multiplier.multiplier_compose

    def counted_compose(r, b):
        calls.append(1)
        return compose(r, b)

    monkeypatch.setattr(multiplier, "multiplier_compose", counted_compose)
    p = desk_problem(1e-3)
    runs, counts = [], []
    for every_product in (False, True):
        if every_product:
            monkeypatch.setattr(PairedMultiplier, "compose",
                                oracles.paired_multiplier_compose_every_product)
        calls.clear()
        runs.append(regularization.run_pipeline(p, OMEGA_REF))
        counts.append(len(calls))
    skip, every = runs
    assert counts[0] < counts[1]
    _assert_same_blocks(skip.r4.r1, every.r4.r1)
    _assert_same_blocks(skip.r4.r2, every.r4.r2)
    for x, y in ((skip.r4_multiplier.r1, every.r4_multiplier.r1),
                 (skip.r4_multiplier.r2, every.r4_multiplier.r2)):
        assert _bits(x.coeffs) == _bits(y.coeffs)
    assert _bits(skip.mu) == _bits(every.mu)
