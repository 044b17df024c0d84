import itertools
import math

import numpy as np
import pytest

from wavekam import AngleFunction, SpaceTimeFunction, enumerate_clusters
from wavekam.blockop import (
    BlockOperator,
    PairedBlockOperator,
    block_decay_norm,
    compose,
    diagonal_part,
    operator_exponential,
    rank_one_blocks,
    smoothing_projector,
)
from wavekam.errors import ContractViolation, LatticeMismatchError, ParameterError
from wavekam.multiplier import FourierMultiplier, PairedMultiplier

from conftest import (
    random_block_operator,
    random_hamiltonian_paired,
    random_paired,
    random_space_time,
    rng_for,
)
import oracles
from oracles import (
    FiniteRankOperator,
    block_apply,
    finite_rank_to_blocks,
    multiplier_apply_pair_at_phi,
    paired_apply_pair_at_phi,
    sobolev_action_bound_check,
)


class TestDecayNorm:
    def test_identity_block_d2(self, lat_d2):
        # single block I on alpha^2 = 1 (n=4): HS norm 2, weight 1 at any s
        op = BlockOperator(lat_d2, 2, 2)
        oracles.set_block(op, (0, 0), 1, 1, np.eye(4))
        assert block_decay_norm(op, 1.0) == pytest.approx(2.0)

    def test_zero_operator(self, lat_d2):
        op = BlockOperator(lat_d2, 2, 2)
        assert block_decay_norm(op, 2.0) == 0.0

    def test_identity_d1_s0(self):
        lat = enumerate_clusters(1, 2)
        op = BlockOperator.identity(lat, 1, 2)
        assert block_decay_norm(op, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_monotone_in_s(self, lat_d2):
        rng = rng_for("decay-monotone")
        op = random_block_operator(lat_d2, 2, 2, rng)
        assert block_decay_norm(op, 1.0) <= block_decay_norm(op, 2.0) + 1e-14

    def test_negative_s_rejected(self, lat_d2):
        op = BlockOperator(lat_d2, 2, 2)
        with pytest.raises(ParameterError):
            block_decay_norm(op, -0.5)


class TestCompose:
    def test_identity_neutral(self, lat_d2):
        rng = rng_for("compose-id")
        r = random_block_operator(lat_d2, 2, 2, rng)
        eye = BlockOperator.identity(lat_d2, 2, 2)
        out = compose(r, eye)
        assert (out - r).hs_total() <= 1e-14 * r.hs_total()

    def test_phi_independent_is_matrix_product(self, lat_d2):
        rng = rng_for("compose-const")
        r = random_block_operator(lat_d2, 2, 2, rng, ell_support=0)
        t = random_block_operator(lat_d2, 2, 2, rng, ell_support=0)
        out = compose(r, t)
        # oracle: plain block-matrix product over intermediate clusters
        z = (0, 0)
        for ca in lat_d2.clusters:
            for cb in lat_d2.clusters:
                want = np.zeros((ca.n_alpha, cb.n_alpha), dtype=complex)
                for cm in lat_d2.clusters:
                    want += r.block(z, ca.alpha_sq, cm.alpha_sq) @ t.block(
                        z, cm.alpha_sq, cb.alpha_sq
                    )
                got = out.block(z, ca.alpha_sq, cb.alpha_sq)
                assert np.allclose(got, want, atol=1e-12)

    def test_dense_flatten_oracle(self):
        # small supports inside a roomy box: flattened product is exact
        lat = enumerate_clusters(2, 2)
        rng = rng_for("compose-dense")
        r = random_block_operator(lat, 2, 4, rng, ell_support=1, density=0.6)
        t = random_block_operator(lat, 2, 4, rng, ell_support=1, density=0.6)
        out = compose(r, t)
        assert out.meta["truncation_loss"] == 0.0
        box = 4
        mr, ells, pts = oracles.to_dense(r, box)
        mt, _, _ = oracles.to_dense(t, box)
        mo, _, _ = oracles.to_dense(out, box)
        dense = mr @ mt
        # compare on central columns where no intermediate mode is clipped
        center = [i for i, ell in enumerate(ells) if max(map(abs, ell)) <= 2]
        cols = [i * len(pts) + k for i in center for k in range(len(pts))]
        scale = np.abs(dense).max()
        assert np.abs(dense[np.ix_(cols, cols)] - mo[np.ix_(cols, cols)]).max() \
            <= 1e-12 * scale

    def test_application_matches_sequential(self, lat_d2):
        rng = rng_for("compose-apply")
        r = random_block_operator(lat_d2, 2, 6, rng, ell_support=1)
        t = random_block_operator(lat_d2, 2, 6, rng, ell_support=1)
        u = random_space_time(lat_d2, 2, 6, rng, n_j=4, ell_support=1)
        via_compose = block_apply(compose(r, t), u)
        sequential = block_apply(r, block_apply(t, u))
        diff = (via_compose + sequential * (-1.0)).sobolev_norm(0.0)
        assert diff <= 1e-12 * max(1.0, sequential.sobolev_norm(0.0))

    def test_lattice_mismatch(self):
        a = BlockOperator(enumerate_clusters(2, 2), 2, 2)
        b = BlockOperator(enumerate_clusters(2, 3), 2, 2)
        with pytest.raises(LatticeMismatchError):
            compose(a, b)

    def test_truncation_loss_reported(self):
        lat = enumerate_clusters(2, 1)
        a = BlockOperator(lat, 1, 1)
        oracles.set_block(a, (1,), 1, 1, np.eye(4))
        out = compose(a, a)
        # product lives at ell = 2, outside the box: all mass discarded
        assert not len(out)
        assert out.meta["truncation_loss"] == pytest.approx(2.0)

    def test_interpolation_estimate_headroom(self, lat_d2):
        # |RT|_s <= C(s)(|R|_s |T|_{2s0} + |R|_{2s0} |T|_s); measure C over trials
        rng = rng_for("interp")
        s, two_s0 = 2.0, 3.0
        ratios = []
        for _ in range(20):
            r = random_block_operator(lat_d2, 2, 2, rng, density=1.0)
            t = random_block_operator(lat_d2, 2, 2, rng, density=1.0)
            num = block_decay_norm(compose(r, t), s)
            den = (
                block_decay_norm(r, s) * block_decay_norm(t, two_s0)
                + block_decay_norm(r, two_s0) * block_decay_norm(t, s)
            )
            ratios.append(num / den)
        med = sorted(ratios)[len(ratios) // 2]
        assert max(ratios) <= 1.2 * med + 1e-12 and min(ratios) >= 0.8 * med - 1e-12

    def test_power_bound(self, lat_d2):
        # |R^n|_{2s0} <= C^{n-1} |R|^n_{2s0} for n <= 5 with C from composition
        rng = rng_for("powers")
        r = random_block_operator(lat_d2, 2, 2, rng, density=0.4, ell_support=0)
        two_s0 = 3.0
        base = block_decay_norm(r, two_s0)
        acc = r
        c_measured = 1.0
        for n in range(2, 6):
            acc = compose(acc, r)
            ratio = block_decay_norm(acc, two_s0) / base**n
            c_measured = max(c_measured, ratio ** (1.0 / (n - 1)))
        # constant exists and is moderate for this data
        assert c_measured < 50.0


class TestInvolutions:
    def test_transpose_involution(self, lat_d2):
        rng = rng_for("transpose")
        r = random_block_operator(lat_d2, 2, 2, rng)
        assert (r.transpose().transpose() - r).hs_total() == 0.0

    def test_conj_involution(self, lat_d2):
        rng = rng_for("conj")
        r = random_block_operator(lat_d2, 2, 2, rng)
        assert (r.conj().conj() - r).hs_total() == 0.0

    def test_adjoint_is_conj_transpose(self, lat_d2):
        rng = rng_for("adjoint")
        r = random_block_operator(lat_d2, 2, 2, rng)
        assert (r.adjoint() - r.transpose().conj()).hs_total() <= 1e-15

    def test_transpose_entry_rule(self, lat_d2):
        # (R^T)_j^{j'} = R_{-j'}^{-j} on a handful of entries
        rng = rng_for("transpose-entries")
        r = random_block_operator(lat_d2, 2, 1, rng, density=1.0, ell_support=1)
        rt = r.transpose()
        ca, cb = lat_d2.cluster(1), lat_d2.cluster(2)
        for ell in [(0, 0), (1, 0)]:
            m = r.block(ell, 1, 2)
            mt = rt.block(ell, 2, 1)
            for j in ca.points:
                for jp in cb.points:
                    lhs = mt[cb.index_of[jp], ca.index_of[j]]
                    rhs = m[
                        ca.index_of[tuple(-x for x in j)],
                        cb.index_of[tuple(-x for x in jp)],
                    ]
                    assert lhs == rhs

    def test_trace_cyclicity(self, lat_d2):
        rng = rng_for("trace")
        n = lat_d2.cluster(5).n_alpha
        for _ in range(10):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.trace(a @ b) == pytest.approx(np.trace(b @ a), abs=1e-13)

    def test_hs_bounds_action(self, lat_d2):
        rng = rng_for("hs-action")
        ca, cb = lat_d2.cluster(2), lat_d2.cluster(5)
        for _ in range(10):
            m = rng.standard_normal((ca.n_alpha, cb.n_alpha)) \
                + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha))
            u = rng.standard_normal(cb.n_alpha) + 1j * rng.standard_normal(cb.n_alpha)
            assert np.linalg.norm(m @ u) <= np.linalg.norm(m, "fro") * \
                np.linalg.norm(u) + 1e-13


class TestProjectors:
    def test_high_mode_dropped(self, lat_d2):
        op = BlockOperator(lat_d2, 2, 6)
        oracles.set_block(op, (5, 0), 1, 1, np.eye(4))
        low, high = smoothing_projector(op, 3)
        assert not len(low) and len(high) == 1

    def test_all_below_cutoff(self, lat_d2):
        rng = rng_for("proj-low")
        op = random_block_operator(lat_d2, 2, 2, rng)
        low, high = smoothing_projector(op, 50)
        assert not len(high)
        assert (low - op).hs_total() == 0.0

    def test_pair_sums_to_op(self, lat_d2):
        rng = rng_for("proj-sum")
        op = random_block_operator(lat_d2, 2, 3, rng)
        low, high = smoothing_projector(op, 2)
        assert ((low + high) - op).hs_total() == 0.0

    def test_smoothing_inequality(self, lat_d2):
        # |Pi_N^perp R|_s <= N^-b |R|_{s+b}, evaluated directly on both sides
        rng = rng_for("proj-ineq")
        op = random_block_operator(lat_d2, 2, 3, rng)
        for N in (1, 2):
            _, high = smoothing_projector(op, N)
            for b in (0.0, 1.0, 2.0):
                lhs = block_decay_norm(high, 1.0)
                rhs = N ** (-b) * block_decay_norm(op, 1.0 + b)
                assert lhs <= rhs + 1e-13

    def test_diagonal_part(self, lat_d2):
        eye = BlockOperator.identity(lat_d2, 2, 2)
        assert (diagonal_part(eye) - eye).hs_total() == 0.0
        off = BlockOperator(lat_d2, 2, 2)
        oracles.set_block(off, (0, 0), 1, 2, np.ones((4, 4)))
        oracles.set_block(off, (1, 0), 1, 1, np.ones((4, 4)))
        assert not len(diagonal_part(off))

    def test_diag_commutes_with_projector(self, lat_d2):
        rng = rng_for("proj-diag")
        op = random_block_operator(lat_d2, 2, 3, rng)
        a = diagonal_part(smoothing_projector(op, 2)[0])
        b = smoothing_projector(diagonal_part(op), 2)[0]
        assert (a - b).hs_total() == 0.0

    def test_projector_plus_complement_is_identity_action(self, lat_d2):
        rng = rng_for("proj-act")
        op = random_block_operator(lat_d2, 2, 2, rng)
        u = random_space_time(lat_d2, 2, 2, rng)
        low, high = smoothing_projector(op, 2)
        direct = block_apply(op, u)
        split = block_apply(low, u) + block_apply(high, u)
        assert (direct + split * (-1.0)).sobolev_norm(0.0) <= 1e-13


class TestExponential:
    def test_zero_gives_identity(self, lat_d2):
        z = PairedBlockOperator.zero(lat_d2, 2, 2)
        out = operator_exponential(z)
        eye = PairedBlockOperator.identity(lat_d2, 2, 2)
        assert (out - eye).decay_norm(0.0) == 0.0

    def test_nilpotent_single_block(self):
        # off-diagonal block with no return path inside the truncation
        lat = enumerate_clusters(2, 2)
        psi1 = BlockOperator(lat, 2, 2)
        oracles.set_block(psi1, (0, 0), 1, 4, 0.3 * np.ones((4, 4)))
        psi = PairedBlockOperator(psi1, BlockOperator(lat, 2, 2))
        # make it nilpotent: r2 = 0 and the only product 1<-4 has no 4<-1 partner
        out = operator_exponential(psi)
        eye = PairedBlockOperator.identity(lat, 2, 2)
        expect = eye + psi
        assert (out - expect).decay_norm(0.0) <= 1e-15

    def test_exp_times_exp_minus_is_identity(self):
        # support 1 inside box 5: first truncated power is Psi^6
        lat = enumerate_clusters(2, 2)
        rng = rng_for("exp-inverse")
        psi = random_paired(lat, 2, 5, rng, ell_support=1)
        psi = psi * (0.02 / psi.decay_norm(0.0))
        fwd = operator_exponential(psi)
        bwd = operator_exponential(psi * (-1.0))
        eye = PairedBlockOperator.identity(lat, 2, 5)
        assert (fwd.compose(bwd) - eye).decay_norm(0.0) <= 1e-12

    def test_size_warning_flag(self, lat_d2):
        rng = rng_for("exp-warn")
        psi = random_paired(lat_d2, 2, 1, rng, ell_support=0)
        psi = psi * (1.5 / psi.decay_norm(0.0))
        out = operator_exponential(psi)
        assert out.meta["size_warning"]


class TestFiniteRank:
    def test_zero_functions_give_zero(self, lat_d2):
        b = SpaceTimeFunction.from_modes(2, 2, 2, {((0, 0), (1, 0)): 0.0})
        k = FiniteRankOperator([(b, b)])
        op = finite_rank_to_blocks(k, lat_d2)
        assert not len(op)

    def test_single_mode_hand_convolution(self, lat_d2):
        # q = g = e^{i x1}: R(phi)[h] = q <g, h>, block entry at ell = 0
        q = SpaceTimeFunction.from_modes(2, 2, 2, {((0, 0), (1, 0)): 1.0})
        op = rank_one_blocks(q, q, lat_d2)
        # ghat_{-j'} nonzero at j' = (-1, 0); q_j at j = (1, 0); both alpha^2 = 1
        c1 = lat_d2.cluster(1)
        m = op.block((0, 0), 1, 1)
        assert m[c1.index_of[(1, 0)], c1.index_of[(-1, 0)]] == pytest.approx(1.0)
        assert np.count_nonzero(m) == 1

    def test_matches_dense_outer_product_oracle(self, lat_d2):
        rng = rng_for("rank-oracle")
        q = random_space_time(lat_d2, 2, 3, rng, n_j=3, ell_support=1)
        g = random_space_time(lat_d2, 2, 3, rng, n_j=3, ell_support=1)
        op = rank_one_blocks(q, g, lat_d2)
        # oracle: apply both to random functions and compare with q <g, u>
        for trial in range(3):
            u = random_space_time(lat_d2, 2, 3, rng, n_j=4, ell_support=1)
            ip = oracles.pairing(g, u)
            want, _ = q.mul_angle(ip)
            got = block_apply(op, u)
            diff = (got + want * (-1.0)).sobolev_norm(0.0)
            assert diff <= 1e-12 * max(1.0, want.sobolev_norm(0.0))

    def test_symmetrized_operator_is_symmetric(self, lat_d2):
        rng = rng_for("rank-sym")
        b = random_space_time(lat_d2, 2, 2, rng, n_j=2, ell_support=1)
        c = random_space_time(lat_d2, 2, 2, rng, n_j=2, ell_support=1)
        op = finite_rank_to_blocks(FiniteRankOperator([(b, c)]), lat_d2)
        assert oracles.is_symmetric(op, 1e-12)

    def test_rank_one_decay_bound(self, lat_d2):
        # |R|_s <= C (||g||_{s0} ||q||_s + ||g||_{s+s0} ||q||_0), C measured
        rng = rng_for("rank-decay")
        s, s0 = 2.0, 1.5
        ratios = []
        for _ in range(10):
            q = random_space_time(lat_d2, 2, 3, rng, n_j=3, ell_support=2)
            g = random_space_time(lat_d2, 2, 3, rng, n_j=3, ell_support=2)
            op = rank_one_blocks(q, g, lat_d2)
            num = block_decay_norm(op, s)
            den = g.sobolev_norm(s0) * q.sobolev_norm(s) + \
                g.sobolev_norm(s + s0) * q.sobolev_norm(0.0)
            ratios.append(num / den)
        assert max(ratios) <= 1.0 + 1e-12  # the proof constant is 1 up to splitting


class TestSobolevActionBound:
    def test_identity(self, lat_d2):
        eye = BlockOperator.identity(lat_d2, 2, 2)
        rep = sobolev_action_bound_check(eye, 1.0, s0=2)
        assert rep["satisfied"]
        assert rep["operator_norm_hs"] == pytest.approx(1.0)

    def test_diagonal_multiplier_norm_is_sup_symbol(self, lat_d2):
        op = BlockOperator(lat_d2, 2, 2)
        vals = {}
        rng = rng_for("action-mult")
        for c in lat_d2.clusters:
            v = float(rng.uniform(0.5, 2.0))
            vals[c.alpha_sq] = v
            oracles.set_block(op, (0, 0), c.alpha_sq, c.alpha_sq,
                              v * np.eye(c.n_alpha))
        rep = sobolev_action_bound_check(op, 0.0, s0=2)
        assert rep["operator_norm_hs"] == pytest.approx(max(vals.values()))
        assert rep["satisfied"]

    def test_random_operator_bound(self, lat_d2):
        rng = rng_for("action-random")
        op = random_block_operator(lat_d2, 2, 0, rng, ell_support=0)
        rep = sobolev_action_bound_check(op, 1.0, s0=2)
        assert rep["satisfied"]
        assert rep["operator_norm_hs"] <= rep["bound_value"] * (1 + 1e-12)


class TestPairedStructure:
    def test_paired_norm_is_sum(self, lat_d2):
        rng = rng_for("paired-norm")
        p = random_paired(lat_d2, 2, 2, rng)
        assert p.decay_norm(1.0) == pytest.approx(
            block_decay_norm(p.r1, 1.0) + block_decay_norm(p.r2, 1.0)
        )

    def test_paired_compose_matches_dense(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("paired-dense")
        p = random_paired(lat, 2, 4, rng, ell_support=1, density=0.5)
        q = random_paired(lat, 2, 4, rng, ell_support=1, density=0.5)
        out = p.compose(q)
        box = 4
        mp, ells, pts = oracles.to_dense(p, box)
        mq, _, _ = oracles.to_dense(q, box)
        mo, _, _ = oracles.to_dense(out, box)
        dense = mp @ mq
        n = len(ells) * len(pts)
        center = [i for i, ell in enumerate(ells) if max(map(abs, ell)) <= 2]
        cols = [i * len(pts) + k for i in center for k in range(len(pts))]
        cols = cols + [n + c for c in cols]
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(dense[np.ix_(cols, cols)] - mo[np.ix_(cols, cols)]).max() \
            <= 1e-12 * scale

    def test_hamiltonian_predicate(self, lat_d2):
        rng = rng_for("paired-ham")
        good = random_hamiltonian_paired(lat_d2, 2, 2, rng)
        assert oracles.is_hamiltonian(good, 1e-12)
        bad = random_paired(lat_d2, 2, 2, rng)
        assert not oracles.is_hamiltonian(bad, 1e-12)


class TestFrozenAngle:
    PHIS = np.array([[0.0, 0.0], [0.3, -1.2], [2.1, 0.7], [-0.9, 3.0]])

    def test_matches_dense_flattening(self):
        # oracle: the ell' = 0 column blocks of the dense flattening, summed
        # over rows ell with weights e^{i phi.ell}
        lat = enumerate_clusters(2, 2)
        op = random_paired(lat, 2, 2, rng_for("frozen-dense"), density=0.5)
        dense, ells, pts = oracles.to_dense(op)
        assert pts == lat.points
        n, nl = len(pts), len(ells)
        col0 = dense.reshape(2, nl, n, 2, nl, n)[:, :, :, :, ells.index((0, 0))]
        got = op.matrix_at_phi(self.PHIS)
        assert got.shape == (len(self.PHIS), 2 * n, 2 * n)
        for phi, mat in zip(self.PHIS, got):
            w = np.exp(1j * (np.array(ells) @ phi))
            want = np.einsum("l,alibj->aibj", w, col0).reshape(2 * n, 2 * n)
            assert np.max(np.abs(mat - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(op.matrix_at_phi(phi) - mat)) \
                <= 1e-13 * np.max(np.abs(want))

    def test_matches_dict_oracles(self):
        # the moved dict evaluators, on paired blocks and on multipliers
        # through their exact paired blocks
        lat = enumerate_clusters(2, 2)
        rng = rng_for("frozen-oracle")
        blocks = random_paired(lat, 2, 3, rng, density=0.5)
        mult = PairedMultiplier(*(
            FourierMultiplier(lat, 2, 3, coeffs=[
                rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
                for _ in lat.clusters])
            for _ in range(2)))
        cases = [
            (blocks, lambda c1, c2, phi: paired_apply_pair_at_phi(
                blocks, c1, c2, phi)),
            (mult.to_paired_blocks(), lambda c1, c2, phi:
                multiplier_apply_pair_at_phi(mult, c1, c2, phi)),
        ]
        pts = lat.points
        for op, oracle in cases:
            for phi in self.PHIS:
                c1, c2 = ({pts[int(k)]: complex(*rng.standard_normal(2))
                           for k in rng.integers(0, len(pts), 5)}
                          for _ in range(2))
                got = op.matrix_at_phi(phi) @ np.concatenate(
                    [lat.vector(c1), lat.vector(c2)])
                w1, w2 = oracle(c1, c2, phi)
                want = np.concatenate([lat.vector(w1), lat.vector(w2)])
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))
