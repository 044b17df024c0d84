import math

import numpy as np
import pytest

from wavekam import enumerate_clusters
from wavekam.blockop import BlockOperator, PairedBlockOperator
from wavekam.errors import ResonanceError
from wavekam.hamiltonian import push_forward
from wavekam.kam import (
    KamConfig,
    KamState,
    SylvesterOperator,
    _melnikov_scan,
    _solve_stack,
    assemble_homological_solution,
    final_eigenvalues,
    kam_run,
    kam_step,
    sylvester_solve,
)
from wavekam.resonance import sorted_combos

import oracles
from conftest import random_hamiltonian_paired, rng_for
from test_small_divisors import hermitian_block

GOLDEN = (1 + math.sqrt(5)) / 2
# strongly non-resonant against the toy spectrum {1, sqrt(2), 2}: the worst
# |omega.ell + lambda +- mu| <ell>^2 over |ell|_inf <= 9 is ~ 0.24
OMEGA = np.array([1.66991901, 1.54742436])


def toy_lattice():
    return enumerate_clusters(2, 2)


def scalar_d_blocks(lattice, m=1.0):
    return {
        c.alpha_sq: m * c.alpha * np.eye(c.n_alpha, dtype=complex)
        for c in lattice.clusters
    }


def toy_config(gamma=None, **kw):
    gamma = gamma if gamma is not None else 1e-3**0.75
    return KamConfig(nu=2, d=2, gamma=gamma, **kw)


def toy_state(lattice, remainder):
    from wavekam.hamiltonian import ExpMap

    return KamState(
        step=0,
        d_blocks=scalar_d_blocks(lattice),
        remainder=remainder,
        accumulated=ExpMap.identity(lattice, 2, remainder.r1.ell_max),
    )


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def kron_oracle(syl, rhs):
    """Dense Kronecker solve of A^sign X = -i rhs (row-major vec)."""
    na = syl.left.shape[0]
    nb = syl.right.shape[0]
    sign = 1.0 if syl.sign == "+" else -1.0
    m = (
        syl.omega_ell * np.eye(na * nb)
        + np.kron(syl.left, np.eye(nb))
        + sign * np.kron(np.eye(na), syl.right.T)
    )
    x = np.linalg.solve(m, (-1j * np.asarray(rhs)).reshape(-1))
    inv_norm = 1.0 / np.min(np.abs(np.linalg.eigvalsh(m)))
    return x.reshape(na, nb), inv_norm


class TestSylvester:
    def test_scalar_formula(self):
        syl = SylvesterOperator((1,), 1, 1, "-", [[1.0]], [[0.25]], [0.5])
        rhs = np.array([[2.0 + 1.0j]])
        x, inv = sylvester_solve(syl, rhs)
        assert x[0, 0] == pytest.approx(-1j * rhs[0, 0] / 1.25)
        assert inv == pytest.approx(1 / 1.25, abs=1e-15)

    def test_denominator_spectrum(self):
        syl = SylvesterOperator(
            (0,), 4, 9, "-", np.diag([1.0, 2.0]), [[3.0]], [0.0]
        )
        dens = sorted(oracles.sylvester_denominators(syl).ravel().real)
        assert dens == pytest.approx([-2.0, -1.0])

    @pytest.mark.parametrize("sign", ["-", "+"])
    def test_matches_kronecker_oracle(self, sign):
        rng = rng_for("sylvester", sign)
        for trial in range(20):
            na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            syl = SylvesterOperator(
                (1, -2),
                1,
                2,
                sign,
                random_hermitian(rng, na),
                random_hermitian(rng, nb),
                np.array([0.3, 0.7]),
            )
            rhs = rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
            x, inv = sylvester_solve(syl, rhs)
            x_oracle, inv_oracle = kron_oracle(syl, rhs)
            assert np.abs(x - x_oracle).max() <= 1e-11 * max(
                1.0, np.abs(x_oracle).max()
            )
            assert inv == pytest.approx(inv_oracle, rel=1e-12)
        # one more input: a k = 3 stack of ells through the stack kernel
        rng = rng_for("sylvester-stack", sign)
        ells = np.array([(1, -2), (0, 3), (-2, 1)])
        omega = np.array([0.3, 0.7])
        for trial in range(20):
            na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            left, right = random_hermitian(rng, na), random_hermitian(rng, nb)
            rhs = (rng.standard_normal((3, na, nb))
                   + 1j * rng.standard_normal((3, na, nb)))
            x, dmin = _solve_stack(ells, (ells[:, None, :] @ omega)[:, 0], 1, 2,
                                   sign, np.linalg.eigh(left),
                                   np.linalg.eigh(right), rhs)
            for ell, r, x_i, d_i in zip(ells, rhs, x, dmin):
                x_oracle, inv_oracle = kron_oracle(
                    SylvesterOperator(ell, 1, 2, sign, left, right, omega), r)
                assert np.abs(x_i - x_oracle).max() <= 1e-11 * max(
                    1.0, np.abs(x_oracle).max()
                )
                assert 1.0 / d_i == pytest.approx(inv_oracle, rel=1e-12)

    def test_exact_resonance_raises(self):
        syl = SylvesterOperator((0,), 1, 1, "-", [[2.0]], [[2.0]], [0.0])
        with pytest.raises(ResonanceError) as err:
            sylvester_solve(syl, np.array([[1.0]]))
        assert err.value.kind == "-"


def melnikov_condition(state, lat, cfg, omega, ell, a_sq, b_sq, kind):
    """One KAM Melnikov condition through the kernel: (fails, gap, threshold),
    gap None when omega.ell lies outside every window that could fail."""
    left = state.eig(lat, a_sq)[0]
    right = state.eig(lat, b_sq, kind)[0]
    x = np.asarray([ell], dtype=float) @ omega
    bracket = max(1.0, float(np.linalg.norm(ell)))
    a, b = lat.alpha(a_sq), lat.alpha(b_sq)
    if kind == "-":
        thr = cfg.gamma / ((a * b) ** cfg.dd * bracket**cfg.tau)
    else:
        thr = cfg.gamma * (a + b) / bracket**cfg.tau
    _, gap, bad = oracles.divisor_check(x, sorted_combos(left, right, kind),
                                        thr, closed=True)
    return bool(bad.any()), (float(gap[0]) if gap.size else None), thr


class TestMelnikov:
    def test_unperturbed_minus_condition(self):
        lat = toy_lattice()
        rem = PairedBlockOperator.zero(lat, 2, 3)
        state = toy_state(lat, rem)
        cfg = toy_config()
        bad, _, thr = melnikov_condition(
            state, lat, cfg, OMEGA, (0, 0), 1, 4, "-"
        )
        # smallest divisor m|a-b| = 1 against threshold gamma / (ab)^dd
        assert thr < 1.0 and not bad

    def test_unperturbed_plus_condition(self):
        lat = toy_lattice()
        state = toy_state(lat, PairedBlockOperator.zero(lat, 2, 3))
        cfg = toy_config()
        bad, _, _ = melnikov_condition(state, lat, cfg, OMEGA, (0, 0), 1, 1, "+")
        assert not bad

    def test_diagonal_exclusion(self):
        # the divisor at (0, a, a) vanishes, yet the scan passes: it is excluded
        lat = toy_lattice()
        state = toy_state(lat, PairedBlockOperator.zero(lat, 2, 3))
        cfg = toy_config()
        bad, gap, _ = melnikov_condition(state, lat, cfg, OMEGA, (0, 0), 2, 2, "-")
        assert gap == 0.0 and bad
        ok, err = _melnikov_scan(state, lat, cfg, OMEGA, cfg.n_k(0), 2)
        assert ok and err is None

    def test_engineered_near_resonance_fails(self):
        lat = toy_lattice()
        state = toy_state(lat, PairedBlockOperator.zero(lat, 2, 3))
        gamma = 0.01
        cfg = toy_config(gamma=gamma)
        # omega.ell ~ -(lambda_1 - lambda_2) = 1 within gamma/(1*2)^dd
        omega = np.array([1.0 + gamma / 64.0, GOLDEN])
        bad, _, _ = melnikov_condition(state, lat, cfg, omega, (1, 0), 1, 4, "-")
        assert bad
        ok, err = _melnikov_scan(state, lat, cfg, omega, cfg.n_k(0), 2)
        assert not ok and err.kind == "-"


class TestStackSolve:
    @pytest.mark.parametrize("kind", ["generic", "scalar", "repeated",
                                      "rotated"])
    @pytest.mark.parametrize("n_cut", [1, 2, 4])
    def test_matches_per_block_oracle(self, kind, n_cut):
        # D_a = alpha I + a perturbation with repeated eigenvalues unless
        # generic; n_cut 1 and 2 leave clusters and ell outside N_k
        lat = toy_lattice()
        rng = rng_for("kam-stack", kind, n_cut)
        rem = random_hamiltonian_paired(lat, 2, 4, rng)
        for c in lat.clusters:  # (0, a, a) blocks, absorbed instead of solved
            oracles.set_block(rem.r1, (0, 0), c.alpha_sq, c.alpha_sq,
                              1j * random_hermitian(rng, c.n_alpha))
        state = toy_state(lat, rem * 1e-3)
        state.d_blocks = {c.alpha_sq: hermitian_block(rng, c.n_alpha, c.alpha,
                                                      kind, 1e-2)
                          for c in lat.clusters}
        assert len(rem.r1) and len(rem.r2)  # both signs
        assert any(max(np.linalg.norm(ell), lat.alpha(a), lat.alpha(b)) > n_cut
                   for (ell, a, b), _ in oracles.block_items(rem.r1))
        cfg = toy_config()
        got = assemble_homological_solution(state, lat, cfg, OMEGA, n_cut)
        want = oracles.assemble_per_block(state, lat, cfg, OMEGA, n_cut)
        for g, w in ((got.r1, want.r1), (got.r2, want.r2)):
            assert g.stacks.keys() == w.stacks.keys()
            for key, (idx, mats) in w.stacks.items():
                np.testing.assert_array_equal(g.stacks[key][0], idx)
                assert g.stacks[key][1].shape == mats.shape
                assert g.stacks[key][1].tobytes() == mats.tobytes()

    @pytest.mark.parametrize("sign, ell, b_sq", [("-", (1, 0), 4),
                                                 ("+", (-2, 0), 1)])
    def test_vanishing_denominator_raises(self, sign, ell, b_sq):
        # omega.ell + 1 -+ beta = 0 exactly at omega = (1, golden)
        lat = toy_lattice()
        omega = np.array([1.0, GOLDEN])
        part = BlockOperator(lat, 2, 3, {
            (ell, 1, b_sq): np.ones((4, 4)), ((0, 1), 1, b_sq): np.ones((4, 4))})
        rem = (PairedBlockOperator(part, BlockOperator(lat, 2, 3)) if sign == "-"
               else PairedBlockOperator(BlockOperator(lat, 2, 3), part))
        state = toy_state(lat, rem)
        with pytest.raises(ResonanceError) as err:
            assemble_homological_solution(state, lat, toy_config(), omega, 4)
        e = err.value
        assert (e.ell, e.alpha_sq, e.beta_sq, e.kind, e.value) == (
            ell, 1, b_sq, sign, 0.0)
        syl = oracles.sylvester_from_state(state, lat, e.ell, e.alpha_sq,
                                           e.beta_sq, e.kind, omega)
        assert np.min(np.abs(oracles.sylvester_denominators(syl))) == 0.0

    def test_one_eigendecomposition_per_cluster(self, monkeypatch):
        # the scan and every solve of a step read one eigh of D_a and one of
        # conj(P D_a P) per cluster; no eigvalsh table is formed
        lat = toy_lattice()
        rng = rng_for("kam-eigh-count")
        rem = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        state = toy_state(lat, rem * (1e-3 / rem.decay_norm(0.0)))
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _real=getattr(np.linalg, name), _name=name,
                        **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        kam_step(state, lat, toy_config(), OMEGA)
        assert calls["eigvalsh"] == 0
        assert 0 < calls["eigh"] <= 2 * len(lat.clusters)


class TestKamStep:
    def test_zero_remainder_fixed_point(self):
        lat = toy_lattice()
        state = toy_state(lat, PairedBlockOperator.zero(lat, 2, 3))
        cfg = toy_config()
        new = kam_step(state, lat, cfg, OMEGA)
        assert new.remainder.decay_norm(0.0) == 0.0
        for a_sq, m in new.d_blocks.items():
            assert np.allclose(m, state.d_blocks[a_sq])

    def test_diagonal_only_absorbed(self):
        lat = toy_lattice()
        rng = rng_for("kam-diagonly")
        r1 = BlockOperator(lat, 2, 3)
        for c in lat.clusters:
            h = random_hermitian(rng, c.n_alpha) * 1e-3
            oracles.set_block(r1, (0, 0), c.alpha_sq, c.alpha_sq, 1j * h)  # r1* = -r1
        rem = PairedBlockOperator(r1, BlockOperator(lat, 2, 3))
        assert oracles.is_hamiltonian(rem, 1e-12)
        state = toy_state(lat, rem)
        cfg = toy_config()
        new = kam_step(state, lat, cfg, OMEGA)
        assert new.remainder.decay_norm(0.0) <= 1e-16
        for c in lat.clusters:
            want = state.d_blocks[c.alpha_sq] + 1j * r1.block(
                (0, 0), c.alpha_sq, c.alpha_sq
            )
            got = new.d_blocks[c.alpha_sq]
            assert np.allclose(got, want, atol=1e-15)
            assert np.abs(got - got.conj().T).max() <= 1e-12

    def test_homological_equation_residual(self):
        # -omega.dphi Psi + [D, Psi] + Pi_N R = Pi_N R_diag, rebuilt directly
        lat = toy_lattice()
        rng = rng_for("kam-homres")
        rem = random_hamiltonian_paired(lat, 2, 3, rng, ell_support=1)
        rem = rem * (1e-3 / rem.decay_norm(0.0))
        state = toy_state(lat, rem)
        cfg = toy_config()
        n_cut = cfg.n_k(0)
        psi = assemble_homological_solution(state, lat, cfg, OMEGA, n_cut)
        from wavekam.blockop import diagonal_part, smoothing_projector
        from wavekam.kam import _diag_operator

        dop = _diag_operator(state.d_blocks, lat, 2, 3)
        low1, _ = smoothing_projector(rem.r1, n_cut)
        low2, _ = smoothing_projector(rem.r2, n_cut)
        lhs = (
            psi.omega_dphi(OMEGA) * (-1.0)
            + dop.compose(psi)
            - psi.compose(dop)
            + PairedBlockOperator(low1, low2)
        )
        rhs = PairedBlockOperator(
            diagonal_part(low1), BlockOperator(lat, 2, 3)
        )
        assert (lhs - rhs).decay_norm(0.0) <= 1e-14

    def test_psi_is_hamiltonian(self):
        lat = toy_lattice()
        rng = rng_for("kam-psiham")
        rem = random_hamiltonian_paired(lat, 2, 3, rng, ell_support=1)
        rem = rem * (1e-3 / rem.decay_norm(0.0))
        state = toy_state(lat, rem)
        cfg = toy_config()
        psi = assemble_homological_solution(state, lat, cfg, OMEGA, cfg.n_k(0))
        assert oracles.is_hamiltonian(psi, 1e-10)

    def test_step_matches_generic_push_forward(self):
        # D_{k+1} + R_{k+1} from the term-by-term formula equals the direct
        # conjugation Phi^{-1}(L Phi - omega dphi Phi)
        lat = toy_lattice()
        rng = rng_for("kam-oracle")
        rem = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        rem = rem * (5e-4 / rem.decay_norm(0.0))
        state = toy_state(lat, rem)
        cfg = toy_config()
        new = kam_step(state, lat, cfg, OMEGA)
        from wavekam.kam import _diag_operator

        l0 = _diag_operator(state.d_blocks, lat, 2, 4) + rem
        psi = assemble_homological_solution(state, lat, cfg, OMEGA, cfg.n_k(0))
        from wavekam.hamiltonian import ExpMap

        pushed = push_forward(l0, ExpMap.from_generator(psi), OMEGA)
        claimed = _diag_operator(new.d_blocks, lat, 2, 4) + new.remainder
        scale = max(1.0, claimed.decay_norm(0.0))
        assert (pushed - claimed).decay_norm(0.0) <= 1e-9 * scale

    @pytest.mark.parametrize("size", [1e-4, 1e-3])
    def test_lie_series_matches_telescoped_oracle(self, size):
        lat = toy_lattice()
        rng = rng_for("kam-lie", size)
        rem = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        rem = rem * (size / rem.decay_norm(0.0))
        cfg = toy_config()
        new = kam_step(toy_state(lat, rem), lat, cfg, OMEGA)
        ref = oracles.kam_step_telescoped(toy_state(lat, rem), lat, cfg, OMEGA)
        # scale: the size of the remainder going in
        assert (new.remainder - ref.remainder).decay_norm(0.0) <= 1e-14 * size
        assert new.history == ref.history
        for a_sq, mat in ref.d_blocks.items():
            np.testing.assert_array_equal(new.d_blocks[a_sq], mat)

    def test_contraction_and_drift(self):
        lat = toy_lattice()
        rng = rng_for("kam-contract")
        rem = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        rem = rem * (1e-3 / rem.decay_norm(0.0))
        state = toy_state(lat, rem)
        cfg = toy_config()
        new = kam_step(state, lat, cfg, OMEGA)
        s = cfg.s_low
        assert new.remainder.decay_norm(s) < rem.decay_norm(s)
        # diagonal drift bounded by alpha^{-s} |R|_s (exact decay consequence)
        for c in lat.clusters:
            drift = np.linalg.norm(
                new.d_blocks[c.alpha_sq] - state.d_blocks[c.alpha_sq], "fro"
            )
            assert drift <= c.alpha ** (-s) * rem.decay_norm(s) + 1e-15


class TestKamRun:
    def run_toy(self, eps=1e-3, **cfg_kw):
        lat = toy_lattice()
        rng = rng_for("kam-run", eps)
        rem = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        rem = rem * (eps / rem.decay_norm(0.0))
        cfg = toy_config(**cfg_kw)
        res = kam_run(scalar_d_blocks(lat), rem, OMEGA, lat, cfg)
        return lat, cfg, rem, res

    def test_zero_remainder_no_steps(self):
        lat = toy_lattice()
        cfg = toy_config()
        rem = PairedBlockOperator.zero(lat, 2, 3)
        res = kam_run(scalar_d_blocks(lat), rem, OMEGA, lat, cfg)
        assert res.converged and res.state.step == 0
        assert res.residual == 0.0

    def test_toy_convergence(self):
        lat, cfg, rem, res = self.run_toy(1e-4)
        assert res.converged
        assert res.state.step <= 6
        assert res.residual < 1e-10
        # monotone decrease after burn-in
        seq = [h["r_low"] for h in res.history] + [res.residual]
        assert all(b < a for a, b in zip(seq, seq[1:]))
        # conjugation residual of the composed map
        assert res.conjugation_residual < 1e-8

    def test_hermitian_and_symplectic_preserved(self):
        from wavekam.hamiltonian import symplectic_check

        lat, cfg, rem, res = self.run_toy(1e-4)
        assert res.state.hermitian_residual() <= 1e-12
        assert symplectic_check(res.state.accumulated.forward) <= 1e-10

    def test_near_resonant_omega_halts_with_certificate(self):
        lat = toy_lattice()
        rng = rng_for("kam-resonant")
        rem = random_hamiltonian_paired(lat, 2, 3, rng, ell_support=1)
        rem = rem * (1e-4 / rem.decay_norm(0.0))
        gamma = 0.01
        cfg = toy_config(gamma=gamma)
        omega = np.array([1.0 + gamma / 64.0, GOLDEN])
        res = kam_run(scalar_d_blocks(lat), rem, omega, lat, cfg)
        assert not res.converged
        assert res.verdict == "resonance"
        cert = res.certificate
        assert cert["kind"] in ("-", "+")
        # certificate reproduces its failing inequality on re-evaluation
        state = toy_state(lat, rem)
        bad, gap, thr = melnikov_condition(
            state, lat, cfg, omega, cert["ell"], cert["alpha_sq"],
            cert["beta_sq"], cert["kind"],
        )
        assert bad
        assert gap == cert["value"]
        assert thr == pytest.approx(cert["threshold"], rel=1e-15)

    def test_quadratic_model_once_tails_vanish(self):
        lat, cfg, rem, res = self.run_toy(1e-3)
        assert res.converged
        p = 2 * cfg.tau + 4 * cfg.dd + 1
        ks = []
        for h in res.history:
            if h["tail_vanished"] and h.get("r_low_next", 0) > 1e-14:
                k_fit = (
                    h["r_low_next"] * cfg.gamma / (h["N_k"] ** p * h["r_low"] ** 2)
                )
                ks.append(k_fit)
        assert ks, "no pure-quadratic steps recorded"
        assert all(k < 1.0 for k in ks)

    def test_homological_bound_per_step(self):
        lat, cfg, rem, res = self.run_toy(1e-3)
        p = 2 * cfg.tau + 4 * cfg.dd + 1
        for h in res.history:
            bound = h["N_k"] ** p / cfg.gamma * h["r_low"]
            assert h["psi_norm"] <= bound

    def test_final_eigenvalues_unperturbed(self):
        lat = toy_lattice()
        cfg = toy_config()
        rem = PairedBlockOperator.zero(lat, 2, 3)
        res = kam_run(scalar_d_blocks(lat), rem, OMEGA, lat, cfg)
        table = final_eigenvalues(res.state, lat, m=1.0)
        for c in lat.clusters:
            lam = table[c.alpha_sq]["eigenvalues"]
            assert len(lam) == c.n_alpha
            assert np.allclose(lam, c.alpha)
            assert np.abs(table[c.alpha_sq]["corrections"]).max() <= 1e-14

    def test_post_iteration_refinement_classification(self):
        # re-classify the accepted frequency with the final eigenvalue lists
        from wavekam.resonance import EigenData, classify_omega

        lat, cfg, rem, res = self.run_toy(1e-4)
        assert res.converged
        eig = oracles.eigen_from_blocks(lat, res.state.d_blocks, m=1.0)
        for a_sq, table in eig.tables.items():
            assert len(table) == lat.cluster(a_sq).n_alpha
        rep = classify_omega(OMEGA, eig, cfg.gamma, cfg.tau, cfg.dd, 3)
        assert rep.accepted
        # and the pre-screen verdict agrees on this frequency
        pre = EigenData.unperturbed(lat)
        rep_pre = classify_omega(OMEGA, pre, cfg.gamma, cfg.tau, cfg.dd, 3)
        assert rep_pre.accepted == rep.accepted

    def test_correction_scaling_with_eps(self):
        # same operator shape, amplitude halved: the correction nearly halves
        lat = toy_lattice()
        rng = rng_for("kam-correction-scaling")
        base = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        base = base * (1.0 / base.decay_norm(0.0))
        cfg = toy_config()
        vals = {}
        for eps in (1e-3, 5e-4):
            res = kam_run(scalar_d_blocks(lat), base * eps, OMEGA, lat, cfg,
                          compute_conjugation_residual=False)
            assert res.converged
            table = final_eigenvalues(res.state, lat, m=1.0)
            vals[eps] = max(
                t["alpha"] * np.abs(t["corrections"]).max()
                for t in table.values()
            )
        assert 0.4 <= vals[5e-4] / vals[1e-3] <= 0.6
