import math

import numpy as np
import pytest

from wavekam import AngleFunction, SpaceTimeFunction, enumerate_clusters
from wavekam.blockop import BlockOperator
from wavekam.errors import ParameterError
from wavekam.hamiltonian import ExpMap, push_forward
from wavekam.multiplier import FourierMultiplier, PairedMultiplier
from wavekam.regularization import (
    WaveProblem,
    complexify_stage,
    decouple_step,
    kirchhoff_linearization,
    rank_terms_to_paired_blocks,
    reduce_diagonal,
    reparametrize_time,
    run_pipeline,
    split_multiplier_state,
    symmetrize,
)

import oracles
from conftest import rng_for
from oracles import (
    BlockMatrix2,
    FiniteRankOperator,
    RealVectorField,
    complexify,
    field_apply_at_phi,
    finite_rank_to_blocks,
    paired_apply_pair_at_phi,
    paired_copy,
)

OMEGA = np.array([1.0, (1 + math.sqrt(5)) / 2])


def small_problem(eps, a=None, rank=None, **kw):
    nu, d, ell_max, j_max = 2, 2, 4, 2
    if a is None:
        a = AngleFunction.cosine(nu, ell_max, (1, 0))
    if rank is None:
        b = SpaceTimeFunction.from_modes(nu, ell_max, d, {((1, 0), (1, 0)): 0.5,
                                                          ((-1, 0), (-1, 0)): 0.5})
        c = SpaceTimeFunction.from_modes(nu, ell_max, d, {((0, 1), (0, 1)): 0.5,
                                                          ((0, -1), (0, -1)): 0.5})
        rank = [(b, c)]
    defaults = dict(d=d, nu=nu, epsilon=eps, a=a, rank_pairs=rank,
                    j_max=j_max, ell_max=ell_max, q=8, M=3, gamma=0.01)
    defaults.update(kw)
    return WaveProblem(**defaults)


def original_field_blocks(problem, lattice=None):
    """L = (0, 1; (1+eps a) Lap + eps R, 0) as a real 2x2 block field."""
    lat = lattice or problem.lattice
    nu, L = problem.nu, problem.ell_max
    eye = BlockOperator.identity(lat, nu, L)
    zero = BlockOperator(lat, nu, L)
    sym = FourierMultiplier(lat, nu, L, order=2.0)
    one_plus = problem.a * problem.epsilon
    one_plus[(0,) * nu] = one_plus[(0,) * nu] + 1.0
    for i, c in enumerate(lat.clusters):
        sym.coeffs[i] = (one_plus * (-c.alpha_sq)).coeffs.ravel()
    lower = sym.to_blocks()
    if problem.rank_pairs and problem.epsilon:
        rk = finite_rank_to_blocks(FiniteRankOperator(problem.rank_pairs), lat)
        lower = lower + rk * problem.epsilon
    return RealVectorField(zero.copy(), eye, lower, zero.copy())


def stage1_field_blocks(problem, s1):
    """L1 assembled from (a0, a1, rank1) as a real 2x2 block field."""
    lat, nu, L = problem.lattice, problem.nu, problem.ell_max
    a0b = FourierMultiplier.from_angle_function(lat, s1.a0).to_blocks()
    a1D = FourierMultiplier(lat, nu, L, order=1.0)
    for i, c in enumerate(lat.clusters):
        a1D.coeffs[i] = (s1.a1 * c.alpha).coeffs.ravel()
    a1Db = a1D.to_blocks()
    low = a1Db * (-1.0)
    if problem.rank_pairs and problem.epsilon:
        rk = finite_rank_to_blocks(FiniteRankOperator(s1.rank_pairs_1), lat)
        low = low + rk * problem.epsilon
    return RealVectorField(a0b * (-1.0), a1Db, low, a0b)


class TestSymmetrize:
    def test_eps_zero_is_trivial(self):
        p = small_problem(0.0)
        s1 = symmetrize(p, OMEGA)
        one = AngleFunction.constant(p.nu, p.ell_max, 1.0)
        assert (s1.beta - one).sobolev_norm(0.0) <= 1e-14
        assert (s1.a1 - one).sobolev_norm(0.0) <= 1e-14
        assert s1.a0.sobolev_norm(0.0) <= 1e-14

    def test_constant_coefficient(self):
        # eps a = 3 constant: a1 = 2, beta = 4^{-1/4} = 1/sqrt(2)
        a = AngleFunction.constant(2, 4, 3.0)
        p = small_problem(1.0, a=a)
        s1 = symmetrize(p, OMEGA)
        assert s1.a1.mean().real == pytest.approx(2.0, abs=1e-13)
        assert s1.beta.mean().real == pytest.approx(1 / math.sqrt(2), abs=1e-13)
        assert s1.a0.sobolev_norm(0.0) <= 1e-13

    def test_defining_identities(self):
        # independent of the sampling route: beta^4 (1 + eps a) = 1, a1^2 = 1 + eps a
        p = small_problem(1e-2)
        s1 = symmetrize(p, OMEGA)
        one_plus = p.a * p.epsilon
        one_plus[(0, 0)] = one_plus[(0, 0)] + 1.0
        b2, _ = s1.beta.product(s1.beta)
        b4, _ = b2.product(b2)
        lhs, _ = b4.product(one_plus)
        one = AngleFunction.constant(p.nu, p.ell_max, 1.0)
        assert (lhs - one).sobolev_norm(0.0) <= 1e-10
        a1sq, _ = s1.a1.product(s1.a1)
        assert (a1sq - one_plus).sobolev_norm(0.0) <= 1e-10

    def test_estimates_scale_linearly(self):
        r = []
        for eps in (2e-3, 1e-3):
            s1 = symmetrize(small_problem(eps), OMEGA)
            r.append(s1.diagnostics["beta_minus_1"])
        assert 1.8 <= r[0] / r[1] <= 2.2

    def test_root_domain_violation(self):
        a = AngleFunction.constant(2, 4, -2.0)
        p = small_problem(1.0, a=a)
        with pytest.raises(ParameterError):
            symmetrize(p, OMEGA)

    def test_push_forward_oracle(self):
        # push(S) L = L1 on the block truncation
        p = small_problem(5e-3)
        lat, nu, L = p.lattice, p.nu, p.ell_max
        s1 = symmetrize(p, OMEGA)
        l0 = original_field_blocks(p)
        l1_claim = stage1_field_blocks(p, s1)
        half = FourierMultiplier(lat, nu, L, order=-0.5)
        halfinv = FourierMultiplier(lat, nu, L, order=0.5)
        for i, c in enumerate(lat.clusters):
            half.coeffs[i] = (s1.beta * c.alpha ** (-0.5)).coeffs.ravel()
            halfinv.coeffs[i] = (s1.beta_inv * c.alpha**0.5).coeffs.ravel()
        zero = BlockOperator(lat, nu, L)
        smap = BlockMatrix2(half.to_blocks(), zero.copy(), zero.copy(),
                            halfinv.to_blocks())
        sinv = BlockMatrix2(halfinv.to_blocks() * 1.0, zero.copy(), zero.copy(),
                            half.to_blocks() * 1.0)
        # exact inverse entries: (beta a^-1/2)^-1 = beta^-1 a^{1/2}
        got = push_forward(l0, ExpMap(smap, sinv), OMEGA)
        diff = (got - l1_claim).decay_norm(0.0)
        assert diff <= 1e-9 * max(1.0, l1_claim.decay_norm(0.0))

    def test_symmetrized_field_is_hamiltonian(self):
        p = small_problem(5e-3)
        s1 = symmetrize(p, OMEGA)
        l1 = stage1_field_blocks(p, s1)
        assert l1.is_hamiltonian(1e-10)


class TestComplexifyStage:
    def test_matches_generic_complexification(self):
        # catches the rank-part factor: C^{-1} L1 C computed two ways
        p = small_problem(3e-3)
        lat, nu, L = p.lattice, p.nu, p.ell_max
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        l1 = stage1_field_blocks(p, s1)
        generic = complexify(l1)
        assembled = s2.field.to_paired_blocks() + rank_terms_to_paired_blocks(
            s2.rank_terms, lat, nu, L, scale=p.epsilon
        )
        diff = (generic - assembled).decay_norm(0.0)
        assert diff <= 1e-11 * max(1.0, generic.decay_norm(0.0))

    def test_field_is_hamiltonian(self):
        p = small_problem(3e-3)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        assert s2.field.is_hamiltonian(1e-12)
        blocks = s2.field.to_paired_blocks() + rank_terms_to_paired_blocks(
            s2.rank_terms, p.lattice, p.nu, p.ell_max, scale=p.epsilon
        )
        assert oracles.is_hamiltonian(blocks, 1e-10)


class TestReparametrize:
    def test_eps_zero_identity_stage(self):
        p = small_problem(0.0)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        assert s3.m == pytest.approx(1.0, abs=1e-15)
        assert s3.alpha_fn.sobolev_norm(0.0) <= 1e-14
        assert np.max(np.abs(s3.rho_vals - 1.0)) <= 1e-13
        assert s3.a2.sobolev_norm(0.0) <= 1e-13

    def test_single_mode_closed_form(self):
        # eps a = 2 d cos(phi1) + d^2 cos^2(phi1) gives a1 = 1 + d cos(phi1),
        # m = 1 and alpha = d sin(phi1) / omega1 exactly
        delta = 1e-3
        nu, ell_max = 2, 4
        a = AngleFunction.cosine(nu, ell_max, (1, 0), 2 * delta)
        cossq, _ = AngleFunction.cosine(nu, ell_max, (1, 0)).product(
            AngleFunction.cosine(nu, ell_max, (1, 0))
        )
        a = a + cossq * delta**2
        p = small_problem(1.0, a=a)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        assert s3.m == pytest.approx(1.0, abs=1e-12)
        want = oracles.angle_from_modes(
            nu, ell_max,
            {(1, 0): delta / (2j * OMEGA[0]), (-1, 0): -delta / (2j * OMEGA[0])},
        )
        assert (s3.alpha_fn - want).sobolev_norm(0.0) <= 1e-12

    def test_coefficient_equation_residual(self):
        # m (1 + omega . dphi alpha) = a1 as coefficient identity
        p = small_problem(2e-3)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        lhs = s3.alpha_fn.omega_dphi(OMEGA) * s3.m
        lhs[(0, 0)] = lhs[(0, 0)] + s3.m
        assert (lhs - s1.a1).sobolev_norm(0.0) <= 1e-12

    def test_highest_order_constant(self):
        p = small_problem(2e-3)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        assert s3.diagnostics["w1_nonconstant"] <= 1e-12
        assert s3.diagnostics["w1_mean"] == pytest.approx(s3.m, abs=1e-12)
        assert s3.diagnostics["diffeo_roundtrip"] <= 1e-12

    def test_frozen_angle_oracle(self):
        # L3(theta) u = (1/rho) L2(theta + omega alpha~)(u) at sampled angles
        p = small_problem(2e-3)
        rng = rng_for("stage3-oracle")
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        pts = list(p.lattice.all_points())
        c1 = {pts[int(k)]: complex(rng.standard_normal(), rng.standard_normal())
              for k in rng.integers(0, len(pts), 3)}
        c2 = {pts[int(k)]: complex(rng.standard_normal(), rng.standard_normal())
              for k in rng.integers(0, len(pts), 3)}
        for idx in (5, 17, 101):
            theta = np.array([0.3, 1.1]) * idx
            at = float(
                -s3.alpha_fn.eval_at(
                    (theta + OMEGA * 0.0).reshape(1, -1)
                ).real[0]
            )
            # solve alpha~(theta) by iteration at this angle
            for _ in range(100):
                new = float(-s3.alpha_fn.eval_at(
                    (theta + OMEGA * at).reshape(1, -1)).real[0])
                if abs(new - at) < 1e-14:
                    break
                at = new
            shifted = theta + OMEGA * at
            rho = 1.0 + float(
                s3.alpha_fn.omega_dphi(OMEGA).eval_at(shifted.reshape(1, -1)).real[0]
            )
            w1a, w2a = field_apply_at_phi(
                s2.field, s2.rank_terms, p.epsilon, c1, c2, shifted
            )
            want1 = {j: v / rho for j, v in w1a.items()}
            want2 = {j: v / rho for j, v in w2a.items()}
            got1, got2 = field_apply_at_phi(
                s3.field, s3.rank_terms, p.epsilon, c1, c2, theta
            )
            for j in set(want1) | set(got1):
                assert got1.get(j, 0j) == pytest.approx(want1.get(j, 0j), abs=1e-8)
            for j in set(want2) | set(got2):
                assert got2.get(j, 0j) == pytest.approx(want2.get(j, 0j), abs=1e-8)


class TestDecoupling:
    def setup_stage3(self, eps=2e-3):
        p = small_problem(eps)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        return p, s3

    def test_zero_offdiagonal_is_fixed_point(self):
        p, s3 = self.setup_stage3(0.0)
        fld, (fwd, bwd), vn, diag = decouple_step(s3.field, 0, s3.m, OMEGA, p)
        assert vn.norm(-1.0, 0.0) == 0.0
        assert (fld - s3.field).norm(0.0, 0.0) <= 1e-14

    def test_single_mode_formula(self):
        # q at one (ell0, alpha0): v = -i q / (2 m alpha0), one coefficient
        p, s3 = self.setup_stage3(0.0)
        lat = p.lattice
        fld = paired_copy(s3.field)
        i0 = 1
        q_val = 0.37 - 0.11j
        fld.r2.row(i0)[(1, -1)] = 1j * q_val  # g2 = i q
        _, (fw, bw), vn, diag = decouple_step(fld, 0, s3.m, OMEGA, p)
        alpha0 = lat.clusters[i0].alpha
        assert vn.row(i0)[(1, -1)] == pytest.approx(
            -1j * q_val / (2 * s3.m * alpha0)
        )
        assert diag["homological_residual"] <= 1e-14

    def test_homological_residual_random(self):
        p, s3 = self.setup_stage3(2e-3)
        fld, maps, vn, diag = decouple_step(s3.field, 0, s3.m, OMEGA, p)
        assert diag["homological_residual"] <= 1e-13

    def test_pn_formula_matches_push_forward(self):
        # remainder via the telescoped formula == direct push-forward
        from wavekam.multiplier import PairedMultiplier, multiplier_exponential
        from wavekam.multiplier import FourierMultiplier

        p, s3 = self.setup_stage3(2e-3)
        lat, nu, L = p.lattice, p.nu, p.ell_max
        fld = s3.field
        new_fld, (fwd, bwd), vn, _ = decouple_step(fld, 0, s3.m, OMEGA, p)
        r, q = split_multiplier_state(fld, s3.m)
        gen = PairedMultiplier(FourierMultiplier.zero(lat, nu, L), vn * 1j)
        _, ge2, _ = multiplier_exponential(gen)
        dmult = PairedMultiplier.diagonal(
            FourierMultiplier.from_alpha_symbol(lat, nu, L, lambda a: -1j * s3.m * a, 1.0)
        )
        rmult = PairedMultiplier.diagonal(r * 1j)
        qmult = PairedMultiplier(FourierMultiplier.zero(lat, nu, L), q * 1j)
        eye = PairedMultiplier.identity(lat, nu, L)
        phi_minus = fwd - eye
        pn = (bwd - eye).compose(rmult) + bwd.compose(
            dmult.compose(ge2) - ge2.compose(dmult)
            + (rmult + qmult).compose(phi_minus)
            - phi_minus.omega_dphi(OMEGA)
        )
        want = dmult + rmult + pn
        assert (new_fld - want).norm(0.0, 0.0) <= 1e-13

    def test_off_diagonal_order_bookkeeping(self):
        # the size stays O(eps); the gain is one order of alpha-decay per step
        p, s3 = self.setup_stage3(2e-3)
        alphas = [c.alpha for c in p.lattice.clusters]
        fld = s3.field
        _, q0 = split_multiplier_state(fld, s3.m)
        base = q0.norm(0.0, 0.0)
        for n in range(3):
            fld, _, _, _ = decouple_step(fld, n, s3.m, OMEGA, p)
            _, q = split_multiplier_state(fld, s3.m)
            assert q.norm(-(n + 1.0), 0.0) <= base * 1.5
            prof = [q.row(i).sobolev_norm(0.0) for i in range(len(alphas))]
            ratio = prof[-1] / prof[0]
            expect = (alphas[0] / alphas[-1]) ** (n + 1)
            assert ratio <= 1.5 * expect

    def test_m_zero_rejected(self):
        p, s3 = self.setup_stage3(0.0)
        with pytest.raises(ParameterError):
            decouple_step(s3.field, 0, 0.0, OMEGA, p)


class TestReduceDiagonal:
    def run_chain(self, eps):
        p = small_problem(eps)
        s1 = symmetrize(p, OMEGA)
        s2 = complexify_stage(p, s1)
        s3 = reparametrize_time(p, s1, s2, OMEGA)
        fld = s3.field
        for n in range(p.M):
            fld, _, _, _ = decouple_step(fld, n, s3.m, OMEGA, p)
        return p, s3, fld

    def test_phi_independent_symbol_untouched(self):
        p, s3, _ = self.run_chain(0.0)
        lat, nu, L = p.lattice, p.nu, p.ell_max
        fld = paired_copy(s3.field)
        for i, c in enumerate(lat.clusters):
            fld.r1.row(i)[(0, 0)] += 1j * 0.01 / c.alpha  # g1 = -im a + i r: r = 0.01/a
        new_fld, maps, c_raw, e, mu, diag = reduce_diagonal(fld, s3.m, OMEGA, p)
        assert e.norm(-1.0, 0.0) <= 1e-14
        for i, c in enumerate(lat.clusters):
            assert c_raw[i] == pytest.approx(0.01 / c.alpha, abs=1e-13)

    def test_single_mode_formula(self):
        p, s3, _ = self.run_chain(0.0)
        lat = p.lattice
        fld = paired_copy(s3.field)
        rho_hat = 0.02
        ell0 = (1, 0)
        # r symbol = rho_hat cos(ell0 . phi) per cluster: real, zero mean
        for i, c in enumerate(lat.clusters):
            fld.r1.row(i)[ell0] += 1j * rho_hat / 2
            fld.r1.row(i)[(-1, 0)] += 1j * rho_hat / 2
        new_fld, maps, c_raw, e, mu, diag = reduce_diagonal(fld, s3.m, OMEGA, p)
        div = 1j * float(np.dot(OMEGA, ell0))
        for i in range(len(lat.clusters)):
            assert c_raw[i] == pytest.approx(0.0, abs=1e-14)
            assert e.row(i)[ell0] == pytest.approx(rho_hat / 2 / div)
        assert diag["homological_residual"] <= 1e-13

    def test_full_chain_residuals(self):
        p, s3, fld = self.run_chain(2e-3)
        new_fld, maps, c_raw, e, mu, diag = reduce_diagonal(fld, s3.m, OMEGA, p)
        assert diag["homological_residual"] <= 1e-12
        assert diag["diagonal_fluctuation"] <= 1e-12
        alphas = np.array([c.alpha for c in p.lattice.clusters])
        assert np.max(np.abs(mu - s3.m * alphas)) <= 0.01


class TestRunPipeline:
    def test_eps_zero_trivial_chain(self):
        p = small_problem(0.0)
        res = run_pipeline(p, OMEGA)
        assert res.m == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(res.c)) <= 1e-13
        assert res.r4.decay_norm(0.0) <= 1e-13

    def test_conjugation_oracle_end_to_end(self):
        # push(T) L3 = i D_M T + R4 tested by frozen-angle application on a grid
        p = small_problem(2e-3)
        rng = rng_for("pipeline-oracle")
        res = run_pipeline(p, OMEGA)
        s3 = res.stage3
        lat = p.lattice
        pts = list(lat.all_points())
        c1 = {pts[int(k)]: complex(rng.standard_normal(), rng.standard_normal())
              for k in rng.integers(0, len(pts), 4)}
        c2 = {pts[int(k)]: complex(rng.standard_normal(), rng.standard_normal())
              for k in rng.integers(0, len(pts), 4)}
        # reduced field action: i D_M T is diagonal per mode: v1 = -i mu u1
        theta = np.array([0.7, 2.3])
        got1, got2 = field_apply_at_phi(
            res.r4_multiplier, res.r4_rank_terms, p.epsilon, c1, c2, theta
        )
        idx = {a2: i for i, a2 in enumerate(lat.alpha_sqs)}
        for j, v in c1.items():
            i = idx[lat.cluster_of_point[j]]
            got1[j] = got1.get(j, 0j) - 1j * res.mu[i] * v
        for j, v in c2.items():
            i = idx[lat.cluster_of_point[j]]
            got2[j] = got2.get(j, 0j) + 1j * res.mu[i] * v
        # oracle: T^{-1}(L3 T - omega dphi T) applied via operators
        tfwd_b = res.t_fwd.to_paired_blocks()
        tbwd_b = res.t_bwd.to_paired_blocks()
        l3_mult_b = s3.field.to_paired_blocks()
        l3_rank_b = rank_terms_to_paired_blocks(
            s3.rank_terms, lat, p.nu, p.ell_max, scale=p.epsilon
        )
        l3_b = l3_mult_b + l3_rank_b
        inner = l3_b.compose(tfwd_b) - tfwd_b.omega_dphi(OMEGA)
        pushed = tbwd_b.compose(inner)
        want1, want2 = paired_apply_pair_at_phi(pushed, c1, c2, theta)
        for j in set(got1) | set(want1):
            assert got1.get(j, 0j) == pytest.approx(want1.get(j, 0j), abs=1e-9)
        for j in set(got2) | set(want2):
            assert got2.get(j, 0j) == pytest.approx(want2.get(j, 0j), abs=1e-9)

    def test_r4_structure_and_hamiltonian(self):
        p = small_problem(2e-3)
        res = run_pipeline(p, OMEGA)
        assert oracles.is_hamiltonian(res.r4, 1e-10)
        # finite-rank-plus-multiplier structure is preserved: the multiplier
        # part is block-diagonal off-part, the rank part has limited clusters
        assert res.r4_multiplier.r1.norm(0.0, 0.0) == 0.0

    def test_eps_scaling(self):
        # quantities with a genuine linear term halve under eps-halving;
        # |m - 1| needs mean(a) != 0 for its linear term to survive, and the
        # decoupling constant c is built from products of O(eps) symbols so
        # it decays at least linearly (quadratically on this data)
        a = AngleFunction.cosine(2, 4, (1, 0))
        a[(0, 0)] = 0.5
        vals = {}
        for eps in (2e-3, 1e-3):
            res = run_pipeline(small_problem(eps, a=a), OMEGA)
            vals[eps] = {
                "m": abs(res.m - 1.0),
                "r4": res.r4.decay_norm(0.0),
                "beta": res.stage1.diagnostics["beta_minus_1"],
                "a2": res.stage3.diagnostics["a2_norm"],
                "c": res.diagnostics["c_final_max_weighted"],
            }
        for key in ("m", "r4", "beta", "a2"):
            ratio = vals[2e-3][key] / vals[1e-3][key]
            assert 1.8 <= ratio <= 2.2, (key, ratio)
        assert vals[2e-3]["c"] / vals[1e-3]["c"] >= 1.8

    def test_kirchhoff_linearization_completes(self):
        nu, d, ell_max, j_max = 2, 2, 4, 2
        v0 = SpaceTimeFunction.from_modes(
            nu, ell_max, d,
            {((1, 0), (1, 0)): 0.25, ((-1, 0), (-1, 0)): 0.25,
             ((0, 1), (0, 1)): 0.25, ((0, -1), (0, -1)): 0.25},
        )
        p = kirchhoff_linearization(
            v0, dict(d=d, nu=nu, epsilon=1e-3, j_max=j_max, ell_max=ell_max,
                     q=8, M=3, gamma=0.01)
        )
        assert p.a.is_real(1e-12)
        res = run_pipeline(p, OMEGA)
        assert oracles.is_hamiltonian(res.r4, 1e-10)
        assert res.r4_multiplier.r1.norm(0.0, 0.0) == 0.0
        assert res.r4.decay_norm(0.0) <= 0.1

    def test_stage_maps_symplectic(self):
        from wavekam.hamiltonian import symplectic_check

        p = small_problem(2e-3)
        res = run_pipeline(p, OMEGA)
        t_blocks = res.t_fwd.to_paired_blocks()
        assert symplectic_check(t_blocks) <= 1e-10
