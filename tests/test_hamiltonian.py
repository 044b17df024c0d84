import numpy as np
import pytest

from wavekam import enumerate_clusters
from wavekam.blockop import (
    BlockOperator,
    PairedBlockOperator,
    operator_exponential,
)
from wavekam.errors import ContractViolation
from wavekam.hamiltonian import ExpMap, push_forward, symplectic_check

from conftest import (
    random_block_operator,
    random_hamiltonian_paired,
    random_paired,
    rng_for,
)
import oracles
from oracles import BlockMatrix2, RealVectorField, complexify


def scalar_field(lat, nu, ell_max, a, b, c, d):
    """2x2 field with scalar multiples of the identity in each slot."""
    eye = BlockOperator.identity(lat, nu, ell_max)
    return RealVectorField(eye * a, eye * b, eye * c, eye * d)


def random_real_block(lattice, nu, ell_max, rng, **kw):
    r = random_block_operator(lattice, nu, ell_max, rng, **kw)
    return (r + r.conj()) * 0.5


class TestComplexify:
    def test_scalar_formula(self):
        # a = d = 0, b = 1, c = lam: r1 = -i(1-lam)/2, r2 = i(1+lam)/2
        lat = enumerate_clusters(2, 2)
        lam = -3.0
        x = scalar_field(lat, 2, 1, 0.0, 1.0, lam, 0.0)
        out = complexify(x)
        eye = BlockOperator.identity(lat, 2, 1)
        want1 = eye * (-1j * (1 - lam) / 2)
        want2 = eye * (1j * (1 + lam) / 2)
        assert (out.r1 - want1).hs_total() <= 1e-14
        assert (out.r2 - want2).hs_total() <= 1e-14

    def test_J_gives_minus_i(self):
        lat = enumerate_clusters(2, 2)
        x = scalar_field(lat, 2, 1, 0.0, 1.0, -1.0, 0.0)
        out = complexify(x)
        eye = BlockOperator.identity(lat, 2, 1)
        assert (out.r1 - eye * (-1j)).hs_total() <= 1e-14
        assert out.r2.hs_total() <= 1e-14

    def test_zero(self):
        lat = enumerate_clusters(2, 2)
        x = scalar_field(lat, 2, 1, 0.0, 0.0, 0.0, 0.0)
        out = complexify(x)
        assert out.decay_norm(0.0) == 0.0

    def test_reality_required(self):
        lat = enumerate_clusters(2, 2)
        eye = BlockOperator.identity(lat, 2, 1)
        x = RealVectorField(eye * 1j, eye * 0.0, eye * 0.0, eye * 0.0)
        with pytest.raises(ContractViolation):
            complexify(x)

    def test_hamiltonian_predicate_preserved(self):
        # X = J G with random symmetric real G becomes a complex Hamiltonian field
        lat = enumerate_clusters(2, 2)
        rng = rng_for("cplx-ham")
        g11 = random_real_block(lat, 2, 1, rng)
        g11 = (g11 + g11.transpose()) * 0.5
        g22 = random_real_block(lat, 2, 1, rng)
        g22 = (g22 + g22.transpose()) * 0.5
        g12 = random_real_block(lat, 2, 1, rng)
        x = RealVectorField(g12.transpose(), g22, g11 * (-1.0), g12 * (-1.0))
        # X = J G = (G21 G22; -G11 -G12) with G21 = G12^T
        assert x.is_hamiltonian(1e-12)
        out = complexify(x)
        assert oracles.is_hamiltonian(out, 1e-10)


def paired_is(lat, nu, ell_max):
    """iS = (i I, 0; 0, -i I), the paired map that passes as J does."""
    eye = BlockOperator.identity(lat, nu, ell_max)
    return PairedBlockOperator(eye * 1j, BlockOperator(lat, nu, ell_max))


class TestSymplecticCheck:
    def test_identity_and_J(self):
        lat = enumerate_clusters(2, 2)
        ident = BlockMatrix2.identity(lat, 2, 1)
        jmat = BlockMatrix2.J(lat, 2, 1)
        assert oracles.real_symplectic_check(ident) <= 1e-15
        assert oracles.real_symplectic_check(jmat) <= 1e-15
        for phi in (PairedBlockOperator.identity(lat, 2, 1), paired_is(lat, 2, 1)):
            assert symplectic_check(phi) == 0.0
            assert oracles.real_symplectic_check(phi) == 0.0

    def test_sigma_check_matches_real_check(self):
        # non-symplectic maps: the residuals are O(1), so the two checks
        # compare nonzero values.  Full support in the box truncates and
        # couples all cluster pairs; density 0.6 leaves ell and -ell with
        # different blocks.  Both keep compose's scatter plans few.
        rng = rng_for("symp-sigma-real")
        for lat, density in ((enumerate_clusters(2, 2), 1.0),
                             (enumerate_clusters(2, 1), 0.6)) * 3:
            phi = random_paired(lat, 2, 2, rng, density=density)
            got = symplectic_check(phi)
            want = oracles.real_symplectic_check(phi)
            assert got > 0.1
            assert abs(got - want) <= 1e-14 * want

    def test_off_centre_mode_counts_its_mirror_once(self):
        # Phi = I + A with A's top row (0, R2), R2 only at ell = (1, 0): the
        # residual's largest mode is +-(1, 0), where the bottom row adds the
        # top row's blocks at the mirrored mode, which are zero
        lat = enumerate_clusters(2, 2)
        rng = rng_for("symp-off-centre")
        r2 = BlockOperator(lat, 2, 2)
        for ca in lat.clusters:
            for cb in lat.clusters:
                oracles.set_block(r2, (1, 0), ca.alpha_sq, cb.alpha_sq, 0.1 * (
                    rng.standard_normal((ca.n_alpha, cb.n_alpha))
                    + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha))))
        phi = PairedBlockOperator.identity(lat, 2, 2) + PairedBlockOperator(
            BlockOperator(lat, 2, 2), r2)
        want = oracles.real_symplectic_check(phi)
        assert abs(symplectic_check(phi) - want) <= 1e-14 * want
        assert want == pytest.approx((r2 - r2.transpose()).hs_total(), rel=1e-14)

    def test_exp_of_hamiltonian_field_is_symplectic(self):
        # support 1 in box 6: the first truncated power is Psi^7, far below 1e-10
        lat = enumerate_clusters(2, 2)
        rng = rng_for("symp-exp")
        psi = random_hamiltonian_paired(lat, 2, 6, rng, ell_support=1)
        psi = psi * (0.1 / psi.decay_norm(0.0))
        phi = operator_exponential(psi)
        assert symplectic_check(phi) <= 1e-10

    def test_nonsymplectic_detected(self):
        lat = enumerate_clusters(2, 1)
        m = BlockMatrix2.identity(lat, 2, 1) * 2.0
        assert oracles.real_symplectic_check(m) > 1.0
        # 2 I: Phi^sigma Phi - I = 3 I at ell = 0, Frobenius 3 sqrt(2 n)
        two = PairedBlockOperator.identity(lat, 2, 1) * 2.0
        want = 3.0 * np.sqrt(2 * lat.n_points)
        assert symplectic_check(two) == pytest.approx(want, rel=1e-15)
        assert oracles.real_symplectic_check(two) == pytest.approx(want, rel=1e-15)


class TestPushForward:
    def test_identity_map_is_neutral(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("push-id")
        x = random_hamiltonian_paired(lat, 2, 2, rng, ell_support=1)
        ident = ExpMap.identity(lat, 2, 2)
        out = push_forward(x, ident, np.array([1.0, 0.5]))
        assert (out - x).decay_norm(0.0) <= 1e-14

    def test_phi_independent_map_is_pure_conjugation(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("push-const")
        x = random_hamiltonian_paired(lat, 2, 2, rng, ell_support=1)
        psi = random_hamiltonian_paired(lat, 2, 2, rng, ell_support=0)
        psi = psi * (0.1 / psi.decay_norm(0.0))
        phi = ExpMap.from_generator(psi)
        omega = np.array([1.0, 0.7])
        out = push_forward(x, phi, omega)
        conj_only = phi.inverse.compose(x.compose(phi.forward))
        assert (out - conj_only).decay_norm(0.0) <= 1e-13

    def test_hamiltonian_preserved_under_symplectic_push(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("push-ham")
        x = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        psi = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        psi = psi * (0.05 / psi.decay_norm(0.0))
        phi = ExpMap.from_generator(psi)
        out = push_forward(x, phi, np.array([1.0, np.sqrt(2)]))
        assert out.hamiltonian_residual(0.0) <= 1e-10 * max(
            1.0, out.decay_norm(0.0)
        )

    def test_push_composes(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("push-comp")
        omega = np.array([1.0, 0.6])
        x = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        p1 = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        p2 = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
        p1 = p1 * (0.03 / p1.decay_norm(0.0))
        p2 = p2 * (0.03 / p2.decay_norm(0.0))
        phi1 = ExpMap.from_generator(p1)
        phi2 = ExpMap.from_generator(p2)
        seq = push_forward(push_forward(x, phi1, omega), phi2, omega)
        joint = push_forward(x, phi1.then(phi2), omega)
        scale = max(1.0, joint.decay_norm(0.0))
        assert (seq - joint).decay_norm(0.0) <= 1e-10 * scale

    def test_neumann_inverse_fallback(self):
        lat = enumerate_clusters(2, 1)
        rng = rng_for("push-neumann")
        x = random_hamiltonian_paired(lat, 2, 2, rng, ell_support=1, density=1.0)
        psi = random_hamiltonian_paired(lat, 2, 2, rng, ell_support=0, density=1.0)
        psi = psi * (0.05 / psi.decay_norm(0.0))
        phi_op = operator_exponential(psi)
        omega = np.array([1.0, 0.3])
        via_map = push_forward(x, ExpMap.from_generator(psi), omega)
        via_neumann = oracles.push_forward(x, phi_op, omega)
        scale = max(1.0, via_map.decay_norm(0.0))
        assert (via_map - via_neumann).decay_norm(0.0) <= 1e-11 * scale


def sigma_dense(m):
    """S M^H S of a dense paired matrix, S = diag(I, -I)."""
    n = len(m) // 2
    s = np.diag(np.r_[np.ones(n), -np.ones(n)])
    return s @ m.conj().T @ s


class TestSigma:
    """M^sigma = S M* S against the dense flattening, and the identities
    the KAM step and ``ExpMap.then`` rest on."""

    def test_matches_dense_and_is_an_involution(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-dense")
        for _ in range(3):
            m = random_paired(lat, 2, 2, rng, density=0.6)
            dense = oracles.to_dense(m)[0]
            got = oracles.to_dense(m.sigma())[0]
            assert np.abs(got - sigma_dense(dense)).max() == 0.0
            assert (m.sigma().sigma() - m).decay_norm(0.0) == 0.0

    def test_reverses_products(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-product")
        # full support in the box: the product truncates, and sigma commutes
        # with the truncation since it maps ell to -ell
        a = random_paired(lat, 2, 2, rng)
        b = random_paired(lat, 2, 2, rng)
        ab = a.compose(b)
        assert ab.meta["truncation_loss"] > 0.0
        diff = ab.sigma() - b.sigma().compose(a.sigma())
        assert diff.decay_norm(0.0) <= 1e-14 * ab.decay_norm(0.0)

    def test_hamiltonian_residual_vanishes_exactly_on_minus_sigma(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-residual")
        ham = random_hamiltonian_paired(lat, 2, 2, rng)
        gen = random_paired(lat, 2, 2, rng)
        for m, hamiltonian in ((ham, True), (gen, False)):
            dense = oracles.to_dense(m)[0]
            assert bool(np.abs(sigma_dense(dense) + dense).max() == 0.0) is hamiltonian
            assert (m.hamiltonian_residual(0.0) == 0.0) is hamiltonian
        assert gen.hamiltonian_residual(0.0) > 0.1 * gen.decay_norm(0.0)
        # the projection (M - M^sigma) / 2 lands on the Hamiltonian fields
        proj = (gen - gen.sigma()) * 0.5
        assert proj.hamiltonian_residual(0.0) == 0.0

    def test_mirrored_product_needs_hamiltonian_factors(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-mirror")
        x = random_hamiltonian_paired(lat, 2, 3, rng, ell_support=1)
        psi = random_hamiltonian_paired(lat, 2, 3, rng, ell_support=1)
        bad = random_paired(lat, 2, 3, rng, ell_support=1)
        for p, tol in ((psi, 1e-14), (bad, None)):
            want = p.compose(x)
            err = (x.compose(p).sigma() - want).decay_norm(0.0)
            if tol is None:
                assert err > 0.1 * want.decay_norm(0.0)
            else:
                assert err <= tol * want.decay_norm(0.0)

    def test_sigma_of_exp_is_the_exp_of_minus_psi(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-exp")
        psi = random_hamiltonian_paired(lat, 2, 6, rng, ell_support=1)
        psi = psi * (0.1 / psi.decay_norm(0.0))
        got = operator_exponential(psi).sigma()
        want = operator_exponential(psi * (-1.0))
        assert (got - want).decay_norm(0.0) <= 1e-14

    def test_then_inverts_by_sigma(self):
        lat = enumerate_clusters(2, 2)
        rng = rng_for("sigma-then")
        maps = []
        for _ in range(3):
            psi = random_hamiltonian_paired(lat, 2, 4, rng, ell_support=1)
            maps.append(ExpMap.from_generator(psi * (0.01 / psi.decay_norm(0.0))))
        # support 1 in box 4 at |Psi| = 0.01: truncation stays below 1e-14
        chain = ExpMap.identity(lat, 2, 4)
        for phi in maps:
            chain = chain.then(phi)
        assert (chain.inverse - chain.forward.sigma()).decay_norm(0.0) == 0.0
        eye = PairedBlockOperator.identity(lat, 2, 4)
        for prod in (chain.inverse.compose(chain.forward),
                     chain.forward.compose(chain.inverse)):
            assert (prod - eye).decay_norm(0.0) <= 1e-14
        # the chain of the step inverses agrees to rounding
        inv = maps[2].inverse.compose(maps[1].inverse).compose(maps[0].inverse)
        assert (chain.inverse - inv).decay_norm(0.0) <= 1e-14
