import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wavekam import (
    AngleFunction,
    SpaceTimeFunction,
    diophantine_check,
    enumerate_clusters,
    omega_dphi_inverse,
    sobolev_norm,
)
from wavekam import blockop
from wavekam.blockop import BlockOperator
from wavekam.errors import DiophantineViolation, ParameterError
from wavekam.spectrum import ell_box, ell_table

from conftest import random_block_operator, rng_for
from oracles import (LipschitzQuotientError, OmegaGrid, convolve_full_loop,
                     weighted_lip_norm)


class TestEnumerateClusters:
    def test_d1_two_points_per_cluster(self):
        lat = enumerate_clusters(1, 3)
        assert [c.alpha_sq for c in lat.clusters] == [1, 4, 9]
        assert all(c.n_alpha == 2 for c in lat.clusters)

    def test_d2_jmax1_single_cluster(self):
        # oracle: enumerate (+-1,0),(0,+-1) by hand
        lat = enumerate_clusters(2, 1)
        assert len(lat.clusters) == 1
        c = lat.clusters[0]
        assert c.alpha_sq == 1 and c.n_alpha == 4
        assert set(c.points) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_d2_alpha_sq5_has_8_points(self):
        # oracle: (+-1,+-2),(+-2,+-1)
        lat = enumerate_clusters(2, 3)
        c = lat.cluster(5)
        assert c.n_alpha == 8
        assert set(c.points) == {
            (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)
        }

    @pytest.mark.parametrize("d,j_max", [(1, 5), (2, 4), (3, 3)])
    def test_partition_property(self, d, j_max):
        lat = enumerate_clusters(d, j_max)
        brute = [
            j
            for j in itertools.product(range(-j_max, j_max + 1), repeat=d)
            if 0 < sum(x * x for x in j) <= j_max * j_max
        ]
        assert lat.n_points == len(brute)
        seen = {}
        for c in lat.clusters:
            for p in c.points:
                assert p not in seen
                seen[p] = c.alpha_sq
                assert sum(x * x for x in p) == c.alpha_sq
        assert set(seen) == set(brute)

    def test_clusters_sorted_and_negation_closed(self):
        lat = enumerate_clusters(2, 4)
        sqs = [c.alpha_sq for c in lat.clusters]
        assert sqs == sorted(sqs)
        for c in lat.clusters:
            for p in c.points:
                assert tuple(-x for x in p) in c.index_of

    @pytest.mark.parametrize("d, j_max", [(1, 3), (2, 3), (3, 2)])
    def test_flat_index(self, d, j_max):
        lat = enumerate_clusters(d, j_max)
        assert lat.points == list(lat.all_points())
        assert lat.points == [p for c in lat.clusters for p in c.points]
        assert all(lat.points[lat.index[p]] == p for p in lat.points)
        perm = lat.neg_perm
        assert np.array_equal(perm[perm], np.arange(len(lat.points)))
        for c in lat.clusters:
            sl = lat.slices[c.alpha_sq]
            assert lat.points[sl] == c.points
            assert np.array_equal(perm[sl], sl.start + c.neg_perm)

    def test_summability_increments_decay(self):
        # sum alpha^-p monotone in j_max; increments shrink for p > d
        d, p = 2, 4.0
        totals = []
        for j_max in (3, 6, 9):
            lat = enumerate_clusters(d, j_max)
            totals.append(math.fsum(c.alpha ** (-p) for c in lat.clusters))
        assert totals[0] < totals[1] < totals[2]
        assert totals[2] - totals[1] < totals[1] - totals[0]

    def test_cluster_gap_positive(self):
        for d in (1, 2, 3):
            lat = enumerate_clusters(d, 4 if d < 3 else 3)
            assert lat.cluster_gap_constant() > 0

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            enumerate_clusters(0, 3)
        with pytest.raises(ParameterError):
            enumerate_clusters(2, 0)


def _bits(x):
    return np.asarray(x).tobytes()


class TestEllBox:
    """The box order is one data format: box rows, BlockOperator flat
    positions and AngleFunction coefficients agree, and the vectorised
    readers equal the per-ell loops they replaced bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 4))
    def test_one_order_everywhere(self, nu, L):
        box = ell_box(nu, L)
        rows = box.tolist()
        assert rows == [list(e) for e in sorted(
            itertools.product(range(-L, L + 1), repeat=nu))]
        n = len(rows)
        assert rows[(n - 1) // 2] == [0] * nu
        assert all(rows[n - 1 - p] == [-x for x in e] for p, e in enumerate(rows))
        op = BlockOperator(enumerate_clusters(1, 1), nu, L)
        assert [op._position(e) for e in rows] == list(range(n))
        assert np.array_equal(oracles._ells_of(np.arange(n), nu, L), box)
        ells, norms = ell_table(nu, L)
        assert np.array_equal(ells, box) and ells is ell_table(nu, L)[0]
        assert not (ells.flags.writeable or norms.flags.writeable)
        assert box.flags.writeable and box is not ell_box(nu, L)
        assert _bits(norms) == _bits([np.linalg.norm(e) for e in rows])
        f = AngleFunction(nu, L)
        for p, e in enumerate(rows):
            f[e] = p
        assert np.array_equal(f.coeffs.ravel(), np.arange(n))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_loops_match_oracles(self, nu, L, seed):
        rng = rng_for("ell-box-oracles", nu, L, seed)
        f = AngleFunction(nu, L)
        shape = f.coeffs.shape
        f.coeffs[...] = np.where(
            rng.random(shape) < 0.5,
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-0.0, 2.0)], shape))
        grid_n = 2 * L + 1 + int(rng.integers(0, 2 * L + 2))
        assert _bits(f.sample(grid_n)) == _bits(oracles.sample(f, grid_n))
        m = int(rng.integers(1, 4 * L + 4))
        values = rng.standard_normal((m,) * nu) + 1j * rng.standard_normal((m,) * nu)
        for vals in (values, f.sample(grid_n)):
            got, alias = AngleFunction.from_samples(vals, L)
            want, alias_ref = oracles.from_samples(AngleFunction, vals, L)
            assert _bits(got.coeffs) == _bits(want.coeffs)
            assert alias == pytest.approx(_alias_direct(vals, L), rel=1e-13, abs=0)
        for k in range(25 if L >= 1 else 0):
            omega = rng.standard_normal(nu) * rng.uniform(0.1, 10.0)
            if k == 0:
                omega[-1] = 0.0  # a resonant omega: margin 0
            gamma, tau = rng.uniform(1e-3, 1.0), rng.uniform(0.5, 12.0)
            ok, worst = diophantine_check(omega, gamma, tau, L)
            ok_ref, worst_ref = oracles.diophantine_check(omega, gamma, tau, L)
            assert ok == ok_ref and _bits(worst) == _bits(worst_ref)


def _alias_direct(values, ell_max):
    """l2 mass of the grid frequencies outside the box, summed bin by bin."""
    grid_n = values.shape[0]
    spec = np.fft.fftn(values) / grid_n**values.ndim
    lost = [abs(c) ** 2 for raw, c in np.ndenumerate(spec)
            if any(abs(x if x <= grid_n // 2 else x - grid_n) > ell_max
                   for x in raw)]
    return math.sqrt(math.fsum(lost))


class TestAliasMass:
    def test_band_limited_input_has_no_alias_floor(self):
        # nothing aliases: the reported mass is FFT roundoff, not the
        # ~1e-8 |f| floor of sqrt(total - kept)
        rng = rng_for("alias-floor")
        for _ in range(300):
            nu, L = int(rng.integers(1, 3)), int(rng.integers(0, 6))
            f = AngleFunction(nu, L, rng.standard_normal((2 * L + 1,) * nu)
                              + 1j * rng.standard_normal((2 * L + 1,) * nu))
            grid_n = 2 * L + 1 + int(rng.integers(0, 2 * L + 2))
            _, alias = AngleFunction.from_samples(f.sample(grid_n), L)
            assert alias <= 1e-14 * f.sobolev_norm(0.0)


def _product_mass_direct(a, b, ell_max):
    """l2 mass of the full convolution outside the box, summed bin by bin."""
    full = convolve_full_loop(a, b)
    lost = [abs(c) ** 2 for raw, c in np.ndenumerate(full)
            if any(abs(x - 2 * ell_max) > ell_max for x in raw)]
    return math.sqrt(math.fsum(lost))


class TestProductMass:
    def test_band_limited_product_drops_nothing(self):
        # supports |ell|_inf <= k and <= L - k: the product fits the box, no
        # bin outside it is written and the mass is exactly 0.0
        rng = rng_for("product-mass-zero")
        for _ in range(100):
            nu, L = int(rng.integers(1, 4)), int(rng.integers(0, 5))
            k = int(rng.integers(0, L + 1))
            f, g = AngleFunction.zero(nu, L), AngleFunction.zero(nu, L)
            for h, r in ((f, k), (g, L - k)):
                shape = (2 * r + 1,) * nu
                h.coeffs[(slice(L - r, L + r + 1),) * nu] = (
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            _, lost = f.product(g)
            assert lost == 0.0

    def test_truncating_product_matches_bin_by_bin_mass(self):
        # a on |ell|_inf <= k, b on the box with its part beyond L - k scaled
        # down by up to 1e-10: the dropped mass is down to ~1e-10 |a b|,
        # far below the rounding of sqrt(total - inside)
        rng = rng_for("product-mass-tail")
        for _ in range(40):
            nu, L = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            k = int(rng.integers(1, L + 1))
            shape = (2 * L + 1,) * nu
            a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(2))
            far = np.abs(ell_box(nu, L)).max(axis=1).reshape(shape)
            a[far > k] = 0.0
            b[far > L - k] *= 10.0 ** -rng.uniform(0.0, 10.0)
            prod, lost = AngleFunction(nu, L, a).product(AngleFunction(nu, L, b))
            assert lost == pytest.approx(_product_mass_direct(a, b, L),
                                         rel=1e-13, abs=0)
            oracles.assert_row_product_close(
                prod.coeffs, a, b, oracles.convolve_rows(a[None], b[None])[0])


def _random_angle_function(rng, nu, ell_max, fill=0.5):
    shape = (2 * ell_max + 1,) * nu
    coeffs = np.where(rng.random(shape) < fill,
                      rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0)
    return AngleFunction(nu, ell_max, coeffs)


class TestEvalAt:
    @pytest.mark.parametrize("nu, L, grid_n", [(1, 8, 32), (2, 5, 16), (3, 3, 8)])
    def test_uniform_grid_matches_sample(self, nu, L, grid_n):
        f = _random_angle_function(rng_for("eval-at-grid", nu), nu, L)
        axis = 2 * np.pi * np.arange(grid_n) / grid_n
        points = np.stack(np.meshgrid(*[axis] * nu, indexing="ij"), axis=-1)
        got = f.eval_at(points.reshape(-1, nu)).reshape((grid_n,) * nu)
        assert np.max(np.abs(got - f.sample(grid_n))) <= 1e-14 * f.linf_bound()

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_off_grid_matches_complex_phase_oracle(self, nu):
        # |phi_i| <= 2 pi and |ell|_inf <= 8: |ell . phi| reaches about 150
        rng = rng_for("eval-at-off-grid", nu)
        f = _random_angle_function(rng, nu, 8, fill=0.3)
        points = rng.uniform(-2 * np.pi, 2 * np.pi, (500, nu))
        got, want = f.eval_at(points), oracles.eval_at_complex_phase(f, points)
        assert np.max(np.abs(got - want)) <= 1e-15 * f.linf_bound()

    def test_single_point_shape_dtype_and_zero(self):
        f = _random_angle_function(rng_for("eval-at-point"), 2, 3)
        got = f.eval_at(np.array([0.3, -1.2]))
        assert got.shape == (1,) and got.dtype == complex
        zero = AngleFunction.zero(2, 3).eval_at(np.ones((4, 2)))
        assert zero.dtype == complex and np.array_equal(zero, np.zeros(4))

    def test_table_stays_within_chunk(self, monkeypatch):
        # 289 modes at 4099 points: one table would be 19 MB, a 64 kB chunk
        # holds 14 points' rows
        rng = rng_for("eval-at-chunk")
        f = _random_angle_function(rng, 2, 8, fill=1.0)
        points = rng.uniform(-2 * np.pi, 2 * np.pi, (4099, 2))
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 2**40)
        whole = f.eval_at(points)
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 2**16)
        tracemalloc.start()
        try:
            got = f.eval_at(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * blockop._CHUNK_BYTES
        assert np.max(np.abs(got - whole)) <= 1e-15 * f.linf_bound()


class TestFrozenAngleProducts:
    # spectrum._at_angles sums with matmul; each caller's values stay those
    # of the product that it formed inline before, bit for bit
    def test_eval_at_one_mode_rounds_as_before(self):
        rng = rng_for("at-angles-one-mode")
        f = AngleFunction.zero(2, 3)
        f[(1, -2)] = complex(*rng.standard_normal(2))
        points = rng.uniform(-2 * np.pi, 2 * np.pi, (64, 2))
        want = np.exp(1j * (points @ np.array([[1, -2]]).T)) @ np.array([f[(1, -2)]])
        assert f.eval_at(points).tobytes() == want.tobytes()

    @pytest.mark.parametrize("one_ell", [False, True])
    def test_block_values_round_as_tensordot(self, one_ell):
        # a block is n_a x n_b with both even (clusters are symmetric under
        # j -> -j); with one ell, np.dot and matmul round apart at widths
        # that are not multiples of 4
        lat = enumerate_clusters(2, 2)
        op = random_block_operator(lat, 2, 2, rng_for("at-angles-blocks"), density=0.5)
        if one_ell:
            for key, (idx, mats) in op.stacks.items():
                op.stacks[key] = (idx[idx != 12][:1], mats[idx != 12][:1])
        phis = rng_for("at-angles-phis").uniform(-2 * np.pi, 2 * np.pi, (16, 2))
        box = ell_table(2, 2)[0]
        want = np.zeros((16, lat.n_points, lat.n_points), dtype=complex)
        for (a, b), (idx, mats) in op.stacks.items():
            want[:, lat.slices[a], lat.slices[b]] = np.tensordot(
                np.exp(1j * (phis @ box[idx].astype(float).T)), mats, axes=1)
        assert blockop._matrices_at(op, phis).tobytes() == want.tobytes()


class TestAngleIndexing:
    # ell_max = 4: the box holds -4..4 per component; a component below -4
    # used to wrap to the far side, (-5, 0) to (4, 0) and (0, -7) to (0, 2)
    OUTSIDE = [(-5, 0), (0, -7), (5, 0), (0, 9), (-5, 5)]

    @pytest.mark.parametrize("ell", OUTSIDE)
    def test_getitem_outside_box_raises(self, ell):
        f = AngleFunction.cosine(2, 4, (1, 0))
        with pytest.raises(IndexError):
            f[ell]

    @pytest.mark.parametrize("ell", OUTSIDE)
    def test_setitem_outside_box_raises_and_writes_nothing(self, ell):
        f = AngleFunction.zero(2, 4)
        with pytest.raises(IndexError):
            f[ell] = 1.0
        assert not np.any(f.coeffs)

    @pytest.mark.parametrize("ell", OUTSIDE)
    def test_set_coeff_outside_box_raises_and_stores_nothing(self, ell):
        u = SpaceTimeFunction(2, 4, 2)
        with pytest.raises(IndexError):
            u.set_coeff(ell, (1, 0), 2.0)
        assert u.space_modes() == []
        u.set_coeff((1, 0), (1, 0), 1.0)
        with pytest.raises(IndexError):
            u.set_coeff(ell, (1, 0), 2.0)
        assert u.coeff((1, 0), (1, 0)) == 1.0
        assert np.count_nonzero(u.angle_part((1, 0)).coeffs) == 1

    def test_box_corners_still_reachable(self):
        f = AngleFunction.zero(2, 4)
        for ell in itertools.product((-4, 4), repeat=2):
            f[ell] = 1.0
            assert f[ell] == 1.0
        assert np.count_nonzero(f.coeffs) == 4


class TestConvolveFull:
    @pytest.mark.parametrize("nu, n, fill", [
        (1, 9, 0.5), (2, 5, 0.3), (2, 7, 0.0), (3, 5, 0.2), (3, 3, 1.0)])
    def test_direct_branch_matches_loop(self, nu, n, fill):
        rng = rng_for("convolve-direct", nu, n, fill)
        a, b = (np.where(rng.random((n,) * nu) < fill,
                         rng.standard_normal((n,) * nu)
                         + 1j * rng.standard_normal((n,) * nu), 0.0)
                for _ in range(2))
        L = (n - 1) // 2
        prod, lost = AngleFunction(nu, L, a).product(AngleFunction(nu, L, b))
        oracles.assert_row_product_close(prod.coeffs, a, b, convolve_full_loop(a, b))
        assert lost == pytest.approx(_product_mass_direct(a, b, L), rel=1e-13, abs=0)


class TestSobolevNorm:
    def test_single_space_mode_is_one(self):
        u = SpaceTimeFunction.from_modes(2, 3, 2, {((0, 0), (1, 0)): 1.0})
        for s in (0.0, 1.0, 2.5):
            assert sobolev_norm(u, s) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_mode_weight(self):
        u = SpaceTimeFunction.from_modes(2, 3, 2, {((1, 0), (2, 0)): 1.0})
        assert sobolev_norm(u, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_against_double_loop_oracle(self):
        rng = rng_for("sobolev-oracle")
        u = SpaceTimeFunction(2, 3, 2)
        modes = [((1, -2), (1, 0)), ((0, 3), (0, 2)), ((2, 2), (-1, 1)),
                 ((-3, 0), (2, 1))]
        for ell, j in modes:
            u.set_coeff(ell, j, rng.standard_normal() + 1j * rng.standard_normal())
        s = 1.7
        acc = 0.0
        for ell, j in modes:
            w = max(1.0, np.linalg.norm(ell), np.linalg.norm(j))
            acc += w ** (2 * s) * abs(u.coeff(ell, j)) ** 2
        assert sobolev_norm(u, s) == pytest.approx(math.sqrt(acc), rel=1e-14)

    def test_monotone_in_s(self):
        rng = rng_for("sobolev-monotone")
        f = AngleFunction(2, 4)
        for _ in range(10):
            ell = tuple(rng.integers(-4, 5, size=2))
            f[ell] = rng.standard_normal()
        values = [f.sobolev_norm(s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_s_rejected(self):
        f = AngleFunction(1, 2)
        with pytest.raises(ParameterError):
            sobolev_norm(f, -1.0)


class TestWeightedLipNorm:
    def grid(self, gamma=0.1):
        return OmegaGrid([(0.0, 1.0)], [2], gamma, 2.0)

    def test_constant_family_equals_sup(self):
        g = self.grid()
        f = AngleFunction.cosine(1, 3, (1,))
        vals = [f.copy() for _ in range(len(g))]
        assert weighted_lip_norm(vals, g, s=1.0) == pytest.approx(
            f.sobolev_norm(1.0)
        )

    def test_linear_family(self):
        g = self.grid(gamma=0.1)
        u0 = AngleFunction.cosine(1, 3, (1,))
        vals = [u0 * float(w[0]) for w in g.samples]
        expect = u0.sobolev_norm(1.0) * (1.0 + 0.1)
        assert weighted_lip_norm(vals, g, s=1.0) == pytest.approx(expect)

    def test_affine_never_exceeds_analytic_slope(self):
        # finite differences of an affine family reproduce the slope exactly
        g = OmegaGrid([(0.0, 1.0), (0.0, 2.0)], [4, 3], 0.5, 2.0)
        base = AngleFunction.cosine(2, 3, (1, 0))
        slope = AngleFunction.cosine(2, 3, (0, 1), amplitude=0.7)
        vals = [base + slope * float(w[0] + 0.3 * w[1]) for w in g.samples]
        analytic_lip = slope.sobolev_norm(1.0) * math.sqrt(1 + 0.3**2)
        sup = max(v.sobolev_norm(1.0) for v in vals)
        total = weighted_lip_norm(vals, g, s=1.0)
        assert total <= sup + g.gamma * analytic_lip + 1e-12

    def test_coincident_samples_flagged(self):
        g = OmegaGrid([(0.5, 0.5)], [2], 0.1, 2.0)
        f0 = AngleFunction.cosine(1, 2, (1,))
        with pytest.raises(LipschitzQuotientError):
            weighted_lip_norm([f0, f0 * 2.0], g, s=0.0)


class TestOmegaDphiInverse:
    def test_single_mode_formula(self):
        # divisor omega.ell = 2 -> coefficient 1/(2i)
        h = oracles.angle_from_modes(2, 3, {(1, 1): 1.0})
        out = omega_dphi_inverse(h, np.array([1.0, 1.0]))
        assert out[(1, 1)] == pytest.approx(1.0 / 2.0j)

    def test_zero_in_zero_out(self):
        h = AngleFunction.zero(2, 3)
        out = omega_dphi_inverse(h, np.array([1.0, 0.5]))
        assert out.linf_bound() == 0.0

    def test_round_trip(self):
        rng = rng_for("omdphi-roundtrip")
        omega = np.array([1.0, math.sqrt(2)])
        h = AngleFunction(2, 4)
        for _ in range(12):
            ell = tuple(int(x) for x in rng.integers(-4, 5, size=2))
            if any(ell):
                h[ell] = rng.standard_normal() + 1j * rng.standard_normal()
        got = omega_dphi_inverse(h, omega).omega_dphi(omega)
        assert got.distance(h) <= 1e-13 * h.linf_bound()

    def test_mean_free_required(self):
        h = AngleFunction.constant(1, 2, 1.0)
        with pytest.raises(ParameterError):
            omega_dphi_inverse(h, np.array([1.0]))

    def test_small_divisor_refused(self):
        h = oracles.angle_from_modes(2, 2, {(1, -1): 1.0})
        with pytest.raises(DiophantineViolation) as err:
            omega_dphi_inverse(h, np.array([1.0, 1.0]), gamma=0.1, tau=2.0)
        assert err.value.ell == (1, -1)


class TestDiophantineCheck:
    def test_unit_frequency_passes(self):
        ok, margin = diophantine_check(np.array([1.0]), 0.5, 2.0, 1)
        assert ok and margin >= 1.0

    def test_resonant_vector_fails(self):
        ok, margin = diophantine_check(np.array([1.0, 1.0]), 0.1, 2.0, 2)
        assert not ok and margin == 0.0

    def test_golden_ratio_brute_force(self):
        phi = (1 + math.sqrt(5)) / 2
        ok, _ = diophantine_check(np.array([phi]), 0.1, 2.0, 50)
        assert ok
        # cross-check the margin against a direct scan
        worst = min(
            abs(phi * ell) * abs(ell) ** 2.0 / 0.1
            for ell in range(-50, 51) if ell
        )
        assert worst >= 1.0
