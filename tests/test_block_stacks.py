"""Cluster-pair stacks against the dict algebra and the dense flattening.

``compose`` must give, in both of its branches (one GEMM and a sorted
scatter per cluster triple, or one matmul per angle of the product grid),
the blocks and keys of the dict ``compose`` kept in oracles.py and the
l' = 0 column of the dense product, and report as truncation loss the mass
that the dense product holds outside the box; ``decay_norm`` must be
bit-identical to the dict version.  The fused paired product must match the
four plain products it replaced, and memory must stay within the dict
kernel's and, on the angle grid, within the chunk cap.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wavekam import blockop, enumerate_clusters
from wavekam.blockop import (
    BlockOperator,
    PairedBlockOperator,
    compose,
)
from wavekam.spectrum import ell_table

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# d = 2, j_max = 3: clusters of 4 and 8 points
LATTICE = enumerate_clusters(2, 3)


def stacked_operator(rng, nu, ell_max, kind, middle=None, side="left"):
    """Random operator of one kind: empty, sparse, on the box edge only, or
    every block of the box.

    With ``middle`` given, the left operand's column clusters lie in it and
    the right operand's row clusters outside it, so their product is empty.
    """
    blocks = {}
    if kind == "empty":
        return BlockOperator(LATTICE, nu, ell_max)
    density = {"sparse": 0.15, "edge": 0.4, "full": 1.0}[kind]
    for ell in itertools.product(range(-ell_max, ell_max + 1), repeat=nu):
        if kind == "edge" and max(map(abs, ell)) < ell_max:
            continue
        for ca, cb in itertools.product(LATTICE.clusters, repeat=2):
            inner = cb.alpha_sq if side == "left" else ca.alpha_sq
            if middle is not None and (inner in middle) != (side == "left"):
                continue
            if rng.random() < density:
                blocks[(ell, ca.alpha_sq, cb.alpha_sq)] = (
                    rng.standard_normal((ca.n_alpha, cb.n_alpha))
                    + 1j * rng.standard_normal((ca.n_alpha, cb.n_alpha)))
    return BlockOperator(LATTICE, nu, ell_max, blocks)


@st.composite
def operand_pairs(draw):
    nu = draw(st.sampled_from([1, 2, 3]))
    ell_max = draw(st.sampled_from({1: [1, 2, 3], 2: [1, 2], 3: [1]}[nu]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["empty", "sparse", "edge"])
    middle = ({1, 5, 9} if draw(st.booleans()) else None)
    r = stacked_operator(rng, nu, ell_max, draw(kinds), middle, "left")
    t = stacked_operator(rng, nu, ell_max, draw(kinds), middle, "right")
    return r, t


@st.composite
def paired_operands(draw):
    """Two random paired operators, neither Hamiltonian in general."""
    nu = draw(st.sampled_from([1, 2, 3]))
    ell_max = draw(st.sampled_from({1: [1, 2, 3], 2: [1, 2], 3: [1]}[nu]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["empty", "sparse", "edge", "full"])
    return [PairedBlockOperator(*(stacked_operator(rng, nu, ell_max, draw(kinds))
                                  for _ in range(2))) for _ in range(2)]


def _column0(dense, ells, n):
    """Rows of the l' = 0 block column of a dense flattening."""
    c = ells.index((0,) * len(ells[0]))
    return dense[:, c * n:(c + 1) * n]


def _discarded_mass(factors, ells, n):
    """HS mass outside the L box of sum(x @ y for x, y in factors), a product
    of L-box dense flattenings.

    Its coefficient at P, |P|_inf <= 2L, sits at row block P + s, column
    block s, with s_k = -L, 0 or L as P_k > L, |P_k| <= L or P_k < -L: every
    factor pair (ell1, ell2) of P then has its middle ell2 + s in the box.
    """
    L, nu = max(ell[0] for ell in ells), len(ells[0])
    at = {ell: i for i, ell in enumerate(ells)}

    def shift(ell):
        return tuple(-L if x > L else L if x < -L else 0 for x in ell)

    mass = 0.0
    for s in itertools.product((-L, 0, L), repeat=nu):
        col = sum(x @ y[:, at[s] * n:(at[s] + 1) * n] for x, y in factors)
        for ell, i in at.items():
            p = tuple(a - b for a, b in zip(ell, s))
            if max(map(abs, p)) > L and shift(p) == s:
                mass += np.sum(np.abs(col[i * n:(i + 1) * n]) ** 2)
    return math.sqrt(mass)


# the branch rule forced one way or the other
BRANCHES = {"direct": lambda *args: False, "grid": lambda *args: True}


def _assert_same_blocks(got, want, scale):
    got_items, want_items = list(oracles.block_items(got)), list(oracles.block_items(want))
    assert [k for k, _ in got_items] == [k for k, _ in want_items]
    for (_, g), (_, w) in zip(got_items, want_items):
        assert np.max(np.abs(g - w)) <= 1e-13 * scale


def _assert_loss(op, discarded, scale):
    assert abs(op.meta["truncation_loss"] - discarded) <= (
        1e-12 * discarded + 1e-13 * scale)


class TestComposeKernel:
    @PROPERTY
    @given(operand_pairs())
    def test_matches_dict_and_dense_oracles(self, operands):
        r, t = operands
        want = oracles.compose_dicts(r, t)
        scale = max(r.hs_total() * t.hs_total(), 1e-300)
        mr, ells, pts = oracles.to_dense(r)
        mt, _, _ = oracles.to_dense(t)
        dense = mr @ _column0(mt, ells, len(pts))
        discarded = _discarded_mass([(mr, mt)], ells, len(pts))
        for branch, rule in BRANCHES.items():
            with mock.patch.object(blockop, "_grid_wins", rule):
                got = compose(r, t)
            _assert_same_blocks(got, want, scale)
            # the dense product's l' = 0 column sums exactly the in-box
            # products, and the rest of its coefficients is the loss
            mo, _, _ = oracles.to_dense(got)
            assert np.max(np.abs(dense - _column0(mo, ells, len(pts))),
                          initial=0.0) <= 1e-13 * scale, branch
            _assert_loss(got, discarded, scale)
        for op in (r, got):
            for s in (0.0, 1.5):
                assert op.decay_norm(s) == oracles.decay_norm_dicts(op, s)

    @settings(PROPERTY, max_examples=30)
    @given(paired_operands())
    def test_fused_paired_product_matches_four_products_and_dense(self, operands):
        p, q = operands
        want = oracles.paired_compose_four(p, q)
        scale = max((p.r1.hs_total() + p.r2.hs_total())
                    * (q.r1.hs_total() + q.r2.hs_total()), 1e-300)
        (m1, ells, pts), (m2, _, _) = (oracles.to_dense(x) for x in (p.r1, p.r2))
        # entry e is r1 s_e + r2 conj(s_(1 - e))
        right = [[oracles.to_dense(x)[0] for x in xs]
                 for xs in ((q.r1, q.r2.conj()), (q.r2, q.r1.conj()))]
        discarded = [_discarded_mass([(m1, a), (m2, b)], ells, len(pts))
                     for a, b in right]
        for branch, rule in BRANCHES.items():
            with mock.patch.object(blockop, "_grid_wins", rule):
                got = p.compose(q)
            for entry, ref, mass in zip((got.r1, got.r2), (want.r1, want.r2),
                                        discarded):
                _assert_same_blocks(entry, ref, scale)
                _assert_loss(entry, mass, scale)
            assert got.meta["truncation_loss"] == max(
                got.r1.meta["truncation_loss"], got.r2.meta["truncation_loss"])

    def test_grid_rounding_leaves_the_ell_zero_products_out(self):
        # a large diagonal times a map near the identity, as in the
        # conjugation residual: on the grid, D @ I's rounding (about
        # 1e-16 |D| |I|) would land at every ell the product reaches
        rng = np.random.default_rng(11)
        eye = BlockOperator.identity(LATTICE, 2, 2)
        small = [stacked_operator(rng, 2, 2, "full") * 1e-6 for _ in range(2)]
        r, t = eye * 1e6 + small[0], eye + small[1]
        want = oracles.compose_dicts(r, t)
        with mock.patch.object(blockop, "_grid_wins", BRANCHES["grid"]):
            got = compose(r, t)
        big = eye.hs_total() ** 2 * 1e6
        off = r.hs_total() * t.hs_total() - big
        got_items, want_items = list(oracles.block_items(got)), list(oracles.block_items(want))
        assert [k for k, _ in got_items] == [k for k, _ in want_items]
        for ((ell, _, _), g), (_, w) in zip(got_items, want_items):
            assert np.max(np.abs(g - w)) <= 1e-13 * (off + big * (ell == (0, 0)))

    def test_disjoint_cluster_pairs_give_empty_product(self):
        rng = np.random.default_rng(7)
        r = stacked_operator(rng, 2, 2, "sparse", {1, 5, 9}, "left")
        t = stacked_operator(rng, 2, 2, "sparse", {1, 5, 9}, "right")
        assert len(r) and len(t)
        out = compose(r, t)
        assert not len(out) and out.meta["truncation_loss"] == 0.0

    def test_peak_memory_within_dict_kernel(self):
        # two full-box desk-scale operators on the 12-point cluster
        lat = enumerate_clusters(2, 6)
        assert lat.cluster(25).n_alpha == 12
        rng = np.random.default_rng(3)
        ops = [BlockOperator(lat, 2, 8, {
            (ell, 25, 25): rng.standard_normal((12, 12))
            + 1j * rng.standard_normal((12, 12))
            for ell in itertools.product(range(-8, 9), repeat=2)})
            for _ in range(2)]
        peaks = []
        for kernel in (compose, oracles.compose_dicts):
            tracemalloc.start()
            try:
                kernel(*ops)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


def _plan_bytes():
    return sum(x.nbytes for v in blockop._PLANS.values() for x in v)


class TestScatterPlans:
    def test_repeated_compose_reuses_plans(self, monkeypatch):
        monkeypatch.setattr(blockop, "_PLANS", blockop._PlanCache())
        rng = np.random.default_rng(11)
        r = stacked_operator(rng, 2, 2, "sparse")
        t = stacked_operator(rng, 2, 2, "sparse")
        first = compose(r, t)
        plans = dict(blockop._PLANS)
        assert plans
        assert all(not x.flags.writeable for v in plans.values() for x in v)
        second = compose(r, t)
        assert blockop._PLANS.keys() == plans.keys()
        assert all(blockop._PLANS[k] is v for k, v in plans.items())
        assert first.stacks.keys() == second.stacks.keys()
        for key, (idx, mats) in first.stacks.items():
            assert idx.tobytes() == second.stacks[key][0].tobytes()
            assert mats.tobytes() == second.stacks[key][1].tobytes()
        assert first.meta == second.meta

    def test_memo_stays_under_cap(self, monkeypatch):
        monkeypatch.setattr(blockop, "_PLANS", blockop._PlanCache())
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 4096)
        rng = np.random.default_rng(12)
        for kind in ("sparse", "edge", "sparse", "sparse"):
            r = stacked_operator(rng, 2, 2, kind)
            t = stacked_operator(rng, 2, 2, "sparse")
            got, want = compose(r, t), oracles.compose_dicts(r, t)
            assert 0 < blockop._PLANS.nbytes == _plan_bytes() <= 4096
            scale = max(r.hs_total() * t.hs_total(), 1e-300)
            got_items, want_items = list(oracles.block_items(got)), list(oracles.block_items(want))
            assert [k for k, _ in got_items] == [k for k, _ in want_items]
            for (_, g), (_, w) in zip(got_items, want_items):
                assert np.max(np.abs(g - w)) <= 1e-13 * scale

    def test_running_total_equals_resummed_bytes(self, monkeypatch):
        monkeypatch.setattr(blockop, "_PLANS", blockop._PlanCache())
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 8192)
        rng = np.random.default_rng(13)
        n_box = len(ell_table(2, 2)[0])
        evicted = 0
        for _ in range(80):
            i1, i2 = (np.sort(rng.choice(n_box, rng.integers(1, 12),
                                         replace=False)) for _ in range(2))
            before = set(blockop._PLANS)
            blockop._scatter_pattern(2, 2, i1, i2)
            evicted += len(before - set(blockop._PLANS))
            assert blockop._PLANS.nbytes == _plan_bytes() <= 8192
        assert evicted > 0


def _bit_equal(got, want):
    """Same keys, ell and block bytes, and the same meta."""
    pairs = (zip((got.r1, got.r2), (want.r1, want.r2))
             if isinstance(got, PairedBlockOperator) else [(got, want)])
    return got.meta == want.meta and all(
        a.stacks.keys() == b.stacks.keys() and all(
            np.array_equal(idx, b.stacks[key][0])
            and mats.tobytes() == b.stacks[key][1].tobytes()
            for key, (idx, mats) in a.stacks.items())
        for a, b in pairs)


def _operands(rng, paired):
    """A series' operands: two left factors and one right factor Psi."""
    def one():
        ops = [stacked_operator(rng, 2, 2, "sparse") for _ in range(1 + paired)]
        return PairedBlockOperator(*ops) if paired else ops[0]
    return one(), one(), one()


class TestRightMemo:
    def test_repeated_right_factor_matches_cleared_memo(self, monkeypatch):
        monkeypatch.setattr(blockop, "_RIGHTS", blockop._RightCache())
        rng = np.random.default_rng(21)
        for paired in (False, True):
            for rule in BRANCHES.values():
                x, y, psi = _operands(rng, paired)
                with mock.patch.object(blockop, "_grid_wins", rule):
                    compose(x, psi)
                    held = dict(blockop._RIGHTS)
                    assert held
                    again = compose(y, psi)
                    # the same tables, taken over by the second product
                    assert all(blockop._RIGHTS[k] is v for k, v in held.items())
                    blockop._RIGHTS.clear()
                    fresh = compose(y, psi)
                assert _bit_equal(again, fresh)

    def test_replaced_stacks_are_not_reused(self, monkeypatch):
        monkeypatch.setattr(blockop, "_RIGHTS", blockop._RightCache())
        rng = np.random.default_rng(22)
        for paired in (False, True):
            x, _, psi = _operands(rng, paired)
            for rule in BRANCHES.values():
                with mock.patch.object(blockop, "_grid_wins", rule):
                    before = compose(x, psi)
                    top = psi.r1 if paired else psi
                    key, (idx, mats) = next(iter(top.stacks.items()))
                    top.stacks[key] = (idx, 2 * mats)  # a new stack object
                    got = compose(x, psi)
                    blockop._RIGHTS.clear()
                    fresh = compose(x, psi)
                assert _bit_equal(got, fresh)
                assert not _bit_equal(got, before)

    def test_held_tables_stay_under_cap(self, monkeypatch):
        monkeypatch.setattr(blockop, "_RIGHTS", blockop._RightCache())
        rng = np.random.default_rng(23)
        for paired in (False, True):
            x, y, psi = _operands(rng, paired)
            with mock.patch.object(blockop, "_grid_wins", BRANCHES["grid"]):
                compose(x, psi)
                sizes = [r.nbytes for r in blockop._RIGHTS.values()]
                cap = sum(sizes) // 2
                blockop._RIGHTS.clear()
                with mock.patch.object(blockop, "_CHUNK_BYTES", cap):
                    for left in (x, y, x):
                        compose(left, psi)
                        held = blockop._RIGHTS
                        assert held.nbytes == sum(
                            r.nbytes for r in held.values()) <= cap
            assert 0 < len(held) < len(sizes)


class TestGridMemory:
    def test_temporaries_within_cap(self, monkeypatch):
        # a tall left factor (the 30-point cluster of d = 3) over the whole
        # nu = 2, L = 4 box times a right factor at two ell: one unchunked
        # left temporary on the 17^2 angles takes 832 KB
        lat = enumerate_clusters(3, 3)
        rng = np.random.default_rng(5)

        def block(n, m):
            return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

        r = BlockOperator(lat, 2, 4, {
            (ell, 9, 1): block(30, 6)
            for ell in itertools.product(range(-4, 5), repeat=2)})
        t = BlockOperator(lat, 2, 4, {(ell, 1, 1): block(6, 6) for ell in [(0, 0), (1, 0)]})
        cap = 3 * 2**16
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", cap)
        grid_calls, on_grid = [], blockop._on_grid
        monkeypatch.setattr(blockop, "_on_grid", lambda *args: grid_calls.append(1)
                            or on_grid(*args))
        right_bytes = []
        # the rule's cap half only: the product count alone would go direct
        monkeypatch.setattr(blockop, "_grid_wins", lambda products, grid, nbytes:
                            right_bytes.append(nbytes) or nbytes <= cap)
        tracemalloc.start()
        try:
            out = compose(r, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert right_bytes == [17**2 * 6 * 6 * 16] and right_bytes[0] <= cap
        assert grid_calls == [1]
        assert 17**2 * 30 * 6 * 16 > 4 * cap
        # the result twice (the grid's pieces and the stacks cut from them),
        # the right factor and a few chunk-sized temporaries
        result = sum(mats.nbytes for _, mats in out.stacks.values())
        assert peak <= 2 * result + 4 * cap
        _assert_same_blocks(out, oracles.compose_dicts(r, t),
                            r.hs_total() * t.hs_total())


class TestPairedTruncationLoss:
    def test_identity_shift_loss(self):
        # r1 = the ell = 1 identity in nu = 1, L = 1: the square lives at ell = 2
        lat = enumerate_clusters(2, 1)
        r1 = BlockOperator(lat, 1, 1, {((1,), 1, 1): np.eye(4)})
        p = PairedBlockOperator(r1, BlockOperator(lat, 1, 1))
        assert compose(r1, r1).meta["truncation_loss"] == 2.0
        assert p.compose(p).meta["truncation_loss"] == 2.0

    def test_matches_dense_discarded_mass(self):
        # one truncating product per top-row entry: r1 q1 in the first,
        # r2 conj(q1) in the second; the reported losses are the HS mass at
        # |ell| > L of the product flattened in the 2L box
        lat = enumerate_clusters(2, 2)
        rng = np.random.default_rng(11)

        def block(a, b):
            n, m = lat.cluster(a).n_alpha, lat.cluster(b).n_alpha
            return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

        L = 2
        p = PairedBlockOperator(
            BlockOperator(lat, 1, L, {((2,), 1, 2): block(1, 2)}),
            BlockOperator(lat, 1, L, {((2,), 1, 4): block(1, 4)}))
        q = PairedBlockOperator(
            BlockOperator(lat, 1, L, {((1,), 2, 4): block(2, 4),
                                      ((-1,), 4, 2): block(4, 2)}),
            BlockOperator(lat, 1, L))
        out = p.compose(q)
        mp, ells, pts = oracles.to_dense(p, 2 * L)
        mq, _, _ = oracles.to_dense(q, 2 * L)
        n, c = len(pts), ells.index((0,))
        full = (mp @ mq).reshape(2, len(ells), n, 2, len(ells), n)
        outside = [i for i, ell in enumerate(ells) if abs(ell[0]) > L]
        for entry, half in ((out.r1, 0), (out.r2, 1)):
            discarded = np.sqrt(np.sum(np.abs(full[0, outside, :, half, c, :]) ** 2))
            assert discarded > 0
            assert abs(entry.meta["truncation_loss"] - discarded) <= 1e-13 * discarded
        assert out.meta["truncation_loss"] == max(
            out.r1.meta["truncation_loss"], out.r2.meta["truncation_loss"])
