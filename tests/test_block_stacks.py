"""Cluster-pair stacks against the dict algebra and the dense flattening.

``compose`` (one GEMM and a sorted scatter per cluster triple) must give the
blocks, keys and truncation loss of the dict ``compose`` kept in oracles.py,
and the l' = 0 column of the dense product; ``decay_norm`` must be
bit-identical to the dict version.  The paired product must report the mass
its truncation discards, and memory must stay within the dict kernel's.
"""

import itertools
import tracemalloc

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
    """Random operator of one kind: empty, sparse, on the box edge only.

    With ``middle`` given, the left operand's column clusters lie in it and
    the right operand's row clusters outside it, so their product is empty.
    """
    blocks = {}
    if kind == "empty":
        return BlockOperator(LATTICE, nu, ell_max)
    density = 0.15 if kind == "sparse" else 0.4
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


def _column0(dense, ells, n):
    """Rows of the l' = 0 block column of a dense flattening."""
    c = ells.index((0,) * len(ells[0]))
    return dense[:, c * n:(c + 1) * n]


class TestComposeKernel:
    @PROPERTY
    @given(operand_pairs())
    def test_matches_dict_and_dense_oracles(self, operands):
        r, t = operands
        got = compose(r, t)
        want = oracles.compose_dicts(r, t)
        scale = max(r.hs_total() * t.hs_total(), 1e-300)
        got_items, want_items = list(got.items()), list(want.items())
        assert [k for k, _ in got_items] == [k for k, _ in want_items]
        for (_, g), (_, w) in zip(got_items, want_items):
            assert np.max(np.abs(g - w)) <= 1e-13 * scale
        loss, want_loss = got.meta["truncation_loss"], want.meta["truncation_loss"]
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        # the dense product's l' = 0 column sums exactly the in-box products
        mr, ells, pts = oracles.to_dense(r)
        mt, _, _ = oracles.to_dense(t)
        mo, _, _ = oracles.to_dense(got)
        dense = mr @ _column0(mt, ells, len(pts))
        assert np.max(np.abs(dense - _column0(mo, ells, len(pts))),
                      initial=0.0) <= 1e-13 * scale
        for op in (r, got):
            for s in (0.0, 1.5):
                assert op.decay_norm(s) == oracles.decay_norm_dicts(op, s)

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
            got_items, want_items = list(got.items()), list(want.items())
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
