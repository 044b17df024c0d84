"""Scalar row products through ``blockop``'s stack kernel.

``blockop._product_rows`` multiplies rows of angle coefficients as stacks of
1 x 1 blocks on ``compose``'s scatter branch.  Against
``oracles.convolve_rows``, the bincount and FFT kernel it replaced, every
row must:
- lie within ``oracles.ROW_PRODUCT_TOL`` |a_r|_2 |b_r|_2 of the oracle;
- hold +0 at every ell that its own supports do not reach;
- report as loss the oracle's l2 mass outside the box, to 1e-13 relative,
  and exactly 0.0 when its reach stays inside the box;
- come out bit for bit as the row alone.
Rows shaped like eps0's products, where every coefficient receives at most
one product, come out byte-identical to the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wavekam import blockop
from wavekam.spectrum import ell_box

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# sparse, the whole box, nothing, ell = 0 alone, and the support of row 0
# with fresh values, so that rows share a scatter plan
KINDS = ("sparse", "full", "zero", "center", "again")


def _row(rng, kind, n, first):
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "again":
        support = first != 0
    elif kind == "center":
        support = np.arange(n) == n // 2
    else:
        support = rng.random(n) < {"sparse": 0.2, "full": 1.0, "zero": 0.0}[kind]
    return np.where(support, values, 0.0)


def _stack(rng, kinds, n):
    rows = []
    for kind in kinds:
        rows.append(_row(rng, kind, n, rows[0] if rows else np.zeros(n)))
    return np.array(rows)


def _reach(x, y, nu, ell_max):
    """(box positions that the supports of rows x and y reach, whether they
    reach past the box)."""
    ells = ell_box(nu, ell_max)
    sums = (ells[np.flatnonzero(x)][:, None] + ells[np.flatnonzero(y)][None]).reshape(-1, nu)
    inside = (np.abs(sums) <= ell_max).all(axis=1)
    mask = np.zeros(len(ells), dtype=bool)
    mask[np.ravel_multi_index(tuple((sums[inside] + ell_max).T),
                              (2 * ell_max + 1,) * nu)] = True
    return mask, not inside.all()


class TestRowProducts:
    @PROPERTY
    @given(st.sampled_from([1, 2, 3]), st.integers(0, 3),
           st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_rows_match_oracle(self, nu, ell_max, kinds, seed):
        ell_max = min(ell_max, 2) if nu == 3 else ell_max
        rng = np.random.default_rng(seed)
        shape = (2 * ell_max + 1,) * nu
        n = math.prod(shape)
        a, b = (_stack(rng, side, n) for side in zip(*kinds))
        got, lost = blockop._product_rows(a, b, nu, ell_max)
        assert got.shape == a.shape and len(lost) == len(a)
        full = oracles.convolve_rows(a.reshape((-1,) + shape), b.reshape((-1,) + shape))
        outside = np.ones(full.shape[1:], dtype=bool)
        outside[(slice(ell_max, 3 * ell_max + 1),) * nu] = False
        for r in range(len(a)):
            oracles.assert_row_product_close(got[r].reshape(shape), a[r].reshape(shape),
                                             b[r].reshape(shape), full[r])
            reach, leaves = _reach(a[r], b[r], nu, ell_max)
            assert got[r][~reach].tobytes() == bytes(16 * int((~reach).sum()))
            want = math.sqrt(math.fsum((np.abs(full[r][outside]) ** 2).tolist()))
            assert lost[r] == pytest.approx(want, rel=1e-13, abs=0)
            if not leaves:
                assert lost[r] == 0.0
            alone, alone_lost = blockop._product_rows(a[r:r + 1], b[r:r + 1], nu, ell_max)
            assert alone.tobytes() == got[r:r + 1].tobytes() and alone_lost == [lost[r]]

    def test_chunks_hold_whole_rows(self, monkeypatch):
        # a cap of 40 products: each full-box row (81 products) goes alone,
        # so rows sharing one support still come out as the row alone
        nu, ell_max = 2, 1
        rng = np.random.default_rng(7)
        a, b = (_stack(rng, ["full"] + ["again"] * 5, 9) for _ in range(2))
        monkeypatch.setattr(blockop, "_CHUNK_BYTES", 16 * 40)
        got, lost = blockop._product_rows(a, b, nu, ell_max)
        for r in range(len(a)):
            alone, alone_lost = blockop._product_rows(a[r:r + 1], b[r:r + 1], nu, ell_max)
            assert alone.tobytes() == got[r:r + 1].tobytes() and alone_lost == [lost[r]]

    @PROPERTY
    @given(st.sampled_from([2, 3]), st.integers(1, 4),
           st.lists(st.sampled_from(["center", "zero", "cross", "lone"]),
                    min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_eps0_shaped_rows_byte_identical(self, nu, ell_max, partners, seed):
        # eps0's rows: a line of complex coefficients along one axis times a
        # real ell = 0 coefficient, nothing or a line along another axis;
        # and a lone complex coefficient times a lone real one
        ell_max = min(ell_max, 2) if nu == 3 else ell_max
        rng = np.random.default_rng(seed)
        shape = (2 * ell_max + 1,) * nu
        ells = ell_box(nu, ell_max)
        on_axis = [np.flatnonzero((np.delete(ells, p, axis=1) == 0).all(axis=1))
                   for p in range(nu)]
        a, b = np.zeros((2, len(partners), len(ells)), dtype=complex)
        for r, partner in enumerate(partners):
            p = int(rng.integers(nu))
            if partner == "lone":
                a[r, rng.integers(len(ells))] = complex(*rng.standard_normal(2))
                b[r, rng.integers(len(ells))] = rng.standard_normal()
                continue
            line = on_axis[p]
            a[r, line] = rng.standard_normal(len(line)) + 1j * rng.standard_normal(len(line))
            if partner == "center":
                b[r, len(ells) // 2] = rng.standard_normal()
            elif partner == "cross":
                q = on_axis[(p + 1 + int(rng.integers(nu - 1))) % nu]
                b[r, q] = rng.standard_normal(len(q)) + 1j * rng.standard_normal(len(q))
        got, lost = blockop._product_rows(a, b, nu, ell_max)
        full = oracles.convolve_rows(a.reshape((-1,) + shape), b.reshape((-1,) + shape))
        want = full[(slice(None),) + (slice(ell_max, 3 * ell_max + 1),) * nu]
        assert got.tobytes() == want.reshape(got.shape).tobytes()
