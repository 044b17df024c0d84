"""Block algebra for phi-dependent operators over spectrum clusters.

An operator R(phi) acting on zero-average functions of T^d is stored through
its Fourier-in-phi coefficients Rhat(ell), cut into n_alpha x n_beta blocks
per cluster pair, rows and columns in the lattice's point order.

Storage is one stack per cluster pair: ``stacks[(alpha^2, beta^2)] =
(idx, mats)``.  ``idx`` is the sorted int vector of the stored ell as flat
positions in the (2L+1)^nu box, the rows of ``spectrum.ell_box``, so -ell
sits at (2L+1)^nu - 1 - idx; ``mats`` is the (k, n_alpha, n_beta) stack of
their blocks.  An absent block is zero and a pair without blocks has no
entry; remainders become extremely sparse as the reduction progresses.  Stacks are never written in place once an operator
holds them, so operators share them freely.  ``block`` is the per-block
accessor; every other operation is a few array operations per pair.

``compose`` multiplies per cluster triple, plain or paired, by one GEMM and
a sorted scatter when the triple has few block products, or angle by angle
on the (4L+1)^nu grid that holds every product's ell.  What leaves the box
is dropped and its HS mass reported in ``meta['truncation_loss']``;
exactly-zero output blocks are not stored.  The last right operand's tables
are kept, so a series by one Psi takes Psi to the angles once.  This is the
package's one ell-convolution kernel: ``_product_rows`` runs rows of scalar
coefficients (functions, symbols, rank-one products) through its scatter as
1 x 1 blocks.

``Paired`` stores the top row (R1, R2) of the 2x2 arrangement

    ( R1       R2     )
    ( conj R2  conj R1)

which is closed under composition, inversion and exponentials; the bottom row
is implied and never stored.  It serves block operators and multipliers.
"""

import functools
import math

import numpy as np

from .errors import LatticeMismatchError, ParameterError
from .series import truncated_series
from .spectrum import _at_angles, ell_table

__all__ = [
    "BlockOperator",
    "Paired",
    "PairedBlockOperator",
    "block_decay_norm",
    "compose",
    "smoothing_projector",
    "diagonal_part",
    "operator_exponential",
]

# byte cap on compose's temporaries per GEMM or grid chunk, on its memoized
# scatter plans and reach masks (_PLANS) and on its right factor's tables
# (_RIGHTS)
_CHUNK_BYTES = 2**24


class _PlanCache(dict):
    """Scatter plans, oldest first, and the running total of their bytes."""

    nbytes = 0

    @staticmethod
    def size(plan):
        return sum(x.nbytes for x in plan)

    def add(self, key, plan):
        self[key] = plan
        self.nbytes += self.size(plan)
        while self.nbytes > _CHUNK_BYTES:
            self.nbytes -= self.size(self.pop(next(iter(self))))

    def clear(self):
        super().clear()
        self.nbytes = 0


class _RightCache(_PlanCache):
    """The last right operand's ``_Right`` per (nu, L, beta, gamma, ids of
    its stacks there), oldest first."""

    @staticmethod
    def size(right):
        return right.nbytes


_PLANS = _PlanCache()
_RIGHTS = _RightCache()


def _hs_sq(mats):
    """Squared HS norm of each block of a (k, n, m) stack."""
    return (np.abs(mats) ** 2).reshape(len(mats), -1).sum(axis=1)


def _sq_norm(x):
    """Squared HS norm of a complex array."""
    return float(np.vdot(x, x).real)


def _add_stacks(x, y):
    """Sum of two (idx, mats) stacks of one cluster pair."""
    (i1, m1), (i2, m2) = x, y
    if np.array_equal(i1, i2):
        return i1, m1 + m2
    idx = np.union1d(i1, i2)
    mats = np.zeros((len(idx),) + m1.shape[1:], dtype=complex)
    mats[np.searchsorted(idx, i1)] = m1
    mats[np.searchsorted(idx, i2)] += m2
    return idx, mats


def _conj_stack(stack, rows, cols, last):
    """(conj S)(ell) = P conj(S(-ell)) P on one stack; ``rows`` and ``cols``
    index j -> -j, ``last`` is the box's last flat position."""
    idx, mats = stack
    flipped = mats[::-1][:, rows, cols]
    return last - idx[::-1], np.conj(flipped, out=flipped)


class BlockOperator:
    """Sparse block representation of a phi-dependent linear operator.

    ``blocks`` optionally maps (ell, alpha^2, beta^2) -> matrix; each block
    is validated and copied into its cluster pair's stack.
    """

    __slots__ = ("lattice", "nu", "ell_max", "stacks", "meta")

    def __init__(self, lattice, nu, ell_max, blocks=None):
        self.lattice = lattice
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.stacks = {}
        self.meta = {}
        grouped = {}
        for (ell, a_sq, b_sq), mat in (blocks or {}).items():
            grouped.setdefault((int(a_sq), int(b_sq)), []).append(
                self._checked(ell, a_sq, b_sq, mat))
        for key, entries in grouped.items():
            entries.sort(key=lambda e: e[0])
            self.stacks[key] = (np.array([p for p, _ in entries], dtype=np.int64),
                                np.stack([m for _, m in entries]))

    # -- per-block accessors --------------------------------------------------
    def _position(self, ell):
        """Flat box position of ell, or None outside the box."""
        ell = tuple(int(x) for x in ell)
        if len(ell) != self.nu or any(abs(x) > self.ell_max for x in ell):
            return None
        n = 2 * self.ell_max + 1
        p = 0
        for x in ell:
            p = p * n + x + self.ell_max
        return p

    def _shape(self, a_sq, b_sq):
        return (
            self.lattice.cluster(a_sq).n_alpha,
            self.lattice.cluster(b_sq).n_alpha,
        )

    def _checked(self, ell, a_sq, b_sq, mat):
        """(flat position, complex copy of mat), both validated."""
        p = self._position(ell)
        if p is None:
            raise ParameterError(
                f"ell = {tuple(ell)} outside |ell|_inf <= {self.ell_max} in nu = {self.nu}")
        mat = np.array(mat, dtype=complex)
        if mat.shape != self._shape(a_sq, b_sq):
            raise ParameterError(
                f"block ({tuple(ell)},{a_sq},{b_sq}) has shape {mat.shape}, "
                f"expected {self._shape(a_sq, b_sq)}"
            )
        return p, mat

    def block(self, ell, a_sq, b_sq):
        p = self._position(ell)
        idx, mats = self.stacks.get((int(a_sq), int(b_sq)), (None, None))
        if p is not None and idx is not None:
            i = int(np.searchsorted(idx, p))
            if i < len(idx) and idx[i] == p:
                return mats[i]
        return np.zeros(self._shape(a_sq, b_sq), dtype=complex)

    def __len__(self):
        """Number of stored blocks."""
        return sum(len(idx) for idx, _ in self.stacks.values())

    def copy(self):
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        out.stacks = {k: (idx, mats.copy()) for k, (idx, mats) in self.stacks.items()}
        return out

    def drop_zero_blocks(self):
        kept = {}
        for key, (idx, mats) in self.stacks.items():
            nonzero = mats.reshape(len(mats), -1).any(axis=1)
            if nonzero.all():
                kept[key] = (idx, mats)
            elif nonzero.any():
                kept[key] = (idx[nonzero], mats[nonzero])
        self.stacks = kept
        return self

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        out = cls(lattice, nu, ell_max)
        center = np.array([out._position((0,) * nu)], dtype=np.int64)
        for c in lattice.clusters:
            out.stacks[(c.alpha_sq, c.alpha_sq)] = (
                center, np.eye(c.n_alpha, dtype=complex)[None])
        return out

    def _check_compat(self, other):
        if self.lattice != other.lattice:
            raise LatticeMismatchError("operators built over different lattices")
        if self.nu != other.nu or self.ell_max != other.ell_max:
            raise LatticeMismatchError("operators with different angle truncations")

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        self._check_compat(other)
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        out.stacks = dict(self.stacks)
        for key, stack in other.stacks.items():
            out.stacks[key] = (_add_stacks(out.stacks[key], stack)
                               if key in out.stacks else stack)
        return out

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        out.stacks = {k: (idx, mats * scalar)
                      for k, (idx, mats) in self.stacks.items()}
        return out

    __rmul__ = __mul__

    # -- involutions (all pointwise in phi) -----------------------------------
    def _neg_perms(self, a_sq, b_sq):
        """Row and column index arrays of j -> -j on the pair (alpha, beta)."""
        return (self.lattice.cluster(a_sq).neg_perm[:, None],
                self.lattice.cluster(b_sq).neg_perm[None, :])

    def transpose(self):
        """(R^T)_j^{j'} = R_{-j'}^{-j}: per-block negate-and-swap."""
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        for (a, b), (idx, mats) in self.stacks.items():
            pb, pa = self._neg_perms(b, a)
            out.stacks[(b, a)] = (idx, mats.transpose(0, 2, 1)[:, pb, pa])
        return out

    def conj(self):
        """(conj R)_j^{j'}(phi) = conj(R_{-j}^{-j'}(phi)); ell flips with the phi conjugation."""
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        last = len(ell_table(self.nu, self.ell_max)[0]) - 1
        for (a, b), stack in self.stacks.items():
            out.stacks[(a, b)] = _conj_stack(stack, *self._neg_perms(a, b), last)
        return out

    def adjoint(self):
        return self.conj().transpose()

    # -- derivatives ----------------------------------------------------------
    def omega_dphi(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        box = ell_table(self.nu, self.ell_max)[0]
        for key, (idx, mats) in self.stacks.items():
            f = 1j * (box[idx] @ omega)
            keep = f != 0
            if keep.any():
                out.stacks[key] = (idx[keep], mats[keep] * f[keep, None, None])
        return out

    # -- norms ----------------------------------------------------------------
    def decay_norm(self, s):
        """sup over (alpha, beta) of the ell-weighted HS mass, compensated sums."""
        norms = ell_table(self.nu, self.ell_max)[1]
        best = 0.0
        for (a, b), (idx, mats) in self.stacks.items():
            floor = max(1.0, self.lattice.alpha(a), self.lattice.alpha(b))
            base = np.maximum(norms[idx], floor)
            best = max(best, math.fsum(
                x ** (2.0 * s) * h for x, h in zip(base.tolist(), _hs_sq(mats).tolist())))
        return math.sqrt(best)

    def hs_total(self):
        return math.sqrt(math.fsum(
            h for _, mats in self.stacks.values() for h in _hs_sq(mats).tolist()))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def block_decay_norm(R, s):
    if s < 0:
        raise ParameterError("s must be >= 0")
    return R.decay_norm(s)


@functools.cache
def _grid(nu, ell_max):
    """Tables of the (4L+1)^nu grid that holds every product's ell.

    Returns (wide, box_of, fwd, inv), all read-only.  ``wide[p]`` writes box
    row p's digits ell + L with stride N = 4L + 1, so ell1 + ell2 sits at
    wide[p1] + wide[p2] (digits ell + 2L, no carries), and ``box_of`` maps
    such a position back to its box row, or -1 outside the box.  ``fwd``
    (N, 2L+1) evaluates box coefficients at the angles 2 pi g / N; ``inv``
    (N, N) takes grid values back to the coefficients at ell = -2L..2L.
    Products reach no further, so nothing aliases.
    """
    n, size = 2 * ell_max + 1, 4 * ell_max + 1
    strides = size ** np.arange(nu - 1, -1, -1)
    wide = (ell_table(nu, ell_max)[0] + ell_max) @ strides
    box_of = np.full(size**nu, -1, dtype=np.int64)
    box_of[wide + ell_max * strides.sum()] = np.arange(n**nu)
    g = np.arange(size)
    fwd = np.exp(2j * np.pi * (g[:, None] * np.arange(-ell_max, ell_max + 1) % size)
                 / size)
    inv = np.exp(-2j * np.pi * (np.arange(-2 * ell_max, 2 * ell_max + 1)[:, None] * g
                                % size) / size) / size
    for x in (wide, box_of, fwd, inv):
        x.flags.writeable = False
    return wide, box_of, fwd, inv


def _scatter_pattern(nu, ell_max, i1, i2):
    """Where the products of two ell-index vectors land on the product grid.

    i1, i2: sorted flat box positions; product (i, j) is number
    i * len(i2) + j.  Returns (order, starts, pos): the products sorted
    stably by ``_grid`` position, the starts of their runs and the position
    of each run, which is the set i1 + i2.  Plans are read-only and memoized
    by (nu, L, i1 bytes, i2 bytes).
    """
    key = (nu, ell_max, i1.tobytes(), i2.tobytes())
    if key in _PLANS:
        return _PLANS[key]
    wide = _grid(nu, ell_max)[0]
    pos = (wide[i1][:, None] + wide[i2][None, :]).ravel()
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    starts = np.flatnonzero(np.diff(pos, prepend=-1))
    plan = (order, starts, pos[starts])
    for x in plan:
        x.flags.writeable = False
    _PLANS.add(key, plan)
    return plan


def _fuse(parts, shape):
    """Stacks as the blocks of one matrix, parts[i][j] at row block i and
    column block j, each of ``shape``, over the union of their ell; a None
    part is a zero stack."""
    present = [x for row in parts for x in row if x is not None]
    if len(parts) == len(parts[0]) == 1:
        return present[0]
    idx = present[0][0]
    for i, _ in present[1:]:
        if not np.array_equal(i, idx):
            idx = np.union1d(idx, i)
    (n, m), k = shape, len(parts[0])
    out = np.zeros((len(idx), n * len(parts), m * k), dtype=complex)
    for i, row in enumerate(parts):
        for j, x in enumerate(row):
            if x is not None:
                at = slice(None) if len(x[0]) == len(idx) else np.searchsorted(idx, x[0])
                out[at, i * n:(i + 1) * n, j * m:(j + 1) * m] = x[1]
    return idx, out


def _along(mat, x, nu):
    """``mat`` applied along each of the first nu axes of x."""
    for k in range(nu):
        head, tail = x.shape[:k], x.shape[k + 1:]
        x = (mat @ x.reshape(math.prod(head), x.shape[k], -1)).reshape(
            head + (len(mat),) + tail)
    return x


def _to_grid(nu, ell_max, idx, mats):
    """A stack's blocks off ell = 0 at the (4L+1)^nu angles, shape (N^nu,)
    + block shape."""
    n = 2 * ell_max + 1
    x = np.zeros((n**nu,) + mats.shape[1:], dtype=complex)
    x[idx] = mats
    x[n**nu // 2] = 0
    x = _along(_grid(nu, ell_max)[2], x.reshape((n,) * nu + mats.shape[1:]), nu)
    return x.reshape((-1,) + mats.shape[1:])


def _from_grid(nu, ell_max, values):
    """Coefficients at the product grid's positions of (N^nu,) + block values."""
    size = 4 * ell_max + 1
    x = _along(_grid(nu, ell_max)[3], values.reshape((size,) * nu + values.shape[1:]), nu)
    return x.reshape(values.shape)


def _direct(nu, ell_max, left, right, rows=False):
    """Yield (positions, blocks) of the summed products per chunk of left ell:
    one GEMM, or for ``rows`` (stacks of 1 x k rows of scalars) one product
    entry by entry, and a sorted scatter, temporaries within ``_CHUNK_BYTES``."""
    (idx1, m1), (idx2, m2) = left, right
    k2, nb, nc = m2.shape
    na = m1.shape[1]
    rhs = m2.transpose(1, 0, 2).reshape(nb, k2 * nc)
    chunk = max(1, _CHUNK_BYTES // (k2 * na * nc * 16))
    for lo in range(0, len(idx1), chunk):
        part = idx1[lo:lo + chunk]
        order, starts, pos = _scatter_pattern(nu, ell_max, part, idx2)
        if rows:  # prods[0, i * k2 + j, r] = m1[lo + i, 0, r] m2[j, 0, r]
            prods = (m1[lo:lo + chunk] * rhs.reshape(1, k2, nc)).reshape(1, -1, nc)
        else:  # one GEMM: prods[a, i * k2 + j, c] = (m1[lo + i] @ m2[j])[a, c]
            lhs = m1[lo:lo + chunk].transpose(1, 0, 2).reshape(-1, nb)
            prods = (lhs @ rhs).reshape(na, len(part) * k2, nc)
        sums = np.add.reduceat(np.take(prods, order, axis=1), starts, axis=1)
        del prods  # free it before the next chunk's GEMM
        yield pos, sums.transpose(1, 0, 2)


def _on_grid(nu, ell_max, left, right, exact, masks):
    """(positions, blocks) per output entry, by one matmul per grid angle.

    ``right`` is the right factor off ell = 0 at the angles.  ``exact``
    lists the products with an ell = 0 block, (rows, positions, rhs): left
    blocks ``rows`` times rhs, added in coefficient space.  Entry e takes
    its e-th column block at the positions of ``masks[e]``.  Every
    temporary stays within ``_CHUNK_BYTES`` by taking the left's block rows
    in chunks.
    """
    idx, mats = left
    na, width = mats.shape[1], right.shape[2] // len(masks)
    chunk = max(1, _CHUNK_BYTES // (len(right) * max(right.shape[1:]) * 16))
    pos = [np.flatnonzero(mask) for mask in masks]
    out = [np.empty((len(p), na, width), dtype=complex) for p in pos]
    for lo in range(0, na, chunk):
        coef = _from_grid(nu, ell_max,
                          _to_grid(nu, ell_max, idx, mats[:, lo:lo + chunk]) @ right)
        for rows, at, rhs in exact:
            coef[at] += mats[rows, lo:lo + chunk] @ rhs
        for e, (p, o) in enumerate(zip(pos, out)):
            o[:, lo:lo + chunk] = coef[p, :, e * width:(e + 1) * width]
        del coef
    return list(zip(pos, out))


def _reach(nu, ell_max, i1, i2):
    """Mask over the product grid of the set i1 + i2, memoized like the plans."""
    key = ("reach", nu, ell_max, i1.tobytes(), i2.tobytes())
    if key not in _PLANS:
        wide = _grid(nu, ell_max)[0]
        mask = np.zeros((4 * ell_max + 1) ** nu, dtype=bool)
        mask[(wide[i1][:, None] + wide[i2][None, :]).ravel()] = True
        mask.flags.writeable = False
        _PLANS.add(key, (mask,))
    return _PLANS[key][0]


def _support(stack):
    """Sorted ell positions of a stack's nonzero blocks."""
    idx, mats = stack
    return idx[mats.reshape(len(mats), -1).any(axis=1)]


def _grid_wins(products, grid, right_bytes):
    """Branch rule of a cluster triple: the angle grid when its fused block
    products outnumber its ``grid`` angles and its right factor fits there
    in ``_CHUNK_BYTES``."""
    return products > grid and right_bytes <= _CHUNK_BYTES


class _Right:
    """The right factor of ``compose`` at one cluster pair (beta, gamma): its
    top row [s1, s2] (or [T]) and the implied lower row (conj s2, conj s1),
    fused and taken to the angles once for every alpha, and kept in
    ``_RIGHTS`` for the next product by the same stacks."""

    def __init__(self, nu, ell_max, cb, cc, blocks):
        self.nu, self.ell_max, self.cb, self.cc = nu, ell_max, cb, cc
        self.shape = (cb.n_alpha, cc.n_alpha)
        self.rows = [blocks]
        if len(blocks) == 2:
            last = (2 * ell_max + 1) ** nu - 1
            self.rows.append([None if x is None else
                              _conj_stack(x, cb.neg_perm[:, None], cc.neg_perm, last)
                              for x in blocks[::-1]])
        self._fused, self._angles, self._top = {}, {}, None

    @property
    def nbytes(self):
        """Bytes of the tables built here; the operand's own stacks are not
        counted."""
        own = {id(x) for x in self.rows[0]}
        arrays = [a for row in self.rows[1:] for x in row if x is not None for a in x]
        arrays += [a for _, x in self._fused.values() if id(x) not in own for a in x]
        arrays += [x for x in (self._top, *self._angles.values()) if x is not None]
        return sum({id(a): a.nbytes for a in arrays}.values())

    def fused(self, used):
        """(live, stack): the rows ``used`` as one stack, of the column
        blocks ``live`` that have blocks in them."""
        if used not in self._fused:
            live = [e for e in range(len(self.rows[0]))
                    if any(self.rows[k][e] is not None for k in used)]
            self._fused[used] = live, _fuse([[self.rows[k][e] for e in live]
                                             for k in used], self.shape)
        return self._fused[used]

    def at_angles(self, used):
        """The fused rows ``used``, their blocks off ell = 0, at the angles.
        The lower row is read off the top row there, as
        conj R(phi) = P conj(R(phi)) P at a real angle: column block e of
        the lower row is P conj(s_(1-e)(phi)) P."""
        if used not in self._angles:
            if self._top is None:
                self._top = _to_grid(self.nu, self.ell_max,
                                     *_fuse([self.rows[0]], self.shape))
            live, nc = self.fused(used)[0], self.shape[1]
            parts = []
            if 0 in used:
                parts.append(self._top if len(live) == len(self.rows[0]) else
                             self._top[:, :, np.concatenate(
                                 [e * nc + np.arange(nc) for e in live])])
            if 1 in used:
                cols = np.concatenate([(1 - e) * nc + self.cc.neg_perm for e in live])
                parts.append(np.conj(self._top[:, self.cb.neg_perm[:, None], cols]))
            self._angles[used] = (np.concatenate(parts, axis=1) if len(parts) > 1
                                  else parts[0])
        return self._angles[used]


def _triple(nu, ell_max, halves, left, right):
    """The summed products of one cluster triple (alpha, beta, gamma), as
    [(positions, blocks), ...] pieces per output entry (one per top-row
    block of ``right``), positions on the product grid.

    ``halves``: the left factor's stacks [r1, r2] (or [R]) at (alpha, beta),
    None where absent, and ``left`` those present side by side; ``right``:
    the ``_Right`` at (beta, gamma).  r2 multiplies the implied lower row,
    so entry e sums r1 s_e and r2 conj s_(1-e): one product of [r1 | r2]
    and [[s1, s2], [conj s2, conj s1]], the rows of absent halves left out.
    """
    used = tuple(k for k, h in enumerate(halves) if h is not None)
    (live, fused), nc = right.fused(used), right.shape[1]
    out = [[] for _ in right.rows[0]]

    def add(pieces):
        for pos, mats in pieces:
            for i, e in enumerate(live):
                out[e].append((pos, mats[:, :, i * nc:(i + 1) * nc]))

    # the grid multiplies the blocks off ell = 0; a product with an ell = 0
    # block shifts nothing and is formed in coefficient space, so the grid's
    # rounding scales with the other blocks only and a dominant ell = 0 part
    # (the diagonal D, a map near the identity) adds none at the other ell
    center, n_grid = ((2 * ell_max + 1) ** nu) // 2, (4 * ell_max + 1) ** nu
    off_l, off_r = left[0] != center, fused[0] != center
    if not (off_l.any() and off_r.any()
            and _grid_wins(len(left[0]) * len(fused[0]), n_grid,
                           n_grid * fused[1][0].size * 16)):
        add(_direct(nu, ell_max, left, fused))
        return out
    wide = _grid(nu, ell_max)[0]
    exact = []
    if not off_l.all():
        exact.append((np.flatnonzero(~off_l), wide[fused[0]] + wide[center], fused[1]))
    if not off_r.all():
        exact.append((np.flatnonzero(off_l), wide[left[0][off_l]] + wide[center],
                      fused[1][~off_r][0]))
    # entry e keeps the ell that its terms' nonzero blocks reach
    masks = []
    for e in live:
        mask = np.zeros(n_grid, dtype=bool)
        for k in used:
            if right.rows[k][e] is not None:
                mask |= _reach(nu, ell_max, _support(halves[k]),
                               _support(right.rows[k][e]))
        masks.append(mask)
    on_grid = _on_grid(nu, ell_max, left, right.at_angles(used), exact, masks)
    for e, part in zip(live, on_grid):
        out[e].append(part)
    return out


def compose(R, T):
    """Operator product R(phi) T(phi): ell-convolution, block-matrix product.

    R and T are both block operators or both paired.  The top row of the
    paired product is one fused product per cluster triple,
    [r1 | r2] [[s1, s2], [conj s2, conj s1]].  A triple with more fused
    block products than the (4L+1)^nu grid has angles, and room for its
    right factor there within ``_CHUNK_BYTES``, is multiplied angle by angle
    on that grid, its products with an ell = 0 block in coefficient space;
    the others by one GEMM and a sorted scatter.  Each output
    entry keeps its blocks at the ell that its factors' nonzero blocks reach
    inside the ambient |ell|_inf box, exactly-zero blocks dropped; the HS
    mass of the blocks it reaches outside the box is
    ``meta['truncation_loss']``, the max over a paired product's entries.
    T's tables per cluster pair are memoized in ``_RIGHTS`` while T holds
    the same stacks, within ``_CHUNK_BYTES``.
    """
    paired = isinstance(R, PairedBlockOperator)
    lefts, uppers = ((R.r1, R.r2), (T.r1, T.r2)) if paired else ((R,), (T,))
    lefts[0]._check_compat(uppers[0])
    lat, nu, L = lefts[0].lattice, lefts[0].nu, lefts[0].ell_max
    left_by_mid, fused = {}, {}
    for a, b in sorted({k for op in lefts for k in op.stacks}):
        left_by_mid.setdefault(b, []).append(a)
    acc = [{} for _ in uppers]
    # T's tables are reused while T holds the same stack objects, as in a
    # series by one Psi: stacks are never written in place, and the ids of
    # the stacks that the memo holds cannot be taken by new objects
    rights = {(b, c): [op.stacks.get((b, c)) for op in uppers]
              for b, c in sorted({k for op in uppers for k in op.stacks})}
    keys = {bc: (nu, L, *bc, *map(id, blocks)) for bc, blocks in rights.items()}
    known = {key: _RIGHTS[key] for key in keys.values() if key in _RIGHTS}
    _RIGHTS.clear()
    for (b, c), blocks in rights.items():
        right = known.get(keys[(b, c)]) or _Right(nu, L, lat.cluster(b),
                                                  lat.cluster(c), blocks)
        for a in left_by_mid.get(b, ()):
            halves = [op.stacks.get((a, b)) for op in lefts]
            if (a, b) not in fused:
                present = [h for h in halves if h is not None]
                fused[(a, b)] = _fuse([present], present[0][1].shape[1:])
            entries = _triple(nu, L, halves, fused[(a, b)], right)
            for out, pieces in zip(acc, entries):
                for part in pieces:
                    out[(a, c)] = (_add_stacks(out[(a, c)], part)
                                   if (a, c) in out else part)
        _RIGHTS.add(keys[(b, c)], right)
    box_of = _grid(nu, L)[1]
    result = []
    for out in acc:
        op = BlockOperator(lat, nu, L)
        lost = []
        for key, (pos, mats) in out.items():
            inside = box_of[pos] >= 0
            lost.append(_sq_norm(mats[~inside]))
            if inside.any():
                op.stacks[key] = (box_of[pos[inside]], mats[inside])
        op.drop_zero_blocks()
        op.meta["truncation_loss"] = math.sqrt(math.fsum(lost))
        result.append(op)
    if not paired:
        return result[0]
    out = PairedBlockOperator(*result)
    out.meta["truncation_loss"] = max(op.meta["truncation_loss"] for op in result)
    return out


def _product_rows(a, b, nu, ell_max):
    """Row-wise products of two (k, (2L+1)^nu) coefficient stacks in box
    order, cut to the box, and per row the l2 mass it reaches outside.
    A row is a stack of 1 x 1 blocks; the rows with the same supports are one
    cluster triple, summed exactly by ``_direct``'s scatter.  Chunks hold
    whole rows, so each row comes out bit for bit as if alone, and a row
    keeps the ell its supports reach, the others +0."""
    n, box_of = a.shape[1], _grid(nu, ell_max)[1]
    out, lost = np.zeros(a.shape, dtype=complex), np.zeros(len(a))
    nz = np.concatenate([a != 0, b != 0], axis=1)
    groups = {}
    for r in np.flatnonzero(nz[:, :n].any(axis=1) & nz[:, n:].any(axis=1)).tolist():
        groups.setdefault(nz[r].tobytes(), []).append(r)
    for rows in map(np.array, groups.values()):
        i1, i2 = np.flatnonzero(nz[rows[0], :n]), np.flatnonzero(nz[rows[0], n:])
        step = max(1, _CHUNK_BYTES // (16 * len(i1) * len(i2)))
        for r in np.split(rows, range(step, len(rows), step)):
            pos, vals = functools.reduce(_add_stacks, _direct(
                nu, ell_max, (i1, a[r][:, i1].T[:, None]),
                (i2, b[r][:, i2].T[:, None]), rows=True))
            inside = box_of[pos] >= 0
            out[r[:, None], box_of[pos[inside]]] += vals[inside, 0].T
            lost[r] = [math.fsum(x) for x in (np.abs(vals[~inside, 0].T) ** 2).tolist()]
    return out, np.sqrt(lost).tolist()


def smoothing_projector(R, N):
    """(Pi_N R, Pi_N^perp R): keep max{|ell|, alpha, beta} <= N; the pair sums to R."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    low = BlockOperator(R.lattice, R.nu, R.ell_max)
    high = BlockOperator(R.lattice, R.nu, R.ell_max)
    norms = ell_table(R.nu, R.ell_max)[1]
    for (a, b), (idx, mats) in R.stacks.items():
        size = np.maximum(norms[idx], max(R.lattice.alpha(a), R.lattice.alpha(b)))
        below = size <= N
        for target, sel in ((low, below), (high, ~below)):
            if sel.all():
                target.stacks[(a, b)] = (idx, mats)
            elif sel.any():
                target.stacks[(a, b)] = (idx[sel], mats[sel])
    return low, high


def diagonal_part(R):
    """Keep only the ell = 0, alpha = beta blocks."""
    out = BlockOperator(R.lattice, R.nu, R.ell_max)
    center = R._position((0,) * R.nu)
    for (a, b), (idx, mats) in R.stacks.items():
        i = int(np.searchsorted(idx, center))
        if a == b and i < len(idx) and idx[i] == center:
            out.stacks[(a, b)] = (idx[i:i + 1], mats[i:i + 1])
    return out


class Paired:
    """Top row (r1, r2) of ( r1  r2 ; conj r2  conj r1 ) in either algebra,
    block operators or Fourier multipliers: a subclass names the class of r1
    and r2 as ``_part`` and adds its product ``compose``."""

    __slots__ = ("r1", "r2", "meta")

    def __init__(self, r1, r2):
        r1._check_compat(r2)
        self.r1 = r1
        self.r2 = r2
        self.meta = {}

    @classmethod
    def zero(cls, lattice, nu, ell_max):
        return cls(cls._part(lattice, nu, ell_max), cls._part(lattice, nu, ell_max))

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls(cls._part.identity(lattice, nu, ell_max), cls._part(lattice, nu, ell_max))

    @property
    def lattice(self):
        return self.r1.lattice

    def copy(self):
        return type(self)(self.r1.copy(), self.r2.copy())

    def __add__(self, other):
        return type(self)(self.r1 + other.r1, self.r2 + other.r2)

    def __sub__(self, other):
        return type(self)(self.r1 - other.r1, self.r2 - other.r2)

    def __mul__(self, scalar):
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise ParameterError(
                "scaling a paired operator by a non-real scalar breaks the "
                "conjugate-row structure"
            )
        return type(self)(self.r1 * scalar, self.r2 * scalar)

    __rmul__ = __mul__

    def omega_dphi(self, omega):
        return type(self)(self.r1.omega_dphi(omega), self.r2.omega_dphi(omega))

    def sigma(self):
        """M^sigma = S M* S, S = diag(I, -I): top row (r1*, -r2^T).  An involution
        with (A B)^sigma = B^sigma A^sigma; -M on Hamiltonian fields, M^-1 on
        symplectic maps."""
        return type(self)(self.r1.adjoint(), self.r2.transpose() * (-1.0))


class PairedBlockOperator(Paired):
    """Paired top row of block operators."""

    __slots__ = ()
    _part = BlockOperator

    def compose(self, other):
        """Paired product; the module-level ``compose`` forms it."""
        return compose(self, other)

    def decay_norm(self, s):
        return self.r1.decay_norm(s) + self.r2.decay_norm(s)

    def hamiltonian_residual(self, s=0.0):
        """|M^sigma + M|_s: zero exactly when r1* = -r1 and r2^T = r2, the
        field i (H1 H2; -conj H2 -conj H1), H1 self-adjoint, H2 symmetric."""
        return (self.sigma() + self).decay_norm(s)

    def matrix_at_phi(self, phi):
        """Frozen-angle matrix of (r1 r2; conj r2 conj r1) over the flat index.

        phi is one angle (nu,) or a stack (m, nu); the result is (2n, 2n) or
        (m, 2n, 2n), rows and columns ordered as (top, bottom) halves over
        ``lattice.points``.  At a real angle conj R(phi) = P conj(R(phi)) P
        with P the j -> -j permutation, so the bottom row is read off the top.
        """
        phi = np.asarray(phi, dtype=float)
        phis = phi.reshape(-1, self.r1.nu)
        m1, m2 = (_matrices_at(op, phis) for op in (self.r1, self.r2))
        p = self.lattice.neg_perm

        def conj_perm(x):
            return np.conj(x[:, p][:, :, p])

        out = np.block([[m1, m2], [conj_perm(m2), conj_perm(m1)]])
        return out[0] if phi.ndim == 1 else out


def _matrices_at(op, phis):
    """op(phi) for each row of phis as (m, n, n) over the flat index."""
    lat = op.lattice
    n = lat.n_points
    out = np.zeros((len(phis), n, n), dtype=complex)
    box = ell_table(op.nu, op.ell_max)[0]
    for (a, b), (idx, mats) in op.stacks.items():
        out[:, lat.slices[a], lat.slices[b]] = _at_angles(
            phis, box[idx], mats.reshape(len(idx), -1)).reshape((-1,) + mats.shape[1:])
    return out


def operator_exponential(psi, tol=1e-15, max_terms=60):
    """exp(Psi) for a paired operator via the plain scaled power series.

    The a-priori tail bound from decay-norm submultiplicativity stops the
    series; exceeding ``max_terms`` raises DivergenceError.  A decay norm
    |Psi|_0 above 1 only flags ``meta['size_warning']`` (a smallness
    hypothesis, not a hard precondition).
    """
    nrm = psi.decay_norm(0.0)
    out = truncated_series(
        PairedBlockOperator.identity(psi.lattice, psi.r1.nu, psi.r1.ell_max),
        lambda t, k: t.compose(psi) * (1.0 / k), tol, max_terms,
        rate=lambda k: nrm / k, name=f"exponential series (|Psi| = {nrm:.3e})")
    out.r1.drop_zero_blocks()
    out.r2.drop_zero_blocks()
    out.meta["size_warning"] = bool(nrm > 1.0)
    return out


def rank_one_blocks(q, g, lattice):
    """Blocks of R(phi)[h] = q <g, h>:  Rhat_j^{j'}(ell) = sum q_j(ell-ell') g_{-j'}(ell').

    One truncated product per (j, j') pair, all in one ``_product_rows``
    call (this module's kernel, each pair's row a stack of 1 x 1 blocks),
    then one scatter per cluster pair: each (ell, j, j') entry gets exactly
    one value, so pairs whose product vanishes add no block.
    """
    where = lattice.cluster_of_point
    pairs = [(i, k, j, tuple(-x for x in jp)) for i, j in enumerate(q.modes) if j in where
             for k, jp in enumerate(g.modes) if tuple(-x for x in jp) in where]
    out = BlockOperator(lattice, q.nu, q.ell_max)
    prods, _ = _product_rows(q.coeffs[[p[0] for p in pairs]], g.coeffs[[p[1] for p in pairs]],
                             q.nu, q.ell_max)
    groups = {}
    for row in np.flatnonzero(prods.any(axis=1)).tolist():
        _, _, j, mjp = pairs[row]
        a, b = where[j], where[mjp]
        groups.setdefault((a, b), []).append(
            (row, lattice.cluster(a).index_of[j], lattice.cluster(b).index_of[mjp]))
    for (a, b), entries in groups.items():
        rows, r, col = (np.array(x) for x in zip(*entries))
        vals = prods[rows]
        idx = np.flatnonzero(vals.any(axis=0))
        k, at = np.nonzero(vals[:, idx])
        mats = np.zeros((len(idx),) + out._shape(a, b), dtype=complex)
        mats[at, r[k], col[k]] += vals[k, idx[at]]
        out.stacks[(a, b)] = (idx, mats)
    return out
