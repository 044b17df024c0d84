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
holds them, so operators share them freely.  ``block`` and the sorted
``items`` iterator are the per-block accessors; every other operation
is a few array operations per pair.

``compose`` forms all block products of a cluster triple with one GEMM and
sums them onto their output ell by a sorted scatter.  Products that leave the
box are dropped and their HS mass is reported in ``meta['truncation_loss']``;
exactly-zero output blocks are not stored.

PairedBlockOperator stores the top row (R1, R2) of the 2x2 arrangement

    ( R1       R2     )
    ( conj R2  conj R1)

which is closed under composition, inversion and exponentials; the bottom row
is implied and never stored.
"""

import math

import numpy as np

from .errors import LatticeMismatchError, ParameterError
from .series import truncated_series
from .spectrum import ell_table

__all__ = [
    "BlockOperator",
    "PairedBlockOperator",
    "block_decay_norm",
    "compose",
    "smoothing_projector",
    "diagonal_part",
    "operator_exponential",
]

# byte cap on compose's temporaries per GEMM and on its scatter plans (_PLANS)
_CHUNK_BYTES = 2**24
_PLANS = {}


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

    def items(self):
        """((ell, alpha^2, beta^2), block) of every stored block, keys sorted."""
        box = ell_table(self.nu, self.ell_max)[0]
        ells, order = {}, []
        for (a, b), (idx, _) in self.stacks.items():
            ells[(a, b)] = box[idx].tolist()
            order.extend((p, a, b, i) for i, p in enumerate(idx.tolist()))
        for _, a, b, i in sorted(order):
            yield (tuple(ells[(a, b)][i]), a, b), self.stacks[(a, b)][1][i]

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
        for (a, b), (idx, mats) in self.stacks.items():
            pa, pb = self._neg_perms(a, b)
            flipped = mats[::-1][:, pa, pb]
            out.stacks[(a, b)] = (last - idx[::-1], np.conj(flipped, out=flipped))
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


def _scatter_pattern(nu, ell_max, i1, i2):
    """Where the products of two ell-index vectors land in the box.

    i1, i2: sorted flat positions; product (i, j) is number
    i * len(i2) + j.  Returns (order, starts, out, lost): the in-box products
    sorted stably by output position, the starts of their runs, the output
    position of each run, and the products outside the box.  Plans are
    read-only and memoized by (nu, L, i1 bytes, i2 bytes).
    """
    key = (nu, ell_max, i1.tobytes(), i2.tobytes())
    if key in _PLANS:
        return _PLANS[key]
    box = ell_table(nu, ell_max)[0]
    e1, e2 = box[i1], box[i2]
    inbox = np.ones((len(i1), len(i2)), dtype=bool)
    for k in range(nu):
        inbox &= np.abs(e1[:, k, None] + e2[None, :, k]) <= ell_max
    inbox = inbox.ravel()
    # inside the box flat positions add: (ell1 + L) + (ell2 + L) - center
    pos = (i1[:, None] + i2[None, :]).ravel() - len(box) // 2
    order = np.flatnonzero(inbox)
    order = order[np.argsort(pos[order], kind="stable")]
    pos = pos[order]
    starts = np.flatnonzero(np.diff(pos, prepend=-1))
    plan = _PLANS[key] = (order, starts, pos[starts], np.flatnonzero(~inbox))
    for x in plan:
        x.flags.writeable = False
    while sum(x.nbytes for v in _PLANS.values() for x in v) > _CHUNK_BYTES:
        del _PLANS[next(iter(_PLANS))]
    return plan


def compose(R, T):
    """Operator product R(phi) T(phi): ell-convolution, block-matrix product.

    Per cluster triple (alpha, beta, gamma), all products
    Rhat(ell1)_{alpha beta} That(ell2)_{beta gamma} come from one GEMM and a
    sorted scatter sums them onto ell1 + ell2.  The result is re-truncated to
    the ambient |ell|_inf box; the discarded HS mass is stored in
    ``out.meta['truncation_loss']`` so truncation error stays observable.
    Exactly-zero output blocks are dropped.
    """
    R._check_compat(T)
    nu, L = R.nu, R.ell_max
    right_by_mid = {}
    for (b, c), stack in sorted(T.stacks.items()):
        right_by_mid.setdefault(b, []).append((c, stack))
    acc = {}
    lost = []
    for (a, b), (idx1, m1) in sorted(R.stacks.items()):
        for c, (idx2, m2) in right_by_mid.get(b, ()):
            k2, nb, nc = m2.shape
            na = m1.shape[1]
            rhs = m2.transpose(1, 0, 2).reshape(nb, k2 * nc)
            chunk = max(1, _CHUNK_BYTES // (k2 * na * nc * 16))
            for lo in range(0, len(idx1), chunk):
                left = idx1[lo:lo + chunk]
                order, starts, pos, outside = _scatter_pattern(nu, L, left, idx2)
                # one GEMM: prods[a, i * k2 + j, c] = (m1[lo + i] @ m2[j])[a, c]
                lhs = m1[lo:lo + chunk].transpose(1, 0, 2).reshape(-1, nb)
                prods = (lhs @ rhs).reshape(na, len(left) * k2, nc)
                if len(outside):
                    lost.append(_sq_norm(np.take(prods, outside, axis=1)))
                if len(starts):
                    sums = np.add.reduceat(np.take(prods, order, axis=1), starts, axis=1)
                    part = (pos, np.ascontiguousarray(sums.transpose(1, 0, 2)))
                    acc[(a, c)] = (_add_stacks(acc[(a, c)], part)
                                   if (a, c) in acc else part)
                del prods  # free it before the next chunk's GEMM
    out = BlockOperator(R.lattice, nu, L)
    out.stacks = acc
    out.drop_zero_blocks()
    out.meta["truncation_loss"] = math.sqrt(math.fsum(lost)) if lost else 0.0
    return out


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


class PairedBlockOperator:
    """Top row (r1, r2) of ( r1  r2 ; conj r2  conj r1 )."""

    __slots__ = ("r1", "r2", "meta")

    def __init__(self, r1, r2):
        r1._check_compat(r2)
        self.r1 = r1
        self.r2 = r2
        self.meta = {}

    @classmethod
    def zero(cls, lattice, nu, ell_max):
        return cls(BlockOperator(lattice, nu, ell_max), BlockOperator(lattice, nu, ell_max))

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls(
            BlockOperator.identity(lattice, nu, ell_max),
            BlockOperator(lattice, nu, ell_max),
        )

    @property
    def lattice(self):
        return self.r1.lattice

    def copy(self):
        return PairedBlockOperator(self.r1.copy(), self.r2.copy())

    def __add__(self, other):
        return PairedBlockOperator(self.r1 + other.r1, self.r2 + other.r2)

    def __sub__(self, other):
        return PairedBlockOperator(self.r1 - other.r1, self.r2 - other.r2)

    def __mul__(self, scalar):
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise ParameterError(
                "scaling a paired operator by a non-real scalar breaks the "
                "conjugate-row structure"
            )
        return PairedBlockOperator(self.r1 * scalar, self.r2 * scalar)

    __rmul__ = __mul__

    def compose(self, other):
        """Paired product; each top-row entry reports the sum of its two
        products' truncation losses (a triangle bound), the pair the max."""

        def entry(x, y, u, v):
            p, q = compose(x, y), compose(u, v)
            out = p + q
            out.meta["truncation_loss"] = (p.meta["truncation_loss"]
                                           + q.meta["truncation_loss"])
            return out

        a = entry(self.r1, other.r1, self.r2, other.r2.conj())
        b = entry(self.r1, other.r2, self.r2, other.r1.conj())
        out = PairedBlockOperator(a, b)
        out.meta["truncation_loss"] = max(a.meta["truncation_loss"],
                                          b.meta["truncation_loss"])
        return out

    def omega_dphi(self, omega):
        return PairedBlockOperator(
            self.r1.omega_dphi(omega), self.r2.omega_dphi(omega)
        )

    def decay_norm(self, s):
        return self.r1.decay_norm(s) + self.r2.decay_norm(s)

    def sigma(self):
        """M^sigma = S M* S, S = diag(I, -I): top row (r1*, -r2^T).  An involution
        with (A B)^sigma = B^sigma A^sigma; -M on Hamiltonian fields, M^-1 on
        symplectic maps."""
        return PairedBlockOperator(self.r1.adjoint(), self.r2.transpose() * (-1.0))

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
        ells = box[idx].astype(float)
        out[:, lat.slices[a], lat.slices[b]] = np.tensordot(
            np.exp(1j * (phis @ ells.T)), mats, axes=1
        )
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
    """Blocks of R(phi)[h] = q <g, h>:  Rhat_j^{j'}(ell) = sum q_j(ell-ell') g_{-j'}(ell')."""
    blocks = {}
    for j in q.space_modes():
        a_sq = lattice.cluster_of_point.get(j)
        if a_sq is None:
            continue
        ca = lattice.cluster(a_sq)
        r = ca.index_of[j]
        qa = q.angle_part(j)
        for jp in g.space_modes():
            mjp = tuple(-x for x in jp)
            b_sq = lattice.cluster_of_point.get(mjp)
            if b_sq is None:
                continue
            cb = lattice.cluster(b_sq)
            col = cb.index_of[mjp]
            conv, _ = qa.product(g.angle_part(jp))
            for ell, val in conv.modes():
                key = (ell, a_sq, b_sq)
                if key not in blocks:
                    blocks[key] = np.zeros((ca.n_alpha, cb.n_alpha), dtype=complex)
                blocks[key][r, col] += val
    out = BlockOperator(lattice, q.nu, q.ell_max, blocks)
    out.drop_zero_blocks()
    return out
