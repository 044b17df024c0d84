"""Block algebra for phi-dependent operators over spectrum clusters.

An operator R(phi) acting on zero-average functions of T^d is stored through
its Fourier-in-phi block coefficients: a sparse map
(ell, alpha^2, beta^2) -> complex matrix of shape n_alpha x n_beta, rows and
columns ordered by the lattice's deterministic point order.  An absent block
is zero; remainders become extremely sparse as the reduction progresses, and
the sparse map is what makes desk-scale runs cheap.

PairedBlockOperator stores the top row (R1, R2) of the 2x2 arrangement

    ( R1       R2     )
    ( conj R2  conj R1)

which is closed under composition, inversion and exponentials; the bottom row
is implied and never stored.
"""

import math

import numpy as np

from .errors import (
    ContractViolation,
    DivergenceError,
    LatticeMismatchError,
    ParameterError,
)
from .spectrum import SpaceTimeFunction

__all__ = [
    "BlockOperator",
    "PairedBlockOperator",
    "FiniteRankOperator",
    "block_decay_norm",
    "compose",
    "smoothing_projector",
    "diagonal_part",
    "operator_exponential",
    "finite_rank_to_blocks",
    "sobolev_action_bound_check",
]


def _key_norm(ell):
    return float(np.linalg.norm(ell))


class BlockOperator:
    """Sparse block representation of a phi-dependent linear operator."""

    __slots__ = ("lattice", "nu", "ell_max", "blocks", "meta")

    def __init__(self, lattice, nu, ell_max, blocks=None):
        self.lattice = lattice
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.blocks = {}
        self.meta = {}
        if blocks:
            for key, mat in blocks.items():
                self.set_block(*key, mat)

    # -- bookkeeping ---------------------------------------------------------
    def _shape(self, a_sq, b_sq):
        return (
            self.lattice.cluster(a_sq).n_alpha,
            self.lattice.cluster(b_sq).n_alpha,
        )

    def set_block(self, ell, a_sq, b_sq, mat):
        ell = tuple(int(x) for x in ell)
        if max(abs(x) for x in ell) > self.ell_max:
            raise ParameterError(f"ell = {ell} outside |ell|_inf <= {self.ell_max}")
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != self._shape(a_sq, b_sq):
            raise ParameterError(
                f"block ({ell},{a_sq},{b_sq}) has shape {mat.shape}, "
                f"expected {self._shape(a_sq, b_sq)}"
            )
        self.blocks[(ell, int(a_sq), int(b_sq))] = mat

    def add_to_block(self, ell, a_sq, b_sq, mat):
        key = (tuple(int(x) for x in ell), int(a_sq), int(b_sq))
        if key in self.blocks:
            self.blocks[key] = self.blocks[key] + mat
        else:
            self.set_block(*key, mat)

    def block(self, ell, a_sq, b_sq):
        key = (tuple(int(x) for x in ell), int(a_sq), int(b_sq))
        if key in self.blocks:
            return self.blocks[key]
        return np.zeros(self._shape(a_sq, b_sq), dtype=complex)

    def sorted_keys(self):
        return sorted(self.blocks.keys())

    def copy(self):
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        out.blocks = {k: v.copy() for k, v in self.blocks.items()}
        return out

    def drop_zero_blocks(self):
        self.blocks = {
            k: v for k, v in self.blocks.items() if np.any(v)
        }
        return self

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        out = cls(lattice, nu, ell_max)
        z = (0,) * nu
        for c in lattice.clusters:
            out.set_block(z, c.alpha_sq, c.alpha_sq, np.eye(c.n_alpha, dtype=complex))
        return out

    def _check_compat(self, other):
        if self.lattice != other.lattice:
            raise LatticeMismatchError("operators built over different lattices")
        if self.nu != other.nu or self.ell_max != other.ell_max:
            raise LatticeMismatchError("operators with different angle truncations")

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        self._check_compat(other)
        out = self.copy()
        for key, mat in other.blocks.items():
            if key in out.blocks:
                out.blocks[key] = out.blocks[key] + mat
            else:
                out.blocks[key] = mat.copy()
        return out

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        out.blocks = {k: v * scalar for k, v in self.blocks.items()}
        return out

    __rmul__ = __mul__

    # -- involutions (all pointwise in phi) -----------------------------------
    def transpose(self):
        """(R^T)_j^{j'} = R_{-j'}^{-j}: per-block negate-and-swap."""
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        for (ell, a, b), mat in self.blocks.items():
            pa = self.lattice.cluster(a).neg_perm
            pb = self.lattice.cluster(b).neg_perm
            out.add_to_block(ell, b, a, mat[np.ix_(pa, pb)].T)
        return out

    def conj(self):
        """(conj R)_j^{j'}(phi) = conj(R_{-j}^{-j'}(phi)); ell flips with the phi conjugation."""
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        for (ell, a, b), mat in self.blocks.items():
            pa = self.lattice.cluster(a).neg_perm
            pb = self.lattice.cluster(b).neg_perm
            out.add_to_block(
                tuple(-x for x in ell), a, b, np.conj(mat[np.ix_(pa, pb)])
            )
        return out

    def adjoint(self):
        return self.conj().transpose()

    def is_real(self, tol=1e-12):
        return _op_close(self, self.conj(), tol)

    def is_symmetric(self, tol=1e-12):
        return _op_close(self, self.transpose(), tol)

    def is_selfadjoint(self, tol=1e-12):
        return _op_close(self, self.adjoint(), tol)

    # -- derivatives ----------------------------------------------------------
    def omega_dphi(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        for (ell, a, b), mat in self.blocks.items():
            f = 1j * float(np.dot(omega, ell))
            if f != 0:
                out.set_block(ell, a, b, mat * f)
        return out

    # -- norms ----------------------------------------------------------------
    def decay_norm(self, s):
        """sup over (alpha, beta) of the ell-weighted HS mass, compensated sums."""
        acc = {}
        for (ell, a, b), mat in self.blocks.items():
            w = max(
                1.0,
                _key_norm(ell),
                self.lattice.alpha(a),
                self.lattice.alpha(b),
            ) ** (2.0 * s)
            acc.setdefault((a, b), []).append(w * _hs_sq(mat))
        if not acc:
            return 0.0
        return math.sqrt(max(math.fsum(v) for v in acc.values()))

    def hs_total(self):
        return math.sqrt(
            math.fsum(_hs_sq(m) for _, m in sorted(self.blocks.items()))
        )

    # -- action ---------------------------------------------------------------
    def apply(self, u):
        """Apply to a SpaceTimeFunction (phi-convolution, block action in x)."""
        out = SpaceTimeFunction(u.nu, u.ell_max, u.d)
        # group input coefficients by cluster
        by_cluster = {}
        for j in u.space_modes():
            a_sq = self.lattice.cluster_of_point.get(j)
            if a_sq is None:
                continue
            by_cluster.setdefault(a_sq, []).append(j)
        for (ell, a, b), mat in sorted(self.blocks.items()):
            if b not in by_cluster:
                continue
            cb = self.lattice.cluster(b)
            ca = self.lattice.cluster(a)
            vec = [None] * cb.n_alpha
            nonzero = False
            for j in by_cluster[b]:
                vec[cb.index_of[j]] = u.angle_part(j)
                nonzero = True
            if not nonzero:
                continue
            for r, jp in enumerate(ca.points):
                coeffs = None
                for cidx in range(cb.n_alpha):
                    f = vec[cidx]
                    if f is None or mat[r, cidx] == 0:
                        continue
                    term = f.coeffs * mat[r, cidx]
                    coeffs = term if coeffs is None else coeffs + term
                if coeffs is None:
                    continue
                shifted = _shift_coeffs(coeffs, ell, u.ell_max)
                if jp in out.comps:
                    out.comps[jp].coeffs += shifted
                else:
                    g = out.comps.setdefault(
                        jp, _fresh_angle(u.nu, u.ell_max)
                    )
                    g.coeffs += shifted
        return out

    # -- dense oracle ---------------------------------------------------------
    def to_dense(self, ell_box=None):
        """Flatten to a matrix over the (ell, j) basis (test oracle; small sizes).

        Entry rule: M[(ell, j), (ell', j')] = Rhat_j^{j'}(ell - ell').
        """
        ell_box = self.ell_max if ell_box is None else ell_box
        ells = _ell_box_list(self.nu, ell_box)
        pts = list(self.lattice.all_points())
        index = {}
        for i, ell in enumerate(ells):
            for k, j in enumerate(pts):
                index[(ell, j)] = i * len(pts) + k
        n = len(ells) * len(pts)
        M = np.zeros((n, n), dtype=complex)
        for (ell, a, b), mat in self.blocks.items():
            ca = self.lattice.cluster(a)
            cb = self.lattice.cluster(b)
            for lp in ells:
                lo = tuple(x + y for x, y in zip(ell, lp))
                if max(abs(x) for x in lo) > ell_box:
                    continue
                for r, jr in enumerate(ca.points):
                    row = index[(lo, jr)]
                    for c, jc in enumerate(cb.points):
                        M[row, index[(lp, jc)]] += mat[r, c]
        return M, ells, pts


def _fresh_angle(nu, ell_max):
    from .spectrum import AngleFunction

    return AngleFunction(nu, ell_max)


def _shift_coeffs(coeffs, ell, ell_max):
    """Shift a dense angle-coefficient array by ell, truncating to the box."""
    out = np.zeros_like(coeffs)
    src = []
    dst = []
    for off, L in zip(ell, [ell_max] * len(ell)):
        n = 2 * L + 1
        lo_src = max(0, -off)
        hi_src = min(n, n - off)
        src.append(slice(lo_src, hi_src))
        dst.append(slice(lo_src + off, hi_src + off))
    out[tuple(dst)] = coeffs[tuple(src)]
    return out


def _ell_box_list(nu, ell_max):
    import itertools

    return sorted(itertools.product(range(-ell_max, ell_max + 1), repeat=nu))


def _hs_sq(mat):
    return float(np.sum(np.abs(mat) ** 2))


def _op_close(x, y, tol):
    diff = x - y
    scale = max(x.hs_total(), 1.0)
    return diff.hs_total() <= tol * scale


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def block_decay_norm(R, s):
    if s < 0:
        raise ParameterError("s must be >= 0")
    return R.decay_norm(s)


def compose(R, T):
    """Operator product R(phi) T(phi): ell-convolution, block-matrix product.

    The result is re-truncated to the ambient |ell|_inf box; the discarded HS
    mass is stored in ``out.meta['truncation_loss']`` so truncation error
    stays observable.  Products are batched per cluster triple and
    scatter-added (exact sums, no FFT rounding).
    """
    R._check_compat(T)
    L = R.ell_max
    nu = R.nu
    n_box = 2 * L + 1
    groups_r = {}
    for (ell, a, b), mat in R.blocks.items():
        groups_r.setdefault((a, b), []).append((ell, mat))
    groups_t = {}
    for (ell, b, c), mat in T.blocks.items():
        groups_t.setdefault(b, {}).setdefault(c, []).append((ell, mat))
    acc = {}
    lost = []
    strides = np.array([n_box**k for k in range(nu - 1, -1, -1)])
    for (a, b), left in sorted(groups_r.items()):
        right_by_c = groups_t.get(b)
        if not right_by_c:
            continue
        ell1 = np.array([e for e, _ in left])
        m1 = np.stack([m for _, m in left])
        for c, right in sorted(right_by_c.items()):
            ell2 = np.array([e for e, _ in right])
            m2 = np.stack([m for _, m in right])
            na, nc = m1.shape[1], m2.shape[2]
            key = (a, c)
            if key not in acc:
                acc[key] = np.zeros((n_box**nu, na, nc), dtype=complex)
            dest = acc[key]
            chunk = max(1, 2**24 // max(1, len(right) * na * nc * 16))
            for lo in range(0, len(left), chunk):
                hi = min(lo + chunk, len(left))
                # (i,a,j,c) via one BLAS GEMM, then bring j next to i
                prods = np.tensordot(m1[lo:hi], m2, axes=(2, 1))
                prods = np.ascontiguousarray(prods.transpose(0, 2, 1, 3))
                ells = ell1[lo:hi, None, :] + ell2[None, :, :]
                inbox = np.all(np.abs(ells) <= L, axis=-1)
                if not np.all(inbox):
                    bad = prods[~inbox]
                    lost.append(float(np.sum(np.abs(bad) ** 2)))
                idx = (ells[inbox] + L) @ strides
                np.add.at(dest, idx, prods[inbox])
    out = BlockOperator(R.lattice, R.nu, R.ell_max)
    offsets = np.arange(n_box)
    for (a, c), dest in sorted(acc.items()):
        nonzero = np.nonzero(np.any(dest != 0, axis=(1, 2)))[0]
        for flat in nonzero.tolist():
            ell = []
            rem = flat
            for k in range(nu):
                q, rem = divmod(rem, n_box ** (nu - 1 - k))
                ell.append(int(q) - L)
            out.set_block(tuple(ell), a, c, dest[flat])
    out.meta["truncation_loss"] = math.sqrt(math.fsum(lost)) if lost else 0.0
    return out


def smoothing_projector(R, N):
    """(Pi_N R, Pi_N^perp R): keep max{|ell|, alpha, beta} <= N; the pair sums to R."""
    if N < 1:
        raise ParameterError("N must be >= 1")
    low = BlockOperator(R.lattice, R.nu, R.ell_max)
    high = BlockOperator(R.lattice, R.nu, R.ell_max)
    for (ell, a, b), mat in R.blocks.items():
        size = max(_key_norm(ell), R.lattice.alpha(a), R.lattice.alpha(b))
        target = low if size <= N else high
        target.set_block(ell, a, b, mat.copy())
    return low, high


def diagonal_part(R):
    """Keep only the ell = 0, alpha = beta blocks."""
    out = BlockOperator(R.lattice, R.nu, R.ell_max)
    z = (0,) * R.nu
    for (ell, a, b), mat in R.blocks.items():
        if ell == z and a == b:
            out.set_block(ell, a, b, mat.copy())
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
        return cls(
            BlockOperator(lattice, nu, ell_max), BlockOperator(lattice, nu, ell_max)
        )

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
        a = compose(self.r1, other.r1) + compose(self.r2, other.r2.conj())
        b = compose(self.r1, other.r2) + compose(self.r2, other.r1.conj())
        out = PairedBlockOperator(a, b)
        out.meta["truncation_loss"] = max(
            a.meta.get("truncation_loss", 0.0), b.meta.get("truncation_loss", 0.0)
        )
        return out

    def transpose(self):
        return PairedBlockOperator(self.r1.transpose(), self.r2.conj().transpose())

    def omega_dphi(self, omega):
        return PairedBlockOperator(
            self.r1.omega_dphi(omega), self.r2.omega_dphi(omega)
        )

    def decay_norm(self, s):
        return self.r1.decay_norm(s) + self.r2.decay_norm(s)

    def hamiltonian_residual(self, s=0.0):
        """Decay-norm residuals of the Hamiltonian predicate.

        The field i (H1 H2; -conj H2 -conj H1) with H1 self-adjoint and
        H2 symmetric corresponds to r1* = -r1 and r2^T = r2.
        """
        res1 = (self.r1.adjoint() + self.r1).decay_norm(s)
        res2 = (self.r2.transpose() - self.r2).decay_norm(s)
        return res1 + res2

    def is_hamiltonian(self, tol=1e-10):
        scale = max(self.decay_norm(0.0), 1.0)
        return self.hamiltonian_residual(0.0) <= tol * scale

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

    def to_dense(self, ell_box=None):
        """Flatten the full 2x2 arrangement (test oracle)."""
        m11, ells, pts = self.r1.to_dense(ell_box)
        m12, _, _ = self.r2.to_dense(ell_box)
        m21, _, _ = self.r2.conj().to_dense(ell_box)
        m22, _, _ = self.r1.conj().to_dense(ell_box)
        top = np.hstack([m11, m12])
        bot = np.hstack([m21, m22])
        return np.vstack([top, bot]), ells, pts


def _matrices_at(op, phis):
    """op(phi) for each row of phis as (m, n, n) over the flat index."""
    lat = op.lattice
    n = lat.n_points
    out = np.zeros((len(phis), n, n), dtype=complex)
    groups = {}
    for (ell, a, b), mat in op.blocks.items():
        groups.setdefault((a, b), []).append((ell, mat))
    for (a, b), items in groups.items():
        ells = np.array([e for e, _ in items], dtype=float)
        stack = np.stack([m for _, m in items])
        out[:, lat.slices[a], lat.slices[b]] = np.tensordot(
            np.exp(1j * (phis @ ells.T)), stack, axes=1
        )
    return out


def operator_exponential(psi, tol=1e-15, max_terms=60, warn_threshold=1.0, s_check=None):
    """exp(Psi) for a paired operator via the plain scaled power series.

    The a-priori tail bound from decay-norm submultiplicativity stops the
    series; exceeding ``max_terms`` raises DivergenceError.  A norm above
    ``warn_threshold`` at the checking index only flags ``meta['size_warning']``
    (a smallness hypothesis, not a hard precondition).
    """
    nrm = psi.decay_norm(0.0 if s_check is None else s_check)
    warn = bool(nrm > warn_threshold)
    out = PairedBlockOperator.identity(psi.lattice, psi.r1.nu, psi.r1.ell_max)
    term = PairedBlockOperator.identity(psi.lattice, psi.r1.nu, psi.r1.ell_max)
    bound = 1.0
    for k in range(1, max_terms + 1):
        term = term.compose(psi)
        term = PairedBlockOperator(term.r1 * (1.0 / k), term.r2 * (1.0 / k))
        out = out + term
        bound = bound * nrm / k
        actual = term.decay_norm(0.0)
        if max(bound, actual) < tol or actual == 0.0:
            out.r1.drop_zero_blocks()
            out.r2.drop_zero_blocks()
            out.meta["size_warning"] = warn
            return out
    raise DivergenceError(
        f"exponential series not below {tol:.1e} after {max_terms} terms "
        f"(|Psi| = {nrm:.3e})"
    )


class FiniteRankOperator:
    """R(phi)[v] = sum_k b_k <c_k, v> + c_k <b_k, v>, pairings in x.

    Symmetric by construction; b_k, c_k are zero-average in x by the
    SpaceTimeFunction contract.
    """

    def __init__(self, pairs):
        self.pairs = list(pairs)
        for b, c in self.pairs:
            if not isinstance(b, SpaceTimeFunction) or not isinstance(
                c, SpaceTimeFunction
            ):
                raise ContractViolation("rank pairs must be space-time functions")

    @property
    def rank_count(self):
        return len(self.pairs)

    def apply(self, v):
        out = None
        for b, c in self.pairs:
            t = b.copy()
            ip_c, _ = _angle_pair(c, v)
            term1, _ = t.mul_angle(ip_c)
            ip_b, _ = _angle_pair(b, v)
            term2, _ = c.copy().mul_angle(ip_b)
            term = term1 + term2
            out = term if out is None else out + term
        if out is None:
            raise ContractViolation("empty finite-rank operator")
        return out


def _angle_pair(g, h):
    return g.pairing(h), 0.0


def rank_one_blocks(q, g, lattice):
    """Blocks of R(phi)[h] = q <g, h>:  Rhat_j^{j'}(ell) = sum q_j(ell-ell') g_{-j'}(ell')."""
    out = BlockOperator(lattice, q.nu, q.ell_max)
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
                mat = np.zeros((ca.n_alpha, cb.n_alpha), dtype=complex)
                mat[r, col] = val
                out.add_to_block(ell, a_sq, b_sq, mat)
    out.drop_zero_blocks()
    return out


def finite_rank_to_blocks(K, lattice, check_reality_tol=1e-12):
    """Convert a FiniteRankOperator to its BlockOperator representation."""
    for b, c in K.pairs:
        for f, name in ((b, "b"), (c, "c")):
            # zero-average is structural for SpaceTimeFunction; re-validate cheaply
            if any(all(x == 0 for x in j) for j in f.space_modes()):
                raise ContractViolation(f"{name}_k has a j = 0 mode")
    out = None
    for b, c in K.pairs:
        term = rank_one_blocks(b, c, lattice) + rank_one_blocks(c, b, lattice)
        out = term if out is None else out + term
    return out


def sobolev_action_bound_check(R, s, s0):
    """Compare the dense operator norm on H^s with the decay-norm bound.

    For phi-independent operators the chain
    ||R||_{B(H^s)} <= ||R||_{B(L^2, H^s)} <= C_trunc |R|_{s+2s0}
    holds with the truncation constant C_trunc = sum_{alpha} alpha^{-2 s0}
    (both cluster sums in the proof are equal on the truncation).
    """
    z = (0,) * R.nu
    if any(ell != z for (ell, _, _) in R.blocks):
        raise ParameterError("dense action bound check expects a phi-independent operator")
    M, _, pts = R.to_dense(ell_box=0)
    weights = np.array([math.sqrt(sum(x * x for x in p)) for p in pts])
    Ws = np.diag(weights**s)
    op_l2_hs = float(np.linalg.norm(Ws @ M, 2))
    op_hs = float(np.linalg.norm(Ws @ M @ np.diag(weights ** (-float(s))), 2))
    decay = R.decay_norm(s + 2 * s0)
    c_trunc = math.fsum(
        c.alpha ** (-2.0 * s0) for c in R.lattice.clusters
    )
    return {
        "operator_norm_hs": op_hs,
        "operator_norm_l2_to_hs": op_l2_hs,
        "decay_norm": decay,
        "bound_constant": c_trunc,
        "bound_value": c_trunc * decay,
        "satisfied": op_l2_hs <= c_trunc * decay * (1 + 1e-12),
    }
