"""phi-dependent Fourier multipliers r(phi, alpha) over spectrum clusters.

Symbols are stored per cluster, never per lattice point: the problem's
symbols depend on |j| only, so the per-cluster table is exact and small.
It is one complex (n_clusters, (2L+1)^nu) array, a row per cluster in
lattice order and a column per ell in ``spectrum.ell_box`` order, so every
operation is a few array operations over all clusters at once.  The order m
is metadata used by the norm family and the bookkeeping checks; truncation
makes any asymptotic reading of it meaningless.
"""

import numpy as np

from .blockop import BlockOperator, Paired, PairedBlockOperator, _product_rows
from .errors import ParameterError
from .series import truncated_series
from .spectrum import (AngleFunction, _conj_rows, _omega_phase,
                       _project_rows, _real_rows, _sample_rows, _sobolev_norm_rows,
                       ell_table)

__all__ = [
    "FourierMultiplier",
    "PairedMultiplier",
    "multiplier_norm",
    "multiplier_compose",
    "multiplier_exponential",
]


class FourierMultiplier:
    """Symbol table: one row of angle coefficients per cluster, plus an order tag."""

    __slots__ = ("lattice", "nu", "ell_max", "order", "coeffs")

    def __init__(self, lattice, nu, ell_max, order=0.0, coeffs=None):
        self.lattice = lattice
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.order = float(order)
        shape = (len(lattice.clusters), (2 * self.ell_max + 1) ** self.nu)
        coeffs = np.zeros(shape, complex) if coeffs is None else np.asarray(coeffs, complex)
        if coeffs.shape[:1] != shape[:1] or coeffs.size != shape[0] * shape[1]:
            raise ParameterError("one angle series per cluster required")
        self.coeffs = coeffs.reshape(shape)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, lattice, nu, ell_max, order=0.0):
        return cls(lattice, nu, ell_max, order)

    @classmethod
    def from_alpha_symbol(cls, lattice, nu, ell_max, fn, order=0.0):
        """phi-independent symbol alpha -> fn(alpha)."""
        out = cls(lattice, nu, ell_max, order)
        out.coeffs[:, out._center] = [fn(c.alpha) for c in lattice.clusters]
        return out

    @classmethod
    def from_angle_function(cls, lattice, g, order=0.0):
        """alpha-independent symbol r(phi, alpha) = g(phi)."""
        rows = np.broadcast_to(g.coeffs.ravel(), (len(lattice.clusters), g.coeffs.size))
        return cls(lattice, g.nu, g.ell_max, order, rows.copy())

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls.from_alpha_symbol(lattice, nu, ell_max, lambda a: 1.0, order=0.0)

    @property
    def _center(self):
        """Column of ell = 0."""
        return (self.coeffs.shape[1] - 1) // 2

    def _stack(self):
        """``coeffs`` as a (n_clusters, n, ..., n) stack of angle arrays."""
        return self.coeffs.reshape((-1,) + (2 * self.ell_max + 1,) * self.nu)

    def row(self, i):
        """Cluster i's symbol as an AngleFunction viewing row i."""
        return AngleFunction(self.nu, self.ell_max, self._stack()[i])

    def plus_mean(self, values):
        """The symbol plus values[i] at ell = 0 of cluster i."""
        out = self.copy()
        out.coeffs[:, self._center] += values
        return out

    def copy(self):
        return self._like(self.coeffs.copy())

    def _like(self, coeffs, order=None):
        return FourierMultiplier(self.lattice, self.nu, self.ell_max,
                                 self.order if order is None else order, coeffs)

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.ell_max != other.ell_max:
            raise ParameterError("multiplier truncation mismatch")

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        self._check_compat(other)
        return self._like(self.coeffs + other.coeffs, max(self.order, other.order))

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def scaled(self, weights, order=None):
        """Row i times weights[i]: the symbol times a function of alpha."""
        return self._like(self.coeffs * np.asarray(weights, dtype=complex)[:, None], order)

    def conj(self):
        """Pointwise complex conjugate in phi: hat(ell) -> conj(hat(-ell))."""
        return self._like(_conj_rows(self.coeffs))

    # a symbol of |j| is its own transpose under j -> -j
    adjoint = conj

    def transpose(self):
        return self

    def is_real_symbol(self, tol=1e-13):
        return bool(np.all(_real_rows(self.coeffs, tol)))

    def omega_dphi(self, omega):
        """omega . d/dphi, exact on coefficients."""
        return self._like(self.coeffs * _omega_phase(omega, self.nu, self.ell_max))

    def mean_per_cluster(self):
        return self.coeffs[:, self._center].copy()

    def map_pointwise(self, fn, grid_n, order):
        """Apply a scalar function to the symbol on a grid_n^nu phi-grid and
        re-project to a multiplier of the given order.

        Returns (multiplier, largest alias mass of a cluster).
        """
        vals = _sample_rows(self.coeffs, self.nu, self.ell_max, grid_n)
        coeffs, alias = _project_rows(fn(vals), self.ell_max)
        return self._like(coeffs, order), max(alias, default=0.0)

    # -- norms -----------------------------------------------------------------
    def norm(self, m=None, s=0.0):
        m = self.order if m is None else m
        rows = _sobolev_norm_rows(self.coeffs, self.nu, self.ell_max, s)
        return max((n * c.alpha ** (-m) for n, c in zip(rows, self.lattice.clusters)),
                   default=0.0)

    # -- action ----------------------------------------------------------------
    def apply(self, u):
        """Op(r) u: per cluster of each space mode, ell-convolution."""
        if u.nu != self.nu or u.ell_max != self.ell_max:
            raise ParameterError("angle function truncation mismatch")
        lat = self.lattice
        keep = [i for i, j in enumerate(u.modes) if j in lat.cluster_of_point]
        rows = [lat.alpha_sqs.index(lat.cluster_of_point[u.modes[i]]) for i in keep]
        prods, _ = _product_rows(u.coeffs[keep], self.coeffs[rows], self.nu, self.ell_max)
        return u._like([u.modes[i] for i in keep], prods)

    def to_blocks(self):
        out = BlockOperator(self.lattice, self.nu, self.ell_max)
        for c, row in zip(self.lattice.clusters, self.coeffs):
            idx = np.flatnonzero(row)
            if len(idx):
                out.stacks[(c.alpha_sq, c.alpha_sq)] = (
                    idx, row[idx][:, None, None] * np.eye(c.n_alpha, dtype=complex))
        return out

    def to_rows(self):
        """(ell, alpha^2, re, im, order) of every nonzero coefficient."""
        i, p = np.nonzero(self.coeffs)
        v = self.coeffs[i, p]
        return list(zip(ell_table(self.nu, self.ell_max)[0][p].tolist(),
                        np.array(self.lattice.alpha_sqs)[i].tolist(),
                        v.real.tolist(), v.imag.tolist(), [self.order] * len(v)))


def multiplier_norm(r, m, s):
    """|||Op(r)|||_{m,s} = sup_alpha ||r(., alpha)||_s alpha^{-m}."""
    return r.norm(m=m, s=s)


def multiplier_compose(r, b):
    """Op(r) Op(b) = Op(rb), orders add, symbols ell-convolve per cluster.

    All clusters go through one ``blockop._product_rows`` call, where a zero
    row costs nothing; each row comes out bit for bit as
    ``AngleFunction.product`` of the two rows.
    """
    r._check_compat(b)
    return r._like(_product_rows(r.coeffs, b.coeffs, r.nu, r.ell_max)[0],
                   r.order + b.order)


class PairedMultiplier(Paired):
    """Top row (r1, r2) of the multiplier arrangement (Op r1, Op r2; conj row)."""

    __slots__ = ()
    _part = FourierMultiplier

    @classmethod
    def diagonal(cls, r):
        return cls(r, FourierMultiplier.zero(r.lattice, r.nu, r.ell_max, r.order))

    def compose(self, other):
        """Paired product.  A product with an identically zero factor is not
        formed: it is zeros of the summed order, as multiplier_compose gives."""

        def mul(x, y):
            if x.coeffs.any() and y.coeffs.any():
                return multiplier_compose(x, y)
            x._check_compat(y)
            return x._like(np.zeros_like(x.coeffs), x.order + y.order)

        a = mul(self.r1, other.r1) + mul(self.r2, other.r2.conj())
        b = mul(self.r1, other.r2) + mul(self.r2, other.r1.conj())
        return PairedMultiplier(a, b)

    def transpose(self):
        return PairedMultiplier(self.r1.copy(), self.r2.conj())

    def norm(self, m, s):
        return self.r1.norm(m=m, s=s) + self.r2.norm(m=m, s=s)

    def is_hamiltonian(self, tol=1e-12):
        """M^sigma = -M, read on r1: conj r1 = -r1 (every symbol is symmetric)."""
        res = (self.sigma() + self).r1.norm(m=0.0, s=0.0)
        scale = max(self.r1.norm(m=0.0, s=0.0), 1.0)
        return res <= tol * scale

    def to_paired_blocks(self):
        return PairedBlockOperator(self.r1.to_blocks(), self.r2.to_blocks())


def multiplier_exponential(psi, tol=1e-16, max_terms=60, s0=None):
    """exp(Psi) for a paired multiplier, with the order >= 2 tail.

    Returns (Phi, Phi_ge2) with Phi_ge2 = sum_{k>=2} Psi^k / k! of order 2m.
    For Hamiltonian Psi, Phi is symplectic and ``Phi.sigma()`` is exp(-Psi).
    The smallness |||Psi|||_{-m, s0} <= 1 is not checked; divergence past
    ``max_terms`` raises DivergenceError.
    """
    m = psi.r1.order
    nrm = psi.norm(m, 0.0 if s0 is None else s0)
    lat, nu, L = psi.lattice, psi.r1.nu, psi.r1.ell_max
    ge2 = truncated_series(
        psi, lambda t, k: t.compose(psi) * (1.0 / k), tol, max_terms,
        norm=lambda t: t.norm(0.0, 0.0), rate=lambda k: nrm / k, bound=nrm, k0=1,
        total=PairedMultiplier.zero(lat, nu, L),
        name=f"multiplier exponential series (|Psi| = {nrm:.3e})")
    phi = PairedMultiplier.identity(lat, nu, L) + psi + ge2
    ge2.r1.order = ge2.r2.order = 2 * m
    return phi, ge2
