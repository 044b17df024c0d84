"""phi-dependent Fourier multipliers r(phi, alpha) over spectrum clusters.

Symbols are stored per cluster, never per lattice point: the problem's
symbols depend on |j| only, so the per-cluster table is exact and small.
The order m is metadata used by the norm family and the bookkeeping checks;
truncation makes any asymptotic reading of it meaningless.
"""

import numpy as np

from .blockop import BlockOperator, PairedBlockOperator
from .errors import ParameterError
from .series import truncated_series
from .spectrum import AngleFunction, SpaceTimeFunction

__all__ = [
    "FourierMultiplier",
    "PairedMultiplier",
    "multiplier_norm",
    "multiplier_compose",
    "multiplier_exponential",
    "multiplier_to_blocks",
]


class FourierMultiplier:
    """Symbol table: one truncated angle series per cluster, plus an order tag."""

    __slots__ = ("lattice", "nu", "ell_max", "order", "parts")

    def __init__(self, lattice, nu, ell_max, order=0.0, parts=None):
        self.lattice = lattice
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.order = float(order)
        if parts is None:
            self.parts = [
                AngleFunction(self.nu, self.ell_max) for _ in lattice.clusters
            ]
        else:
            if len(parts) != len(lattice.clusters):
                raise ParameterError("one angle series per cluster required")
            self.parts = list(parts)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, lattice, nu, ell_max, order=0.0):
        return cls(lattice, nu, ell_max, order)

    @classmethod
    def from_alpha_symbol(cls, lattice, nu, ell_max, fn, order=0.0):
        """phi-independent symbol alpha -> fn(alpha)."""
        out = cls(lattice, nu, ell_max, order)
        for i, c in enumerate(lattice.clusters):
            out.parts[i] = AngleFunction.constant(nu, ell_max, fn(c.alpha))
        return out

    @classmethod
    def from_angle_function(cls, lattice, g, order=0.0):
        """alpha-independent symbol r(phi, alpha) = g(phi)."""
        out = cls(lattice, g.nu, g.ell_max, order)
        out.parts = [g.copy() for _ in lattice.clusters]
        return out

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls.from_alpha_symbol(lattice, nu, ell_max, lambda a: 1.0, order=0.0)

    def coeff(self, ell, alpha_sq):
        i = self.lattice.alpha_sqs.index(int(alpha_sq))
        return complex(self.parts[i][ell])

    def copy(self, order=None):
        return FourierMultiplier(
            self.lattice,
            self.nu,
            self.ell_max,
            self.order if order is None else order,
            [p.copy() for p in self.parts],
        )

    def _check(self, other):
        if self.lattice != other.lattice or self.ell_max != other.ell_max:
            raise ParameterError("multiplier truncation mismatch")

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        return FourierMultiplier(
            self.lattice,
            self.nu,
            self.ell_max,
            max(self.order, other.order),
            [a + b for a, b in zip(self.parts, other.parts)],
        )

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p * scalar for p in self.parts],
        )

    __rmul__ = __mul__

    def conj(self):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p.conj() for p in self.parts],
        )

    def is_real_symbol(self, tol=1e-13):
        return all(p.is_real(tol) for p in self.parts)

    def omega_dphi(self, omega):
        return FourierMultiplier(
            self.lattice, self.nu, self.ell_max, self.order,
            [p.omega_dphi(omega) for p in self.parts],
        )

    def mean_per_cluster(self):
        return np.array([p.mean() for p in self.parts])

    def map_pointwise(self, fn, grid_n, order):
        """Apply a scalar function to the symbol on a grid_n^nu phi-grid and
        re-project to a multiplier of the given order.

        Returns (multiplier, alias mass).
        """
        out = FourierMultiplier(self.lattice, self.nu, self.ell_max, order)
        alias = 0.0
        for i, p in enumerate(self.parts):
            vals = fn(p.sample(grid_n))
            g, a = AngleFunction.from_samples(vals, self.ell_max)
            out.parts[i] = g
            alias = max(alias, a)
        return out, alias

    # -- norms -----------------------------------------------------------------
    def norm(self, m=None, s=0.0):
        m = self.order if m is None else m
        best = 0.0
        for c, p in zip(self.lattice.clusters, self.parts):
            best = max(best, p.sobolev_norm(s) * c.alpha ** (-m))
        return best

    # -- action ----------------------------------------------------------------
    def apply(self, u):
        """Op(r) u: per cluster of each space mode, ell-convolution."""
        out = SpaceTimeFunction(u.nu, u.ell_max, u.d)
        for j in u.space_modes():
            a_sq = self.lattice.cluster_of_point.get(j)
            if a_sq is None:
                continue
            i = self.lattice.alpha_sqs.index(a_sq)
            prod, _ = u.angle_part(j).product(self.parts[i])
            out.comps[j] = prod
        return out

    def to_blocks(self):
        blocks = {}
        for c, p in zip(self.lattice.clusters, self.parts):
            eye = np.eye(c.n_alpha, dtype=complex)
            for ell, v in p.modes():
                blocks[(ell, c.alpha_sq, c.alpha_sq)] = v * eye
        return BlockOperator(self.lattice, self.nu, self.ell_max, blocks)

    def to_rows(self):
        rows = []
        for c, p in zip(self.lattice.clusters, self.parts):
            for ell, v in p.modes():
                rows.append(
                    (list(ell), c.alpha_sq, float(v.real), float(v.imag), self.order)
                )
        return rows


def multiplier_norm(r, m, s):
    """|||Op(r)|||_{m,s} = sup_alpha ||r(., alpha)||_s alpha^{-m}."""
    return r.norm(m=m, s=s)


def multiplier_compose(r, b):
    """Op(r) Op(b) = Op(rb), orders add, symbols ell-convolve per cluster."""
    r._check(b)
    parts = []
    for pr, pb in zip(r.parts, b.parts):
        prod, _ = pr.product(pb)
        parts.append(prod)
    return FourierMultiplier(
        r.lattice, r.nu, r.ell_max, r.order + b.order, parts
    )


def multiplier_to_blocks(r):
    return r.to_blocks()


class PairedMultiplier:
    """Top row (r1, r2) of the multiplier arrangement (Op r1, Op r2; conj row)."""

    __slots__ = ("r1", "r2", "meta")

    def __init__(self, r1, r2):
        r1._check(r2)
        self.r1 = r1
        self.r2 = r2
        self.meta = {}

    @classmethod
    def zero(cls, lattice, nu, ell_max, order=0.0):
        return cls(
            FourierMultiplier.zero(lattice, nu, ell_max, order),
            FourierMultiplier.zero(lattice, nu, ell_max, order),
        )

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        return cls(
            FourierMultiplier.identity(lattice, nu, ell_max),
            FourierMultiplier.zero(lattice, nu, ell_max),
        )

    @classmethod
    def diagonal(cls, r):
        return cls(r, FourierMultiplier.zero(r.lattice, r.nu, r.ell_max, r.order))

    @property
    def lattice(self):
        return self.r1.lattice

    def copy(self):
        return PairedMultiplier(self.r1.copy(), self.r2.copy())

    def __add__(self, other):
        return PairedMultiplier(self.r1 + other.r1, self.r2 + other.r2)

    def __sub__(self, other):
        return PairedMultiplier(self.r1 - other.r1, self.r2 - other.r2)

    def __mul__(self, scalar):
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise ParameterError("non-real scaling breaks the conjugate row")
        return PairedMultiplier(self.r1 * scalar, self.r2 * scalar)

    __rmul__ = __mul__

    def compose(self, other):
        a = multiplier_compose(self.r1, other.r1) + multiplier_compose(
            self.r2, other.r2.conj()
        )
        b = multiplier_compose(self.r1, other.r2) + multiplier_compose(
            self.r2, other.r1.conj()
        )
        return PairedMultiplier(a, b)

    def transpose(self):
        return PairedMultiplier(self.r1.copy(), self.r2.conj())

    def omega_dphi(self, omega):
        return PairedMultiplier(self.r1.omega_dphi(omega), self.r2.omega_dphi(omega))

    def norm(self, m, s):
        return self.r1.norm(m=m, s=s) + self.r2.norm(m=m, s=s)

    def is_hamiltonian(self, tol=1e-12):
        """r1* = -r1 (symbols: conj r1 = -r1) and r2 symmetric (automatic)."""
        res = (self.r1.conj() + self.r1).norm(m=0.0, s=0.0)
        scale = max(self.r1.norm(m=0.0, s=0.0), 1.0)
        return res <= tol * scale

    def to_paired_blocks(self):
        return PairedBlockOperator(self.r1.to_blocks(), self.r2.to_blocks())


def multiplier_exponential(psi, tol=1e-16, max_terms=60, s0=None):
    """exp(Psi) for a paired multiplier, with the order >= 2 tail.

    Returns (Phi, Phi_ge2) with Phi_ge2 = sum_{k>=2} Psi^k / k! of order 2m.
    The smallness hypothesis |||Psi|||_{-m, s0} <= 1 is a warning flag, not
    an error; divergence past ``max_terms`` raises DivergenceError.
    """
    m = psi.r1.order
    nrm = psi.norm(m, 0.0 if s0 is None else s0)
    ge2 = truncated_series(
        psi, lambda t, k: t.compose(psi) * (1.0 / k), tol, max_terms,
        norm=lambda t: t.norm(0.0, 0.0), rate=lambda k: nrm / k, bound=nrm, k0=1,
        total=PairedMultiplier.zero(psi.lattice, psi.r1.nu, psi.r1.ell_max),
        name=f"multiplier exponential series (|Psi| = {nrm:.3e})")
    phi = PairedMultiplier.identity(psi.lattice, psi.r1.nu, psi.r1.ell_max) + psi + ge2
    phi.meta["size_warning"] = bool(nrm > 1.0)
    ge2.r1.order = ge2.r2.order = 2 * m
    return phi, ge2
