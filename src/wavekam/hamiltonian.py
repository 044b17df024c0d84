"""Real and complex Hamiltonian structure: J, the complexification, predicates.

Real vector fields act on (v, psi) as a 2x2 matrix of block operators; the
Hamiltonian ones are J G with G symmetric.  In complex coordinates every
Hamiltonian field is a paired operator whose top row (r1, r2) satisfies
r1* = -r1 and r2^T = r2 (equivalently, the field is i(H1 H2; -conj H2
-conj H1) with H1 self-adjoint, H2 symmetric).
"""

import math

import numpy as np

from .blockop import BlockOperator, PairedBlockOperator, compose, operator_exponential
from .errors import ContractViolation

__all__ = [
    "BlockMatrix2",
    "ExpMap",
    "push_forward",
    "symplectic_check",
]

_SQRT2 = math.sqrt(2.0)


class BlockMatrix2:
    """General 2x2 arrangement of block operators (no conjugate-row constraint)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        eye = BlockOperator.identity(lattice, nu, ell_max)
        zero = BlockOperator(lattice, nu, ell_max)
        return cls(eye, zero.copy(), zero.copy(), eye.copy())

    @classmethod
    def J(cls, lattice, nu, ell_max):
        eye = BlockOperator.identity(lattice, nu, ell_max)
        zero = BlockOperator(lattice, nu, ell_max)
        return cls(zero.copy(), eye, eye * (-1.0), zero.copy())

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other):
        return BlockMatrix2(*(x + y for x, y in zip(self.entries(), other.entries())))

    def __sub__(self, other):
        return BlockMatrix2(*(x - y for x, y in zip(self.entries(), other.entries())))

    def __mul__(self, scalar):
        return BlockMatrix2(*(x * scalar for x in self.entries()))

    __rmul__ = __mul__

    def compose(self, o):
        return BlockMatrix2(
            compose(self.a, o.a) + compose(self.b, o.c),
            compose(self.a, o.b) + compose(self.b, o.d),
            compose(self.c, o.a) + compose(self.d, o.c),
            compose(self.c, o.b) + compose(self.d, o.d),
        )

    def transpose(self):
        return BlockMatrix2(
            self.a.transpose(), self.c.transpose(),
            self.b.transpose(), self.d.transpose(),
        )

    def omega_dphi(self, omega):
        return BlockMatrix2(*(e.omega_dphi(omega) for e in self.entries()))

    def hs_total(self):
        return math.sqrt(math.fsum(e.hs_total() ** 2 for e in self.entries()))

    def per_mode_frobenius(self):
        """dict ell -> Frobenius norm of the full coefficient matrix at that mode."""
        acc = {}
        for e in self.entries():
            for (ell, _, _), mat in e.items():
                acc[ell] = acc.get(ell, 0.0) + float(np.sum(np.abs(mat) ** 2))
        return {ell: math.sqrt(v) for ell, v in acc.items()}

    def decay_norm(self, s):
        return math.fsum(e.decay_norm(s) for e in self.entries())


def _as_matrix2(x):
    if isinstance(x, BlockMatrix2):
        return x
    if isinstance(x, PairedBlockOperator):
        return BlockMatrix2(x.r1, x.r2, x.r2.conj(), x.r1.conj())
    raise ContractViolation(f"cannot view {type(x).__name__} as a 2x2 block matrix")


class ExpMap:
    """Invertible map Phi with its inverse: ``from_generator`` sums exp(Psi)
    and exp(-Psi); ``then`` takes Phi^-1 = Phi^sigma (``PairedBlockOperator.
    sigma``), exact when every factor is symplectic, as exp(Psi) is for
    Hamiltonian Psi."""

    def __init__(self, forward, inverse):
        self.forward = forward
        self.inverse = inverse

    @classmethod
    def from_generator(cls, psi):
        return cls(operator_exponential(psi), operator_exponential(psi * (-1.0)))

    @classmethod
    def identity(cls, lattice, nu, ell_max):
        eye = PairedBlockOperator.identity(lattice, nu, ell_max)
        return cls(eye, eye.copy())

    def then(self, other):
        """The iteration's chain Phi_0 o Phi_1 o ...: forward = self.forward
        o other.forward (other acts first), inverse = forward^sigma."""
        forward = self.forward.compose(other.forward)
        return ExpMap(forward, forward.sigma())


def push_forward(x, phi, omega):
    """Transformed field Phi^{-1}(X Phi - omega . dphi Phi) for an ExpMap
    ``phi`` (its exact inverse).  Works for paired operators, paired
    multipliers and general 2x2 block matrices.
    """
    fwd, inv = phi.forward, phi.inverse
    if isinstance(fwd, PairedBlockOperator) and not isinstance(
        x, PairedBlockOperator
    ):
        fwd, inv = _as_matrix2(fwd), _as_matrix2(inv)
    if isinstance(x, PairedBlockOperator) and not isinstance(fwd, PairedBlockOperator):
        x = _as_matrix2(x)
    lot = x.compose(fwd) - fwd.omega_dphi(omega)
    return inv.compose(lot)


def symplectic_check(phi):
    """Max over stored phi-modes of the Frobenius norm of Phi^T J Phi - J."""
    m = _as_matrix2(phi)
    lattice = m.a.lattice
    j = BlockMatrix2.J(lattice, m.a.nu, m.a.ell_max)
    residual = m.transpose().compose(j.compose(m)) - j
    per_mode = residual.per_mode_frobenius()
    return max(per_mode.values(), default=0.0)
