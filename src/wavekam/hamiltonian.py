"""Hamiltonian structure of paired operators: exponential maps, push-forward
and the symplecticity check.

In complex coordinates every Hamiltonian field is a paired operator whose top
row (r1, r2) satisfies r1* = -r1 and r2^T = r2 (equivalently, the field is
i(H1 H2; -conj H2 -conj H1) with H1 self-adjoint, H2 symmetric), that is
M^sigma = -M for the involution M^sigma = S M* S, S = diag(I, -I)
(``blockop.Paired.sigma``).  A paired map Phi is symplectic when
Phi^sigma Phi = I; in real coordinates this is Phi^T J Phi = J, since
Phi^T J Phi - J = -KS(Phi^sigma Phi - I) with K the row swap.
"""

import numpy as np

from .blockop import (
    PairedBlockOperator,
    _hs_sq,
    compose,  # unused here; perfbench's self-check wraps this binding
    operator_exponential,
)

__all__ = [
    "ExpMap",
    "push_forward",
    "symplectic_check",
]


class ExpMap:
    """Invertible map Phi with its inverse: ``from_generator`` sums exp(Psi)
    and exp(-Psi); ``then`` takes Phi^-1 = Phi^sigma (``blockop.Paired.
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
    ``phi`` (its exact inverse).  The field and the map come from one
    algebra: paired operators or paired multipliers.
    """
    lot = x.compose(phi.forward) - phi.forward.omega_dphi(omega)
    return phi.inverse.compose(lot)


def symplectic_check(phi):
    """Max over phi-modes ell of the Frobenius norm of Phi^sigma Phi - I at
    ell, for a paired map Phi.  The bottom row counts: mode ell sums the
    top-row blocks at ell and at -ell (flat positions p and (2L+1)^nu - 1 -
    p).  Equal to the real check |Phi^T J Phi - J|, since KS is a signed
    permutation."""
    r1 = phi.r1
    residual = phi.sigma().compose(phi) - PairedBlockOperator.identity(
        phi.lattice, r1.nu, r1.ell_max)
    per_mode = np.zeros((2 * r1.ell_max + 1) ** r1.nu)
    for op in (residual.r1, residual.r2):
        for idx, mats in op.stacks.values():
            per_mode[idx] += _hs_sq(mats)
    return float(np.sqrt((per_mode + per_mode[::-1]).max(initial=0.0)))
