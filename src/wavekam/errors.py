"""Typed errors raised by the numerical engine.

Every refusal to divide by a small divisor, invert a near-singular map or
continue a stalled iteration is reported through one of these classes with
enough payload to reproduce the failing inequality.
"""


class WavekamError(Exception):
    """Base class for all engine errors."""


class ParameterError(WavekamError):
    """A precondition on input parameters is violated (root domain, CFL, ...)."""


class LatticeMismatchError(WavekamError):
    """Two operators built over different spectral lattices were combined."""


class ContractViolation(WavekamError):
    """Structural contract broken (e.g. non-zero-average rank data)."""


class DiophantineViolation(WavekamError):
    """A small divisor |omega . ell| fell below the configured floor.

    Carries the offending mode and the measured divisor.
    """

    def __init__(self, ell, divisor, floor):
        self.ell = tuple(int(x) for x in ell)
        self.divisor = float(divisor)
        self.floor = float(floor)
        super().__init__(
            f"small divisor |omega.ell| = {self.divisor:.3e} < floor "
            f"{self.floor:.3e} at ell = {self.ell}"
        )


class ResonanceError(WavekamError):
    """A Sylvester denominator vanished or a Melnikov bound failed.

    The certificate pins down (ell, alpha^2, beta^2, kind) and the offending
    eigenvalue combination.
    """

    def __init__(self, ell, alpha_sq, beta_sq, kind, value, threshold=None):
        self.ell = tuple(int(x) for x in ell)
        self.alpha_sq = int(alpha_sq)
        self.beta_sq = int(beta_sq)
        self.kind = kind
        self.value = float(value)
        self.threshold = None if threshold is None else float(threshold)
        msg = (
            f"resonance ({kind}) at ell={self.ell}, alpha^2={self.alpha_sq}, "
            f"beta^2={self.beta_sq}: |denominator| = {self.value:.3e}"
        )
        if threshold is not None:
            msg += f" (threshold {self.threshold:.3e})"
        super().__init__(msg)

    def certificate(self):
        return {
            "kind": self.kind,
            "ell": list(self.ell),
            "alpha_sq": self.alpha_sq,
            "beta_sq": self.beta_sq,
            "value": self.value,
            "threshold": self.threshold,
        }


class ResourceLimitError(WavekamError):
    """A Melnikov scan would enumerate more ell than its cap allows.

    Raised with (N_k, nu, ell count, cap); plain args pickle across workers.
    """

    def __str__(self):
        return ("Melnikov scan at N_k = {}, nu = {} would enumerate {} ell, "
                "above the cap {}".format(*self.args))

    def certificate(self):
        return dict(zip(("N_k", "nu", "n_ell", "cap"), self.args), kind="ell-cap")


class FixedPointError(WavekamError):
    """Fixed-point inversion of the torus diffeomorphism did not converge."""


class DivergenceError(WavekamError):
    """A truncated operator series failed to meet its tail tolerance."""


class InversionError(WavekamError):
    """A map could not be inverted on the truncation."""


class NonConvergenceError(WavekamError):
    """The KAM residual stalled (ratio > 0.9 across 3 consecutive steps)."""
