"""Numerical reducibility engine for quasi-periodically forced wave equations on T^d."""

__version__ = "0.1.0"

from .spectrum import (  # noqa: F401
    AngleFunction,
    ClusterIndex,
    SpaceTimeFunction,
    SpectralLattice,
    default_s0,
    diophantine_check,
    enumerate_clusters,
    omega_dphi_inverse,
    sobolev_norm,
)
