"""The package's one truncated-series loop (README "Conventions", Series)."""

from .errors import DivergenceError


def truncated_series(first, step, tol, max_terms, norm=lambda t: t.decay_norm(0.0),
                     rate=None, bound=1.0, k0=0, total=None,
                     error=DivergenceError, name="series"):
    """``total`` (default ``first``) + t_{k0+1} + t_{k0+2} + ..., left to right.

    t_{k0} = ``first`` and t_k = step(t_{k-1}, k); terms need only ``+`` and
    ``norm`` (default: the decay norm at s = 0).  The a-priori bound on |t_k|
    is bound_k = bound_{k-1} rate(k) from bound_{k0} = ``bound`` (zero
    without ``rate``).  The sum stops after the first t_k with
    max(bound_k, norm(t_k)) < tol or norm(t_k) == 0; none up to k =
    ``max_terms`` raises ``error``.
    """
    total = first if total is None else total
    term = first
    for k in range(k0 + 1, max_terms + 1):
        term = step(term, k)
        total = total + term
        bound = bound * rate(k) if rate else 0.0
        actual = norm(term)
        if actual == 0.0 or max(bound, actual) < tol:
            return total
    raise error(f"{name} not below {tol:.1e} after {max_terms} terms")
