"""Spectrum clusters of sqrt(-Laplacian) on the torus and truncated Fourier data.

The zero-average spectrum on T^d consists of the values alpha = |j| over the
nonzero lattice j in Z^d.  Clusters are keyed by the exact integer alpha^2:
floating alpha would merge or split clusters through rounding, and cluster
identity is load-bearing for every block structure downstream.

Torus functions are trigonometric polynomials truncated to |ell|_inf <= ell_max
(angles) and |j| <= j_max (space, Euclidean).  All integrals use the
normalized measure dphi/(2pi)^nu, dx/(2pi)^d, so pairings are plain
coefficient sums.
"""

import functools
import itertools
import math

import numpy as np

from .errors import DiophantineViolation, ParameterError

__all__ = [
    "ClusterIndex",
    "SpectralLattice",
    "enumerate_clusters",
    "AngleFunction",
    "SpaceTimeFunction",
    "sobolev_norm",
    "omega_dphi_inverse",
    "diophantine_check",
    "default_s0",
    "ell_box",
    "ell_table",
]


def default_s0(nu, d):
    """s0 = [(nu+d)/2] + 1, the low regularity index entering constants."""
    return (nu + d) // 2 + 1


def ell_box(nu, ell_max):
    """A new (n^nu, nu) int array of the box |ell|_inf <= ell_max, n = 2 ell_max + 1,
    in lexicographic order: row p is flat position p, ell = 0 is row
    (n^nu - 1) // 2 and -ell is row n^nu - 1 - p."""
    n = 2 * ell_max + 1
    return np.indices((n,) * nu).reshape(nu, -1).T - ell_max


@functools.cache
def ell_table(nu, ell_max):
    """(``ell_box(nu, ell_max)``, |ell| per row), read-only and cached per
    (nu, ell_max): the operator box that flat positions index into."""
    ells = ell_box(nu, ell_max)
    norms = np.sqrt(np.sum(ells * ells, axis=1).astype(float))
    ells.flags.writeable = norms.flags.writeable = False
    return ells, norms


class ClusterIndex:
    """One eigenvalue cluster: all lattice points j with |j|^2 = alpha_sq.

    Points are sorted lexicographically so every run enumerates identically.
    """

    __slots__ = ("alpha_sq", "points", "n_alpha", "index_of", "neg_perm")

    def __init__(self, alpha_sq, points):
        self.alpha_sq = int(alpha_sq)
        self.points = sorted(tuple(int(x) for x in p) for p in points)
        self.n_alpha = len(self.points)
        self.index_of = {p: i for i, p in enumerate(self.points)}
        # permutation realizing j -> -j inside the cluster
        self.neg_perm = np.array(
            [self.index_of[tuple(-x for x in p)] for p in self.points], dtype=int
        )

    @property
    def alpha(self):
        return math.sqrt(self.alpha_sq)


class SpectralLattice:
    """Clusters of the zero-average spectrum up to radius j_max.

    The flat point order is the clusters' points in cluster order
    (``points``, the ``all_points()`` order); cluster alpha^2 occupies
    ``slices[alpha_sq]`` of it, and ``neg_perm`` is the permutation
    P with points[P[i]] = -points[i].
    """

    def __init__(self, d, j_max, clusters):
        self.d = int(d)
        self.j_max = int(j_max)
        self.clusters = clusters
        self.alpha_sqs = [c.alpha_sq for c in clusters]
        self.by_alpha_sq = {c.alpha_sq: c for c in clusters}
        self.cluster_of_point = {}
        self.slices = {}
        self.points = []
        for c in clusters:
            self.slices[c.alpha_sq] = slice(len(self.points),
                                            len(self.points) + c.n_alpha)
            self.points += c.points
            for p in c.points:
                self.cluster_of_point[p] = c.alpha_sq
        self.index = {p: i for i, p in enumerate(self.points)}
        self.neg_perm = np.array(
            [self.index[tuple(-x for x in p)] for p in self.points], dtype=int
        )

    def cluster(self, alpha_sq):
        return self.by_alpha_sq[alpha_sq]

    def alpha(self, alpha_sq):
        return math.sqrt(alpha_sq)

    @property
    def n_points(self):
        return len(self.points)

    def all_points(self):
        return iter(self.points)

    def cluster_gap_constant(self):
        """Brute-force C with |alpha - beta| >= C (alpha^-1 + beta^-1) on the truncation."""
        best = math.inf
        for ca, cb in itertools.combinations(self.clusters, 2):
            a, b = ca.alpha, cb.alpha
            best = min(best, abs(a - b) / (1.0 / a + 1.0 / b))
        return best

    def to_json(self):
        return [
            {"alpha_sq": c.alpha_sq, "points": [list(p) for p in c.points]}
            for c in self.clusters
        ]

    def __eq__(self, other):
        return (
            isinstance(other, SpectralLattice)
            and self.d == other.d
            and self.j_max == other.j_max
        )


def enumerate_clusters(d, j_max):
    """Partition {j in Z^d \\ 0 : |j| <= j_max} into clusters of constant |j|^2."""
    if d < 1 or j_max < 1:
        raise ParameterError(f"need d >= 1 and j_max >= 1, got d={d}, j_max={j_max}")
    groups = {}
    rng = range(-j_max, j_max + 1)
    for j in itertools.product(rng, repeat=d):
        n2 = sum(x * x for x in j)
        if 0 < n2 <= j_max * j_max:
            groups.setdefault(n2, []).append(j)
    clusters = [ClusterIndex(a2, pts) for a2, pts in sorted(groups.items())]
    return SpectralLattice(d, j_max, clusters)


# ---------------------------------------------------------------------------
# truncated Fourier series on T^nu
# ---------------------------------------------------------------------------


class AngleFunction:
    """Truncated Fourier series on T^nu, coefficients on the box |ell|_inf <= ell_max.

    Stored as a dense complex array of shape (2*ell_max+1,)*nu with index
    offset ell_max, which keeps convolutions and FFT sampling vectorized.
    """

    __slots__ = ("nu", "ell_max", "coeffs")

    def __init__(self, nu, ell_max, coeffs=None):
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        shape = (2 * self.ell_max + 1,) * self.nu
        if coeffs is None:
            self.coeffs = np.zeros(shape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != shape:
                raise ParameterError(f"coefficient shape {coeffs.shape} != {shape}")
            self.coeffs = coeffs

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nu, ell_max):
        return cls(nu, ell_max)

    @classmethod
    def constant(cls, nu, ell_max, value):
        f = cls(nu, ell_max)
        f[(0,) * nu] = value
        return f

    @classmethod
    def cosine(cls, nu, ell_max, ell, amplitude=1.0):
        """amplitude * cos(ell . phi)."""
        f = cls(nu, ell_max)
        ell = tuple(int(x) for x in ell)
        f[ell] = f[ell] + amplitude / 2.0
        nell = tuple(-x for x in ell)
        f[nell] = f[nell] + amplitude / 2.0
        return f

    # -- indexing -----------------------------------------------------------
    def _key(self, ell):
        key = tuple(int(x) + self.ell_max for x in ell)
        if min(key, default=0) < 0:  # numpy would wrap it to the far side
            raise IndexError(
                f"ell = {tuple(ell)} outside |ell|_inf <= {self.ell_max}")
        return key

    def __getitem__(self, ell):
        return self.coeffs[self._key(ell)]

    def __setitem__(self, ell, value):
        self.coeffs[self._key(ell)] = value

    def modes(self):
        """Yield (ell, coefficient) over nonzero modes in box order."""
        flat = self.coeffs.ravel()
        nz = np.flatnonzero(flat)
        for ell, c in zip(ell_table(self.nu, self.ell_max)[0][nz].tolist(), flat[nz]):
            yield tuple(ell), c

    # -- algebra ------------------------------------------------------------
    def copy(self):
        return AngleFunction(self.nu, self.ell_max, self.coeffs.copy())

    def __add__(self, other):
        self._check(other)
        return AngleFunction(self.nu, self.ell_max, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AngleFunction(self.nu, self.ell_max, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return AngleFunction(self.nu, self.ell_max, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if self.nu != other.nu or self.ell_max != other.ell_max:
            raise ParameterError("angle function truncation mismatch")

    def product(self, other):
        """Pointwise product, re-truncated to the box; the second value is the
        discarded mass, the l2 norm of the coefficients outside the box."""
        from .blockop import _product_rows  # blockop imports this module

        self._check(other)
        prod, lost = _product_rows(self.coeffs.reshape(1, -1), other.coeffs.reshape(1, -1),
                                   self.nu, self.ell_max)
        return AngleFunction(self.nu, self.ell_max, prod.reshape(self.coeffs.shape)), lost[0]

    def mean(self):
        return complex(self[(0,) * self.nu])

    def conj(self):
        """Pointwise complex conjugate in phi: hat(ell) -> conj(hat(-ell))."""
        flipped = _conj_rows(self.coeffs.reshape(1, -1))
        return AngleFunction(self.nu, self.ell_max, flipped.reshape(self.coeffs.shape))

    def is_real(self, tol=1e-13):
        return bool(_real_rows(self.coeffs.reshape(1, -1), tol)[0])

    def distance(self, other):
        return float(np.max(np.abs(self.coeffs - other.coeffs)))

    def linf_bound(self):
        return float(np.sum(np.abs(self.coeffs)))

    def omega_dphi(self, omega):
        """omega . d/dphi, exact on coefficients."""
        phase = _omega_phase(omega, self.nu, self.ell_max)
        return AngleFunction(self.nu, self.ell_max,
                             self.coeffs * phase.reshape(self.coeffs.shape))

    def sobolev_norm(self, s):
        return _sobolev_norm_rows(self.coeffs.reshape(1, -1), self.nu, self.ell_max, s)[0]

    # -- evaluation ---------------------------------------------------------
    def sample(self, grid_n):
        """Values on the uniform grid (2pi k / grid_n), shape (grid_n,)*nu."""
        return _sample_rows(self.coeffs.reshape(1, -1), self.nu, self.ell_max,
                            grid_n)[0]

    @classmethod
    def from_samples(cls, values, ell_max):
        """Project grid values back to the box; returns (function, alias mass)."""
        values = np.asarray(values, dtype=complex)
        coeffs, alias = _project_rows(values[None], ell_max)
        shape = (2 * ell_max + 1,) * values.ndim
        return cls(values.ndim, ell_max, coeffs.reshape(shape)), alias[0]

    def eval_at(self, points):
        """Evaluate at arbitrary angles; points shape (n, nu)."""
        flat = self.coeffs.ravel()
        nz = np.flatnonzero(flat)
        return _at_angles(np.atleast_2d(np.asarray(points, dtype=float)),
                          ell_table(self.nu, self.ell_max)[0][nz], flat[nz])


def _at_angles(points, ells, coef):
    """sum over rows l of coef[l] e^(i points . ells[l]) at each point, coef
    (len(ells),) or (len(ells), m).  The phases are one real product per
    chunk of points, each chunk's exp table within ``blockop._CHUNK_BYTES``."""
    from .blockop import _CHUNK_BYTES  # blockop imports this module

    step = max(1, _CHUNK_BYTES // (16 * max(len(ells), 1)))
    out = np.empty((len(points),) + coef.shape[1:], dtype=complex)
    for i in range(0, len(points), step):
        out[i:i + step] = np.exp(1j * (points[i:i + step] @ ells.T)) @ coef
    return out


# Row helpers: each acts on a (k, (2 ell_max + 1)^nu) stack of coefficient
# rows in ``ell_box`` order, the storage of an AngleFunction (k = 1) and of a
# multiplier's symbol table (a row per cluster).


def _conj_rows(coeffs):
    """Pointwise complex conjugate of each row: hat(ell) -> conj(hat(-ell))."""
    return np.conj(coeffs[:, ::-1])


def _real_rows(coeffs, tol):
    """Per row: real up to tol times max(1, sum of |coefficients|)."""
    dist = np.abs(coeffs - _conj_rows(coeffs)).max(axis=1)
    return dist <= tol * np.maximum(1.0, np.abs(coeffs).sum(axis=1))


def _omega_phase(omega, nu, ell_max):
    """i omega . ell per box row: the symbol of omega . d/dphi."""
    return 1j * (np.asarray(omega, dtype=float) @ ell_table(nu, ell_max)[0].T)


def _sobolev_norm_rows(coeffs, nu, ell_max, s):
    """Truncated H^s norm of each row, weights max(1, |ell|)^(2s), each sum
    exactly rounded."""
    w = np.maximum(1.0, ell_table(nu, ell_max)[1]) ** (2.0 * s)
    return [math.sqrt(math.fsum(t)) for t in (w * np.abs(coeffs) ** 2).tolist()]


def _sample_rows(coeffs, nu, ell_max, grid_n):
    """Values of each row of a (k, (2 ell_max + 1)^nu) coefficient stack on the
    uniform grid (2pi m / grid_n), shape (k,) + (grid_n,)*nu."""
    if grid_n < 2 * ell_max + 1:
        raise ParameterError("sampling grid too small for exact evaluation")
    spec = np.zeros((len(coeffs),) + (grid_n,) * nu, dtype=complex)
    at = ell_table(nu, ell_max)[0] % grid_n
    spec[(slice(None),) + tuple(at.T)] += coeffs  # += keeps 0 + c's signed zeros
    return np.fft.ifftn(spec, axes=tuple(range(1, nu + 1))) * grid_n**nu


def _project_rows(values, ell_max):
    """Project (k,) + (grid_n,)*nu grid values back to the box.

    Returns the (k, (2 ell_max + 1)^nu) coefficient stack and, per row, the
    alias mass: the l2 norm of the grid frequencies outside the box.
    """
    k, nu, grid_n = len(values), values.ndim - 1, values.shape[1]
    spec = (np.fft.fftn(values, axes=tuple(range(1, nu + 1))) / grid_n**nu).reshape(k, -1)
    # box rows hit by a grid frequency x <= grid_n // 2 or x - grid_n
    ells = ell_table(nu, ell_max)[0]
    at = ells % grid_n
    hit = np.flatnonzero(
        (np.where(at <= grid_n // 2, at, at - grid_n) == ells).all(axis=1))
    at = np.ravel_multi_index(tuple(at[hit].T), (grid_n,) * nu)
    c = spec[:, at]
    coeffs = np.zeros((k, len(ells)), dtype=complex)
    coeffs[:, hit] = np.where(c != 0, c, 0)
    outside = np.ones(spec.shape[1], dtype=bool)
    outside[at] = False
    lost = (np.abs(spec[:, outside]) ** 2).tolist()
    return coeffs, [math.sqrt(math.fsum(row)) for row in lost]


# ---------------------------------------------------------------------------
# space-time functions on T^(nu+d)
# ---------------------------------------------------------------------------


class SpaceTimeFunction:
    """Truncated Fourier series u(phi, x) with zero average in x.

    Coefficients are stored per space mode j (a tuple) as a dense angle array,
    which suits the finite-rank data of the problem: a handful of j modes,
    full angle boxes.
    """

    __slots__ = ("nu", "ell_max", "d", "comps")

    def __init__(self, nu, ell_max, d, comps=None):
        self.nu = int(nu)
        self.ell_max = int(ell_max)
        self.d = int(d)
        self.comps = {}
        if comps:
            for j, f in comps.items():
                self._store(j, f)

    def _store(self, j, f):
        j = tuple(int(x) for x in j)
        if all(x == 0 for x in j):
            raise ParameterError("space mode j = 0 violates the zero-average contract")
        if len(j) != self.d:
            raise ParameterError(f"space mode {j} has wrong dimension")
        self.comps[j] = f

    @classmethod
    def from_modes(cls, nu, ell_max, d, modes):
        """modes: dict (ell-tuple, j-tuple) -> complex."""
        u = cls(nu, ell_max, d)
        for (ell, j), v in modes.items():
            u.set_coeff(ell, j, v)
        return u

    def set_coeff(self, ell, j, value):
        j = tuple(int(x) for x in j)
        f = self.comps.get(j) or AngleFunction(self.nu, self.ell_max)
        f[ell] = value
        self._store(j, f)

    def coeff(self, ell, j):
        j = tuple(int(x) for x in j)
        if j not in self.comps:
            return 0j
        return complex(self.comps[j][ell])

    def space_modes(self):
        return sorted(self.comps.keys())

    def angle_part(self, j):
        j = tuple(int(x) for x in j)
        return self.comps.get(j, AngleFunction(self.nu, self.ell_max))

    def copy(self):
        return SpaceTimeFunction(
            self.nu, self.ell_max, self.d, {j: f.copy() for j, f in self.comps.items()}
        )

    def __add__(self, other):
        out = self.copy()
        for j, f in other.comps.items():
            if j in out.comps:
                out.comps[j] = out.comps[j] + f
            else:
                out.comps[j] = f.copy()
        return out

    def __mul__(self, scalar):
        return SpaceTimeFunction(
            self.nu, self.ell_max, self.d,
            {j: f * scalar for j, f in self.comps.items()},
        )

    __rmul__ = __mul__

    def mul_angle(self, g):
        """Multiply by an x-independent function g(phi); reports truncation loss."""
        out = SpaceTimeFunction(self.nu, self.ell_max, self.d)
        lost = 0.0
        for j, f in self.comps.items():
            prod, l = f.product(g)
            out.comps[j] = prod
            lost += l * l
        return out, math.sqrt(lost)

    def apply_D_power(self, p):
        """|D|^p: scale mode j by |j|^p (j never 0 here)."""
        out = SpaceTimeFunction(self.nu, self.ell_max, self.d)
        for j, f in self.comps.items():
            out.comps[j] = f * (math.sqrt(sum(x * x for x in j)) ** p)
        return out

    def conj(self):
        """Complex conjugate of the function: hat(-ell,-j) conjugated."""
        out = SpaceTimeFunction(self.nu, self.ell_max, self.d)
        for j, f in self.comps.items():
            out.comps[tuple(-x for x in j)] = f.conj()
        return out

    def is_real(self, tol=1e-13):
        c = self.conj()
        scale = max(self.linf_bound(), 1.0)
        keys = set(self.comps) | set(c.comps)
        return all(
            self.angle_part(j).distance(c.angle_part(j)) <= tol * scale for j in keys
        )

    def linf_bound(self):
        return sum(f.linf_bound() for f in self.comps.values())

    def x_coeffs_at_phi(self, phi):
        """dict j -> u_j(phi)."""
        phi = np.asarray(phi, dtype=float).reshape(1, -1)
        return {j: complex(f.eval_at(phi)[0]) for j, f in self.comps.items()}

    def sobolev_norm(self, s):
        terms = []
        for j, f in self.comps.items():
            nj = math.sqrt(sum(x * x for x in j))  # >= 1: the <ell> floor is moot
            w = np.maximum(ell_table(self.nu, self.ell_max)[1], nj) ** (2.0 * s)
            terms.extend((w * np.abs(f.coeffs.ravel()) ** 2).tolist())
        return math.sqrt(math.fsum(terms))

    def to_rows(self):
        rows = []
        for j in self.space_modes():
            for ell, c in self.comps[j].modes():
                rows.append((list(ell), list(j), float(c.real), float(c.imag)))
        return rows


def sobolev_norm(u, s):
    """Truncated Sobolev norm of an AngleFunction or SpaceTimeFunction."""
    if s < 0:
        raise ParameterError("s must be >= 0")
    return u.sobolev_norm(s)


# ---------------------------------------------------------------------------
# small divisors
# ---------------------------------------------------------------------------


def omega_dphi_inverse(h, omega, gamma=None, tau=None, floor=None):
    """(omega . d/dphi)^{-1} on a mean-free AngleFunction.

    The ell = 0 mode is annihilated by convention; the input must be mean
    free.  Division is refused (DiophantineViolation) whenever the divisor
    falls below the floor, by default gamma/|ell|^tau; silent regularization
    would corrupt every convergence diagnostic built on top of this.
    """
    if abs(h.mean()) > 1e-14 * max(1.0, h.linf_bound()):
        raise ParameterError("omega_dphi_inverse requires a mean-free input")
    omega = np.asarray(omega, dtype=float)
    out = AngleFunction(h.nu, h.ell_max)
    for ell, c in h.modes():
        if not any(ell):
            continue
        div = float(np.dot(omega, ell))
        if floor is not None:
            this_floor = floor
        elif gamma is not None and tau is not None:
            this_floor = gamma / np.linalg.norm(ell) ** tau
        else:
            this_floor = 0.0
        if abs(div) <= this_floor or div == 0.0:
            raise DiophantineViolation(ell, abs(div), this_floor)
        out[ell] = c / (1j * div)
    return out


def _omega_ell(ells, omega):
    """omega . ell per row of ells as np.dot rounds it: one (1, nu) @ (nu,)
    product per row (a matvec rounds differently)."""
    return (np.asarray(ells, dtype=float)[:, None, :] @ np.asarray(omega, dtype=float))[:, 0]


def diophantine_check(omega, gamma, tau, ell_max):
    """Check |omega . ell| >= gamma/|ell|^tau for 0 < |ell|_inf <= ell_max.

    Returns (ok, worst margin) with margin = min over ell of
    |omega.ell| |ell|^tau / gamma.
    """
    if ell_max < 1:
        raise ParameterError("ell_max must be >= 1")
    omega = np.asarray(omega, dtype=float)
    ells, norms = ell_table(omega.size, ell_max)
    nonzero = ells.any(axis=1)
    # bit for bit as the per-ell oracle; object pow is libm's scalar pow
    div = np.abs(_omega_ell(ells[nonzero], omega))
    margin = div * (norms[nonzero].astype(object) ** tau).astype(float) / gamma
    worst = np.min(margin)
    return worst >= 1.0, worst
