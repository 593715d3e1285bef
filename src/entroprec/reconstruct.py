"""Moment extraction and distribution recovery from moment-generating data.

The pipeline: evaluate chi(phi) = <exp(-phi sigma)> on a Chebyshev-node grid,
invert the Vandermonde system (or, equivalently, expand Newton divided
differences) for the scaled moment vector, then recover the discrete
distribution either by a truncated inverse Fourier transform or by a
Moore-Penrose pseudo-inverse against the known support.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .protocol import EntropyDistribution

ILL_CONDITION_LIMIT = 1e14
TIKHONOV_LAMBDA = 1e-12
DEFAULT_DMU = 0.01
DEFAULT_LIMITS = (2.0, 4.0, 8.0, 16.0, 32.0)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class ReconstructionError(RuntimeError):
    """No candidate integration limit produced an admissible distribution."""


class InfeasibleRecoveryWarning(UserWarning):
    """The least-squares solution left the probability simplex by more than
    numerical noise (typically: fewer moments than support points)."""


@dataclass(frozen=True)
class ParameterGrid:
    """Evaluation points for the moment-generating function."""

    phi_min: float
    phi_max: float
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes must be a nonempty 1-D array")
        if np.min(np.abs(np.subtract.outer(nodes, nodes) + np.eye(nodes.size))) == 0.0:
            raise ValueError("nodes must be distinct")
        if nodes.min() < self.phi_min - 1e-12 or nodes.max() > self.phi_max + 1e-12:
            raise ValueError("nodes must lie inside [phi_min, phi_max]")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size


def chebyshev_nodes(n: int, phi_min: float, phi_max: float) -> ParameterGrid:
    """Real zeros of the degree-n Chebyshev polynomial mapped to the interval.

    phi_k = (phi_min+phi_max)/2 + (phi_max-phi_min)/2 * cos((2k-1) pi / 2n),
    k = 1..n; the nodes descend with k.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not phi_min < phi_max:
        raise ValueError("phi_min must be below phi_max")
    k = np.arange(1, n + 1)
    mid = 0.5 * (phi_min + phi_max)
    half = 0.5 * (phi_max - phi_min)
    return ParameterGrid(phi_min, phi_max, mid + half * np.cos((2 * k - 1) * np.pi / (2 * n)))


@dataclass(frozen=True)
class MomentVector:
    """Statistical moments <sigma^k>, k = 0..N-1, plus the scaled form
    m_tilde_k = (-1)^k <sigma^k> / k! that the interpolation solves for."""

    moments: np.ndarray
    scaled: np.ndarray
    condition_number: float | None = None
    ill_conditioned: bool = False

    def __post_init__(self):
        object.__setattr__(self, "moments", np.asarray(self.moments, dtype=float))
        object.__setattr__(self, "scaled", np.asarray(self.scaled, dtype=float))

    @property
    def n(self) -> int:
        return self.moments.size

    @property
    def nontrivial(self) -> np.ndarray:
        """<sigma^k> for k = 1..N-1."""
        return self.moments[1:]


def _scaling_transform(n: int) -> np.ndarray:
    # m_k = (-1)^k k! m_tilde_k
    return np.array([(-1.0) ** k * math.factorial(k) for k in range(n)])


def _solve_extended(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Partially pivoted Gaussian elimination in extended precision.

    The factorial rescaling from scaled to plain moments amplifies any solve
    error by k!, so the float64 noise floor of a LAPACK solve would dominate
    the high moments; 80-bit arithmetic buys roughly three extra digits.
    """
    a = matrix.astype(np.longdouble).copy()
    b = rhs.astype(np.longdouble).copy()
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise np.linalg.LinAlgError("singular interpolation matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(n, dtype=np.longdouble)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def moments_via_vandermonde(grid: ParameterGrid, chi) -> MomentVector:
    """Solve V(phi) m_tilde = chi for the scaled moments.

    The condition number of the Vandermonde matrix is attached to the result;
    values above 1e14 set the ``ill_conditioned`` flag. Extended-precision
    ``chi`` input is honoured (the factorial rescaling amplifies any rounding
    of the data).
    """
    chi = np.asarray(chi, dtype=np.longdouble)
    if chi.shape != (grid.n,):
        raise ValueError("need one chi value per grid node")
    v = np.vander(grid.nodes.astype(np.longdouble), increasing=True)
    cond = float(np.linalg.cond(v.astype(float)))
    scaled = _solve_extended(v, chi)
    moments = (_scaling_transform(grid.n) * scaled).astype(float)
    return MomentVector(moments, scaled.astype(float), cond, cond > ILL_CONDITION_LIMIT)


def divided_differences(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Newton divided-difference coefficients eta_k = [chi(phi_1)..chi(phi_k)]."""
    coef = np.asarray(values, dtype=np.longdouble).copy()
    x = np.asarray(nodes, dtype=np.longdouble)
    for j in range(1, len(x)):
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) / (x[j:] - x[: -j])
    return coef


def moments_via_newton(grid: ParameterGrid, chi) -> MomentVector:
    """Newton-polynomial route to the same scaled moments.

    The divided differences are expanded from the Newton basis
    n_k(phi) = prod_{j<k} (phi - phi_j) to monomial coefficients, which are
    exactly the scaled moments of the interpolation problem.
    """
    chi = np.asarray(chi, dtype=np.longdouble)
    if chi.shape != (grid.n,):
        raise ValueError("need one chi value per grid node")
    eta = divided_differences(grid.nodes, chi)
    nodes = grid.nodes.astype(np.longdouble)
    scaled = np.zeros(grid.n, dtype=np.longdouble)
    basis = np.array([1.0], dtype=np.longdouble)  # ascending-degree coefficients of n_k
    for k in range(grid.n):
        scaled[: basis.size] += eta[k] * basis
        if k < grid.n - 1:
            basis = np.convolve(basis, np.array([-nodes[k], 1.0], dtype=np.longdouble))
    moments = (_scaling_transform(grid.n) * scaled).astype(float)
    return MomentVector(moments, scaled.astype(float))


def fourier_reconstruct(
    moments,
    support_grid,
    dmu: float = DEFAULT_DMU,
    limit_candidates=DEFAULT_LIMITS,
    label: str = "sigma",
) -> EntropyDistribution:
    """Distribution recovery by truncated inverse Fourier transform.

    ``moments`` holds <sigma^k> for k = 0..N-1 (index 0 must be ~1). For each
    candidate integration limit L the truncated characteristic-function series
    sum_k <sigma^k> (i mu)^k / k! is integrated over mu in [-L, L] with step
    ``dmu``, evaluated at the candidate support points and renormalised; the
    limit whose recomputed moments best match the input is kept.

    The series is E(mu) + i O(mu) with E even and O odd, both real, so the
    integrand Re[series e^{-i s mu}] = E cos(s mu) + O sin(s mu) is even: each
    integral is twice a trapezoid over [0, L]. All limits share the half-line
    grid mu_i = i dmu and one cos/sin table; each reads its own window.
    """
    m = np.asarray(moments, dtype=float)
    if m.ndim != 1 or m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("moments must be a nonempty 1-D array of finite values")
    if not (math.isfinite(dmu) and dmu > 0):
        raise ValueError(f"dmu must be positive and finite, got {dmu!r}")
    limits = np.asarray(limit_candidates, dtype=float)
    if limits.ndim != 1 or limits.size == 0 or not np.all(np.isfinite(limits) & (limits > 0)):
        raise ValueError("limit_candidates must be a nonempty sequence of positive limits")
    support = np.sort(np.asarray(support_grid, dtype=float))
    coeffs = np.array([m[k] * 1j**k / math.factorial(k) for k in range(m.size)])
    ends = np.rint(limits / dmu).astype(int)
    mu = np.arange(ends.max() + 1) * dmu
    series = np.polyval(coeffs[::-1], mu)  # real part E, imaginary part O
    phase = np.outer(support, mu)
    integrand = series.real * np.cos(phase) + series.imag * np.sin(phase)
    best_err = None
    best_probs = None
    for end in ends:
        density = _trapezoid(integrand[:, : end + 1], dx=dmu, axis=1) / np.pi
        total = density.sum()
        if total <= 0:
            continue
        masses = density / total
        if masses.min() < -1e-3:
            continue
        probs = np.clip(masses, 0.0, None)
        probs /= probs.sum()
        recomputed = np.array([np.sum(probs * support**k) for k in range(1, m.size)])
        err = float(np.sum(np.abs(m[1:] - recomputed) ** 2))
        if best_err is None or err < best_err:
            best_err = err
            best_probs = probs
    if best_probs is None:
        raise ReconstructionError(
            "all candidate integration limits produced inadmissible mass"
        )
    return EntropyDistribution(support, best_probs, label)


def pseudoinverse_reconstruct(moments, support, label: str = "sigma") -> EntropyDistribution:
    """Distribution recovery by least squares against the known support.

    ``moments`` holds <sigma^k> for k = 1..N. The power matrix (rows = powers,
    columns = support points) is inverted through its normal equations; a
    1e-12 Tikhonov diagonal is added when they are numerically singular.
    Masses in [-1e-8, 0) are clipped to zero and the result renormalised.
    """
    b = np.asarray(moments, dtype=float)
    s = np.asarray(support, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("support must be a nonempty 1-D array")
    if s.size > 1:
        gaps = np.abs(np.subtract.outer(s, s))[~np.eye(s.size, dtype=bool)]
        if gaps.min() <= 1e-10:
            raise ValueError("support contains coincident values; merge them first")
    # A support value at exactly zero has an all-zero column: the moment rows
    # carry no information on its mass, which is fixed by normalisation alone.
    zero = np.abs(s) <= 1e-12
    active = ~zero
    powers = s[None, active] ** np.arange(1, b.size + 1)[:, None]
    gram = powers.T @ powers
    cond = np.linalg.cond(gram) if gram.size else 0.0
    if not np.isfinite(cond) or cond > 1e12:
        gram = gram + TIKHONOV_LAMBDA * np.eye(gram.shape[0])
    solved = np.linalg.solve(gram, powers.T @ b) if gram.size else np.zeros(0)
    if solved.size and solved.min() < -1e-8:
        warnings.warn(
            f"least-squares masses down to {solved.min():.3e}; projecting onto "
            "the simplex (too few moments for this support?)",
            InfeasibleRecoveryWarning,
            stacklevel=2,
        )
    solved = np.clip(solved, 0.0, None)
    probs = np.zeros(s.size)
    probs[active] = solved
    if np.any(zero):
        probs[zero] = max(0.0, 1.0 - solved.sum()) / zero.sum()
    total = probs.sum()
    if total <= 1e-15:
        probs = np.full(s.size, 1.0 / s.size)
    else:
        probs = probs / total
    return EntropyDistribution(s, probs, label)


def rmse_moments(true_moments, recon_moments, n_max: int) -> float:
    """Root mean square error over the first ``n_max`` moments (k starts at 1)."""
    t = np.asarray(true_moments, dtype=float)
    r = np.asarray(recon_moments, dtype=float)
    if t.size < n_max or r.size < n_max:
        raise ValueError("need at least n_max moments on both sides")
    return float(np.sqrt(np.sum(np.abs(t[:n_max] - r[:n_max]) ** 2) / n_max))


def rmse_probs(true_dist: EntropyDistribution, recon_dist: EntropyDistribution) -> float:
    """Root mean square reconstruction deviation over the aligned support."""
    if true_dist.support.size != recon_dist.support.size or np.max(
        np.abs(true_dist.support - recon_dist.support)
    ) > 1e-10:
        raise ValueError("distribution supports do not align")
    residuals = np.abs(true_dist.probs - recon_dist.probs)
    return float(np.sqrt(np.sum(residuals**2) / residuals.size))


@dataclass(frozen=True)
class ReconstructionResult:
    """One full reconstruction: grid, measured chi, extracted moments,
    recovered distribution, and error metrics against the true distribution
    (when known)."""

    grid: ParameterGrid
    chi: np.ndarray
    moments: MomentVector
    method: str
    dist: EntropyDistribution
    rmse_moments: float | None = None
    rmse_probs: float | None = None
