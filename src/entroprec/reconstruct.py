"""Moment extraction and distribution recovery from moment-generating data.

The pipeline: evaluate chi(phi) = <exp(-phi sigma)> on a Chebyshev-node grid,
invert the Vandermonde system (or, equivalently, expand Newton divided
differences) for the scaled moment vector, then recover the discrete
distribution either by a truncated inverse Fourier transform or by a
Moore-Penrose pseudo-inverse against the known support.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import core
from .core import _first_fault, _groups, _one_or_many
from .protocol import (
    SUPPORT_MERGE_TOL,
    EntropyDistribution,
    _concatenated,
    _distributions_from_rows,
)

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
        if nodes.ndim != 1 or nodes.size == 0 or not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be a nonempty 1-D array of finite values")
        if not (math.isfinite(self.phi_min) and math.isfinite(self.phi_max)):
            raise ValueError("phi_min and phi_max must be finite")
        _require_float64_moments(nodes.size)
        if np.min(np.abs(np.subtract.outer(nodes, nodes) + np.eye(nodes.size))) == 0.0:
            raise ValueError("nodes must be distinct")
        if nodes.min() < self.phi_min - 1e-12 or nodes.max() > self.phi_max + 1e-12:
            raise ValueError("nodes must lie inside [phi_min, phi_max]")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def vandermonde(self) -> "_Elimination":
        """The extended-precision elimination of V[i, k] = phi_i^k, on first use."""
        return _factor_extended(np.vander(self.nodes.astype(core.EXTENDED), increasing=True))


def _validate_count(name: str, value) -> None:
    """Refuse a node or moment count that is not an integer of at least 1; a
    bool is not a count (numpy integers are)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _require_float64_moments(n: int) -> None:
    """Refuse with ``OverflowError`` an N whose moments, scaled by up to
    (N - 1)! = exp(lgamma(N)), overflow float64; lgamma reads N capped at 2**53."""
    if math.lgamma(min(n, 2**53)) > math.log(sys.float_info.max):
        raise OverflowError(f"the moments for N = {n} overflow float64")


def chebyshev_nodes(n: int, phi_min: float, phi_max: float) -> ParameterGrid:
    """Real zeros of the degree-n Chebyshev polynomial mapped to the interval.

    phi_k = (phi_min+phi_max)/2 + (phi_max-phi_min)/2 * cos((2k-1) pi / 2n),
    k = 1..n; the nodes descend with k. Equal arguments return one shared,
    read-only grid, so its Vandermonde elimination is done once. ``n`` must
    be an integer (the cache would take ``True`` for ``1``) below 172.
    """
    _validate_count("n", n)
    _require_float64_moments(n)
    if not (math.isfinite(phi_min) and math.isfinite(phi_max)):
        raise ValueError("phi_min and phi_max must be finite")
    if not phi_min < phi_max:
        raise ValueError("phi_min must be below phi_max")
    return _chebyshev_grid(n, phi_min, phi_max)


@lru_cache(maxsize=64)
def _chebyshev_grid(n: int, phi_min: float, phi_max: float) -> ParameterGrid:
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

    @property
    def nontrivial(self) -> np.ndarray:
        """<sigma^k> for k = 1..N-1."""
        return self.moments[1:]


def _unscaled(scaled: np.ndarray) -> np.ndarray:
    """The float64 moments m_k = (-1)^k k! m_tilde_k of scaled moments along
    the last axis; ``OverflowError`` names N when they leave float64's range."""
    n = scaled.shape[-1]
    try:
        factorials = np.array([(-1.0) ** k * math.factorial(k) for k in range(n)])
        with np.errstate(over="raise"):
            return (factorials * scaled).astype(float)
    except (OverflowError, FloatingPointError):
        raise OverflowError(f"the moments for N = {n} overflow float64") from None


class _Elimination(NamedTuple):
    """Partially pivoted Gaussian elimination of one square matrix in
    extended precision: the row swapped in at each column, the multipliers
    of each column, the upper factor and the float64 condition number."""

    pivots: tuple[int, ...]
    factors: tuple[np.ndarray, ...]
    upper: np.ndarray
    cond: float


def _factor_extended(matrix: np.ndarray) -> _Elimination:
    """Partially pivoted Gaussian elimination of ``matrix`` in
    :data:`core.EXTENDED` precision. The pivots and factors depend on the
    matrix only, so :func:`_solve_factored` replays them on any right-hand
    sides, each column as it would come out alone."""
    a = matrix.astype(core.EXTENDED, order="C")
    n = a.shape[0]
    pivots, factors = [], []
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise np.linalg.LinAlgError("singular interpolation matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
        factors.append(a[col + 1 :, col] / a[col, col])
        a[col + 1 :, col:] -= factors[-1][:, None] * a[col, col:]
        pivots.append(pivot)
    for array in (a, *factors):
        array.flags.writeable = False
    cond = float(np.linalg.cond(matrix.astype(float)))
    return _Elimination(tuple(pivots), tuple(factors), a, cond)


def _solve_factored(elim: _Elimination, rhs: np.ndarray) -> np.ndarray:
    """Replay an elimination on the columns of ``rhs`` (k right-hand sides as
    an (n, k) array), then back-substitute."""
    b = rhs.astype(core.EXTENDED, order="C")
    for col, (pivot, factors) in enumerate(zip(elim.pivots, elim.factors)):
        if pivot != col:
            b[[col, pivot]] = b[[pivot, col]]
        b[col + 1 :] -= factors[:, None] * b[col]
    a = elim.upper
    x = np.zeros_like(b)
    for row in range(a.shape[0] - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def moments_via_vandermonde(grid: ParameterGrid, chi):
    """Solve V(phi) m_tilde = chi for the scaled moments.

    ``chi`` holds one value per grid node, shape (n,), or one row per label,
    shape (labels, n); all rows share one elimination and one condition
    number, and the result is a :class:`MomentVector` or a tuple of them, one
    per row. The elimination is the grid's own (:attr:`ParameterGrid.vandermonde`),
    done once per grid and replayed on every call. The condition number of
    the Vandermonde matrix is attached; values above 1e14 set the
    ``ill_conditioned`` flag. Extended-precision ``chi`` input is honoured.
    """
    chi = np.asarray(chi, dtype=core.EXTENDED)
    if chi.ndim not in (1, 2) or chi.shape[-1] != grid.n:
        raise ValueError("need one chi value per grid node")
    elim = grid.vandermonde
    scaled = _solve_factored(elim, np.atleast_2d(chi).T).T  # one row per row of chi
    vectors = tuple(
        MomentVector(m, s, elim.cond, elim.cond > ILL_CONDITION_LIMIT)
        for m, s in zip(_unscaled(scaled), scaled.astype(float))
    )
    return vectors if chi.ndim == 2 else vectors[0]


def divided_differences(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Newton divided-difference coefficients eta_k = [chi(phi_1)..chi(phi_k)]."""
    coef = np.array(values, dtype=core.EXTENDED)
    x = np.asarray(nodes, dtype=core.EXTENDED)
    for j in range(1, len(x)):
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) / (x[j:] - x[: -j])
    return coef


def moments_via_newton(grid: ParameterGrid, chi) -> MomentVector:
    """Newton-polynomial route to the same scaled moments.

    The divided differences are expanded from the Newton basis
    n_k(phi) = prod_{j<k} (phi - phi_j) to monomial coefficients, which are
    exactly the scaled moments of the interpolation problem.
    """
    chi = np.asarray(chi, dtype=core.EXTENDED)
    if chi.shape != (grid.n,):
        raise ValueError("need one chi value per grid node")
    eta = divided_differences(grid.nodes, chi)
    nodes = grid.nodes.astype(chi.dtype)
    scaled = np.zeros(grid.n, dtype=chi.dtype)
    basis = np.ones(1, dtype=chi.dtype)  # ascending-degree coefficients of n_k
    for k in range(grid.n):
        scaled[: basis.size] += eta[k] * basis
        if k < grid.n - 1:
            basis = np.convolve(basis, np.array([-nodes[k], 1.0], dtype=chi.dtype))
    return MomentVector(_unscaled(scaled), scaled.astype(float))


def fourier_reconstruct(moments, support_grid, label: str = "sigma") -> EntropyDistribution:
    """Distribution recovery by truncated inverse Fourier transform.

    ``moments`` holds <sigma^k> for k = 0..N-1 (index 0 must be ~1). For each
    limit L in ``DEFAULT_LIMITS`` the truncated characteristic-function series
    sum_k <sigma^k> (i mu)^k / k! is integrated over mu in [-L, L] with step
    ``DEFAULT_DMU``, evaluated at the support points and renormalised; the
    limit whose recomputed moments best match the input is kept.

    The series is E(mu) + i O(mu) with E even and O odd, both real, so the
    integrand Re[series e^{-i s mu}] = E cos(s mu) + O sin(s mu) is even: each
    integral is twice a trapezoid over [0, L]. All limits share the half-line
    grid mu_i = i DEFAULT_DMU and one cos/sin table; each reads its own window.
    The table is cached per support and grid length (see :func:`_fourier_kernel`),
    once the support has passed the pinv recovery's check (see
    :func:`_validated_support`).
    """
    m = np.asarray(moments, dtype=float)
    if m.ndim != 1 or m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("moments must be a nonempty 1-D array of finite values")
    support = np.sort(_validated_support(support_grid))
    coeffs = np.array([m[k] * 1j**k / math.factorial(k) for k in range(m.size)])
    ends = np.rint(np.array(DEFAULT_LIMITS) / DEFAULT_DMU).astype(int)
    mu = np.arange(ends.max() + 1) * DEFAULT_DMU
    series = np.polyval(coeffs[::-1], mu)  # real part E, imaginary part O
    cos, sin = _fourier_kernel(support.tobytes(), mu.size)
    integrand = series.real * cos + series.imag * sin
    powers = np.array([support**k for k in range(1, m.size)]).reshape(-1, support.size)
    best_err = None
    best_probs = None
    for end in ends:
        density = _trapezoid(integrand[:, : end + 1], dx=DEFAULT_DMU, axis=1) / np.pi
        total = density.sum()
        if total <= 0:
            continue
        masses = density / total
        if masses.min() < -1e-3:
            continue
        probs = np.clip(masses, 0.0, None)
        probs /= probs.sum()
        recomputed = np.sum(probs * powers, axis=1)
        err = float(np.sum(np.abs(m[1:] - recomputed) ** 2))
        if best_err is None or err < best_err:
            best_err = err
            best_probs = probs
    if best_probs is None:
        raise ReconstructionError(
            "all candidate integration limits produced inadmissible mass"
        )
    return EntropyDistribution(support, best_probs, label)


FOURIER_KERNEL_CACHE_SIZE = 3  # one per reconstructed label


@lru_cache(maxsize=FOURIER_KERNEL_CACHE_SIZE)
def _fourier_kernel(support: bytes, size: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases s mu_i, one row per support value s (given
    as float64 bytes) and mu_i = i DEFAULT_DMU for i < size, read-only: an N
    sweep reuses each label's table."""
    phase = np.outer(np.frombuffer(support), np.arange(size) * DEFAULT_DMU)
    kernel = np.cos(phase), np.sin(phase)
    for table in kernel:
        table.flags.writeable = False
    return kernel


def pseudoinverse_reconstruct(moments, support, label: str = "sigma") -> EntropyDistribution:
    """Distribution recovery by least squares against the known support.

    ``moments`` holds <sigma^k> for k = 1..N. The power matrix (rows = powers,
    columns = support points) is inverted through its normal equations; a
    1e-12 Tikhonov diagonal is added when they are numerically singular
    (condition number above 1e12, or not finite). A support value at exactly
    zero has an all-zero column: its mass is fixed by normalisation alone.
    Masses in [-1e-8, 0) are clipped to zero and the result renormalised;
    masses further below zero are clipped too, with an
    :class:`InfeasibleRecoveryWarning`. The one-item case of
    :func:`pseudoinverse_stack`.
    """
    return pseudoinverse_stack([(moments, support, label)])[0]


def pseudoinverse_stack(items) -> list[EntropyDistribution]:
    """:func:`pseudoinverse_reconstruct` of each ``(moments, support, label)``
    item, in order, each with the bits (and the warning) of its lone call.

    The items are checked by :func:`_pinv_groups`: the first item that
    fails, in order, raises its lone call's ``ValueError`` before any work.
    An item numpy cannot read as float64 raises numpy's error, once the
    items before it have passed.
    Items of equal row count, support size and active support size (nonzero
    support values) form one group: its power matrices are one elementwise
    ``**``; its Gram products, right-hand sides ``powers.T @ b``, the
    singular values that decide the Tikhonov diagonal and its solves are
    each one stacked call; and its masses become probabilities in one pass,
    each row summed as its lone ``.sum()`` sums it. The distributions are
    checked and built in one pass (see
    :func:`protocol._distributions_from_rows`).
    """
    read = []
    for moments, support, label in items:
        try:
            b, s = np.asarray(moments, dtype=float), np.asarray(support, dtype=float)
        except (TypeError, ValueError):
            _pinv_groups(read)  # a fault of an earlier item comes first
            raise
        read.append((b, s, label))
    items = read
    probs: list = [None] * len(items)
    lowest: dict[int, float] = {}  # the least-squares masses' minimum of each item
    for group, b, s in _pinv_groups(items):
        active = np.abs(s) > 1e-12
        for sub in _groups(np.count_nonzero(active, axis=1).tolist(), int):
            masses = _pinv_masses(b[sub], s[sub], active[sub])
            if masses.size:
                lowest.update(zip((group[j] for j in sub), masses.min(axis=1).tolist()))
            for j, row in zip(sub, _pinv_probs(s[sub], active[sub], masses)):
                probs[group[j]] = row
    for i in sorted(lowest):
        if lowest[i] < -1e-8:
            warnings.warn(
                f"least-squares masses down to {lowest[i]:.3e}; projecting onto "
                "the simplex (too few moments for this support?)",
                InfeasibleRecoveryWarning,
                stacklevel=2,
            )
    support, row = _concatenated([s for _, s, _ in items])
    labels = [label for *_, label in items]
    n = len(items)
    return _distributions_from_rows(support, _concatenated(probs)[0], row, labels, [0] * n, [0.0] * n)


def _pinv_groups(items) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The ``(b, s, label)`` items grouped by the shapes of ``b`` and ``s``,
    as ``(indices, b stack, s stack)``, every group checked in one pass: the
    moments are a 1-D array of finite values, the support passes
    :func:`_support_checks`. The first item that fails, in order, raises its
    lone call's ``ValueError``."""
    groups, faults = [], []
    for group in _groups(items, lambda item: (item[0].shape, item[1].shape)):
        b = np.stack([items[i][0] for i in group])
        s = np.stack([items[i][1] for i in group])
        finite = (b.ndim == 2) & np.isfinite(b).all(axis=tuple(range(1, b.ndim)))
        moments = (~finite, lambda i: "moments must be a 1-D array of finite values")
        fault = _first_fault([moments, *_support_checks(s)])
        if fault:
            faults.append((group[fault[0]], fault[1]))
        groups.append((group, b, s))
    if faults:
        raise ValueError(min(faults)[1])
    return groups


def _pinv_masses(b: np.ndarray, s: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The least-squares masses of the nonzero support values, one row per
    item of a group: moments ``b`` (items, rows), supports ``s`` and their
    nonzero flags ``active`` (items, size), an equal count of nonzero values
    in every row. ``powers[k, j] = s_j^(k + 1)`` over those values."""
    k = np.count_nonzero(active[0])
    if not k:  # every support value is zero
        return np.zeros((len(s), 0))
    powers = s[active].reshape(len(s), 1, k) ** np.arange(1, b.shape[1] + 1)[:, None]
    gram = powers.swapaxes(1, 2) @ powers
    singular_values = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = singular_values[:, 0] / singular_values[:, -1]
    singular = ~np.isfinite(cond) | (cond > 1e12)
    gram = np.where(singular[:, None, None], gram + TIKHONOV_LAMBDA * np.eye(k), gram)
    return np.linalg.solve(gram, powers.swapaxes(1, 2) @ b[:, :, None])[:, :, 0]


def _pinv_probs(s: np.ndarray, active: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """The probabilities on each row of supports ``s`` from the least-squares
    masses of its nonzero values (``active``, an equal count in every row):
    the masses clipped at zero, the rest of unit mass shared by the zero
    values, then normalised, or uniform when no mass is left."""
    masses = np.clip(masses, 0.0, None)
    probs = np.zeros(s.shape)
    probs[active] = masses.ravel()
    zeros = s.shape[1] - masses.shape[1]
    if zeros:
        rest = np.maximum(0.0, 1.0 - masses.sum(axis=1)) / zeros
        probs[~active] = np.repeat(rest, zeros)
    total = probs.sum(axis=1)
    empty = total <= 1e-15
    probs /= np.where(empty, 1.0, total)[:, None]
    probs[empty] = 1.0 / s.shape[1]
    return probs


def _support_checks(s: np.ndarray) -> list:
    """The support checks of a stack of float64 supports along the leading
    axis, in order, as ``(flags per support, message)`` for
    :func:`_first_fault`: a nonempty 1-D array of finite values, no two
    within ``SUPPORT_MERGE_TOL``. Both recoveries check their support by
    them before any work (see :func:`_validated_support`)."""
    usable = (s.ndim == 2 and s.shape[1] > 0) & np.isfinite(s).all(axis=tuple(range(1, s.ndim)))
    coincident = np.zeros(len(s), dtype=bool)
    if s.ndim == 2:
        with np.errstate(invalid="ignore"):  # inf - inf, in rows refused above
            gaps = np.diff(np.sort(s, axis=1), axis=1)
        coincident = usable & (gaps <= SUPPORT_MERGE_TOL).any(axis=1)
    return [
        (~usable, lambda i: "support must be a nonempty 1-D array of finite values"),
        (coincident, lambda i: "support contains coincident values; merge them first"),
    ]


def _validated_support(support) -> np.ndarray:
    """``support`` as a float64 array; ``ValueError`` unless it passes
    :func:`_support_checks`."""
    s = np.asarray(support, dtype=float)
    fault = _first_fault(_support_checks(s[None]))
    if fault:
        raise ValueError(fault[1])
    return s


def rmse_moments(true_moments, recon_moments, n_max: int) -> float:
    """Root mean square error over the first ``n_max`` moments (k starts at
    1), by the row rule of :func:`_root_mean_squares`."""
    t = np.asarray(true_moments, dtype=float)
    r = np.asarray(recon_moments, dtype=float)
    if t.size < n_max or r.size < n_max:
        raise ValueError("need at least n_max moments on both sides")
    return _root_mean_squares([t[:n_max] - r[:n_max]])[0]


def rmse_probs(true_dist, recon_dist):
    """Root mean square deviation of the recovered probabilities from the
    true ones over their aligned supports. One pair of distributions or two
    lists or tuples of them, paired in order (see
    :func:`core._one_or_many`); each value has the bits of its lone call
    (see :func:`_root_mean_squares`)."""
    trues, many = _one_or_many(true_dist)
    recons, _ = _one_or_many(recon_dist)
    if len(trues) != len(recons):
        raise ValueError("true_dist and recon_dist must pair up one to one")
    same = [t.support.size == r.support.size for t, r in zip(trues, recons)]
    # the supports of every pair of equal sizes, compared in one pass
    true, row = _concatenated([t.support if s else () for t, s in zip(trues, same)])
    recon, _ = _concatenated([r.support if s else () for r, s in zip(recons, same)])
    apart = np.bincount(row[np.abs(true - recon) > SUPPORT_MERGE_TOL], None, len(same)) > 0
    for t, s, off in zip(trues, same, apart.tolist()):
        if s and not t.support.size:
            raise ValueError("no finite support to compare: both distributions are empty")
        if not s or off:
            raise ValueError("distribution supports do not align")
    out = _root_mean_squares([t.probs - r.probs for t, r in zip(trues, recons)])
    return out if many else out[0]


def _root_mean_squares(rows) -> list[float]:
    """sqrt(sum(|x|^2) / n) of each 1-D row x of n values, on the
    concatenated rows of all of them; each sum is a running sum over its row
    (see :func:`protocol._concatenated`)."""
    values, row = _concatenated(rows)
    sums = np.bincount(row, np.abs(values) ** 2, len(rows))
    return np.sqrt(sums / [len(r) for r in rows]).tolist()


@dataclass(frozen=True)
class ReconstructionResult:
    """One full reconstruction: grid, measured chi, extracted moments,
    recovered distribution, and error metrics against the true distribution
    (when known)."""

    grid: ParameterGrid
    chi: np.ndarray
    moments: MomentVector
    dist: EntropyDistribution
    rmse_moments: float | None = None
    rmse_probs: float | None = None
