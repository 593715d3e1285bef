"""Dense complex linear algebra for finite-dimensional quantum states.

Tensor ordering convention: in every Kronecker product the first factor is
the most significant one, i.e. ``kron(A, B)`` indexes the composite basis as
``|i_A, i_B> -> i_A * dim_B + i_B``.  All modules share this convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
# Eigenvalues below this count as exact zeros (support / 0*log 0 conventions).
EIGENVALUE_CUTOFF = 1e-14
# Eigenvalues closer than this share one projector.
CLUSTER_TOL = 1e-10
# The extended-precision type, named nowhere else. Moment k is interpolation
# coefficient k times k!, so every rounding error of chi and of the Vandermonde
# or Newton solve reaches it multiplied by up to k!. Those paths read this name
# at call time, its complex type through extended_complex(). On x86-64 it is
# 80-bit, three digits more than float64; the README has the platform contract.
EXTENDED = np.longdouble


def extended_complex() -> np.dtype:
    """The complex type of :data:`EXTENDED`."""
    return np.result_type(EXTENDED, np.complex64)


class DegenerateSupportWarning(UserWarning):
    """Raised-as-warning when an operation meets a zero eigenvalue it cannot
    treat exactly (negative/imaginary powers, log of a rank-deficient state)."""


def _one_or_many(items) -> tuple[list, bool]:
    """The items as a list, and whether they are many: a list or tuple is
    many, anything else is one. Each theorem check, chi, ``ms_gate`` and
    ``time_reversed`` answer in kind."""
    if isinstance(items, (list, tuple)):
        return list(items), True
    return [items], False


def _groups(items, key) -> list[list[int]]:
    """Indices of ``items`` grouped by ``key(item)``, in first-seen order."""
    groups: dict[object, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return list(groups.values())


def _first_fault(checks) -> tuple[int, str] | None:
    """The first row that fails any of ``checks``, a list of ``(flags per
    row, message)`` in check order, and ``message(row)`` of the first check
    it fails; ``None`` when every row passes. A stacked check refuses the
    item that a loop of lone checks would refuse, with its message."""
    flags = np.array([f for f, _ in checks])
    failing = flags.any(axis=0)
    if not failing.any():
        return None
    row = int(np.argmax(failing))
    return row, checks[int(np.argmax(flags[:, row]))][1](row)


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.data
    return np.asarray(m, dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, aligned with ``eigenvalues``

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _lexicographic_column_order(columns: np.ndarray) -> np.ndarray:
    # Primary key: real part of the first entry, then imaginary part, etc.
    keys = []
    for i in range(columns.shape[0] - 1, -1, -1):
        keys.append(np.round(columns[i].imag, 9))
        keys.append(np.round(columns[i].real, 9))
    return np.lexsort(keys)


def _clusters(vals: np.ndarray):
    """Slices of the runs of descending ``vals`` that share one projector:
    each run takes every following value within ``CLUSTER_TOL`` of its first."""
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or vals[start] - vals[stop] > CLUSTER_TOL:
            yield slice(start, stop)
            start = stop


def spectral_decomposition(matrix) -> SpectralDecomposition:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    Within degenerate clusters the eigenvector columns are ordered
    lexicographically so that repeated runs are deterministic.
    """
    m = _as_matrix(matrix)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for cluster in _clusters(vals):
        if cluster.stop - cluster.start > 1:
            sub = vecs[:, cluster]
            vecs[:, cluster] = sub[:, _lexicographic_column_order(sub)]
    return SpectralDecomposition(vals, vecs)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    ``partition`` optionally records a bipartition (dim_A, dim_B) with
    dim_A * dim_B == dim; it is required by :func:`partial_trace`.
    """

    data: np.ndarray
    partition: tuple[int, int] | None = None

    def __post_init__(self):
        m = np.array(self.data, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {defect:.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {float(tr)!r}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
        if self.partition is not None:
            da, db = self.partition
            if da * db != m.shape[0]:
                raise ValueError(f"partition {self.partition} inconsistent with dim {m.shape[0]}")
        m = (m + m.conj().T) / 2.0
        m /= np.trace(m).real
        m.flags.writeable = False
        object.__setattr__(self, "data", m)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_diagonal(cls, probs, partition=None) -> "DensityMatrix":
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(complex)), partition)

    @classmethod
    def maximally_mixed(cls, dim: int, partition=None) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim, partition)

    @classmethod
    def pure(cls, vector, partition=None) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(v) if v.ndim == 1 and np.isfinite(v).all() else 0.0
        if not 0.0 < norm < np.inf:
            raise ValueError("pure state must be a nonzero 1-D vector of finite entries")
        return cls(np.outer(v / norm, (v / norm).conj()), partition)


def _square_stack(matrices, message: str) -> np.ndarray:
    """A read-only complex ``(n, d, d)`` copy of a sequence of equal-shape
    square matrices; ``ValueError(message)`` for any other shape."""
    try:
        stack = np.array(matrices, dtype=complex)
    except ValueError:  # matrices of different shapes
        raise ValueError(message) from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(message)
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class Observable:
    """Spectral form of a Hermitian observable: distinct eigenvalues plus the
    matching orthogonal projectors (one projector per distinct eigenvalue).

    ``projectors`` is one read-only ``(n_outcomes, dim, dim)`` array; the
    constructor takes any sequence of equal-shape square matrices."""

    eigenvalues: tuple[float, ...]
    projectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.projectors):
            raise ValueError("one projector per eigenvalue required")
        vals = np.asarray(self.eigenvalues, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        if len(vals) > 1 and np.min(np.diff(np.sort(vals))) <= 0:
            raise ValueError("eigenvalues must be distinct")
        projs = _square_stack(self.projectors, "projectors must share one dimension")
        if not np.all(np.isfinite(projs)):
            raise ValueError("projectors must be finite")
        n, dim = projs.shape[:2]
        herm = np.max(np.abs(projs - projs.conj().swapaxes(-1, -2)), axis=(1, 2))
        bad = np.flatnonzero(herm > HERMITICITY_TOL)
        if bad.size:
            raise ValueError(f"projector {bad[0]} not Hermitian")
        # P_i P_j - delta_ij P_i; the first failing pair in row-major order is named
        products = projs[:, None] @ projs[None, :]
        products[np.arange(n), np.arange(n)] -= projs
        bad = np.argwhere(np.max(np.abs(products), axis=(2, 3)) > HERMITICITY_TOL)
        if bad.size:
            raise ValueError(f"projectors {bad[0, 0]},{bad[0, 1]} not orthogonal/idempotent")
        if np.max(np.abs(projs.sum(axis=0) - np.eye(dim))) > HERMITICITY_TOL:
            raise ValueError("projectors do not resolve the identity")
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in vals))
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def is_rank_one(self) -> bool:
        """Whether every projector has rank one (trace 1)."""
        traces = np.trace(self.projectors, axis1=1, axis2=2).real
        return bool(np.all(np.abs(traces - 1.0) < 1e-9))

    def matrix(self) -> np.ndarray:
        return np.tensordot(self.eigenvalues, self.projectors, axes=1)

    @classmethod
    def computational(cls, dim: int) -> "Observable":
        projs = np.zeros((dim, dim, dim), dtype=complex)
        i = np.arange(dim)
        projs[i, i, i] = 1.0
        return cls(tuple(float(k) for k in range(dim)), projs)

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "Observable":
        """Rank-1 projectors onto the columns of an orthonormal ``vectors``,
        with eigenvalues 0, 1, ... in column order."""
        v = np.asarray(vectors, dtype=complex).T
        # the outer products |v_i><v_i| as one broadcast product
        return cls(tuple(float(i) for i in range(len(v))), v[:, :, None] * v[:, None, :].conj())

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Spectral form of a Hermitian matrix; eigenvalues within the cluster
        tolerance are merged into a single projector."""
        dec = spectral_decomposition(matrix)
        vals, vecs = dec.eigenvalues, dec.eigenvectors
        clusters = list(_clusters(vals))
        # one product per cluster: a product padded to the largest rounds otherwise
        return cls(
            tuple(float(np.mean(vals[c])) for c in clusters),
            [vecs[:, c] @ vecs[:, c].conj().T for c in clusters],
        )

    def tensor(self, other: "Observable") -> "Observable":
        """Composite observable with product projectors; outcomes are labelled
        by the pair index ``i * other.n_outcomes + j``."""
        projs = _product_projectors(self, other)
        return Observable(tuple(float(i) for i in range(len(projs))), projs)


def _product_projectors(a: Observable, b: Observable) -> np.ndarray:
    """The projectors of ``a.tensor(b)``, stacked in pair-index order."""
    products = tensor_product(a.projectors[:, None], b.projectors[None, :])
    return products.reshape(-1, a.dim * b.dim, a.dim * b.dim)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant, in complex128.

    Leading axes broadcast, so stacks of matrices multiply slice by slice."""
    a, b = _as_matrix(a), _as_matrix(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return prod.reshape(prod.shape[:-4] + (rows, cols))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out one subsystem of a bipartite state.

    ``keep`` selects the retained factor: ``"A"``/``0`` keeps the first
    (most significant) factor, ``"B"``/``1`` the second.
    """
    if rho.partition is None:
        raise ValueError("partial_trace requires a DensityMatrix with a partition")
    if keep not in ("A", 0, "B", 1):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(_reduced(rho.data, rho.partition, keep in ("A", 0)))


def _reduced(m: np.ndarray, partition: tuple[int, int], keep_a: bool) -> np.ndarray:
    """Partial trace of a bare bipartite array, keeping A or B; unvalidated."""
    da, db = partition
    return np.einsum("ijkj->ik" if keep_a else "ijil->jl", m.reshape(da, db, da, db))


def _log_support(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ln vals`` where ``vals`` exceeds ``EIGENVALUE_CUTOFF`` and 0 elsewhere,
    with the mask of the values kept."""
    kept = vals > EIGENVALUE_CUTOFF
    return np.log(np.where(kept, vals, 1.0)), kept


def _one_or_stack(values: np.ndarray):
    """A float for a single matrix's value, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


def von_neumann_entropy(rho):
    """Entropy -Tr[rho ln rho] in nats, with 0 * ln 0 = 0.

    ``rho`` is one matrix (the result is a float) or a stack ``(..., d, d)``
    (one value per matrix, the same as each alone)."""
    vals = np.linalg.eigvalsh(_as_matrix(rho))
    logs, kept = _log_support(vals)
    return _one_or_stack(-np.sum(np.where(kept, vals * logs, 0.0), axis=-1))


def relative_entropy(nu, mu) -> float:
    """Quantum relative entropy S(nu || mu) = Tr[nu ln nu] - Tr[nu ln mu] (nats).

    Returns ``inf`` (with a :class:`DegenerateSupportWarning`) when ``nu`` has
    support outside the support of ``mu``.
    """
    nu_m = _as_matrix(nu)
    term1 = -von_neumann_entropy(nu_m)
    term2 = trace_rho_log_sigma(nu_m, mu)
    if math.isinf(term2):
        return math.inf
    return term1 - term2


def trace_rho_log_sigma(rho, sigma):
    """Tr[rho ln sigma] over the support of sigma; -inf when rho leaks outside.

    ``rho`` and ``sigma`` are matrices (the result is a float) or stacks
    ``(..., d, d)`` (one value per pair, the same as each alone). A pair
    whose ``rho`` puts weight above 1e-12 on a zero mode of ``sigma`` gives
    -inf and one :class:`DegenerateSupportWarning`, naming its largest such
    weight."""
    rho_m = _as_matrix(rho)
    vals, vecs = np.linalg.eigh(_as_matrix(sigma))
    # <v_i| rho |v_i> for each eigenvector v_i of sigma
    weights = np.einsum("...ij,...ji->...i", vecs.conj().swapaxes(-1, -2) @ rho_m, vecs).real
    logs, kept = _log_support(vals)
    total = np.sum(np.where(kept, weights * logs, 0.0), axis=-1)
    leaked = np.max(np.where(kept, 0.0, weights), axis=-1, initial=0.0)
    for weight in np.ravel(leaked)[np.ravel(leaked) > 1e-12].tolist():
        warnings.warn(
            f"support violation: weight {weight:.3e} on a zero mode",
            DegenerateSupportWarning,
            stacklevel=3,
        )
    return _one_or_stack(np.where(leaked > 1e-12, -math.inf, total))
