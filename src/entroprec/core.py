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


class DegenerateSupportWarning(UserWarning):
    """Raised-as-warning when an operation meets a zero eigenvalue it cannot
    treat exactly (negative/imaginary powers, log of a rank-deficient state)."""


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
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {defect:.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
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
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), partition)


@dataclass(frozen=True)
class Observable:
    """Spectral form of a Hermitian observable: distinct eigenvalues plus the
    matching orthogonal projectors (one projector per distinct eigenvalue)."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.projectors):
            raise ValueError("one projector per eigenvalue required")
        vals = np.asarray(self.eigenvalues, dtype=float)
        if len(vals) > 1 and np.min(np.diff(np.sort(vals))) <= 0:
            raise ValueError("eigenvalues must be distinct")
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise ValueError("projectors must share one dimension")
            if hermiticity_defect(p) > HERMITICITY_TOL:
                raise ValueError(f"projector {i} not Hermitian")
            for j, q in enumerate(projs):
                expect = p if i == j else 0.0
                if np.max(np.abs(p @ q - expect)) > HERMITICITY_TOL:
                    raise ValueError(f"projectors {i},{j} not orthogonal/idempotent")
            total += p
        if np.max(np.abs(total - np.eye(dim))) > HERMITICITY_TOL:
            raise ValueError("projectors do not resolve the identity")
        for p in projs:
            p.flags.writeable = False
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in vals))
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def is_rank_one(self) -> bool:
        """Whether every projector has rank one (trace 1)."""
        return all(abs(np.trace(p).real - 1.0) < 1e-9 for p in self.projectors)

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, p in zip(self.eigenvalues, self.projectors):
            out += a * p
        return out

    @classmethod
    def computational(cls, dim: int) -> "Observable":
        projs = []
        for i in range(dim):
            p = np.zeros((dim, dim), dtype=complex)
            p[i, i] = 1.0
            projs.append(p)
        return cls(tuple(float(i) for i in range(dim)), tuple(projs))

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "Observable":
        """Rank-1 projectors onto the columns of an orthonormal ``vectors``,
        with eigenvalues 0, 1, ... in column order."""
        v = np.asarray(vectors, dtype=complex)
        n = v.shape[1]
        projs = tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(n))
        return cls(tuple(float(i) for i in range(n)), projs)

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Spectral form of a Hermitian matrix; eigenvalues within the cluster
        tolerance are merged into a single projector."""
        dec = spectral_decomposition(matrix)
        vals, vecs = dec.eigenvalues, dec.eigenvectors
        clusters = list(_clusters(vals))
        return cls(
            tuple(float(np.mean(vals[c])) for c in clusters),
            tuple(vecs[:, c] @ vecs[:, c].conj().T for c in clusters),
        )

    def tensor(self, other: "Observable") -> "Observable":
        """Composite observable with product projectors; outcomes are labelled
        by the pair index ``i * other.n_outcomes + j``."""
        projs = _product_projectors(self, other)
        return Observable(tuple(float(i) for i in range(len(projs))), tuple(projs))


def _product_projectors(a: Observable, b: Observable) -> np.ndarray:
    """The projectors of ``a.tensor(b)``, stacked in pair-index order."""
    products = tensor_product(np.asarray(a.projectors)[:, None], np.asarray(b.projectors)[None, :])
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
    da, db = rho.partition
    blocks = rho.data.reshape(da, db, da, db)
    if keep in ("A", 0):
        reduced = np.einsum("ijkj->ik", blocks)
    elif keep in ("B", 1):
        reduced = np.einsum("ijil->jl", blocks)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced)


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr[rho ln rho] in nats, with 0 * ln 0 = 0."""
    vals = np.linalg.eigvalsh(_as_matrix(rho))
    vals = vals[vals > EIGENVALUE_CUTOFF]
    return float(-np.sum(vals * np.log(vals)))


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


def trace_rho_log_sigma(rho, sigma) -> float:
    """Tr[rho ln sigma] over the support of sigma; -inf when rho leaks outside."""
    rho_m = _as_matrix(rho)
    dec = spectral_decomposition(sigma)
    weights = np.einsum("ij,ji->i", dec.eigenvectors.conj().T @ rho_m, dec.eigenvectors).real
    total = 0.0
    for q, w in zip(dec.eigenvalues, weights):
        if q > EIGENVALUE_CUTOFF:
            total += w * math.log(q)
        elif w > 1e-12:
            warnings.warn(
                f"support violation: weight {w:.3e} on a zero mode",
                DegenerateSupportWarning,
                stacklevel=3,
            )
            return -math.inf
    return total
