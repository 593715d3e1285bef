"""CPTP maps in Kraus form, time reversal, and Lindblad dephasing dynamics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DensityMatrix, hermiticity_defect

TP_TOL = 1e-10
UNITAL_TOL = 1e-10
MAX_TRACE_DRIFT = 1e-6
CHOI_NEGATIVITY_TOL = 1e-8


class IntegratorAccuracyError(RuntimeError):
    """The fixed-step integration exceeded its trace-drift budget."""


class NonCompletelyPositiveError(RuntimeError):
    """The extracted endpoint map is not completely positive."""


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving quantum map Phi(rho) = sum_u E_u rho E_u^dag.

    ``tp_tol`` and ``unital_tol`` bound the accepted deviation of
    sum E^dag E and sum E E^dag from the identity; integrated (non-exact)
    channels carry looser bounds than analytically constructed ones.
    """

    kraus: tuple[np.ndarray, ...]
    tp_tol: float = TP_TOL
    unital_tol: float = UNITAL_TOL
    trace_defect: float = field(init=False)
    unitality_defect: float = field(init=False)

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.kraus)
        if not ops:
            raise ValueError("at least one Kraus operator required")
        dim = ops[0].shape[0]
        for e in ops:
            if e.shape != (dim, dim):
                raise ValueError("Kraus operators must be square and share one dimension")
        eye = np.eye(dim)
        tp = sum(e.conj().T @ e for e in ops)
        unital = sum(e @ e.conj().T for e in ops)
        trace_defect = float(np.max(np.abs(tp - eye)))
        unitality_defect = float(np.max(np.abs(unital - eye)))
        if trace_defect > self.tp_tol:
            raise ValueError(f"channel not trace preserving: defect {trace_defect:.3e}")
        for e in ops:
            e.flags.writeable = False
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "trace_defect", trace_defect)
        object.__setattr__(self, "unitality_defect", unitality_defect)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def is_unital(self) -> bool:
        return self.unitality_defect <= self.unital_tol

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary matrix (no state validation)."""
        out = np.zeros_like(m, dtype=np.result_type(m, complex))  # keeps clongdouble
        for e in self.kraus:
            out += e @ m @ e.conj().T
        return out

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls((np.eye(dim, dtype=complex),))

    @classmethod
    def unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls((np.asarray(u, dtype=complex),))

    @classmethod
    def mixed_unitary(cls, unitaries, weights) -> "QuantumChannel":
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        return cls(tuple(np.sqrt(wi) * np.asarray(u, complex) for u, wi in zip(unitaries, w)))


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a state through the channel; the output trace is re-pinned to 1
    after checking it stayed within the channel's trace-preservation budget."""
    if rho.dim != channel.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, channel {channel.dim}")
    out = channel.apply_matrix(rho.data)
    out = (out + out.conj().T) / 2.0
    tr = np.trace(out).real
    if abs(tr - 1.0) > max(channel.tp_tol, 1e-12):
        raise ValueError(f"trace drifted to {tr!r} under channel application")
    return DensityMatrix(out / tr, rho.partition)


@dataclass(frozen=True)
class TimeReversal:
    """Antiunitary conjugation. ``basis`` holds the orthonormal basis (columns)
    in which complex conjugation is taken; ``None`` means computational."""

    basis: np.ndarray | None = None

    def apply_to_vector(self, psi: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return np.conj(psi)
        u = self.basis
        return u @ np.conj(u.conj().T @ psi)

    def apply_to_state(self, rho: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return np.conj(rho)
        u = self.basis
        return u @ np.conj(u.conj().T @ rho @ u) @ u.conj().T

    def reversed_kraus(self, e: np.ndarray) -> np.ndarray:
        """Theta E^dag Theta^dag; equals E^T for computational-basis conjugation."""
        if self.basis is None:
            return np.asarray(e, dtype=complex).T.copy()
        u = self.basis
        return u @ np.conj(u.conj().T @ e.conj().T @ u) @ u.conj().T


def time_reversed(channel: QuantumChannel, theta: TimeReversal | None = None) -> QuantumChannel:
    """Time-reversed channel with Kraus set Theta E_u^dag Theta^dag.

    Defined here only for unital channels, whose identity fixed point makes
    the reversed map trace preserving.
    """
    if not channel.is_unital:
        raise ValueError("time reversal is only supported for unital channels")
    theta = theta or TimeReversal()
    kraus = tuple(theta.reversed_kraus(e) for e in channel.kraus)
    # TP defect of the reversal equals the unitality defect of the original.
    return QuantumChannel(kraus, tp_tol=channel.unital_tol, unital_tol=channel.tp_tol)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def ms_gate(phi: float) -> QuantumChannel:
    """Partial Moelmer-Soerensen entangling gate exp(-i phi X (x) X) on two qubits."""
    xx = np.kron(PAULI_X, PAULI_X)
    u = np.cos(phi) * np.eye(4, dtype=complex) - 1j * np.sin(phi) * xx
    return QuantumChannel.unitary(u)


@dataclass(frozen=True)
class LindbladModel:
    """Markovian generator: d rho/dt = -i[H, rho] - sum_C gamma_C ({rho, L^dag L} - 2 L rho L^dag).

    All rates in rad/s. The dephasing models used here have Hermitian
    projector jump operators, which makes the generated map unital.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if hermiticity_defect(h) > 1e-12:
            raise ValueError("Hamiltonian must be Hermitian")
        ops = []
        for l, gamma in self.dissipators:
            if gamma < 0:
                raise ValueError("dephasing rates must be nonnegative")
            ops.append((np.asarray(l, dtype=complex), float(gamma)))
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Generator as a matrix on row-major vectorised states:
        vec(A rho B) = (A kron B^T) vec(rho)."""
        h = self.hamiltonian
        d = self.dim
        eye = np.eye(d)
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for l, gamma in self.dissipators:
            m = l.conj().T @ l
            gen = gen - gamma * (np.kron(eye, m.T) + np.kron(m, eye) - 2.0 * np.kron(l, l.conj()))
        return gen

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """Direct matrix form of the generator (cross-check for the
        vectorised form)."""
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for l, gamma in self.dissipators:
            m = l.conj().T @ l
            out = out - gamma * (rho @ m + m @ rho - 2.0 * l @ rho @ l.conj().T)
        return out


class PropagationInfo(NamedTuple):
    trace_drift: float
    hermiticity_defect: float
    steps: int


def _rk4_evolve(gen: np.ndarray, y0: np.ndarray, tau: float, dt: float) -> tuple[np.ndarray, int]:
    n_full = int(tau / dt + 1e-9)
    remainder = tau - n_full * dt
    y = y0.astype(complex)
    for _ in range(n_full):
        y = _rk4_step(gen, y, dt)
    steps = n_full
    if remainder > 1e-9 * max(dt, 1.0):
        y = _rk4_step(gen, y, remainder)
        steps += 1
    return y, steps


def _rk4_step(gen: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    k1 = gen @ y
    k2 = gen @ (y + 0.5 * h * k1)
    k3 = gen @ (y + 0.5 * h * k2)
    k4 = gen @ (y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lindblad_propagate(
    model: LindbladModel,
    rho0: DensityMatrix,
    tau: float,
    dt: float,
    return_info: bool = False,
):
    """Fixed-step RK4 integration of the master equation up to time ``tau``.

    The endpoint is re-Hermitised and trace-renormalised; the applied
    correction magnitudes are available via ``return_info=True``. Trace drift
    beyond 1e-6 before renormalisation raises :class:`IntegratorAccuracyError`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if rho0.dim != model.dim:
        raise ValueError("state and model dimensions differ")
    vec, steps = _rk4_evolve(model.liouvillian, rho0.data.reshape(-1), tau, dt)
    out = vec.reshape(model.dim, model.dim)
    drift = abs(np.trace(out).real - 1.0)
    if not drift <= MAX_TRACE_DRIFT:  # catches NaN from an unstable step size
        raise IntegratorAccuracyError(
            f"trace drift {drift!r} exceeds {MAX_TRACE_DRIFT}; reduce dt"
        )
    defect = hermiticity_defect(out)
    out = (out + out.conj().T) / 2.0
    out /= np.trace(out).real
    rho = DensityMatrix(out, rho0.partition)
    if return_info:
        return rho, PropagationInfo(drift, defect, steps)
    return rho


def kraus_from_lindblad_endpoint(
    model: LindbladModel, tau: float, dt: float
) -> QuantumChannel:
    """Kraus form of the endpoint map rho(0) -> rho(tau).

    A complete matrix-unit basis is propagated in one batch and the resulting
    Choi matrix eigendecomposed; eigenvalues in [-1e-8, 0) are clipped to zero
    (integration noise) and the spectrum rescaled, anything more negative is a
    genuine complete-positivity failure. A non-finite endpoint, or a trace
    drift beyond 1e-6 in any propagated matrix unit, raises
    :class:`IntegratorAccuracyError` (the step size is outside RK4's
    stability region).
    """
    d = model.dim
    if tau == 0:
        return QuantumChannel.identity(d)
    with np.errstate(over="ignore", invalid="ignore"):  # judged by the guard below
        endpoint, _ = _rk4_evolve(model.liouvillian, np.eye(d * d, dtype=complex), tau, dt)
    # Row a*d+a holds the diagonal entry (a, a), so the column sums of every
    # (d+1)-th row are Tr Phi(|i><j|), which must equal delta_ij.
    traces = endpoint[:: d + 1].sum(axis=0)
    drift = float(np.max(np.abs(traces - np.eye(d).reshape(-1))))
    if not (np.all(np.isfinite(endpoint)) and drift <= MAX_TRACE_DRIFT):
        raise IntegratorAccuracyError(
            f"endpoint map trace drift {drift!r} exceeds {MAX_TRACE_DRIFT}; reduce dt"
        )
    # endpoint[:, i*d+j] = vec(Phi(|i><j|)); reindex into the Choi matrix
    # J[(i,a),(j,b)] = Phi(|i><j|)[a,b].
    choi = endpoint.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    choi = (choi + choi.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(choi)
    if vals[0] < -CHOI_NEGATIVITY_TOL:
        raise NonCompletelyPositiveError(
            f"Choi eigenvalue {vals[0]:.3e} below -{CHOI_NEGATIVITY_TOL}"
        )
    vals = np.clip(vals, 0.0, None)
    vals *= d / vals.sum()
    kraus = []
    for n in range(len(vals) - 1, -1, -1):
        if vals[n] <= 1e-12:
            break
        kraus.append(np.sqrt(vals[n]) * vecs[:, n].reshape(d, d).T)
    return QuantumChannel(tuple(kraus), tp_tol=1e-8, unital_tol=1e-8)
