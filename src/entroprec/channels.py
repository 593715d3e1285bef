"""CPTP maps as Kraus-operator stacks, time reversal, and Lindblad dynamics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DensityMatrix, _square_stack, hermiticity_defect

TP_TOL = 1e-10
UNITAL_TOL = 1e-10
MAX_TRACE_DRIFT = 1e-6
CHOI_NEGATIVITY_TOL = 1e-8
RK4_GROWTH_TOL = 1e-9  # rounding allowance on |R(h lambda)| <= 1


class IntegratorAccuracyError(RuntimeError):
    """The fixed-step integration is unstable or exceeded its trace-drift
    budget; ``index`` is the offending model's position in a batched build."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NonCompletelyPositiveError(RuntimeError):
    """The extracted endpoint map is not completely positive."""


@dataclass(frozen=True)
class QuantumChannel:
    """Trace-preserving quantum map Phi(rho) = sum_u E_u rho E_u^dag.

    ``kraus`` is one read-only ``(n_operators, dim, dim)`` array; the
    constructor takes any sequence of equal-shape square matrices.
    ``tp_tol`` and ``unital_tol`` bound the accepted deviation of
    sum E^dag E and sum E E^dag from the identity; integrated (non-exact)
    channels carry looser bounds than analytically constructed ones.
    """

    kraus: np.ndarray
    tp_tol: float = TP_TOL
    unital_tol: float = UNITAL_TOL
    trace_defect: float = field(init=False)
    unitality_defect: float = field(init=False)

    def __post_init__(self):
        if not len(self.kraus):
            raise ValueError("at least one Kraus operator required")
        ops = _square_stack(self.kraus, "Kraus operators must be square and share one dimension")
        if not np.all(np.isfinite(ops)):
            raise ValueError("Kraus operators must be finite")
        eye = np.eye(ops.shape[1])
        adjoints = ops.conj().swapaxes(-1, -2)
        trace_defect = float(np.max(np.abs((adjoints @ ops).sum(axis=0) - eye)))
        unitality_defect = float(np.max(np.abs((ops @ adjoints).sum(axis=0) - eye)))
        if trace_defect > self.tp_tol:
            raise ValueError(f"channel not trace preserving: defect {trace_defect:.3e}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "trace_defect", trace_defect)
        object.__setattr__(self, "unitality_defect", unitality_defect)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def is_unital(self) -> bool:
        return self.unitality_defect <= self.unital_tol

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action on a matrix or a stack of them along leading axes, no
        state validation; extended precision stays extended. Terms add in
        order. The one-channel case of :func:`apply_kraus`."""
        return apply_kraus(self.kraus, m)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls(np.eye(dim, dtype=complex)[None])

    @classmethod
    def unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls(np.asarray(u, dtype=complex)[None])

    @classmethod
    def mixed_unitary(cls, unitaries, weights) -> "QuantumChannel":
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(unitaries),):
            raise ValueError("one weight per unitary required")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be a probability vector")
        return cls(np.sqrt(w)[:, None, None] * np.asarray(unitaries, dtype=complex))


def apply_kraus(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_u E_u m E_u^dag for a stack of Kraus sets, unvalidated.

    ``kraus`` has shape ``batch + (n, d, d)`` and ``m`` shape
    ``batch + stack + (d, d)``: slice ``b`` of ``m`` goes through Kraus set
    ``b``, every matrix of its stack alike. Each term is formed as
    ``(E_u @ m) @ E_u^dag``, and the terms add in operator order from zero,
    as a sum over an operator axis would add them, so a batch gives every
    slice the bits it would get alone. Only one term is held at a time, so
    the temporaries stay the size of the result. Extended precision stays
    extended.
    """
    m = np.asarray(m)
    batch = kraus.ndim - 3
    ops = kraus.reshape(kraus.shape[:-2] + (1,) * (m.ndim - batch - 2) + kraus.shape[-2:])
    adjoints = ops.conj().swapaxes(-1, -2)
    out = 0
    for u in range(kraus.shape[batch]):
        at = (slice(None),) * batch + (u,)
        out = out + ops[at] @ m @ adjoints[at]
    return out


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


def time_reversed(channel: QuantumChannel, theta: TimeReversal | None = None) -> QuantumChannel:
    """Time-reversed channel with Kraus set Theta E_u^dag Theta^dag.

    Defined here only for unital channels, whose identity fixed point makes
    the reversed map trace preserving.
    """
    if not channel.is_unital:
        raise ValueError("time reversal is only supported for unital channels")
    theta = theta or TimeReversal()
    kraus = theta.apply_to_state(channel.kraus.conj().swapaxes(-1, -2))
    # TP defect of the reversal equals the unitality defect of the original.
    return QuantumChannel(kraus, tp_tol=channel.unital_tol, unital_tol=channel.tp_tol)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_XX = np.kron(PAULI_X, PAULI_X)
PAULI_X.flags.writeable = PAULI_XX.flags.writeable = False


def ms_gate(phi: float) -> QuantumChannel:
    """Partial Moelmer-Soerensen entangling gate exp(-i phi X (x) X) on two qubits."""
    u = np.cos(phi) * np.eye(4, dtype=complex) - 1j * np.sin(phi) * PAULI_XX
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
        if not (np.all(np.isfinite(h)) and hermiticity_defect(h) <= 1e-12):
            raise ValueError("Hamiltonian must be finite and Hermitian")
        ops = []
        for l, gamma in self.dissipators:
            l = np.asarray(l, dtype=complex)
            if not (0 <= gamma < np.inf and np.all(np.isfinite(l))):
                raise ValueError("jump operators and rates must be finite, rates nonnegative")
            ops.append((l, float(gamma)))
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


def _validate_step(tau: float, dt: float) -> None:
    """The step checks shared by every entry point that integrates."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")


def _check_rk4_stability(gens: np.ndarray, tau: float, dt: float) -> None:
    """Reject generators (one, or a stack along the leading axis) for which
    the largest step taken, h = min(dt, tau), puts an eigenvalue lambda
    outside RK4's stability region |R(h lambda)| <= 1, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is the step's growth factor."""
    z = min(dt, tau) * np.linalg.eigvals(gens).reshape(-1, gens.shape[-1])
    growth = np.max(np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))), axis=1)
    unstable = np.flatnonzero(~(growth <= 1 + RK4_GROWTH_TOL))
    if unstable.size:
        i = int(unstable[0])
        raise IntegratorAccuracyError(
            f"RK4 step {min(dt, tau)!r} is outside the stability region "
            f"(growth factor {float(growth[i]):.6g} per step); reduce dt",
            index=i,
        )


def _rk4_evolve(gen: np.ndarray, y0: np.ndarray, tau: float, dt: float) -> tuple[np.ndarray, int]:
    """RK4 from ``y0`` under the dense generator ``gen`` (one matrix, or a
    stack along the leading axis) up to time ``tau``; returns the endpoint and
    the number of steps. The arithmetic runs in ``gen``'s precision."""
    y = np.asarray(y0, dtype=complex).astype(np.result_type(gen, complex), order="C")
    steps = _rk4_integrate(lambda src, out: np.matmul(gen, src, out=out), y, tau, dt)
    return y, steps


def _rk4_integrate(apply, y: np.ndarray, tau: float, dt: float) -> int:
    """Advance ``y`` in place by fixed RK4 steps of ``dt`` up to time ``tau``
    (a shorter last step takes the remainder) and return the step count.
    ``apply(src, out)`` writes the generator applied to ``src`` into ``out``,
    both shaped like ``y``. Every buffer is allocated here, once."""
    n_full = int(tau / dt + 1e-9)
    remainder = tau - n_full * dt
    sizes = [dt] * n_full
    if remainder > 1e-9 * max(dt, 1.0):
        sizes.append(remainder)
    buffers = (y, *(np.empty(y.shape, y.dtype) for _ in range(5)))
    for h in sizes:
        _rk4_step(apply, buffers, h)
    return len(sizes)


def _rk4_step(apply, buffers, h: float) -> None:
    """One classical RK4 step of size ``h``, in place:
    y += h/6 (k1 + 2 k2 + 2 k3 + k4), each slope k_i the generator applied to
    y, y + h/2 k1, y + h/2 k2 and y + h k3 in turn.

    ``buffers`` holds the state ``y``, the stage input ``x`` and the four
    slopes. Every product and sum runs in the order of that expression, so
    the bits are those of evaluating it with temporaries.
    """
    y, x, k1, k2, k3, k4 = buffers
    apply(y, k1)
    np.multiply(k1, 0.5 * h, out=x)
    x += y
    apply(x, k2)
    np.multiply(k2, 0.5 * h, out=x)
    x += y
    apply(x, k3)
    np.multiply(k3, h, out=x)
    x += y
    apply(x, k4)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    y += k1


def lindblad_propagate(
    model: LindbladModel,
    rho0: DensityMatrix,
    tau: float,
    dt: float,
    return_info: bool = False,
):
    """Fixed-step RK4 integration of the master equation up to time ``tau``.

    The endpoint is re-Hermitised and trace-renormalised; the applied
    correction magnitudes are available via ``return_info=True``. A step
    outside RK4's stability region, or a trace drift beyond 1e-6 before
    renormalisation, raises :class:`IntegratorAccuracyError`.
    """
    _validate_step(tau, dt)
    if rho0.dim != model.dim:
        raise ValueError("state and model dimensions differ")
    _check_rk4_stability(model.liouvillian, tau, dt)
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


def kraus_from_lindblad_endpoints(
    models, tau: float, dt: float
) -> tuple[QuantumChannel, ...]:
    """Kraus forms of the endpoint maps rho(0) -> rho(tau) of several models
    that share ``tau`` and ``dt``, one channel per model.

    Every model's complete matrix-unit basis is propagated in one stacked
    RK4 integration: a batch on its generators' invariant blocks only (see
    :func:`_block_endpoints`), a lone model densely. Either way each map is
    bit-identical to the dense integration of the identity under its own
    generator, so built alone or in any batch. Each model's Choi matrix is
    then eigendecomposed; eigenvalues in [-1e-8, 0) are clipped to zero
    (integration noise) and the spectrum rescaled, anything more negative is a
    genuine complete-positivity failure. A step outside RK4's stability
    region raises :class:`IntegratorAccuracyError` before any step is taken; a
    non-finite endpoint, or a trace drift beyond 1e-6 in any propagated
    matrix unit, raises it afterwards. The error's ``index`` names the model.
    A negative ``tau`` or nonpositive ``dt`` is a ``ValueError``.
    """
    _validate_step(tau, dt)
    models = tuple(models)
    if not models:
        return ()
    d = models[0].dim
    if any(m.dim != d for m in models):
        raise ValueError("models must share one dimension")
    if tau == 0:
        return tuple(QuantumChannel.identity(d) for _ in models)
    gens = np.stack([m.liouvillian for m in models])
    _check_rk4_stability(gens, tau, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # judged by the guard below
        if len(models) == 1:
            # a lone two-ion product costs its call overhead whatever its
            # shape, so blocks would only add their copy per stage
            endpoints = _rk4_evolve(gens, np.eye(d * d, dtype=complex)[None], tau, dt)[0]
        else:
            endpoints = _block_endpoints(gens, tau, dt)
    return tuple(_endpoint_channel(e, d, i) for i, e in enumerate(endpoints))


def _invariant_blocks(gens: np.ndarray) -> list[np.ndarray]:
    """Index sets of the subspaces that every generator of the stack leaves
    invariant: the connected components of the union nonzero pattern, each
    in ascending order. A dense generator is one block."""
    n = gens.shape[-1]
    reach = np.any(gens != 0, axis=0)
    reach = reach | reach.T | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # paths of length up to 2^bit_length >= n
        reach = reach @ reach
    label = reach.argmax(axis=1)  # the smallest index in each one's component
    return [np.flatnonzero(label == r) for r in np.unique(label)]


def _block_endpoints(gens: np.ndarray, tau: float, dt: float) -> np.ndarray:
    """exp(tau L) by RK4 for each generator L of the stack, the identity
    propagated only on the generators' invariant blocks.

    With nb blocks padded to size s, each stage is one (nb s, s) @ (s, nb s)
    product per model: the blocks L_b stacked vertically times the endpoint
    blocks Y_b side by side. Its diagonal blocks L_b Y_b are the slope; the
    off-diagonal ones are discarded. BLAS sums each entry over k in index
    order, and the dense product's extra terms there are exact zeros, so
    the endpoint is the dense integration's, bit for bit.
    """
    m = len(gens)
    blocks = _invariant_blocks(gens)
    nb, s = len(blocks), max(map(len, blocks))
    stacked = np.zeros((m, nb * s, s), dtype=complex)
    y = np.zeros((m, s, nb, s), dtype=complex)  # y[:, i, b, j] = Y_b[i, j]
    for b, idx in enumerate(blocks):
        q = np.arange(idx.size)
        stacked[:, b * s + q[:, None], q] = gens[:, idx[:, None], idx]
        y[:, q, b, q] = 1.0
    product = np.empty((m, nb * s, nb * s), dtype=complex)
    step = product.strides
    diagonal = np.lib.stride_tricks.as_strided(
        product, y.shape, (step[0], step[1], s * (step[1] + step[2]), step[2]), writeable=False
    )

    def apply(src, out):
        np.matmul(stacked, src.reshape(m, s, nb * s), out=product)
        np.copyto(out, diagonal)

    _rk4_integrate(apply, y, tau, dt)
    endpoints = np.zeros_like(gens)
    for b, idx in enumerate(blocks):
        endpoints[:, idx[:, None], idx] = y[:, : idx.size, b, : idx.size]
    return endpoints


def _endpoint_channel(endpoint: np.ndarray, d: int, index: int) -> QuantumChannel:
    """Drift guard and Choi step for one propagated matrix-unit basis of a
    d-level system; ``index`` is the model's position in its batch."""
    # Row a*d+a holds the diagonal entry (a, a), so the column sums of every
    # (d+1)-th row are Tr Phi(|i><j|), which must equal delta_ij.
    traces = endpoint[:: d + 1].sum(axis=0)
    drift = float(np.max(np.abs(traces - np.eye(d).reshape(-1))))
    if not (np.all(np.isfinite(endpoint)) and drift <= MAX_TRACE_DRIFT):
        raise IntegratorAccuracyError(
            f"endpoint map trace drift {drift!r} exceeds {MAX_TRACE_DRIFT}; reduce dt",
            index=index,
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
    # eigh sorts ascending, and column n of vecs is vec(E_n^T)
    kept = np.count_nonzero(vals > 1e-12)
    vals, vecs = vals[::-1][:kept], vecs[:, ::-1][:, :kept]
    kraus = np.sqrt(vals)[:, None, None] * vecs.T.reshape(kept, d, d).swapaxes(-1, -2)
    return QuantumChannel(kraus, tp_tol=1e-8, unital_tol=1e-8)
