"""CPTP maps as Kraus-operator stacks, time reversal, and Lindblad dynamics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DensityMatrix, _first_fault, _groups, _one_or_many, _square_stack, hermiticity_defect

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
    sum E^dag E and sum E E^dag from the identity, as its largest absolute
    row sum; integrated (non-exact) channels carry looser bounds than
    analytically constructed ones. That norm bounds the spectral one, so a
    channel within ``tp_tol`` keeps |Tr Phi(rho) - 1| <= ``tp_tol`` on
    every state.
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
        (checked,) = _checked_channels([ops], [self.tp_tol], [self.unital_tol])
        vars(self).update(vars(checked))

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


def _checked_channels(kraus_sets, tp_tols, unital_tols) -> list[QuantumChannel]:
    """A :class:`QuantumChannel` of each complex ``(n, d, d)`` Kraus set, in
    order, with its own ``tp_tol`` and ``unital_tol``, checked as the
    constructor checks one: finite operators, then the defects of
    sum E^dag E and sum E E^dag from the identity, refused beyond
    ``tp_tol``. The first set that fails, in order, raises the
    constructor's ``ValueError``.

    Sets of one shape are checked as one stack: each operator's products on
    their own and the sum over operators in order, so every defect has the
    bits of its lone check. Each channel keeps a read-only C-contiguous view
    of its group's stack. The one place a channel is built unchecked.
    """
    n = len(kraus_sets)
    finite = np.ones(n, dtype=bool)
    trace_defect, unitality_defect = np.zeros(n), np.zeros(n)
    groups = _groups(kraus_sets, np.shape)
    stacks = [np.stack([kraus_sets[i] for i in group]) for group in groups]
    for group, stack in zip(groups, stacks):
        stack.flags.writeable = False
        ok = np.isfinite(stack).all(axis=(1, 2, 3))
        ops = stack[ok]  # no defect of a non-finite set
        eye = np.eye(stack.shape[-1])
        adjoints = ops.conj().swapaxes(-1, -2)
        defect = lambda gram: np.max(np.sum(np.abs(gram.sum(axis=1) - eye), axis=-1), axis=-1)
        at = np.asarray(group)[ok]
        finite[group] = ok
        trace_defect[at], unitality_defect[at] = defect(adjoints @ ops), defect(ops @ adjoints)
    fault = _first_fault([
        (~finite, lambda i: "Kraus operators must be finite"),
        (trace_defect > np.asarray(tp_tols, dtype=float),
         lambda i: f"channel not trace preserving: defect {trace_defect[i]:.3e}"),
    ])
    if fault:
        raise ValueError(fault[1])
    out: list = [None] * n
    for group, stack in zip(groups, stacks):
        for i, ops in zip(group, stack):
            channel = out[i] = object.__new__(QuantumChannel)
            vars(channel).update(
                kraus=ops,
                tp_tol=tp_tols[i],
                unital_tol=unital_tols[i],
                trace_defect=float(trace_defect[i]),
                unitality_defect=float(unitality_defect[i]),
            )
    return out


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
    after checking it stayed within the channel's trace-preservation budget,
    which the channel's validation guarantees up to rounding."""
    if rho.dim != channel.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, channel {channel.dim}")
    out = channel.apply_matrix(rho.data)
    out = (out + out.conj().T) / 2.0
    tr = np.trace(out).real
    if abs(tr - 1.0) > max(channel.tp_tol, 1e-12):
        raise ValueError(f"trace drifted to {float(tr)!r} under channel application")
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


def time_reversed(channel, theta: TimeReversal | None = None):
    """Time-reversed channel with Kraus set Theta E_u^dag Theta^dag.

    Defined here only for unital channels, whose identity fixed point makes
    the reversed map trace preserving. One channel, or a list or tuple of
    them answered with a list (see :func:`core._one_or_many`): the first
    channel that is not unital is refused before any work, and the reversed
    sets are checked in one :func:`_checked_channels` pass, each with the
    bits of its lone reversal.
    """
    channels, many = _one_or_many(channel)
    if not all(c.is_unital for c in channels):
        raise ValueError("time reversal is only supported for unital channels")
    theta = theta or TimeReversal()
    kraus = [theta.apply_to_state(c.kraus.conj().swapaxes(-1, -2)) for c in channels]
    # TP defect of the reversal equals the unitality defect of the original.
    out = _checked_channels(
        kraus, [c.unital_tol for c in channels], [c.tp_tol for c in channels]
    )
    return out if many else out[0]


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_XX = np.kron(PAULI_X, PAULI_X)
PAULI_X.flags.writeable = PAULI_XX.flags.writeable = False


def ms_gate(phi):
    """Partial Moelmer-Soerensen entangling gate exp(-i phi X (x) X) on two qubits.

    One phase, or a list or tuple of them answered with a list (see
    :func:`core._one_or_many`): the gates are one broadcast stack, checked
    in one pass, each with the bits of its lone build.
    """
    phis, many = _one_or_many(phi)
    angles = np.asarray(phis, dtype=float)[:, None, None]
    with np.errstate(invalid="ignore"):  # an infinite phase is refused below
        u = np.cos(angles) * np.eye(4, dtype=complex) - 1j * np.sin(angles) * PAULI_XX
    out = _checked_channels(u[:, None], [TP_TOL] * len(phis), [UNITAL_TOL] * len(phis))
    return out if many else out[0]


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
        # a rate that overflows makes the generator non-finite, which every
        # integration refuses before its first step
        with np.errstate(over="ignore", invalid="ignore"):
            for l, gamma in self.dissipators:
                m = l.conj().T @ l
                dissipator = np.kron(eye, m.T) + np.kron(m, eye) - 2.0 * np.kron(l, l.conj())
                gen = gen - gamma * dissipator
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
    """The step checks shared by every entry point that integrates, before any work."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    if tau / dt > 2**53:
        raise ValueError(f"tau={tau!r} and dt={dt!r} make {tau / dt:.6g} steps, more than 2**53")


def _check_rk4_stability(gens: np.ndarray, tau: float, dt: float) -> None:
    """Reject generators (one, or a stack along the leading axis) for which
    the largest step taken, h = min(dt, tau), puts an eigenvalue lambda
    outside RK4's stability region |R(h lambda)| <= 1, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is the step's growth factor. A
    generator with a non-finite entry is refused first; a growth factor that
    overflows counts as unstable, and the message says so."""
    gens = gens.reshape(-1, *gens.shape[-2:])
    finite = np.isfinite(gens).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise IntegratorAccuracyError("the generator is not finite; reduce the rates", index=i)
    z = min(dt, tau) * np.linalg.eigvals(gens)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.max(np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))), axis=1)
    unstable = np.flatnonzero(~(growth <= 1 + RK4_GROWTH_TOL))
    if unstable.size:
        i = int(unstable[0])
        factor = f"{growth[i]:.6g} per step" if np.isfinite(growth[i]) else "overflows float64"
        raise IntegratorAccuracyError(
            f"RK4 step {min(dt, tau)!r} is outside the stability region "
            f"(growth factor {factor}); reduce the rates or the time step",
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
    steps = n_full + (remainder > 1e-9 * max(dt, 1.0))
    buffers = (y, *(np.empty(y.shape, y.dtype) for _ in range(5)))
    for k in range(steps):
        _rk4_step(apply, buffers, dt if k < n_full else remainder)
    return steps


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
            f"trace drift {float(drift)!r} exceeds {MAX_TRACE_DRIFT}; reduce dt"
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

    Every model's complete matrix-unit basis is propagated by RK4 on its
    generator's invariant blocks only, each distinct block once, in one
    stacked integration per padded block size (see :func:`_block_endpoints`);
    a lone model is the one-model batch. A map's bits depend on its own
    generator alone, so it is byte-identical built alone or in any batch.
    The models' Choi matrices are then eigendecomposed in one stacked
    ``eigh`` (see :func:`_endpoint_channels`); eigenvalues in [-1e-8, 0) are
    clipped to zero (integration noise) and the spectrum rescaled, anything
    more negative is a genuine complete-positivity failure. A step outside RK4's stability region raises
    :class:`IntegratorAccuracyError` before any step is taken; a non-finite
    endpoint, or a trace drift beyond 1e-6 in any propagated matrix unit,
    raises it afterwards. The error's ``index`` names the model.
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
        eye = np.broadcast_to(np.eye(d, dtype=complex), (len(models), 1, d, d))
        return tuple(_checked_channels(eye, [TP_TOL] * len(models), [UNITAL_TOL] * len(models)))
    gens = np.stack([m.liouvillian for m in models])
    _check_rk4_stability(gens, tau, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # judged by the guard below
        endpoints = _block_endpoints(gens, tau, dt)
    return tuple(_endpoint_channels(endpoints, d))


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
    propagated only on L's own invariant blocks, each padded with zeros to
    L's largest block size s.

    Blocks equal byte for byte (so the sign of a zero counts) at equal s
    are integrated once, and the endpoint is written to each of them. The
    distinct blocks of each s are one (blocks, s, s) stack, one BLAS
    product per block and stage, so a map's bits depend on its own
    generator alone: built alone or in any batch, byte for byte. Where BLAS
    sums each entry over k in index order, as it does for the two-ion
    models, the endpoint is also the dense integration's, bit for bit: the
    dense product's extra terms are exact zeros.
    """
    by_size: dict[int, dict] = {}  # s -> {block bytes: [(model, indices)]}
    for i, gen in enumerate(gens):
        blocks = _invariant_blocks(gen[None])
        distinct = by_size.setdefault(max(map(len, blocks)), {})
        for idx in blocks:
            distinct.setdefault(gen[idx[:, None], idx].tobytes(), []).append((i, idx))
    endpoints = np.zeros_like(gens)
    for s, distinct in by_size.items():
        groups = list(distinct.values())
        blocks = np.zeros((len(groups), s, s), dtype=complex)
        y = np.zeros_like(blocks)
        for block, start, ((i, idx), *_) in zip(blocks, y, groups):
            block[: idx.size, : idx.size] = gens[i][idx[:, None], idx]
            start[range(idx.size), range(idx.size)] = 1.0
        _rk4_integrate(lambda src, out: np.matmul(blocks, src, out=out), y, tau, dt)
        for block, members in zip(y, groups):
            for i, idx in members:
                endpoints[i, idx[:, None], idx] = block[: idx.size, : idx.size]
    return endpoints


def _endpoint_channels(endpoints: np.ndarray, d: int) -> list[QuantumChannel]:
    """Drift guard and Choi step for a stack of propagated matrix-unit bases
    of a d-level system, one per model: one stacked ``eigh`` for all of
    them and one :func:`_checked_channels` pass. The first model that drifts or is not completely positive, in
    order, is refused before any trace-preservation check; a drift error's
    ``index`` names it."""
    # Row a*d+a holds the diagonal entry (a, a), so the column sums of every
    # (d+1)-th row are Tr Phi(|i><j|), which must equal delta_ij.
    traces = endpoints[:, :: d + 1].sum(axis=1)
    drift = np.max(np.abs(traces - np.eye(d).reshape(-1)), axis=1)
    drifted = ~(np.isfinite(endpoints).all(axis=(1, 2)) & (drift <= MAX_TRACE_DRIFT))
    n_ok = int(np.argmax(drifted)) if drifted.any() else len(endpoints)
    # endpoint[:, i*d+j] = vec(Phi(|i><j|)); reindex into the Choi matrix
    # J[(i,a),(j,b)] = Phi(|i><j|)[a,b].
    choi = endpoints[:n_ok].reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2).reshape(-1, d * d, d * d)
    choi = (choi + choi.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(choi)
    negative = np.flatnonzero(vals[:, 0] < -CHOI_NEGATIVITY_TOL)
    if negative.size:
        raise NonCompletelyPositiveError(
            f"Choi eigenvalue {vals[negative[0], 0]:.3e} below -{CHOI_NEGATIVITY_TOL}"
        )
    if n_ok < len(endpoints):
        raise IntegratorAccuracyError(
            f"endpoint map trace drift {float(drift[n_ok])!r} exceeds {MAX_TRACE_DRIFT}; reduce dt",
            index=n_ok,
        )
    vals = np.clip(vals, 0.0, None)
    vals *= d / vals.sum(axis=1, keepdims=True)
    # eigh sorts ascending, and column n of vecs is vec(E_n^T)
    kraus = [
        np.sqrt(v[::-1][:k])[:, None, None] * e[:, ::-1][:, :k].T.reshape(k, d, d).swapaxes(-1, -2)
        for v, e, k in zip(vals, vecs, np.count_nonzero(vals > 1e-12, axis=1).tolist())
    ]
    n = len(endpoints)
    return _checked_channels(kraus, [1e-8] * n, [1e-8] * n)
