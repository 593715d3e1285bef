"""Characteristic and moment-generating functions of the entropy production.

For subsystem ``A`` the characteristic function has the closed operator form

    G_A(lam) = Tr[ (rho_A_tau^{-i lam} x 1_B)  Phi( rho_A_in^{1+i lam} x rho_B_in ) ],

and analogously for ``B`` and for the composite system
``G(lam) = Tr[rho_tau^{-i lam} Phi(rho_in^{1+i lam})]``. Real-parameter
evaluations ``chi(phi) = G(i phi) = <exp(-phi sigma)>`` feed the moment
reconstruction. A second evaluation path mimics the three-step measurement
procedure (prepare a power-deformed initial state, evolve, read occupation
probabilities) and must agree with the operator form.

The powered post-measurement states are sums sum_k p_k^x P_k over the outcome
probabilities of each label's forward table (:attr:`TwoTimeProtocol.tables`).
That form holds for rank-one projectors only, so both paths reject any other.
Both powered operators of the trace form are then diagonal in the measurement
bases, so G_C is a bilinear form in the protocol's transfer table
T_C[k, m] = Tr[P_k Phi(P_m)] (:attr:`TwoTimeProtocol.transfer`, built once per
protocol): G_C = sum_{k, m} q_k T_C[k, m] r_m, with q and r the powered outcome
weights of :func:`_powers`. A and B read the table of the product projectors,
with the spectator factor's weights at z = 1. The measurement path still
builds the deformed state with :func:`_powered_state` and applies the channel
to it, so it stays independent of the table. Both weight the outcomes with
the same powers, so they share one zero-outcome convention: a probability at
or below ``EIGENVALUE_CUTOFF`` contributes nothing, and one
:class:`DegenerateSupportWarning` per call counts the terms dropped at
exponents with non-positive real part. The powers, the tables and the sums
run in :data:`core.EXTENDED` precision. Two steps still round to float64: the
exponent ``1 + i lam`` is formed in complex128 before it is widened (so
``1 - phi`` is rounded for real phi), and the A and B weights (powered times
spectator, and probe times identity) are the complex128 products of
:func:`core.tensor_product`. Item 4 of ROADMAP.md describes the fix, which
moves the benchmark's pinned values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EIGENVALUE_CUTOFF, DegenerateSupportWarning, _groups, _one_or_many, tensor_product
from .protocol import TwoTimeProtocol, _fill, _local_observables, _outcome_probs, _stack
from .protocol import _require_rank_one, _transfer_tables

SUBSYSTEMS = ("A", "B", "A-B")
IMAG_RESIDUE_TOL = 1e-12


def _powers(probs, z: np.ndarray) -> tuple[np.ndarray, int]:
    """p_k^z in extended precision for probabilities ``probs`` of shape
    ``(..., n)``: shape ``(..., len(z), n)``, one row per exponent in ``z``
    and one column per outcome, and the number of (outcome, exponent) terms
    dropped. An outcome at or below ``EIGENVALUE_CUTOFF`` counts as a zero:
    its power is 0, and it counts as dropped at each exponent with
    ``Re z <= 0``, where the power would diverge. Zero is never raised to a
    power."""
    p = np.asarray(probs, dtype=core.EXTENDED)
    z = np.asarray(z).astype(core.extended_complex())
    kept = p > EIGENVALUE_CUTOFF
    log_p = np.zeros_like(p)
    log_p[kept] = np.log(p[kept])
    powers = np.exp(z[:, None] * np.expand_dims(log_p, -2))
    powers = np.where(np.expand_dims(kept, -2), powers, 0)
    return powers, int(np.count_nonzero(~kept) * np.count_nonzero(z.real <= 0))


def _powered_state(probs, projectors, z: np.ndarray) -> tuple[np.ndarray, int]:
    """The stack sum_k p_k^z P_k, one slice per exponent in ``z``, in extended
    precision, and the number of dropped terms; see :func:`_powers`. Leading
    axes of ``probs`` ``(..., n)`` and ``projectors`` ``(..., n, d, d)`` are
    a batch: the result has shape ``(..., len(z), d, d)``. The only place a
    dephased state is raised to a power."""
    powers, dropped = _powers(probs, z)
    projectors = np.expand_dims(np.asarray(projectors, dtype=powers.dtype), -4)
    # the terms add in outcome order from zero, as np.sum over the outcome
    # axis adds them, without holding every term of every exponent at once
    state = 0
    for k in range(powers.shape[-1]):
        state = state + powers[..., k, None, None] * projectors[..., k, :, :]
    return state, dropped


def _initial_state(proto: TwoTimeProtocol, subsystem: str, z: np.ndarray):
    """rho_in with the label's factor raised to each power in ``z`` (all of
    it for ``"A-B"``), in extended precision, one ``(len(z), d, d)`` stack,
    and the dropped count. Both factors are powered from their tables'
    ``p_in``; the spectator at z = 1."""
    if subsystem == "A-B":
        return _powered_state(proto.forward.p_in, proto.obs_in.projectors, z)
    own = "AB".index(subsystem)
    other = 1 - own
    # bipartite_obs is (A_in, B_in, A_fin, B_fin)
    powered, dropped = _powered_state(
        proto.tables[subsystem].p_in, proto.bipartite_obs[own].projectors, z
    )
    spectator, _ = _powered_state(
        proto.tables["AB"[other]].p_in, proto.bipartite_obs[other].projectors, np.ones(1)
    )
    order = 1 if subsystem == "A" else -1  # A is the first Kronecker factor
    # tensor_product works in complex128; the channel acts in extended precision
    return tensor_product(*(powered, spectator)[::order]).astype(powered.dtype), dropped


def _warn_dropped(dropped: int, n_values: int) -> None:
    if dropped:
        warnings.warn(
            f"dropped {dropped} zero-probability outcome term(s) "
            f"over {n_values} parameter value(s)",
            DegenerateSupportWarning,
            stacklevel=3,
        )


def _check_subsystem(proto: TwoTimeProtocol, subsystem: str) -> None:
    """``ValueError`` unless chi of ``subsystem`` is defined on ``proto``:
    a known label, a bipartite protocol for A and B, rank-one projectors."""
    if subsystem == "A-B":
        observables = (proto.obs_in, proto.obs_fin)
    elif subsystem in ("A", "B"):
        local = _local_observables(proto)  # (A_in, B_in, A_fin, B_fin)
        own = "AB".index(subsystem)
        observables = (local[own], local[1 - own], local[own + 2])
    else:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    _require_rank_one(*observables)


def _bilinear(probe: np.ndarray, table: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """sum over (k, m) of probe_k table[k, m] initial_m for weights ``probe``
    ``(P, N, n_fin)`` and ``initial`` ``(P, N, n_in)`` and tables ``(P, n_fin,
    n_in)``: shape ``(P, N)``, in extended precision. Each term is formed as
    ``(probe_k table[k, m]) initial_m``, and the terms add one by one, m by
    m and k by k within each m, so no value depends on the protocols or
    parameter values stacked with it."""
    # one dtype for all three, so no broadcast product converts as it goes
    probe, table, initial = (a.astype(core.extended_complex()) for a in (probe, table, initial))
    table = np.expand_dims(table.swapaxes(-1, -2), 1)  # [m, k]
    terms = probe[..., None, :] * table * initial[..., :, None]
    return np.cumsum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)[..., -1]


def _kron_weights(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The weights ``a_i b_j`` of the Kronecker product of the diagonal
    operators with weights ``a`` and ``b``, indexed ``i * len(b) + j``,
    formed in complex128 by :func:`core.tensor_product`."""
    return tensor_product(np.expand_dims(a, -2), np.expand_dims(b, -2))[..., 0, :]


def _chi_rows(protos, subsystem: str, probe_z: np.ndarray, initial_z: np.ndarray):
    """G_C at the exponents of protocols with equal outcome counts, shape
    ``(len(protos), len(probe_z))``, and the dropped count. The powered
    states are diagonal in the measurement bases, so G_C is the bilinear
    form of the protocol's transfer table in the powered outcome weights.
    A and B read the table of the product projectors, with the spectator
    factor at z = 1 and the identity on the other side of the probe."""
    if subsystem == "A-B":
        table = _stack(protos, lambda p: p.transfer.joint)
        initial, dropped_in = _powers(_stack(protos, lambda p: p.forward.p_in), initial_z)
        probe, dropped_fin = _powers(_stack(protos, lambda p: p.transfer.p_fin), probe_z)
        return _bilinear(probe, table, initial), dropped_in + dropped_fin
    own = "AB".index(subsystem)
    other = "AB"[1 - own]
    table = _stack(protos, lambda p: p.transfer.local)
    powered, dropped_in = _powers(_stack(protos, lambda p: p.tables[subsystem].p_in), initial_z)
    spectator, _ = _powers(_stack(protos, lambda p: p.tables[other].p_in), np.ones(1))
    probe, dropped_fin = _powers(_stack(protos, lambda p: p.tables[subsystem].p_ref), probe_z)
    # bipartite_obs is (A_in, B_in, A_fin, B_fin)
    unmeasured = np.ones(protos[0].bipartite_obs[3 - own].n_outcomes)
    order = 1 if subsystem == "A" else -1  # A is the first Kronecker factor
    initial = _kron_weights(*(powered, spectator)[::order])
    probe = _kron_weights(*(probe, unmeasured)[::order])
    return _bilinear(probe, table, initial), dropped_in + dropped_fin


def char_function(protos, subsystem: str, lam):
    """Characteristic function G_C(lam) evaluated via the operator trace form.

    ``protos`` is one protocol or a list or tuple of them (see
    :func:`core._one_or_many`), ``lam`` a scalar or a 1-D array of
    parameter values. With rank-one projectors both powered operators are
    diagonal in the measurement bases, so G_C(lam) = sum_{k, m} q_k(lam)
    T_C[k, m] r_m(lam), with q and r the powered outcome weights and T_C the
    protocol's :attr:`~TwoTimeProtocol.transfer` table, built once per
    protocol (for every protocol that lacks it, in one stacked channel
    application per shape group). Protocols with equal outcome counts are
    evaluated together: the temporaries are ``(P, N, n)`` weight stacks and
    their ``(P, N, n_fin, n_in)`` products with the tables.
    Returns an extended-precision complex scalar or array shaped like
    ``lam``, or for many protocols one such row each, with the bits of its
    lone call. Every projector involved must be rank one; ``ValueError``
    otherwise. One :class:`DegenerateSupportWarning` per call reports the
    zero-probability outcomes dropped over all protocols and parameter
    values.
    """
    protos, many = _one_or_many(protos)
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim > 1:
        raise ValueError("parameter values must be a scalar or a 1-D array")
    for proto in protos:
        _check_subsystem(proto, subsystem)
    _fill(protos, "transfer", _transfer_tables)
    stack = lam.reshape(-1)
    probe_z, initial_z = -1j * stack, 1 + 1j * stack
    values = np.empty((len(protos), stack.size), dtype=core.extended_complex())
    dropped = 0
    # equal table shapes give equal outcome counts on every side
    for rows in _groups(protos, lambda p: tuple(t.p_fwd.shape for t in p.tables.values())):
        values[rows], count = _chi_rows([protos[i] for i in rows], subsystem, probe_z, initial_z)
        dropped += count
    _warn_dropped(dropped, len(protos) * stack.size)
    values = values.reshape((len(protos),) + lam.shape)
    return values if many else values[0][()]


def _real_values(value: np.ndarray):
    """The real part of chi values as a fresh extended-precision array;
    ``ArithmeticError`` reports the value with the largest imaginary residue
    when any exceeds its tolerance."""
    value = np.asarray(value)
    residue = np.abs(value.imag)
    excess = residue > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(value.real))
    if np.any(excess):
        worst = value.imag.flat[int(np.argmax(np.where(excess, residue, -1.0)))]
        raise ArithmeticError(f"moment-generating value has imaginary residue {worst:.3e}")
    return value.real.copy()


def moment_generating(protos, subsystem: str, phi):
    """chi_C(phi) = G_C(i phi) = <exp(-phi sigma_C)> for real phi.

    One :func:`char_function` call on one protocol or many and on a scalar
    or 1-D array of nodes, answered in the same kind and shape in extended
    precision, not narrowed to float64 (see :data:`core.EXTENDED`).
    ``ArithmeticError`` reports the node with the largest imaginary residue
    over all protocols when any exceeds its tolerance.
    """
    return _real_values(char_function(protos, subsystem, 1j * np.asarray(phi, dtype=float)))[()]


def simulate_measurement_path(proto: TwoTimeProtocol, subsystem: str, phi: float) -> float:
    """chi_C(phi) via the occupation-probability measurement procedure.

    Step 1 yields the final outcome probabilities of the undeformed protocol;
    step 2 prepares the normalised power-deformed initial state (its
    normalisation constant is tracked and folded back in); step 3 combines the
    measured occupation probabilities of the evolved deformed state with
    powers of the step-1 probabilities. The deformed state and the powers
    follow the operator form's zero-outcome convention and extended precision,
    with one :class:`DegenerateSupportWarning` for the dropped terms.
    """
    _check_subsystem(proto, subsystem)
    deformed, dropped_in = _initial_state(proto, subsystem, np.array([1.0 - phi]))
    weights, dropped_ref = _powers(proto.tables[subsystem].p_ref, np.array([phi]))
    _warn_dropped(dropped_in + dropped_ref, 1)
    deformed = deformed[0]
    norm = np.trace(deformed).real
    evolved = proto.channel.apply_matrix(deformed / norm)
    occupation = _outcome_probs(proto.obs_fin.projectors, evolved)
    weights = weights.real[0]
    if subsystem != "A-B":
        # occupations of the joint final outcomes (k, l), indexed k * n_b + l
        _, _, oa_fin, ob_fin = proto.bipartite_obs
        occupation = occupation.reshape(oa_fin.n_outcomes, ob_fin.n_outcomes)
        weights = weights.reshape((-1, 1) if subsystem == "A" else (1, -1))
    return float(norm * np.sum(weights * occupation))


@dataclass(frozen=True)
class MeasurementBudget:
    """Occupation-probability measurements needed by the three-step procedure.

    ``step1`` counts the one-off final-population measurement, ``per_node``
    the extra populations read out for each moment-generating evaluation.
    ``direct`` is the cost of estimating the joint outcome probabilities
    instead, which scales quadratically in the outcome count.
    """

    step1: int
    per_node: int
    direct: int

    def total(self, n_nodes: int) -> int:
        return self.step1 + n_nodes * self.per_node


def measurement_budget(subsystem: str, m_a: int, m_b: int) -> MeasurementBudget:
    if subsystem == "A":
        return MeasurementBudget(step1=m_a, per_node=m_a, direct=m_a**2)
    if subsystem == "B":
        return MeasurementBudget(step1=m_b, per_node=m_b, direct=m_b**2)
    if subsystem == "A-B":
        return MeasurementBudget(step1=m_a * m_b, per_node=m_a * m_b, direct=(m_a * m_b) ** 2)
    raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
