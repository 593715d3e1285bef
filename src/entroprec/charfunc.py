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
probabilities of each label's forward table (:attr:`TwoTimeProtocol.tables`),
so they are assembled directly from the observable's projectors. That form
holds for rank-one projectors only, so both paths reject any other. Both build
these states with :func:`_powered_state` (the unpowered spectator factor of A
and B is its z = 1 case) and weight the reference outcomes with the same
powers, so they share one zero-outcome convention: a probability at or below
``EIGENVALUE_CUTOFF`` contributes nothing, and one
:class:`DegenerateSupportWarning` per call counts the terms dropped at
exponents with non-positive real part. The powers, the channel application and
the trace run in :data:`core.EXTENDED` precision. Two steps still round to
float64: the exponent ``1 + i lam`` is formed in complex128 before it is
widened (so ``1 - phi`` is rounded for real phi), and the A and B states pass
through a complex128 Kronecker product. Item 3 of ROADMAP.md describes the
fix, which moves the benchmark's pinned values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .channels import apply_kraus
from .core import EIGENVALUE_CUTOFF, DegenerateSupportWarning, tensor_product
from .protocol import TwoTimeProtocol, _local_observables, _outcome_probs, _shape_groups, _stack

SUBSYSTEMS = ("A", "B", "A-B")
IMAG_RESIDUE_TOL = 1e-12
# (protocol, parameter value) pairs evaluated as one stack. Each pair holds a
# few extended-precision d x d matrices at a time; larger stacks only raise
# the peak memory of a sweep, not its speed.
STACK_PAIRS = 256


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


def _initial_state(protos, subsystem: str, z: np.ndarray):
    """rho_in with the label's factor raised to each power in ``z`` (all of
    it for ``"A-B"``), in extended precision, one ``(len(z), d, d)`` stack
    per protocol of one shape group, and the dropped count. Both factors are
    powered from their tables' ``p_in``; the spectator at z = 1."""
    if subsystem == "A-B":
        return _powered_state(
            _stack(protos, lambda p: p.forward.p_in),
            _stack(protos, lambda p: p.obs_in.projectors),
            z,
        )
    own = "AB".index(subsystem)
    other = 1 - own
    # bipartite_obs is (A_in, B_in, A_fin, B_fin)
    powered, dropped = _powered_state(
        _stack(protos, lambda p: p.tables[subsystem].p_in),
        _stack(protos, lambda p: p.bipartite_obs[own].projectors),
        z,
    )
    spectator, _ = _powered_state(
        _stack(protos, lambda p: p.tables["AB"[other]].p_in),
        _stack(protos, lambda p: p.bipartite_obs[other].projectors),
        np.ones(1),
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


def _require_rank_one(*observables) -> None:
    if not all(obs.is_rank_one for obs in observables):
        raise ValueError("chi requires rank-one projective measurements")


def _check_subsystem(proto: TwoTimeProtocol, subsystem: str) -> None:
    """``ValueError`` unless chi of ``subsystem`` is defined on ``proto``:
    a known label, a bipartite protocol for A and B, rank-one projectors."""
    if subsystem == "A-B":
        _require_rank_one(proto.obs_in, proto.obs_fin)
    elif subsystem in ("A", "B"):
        local = _local_observables(proto)  # (A_in, B_in, A_fin, B_fin)
        own = "AB".index(subsystem)
        _require_rank_one(local[own], local[1 - own], local[own + 2])
    else:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")


def _chi_group(protos, subsystem: str, probe_z: np.ndarray, initial_z: np.ndarray):
    """G_C at the exponents of every protocol of one shape group, shape
    ``(len(protos), len(probe_z))``, and the dropped count; one channel
    application for the whole group."""
    initial, dropped_in = _initial_state(protos, subsystem, initial_z)
    evolved = apply_kraus(_stack(protos, lambda p: p.channel.kraus), initial)
    if subsystem == "A-B":
        probe, dropped_fin = _powered_state(
            _stack(protos, lambda p: p.p_fin_extended),
            _stack(protos, lambda p: p.obs_fin.projectors),
            probe_z,
        )
    else:
        own = "AB".index(subsystem)
        probe, dropped_fin = _powered_state(
            _stack(protos, lambda p: p.tables[subsystem].p_ref),
            _stack(protos, lambda p: p.bipartite_obs[own + 2].projectors),
            probe_z,
        )
        order = 1 if subsystem == "A" else -1  # A is the first Kronecker factor
        eye = np.eye(protos[0].bipartite_obs[3 - own].dim)
        probe = tensor_product(*(probe, eye)[::order])
    return np.trace(probe @ evolved, axis1=-2, axis2=-1), dropped_in + dropped_fin


def char_function_stack(protos, subsystem: str, lam):
    """Characteristic function G_C(lam) of each protocol in ``protos``, via
    the operator trace form.

    ``lam`` is a scalar or a 1-D array of parameter values. Protocols with
    equal Kraus and projector shapes are evaluated together, in stacks of
    powered states of at most ``STACK_PAIRS`` (protocol, parameter value)
    pairs (one protocol at least), each with one channel application; so the
    temporaries stop growing with the number of protocols at that cap.
    Returns an extended-precision complex array of shape
    ``(len(protos),) + shape of lam``; each row has the bits that
    :func:`char_function` gives its protocol alone. Every projector involved
    must be rank one; ``ValueError`` otherwise. One
    :class:`DegenerateSupportWarning` per call reports the zero-probability
    outcomes dropped over all protocols and parameter values.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim > 1:
        raise ValueError("parameter values must be a scalar or a 1-D array")
    protos = list(protos)
    for proto in protos:
        _check_subsystem(proto, subsystem)
    stack = lam.reshape(-1)
    probe_z, initial_z = -1j * stack, 1 + 1j * stack
    values = np.empty((len(protos), stack.size), dtype=core.extended_complex())
    dropped = 0
    size = max(1, STACK_PAIRS // max(1, stack.size))  # protocols per stack
    for group in _shape_groups(protos):
        for start in range(0, len(group), size):
            rows = group[start : start + size]
            group_protos = [protos[i] for i in rows]
            values[rows], count = _chi_group(group_protos, subsystem, probe_z, initial_z)
            dropped += count
    _warn_dropped(dropped, len(protos) * stack.size)
    return values.reshape((len(protos),) + lam.shape)


def char_function(proto: TwoTimeProtocol, subsystem: str, lam):
    """Characteristic function G_C(lam) evaluated via the operator trace form.

    ``lam`` is a scalar or a 1-D array of parameter values; all of them are
    evaluated as one stack of powered states, one channel application per
    stack. Returns an extended-precision complex scalar or array of the same
    shape. The one-protocol case of :func:`char_function_stack`, whose
    refusals and warning it shares.
    """
    return char_function_stack([proto], subsystem, lam)[0][()]


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


def moment_generating_stack(protos, subsystem: str, phi):
    """chi_C(phi) = <exp(-phi sigma_C)> of each protocol in ``protos``, for
    real ``phi`` (a scalar or a 1-D array of nodes), in one
    :func:`char_function_stack` call. Returns an extended-precision real
    array of shape ``(len(protos),) + shape of phi``, not narrowed to
    float64 (see :data:`core.EXTENDED`). ``ArithmeticError`` reports the
    node with the largest imaginary residue over all protocols when any
    exceeds its tolerance.
    """
    return _real_values(char_function_stack(protos, subsystem, 1j * np.asarray(phi, dtype=float)))


def moment_generating(proto: TwoTimeProtocol, subsystem: str, phi):
    """chi_C(phi) = G_C(i phi) = <exp(-phi sigma_C)> for real phi.

    ``phi`` is a scalar or a 1-D array of nodes, evaluated in one stacked
    :func:`char_function` call. Returns an extended-precision real scalar or
    array, not narrowed to float64 (see :data:`core.EXTENDED`); the
    one-protocol case of :func:`moment_generating_stack`.
    ``ArithmeticError`` reports the node with the largest imaginary residue
    when any exceeds its tolerance.
    """
    return _real_values(char_function(proto, subsystem, 1j * np.asarray(phi, dtype=float)))[()]


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
    deformed, dropped_in = _initial_state([proto], subsystem, np.array([1.0 - phi]))
    weights, dropped_ref = _powers(proto.tables[subsystem].p_ref, np.array([phi]))
    _warn_dropped(dropped_in + dropped_ref, 1)
    deformed = deformed[0, 0]
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
