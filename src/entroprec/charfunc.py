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
the trace run in 80-bit precision because the downstream moment extraction
amplifies evaluation noise factorially. Two steps still round to float64: the
exponent ``1 + i lam`` is formed in complex128 before it is widened (so
``1 - phi`` is rounded for real phi), and the A and B states pass through a
complex128 Kronecker product. Item 1 of ROADMAP.md describes the fix, which
moves the benchmark's pinned values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import EIGENVALUE_CUTOFF, DegenerateSupportWarning, tensor_product
from .protocol import TwoTimeProtocol, _local_observables, _outcome_probs

SUBSYSTEMS = ("A", "B", "A-B")
IMAG_RESIDUE_TOL = 1e-12


def _powers(probs, z: np.ndarray) -> tuple[np.ndarray, int]:
    """p_k^z in extended precision, one row per exponent in ``z`` and one
    column per outcome, and the number of (outcome, exponent) terms dropped.
    An outcome at or below ``EIGENVALUE_CUTOFF`` counts as a zero: its power
    is 0, and it counts as dropped at each exponent with ``Re z <= 0``, where
    the power would diverge. Zero is never raised to a power."""
    p = np.asarray(probs, dtype=np.longdouble)
    z = np.asarray(z).astype(np.clongdouble)
    kept = p > EIGENVALUE_CUTOFF
    powers = np.zeros((z.size, p.size), dtype=np.clongdouble)
    powers[:, kept] = np.exp(z[:, None] * np.log(p[kept]))
    return powers, int(np.count_nonzero(~kept) * np.count_nonzero(z.real <= 0))


def _powered_state(probs, projectors, z: np.ndarray) -> tuple[np.ndarray, int]:
    """The stack sum_k p_k^z P_k, one slice per exponent in ``z``, in extended
    precision, and the number of dropped terms; see :func:`_powers`. The only
    place a dephased state is raised to a power."""
    powers, dropped = _powers(probs, z)
    dim = projectors[0].shape[0]
    out = np.zeros((powers.shape[0], dim, dim), dtype=np.clongdouble)
    for power, proj in zip(powers.T, projectors):
        out += power[:, None, None] * proj.astype(np.clongdouble)
    return out, dropped


def _initial_state(proto: TwoTimeProtocol, subsystem: str, z: np.ndarray):
    """rho_in with the label's factor raised to each power in ``z`` (all of
    it for ``"A-B"``), in extended precision, and the dropped count. Both
    factors are powered from their tables' ``p_in``; the spectator at z = 1."""
    if subsystem == "A-B":
        return _powered_state(proto.forward.p_in, proto.obs_in.projectors, z)
    local = _local_observables(proto)  # (A_in, B_in, A_fin, B_fin)
    own = "AB".index(subsystem)
    other = 1 - own
    powered, dropped = _powered_state(proto.tables[subsystem].p_in, local[own].projectors, z)
    spectator, _ = _powered_state(
        proto.tables["AB"[other]].p_in, local[other].projectors, np.ones(1)
    )
    order = 1 if subsystem == "A" else -1  # A is the first Kronecker factor
    # tensor_product works in complex128; the channel acts in 80-bit
    return tensor_product(*(powered, spectator)[::order]).astype(np.clongdouble), dropped


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


def char_function(proto: TwoTimeProtocol, subsystem: str, lam):
    """Characteristic function G_C(lam) evaluated via the operator trace form.

    ``lam`` is a scalar or a 1-D array of parameter values; all of them are
    evaluated as one stack of powered states, one channel application per
    stack. Returns an extended-precision complex scalar or array of the same
    shape. Every projector involved must be rank one; ``ValueError``
    otherwise. One :class:`DegenerateSupportWarning` per call reports the
    zero-probability outcomes dropped over all parameter values.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim > 1:
        raise ValueError("parameter values must be a scalar or a 1-D array")
    stack = lam.reshape(-1)
    probe_z, initial_z = -1j * stack, 1 + 1j * stack
    if subsystem == "A-B":
        _require_rank_one(proto.obs_in, proto.obs_fin)
        probe, dropped_fin = _powered_state(proto.p_fin_extended, proto.obs_fin.projectors, probe_z)
    elif subsystem in ("A", "B"):
        local = _local_observables(proto)  # (A_in, B_in, A_fin, B_fin)
        own = "AB".index(subsystem)
        other = 1 - own
        _require_rank_one(local[own], local[other], local[own + 2])
        probe, dropped_fin = _powered_state(
            proto.tables[subsystem].p_ref, local[own + 2].projectors, probe_z
        )
        order = 1 if subsystem == "A" else -1  # A is the first Kronecker factor
        probe = tensor_product(*(probe, np.eye(local[other + 2].dim))[::order])
    else:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    initial, dropped_in = _initial_state(proto, subsystem, initial_z)
    _warn_dropped(dropped_in + dropped_fin, stack.size)
    values = np.trace(probe @ proto.channel.apply_matrix(initial), axis1=-2, axis2=-1)
    return values.reshape(lam.shape)[()]


def moment_generating(proto: TwoTimeProtocol, subsystem: str, phi):
    """chi_C(phi) = G_C(i phi) = <exp(-phi sigma_C)> for real phi.

    ``phi`` is a scalar or a 1-D array of nodes, evaluated in one stacked
    :func:`char_function` call. Returns an extended-precision real scalar or
    array; the moment extraction amplifies data rounding, so the values are
    not narrowed to float64 here. ``ArithmeticError`` reports the node with
    the largest imaginary residue when any exceeds its tolerance.
    """
    value = np.asarray(char_function(proto, subsystem, 1j * np.asarray(phi, dtype=float)))
    residue = np.abs(value.imag)
    excess = residue > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(value.real))
    if np.any(excess):
        worst = value.imag.flat[int(np.argmax(np.where(excess, residue, -1.0)))]
        raise ArithmeticError(f"moment-generating value has imaginary residue {worst:.3e}")
    return value.real.copy()[()]


def simulate_measurement_path(proto: TwoTimeProtocol, subsystem: str, phi: float) -> float:
    """chi_C(phi) via the occupation-probability measurement procedure.

    Step 1 yields the final outcome probabilities of the undeformed protocol;
    step 2 prepares the normalised power-deformed initial state (its
    normalisation constant is tracked and folded back in); step 3 combines the
    measured occupation probabilities of the evolved deformed state with
    powers of the step-1 probabilities. The deformed state and the powers
    follow the operator form's zero-outcome convention and 80-bit arithmetic,
    with one :class:`DegenerateSupportWarning` for the dropped terms.
    """
    if subsystem not in SUBSYSTEMS:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    if subsystem == "A-B":
        _require_rank_one(proto.obs_in, proto.obs_fin)
    else:
        oa_in, ob_in, oa_fin, ob_fin = _local_observables(proto)
        _require_rank_one(oa_in, ob_in, oa_fin if subsystem == "A" else ob_fin)
    deformed, dropped_in = _initial_state(proto, subsystem, np.array([1.0 - phi]))
    weights, dropped_ref = _powers(proto.tables[subsystem].p_ref, np.array([phi]))
    _warn_dropped(dropped_in + dropped_ref, 1)
    norm = np.trace(deformed[0]).real
    evolved = proto.channel.apply_matrix(deformed[0] / norm)
    occupation = _outcome_probs(proto.obs_fin.projector_stack, evolved)
    weights = weights.real[0]
    if subsystem != "A-B":
        # occupations of the joint final outcomes (k, l), indexed k * n_b + l
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
