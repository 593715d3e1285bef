"""Characteristic and moment-generating functions of the entropy production.

For subsystem ``A`` the characteristic function has the closed operator form

    G_A(lam) = Tr[ (rho_A_tau^{-i lam} x 1_B)  Phi( rho_A_in^{1+i lam} x rho_B_in ) ],

and analogously for ``B`` and for the composite system
``G(lam) = Tr[rho_tau^{-i lam} Phi(rho_in^{1+i lam})]``. Real-parameter
evaluations ``chi(phi) = G(i phi) = <exp(-phi sigma)>`` feed the moment
reconstruction. A second evaluation path mimics the three-step measurement
procedure (prepare a power-deformed initial state, evolve, read occupation
probabilities) and must agree with the operator form.

The powered post-measurement states are sums sum_k p_k^x P_k over the
measured outcome probabilities, so they are assembled directly from the
observable's projectors; the arithmetic runs in 80-bit precision because the
downstream moment extraction amplifies evaluation noise factorially. That
form holds for rank-one projectors only, so both paths reject any other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import EIGENVALUE_CUTOFF, DegenerateSupportWarning, matrix_power, tensor_product
from .protocol import TwoTimeProtocol, _local_dephased, _outcome_probs

SUBSYSTEMS = ("A", "B", "A-B")
IMAG_RESIDUE_TOL = 1e-12


def _cpow(p: float, z: complex) -> np.clongdouble:
    return np.exp(np.clongdouble(z) * np.log(np.longdouble(p)))


def _powered_state(probs, projectors, z: complex) -> np.ndarray:
    """sum_k p_k^z P_k in extended precision; zero outcomes follow the same
    support conventions as :func:`entroprec.core.matrix_power`."""
    dim = projectors[0].shape[0]
    out = np.zeros((dim, dim), dtype=np.clongdouble)
    dropped = 0
    for p, proj in zip(probs, projectors):
        if p > EIGENVALUE_CUTOFF:
            out += _cpow(p, z) * proj.astype(np.clongdouble)
        elif complex(z).real <= 0:
            dropped += 1
    if dropped:
        warnings.warn(
            f"dropped {dropped} zero-probability outcome(s) for exponent {z}",
            DegenerateSupportWarning,
            stacklevel=3,
        )
    return out


def _require_rank_one(*observables) -> None:
    if not all(obs.is_rank_one for obs in observables):
        raise ValueError("chi requires rank-one projective measurements")


def char_function(proto: TwoTimeProtocol, subsystem: str, lam: complex):
    """Characteristic function G_C(lam) evaluated via the operator trace form.

    Returns an extended-precision complex scalar. Every projector involved
    must be rank one; ``ValueError`` otherwise."""
    lam = complex(lam)
    if subsystem == "A-B":
        _require_rank_one(proto.obs_in, proto.obs_fin)
        p_fin = _outcome_probs(
            proto.obs_fin, proto.channel.apply_matrix(proto.states.rho_in.astype(np.clongdouble))
        )
        initial = _powered_state(proto.forward.p_in, proto.obs_in.projectors, 1 + 1j * lam)
        probe = _powered_state(p_fin, proto.obs_fin.projectors, -1j * lam)
        return np.trace(probe @ proto.channel.apply_matrix(initial))
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    marg = proto.marginals  # rejects protocols without local observables
    oa_in, ob_in, oa_fin, ob_fin = proto.bipartite_obs
    _require_rank_one(oa_in, ob_in, oa_fin if subsystem == "A" else ob_fin)
    if subsystem == "A":
        probe = tensor_product(
            _powered_state(marg.p_a_fin, oa_fin.projectors, -1j * lam),
            np.eye(ob_fin.dim),
        )
        initial = tensor_product(
            _powered_state(marg.p_a_in, oa_in.projectors, 1 + 1j * lam),
            _local_dephased(marg.p_b_in, ob_in),
        )
    else:
        probe = tensor_product(
            np.eye(oa_fin.dim),
            _powered_state(marg.p_b_fin, ob_fin.projectors, -1j * lam),
        )
        initial = tensor_product(
            _local_dephased(marg.p_a_in, oa_in),
            _powered_state(marg.p_b_in, ob_in.projectors, 1 + 1j * lam),
        )
    evolved = proto.channel.apply_matrix(initial.astype(np.clongdouble))
    return np.trace(probe.astype(np.clongdouble) @ evolved)


def moment_generating(proto: TwoTimeProtocol, subsystem: str, phi: float):
    """chi_C(phi) = G_C(i phi) = <exp(-phi sigma_C)> for real phi.

    Returns an extended-precision real scalar; the moment extraction
    amplifies data rounding, so the value is not narrowed to float64 here.
    """
    value = char_function(proto, subsystem, 1j * phi)
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
        raise ArithmeticError(
            f"moment-generating value has imaginary residue {value.imag:.3e}"
        )
    return value.real


def simulate_measurement_path(proto: TwoTimeProtocol, subsystem: str, phi: float) -> float:
    """chi_C(phi) via the occupation-probability measurement procedure.

    Step 1 yields the final outcome probabilities of the undeformed protocol;
    step 2 prepares the normalised power-deformed initial state (its
    normalisation constant is tracked and folded back in); step 3 combines the
    measured occupation probabilities of the evolved deformed state with
    powers of the step-1 probabilities.
    """
    if subsystem not in SUBSYSTEMS:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    marg = proto.marginals  # rejects protocols without local observables
    oa_in, ob_in, oa_fin, ob_fin = proto.bipartite_obs
    read_fin = {"A": (oa_fin,), "B": (ob_fin,)}.get(subsystem, (oa_fin, ob_fin))
    _require_rank_one(oa_in, ob_in, *read_fin)
    rho_a_in = _local_dephased(marg.p_a_in, oa_in)
    rho_b_in = _local_dephased(marg.p_b_in, ob_in)

    if subsystem == "A":
        deformed = tensor_product(matrix_power(rho_a_in, 1.0 - phi), rho_b_in)
        weights = marg.p_a_fin[:, None]
    elif subsystem == "B":
        deformed = tensor_product(rho_a_in, matrix_power(rho_b_in, 1.0 - phi))
        weights = marg.p_b_fin[None, :]
    else:
        deformed = matrix_power(tensor_product(rho_a_in, rho_b_in), 1.0 - phi)
        weights = marg.p_c_fin
    norm = np.trace(deformed).real
    evolved = proto.channel.apply_matrix(deformed / norm)
    # occupations of the joint final outcomes (k, l), indexed k * n_b + l
    occupation = _outcome_probs(proto.obs_fin, evolved).reshape(marg.p_c_fin.shape)
    return float(norm * np.sum(weights**phi * occupation))


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
