"""Two-time measurement scheme and stochastic entropy production.

Forward process: measure ``obs_in`` on ``rho0``, evolve the post-measurement
ensemble through the channel, measure ``obs_fin``. The backward process starts
from the time-reversed final post-measurement state and runs the reversed
measurements through the time-reversed channel. For unital channels the
entropy production per outcome pair reduces to
``sigma = ln p(in outcome) - ln p(reference outcome)`` with the reference
state fixed to the final post-measurement state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    partial_trace,
    relative_entropy,
    spectral_decomposition,
    tensor_product,
    trace_rho_log_sigma,
    von_neumann_entropy,
)
from .channels import QuantumChannel, TimeReversal, time_reversed

SUPPORT_MERGE_TOL = 1e-10
MASS_DROP_TOL = 1e-15
PRODUCT_TOL = 1e-10


class AbsoluteIrreversibilityWarning(UserWarning):
    """Forward mass landed on a reference outcome of zero probability."""


@dataclass(frozen=True)
class TwoTimeProtocol:
    """One forward/backward measurement experiment.

    ``bipartite_obs`` optionally holds the local observables
    (O_A_in, O_B_in, O_A_fin, O_B_fin); when present, ``rho0`` must carry a
    partition and its post-measurement state must factorise between the
    subsystems. The joint tables and marginals are built once, on first use,
    and shared by every distribution, check and chi evaluation.
    """

    rho0: DensityMatrix
    obs_in: Observable
    obs_fin: Observable
    channel: QuantumChannel
    bipartite_obs: tuple[Observable, Observable, Observable, Observable] | None = None

    def __post_init__(self):
        d = self.rho0.dim
        if self.obs_in.dim != d or self.obs_fin.dim != d or self.channel.dim != d:
            raise ValueError("state, observables and channel dimensions must agree")
        if self.bipartite_obs is not None:
            if self.rho0.partition is None:
                raise ValueError("bipartite observables require a partitioned rho0")
            da, db = self.rho0.partition
            oa_in, ob_in, oa_fin, ob_fin = self.bipartite_obs
            if oa_in.dim != da or oa_fin.dim != da or ob_in.dim != db or ob_fin.dim != db:
                raise ValueError("local observable dimensions must match the partition")
            rho_in = _dephase(self.obs_in, self.rho0.data)
            state = DensityMatrix(rho_in, self.rho0.partition)
            product = tensor_product(partial_trace(state, "A").data, partial_trace(state, "B").data)
            if np.max(np.abs(rho_in - product)) > PRODUCT_TOL:
                raise ValueError("post-measurement state does not factorise between A and B")

    @classmethod
    def bipartite(
        cls,
        rho0: DensityMatrix,
        obs_a_in: Observable,
        obs_b_in: Observable,
        obs_a_fin: Observable,
        obs_b_fin: Observable,
        channel: QuantumChannel,
    ) -> "TwoTimeProtocol":
        return cls(
            rho0=rho0,
            obs_in=obs_a_in.tensor(obs_b_in),
            obs_fin=obs_a_fin.tensor(obs_b_fin),
            channel=channel,
            bipartite_obs=(obs_a_in, obs_b_in, obs_a_fin, obs_b_fin),
        )

    @cached_property
    def forward(self) -> "JointOutcomeTable":
        """Forward joint table, see :func:`forward_joint`."""
        return forward_joint(self)

    @cached_property
    def backward(self) -> "JointOutcomeTable":
        """Forward table plus the reversed-map backward table, see
        :func:`backward_joint`."""
        return backward_joint(self)

    @cached_property
    def marginals(self) -> "BipartiteMarginals":
        """Local and joint outcome probabilities, see :func:`bipartite_marginals`."""
        return bipartite_marginals(self)


@dataclass(frozen=True)
class EntropyDistribution:
    """Discrete distribution of entropy-production values (nats)."""

    support: np.ndarray
    probs: np.ndarray
    label: str = "sigma"
    dropped_outcomes: int = 0
    infinite_mass: float = 0.0

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.shape != probs.shape or support.ndim != 1:
            raise ValueError("support and probs must be matching 1-D arrays")
        order = np.argsort(support)
        support = support[order]
        probs = probs[order]
        if support.size > 1 and np.min(np.diff(support)) <= SUPPORT_MERGE_TOL:
            raise ValueError("support entries must stay distinct after merging")
        if probs.size and probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        total = probs.sum() + self.infinite_mass
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}")
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def moment(self, k: int) -> float:
        return float(np.sum(self.probs * self.support**k))

    def moments(self, k_max: int) -> np.ndarray:
        return np.array([self.moment(k) for k in range(1, k_max + 1)])

    def mgf(self, phi: float) -> float:
        """<exp(-phi sigma)>."""
        return float(np.sum(self.probs * np.exp(-phi * self.support)))

    def char_fn(self, lam: complex) -> complex:
        return complex(np.sum(self.probs * np.exp(1j * lam * self.support)))


def merge_support(values: np.ndarray, masses: np.ndarray, tol: float = SUPPORT_MERGE_TOL):
    """Aggregate masses whose support values coincide within ``tol``."""
    order = np.argsort(values)
    values = np.asarray(values, float)[order]
    masses = np.asarray(masses, float)[order]
    out_vals: list[float] = []
    out_mass: list[float] = []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > tol:
            chunk = slice(start, stop)
            m = masses[chunk].sum()
            if m > 0:
                out_vals.append(float(np.average(values[chunk], weights=masses[chunk])))
            else:
                out_vals.append(float(values[chunk].mean()))
            out_mass.append(float(m))
            start = stop
    return np.array(out_vals), np.array(out_mass)


def convolve_distributions(
    dist_a: EntropyDistribution, dist_b: EntropyDistribution, label: str = "A+B"
) -> EntropyDistribution:
    """Distribution of the sum of two independent entropy productions."""
    sums = (dist_a.support[:, None] + dist_b.support[None, :]).ravel()
    masses = (dist_a.probs[:, None] * dist_b.probs[None, :]).ravel()
    support, probs = merge_support(sums, masses)
    return EntropyDistribution(support, probs, label)


@dataclass(frozen=True)
class JointOutcomeTable:
    """Forward and backward joint outcome probabilities.

    ``p_fwd[k, m]`` is the probability of initial outcome ``m`` followed by
    final outcome ``k``; ``p_bwd[m, k]`` is the backward-process analogue.
    ``p_in`` and ``p_ref`` are the initial-outcome and reference-outcome
    marginals (the reference state being the final post-measurement state).
    The arrays are read-only: a protocol hands its cached tables to every
    caller.
    """

    p_fwd: np.ndarray
    p_in: np.ndarray
    p_ref: np.ndarray
    p_bwd: np.ndarray | None = None

    def __post_init__(self):
        for name in ("p_fwd", "p_in", "p_ref", "p_bwd"):
            if getattr(self, name) is not None:
                array = np.array(getattr(self, name), dtype=float)
                array.flags.writeable = False
                object.__setattr__(self, name, array)
        if self.p_fwd.min() < -1e-12:
            raise ValueError("joint probabilities must be nonnegative")
        if abs(self.p_fwd.sum() - 1.0) > 1e-10:
            raise ValueError(f"forward table sums to {self.p_fwd.sum()!r}")
        if self.p_bwd is not None and abs(self.p_bwd.sum() - 1.0) > 1e-10:
            raise ValueError("backward table must sum to 1")

    def conditional_fwd(self) -> np.ndarray:
        """p(final k | initial m); columns with p_in ~ 0 are set to NaN."""
        p_in = np.where(self.p_in > MASS_DROP_TOL, self.p_in, np.nan)
        return self.p_fwd / p_in[None, :]

    def conditional_bwd(self) -> np.ndarray:
        """p(initial m | reference k); columns with p_ref ~ 0 are set to NaN."""
        if self.p_bwd is None:
            raise ValueError("backward table not filled")
        p_ref = np.where(self.p_ref > MASS_DROP_TOL, self.p_ref, np.nan)
        return self.p_bwd / p_ref[None, :]


def _dephase(obs: Observable, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho, dtype=complex)
    for p in obs.projectors:
        out += p @ rho @ p
    return out


def _outcome_probs(obs: Observable, rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(p @ rho).real for p in obs.projectors])


def _measured_joint(channel: QuantumChannel, rho: np.ndarray, prepare, read) -> np.ndarray:
    """``table[k, m] = Tr[read_k  Phi(prepare_m rho prepare_m)]``, negatives clipped."""
    table = np.zeros((len(read), len(prepare)))
    for m, p_m in enumerate(prepare):
        evolved = channel.apply_matrix(p_m @ rho @ p_m)
        for k, p_k in enumerate(read):
            table[k, m] = np.trace(p_k @ evolved).real
    return np.clip(table, 0.0, None)


def forward_joint(proto: TwoTimeProtocol) -> JointOutcomeTable:
    """Joint outcome table of the forward process.

    ``p_fwd[k, m] = Tr[P_fin_k  Phi(P_in_m rho0 P_in_m)]``.
    """
    rho0 = proto.rho0.data
    p_fwd = _measured_joint(proto.channel, rho0, proto.obs_in.projectors, proto.obs_fin.projectors)
    p_in = _outcome_probs(proto.obs_in, rho0)
    return JointOutcomeTable(p_fwd=p_fwd, p_in=p_in, p_ref=p_fwd.sum(axis=1))


def backward_joint(
    proto: TwoTimeProtocol,
    via: str = "reversed-map",
    theta: TimeReversal | None = None,
) -> JointOutcomeTable:
    """Joint outcome table of the backward process (plus the forward one).

    ``via="reversed-map"`` evaluates
    ``p_bwd[m, k] = Tr[~P_in_m  ~Phi(~P_ref_k ~rho_tau ~P_ref_k)]`` with the
    explicitly time-reversed channel; ``via="conditional-equality"`` instead uses the
    conditional-probability equality valid for unital channels, which needs
    only forward data.
    """
    fwd = proto.forward
    if via == "conditional-equality":
        if not proto.channel.is_unital:
            raise ValueError("the conditional-equality shortcut requires a unital channel")
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(fwd.p_in[None, :] > 0, fwd.p_fwd / fwd.p_in[None, :], 0.0)
        p_bwd = (cond * fwd.p_ref[:, None]).T
    elif via == "reversed-map":
        theta = theta or TimeReversal()
        reversed_channel = time_reversed(proto.channel, theta)
        rho_in = _dephase(proto.obs_in, proto.rho0.data)
        rho_fin = proto.channel.apply_matrix(rho_in)
        rho_tau = _dephase(proto.obs_fin, rho_fin)
        rho_tau_rev = theta.apply_to_state(rho_tau)
        proj_in_rev = [theta.apply_to_state(p) for p in proto.obs_in.projectors]
        proj_ref_rev = [theta.apply_to_state(p) for p in proto.obs_fin.projectors]
        p_bwd = _measured_joint(reversed_channel, rho_tau_rev, proj_ref_rev, proj_in_rev)
    else:
        raise ValueError(f"unknown backward method {via!r}")
    return JointOutcomeTable(p_fwd=fwd.p_fwd, p_in=fwd.p_in, p_ref=fwd.p_ref, p_bwd=p_bwd)


def entropy_samples(table: JointOutcomeTable, label: str = "sigma") -> EntropyDistribution:
    """Entropy-production distribution from a forward outcome table.

    Outcome pairs with forward mass below 1e-15 are dropped (and counted);
    pairs landing on a zero-probability reference outcome are split off into
    ``infinite_mass`` with a warning.
    """
    values: list[float] = []
    masses: list[float] = []
    dropped = 0
    infinite_mass = 0.0
    n_fin, n_in = table.p_fwd.shape
    for k in range(n_fin):
        for m in range(n_in):
            mass = table.p_fwd[k, m]
            if mass <= MASS_DROP_TOL:
                dropped += 1
                continue
            if table.p_in[m] <= MASS_DROP_TOL:
                raise ValueError(
                    f"inconsistent table: forward mass {mass:.3e} from zero-probability "
                    f"initial outcome {m}"
                )
            if table.p_ref[k] <= MASS_DROP_TOL:
                infinite_mass += mass
                continue
            values.append(math.log(table.p_in[m]) - math.log(table.p_ref[k]))
            masses.append(mass)
    if infinite_mass > 0:
        warnings.warn(
            f"absolute irreversibility: mass {infinite_mass:.3e} maps to +inf entropy",
            AbsoluteIrreversibilityWarning,
            stacklevel=2,
        )
    support, probs = merge_support(np.array(values), np.array(masses))
    return EntropyDistribution(support, probs, label, dropped, infinite_mass)


def _protocol_states(proto: TwoTimeProtocol):
    rho_in = _dephase(proto.obs_in, proto.rho0.data)
    rho_fin = proto.channel.apply_matrix(rho_in)
    rho_fin = (rho_fin + rho_fin.conj().T) / 2.0
    rho_tau = _dephase(proto.obs_fin, rho_fin)
    return rho_in, rho_fin, rho_tau


def mean_entropy(proto: TwoTimeProtocol) -> float:
    """Mean entropy production <sigma> = -Tr[rho_fin ln rho_tau] - S(rho_in)."""
    rho_in, rho_fin, rho_tau = _protocol_states(proto)
    return -trace_rho_log_sigma(rho_fin, rho_tau) - von_neumann_entropy(rho_in)


class EntropyBoundResult(NamedTuple):
    relative_entropy: float
    mean_sigma: float
    passed: bool


def entropy_bound_check(proto: TwoTimeProtocol, tol: float = 1e-10) -> EntropyBoundResult:
    """Check 0 <= S(rho_fin || rho_tau) <= <sigma>.

    When the final observable commutes with rho_fin the relative entropy must
    additionally vanish (the second measurement leaves the state untouched).
    """
    rho_in, rho_fin, rho_tau = _protocol_states(proto)
    s_rel = relative_entropy(rho_fin, rho_tau)
    mean_sigma = -trace_rho_log_sigma(rho_fin, rho_tau) - von_neumann_entropy(rho_in)
    passed = -tol <= s_rel <= mean_sigma + tol
    obs_mat = proto.obs_fin.matrix()
    commutator = np.max(np.abs(obs_mat @ rho_fin - rho_fin @ obs_mat))
    if commutator <= 1e-10:
        passed = passed and s_rel <= 1e-10
    return EntropyBoundResult(float(s_rel), float(mean_sigma), bool(passed))


def conditional_equality_deviation(proto: TwoTimeProtocol) -> float:
    """Max |p(fin k | in m) - p(in m | ref k)| with both sides computed
    independently (forward table vs explicitly reversed map)."""
    table = proto.backward
    diff = np.abs(table.conditional_fwd() - table.conditional_bwd().T)
    if np.all(np.isnan(diff)):
        return 0.0
    return float(np.nanmax(diff))


def _mass_at(dist: EntropyDistribution, x: float) -> float:
    """Probability of the support point of ``dist`` at ``x``; 0 if there is none."""
    idx = np.searchsorted(dist.support, x)
    for i in (idx - 1, idx):
        if 0 <= i < len(dist.support) and abs(dist.support[i] - x) <= SUPPORT_MERGE_TOL:
            return float(dist.probs[i])
    return 0.0


def crooks_check(proto: TwoTimeProtocol) -> float:
    """Max deviation |Prob(sigma_bwd = -G) - exp(-G) Prob(sigma = G)|.

    The backward distribution is built from the explicitly reversed map, so
    the deviation measures how well the fluctuation relation survives the
    numerics of the channel representation. Its table swaps the roles of the
    initial and reference outcomes: ``sigma_bwd = ln p_ref[k] - ln p_in[m]``.
    """
    table = proto.backward
    fwd = entropy_samples(table)
    bwd = entropy_samples(JointOutcomeTable(table.p_bwd, table.p_ref, table.p_in))
    deviation = 0.0
    for g in np.union1d(fwd.support, -bwd.support):
        deviation = max(deviation, abs(_mass_at(bwd, -g) - math.exp(-g) * _mass_at(fwd, g)))
    return deviation


@dataclass(frozen=True)
class BipartiteMarginals:
    """Outcome probabilities of the local and joint measurements."""

    p_a_in: np.ndarray
    p_b_in: np.ndarray
    p_a_fin: np.ndarray
    p_b_fin: np.ndarray
    p_c_fin: np.ndarray  # joint final, indexed [k, l]


def bipartite_marginals(proto: TwoTimeProtocol) -> BipartiteMarginals:
    if proto.bipartite_obs is None:
        raise ValueError("protocol carries no bipartite observables")
    oa_in, ob_in, oa_fin, ob_fin = proto.bipartite_obs
    da, db = proto.rho0.partition
    rho_in = _dephase(proto.obs_in, proto.rho0.data)
    rho_fin = proto.channel.apply_matrix(rho_in)
    eye_a, eye_b = np.eye(da), np.eye(db)
    p_a_in = np.array(
        [np.trace(tensor_product(p, eye_b) @ proto.rho0.data).real for p in oa_in.projectors]
    )
    p_b_in = np.array(
        [np.trace(tensor_product(eye_a, p) @ proto.rho0.data).real for p in ob_in.projectors]
    )
    p_a_fin = np.array(
        [np.trace(tensor_product(p, eye_b) @ rho_fin).real for p in oa_fin.projectors]
    )
    p_b_fin = np.array(
        [np.trace(tensor_product(eye_a, p) @ rho_fin).real for p in ob_fin.projectors]
    )
    p_c_fin = np.zeros((oa_fin.n_outcomes, ob_fin.n_outcomes))
    for k, pa in enumerate(oa_fin.projectors):
        for l, pb in enumerate(ob_fin.projectors):
            p_c_fin[k, l] = np.trace(tensor_product(pa, pb) @ rho_fin).real
    return BipartiteMarginals(p_a_in, p_b_in, p_a_fin, p_b_fin, np.clip(p_c_fin, 0.0, None))


def bipartite_distributions(proto: TwoTimeProtocol):
    """Entropy-production distributions (dist_A, dist_B, dist_AB, dist_AplusB).

    All three measured distributions come from the composite forward table
    ``p_fwd[(k, l), (m, h)]``: dist_A and dist_B from its local sums, dist_AB
    from the table itself (the correlated global measurement). dist_AplusB is
    the convolution of the two local distributions.
    """
    marg = proto.marginals  # rejects protocols without local observables
    n_a_in, n_b_in, n_a_fin, n_b_fin = (obs.n_outcomes for obs in proto.bipartite_obs)
    p_fwd = proto.forward.p_fwd.reshape(n_a_fin, n_b_fin, n_a_in, n_b_in)
    dist_a = entropy_samples(
        JointOutcomeTable(p_fwd.sum(axis=(1, 3)), marg.p_a_in, marg.p_a_fin), label="A"
    )
    dist_b = entropy_samples(
        JointOutcomeTable(p_fwd.sum(axis=(0, 2)), marg.p_b_in, marg.p_b_fin), label="B"
    )
    dist_ab = entropy_samples(proto.forward, label="A-B")
    return dist_a, dist_b, dist_ab, convolve_distributions(dist_a, dist_b, label="A+B")


def _local_dephased(probs: np.ndarray, obs: Observable) -> np.ndarray:
    out = np.zeros((obs.dim, obs.dim), dtype=complex)
    for p, proj in zip(probs, obs.projectors):
        out += p * proj
    return out


class WitnessResult(NamedTuple):
    moment_gaps: np.ndarray
    distinct: bool


def correlation_witness(
    dist_ab: EntropyDistribution, dist_conv: EntropyDistribution, k_max: int = 4
) -> WitnessResult:
    """Moment gaps |<sigma_AB^k> - <sigma_A+B^k>| for k = 1..k_max.

    A nonzero gap certifies that the pre-measurement state was correlated;
    the converse does not hold (local measurements can erase quantum
    correlations).
    """
    gaps = np.abs(dist_ab.moments(k_max) - dist_conv.moments(k_max))
    return WitnessResult(gaps, bool(np.any(gaps > 1e-8)))


@dataclass(frozen=True)
class ThermoReport:
    """Energetics of a protocol run from a thermal initial state."""

    mean_work: float
    free_energy_delta: float
    beta: float
    mean_heat: float
    mean_sigma: float
    rel_entropy_thermal: float  # S(rho_fin || thermal state of the final Hamiltonian)


def _gibbs(h: np.ndarray, beta: float) -> tuple[DensityMatrix, float, np.ndarray]:
    """Thermal state, free energy and an eigenbasis of ``h``."""
    dec = spectral_decomposition(h)
    energies = dec.eigenvalues
    weights = np.exp(-beta * (energies - energies.min()))
    z = weights.sum()
    log_z = math.log(z) - beta * energies.min()
    probs = weights / z
    rho = (dec.eigenvectors * probs) @ dec.eigenvectors.conj().T
    return DensityMatrix(rho), -log_z / beta, dec.eigenvectors


def second_law_report(
    proto: TwoTimeProtocol, h0: np.ndarray, h_tau: np.ndarray, beta: float
) -> ThermoReport:
    """Work/free-energy account for a thermal initial state.

    The initial state is replaced by the Gibbs state of ``h0`` at inverse
    temperature ``beta`` and the initial measurement by a rank-1 eigenbasis of
    ``h0`` (which leaves the Gibbs state untouched); channel and final
    observable are taken from ``proto``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    h0 = np.asarray(h0, dtype=complex)
    h_tau = np.asarray(h_tau, dtype=complex)
    rho_in_dm, f0, basis = _gibbs(h0, beta)
    obs_in = Observable.from_basis(basis)
    thermal_proto = TwoTimeProtocol(
        rho0=rho_in_dm, obs_in=obs_in, obs_fin=proto.obs_fin, channel=proto.channel
    )
    rho_in, rho_fin, _ = _protocol_states(thermal_proto)
    rho_tau_th, f_tau, _ = _gibbs(h_tau, beta)
    mean_work = float(np.trace(rho_fin @ h_tau).real - np.trace(rho_in @ h0).real)
    mean_heat = float(np.trace((rho_fin - rho_in) @ h0).real)
    mean_sigma = mean_entropy(thermal_proto)
    s_rel_th = relative_entropy(rho_fin, rho_tau_th.data)
    return ThermoReport(
        mean_work=mean_work,
        free_energy_delta=float(f_tau - f0),
        beta=float(beta),
        mean_heat=mean_heat,
        mean_sigma=float(mean_sigma),
        rel_entropy_thermal=float(s_rel_th),
    )


def ift_deviation(dist: EntropyDistribution) -> float:
    """|<exp(-sigma)> - 1|: the integral fluctuation theorem residual."""
    return abs(dist.mgf(1.0) - 1.0)
