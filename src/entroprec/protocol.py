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
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    _product_projectors,
    _reduced,
    relative_entropy,
    spectral_decomposition,
    tensor_product,
    trace_rho_log_sigma,
    von_neumann_entropy,
)
from .channels import QuantumChannel, TimeReversal, apply_kraus, time_reversed

SUPPORT_MERGE_TOL = 1e-10
MASS_DROP_TOL = 1e-15
PRODUCT_TOL = 1e-10


class AbsoluteIrreversibilityWarning(UserWarning):
    """Forward mass landed on a reference outcome of zero probability."""


class ProtocolStates(NamedTuple):
    """The state after the first measurement, the evolved state Phi(rho_in)
    (Hermitised) and the reference state after the second measurement."""

    rho_in: np.ndarray
    rho_fin: np.ndarray
    rho_tau: np.ndarray


@dataclass(frozen=True)
class TwoTimeProtocol:
    """One forward/backward measurement experiment.

    ``bipartite_obs`` optionally holds the local observables
    (O_A_in, O_B_in, O_A_fin, O_B_fin); when present, ``rho0`` must carry a
    partition, ``obs_in``/``obs_fin`` must be their tensor products and the
    post-measurement state must factorise between the subsystems. The
    post-measurement state is built on construction; the other protocol
    states, the joint tables and the distributions are built once, on first
    use (or for many protocols at once by :func:`stack_tables`), and shared
    by every check and chi evaluation.
    """

    rho0: DensityMatrix
    obs_in: Observable
    obs_fin: Observable
    channel: QuantumChannel
    bipartite_obs: tuple[Observable, Observable, Observable, Observable] | None = None
    _rho_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.rho0.dim
        if self.obs_in.dim != d or self.obs_fin.dim != d or self.channel.dim != d:
            raise ValueError("state, observables and channel dimensions must agree")
        rho_in = _dephase(self.obs_in.projectors, self.rho0.data)
        rho_in.flags.writeable = False
        object.__setattr__(self, "_rho_in", rho_in)
        if self.bipartite_obs is not None:
            if self.rho0.partition is None:
                raise ValueError("bipartite observables require a partitioned rho0")
            da, db = self.rho0.partition
            oa_in, ob_in, oa_fin, ob_fin = self.bipartite_obs
            if oa_in.dim != da or oa_fin.dim != da or ob_in.dim != db or ob_fin.dim != db:
                raise ValueError("local observable dimensions must match the partition")
            for obs, a, b in ((self.obs_in, oa_in, ob_in), (self.obs_fin, oa_fin, ob_fin)):
                # the projectors of a.tensor(b), without its O(n^2) re-validation
                products = _product_projectors(a, b)
                if len(products) != obs.n_outcomes or np.max(
                    np.abs(obs.projectors - products)
                ) > PRODUCT_TOL:
                    raise ValueError("obs_in/obs_fin must be tensor products of bipartite_obs")
            rho_a, rho_b = (_reduced(rho_in, self.rho0.partition, a) for a in (True, False))
            if np.max(np.abs(rho_in - tensor_product(rho_a, rho_b))) > PRODUCT_TOL:
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

    def _on_channel(self, channel: QuantumChannel) -> "TwoTimeProtocol":
        """This protocol on ``channel`` instead: it shares rho0, the
        observables and rho_in, which this protocol's construction validated,
        so only the channel's dimension is checked. Nothing built on the old
        channel is carried over."""
        if channel.dim != self.rho0.dim:
            raise ValueError("state, observables and channel dimensions must agree")
        proto = object.__new__(type(self))
        vars(proto).update({f.name: getattr(self, f.name) for f in fields(self)}, channel=channel)
        return proto

    @cached_property
    def states(self) -> ProtocolStates:
        """rho_in, rho_fin and rho_tau, read-only; see :func:`_states`."""
        return _states([self])[0]

    @property
    def forward(self) -> "JointOutcomeTable":
        """Joint outcome table of the forward process, ``tables["A-B"]``:
        ``p_fwd[k, m] = Tr[P_fin_k  Phi(P_in_m rho0 P_in_m)]``."""
        return self.tables["A-B"]

    @cached_property
    def backward(self) -> "JointOutcomeTable":
        """Joint outcome table of the backward process, read-only.

        The backward process prepares the reference outcomes and reads the
        initial ones: its ``p_fwd[m, k] = Tr[~P_in_m  ~Phi(~P_ref_k ~rho_tau
        ~P_ref_k)]`` with the explicitly time-reversed channel, so that it
        stays independent of the forward table it is checked against. Its
        initial marginal is the forward ``p_ref`` and its reference marginal
        the forward ``p_in``, so :func:`entropy_samples` reads ``sigma_bwd =
        ln p_ref[k] - ln p_in[m]`` from it.
        """
        return _backward_tables([self])[0]

    @cached_property
    def tables(self) -> "MappingProxyType[str, JointOutcomeTable]":
        """Forward joint table of each label, read-only: ``"A-B"`` is
        :attr:`forward`. A bipartite protocol adds ``"A"`` and ``"B"``, the
        axis sums of the composite table, whose outcomes are indexed
        ``m * n_b + h`` (see :meth:`Observable.tensor`); their reference
        marginals sum the composite outcome probabilities of ``rho_fin``."""
        return _tables([self])[0]

    @cached_property
    def distributions(self) -> "MappingProxyType[str, EntropyDistribution]":
        """Entropy-production distribution of each of :attr:`tables`,
        read-only; a bipartite protocol adds ``"A+B"``, the convolution of the
        A and B distributions."""
        dists = {label: entropy_samples(table, label) for label, table in self.tables.items()}
        if "A" in dists:
            dists["A+B"] = convolve_distributions(dists["A"], dists["B"])
        return MappingProxyType(dists)


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
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise ValueError("support and probs must be finite")
        gaps = support[1:] - support[:-1]
        if (gaps > 0).all():  # already sorted, as merge_support leaves it
            support, probs = support.copy(), probs.copy()
        else:
            order = np.argsort(support)
            support, probs = support[order], probs[order]
            gaps = support[1:] - support[:-1]
        if gaps.size and gaps.min() <= SUPPORT_MERGE_TOL:
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

    @cached_property
    def _moment_memo(self) -> dict[int, float]:
        return {}

    def moment(self, k: int) -> float:
        """<sigma^k>, computed once per instance and order (see
        :func:`stack_moments`)."""
        if k not in self._moment_memo:
            stack_moments([self], (k,))
        return self._moment_memo[k]

    def moments(self, k_max: int) -> np.ndarray:
        """<sigma^k> for k = 1..k_max."""
        orders = range(1, k_max + 1)
        memo = self._moment_memo
        if not memo.keys() >= set(orders):
            stack_moments([self], orders)
        return np.array([memo[k] for k in orders])

    def mgf(self, phi: float) -> float:
        """<exp(-phi sigma)>."""
        return float(np.sum(self.probs * np.exp(-phi * self.support)))

    def char_fn(self, lam: complex) -> complex:
        return complex(np.sum(self.probs * np.exp(1j * lam * self.support)))


def stack_moments(dists, orders) -> None:
    """Memoise <sigma^k> = sum(probs * support**k) of each distribution for
    each k of ``orders``, where it is not memoised yet: the powers and
    products of all of them on their padded rows, and one row sum per
    support size (see :func:`_row_sums`), so each value has the bits of its
    own 1-D sum."""
    orders = tuple(orders)
    wanted = set(orders)
    todo = [d for d in dists if not d._moment_memo.keys() >= wanted]
    if not todo:
        return
    supports = _padded([d.support for d in todo], 0.0)
    terms = _padded([d.probs for d in todo], 0.0)[:, None, :] * np.stack(
        [supports**k for k in orders], axis=1
    )
    sums = _row_sums(terms, np.array([d.support.size for d in todo]))
    for dist, values in zip(todo, sums.tolist()):
        for k, value in zip(orders, values):
            dist._moment_memo.setdefault(k, value)


def merge_support(values: np.ndarray, masses: np.ndarray):
    """Aggregate masses whose neighbouring support values lie within
    ``SUPPORT_MERGE_TOL``.

    A cluster takes its total mass and its mass-weighted mean (``np.average``'s
    ``sum(v * m) / sum(m)``), or its plain mean when it has no mass. Lone
    values, the common case, get the same arithmetic in one vectorised pass;
    each larger cluster sums its own slice. ``np.add.reduceat`` would do all
    clusters at once but rounds its sums differently.
    """
    order = np.argsort(values)
    values = np.asarray(values, float)[order]
    masses = np.asarray(masses, float)[order]
    # cluster i is values[bounds[i]:bounds[i + 1]]; a gap above the tolerance
    # between neighbours starts a new one
    gap = np.ones(values.size + 1, dtype=bool)
    np.greater(values[1:] - values[:-1], SUPPORT_MERGE_TOL, out=gap[1:-1])
    bounds = gap.nonzero()[0]
    # as if each were a cluster of one: a one-element sum is 0 + x, which
    # turns -0.0 into +0.0
    out_mass = 0.0 + masses[bounds[:-1]]
    out_vals = 0.0 + values[bounds[:-1]]
    np.divide(0.0 + out_vals * out_mass, out_mass, out=out_vals, where=out_mass > 0)
    for i in np.flatnonzero(bounds[1:] - bounds[:-1] > 1).tolist():
        chunk = slice(bounds[i], bounds[i + 1])
        out_mass[i] = m = masses[chunk].sum()
        out_vals[i] = (values[chunk] * masses[chunk]).sum() / m if m > 0 else values[chunk].mean()
    return out_vals, out_mass


def convolve_distributions(
    dist_a: EntropyDistribution, dist_b: EntropyDistribution
) -> EntropyDistribution:
    """Distribution of the sum of two independent entropy productions,
    labelled ``"A+B"``."""
    sums = (dist_a.support[:, None] + dist_b.support[None, :]).ravel()
    masses = (dist_a.probs[:, None] * dist_b.probs[None, :]).ravel()
    support, probs = merge_support(sums, masses)
    return EntropyDistribution(support, probs, "A+B")


@dataclass(frozen=True)
class JointOutcomeTable:
    """Joint outcome probabilities of one two-time process.

    ``p_fwd[k, m]`` is the probability of initial outcome ``m`` followed by
    final outcome ``k``. ``p_in`` and ``p_ref`` are the initial-outcome and
    reference-outcome marginals (the reference state being the final
    post-measurement state). The backward process has a table of the same
    form (:attr:`TwoTimeProtocol.backward`). The arrays are read-only: a
    protocol hands its cached tables to every caller.
    """

    p_fwd: np.ndarray
    p_in: np.ndarray
    p_ref: np.ndarray

    def __post_init__(self):
        for name in ("p_fwd", "p_in", "p_ref"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.p_fwd.min() < -1e-12:
            raise ValueError("joint probabilities must be nonnegative")
        if abs(self.p_fwd.sum() - 1.0) > 1e-10:
            raise ValueError(f"joint table sums to {self.p_fwd.sum()!r}")


def _dephase(projectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_m P_m rho P_m for a projector stack ``(..., n, d, d)`` and states
    ``(..., d, d)``; the sum over the outcome axis adds the terms in order."""
    return np.sum(projectors @ np.expand_dims(rho, -3) @ projectors, axis=-3)


def _outcome_probs(projectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[P rho] for each slice P of a projector stack ``(..., n, d, d)``, on
    states ``(..., d, d)``."""
    return np.trace(projectors @ np.expand_dims(rho, -3), axis1=-2, axis2=-1).real


def _measured_joint(kraus: np.ndarray, rho: np.ndarray, prepare, read) -> np.ndarray:
    """``table[k, m] = Tr[read_k  Phi(prepare_m rho prepare_m)]``, negatives
    clipped, with Phi the Kraus set ``kraus``. ``prepare`` and ``read`` are
    projector stacks; the channel is applied once, to the stack of prepared
    states. Leading axes of all four arguments are a batch of tables."""
    evolved = apply_kraus(kraus, prepare @ np.expand_dims(rho, -3) @ prepare)
    table = np.trace(
        np.expand_dims(read, -3) @ np.expand_dims(evolved, -4), axis1=-2, axis2=-1
    ).real
    return np.clip(table, 0.0, None)


def _stack(protos, read) -> np.ndarray:
    """``read(proto)`` of each protocol, stacked along a new leading axis."""
    return np.stack([read(proto) for proto in protos])


def _groups(items, key) -> list[list[int]]:
    """Indices of ``items`` grouped by ``key(item)``, in first-seen order."""
    groups: dict[object, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return list(groups.values())


def _shape_groups(protos) -> list[list[int]]:
    """Indices of ``protos`` grouped by the shapes of their Kraus and
    projector stacks, in first-seen order. A group stacks without padding:
    zero Kraus operators would add terms, which can flip the sign of a zero."""

    def key(proto):
        local = proto.bipartite_obs and tuple(o.projectors.shape for o in proto.bipartite_obs)
        return (
            proto.channel.kraus.shape,
            proto.obs_in.projectors.shape,
            proto.obs_fin.projectors.shape,
            local,
        )

    return _groups(protos, key)


def _padded(rows, fill: float) -> np.ndarray:
    """1-D arrays as the rows of one ``(len(rows), K)`` array, K the length
    of the longest (at least 1), each padded with ``fill``."""
    out = np.full((len(rows), max(1, max((len(r) for r in rows), default=0))), fill)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sums of the first ``counts[i]`` entries along the last axis of
    each ``terms[i]``, as ``.sum()`` of that slice alone gives them: rows of
    one length are summed together along their contiguous last axis, which
    keeps each row's pairwise order."""
    sums = np.empty(terms.shape[:-1])
    for n in np.unique(counts).tolist():
        rows = counts == n
        sums[rows] = np.ascontiguousarray(terms[rows, ..., :n]).sum(axis=-1)
    return sums


def _states(protos) -> list[ProtocolStates]:
    """The :class:`ProtocolStates` of protocols of one shape group: one
    channel application on the stack of their post-measurement states."""
    kraus = _stack(protos, lambda p: p.channel.kraus)
    rho_fin = apply_kraus(kraus, _stack(protos, lambda p: p._rho_in))
    rho_fin = (rho_fin + rho_fin.conj().swapaxes(-1, -2)) / 2.0
    rho_tau = _dephase(_stack(protos, lambda p: p.obs_fin.projectors), rho_fin)
    rho_fin.flags.writeable = rho_tau.flags.writeable = False
    return [ProtocolStates(p._rho_in, f, t) for p, f, t in zip(protos, rho_fin, rho_tau)]


def _forward_tables(protos) -> list["JointOutcomeTable"]:
    """Forward joint tables of protocols of one shape group, see
    :attr:`TwoTimeProtocol.forward`; one channel application for all of
    them."""
    rho0 = _stack(protos, lambda p: p.rho0.data)
    proj_in = _stack(protos, lambda p: p.obs_in.projectors)
    proj_fin = _stack(protos, lambda p: p.obs_fin.projectors)
    p_fwd = _measured_joint(_stack(protos, lambda p: p.channel.kraus), rho0, proj_in, proj_fin)
    p_in = _outcome_probs(proj_in, rho0)
    return [JointOutcomeTable(p_fwd=f, p_in=i, p_ref=f.sum(axis=1)) for f, i in zip(p_fwd, p_in)]


def _backward_tables(protos) -> list["JointOutcomeTable"]:
    """Backward joint tables of protocols of one shape group, see
    :attr:`TwoTimeProtocol.backward`; each channel is reversed on its own
    (and refused if not unital), then all are applied at once."""
    theta = TimeReversal()
    kraus = _stack(protos, lambda p: time_reversed(p.channel, theta).kraus)
    rho_tau_rev = theta.apply_to_state(_stack(protos, lambda p: p.states.rho_tau))
    proj_in_rev = theta.apply_to_state(_stack(protos, lambda p: p.obs_in.projectors))
    proj_ref_rev = theta.apply_to_state(_stack(protos, lambda p: p.obs_fin.projectors))
    p_bwd = _measured_joint(kraus, rho_tau_rev, proj_ref_rev, proj_in_rev)
    return [
        JointOutcomeTable(p_fwd=b, p_in=p.forward.p_ref, p_ref=p.forward.p_in)
        for p, b in zip(protos, p_bwd)
    ]


def _tables(protos) -> list["MappingProxyType[str, JointOutcomeTable]"]:
    """:attr:`TwoTimeProtocol.tables` of protocols of one shape group: their
    forward tables, and stacked axis sums of those and of the final outcome
    probabilities."""
    fwd = _forward_tables(protos)
    if protos[0].bipartite_obs is None:
        return [MappingProxyType({"A-B": f}) for f in fwd]
    n_a_in, n_b_in, n_a_fin, n_b_fin = (obs.n_outcomes for obs in protos[0].bipartite_obs)
    p_fwd = np.stack([f.p_fwd for f in fwd]).reshape(-1, n_a_fin, n_b_fin, n_a_in, n_b_in)
    p_in = np.stack([f.p_in for f in fwd]).reshape(-1, n_a_in, n_b_in)
    p_fin = _outcome_probs(
        _stack(protos, lambda p: p.obs_fin.projectors), _stack(protos, lambda p: p.states.rho_fin)
    ).reshape(-1, n_a_fin, n_b_fin)
    a = zip(p_fwd.sum(axis=(2, 4)), p_in.sum(axis=2), p_fin.sum(axis=2))
    b = zip(p_fwd.sum(axis=(1, 3)), p_in.sum(axis=1), p_fin.sum(axis=1))
    return [
        MappingProxyType({"A": JointOutcomeTable(*ta), "B": JointOutcomeTable(*tb), "A-B": f})
        for ta, tb, f in zip(a, b, fwd)
    ]


# What stack_tables builds, in dependency order: the label tables read
# rho_fin, the backward tables rho_tau and the forward marginals.
_STACKED = (("states", _states), ("tables", _tables), ("backward", _backward_tables))


def stack_tables(protos) -> None:
    """Build the states, the joint tables of every label and the backward
    tables of many protocols at once, and cache each on its protocol as if
    it had been built on first use.

    Protocols are grouped by the shapes of their Kraus and projector stacks;
    each group takes one channel application per quantity. Every value has
    the bits that the one-protocol build gives it. Values a protocol has
    already built are kept.
    """
    for name, build in _STACKED:
        todo = [proto for proto in protos if name not in vars(proto)]
        for group in _shape_groups(todo):
            members = [todo[i] for i in group]
            for proto, value in zip(members, build(members)):
                vars(proto)[name] = value


def entropy_samples(table: JointOutcomeTable, label: str = "sigma") -> EntropyDistribution:
    """Entropy-production distribution from a forward outcome table.

    Outcome pairs with forward mass below 1e-15 are dropped (and counted);
    pairs landing on a zero-probability reference outcome are split off into
    ``infinite_mass`` with a warning.
    """
    p_fwd, p_in, p_ref = table.p_fwd, table.p_in, table.p_ref
    kept = p_fwd > MASS_DROP_TOL
    empty_in = kept & (p_in <= MASS_DROP_TOL)
    if empty_in.any():
        k, m = np.argwhere(empty_in)[0]
        raise ValueError(
            f"inconsistent table: forward mass {p_fwd[k, m]:.3e} from zero-probability "
            f"initial outcome {m}"
        )
    empty_ref = (p_ref <= MASS_DROP_TOL)[:, None]
    # added up pair by pair in row-major order, like the samples below
    infinite = np.add.accumulate(p_fwd[kept & empty_ref])
    infinite_mass = infinite[-1] if infinite.size else 0.0
    # math.log, not np.log, which may round differently
    log_in = np.array([math.log(p) if p > MASS_DROP_TOL else math.nan for p in p_in.tolist()])
    log_ref = np.array([math.log(p) if p > MASS_DROP_TOL else math.nan for p in p_ref.tolist()])
    # boolean indexing keeps the row-major order, which decides how
    # merge_support's unstable argsort orders equal samples
    finite = kept & ~empty_ref
    values = (log_in - log_ref[:, None])[finite]
    masses = p_fwd[finite]
    dropped = p_fwd.size - int(np.count_nonzero(kept))
    if infinite_mass > 0:
        warnings.warn(
            f"absolute irreversibility: mass {infinite_mass:.3e} maps to +inf entropy",
            AbsoluteIrreversibilityWarning,
            stacklevel=2,
        )
    support, probs = merge_support(values, masses)
    return EntropyDistribution(support, probs, label, dropped, infinite_mass)


def mean_entropy(proto: TwoTimeProtocol) -> float:
    """Mean entropy production <sigma> = -Tr[rho_fin ln rho_tau] - S(rho_in)."""
    rho_in, rho_fin, rho_tau = proto.states
    return -trace_rho_log_sigma(rho_fin, rho_tau) - von_neumann_entropy(rho_in)


class EntropyBoundResult(NamedTuple):
    relative_entropy: float
    mean_sigma: float
    passed: bool


def entropy_bound_check(proto: TwoTimeProtocol) -> EntropyBoundResult:
    """Check 0 <= S(rho_fin || rho_tau) <= <sigma>, to within 1e-10.

    When the final observable commutes with rho_fin the relative entropy must
    additionally vanish (the second measurement leaves the state untouched).
    The one-protocol case of :func:`entropy_bound_checks`.
    """
    return entropy_bound_checks([proto])[0]


def entropy_bound_checks(protos) -> list[EntropyBoundResult]:
    """:func:`entropy_bound_check` of each protocol, with the entropies of
    all protocols of one state dimension taken from one stacked
    eigendecomposition each (see :func:`core.trace_rho_log_sigma`). Each
    result equals the one-protocol check; a support violation warns once per
    protocol."""
    results: list = [None] * len(protos)
    for group in _groups(protos, lambda p: p.states.rho_fin.shape):
        members = [protos[i] for i in group]
        rho_in, rho_fin, rho_tau = (np.stack(s) for s in zip(*(p.states for p in members)))
        # Tr[rho_fin ln rho_tau] enters both sides; the relative entropy is
        # relative_entropy(rho_fin, rho_tau) and the mean is mean_entropy(proto)
        cross = trace_rho_log_sigma(rho_fin, rho_tau)
        s_rel = -von_neumann_entropy(rho_fin) - cross  # +inf where cross is -inf
        mean_sigma = -cross - von_neumann_entropy(rho_in)
        passed = (-1e-10 <= s_rel) & (s_rel <= mean_sigma + 1e-10)
        matrices = {id(p.obs_fin): p.obs_fin.matrix() for p in members}
        obs = np.stack([matrices[id(p.obs_fin)] for p in members])
        commutator = np.max(np.abs(obs @ rho_fin - rho_fin @ obs), axis=(1, 2))
        passed &= (commutator > 1e-10) | (s_rel <= 1e-10)
        for i, *result in zip(group, s_rel.tolist(), mean_sigma.tolist(), passed.tolist()):
            results[i] = EntropyBoundResult(*result)
    return results


def conditional_equality_deviation(proto: TwoTimeProtocol) -> float:
    """Max |p(fin k | in m) - p(in m | ref k)| with both sides computed
    independently (forward table vs explicitly reversed map); 0 when no
    conditional is defined. The one-protocol case of
    :func:`conditional_equality_deviations`."""
    return conditional_equality_deviations([proto])[0]


def conditional_equality_deviations(protos) -> list[float]:
    """:func:`conditional_equality_deviation` of each protocol, one stacked
    pass per table shape. A conditional on an initial outcome of probability
    ~0 is undefined (NaN) and left out of the maximum."""
    out = [0.0] * len(protos)
    for group in _groups(protos, lambda p: p.forward.p_fwd.shape):
        conditionals = []
        for tables in ([protos[i].forward for i in group], [protos[i].backward for i in group]):
            p_fwd, p_in = np.stack([t.p_fwd for t in tables]), np.stack([t.p_in for t in tables])
            conditionals.append(p_fwd / np.where(p_in > MASS_DROP_TOL, p_in, np.nan)[:, None, :])
        fwd, bwd = conditionals
        diff = np.abs(fwd - bwd.swapaxes(1, 2)).reshape(len(group), -1)
        # fmax skips NaN; a row of NaN only stays NaN
        deviations = np.nan_to_num(np.fmax.reduce(diff, axis=1), nan=0.0)
        for i, deviation in zip(group, deviations.tolist()):
            out[i] = deviation
    return out


def _masses_at(dists, xs: np.ndarray) -> np.ndarray:
    """Probability of the support point of ``dists[i]`` at each ``xs[i, j]``:
    its lower neighbour in the support if that lies within
    ``SUPPORT_MERGE_TOL``, else its upper one, else 0."""
    supports = _padded([d.support for d in dists], np.inf)
    probs = _padded([d.probs for d in dists], 0.0)
    counts = np.array([d.support.size for d in dists])
    # np.searchsorted on each row: the number of support values below x
    idx = np.count_nonzero(supports[:, None, :] < xs[:, :, None], axis=-1)
    lower = np.maximum(idx - 1, 0)
    upper = np.minimum(idx, np.maximum(counts - 1, 0)[:, None])
    at = lambda a, i: np.take_along_axis(a, i, axis=1)
    near_lower = np.abs(at(supports, lower) - xs) <= SUPPORT_MERGE_TOL
    near_upper = np.abs(at(supports, upper) - xs) <= SUPPORT_MERGE_TOL
    return np.where(near_lower, at(probs, lower), np.where(near_upper, at(probs, upper), 0.0))


def crooks_check(proto: TwoTimeProtocol) -> float:
    """Max deviation |Prob(sigma_bwd = -G) - exp(-G) Prob(sigma = G)|.

    The backward distribution is built from the explicitly reversed map, so
    the deviation measures how well the fluctuation relation survives the
    numerics of the channel representation; see
    :attr:`TwoTimeProtocol.backward` for its ``sigma_bwd``. The forward
    distribution is the protocol's A-B one. G runs over the union of the
    forward support and the negated backward one. The one-protocol case of
    :func:`crooks_checks`.
    """
    return crooks_checks([proto])[0]


def crooks_checks(protos) -> list[float]:
    """:func:`crooks_check` of each protocol. The backward distributions are
    sampled one protocol at a time; the lookups and the maximum run once on
    the padded rows of all of them. A row holds G with repeats, which leave
    the maximum unchanged, and padding of +inf, which weighs 0."""
    fwd = [proto.distributions["A-B"] for proto in protos]
    bwd = [entropy_samples(proto.backward) for proto in protos]
    grid = _padded([np.concatenate((f.support, -b.support)) for f, b in zip(fwd, bwd)], np.inf)
    # math.exp, not np.exp: numpy's exp may round differently
    weights = np.array([math.exp(-g) for g in grid.ravel().tolist()]).reshape(grid.shape)
    deviations = np.abs(_masses_at(bwd, -grid) - weights * _masses_at(fwd, grid))
    return np.max(deviations, axis=1, initial=0.0).tolist()


def _local_observables(proto: TwoTimeProtocol):
    """(O_A_in, O_B_in, O_A_fin, O_B_fin); ``ValueError`` if the protocol has none."""
    if proto.bipartite_obs is None:
        raise ValueError("protocol carries no bipartite observables")
    return proto.bipartite_obs


def bipartite_distributions(proto: TwoTimeProtocol):
    """Entropy-production distributions (dist_A, dist_B, dist_AB, dist_AplusB)
    of a bipartite protocol, see :attr:`TwoTimeProtocol.distributions`."""
    _local_observables(proto)
    return tuple(proto.distributions.values())


class WitnessResult(NamedTuple):
    moment_gaps: np.ndarray
    distinct: bool


def correlation_witness(
    dist_ab: EntropyDistribution, dist_conv: EntropyDistribution
) -> WitnessResult:
    """Moment gaps |<sigma_AB^k> - <sigma_A+B^k>| for k = 1..4.

    A nonzero gap certifies that the pre-measurement state was correlated;
    the converse does not hold (local measurements can erase quantum
    correlations). The one-pair case of :func:`correlation_witnesses`.
    """
    return correlation_witnesses([dist_ab], [dist_conv])[0]


def correlation_witnesses(dists_ab, dists_conv) -> list[WitnessResult]:
    """:func:`correlation_witness` of each pair, with the moments of all the
    distributions from one :func:`stack_moments` call."""
    stack_moments([*dists_ab, *dists_conv], range(1, 5))
    table = lambda dists: np.array([dist.moments(4) for dist in dists])
    gaps = np.abs(table(dists_ab) - table(dists_conv))
    return [WitnessResult(row, bool(np.any(row > 1e-8))) for row in gaps]


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
    rho_th, f0, basis = _gibbs(h0, beta)
    thermal = TwoTimeProtocol(rho_th, Observable.from_basis(basis), proto.obs_fin, proto.channel)
    rho_in, rho_fin, _ = thermal.states
    rho_tau_th, f_tau, _ = _gibbs(h_tau, beta)
    return ThermoReport(
        mean_work=float(np.trace(rho_fin @ h_tau).real - np.trace(rho_in @ h0).real),
        free_energy_delta=float(f_tau - f0),
        beta=float(beta),
        mean_heat=float(np.trace((rho_fin - rho_in) @ h0).real),
        mean_sigma=float(mean_entropy(thermal)),
        rel_entropy_thermal=float(relative_entropy(rho_fin, rho_tau_th.data)),
    )


def ift_deviation(dist: EntropyDistribution) -> float:
    """|<exp(-sigma)> - 1|: the integral fluctuation theorem residual. The
    one-distribution case of :func:`ift_deviations`."""
    return ift_deviations([dist])[0]


def ift_deviations(dists) -> list[float]:
    """:func:`ift_deviation` of each distribution: one exponential on the
    padded rows of all of them, and each <exp(-sigma)> summed as
    :meth:`EntropyDistribution.mgf` sums it (see :func:`_row_sums`)."""
    supports = _padded([d.support for d in dists], 0.0)
    terms = _padded([d.probs for d in dists], 0.0) * np.exp(-1.0 * supports)
    mgf = _row_sums(terms, np.array([d.support.size for d in dists]))
    return np.abs(mgf - 1.0).tolist()
