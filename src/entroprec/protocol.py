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

from . import core
from .core import (
    HERMITICITY_TOL,
    DensityMatrix,
    Observable,
    _groups,
    _one_or_many,
    _product_projectors,
    _reduced,
    hermiticity_defect,
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


class TransferTables(NamedTuple):
    """The channel between the two measurements, in :data:`core.EXTENDED`
    precision: ``joint[k, m] = Tr[P_fin_k Phi(P_in_m)]`` on the composite
    projectors, ``local`` the same on the product projectors of
    ``bipartite_obs`` (``joint`` itself where those are the composite ones,
    ``None`` without local observables), and ``p_fin[k] = Tr[P_fin_k
    Phi(rho_in)]``. Read-only."""

    joint: np.ndarray
    local: np.ndarray | None
    p_fin: np.ndarray


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
    by every check and chi evaluation, as are the transfer tables that chi
    reads (:attr:`transfer`).
    """

    rho0: DensityMatrix
    obs_in: Observable
    obs_fin: Observable
    channel: QuantumChannel
    bipartite_obs: tuple[Observable, Observable, Observable, Observable] | None = None
    _rho_in: np.ndarray = field(init=False, repr=False, compare=False)
    # obs_in and obs_fin hold the product projectors of bipartite_obs bit for bit
    _exact_products: bool = field(init=False, repr=False, compare=False, default=False)

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
            exact = True
            for obs, a, b in ((self.obs_in, oa_in, ob_in), (self.obs_fin, oa_fin, ob_fin)):
                # the projectors of a.tensor(b), without its O(n^2) re-validation
                products = _product_projectors(a, b)
                if len(products) != obs.n_outcomes or np.max(
                    np.abs(obs.projectors - products)
                ) > PRODUCT_TOL:
                    raise ValueError("obs_in/obs_fin must be tensor products of bipartite_obs")
                exact = exact and np.array_equal(obs.projectors, products)
            object.__setattr__(self, "_exact_products", exact)
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
        A and B distributions. See :func:`_distributions`."""
        return _distributions([self])[0]

    @cached_property
    def transfer(self) -> TransferTables:
        """The channel's transfer tables, built once and read by every chi
        evaluation; see :func:`_transfer_tables`."""
        return _transfer_tables([self])[0]


@dataclass(frozen=True)
class EntropyDistribution:
    """Discrete distribution of entropy-production values (nats).

    The constructor checks one distribution as :func:`_checked_rows` checks
    many, and keeps sorted, read-only copies of the support and the
    probabilities; :func:`_distributions_from_rows` builds many at once. Both
    set an empty ``_moment_memo`` (k to <sigma^k>), read by :func:`stack_moments`."""

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
        (support,), (probs,) = _checked_rows(
            support, probs, np.array([support.size]), [self.infinite_mass]
        )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_moment_memo", {})

    def moment(self, k: int) -> float:
        """<sigma^k>, computed once per instance and order (see
        :func:`stack_moments`)."""
        memo = self._moment_memo
        return memo[k] if k in memo else stack_moments([self], (k,))[0][0]

    def moments(self, k_max: int) -> np.ndarray:
        """<sigma^k> for k = 1..k_max."""
        return np.array(stack_moments([self], range(1, k_max + 1))[0])

    def mgf(self, phi: float) -> float:
        """<exp(-phi sigma)> by numpy's pairwise sum, an oracle for chi at a
        tolerance; :func:`ift_deviation` sums by the running-sum rule."""
        return float(np.sum(self.probs * np.exp(-phi * self.support)))

    def char_fn(self, lam: complex) -> complex:
        return complex(np.sum(self.probs * np.exp(1j * lam * self.support)))


def stack_moments(dists, orders) -> list[list[float]]:
    """<sigma^k> = sum(probs * support**k) of each distribution for each k of
    ``orders``: one list of floats per distribution, in ``orders``' order.
    Values not memoised yet are memoised from the powers and products of all
    of them on their concatenated rows, and one running sum per distribution
    and order (see :func:`_concatenated`)."""
    orders = tuple(orders)
    wanted = set(orders)
    todo = [d for d in dists if not d._moment_memo.keys() >= wanted]
    if todo:
        support, row = _concatenated([d.support for d in todo])
        probs, _ = _concatenated([d.probs for d in todo])
        terms = np.stack([probs * support**k for k in orders])
        # the sums of order j fill bins j * P .. j * P + P - 1, P = len(todo)
        bins = row + len(todo) * np.arange(len(orders))[:, None]
        sums = np.bincount(bins.ravel(), terms.ravel(), len(orders) * len(todo))
        for dist, values in zip(todo, sums.reshape(len(orders), len(todo)).T.tolist()):
            for k, value in zip(orders, values):
                # float: with no entry at all, bincount counts in integers
                dist._moment_memo.setdefault(k, float(value))
    return [[d._moment_memo[k] for k in orders] for d in dists]


def _checked_rows(support, probs, counts, infinite) -> tuple[list, list]:
    """The support and probabilities of each of many distributions, given
    as concatenated rows of ``counts[i]`` entries, checked in one pass on all
    rows: finite values; each support sorted (equal values keep their order)
    with neighbours more than ``SUPPORT_MERGE_TOL`` apart; no probability
    below -1e-12; and each row's probabilities, a running sum (see
    :func:`_concatenated`), plus its ``infinite[i]`` within 1e-10 of 1.

    The first check that fails raises ``ValueError`` on its first failing
    row, which the message names when there are several rows. Returns the
    sorted rows as read-only copies."""
    n_rows = len(counts)
    row = np.repeat(np.arange(n_rows), counts)

    def check(flags, rows, message):
        if flags.any():
            i = int(rows[np.argmax(flags)])
            raise ValueError(message(i) if n_rows == 1 else f"row {i}: {message(i)}")

    finite = np.isfinite(support) & np.isfinite(probs)
    check(~finite, row, lambda i: "support and probs must be finite")
    order = np.lexsort((support, row))
    support, probs = support[order], probs[order]
    inner = row[1:] == row[:-1]  # neighbours within one row
    distinct = lambda i: "support entries must stay distinct after merging"
    check(inner & (support[1:] - support[:-1] <= SUPPORT_MERGE_TOL), row[1:], distinct)
    check(probs < -1e-12, row, lambda i: f"negative probability {probs[row == i].min():.3e}")
    total = np.bincount(row, probs, n_rows) + np.asarray(infinite)
    check(np.abs(total - 1.0) > 1e-10, np.arange(n_rows),
          lambda i: f"probabilities sum to {float(total[i])!r}")
    support.flags.writeable = probs.flags.writeable = False
    stops = np.cumsum(counts).tolist()
    bounds = list(zip([0, *stops], stops))
    return [support[a:b] for a, b in bounds], [probs[a:b] for a, b in bounds]


def _distributions_from_rows(support, probs, row, labels, dropped, infinite) -> list:
    """An :class:`EntropyDistribution` of each row of the concatenated
    ``support`` and ``probs``, ``row`` giving each entry's row in
    nondecreasing order; ``labels``, ``dropped`` and ``infinite`` hold each
    row's other fields. All rows are checked in one :func:`_checked_rows`
    pass, so no constructor runs."""
    counts = np.bincount(row, minlength=len(labels))
    supports, probs = _checked_rows(support, probs, counts, infinite)
    out = []
    for s, p, label, n, mass in zip(supports, probs, labels, dropped, infinite):
        dist = object.__new__(EntropyDistribution)
        vars(dist).update(
            support=s, probs=p, label=label, dropped_outcomes=n, infinite_mass=mass, _moment_memo={}
        )
        out.append(dist)
    return out


def _merged_rows(values: np.ndarray, masses: np.ndarray, row: np.ndarray):
    """:func:`merge_support` of many rows at once: concatenated ``values``
    and ``masses`` with the ``row`` of each entry, in any order, sorted by
    one stable sort on (row, value); a row change or a gap above the
    tolerance starts a new cluster, and each sum is one ``np.bincount``.
    Returns the merged values, masses and rows, in row order; each row has
    the bits of its lone merge."""
    order = np.lexsort((values, row))
    values, masses, row = values[order], masses[order], row[order]
    if not values.size:
        return values, masses, row
    starts = (values[1:] - values[:-1] > SUPPORT_MERGE_TOL) | (row[1:] != row[:-1])
    cluster = np.concatenate(([0], np.cumsum(starts)))
    out_mass = np.bincount(cluster, masses)
    out_vals = np.bincount(cluster, values) / np.bincount(cluster)
    np.divide(np.bincount(cluster, values * masses), out_mass, out=out_vals, where=out_mass > 0)
    return out_vals, out_mass, row[np.concatenate(([True], starts))]


def merge_support(values: np.ndarray, masses: np.ndarray):
    """Aggregate masses whose neighbouring support values lie within
    ``SUPPORT_MERGE_TOL``; ``values`` and ``masses`` must be finite 1-D
    arrays of equal length (``ValueError`` otherwise).

    A cluster takes its total mass and its mass-weighted mean
    ``sum(v * m) / sum(m)``, or its plain mean when it has no mass. Each sum
    is a running sum over the cluster in support order, ties in input order
    (see :func:`_concatenated`). The one-row case of :func:`_merged_rows`.
    """
    values, masses = np.asarray(values, dtype=float), np.asarray(masses, dtype=float)
    matching = values.ndim == 1 and values.shape == masses.shape
    if not (matching and np.isfinite(values).all() and np.isfinite(masses).all()):
        raise ValueError("values and masses must be finite 1-D arrays of equal length")
    out_vals, out_mass, _ = _merged_rows(values, masses, np.zeros(values.size, dtype=int))
    return out_vals, out_mass


def _grids(shapes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For grids of the given ``(rows, columns)`` shapes, laid end to end in
    row-major order: the grid, row and column of each entry."""
    shapes = np.array(shapes, dtype=int).reshape(-1, 2)
    sizes = shapes[:, 0] * shapes[:, 1]
    grid = np.repeat(np.arange(len(shapes)), sizes)
    flat = np.arange(grid.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    columns = shapes[grid, 1]
    return grid, flat // columns, flat % columns


def convolve_distributions(dist_a, dist_b):
    """Distribution of the sum of two independent entropy productions,
    labelled ``"A+B"``. One pair of distributions or two lists or tuples of
    them, paired in order (see :func:`_one_or_many`): the sums of every pair
    are merged by one :func:`_merged_rows` call, with the bits of a lone
    convolution."""
    dists_a, many = _one_or_many(dist_a)
    dists_b, _ = _one_or_many(dist_b)
    if len(dists_a) != len(dists_b):
        raise ValueError("dist_a and dist_b must pair up one to one")
    support_a, row_a = _concatenated([d.support for d in dists_a])
    support_b, row_b = _concatenated([d.support for d in dists_b])
    probs_a, _ = _concatenated([d.probs for d in dists_a])
    probs_b, _ = _concatenated([d.probs for d in dists_b])
    n = len(dists_a)
    counts_a, counts_b = np.bincount(row_a, minlength=n), np.bincount(row_b, minlength=n)
    pair, i, j = _grids(np.stack((counts_a, counts_b), axis=1))
    i += (np.cumsum(counts_a) - counts_a)[pair]
    j += (np.cumsum(counts_b) - counts_b)[pair]
    merged = _merged_rows(support_a[i] + support_b[j], probs_a[i] * probs_b[j], pair)
    out = _distributions_from_rows(*merged, ["A+B"] * n, [0] * n, [0.0] * n)
    return out if many else out[0]


@dataclass(frozen=True)
class JointOutcomeTable:
    """Joint outcome probabilities of one two-time process.

    ``p_fwd[k, m]`` is the probability of initial outcome ``m`` followed by
    final outcome ``k``. ``p_in`` and ``p_ref`` are the initial-outcome and
    reference-outcome marginals (the reference state being the final
    post-measurement state). The backward process has a table of the same
    form (:attr:`TwoTimeProtocol.backward`). The arrays are read-only: a
    protocol hands its cached tables to every caller. The constructor checks
    one table as :func:`_joint_tables` checks many.
    """

    p_fwd: np.ndarray
    p_in: np.ndarray
    p_ref: np.ndarray

    def __post_init__(self):
        stacks = (np.asarray(getattr(self, f.name), dtype=float)[None] for f in fields(self))
        (table,) = _joint_tables(*stacks)
        vars(self).update(vars(table))


def _joint_tables(p_fwd, p_in, p_ref) -> list[JointOutcomeTable]:
    """A :class:`JointOutcomeTable` of each row of the stacks ``p_fwd``
    ``(P, n_fin, n_in)``, ``p_in`` ``(P, n_in)`` and ``p_ref`` ``(P, n_fin)``,
    checked in one pass, so no constructor runs: the marginals must index
    the table's axes, no entry may fall below -1e-12 and each table must sum
    to 1 within 1e-10. The first check that fails raises ``ValueError``. The
    rows are views of read-only float copies of the stacks."""
    p_fwd, p_in, p_ref = stacks = [np.array(a, dtype=float) for a in (p_fwd, p_in, p_ref)]
    n_fin, n_in = p_fwd.shape[1:] if p_fwd.ndim == 3 else (-1, -1)
    if p_in.shape != (len(p_fwd), n_in) or p_ref.shape != (len(p_fwd), n_fin):
        raise ValueError("p_fwd must be (n_fin, n_in), with n_in p_in and n_fin p_ref values")
    if (p_fwd < -1e-12).any():
        raise ValueError("joint probabilities must be nonnegative")
    total = p_fwd.reshape(len(p_fwd), -1).sum(axis=1)
    off = np.abs(total - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"joint table sums to {float(total[np.argmax(off)])!r}")
    for stack in stacks:
        stack.flags.writeable = False
    out = [object.__new__(JointOutcomeTable) for _ in p_fwd]
    for table, f, i, r in zip(out, *stacks):
        vars(table).update(p_fwd=f, p_in=i, p_ref=r)
    return out


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


def _shape_groups(protos) -> list[list[TwoTimeProtocol]]:
    """``protos`` grouped by the shapes of their Kraus and projector stacks,
    in first-seen order. A group stacks without padding: zero Kraus
    operators would add terms, which can flip the sign of a zero."""

    def key(proto):
        local = proto.bipartite_obs and tuple(o.projectors.shape for o in proto.bipartite_obs)
        return (
            proto.channel.kraus.shape,
            proto.obs_in.projectors.shape,
            proto.obs_fin.projectors.shape,
            local,
        )

    return [[protos[i] for i in group] for group in _groups(protos, key)]


def _concatenated(rows) -> tuple[np.ndarray, np.ndarray]:
    """1-D arrays end to end, and the index of the row each entry comes
    from. ``np.bincount(index, values, len(rows))`` then sums each row's
    values one by one, in order, from zero, whatever the other rows hold;
    numpy's own ``.sum()`` does the same below 8 terms."""
    index = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    return np.concatenate([np.empty(0), *rows]), index


def _states(protos) -> list[ProtocolStates]:
    """The :class:`ProtocolStates` of protocols of one shape group: one
    channel application on the stack of their post-measurement states."""
    kraus = _stack(protos, lambda p: p.channel.kraus)
    rho_fin = apply_kraus(kraus, _stack(protos, lambda p: p._rho_in))
    rho_fin = (rho_fin + rho_fin.conj().swapaxes(-1, -2)) / 2.0
    rho_tau = _dephase(_stack(protos, lambda p: p.obs_fin.projectors), rho_fin)
    rho_fin.flags.writeable = rho_tau.flags.writeable = False
    return [ProtocolStates(p._rho_in, f, t) for p, f, t in zip(protos, rho_fin, rho_tau)]


def _backward_tables(protos) -> list["JointOutcomeTable"]:
    """Backward joint tables of protocols of one shape group, see
    :attr:`TwoTimeProtocol.backward`; the channels are reversed and checked
    in one :func:`time_reversed` call (refused if any is not unital), then
    all are applied at once."""
    theta = TimeReversal()
    kraus = np.stack([c.kraus for c in time_reversed([p.channel for p in protos], theta)])
    rho_tau_rev = theta.apply_to_state(_stack(protos, lambda p: p.states.rho_tau))
    proj_in_rev = theta.apply_to_state(_stack(protos, lambda p: p.obs_in.projectors))
    proj_ref_rev = theta.apply_to_state(_stack(protos, lambda p: p.obs_fin.projectors))
    p_bwd = _measured_joint(kraus, rho_tau_rev, proj_ref_rev, proj_in_rev)
    p_ref, p_in = (_stack(protos, lambda p: getattr(p.forward, name)) for name in ("p_ref", "p_in"))
    return _joint_tables(p_bwd, p_ref, p_in)


def _tables(protos) -> list["MappingProxyType[str, JointOutcomeTable]"]:
    """:attr:`TwoTimeProtocol.tables` of protocols of one shape group: their
    forward tables (see :attr:`TwoTimeProtocol.forward`), one channel
    application for all, and stacked axis sums of those and of the final
    outcome probabilities."""
    rho0 = _stack(protos, lambda p: p.rho0.data)
    proj_in = _stack(protos, lambda p: p.obs_in.projectors)
    proj_fin = _stack(protos, lambda p: p.obs_fin.projectors)
    p_fwd = _measured_joint(_stack(protos, lambda p: p.channel.kraus), rho0, proj_in, proj_fin)
    p_in = _outcome_probs(proj_in, rho0)
    fwd = _joint_tables(p_fwd, p_in, p_fwd.sum(axis=2))
    if protos[0].bipartite_obs is None:
        return [MappingProxyType({"A-B": f}) for f in fwd]
    n_a_in, n_b_in, n_a_fin, n_b_fin = (obs.n_outcomes for obs in protos[0].bipartite_obs)
    p_fwd = p_fwd.reshape(-1, n_a_fin, n_b_fin, n_a_in, n_b_in)
    p_in = p_in.reshape(-1, n_a_in, n_b_in)
    p_fin = _outcome_probs(proj_fin, _stack(protos, lambda p: p.states.rho_fin))
    p_fin = p_fin.reshape(-1, n_a_fin, n_b_fin)
    a = _joint_tables(p_fwd.sum(axis=(2, 4)), p_in.sum(axis=2), p_fin.sum(axis=2))
    b = _joint_tables(p_fwd.sum(axis=(1, 3)), p_in.sum(axis=1), p_fin.sum(axis=1))
    return [MappingProxyType({"A": ta, "B": tb, "A-B": f}) for ta, tb, f in zip(a, b, fwd)]


def _transfer(kraus: np.ndarray, prepare: np.ndarray, read: np.ndarray) -> np.ndarray:
    """``table[k, m] = Tr[read_k Phi(prepare_m)]`` in extended precision,
    with Phi the Kraus set ``kraus`` applied once to the whole ``prepare``
    stack. Leading axes of all three arguments are a batch of tables."""
    evolved = apply_kraus(kraus, prepare.astype(core.extended_complex()))
    return _outcome_probs(np.expand_dims(read, -4), evolved).swapaxes(-1, -2)


def _transfer_tables(protos) -> list[TransferTables]:
    """:attr:`TwoTimeProtocol.transfer` of protocols of one shape group: one
    channel application to the stack of their initial projectors and
    post-measurement states. Local tables of protocols whose composite
    projectors are not the product ones bit for bit take one more."""
    kraus = _stack(protos, lambda p: p.channel.kraus)
    prepare = np.concatenate(
        [_stack(protos, lambda p: p.obs_in.projectors), _stack(protos, lambda p: p._rho_in)[:, None]],
        axis=1,
    )
    rows = _transfer(kraus, prepare, _stack(protos, lambda p: p.obs_fin.projectors))
    rows.flags.writeable = False
    out = []
    for proto, row in zip(protos, rows):
        local = joint = row[:, :-1]
        if proto.bipartite_obs is None:
            local = None
        elif not proto._exact_products:
            obs = proto.bipartite_obs
            local = _transfer(
                proto.channel.kraus, _product_projectors(*obs[:2]), _product_projectors(*obs[2:])
            )
            local.flags.writeable = False
        out.append(TransferTables(joint, local, row[:, -1]))
    return out


def _distributions(protos) -> list["MappingProxyType[str, EntropyDistribution]"]:
    """:attr:`TwoTimeProtocol.distributions` of many protocols: one
    :func:`_samples` pass over every table of every protocol, then one
    :func:`convolve_distributions` call for the bipartite ones."""
    samples = iter(_samples([item for p in protos for item in p.tables.items()]))
    dists = [{label: next(samples) for label in proto.tables} for proto in protos]
    pairs = [d for d in dists if "A" in d]
    convs = convolve_distributions([d["A"] for d in pairs], [d["B"] for d in pairs])
    for d, conv in zip(pairs, convs):
        d["A+B"] = conv
    return [MappingProxyType(d) for d in dists]


# What stack_tables builds, in dependency order: the label tables read
# rho_fin, the distributions the label tables, and the backward tables
# rho_tau and the forward marginals.
_STACKED = (
    ("states", _states),
    ("tables", _tables),
    ("distributions", _distributions),
    ("backward", _backward_tables),
)


def stack_tables(protos) -> None:
    """Build the states, the joint tables and distributions of every label
    and the backward tables of many protocols at once, and cache each on its
    protocol as if it had been built on first use.

    Protocols are grouped once by the shapes of their Kraus and projector
    stacks; each group takes one channel application per quantity and one
    sampling pass. Every value has the bits that the one-protocol build
    gives it. Values a protocol has already built are kept.
    """
    groups = _shape_groups(protos)
    for name, build in _STACKED:
        _fill(groups, name, build)


def _fill(groups, name: str, build) -> None:
    """Cache ``build(members)`` as the cached property ``name`` of the
    members of each of ``groups`` (see :func:`_shape_groups`) that have not
    built it yet, one call per group."""
    for group in groups:
        members = [proto for proto in group if name not in vars(proto)]
        if members:
            for proto, value in zip(members, build(members)):
                vars(proto)[name] = value


def entropy_samples(tables, label: str = "sigma"):
    """Entropy-production distribution from a forward outcome table.

    Outcome pairs with forward mass below 1e-15 are dropped (and counted);
    pairs landing on a zero-probability reference outcome are split off into
    ``infinite_mass`` with a warning. One table or a list or tuple of them
    (see :func:`_one_or_many`), each labelled ``label``, sampled in one
    :func:`_samples` pass with the bits of a lone call.
    """
    tables, many = _one_or_many(tables)
    out = _samples([(label, table) for table in tables])
    return out if many else out[0]


def _samples(labelled) -> list[EntropyDistribution]:
    """:func:`entropy_samples` of each ``(label, table)`` item, in order: the
    samples of all tables on their concatenated pairs, one merge by
    :func:`_merged_rows`, and one check of all distributions. The warnings
    come in table order; an inconsistent table is refused before any."""
    tables = [table for _, table in labelled]
    n = len(tables)
    p_fwd, _ = _concatenated([t.p_fwd.ravel() for t in tables])
    # each table's marginals, p_in then p_ref; pair (k, m) reads p_in[m], p_ref[k]
    marginals, _ = _concatenated([p for t in tables for p in (t.p_in, t.p_ref)])
    shapes = np.array([t.p_fwd.shape for t in tables], dtype=int).reshape(-1, 2)
    table, k, m = _grids(shapes)
    sizes = shapes.sum(axis=1)  # marginal entries of each table
    start = (np.cumsum(sizes) - sizes)[table]
    at_in, at_ref = start + m, start + shapes[table, 1] + k
    kept = p_fwd > MASS_DROP_TOL
    empty_in = kept & (marginals[at_in] <= MASS_DROP_TOL)
    if empty_in.any():
        first = int(np.argmax(empty_in))
        raise ValueError(
            f"inconsistent table: forward mass {p_fwd[first]:.3e} from zero-probability "
            f"initial outcome {m[first]}"
        )
    empty_ref = marginals[at_ref] <= MASS_DROP_TOL
    # added up pair by pair in row-major order, like the samples below
    infinite = np.bincount(table[kept & empty_ref], p_fwd[kept & empty_ref], n)
    infinite = [mass if mass > 0 else 0.0 for mass in infinite]
    dropped = np.bincount(table[~kept], minlength=n).tolist()
    # math.log, not np.log: numpy's log takes the CPU's SIMD dispatch, and
    # its last bits differ between AVX-512 and baseline builds
    logs = np.array([math.log(p) if p > MASS_DROP_TOL else math.nan for p in marginals.tolist()])
    # boolean indexing keeps the row-major order, in which the stable sort
    # of _merged_rows sums equal samples
    finite = kept & ~empty_ref
    values = logs[at_in[finite]] - logs[at_ref[finite]]
    for mass in infinite:
        if mass > 0:
            warnings.warn(
                f"absolute irreversibility: mass {mass:.3e} maps to +inf entropy",
                AbsoluteIrreversibilityWarning,
                stacklevel=3,
            )
    merged = _merged_rows(values, p_fwd[finite], table[finite])
    return _distributions_from_rows(*merged, [label for label, _ in labelled], dropped, infinite)


class EntropyBoundResult(NamedTuple):
    relative_entropy: float
    mean_sigma: float
    passed: bool


def _require_rank_one(*observables: Observable) -> None:
    """``ValueError`` unless every projector of ``observables`` has rank one."""
    if not all(obs.is_rank_one for obs in observables):
        raise ValueError("the observables must be rank-one projective measurements")


def entropy_bound_check(protos):
    """Check 0 <= S(rho_fin || rho_tau) <= <sigma>, to within 1e-10.

    When the final observable commutes with rho_fin the relative entropy must
    additionally vanish (the second measurement leaves the state untouched).
    One protocol or a list or tuple of them (see :func:`_one_or_many`); the
    entropies of each state dimension come from one stacked
    eigendecomposition (see :func:`core.trace_rho_log_sigma`), with the bits
    of a lone call. A support violation warns once per protocol.
    """
    protos, many = _one_or_many(protos)
    results: list = [None] * len(protos)
    for group in _groups(protos, lambda p: p.states.rho_fin.shape):
        members = [protos[i] for i in group]
        rho_in, rho_fin, rho_tau = (np.stack(s) for s in zip(*(p.states for p in members)))
        # Tr[rho_fin ln rho_tau] enters both sides; the relative entropy is
        # relative_entropy(rho_fin, rho_tau)
        cross = trace_rho_log_sigma(rho_fin, rho_tau)
        s_rel = -von_neumann_entropy(rho_fin) - cross  # +inf where cross is -inf
        mean_sigma = -cross - von_neumann_entropy(rho_in)
        passed = (-1e-10 <= s_rel) & (s_rel <= mean_sigma + 1e-10)
        matrices = {id(o): o.matrix() for o in {id(p.obs_fin): p.obs_fin for p in members}.values()}
        obs = np.stack([matrices[id(p.obs_fin)] for p in members])
        commutator = np.max(np.abs(obs @ rho_fin - rho_fin @ obs), axis=(1, 2))
        passed &= (commutator > 1e-10) | (s_rel <= 1e-10)
        for i, *result in zip(group, s_rel.tolist(), mean_sigma.tolist(), passed.tolist()):
            results[i] = EntropyBoundResult(*result)
    return results if many else results[0]


def mean_entropy(proto: TwoTimeProtocol) -> float:
    """Mean entropy production <sigma> = -Tr[rho_fin ln rho_tau] - S(rho_in),
    as :func:`entropy_bound_check` states it."""
    return entropy_bound_check(proto).mean_sigma


def conditional_equality_deviation(protos):
    """Max |p(fin k | in m) - p(in m | ref k)| with both sides computed
    independently (forward table vs explicitly reversed map); 0 when no
    conditional is defined. A conditional on an initial outcome of
    probability ~0 is undefined (NaN) and left out of the maximum.

    It holds for rank-one observables only; any other is refused with
    ``ValueError`` before any work. One protocol or a list or tuple of them
    (see :func:`_one_or_many`), in one stacked pass per table shape.
    """
    protos, many = _one_or_many(protos)
    for proto in protos:
        _require_rank_one(proto.obs_in, proto.obs_fin)
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
    return out if many else out[0]


def crooks_check(protos):
    """Max deviation |Prob(sigma_bwd = -G) - exp(-G) Prob(sigma = G)|.

    The backward distribution is built from the explicitly reversed map, so
    the deviation measures how well the fluctuation relation survives the
    numerics of the channel representation; see
    :attr:`TwoTimeProtocol.backward` for its ``sigma_bwd``. The forward
    distribution is the protocol's A-B one. G runs over the union of the
    forward support and the negated backward one: a protocol's row of
    :func:`_merged_rows` holds the values ``(sigma, -sigma_bwd)`` with the
    masses ``(exp(-sigma) P(sigma), -P_bwd(sigma_bwd))``, so each G within
    ``SUPPORT_MERGE_TOL`` of both sides merges into one signed mass, and the
    deviation is the largest |merged mass|.

    One protocol or a list or tuple of them (see :func:`_one_or_many`): the
    backward distributions of all of them come from one
    :func:`entropy_samples` call, and all rows are merged in one call.
    """
    protos, many = _one_or_many(protos)
    fwd = [proto.distributions["A-B"] for proto in protos]
    bwd = entropy_samples([proto.backward for proto in protos])
    fwd_support, fwd_row = _concatenated([d.support for d in fwd])
    fwd_probs, _ = _concatenated([d.probs for d in fwd])
    bwd_support, bwd_row = _concatenated([d.support for d in bwd])
    bwd_probs, _ = _concatenated([d.probs for d in bwd])
    weights = _exp(-fwd_support)
    # each protocol's row holds its forward entries, then its negated
    # backward ones, which the stable sort keeps in that order at a tie
    values = np.concatenate((fwd_support, -bwd_support))
    masses = np.concatenate((weights * fwd_probs, -bwd_probs))
    _, merged, merged_row = _merged_rows(values, masses, np.concatenate((fwd_row, bwd_row)))
    out = np.zeros(len(protos))
    np.maximum.at(out, merged_row, np.abs(merged))
    out = out.tolist()
    return out if many else out[0]


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


def correlation_witness(dist_ab, dist_conv):
    """Moment gaps |<sigma_AB^k> - <sigma_A+B^k>| for k = 1..4.

    A nonzero gap certifies that the pre-measurement state was correlated;
    the converse does not hold (local measurements can erase quantum
    correlations). One pair of distributions or two lists or tuples of them,
    paired in order (see :func:`_one_or_many`), with the moments of all of
    them from one :func:`stack_moments` call.
    """
    dists_ab, many = _one_or_many(dist_ab)
    dists_conv, _ = _one_or_many(dist_conv)
    if len(dists_ab) != len(dists_conv):
        raise ValueError("dist_ab and dist_conv must pair up one to one")
    table = np.array(stack_moments([*dists_ab, *dists_conv], range(1, 5))).reshape(-1, 4)
    gaps = np.abs(table[: len(dists_ab)] - table[len(dists_ab) :])
    out = [WitnessResult(*pair) for pair in zip(gaps, (gaps > 1e-8).any(axis=1).tolist())]
    return out if many else out[0]


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
    observable are taken from ``proto``. A ``beta`` that is not positive and
    finite, or a Hamiltonian that is not a finite Hermitian matrix of the
    protocol's dimension, raises ``ValueError`` before any arithmetic.
    """
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    d = proto.rho0.dim
    h0, h_tau = (np.asarray(h, dtype=complex) for h in (h0, h_tau))
    for name, h in (("h0", h0), ("h_tau", h_tau)):
        finite = h.shape == (d, d) and np.isfinite(h).all()
        if not (finite and hermiticity_defect(h) <= HERMITICITY_TOL):
            raise ValueError(f"{name} must be a finite Hermitian {d}x{d} matrix")
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


def _exp(values: np.ndarray) -> np.ndarray:
    """exp of each value by ``math.exp``, ``inf`` where it overflows. Not
    ``np.exp``: numpy's exp takes the CPU's SIMD dispatch, and its last bits
    differ between AVX-512 and baseline builds."""
    out = []
    for x in values.tolist():
        try:
            out.append(math.exp(x))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float)


def ift_deviation(dists):
    """|<exp(-sigma)> - 1|: the integral fluctuation theorem residual, of
    one distribution or a list or tuple of them (see :func:`_one_or_many`):
    one :func:`_exp` pass on the concatenated rows of all of them, and each
    <exp(-sigma)> a running sum over its row (see :func:`_concatenated`)."""
    dists, many = _one_or_many(dists)
    support, row = _concatenated([d.support for d in dists])
    probs, _ = _concatenated([d.probs for d in dists])
    mgf = np.bincount(row, probs * _exp(-support), len(dists))
    out = np.abs(mgf - 1.0).tolist()
    return out if many else out[0]
