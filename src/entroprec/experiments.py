"""Two-trapped-ion scenario: canonical configurations and parameter sweeps.

Each ion carries one qubit; the entangling interaction is a partial
Moelmer-Soerensen gate U(phi) = exp(-i phi X x X), optionally accompanied by
local pure dephasing at rates Gamma_A = Gamma_B = gamma. The initial state
defaults to diag(6, 9, 4, 6)/25, whose diagonal factorises between the ions
and which produces a non-Gaussian entropy-production distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .channels import (
    PAULI_XX,
    IntegratorAccuracyError,
    LindbladModel,
    QuantumChannel,
    kraus_from_lindblad_endpoints,
    ms_gate,
)
from .channels import _validate_step
from .charfunc import moment_generating
from .core import DensityMatrix, Observable, tensor_product
from .protocol import (
    EntropyDistribution,
    EntropyBoundResult,
    TwoTimeProtocol,
    WitnessResult,
    bipartite_distributions,
    conditional_equality_deviation,
    convolve_distributions,
    correlation_witness,
    crooks_check,
    entropy_bound_check,
    ift_deviation,
    stack_moments,
    stack_tables,
)
from .reconstruct import (
    MomentVector,
    ParameterGrid,
    ReconstructionResult,
    chebyshev_nodes,
    fourier_reconstruct,
    moments_via_vandermonde,
    pseudoinverse_stack,
    rmse_probs,
)
from .reconstruct import _root_mean_squares, _validate_count

RHO0_DIAG = (6 / 25, 9 / 25, 4 / 25, 6 / 25)
DEFAULT_TAU = 50.0
DEFAULT_STEPS = 5000
LABELS = ("A", "B", "A-B", "A+B")
_REAL_TYPES = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class TwoIonConfig:
    """One point of the two-ion experiment.

    ``phi`` is the accumulated gate phase; for Lindblad dynamics the
    interaction strength is omega = phi / tau with tau fixed.
    """

    phi: float
    gamma: float = 0.0
    tau: float = DEFAULT_TAU
    n_moments: int = 10
    dynamics: str = "unitary"
    dt: float | None = None
    rho0_diag: tuple[float, ...] = RHO0_DIAG

    def __post_init__(self):
        for name in ("phi", "gamma", "tau", "dt"):
            value = getattr(self, name)
            if value is None and name == "dt":
                continue
            # Python and numpy ints and floats only: a bool is no real here, and
            # a Fraction or Decimal would fail later, inside the gate's ufuncs
            if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
                raise ValueError(f"{name} must be a real number (int or float), got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dynamics not in ("unitary", "lindblad"):
            raise ValueError(f"dynamics must be 'unitary' or 'lindblad', got {self.dynamics!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        _validate_step(self.tau, self.step_size)
        _validate_count("n_moments", self.n_moments)

    @property
    def omega(self) -> float:
        return self.phi / self.tau

    @property
    def step_size(self) -> float:
        return self.dt if self.dt is not None else self.tau / DEFAULT_STEPS


PRESETS: dict[str, TwoIonConfig] = {
    "fig3": TwoIonConfig(phi=math.pi / 7, dynamics="unitary"),
    "fig4": TwoIonConfig(phi=5 * math.pi / 6, gamma=0.2, dynamics="lindblad"),
    "fig5": TwoIonConfig(phi=math.pi / 7, gamma=0.2, dynamics="lindblad"),
    "fig6": TwoIonConfig(phi=math.pi / 7, dynamics="unitary"),
    "fig9": TwoIonConfig(phi=math.pi / 7, gamma=0.2, dynamics="lindblad"),
    "fig10": TwoIonConfig(phi=math.pi / 7, gamma=0.2, dynamics="lindblad"),
}


def preset(name: str) -> TwoIonConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


PROJ_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def two_ion_model(omega: float, gamma_a: float, gamma_b: float) -> LindbladModel:
    """X x X coupling with local pure dephasing on each ion."""
    hamiltonian = omega * PAULI_XX
    l_a = tensor_product(PROJ_0, np.eye(2))
    l_b = tensor_product(np.eye(2), PROJ_0)
    return LindbladModel(hamiltonian, ((l_a, gamma_a), (l_b, gamma_b)))


def build_channels(cfgs) -> list[QuantumChannel]:
    """The channel of every configuration, in order.

    Each distinct Lindblad endpoint map is integrated once: the maps are
    grouped by ``(tau, step_size)`` and each group is integrated as one
    stacked batch (bit-identical to building each map alone). An
    :class:`IntegratorAccuracyError` names the offending phase and rate; a
    step outside RK4's stability region is refused before any map of its
    group is integrated. The unitary gates are one :func:`ms_gate` call.
    """
    cfgs = list(cfgs)
    key = lambda c: (c.phi, c.gamma, c.tau, c.step_size)
    groups: dict[tuple[float, float], list] = {}
    for k in dict.fromkeys(key(c) for c in cfgs if c.dynamics == "lindblad"):
        groups.setdefault(k[2:], []).append(k)
    found = {}
    for (tau, dt), group in groups.items():
        models = [two_ion_model(phi / tau, gamma, gamma) for phi, gamma, _, _ in group]
        try:
            channels = kraus_from_lindblad_endpoints(models, tau, dt)
        except IntegratorAccuracyError as err:
            phi, gamma = group[err.index][:2]
            raise IntegratorAccuracyError(f"phi={phi!r}, gamma={gamma!r}: {err}") from err
        found.update(zip(group, channels))
    phis = [c.phi for c in cfgs if c.dynamics != "lindblad"]
    gates = iter(ms_gate(phis) if phis else ())
    return [found[key(c)] if c.dynamics == "lindblad" else next(gates) for c in cfgs]


def build_channel(cfg: TwoIonConfig) -> QuantumChannel:
    return build_channels((cfg,))[0]


QUBIT_OBS = Observable.computational(2)
QUBIT_PAIR_OBS = QUBIT_OBS.tensor(QUBIT_OBS)


def build_protocol(cfg: TwoIonConfig, channel: QuantumChannel | None = None) -> TwoTimeProtocol:
    """Computational-basis two-time protocol for one configuration, on
    ``channel`` (by default :func:`build_channel` of ``cfg``); every protocol
    shares the two qubit observables built once at import."""
    rho0 = DensityMatrix.from_diagonal(cfg.rho0_diag, partition=(2, 2))
    return TwoTimeProtocol(
        rho0=rho0,
        obs_in=QUBIT_PAIR_OBS,
        obs_fin=QUBIT_PAIR_OBS,
        channel=build_channel(cfg) if channel is None else channel,
        bipartite_obs=(QUBIT_OBS,) * 4,
    )


PHI_MIN = -0.5
PHI_MAX = 1.0


def reconstruct_subsystem(
    proto: TwoTimeProtocol,
    label: str,
    true_dist: EntropyDistribution,
    n_moments: int,
    method: str = "pinv",
) -> ReconstructionResult:
    """Full reconstruction of one entropy-production distribution.

    Moment-generating values are taken at the Chebyshev nodes of
    [PHI_MIN, PHI_MAX]; the scaled moments come from the Vandermonde
    inversion and the distribution from the requested recovery method
    evaluated on the enumerated support.

    The default interval straddles zero with order-one half-width: nodes of
    both signs keep the Vandermonde conditioning near its real-node optimum
    (growing the interval with N instead leaves a polynomial truncation bias
    of order 1e-4 in the moments), while the slight asymmetry avoids the
    odd/even interpolation-parity plateau of a symmetric interval. The
    pseudo-inverse sees at most as many moment rows as there are support
    points; rows beyond that only add factorially amplified extraction noise.
    """
    measured = _measure_moments([proto], [(0, n_moments)], (label,))[0, n_moments]
    return _recover([(*measured[label], true_dist, _scored_moments(n_moments), label)], method)[0]


def _scored_moments(n_moments: int) -> int:
    """How many leading moments a recovery from ``n_moments`` chi values is
    scored on: up to four, and at least one."""
    return min(4, max(1, n_moments - 1))


def _measure_moments(
    protos: list[TwoTimeProtocol], points, labels: tuple[str, ...] = ("A", "B", "A-B")
) -> dict[tuple[int, int], dict[str, tuple[ParameterGrid, np.ndarray, MomentVector]]]:
    """The Chebyshev grid, chi on it and the extracted moments of each label,
    for each ``(protocol index, N)`` of ``points``; see
    :func:`reconstruct_subsystem`.

    Chi is one stacked call per label, on every protocol and on the union of
    the nodes of every grid the points need. The moments of each N come from
    one shared elimination on all its rows (every label of every protocol).
    Chi at a node does not depend on the other nodes or protocols, nor a
    moment on the other rows, so every value has the bits of a lone point.
    :func:`chebyshev_nodes` refuses an N whose moments overflow float64.
    """
    counts = list(dict.fromkeys(n for _, n in points))
    grids = [chebyshev_nodes(n, PHI_MIN, PHI_MAX) for n in counts]
    nodes = np.concatenate([grid.nodes for grid in grids])
    chis = np.stack([moment_generating(protos, label, nodes) for label in labels], axis=1)
    measured = {}
    stop = 0
    for n, grid in zip(counts, grids):
        start, stop = stop, stop + n
        owners = list(dict.fromkeys(i for i, m in points if m == n))
        rows = chis[owners, :, start:stop]  # (protocol, label, node)
        moments = iter(moments_via_vandermonde(grid, rows.reshape(-1, n)))
        for i, chi in zip(owners, rows):
            measured[i, n] = {label: (grid, c, next(moments)) for label, c in zip(labels, chi)}
    return measured


def _recover(items, method: str) -> list[ReconstructionResult]:
    """One recovery method applied to measured moments, for each item
    ``(grid, chi, moments, true_dist, scored, label)``, scored by
    :func:`_scores` against the true distribution on its leading ``scored``
    moments; see :func:`reconstruct_subsystem`. The pinv recoveries of all
    items are one :func:`pseudoinverse_stack` call."""
    if method == "pinv":
        dists = pseudoinverse_stack(
            (m.nontrivial[: min(m.nontrivial.size, true.support.size)], true.support, label)
            for _, _, m, true, _, label in items
        )
    elif method == "fourier":
        dists = [
            fourier_reconstruct(moments.moments, true.support, label=label)
            for _, _, moments, true, _, label in items
        ]
    else:
        raise ValueError(f"method must be 'pinv' or 'fourier', got {method!r}")
    scores = _scores([item[3] for item in items], dists, [item[4] for item in items])
    return [
        ReconstructionResult(grid, chi, moments, dist, *score)
        for (grid, chi, moments, *_), dist, score in zip(items, dists, scores)
    ]


def _scores(trues, dists, counts) -> list[tuple[float, float]]:
    """The moment and probability RMSEs of each of ``dists`` against its true
    distribution, paired in order: over its leading ``count`` moments (see
    :func:`_scored_moments`) and over the aligned supports (see
    :func:`reconstruct.rmse_probs`). Each value has the bits of its lone
    computation."""
    stack_moments([*trues, *dists], range(1, max(counts, default=0) + 1))
    errors_m = _root_mean_squares(
        [true.moments(k) - dist.moments(k) for true, dist, k in zip(trues, dists, counts)]
    )
    return list(zip(errors_m, rmse_probs(trues, dists)))


@dataclass(frozen=True)
class ReconstructionBundle:
    """Per-method reconstructions of A, B, A-B plus the A+B convolution."""

    per_label: dict[str, ReconstructionResult]
    conv_dist: EntropyDistribution
    rmse_probs_conv: float
    rmse_moments_conv: float


@dataclass(frozen=True)
class ConfigRecord:
    """Everything computed for one configuration."""

    config: TwoIonConfig
    distributions: dict[str, EntropyDistribution]
    conditional_equality_deviation: float
    entropy_bound: EntropyBoundResult
    crooks_deviation: float
    ift_deviation: float
    subadditivity_gap: float
    witness: WitnessResult
    reconstructions: dict[str, ReconstructionBundle]

    def moments_table(self) -> dict[str, np.ndarray]:
        return {label: self.distributions[label].moments(4) for label in LABELS}


def protocol_parts(cfgs, protos) -> list[ConfigRecord]:
    """The record of each configuration on its protocol, without
    reconstructions: the four distributions and every theorem check, none of
    which depends on ``n_moments``. Each check runs once over all the
    protocols (see :func:`protocol.entropy_bound_check` and its
    neighbours), and the first four moments of every distribution come from
    one :func:`protocol.stack_moments` call; each value equals its
    one-protocol computation."""
    protos = list(protos)
    dists = [bipartite_distributions(proto) for proto in protos]
    stack_moments([dist for four in dists for dist in four], range(1, 5))
    dists_ab, dists_conv = [d[2] for d in dists], [d[3] for d in dists]
    checks = zip(
        conditional_equality_deviation(protos),
        entropy_bound_check(protos),
        crooks_check(protos),
        ift_deviation(dists_ab),
        correlation_witness(dists_ab, dists_conv),
    )
    return [
        ConfigRecord(
            config=cfg,
            distributions={"A": dist_a, "B": dist_b, "A-B": dist_ab, "A+B": dist_conv},
            conditional_equality_deviation=conditional,
            entropy_bound=bound,
            crooks_deviation=crooks,
            ift_deviation=ift,
            subadditivity_gap=dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1),
            witness=witness,
            reconstructions={},
        )
        for cfg, (dist_a, dist_b, dist_ab, dist_conv), (conditional, bound, crooks, ift, witness)
        in zip(cfgs, dists, checks)
    ]


def run_config(
    cfg: TwoIonConfig, methods: tuple[str, ...] = ("pinv", "fourier"), part=None
) -> ConfigRecord:
    """Run the full pipeline for one configuration.

    Builds the channel and computational-basis protocol, enumerates all four
    entropy-production distributions, evaluates every theorem check, and runs
    the requested reconstruction methods at ``cfg.n_moments``. Chi, the
    moments of each label and the true moments are evaluated once and shared
    by every method.

    A sweep passes ``part``, the point's share of its stacked work: its
    :func:`protocol_parts` record and its reconstruction bundle by each
    method (see :func:`_sweep_parts`). Without it the call does the same work
    for its one point.
    """
    base, bundles = part or _sweep_parts([cfg], methods)[0]
    return replace(
        base, config=cfg, distributions=dict(base.distributions), reconstructions=dict(bundles)
    )


SWEEP_COLUMNS = (
    [f"m{k}_{key}" for key in ("A", "B", "AB", "ApB") for k in range(1, 5)]
    + ["rmse_moments", "rmse_probs"]
    + [f"gap_m{k}" for k in range(1, 5)]
)


@dataclass(frozen=True)
class SweepReport:
    """Per-point records along one axis (phi, gamma, or N)."""

    axis: str
    points: np.ndarray
    records: tuple[ConfigRecord, ...]

    def rows(self) -> list[dict]:
        """Flat per-point rows keyed by the axis and then ``SWEEP_COLUMNS``:
        the first four moments of each of ``LABELS``, the RMSEs of the first
        method the sweep ran (NaN if none) and the four witness gaps."""
        out = []
        for point, rec in zip(self.points, self.records):
            table = rec.moments_table()
            bundle = next(iter(rec.reconstructions.values()), None)
            rmse = (bundle.rmse_moments_conv, bundle.rmse_probs_conv) if bundle else (math.nan,) * 2
            values = [table[label][k] for label in LABELS for k in range(4)]
            values += [*rmse, *rec.witness.moment_gaps[:4]]
            row = {self.axis: float(point)}
            row.update((column, float(v)) for column, v in zip(SWEEP_COLUMNS, values, strict=True))
            out.append(row)
        return out


def _sweep_parts(cfgs: list[TwoIonConfig], methods) -> list:
    """The stacked work of a sweep: for each point, its :func:`protocol_parts`
    record and its :class:`ReconstructionBundle` by each method at its
    ``n_moments`` (``{method: bundle}``, empty when no method runs).

    Points that differ only in ``n_moments`` share one protocol; say there
    are P protocols. The sweep builds every channel (each distinct Lindblad
    map once, see :func:`build_channels`) and every protocol, validating each
    initial state and its observables once. It then builds all states and
    joint tables with :func:`stack_tables`, the records with their theorem
    checks with :func:`protocol_parts`, and chi and the moments of every
    point with :func:`_measure_moments`: stacks over the P protocols, with
    one channel application per group of equal Kraus shapes (for chi, the
    one that builds each protocol's transfer table) and one elimination per
    distinct N. Last come the bundles (see :func:`_bundles`): one call of
    :func:`_recover` per method for every (point, label), the pinv ones as
    one :func:`reconstruct.pseudoinverse_stack`, then the convolutions of the
    recovered A and B. Their temporaries grow with P times the number of chi
    nodes, chi's as outcome weights, not matrices. A protocol's record is
    built once, so its warnings are raised once per protocol.
    """
    keys = [replace(cfg, n_moments=1) for cfg in cfgs]
    channels = {}
    for key, channel in zip(keys, build_channels(cfgs)):
        channels.setdefault(key, channel)
    protos = []
    first = {}  # the protocol that validated each initial state
    for key, channel in channels.items():
        shared = first.get(key.rho0_diag)
        protos.append(shared._on_channel(channel) if shared else build_protocol(key, channel))
        first.setdefault(key.rho0_diag, protos[-1])
    stack_tables(protos)
    records = protocol_parts(channels, protos)
    owner = {key: i for i, key in enumerate(channels)}
    points = [(owner[key], cfg.n_moments) for key, cfg in zip(keys, cfgs)]
    measured = _measure_moments(protos, points) if methods and points else {}
    bundles = _bundles(records, measured, methods)
    return [(records[i], bundles.get((i, n), {})) for i, n in points]


def _bundles(records, measured, methods) -> dict:
    """The :class:`ReconstructionBundle` of each method for each point
    ``(protocol index, N)`` of ``measured``, scored against the protocol
    parts ``records``: one :func:`_recover` call per method for every
    (point, label), then the convolutions of the recovered A and B, scored
    by :func:`_scores` like the recoveries."""
    points = list(measured)
    items = [
        (*measured[i, n][label], records[i].distributions[label], _scored_moments(n), label)
        for i, n in points
        for label in measured[i, n]
    ]
    true_conv = [records[i].distributions["A+B"] for i, _ in points]
    counts = [_scored_moments(n) for _, n in points]
    bundles = {point: {} for point in points}
    for method in methods:
        results = iter(_recover(items, method))
        per_point = [{label: next(results) for label in measured[point]} for point in points]
        convs = convolve_distributions(
            [r["A"].dist for r in per_point], [r["B"].dist for r in per_point]
        )
        for point, per_label, conv, (error_m, error_p) in zip(
            points, per_point, convs, _scores(true_conv, convs, counts)
        ):
            bundles[point][method] = ReconstructionBundle(per_label, conv, error_p, error_m)
    return bundles


def _run_sweep(cfgs: list[TwoIonConfig], methods) -> tuple[ConfigRecord, ...]:
    """run_config on each configuration, once the sweep's stacked work is
    done (see :func:`_sweep_parts`): one call per point, each reading its
    own share. Every record equals a fresh run_config call for its point,
    and nothing is held after the sweep returns."""
    parts = _sweep_parts(cfgs, methods)
    return tuple(run_config(cfg, methods, part=part) for cfg, part in zip(cfgs, parts))


def sweep_phase(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the gate phase, all other settings fixed."""
    points = np.asarray(points, dtype=float)
    records = _run_sweep([replace(cfg, phi=float(p)) for p in points], methods)
    return SweepReport("phi", points, records)


def sweep_gamma(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the dephasing rate at fixed phase (Lindblad dynamics)."""
    points = np.asarray(points, dtype=float)
    cfgs = [replace(cfg, gamma=float(g), dynamics="lindblad") for g in points]
    return SweepReport("gamma", points, _run_sweep(cfgs, methods))


def sweep_moment_count(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the number of moment evaluations N; the protocol is fixed, so it
    is built and checked once and only the reconstruction runs per point.
    Each point must be an integer (see :func:`chebyshev_nodes`)."""
    points = list(points)
    for n in points:
        _validate_count("N", n)
    records = _run_sweep([replace(cfg, n_moments=int(n)) for n in points], methods)
    return SweepReport("N", np.asarray(points, dtype=float), records)


SWEEPS = {"phi": sweep_phase, "gamma": sweep_gamma, "N": sweep_moment_count}


def default_sweep_points(axis: str) -> np.ndarray:
    if axis == "phi":
        return np.linspace(0.0, 2 * math.pi, 64)
    if axis == "gamma":
        return np.linspace(0.0, 1.2, 25)
    if axis == "N":
        return np.arange(2, 17)
    raise ValueError(f"axis must be 'phi', 'gamma' or 'N', got {axis!r}")
