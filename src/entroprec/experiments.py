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
from functools import lru_cache

import numpy as np

from .channels import LindbladModel, QuantumChannel, kraus_from_lindblad_endpoint, ms_gate
from .charfunc import moment_generating
from .core import DensityMatrix, Observable, tensor_product
from .protocol import (
    EntropyDistribution,
    EntropyBoundResult,
    TwoTimeProtocol,
    WitnessResult,
    bipartite_distributions,
    convolve_distributions,
    correlation_witness,
    crooks_check,
    ift_deviation,
    mean_entropy,
    conditional_equality_deviation,
    entropy_bound_check,
)
from .reconstruct import (
    ReconstructionResult,
    chebyshev_nodes,
    fourier_reconstruct,
    moments_via_vandermonde,
    pseudoinverse_reconstruct,
    rmse_moments,
    rmse_probs,
)

RHO0_DIAG = (6 / 25, 9 / 25, 4 / 25, 6 / 25)
DEFAULT_TAU = 50.0
DEFAULT_STEPS = 5000
LABELS = ("A", "B", "A-B", "A+B")


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
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dynamics not in ("unitary", "lindblad"):
            raise ValueError(f"dynamics must be 'unitary' or 'lindblad', got {self.dynamics!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n_moments < 1:
            raise ValueError("n_moments must be at least 1")

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
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    hamiltonian = omega * np.kron(x, x)
    l_a = tensor_product(PROJ_0, np.eye(2))
    l_b = tensor_product(np.eye(2), PROJ_0)
    return LindbladModel(hamiltonian, ((l_a, gamma_a), (l_b, gamma_b)))


@lru_cache(maxsize=256)
def _cached_lindblad_channel(phi: float, gamma: float, tau: float, dt: float) -> QuantumChannel:
    model = two_ion_model(phi / tau, gamma, gamma)
    return kraus_from_lindblad_endpoint(model, tau, dt)


def build_channel(cfg: TwoIonConfig) -> QuantumChannel:
    if cfg.dynamics == "unitary":
        return ms_gate(cfg.phi)
    return _cached_lindblad_channel(cfg.phi, cfg.gamma, cfg.tau, cfg.step_size)


def build_protocol(cfg: TwoIonConfig) -> TwoTimeProtocol:
    """Computational-basis two-time protocol for one configuration."""
    rho0 = DensityMatrix.from_diagonal(cfg.rho0_diag, partition=(2, 2))
    qubit_obs = Observable.computational(2)
    return TwoTimeProtocol.bipartite(
        rho0, qubit_obs, qubit_obs, qubit_obs, qubit_obs, build_channel(cfg)
    )


PHI_MIN = -0.5
PHI_MAX = 1.0


def reconstruct_subsystem(
    proto: TwoTimeProtocol,
    label: str,
    true_dist: EntropyDistribution,
    n_moments: int,
    method: str = "pinv",
    phi_min: float = PHI_MIN,
    phi_max: float = PHI_MAX,
) -> ReconstructionResult:
    """Full reconstruction of one entropy-production distribution.

    Moment-generating values are taken at the Chebyshev nodes of
    [phi_min, phi_max]; the scaled moments come from the Vandermonde
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
    grid = chebyshev_nodes(n_moments, phi_min, phi_max)
    chi = np.array([moment_generating(proto, label, phi) for phi in grid.nodes])
    moments = moments_via_vandermonde(grid, chi)
    if method == "pinv":
        n_rows = min(moments.nontrivial.size, true_dist.support.size)
        dist = pseudoinverse_reconstruct(
            moments.nontrivial[:n_rows], true_dist.support, label
        )
    elif method == "fourier":
        dist = fourier_reconstruct(moments.moments, true_dist.support, label=label)
    else:
        raise ValueError(f"method must be 'pinv' or 'fourier', got {method!r}")
    k_max = min(4, max(1, moments.nontrivial.size))
    return ReconstructionResult(
        grid=grid,
        chi=chi,
        moments=moments,
        method=method,
        dist=dist,
        rmse_moments=rmse_moments(true_dist.moments(k_max), dist.moments(k_max), k_max),
        rmse_probs=rmse_probs(true_dist, dist),
    )


@dataclass(frozen=True)
class ReconstructionBundle:
    """Per-method reconstructions of A, B, A-B plus the A+B convolution."""

    method: str
    per_label: dict[str, ReconstructionResult]
    conv_dist: EntropyDistribution
    rmse_probs_conv: float
    rmse_moments_conv: float


@dataclass(frozen=True)
class ConfigRecord:
    """Everything computed for one configuration."""

    config: TwoIonConfig
    distributions: dict[str, EntropyDistribution]
    mean_sigma: float
    conditional_equality_deviation: float
    entropy_bound: EntropyBoundResult
    crooks_deviation: float
    ift_deviation: float
    subadditivity_gap: float
    witness: WitnessResult
    reconstructions: dict[str, ReconstructionBundle]

    def moments_table(self, k_max: int = 4) -> dict[str, np.ndarray]:
        return {label: self.distributions[label].moments(k_max) for label in LABELS}


def run_config(cfg: TwoIonConfig, methods: tuple[str, ...] = ("pinv", "fourier")) -> ConfigRecord:
    """Run the full pipeline for one configuration.

    Builds the channel and computational-basis protocol, enumerates all four
    entropy-production distributions, evaluates every theorem check, and runs
    the requested reconstruction methods at ``cfg.n_moments``.
    """
    proto = build_protocol(cfg)
    dist_a, dist_b, dist_ab, dist_conv = bipartite_distributions(proto)
    dists = {"A": dist_a, "B": dist_b, "A-B": dist_ab, "A+B": dist_conv}
    bundles: dict[str, ReconstructionBundle] = {}
    for method in methods:
        per_label = {
            label: reconstruct_subsystem(proto, label, dists[label], cfg.n_moments, method)
            for label in ("A", "B", "A-B")
        }
        conv = convolve_distributions(per_label["A"].dist, per_label["B"].dist)
        k_max = min(4, max(1, cfg.n_moments - 1))
        bundles[method] = ReconstructionBundle(
            method=method,
            per_label=per_label,
            conv_dist=conv,
            rmse_probs_conv=rmse_probs(dist_conv, conv),
            rmse_moments_conv=rmse_moments(dist_conv.moments(k_max), conv.moments(k_max), k_max),
        )
    gap = dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1)
    return ConfigRecord(
        config=cfg,
        distributions=dists,
        mean_sigma=mean_entropy(proto),
        conditional_equality_deviation=conditional_equality_deviation(proto),
        entropy_bound=entropy_bound_check(proto),
        crooks_deviation=crooks_check(proto),
        ift_deviation=ift_deviation(dist_ab),
        subadditivity_gap=gap,
        witness=correlation_witness(dist_ab, dist_conv),
        reconstructions=bundles,
    )


@dataclass(frozen=True)
class SweepReport:
    """Per-point records along one axis (phi, gamma, or N)."""

    axis: str
    points: np.ndarray
    records: tuple[ConfigRecord, ...]

    def rows(self) -> list[dict]:
        """Flat per-point rows with a fixed key order for emission; the RMSE
        columns come from the first method the sweep ran (NaN if none)."""
        out = []
        for point, rec in zip(self.points, self.records):
            row: dict[str, float] = {self.axis: float(point)}
            table = rec.moments_table()
            for label, key in zip(LABELS, ("A", "B", "AB", "ApB")):
                for k in range(4):
                    row[f"m{k + 1}_{key}"] = float(table[label][k])
            bundle = next(iter(rec.reconstructions.values()), None)
            row["rmse_moments"] = float(bundle.rmse_moments_conv) if bundle else float("nan")
            row["rmse_probs"] = float(bundle.rmse_probs_conv) if bundle else float("nan")
            for k in range(4):
                row[f"gap_m{k + 1}"] = float(rec.witness.moment_gaps[k])
            out.append(row)
        return out


def sweep_phase(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the gate phase, all other settings fixed."""
    points = np.asarray(points, dtype=float)
    records = tuple(run_config(replace(cfg, phi=float(p)), methods) for p in points)
    return SweepReport("phi", points, records)


def sweep_gamma(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the dephasing rate at fixed phase (Lindblad dynamics)."""
    points = np.asarray(points, dtype=float)
    records = tuple(
        run_config(replace(cfg, gamma=float(g), dynamics="lindblad"), methods) for g in points
    )
    return SweepReport("gamma", points, records)


def sweep_moment_count(points, cfg: TwoIonConfig, methods=("pinv",)) -> SweepReport:
    """Sweep the number of moment evaluations N; the protocol is fixed."""
    points = np.asarray(points, dtype=int)
    records = tuple(run_config(replace(cfg, n_moments=int(n)), methods) for n in points)
    return SweepReport("N", np.asarray(points, dtype=float), records)


def default_sweep_points(axis: str) -> np.ndarray:
    if axis == "phi":
        return np.linspace(0.0, 2 * math.pi, 64)
    if axis == "gamma":
        return np.linspace(0.0, 1.2, 25)
    if axis == "N":
        return np.arange(2, 17)
    raise ValueError(f"axis must be 'phi', 'gamma' or 'N', got {axis!r}")
