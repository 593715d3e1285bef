"""The benchmark's seeded sweep workloads.

A workload turns (seed, pass index) into the inputs of one sweep pass and runs
that pass through the library's public sweep functions. The library only sees
the generated points; the seed never reaches it.

Every pass draws fresh values, so a Lindblad pass meets a cold channel cache
for every new (phase, rate) pair, as a fresh CLI process would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from entroprec.experiments import (
    PRESETS,
    SweepReport,
    TwoIonConfig,
    sweep_gamma,
    sweep_moment_count,
    sweep_phase,
)

SWEEPS = {"phi": sweep_phase, "gamma": sweep_gamma, "N": sweep_moment_count}


@dataclass(frozen=True)
class Workload:
    """One sweep family: which axis it sweeps, from which preset, and how."""

    name: str
    preset: str
    axis: str
    methods: tuple[str, ...]
    fmt: str

    def inputs(self, seed: int, pass_index: int) -> tuple[np.ndarray, TwoIonConfig]:
        """Points and base configuration of one pass; equal arguments give
        equal inputs."""
        rng = np.random.default_rng([seed, pass_index])
        base = PRESETS[self.preset]
        if self.axis == "phi":
            return rng.uniform(0.0, 2 * math.pi, 64), base
        if self.axis == "gamma":
            return rng.uniform(0.0, 1.2, 25), base
        phi = base.phi + rng.uniform(-0.1, 0.1)
        gamma = base.gamma + rng.uniform(-0.05, 0.05)
        return np.arange(2, 17), replace(base, phi=phi, gamma=gamma)

    def sweep(self, points: np.ndarray, base: TwoIonConfig) -> SweepReport:
        return SWEEPS[self.axis](points, base, methods=self.methods)

    def is_lindblad(self) -> bool:
        return self.axis == "gamma" or PRESETS[self.preset].dynamics == "lindblad"


# phi_unitary: chi evaluation and the protocol tables dominate; channels do
#   almost nothing (a closed-form gate per point).
# gamma_lindblad: every point misses the channel cache, so the Lindblad
#   endpoint-map build dominates.
# nsweep_fourier: one protocol per pass, reused by all 15 points (cache hits),
#   so moment extraction and recovery dominate.
# Between them the CLI's two emission formats are both exercised.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("phi_unitary", preset="fig3", axis="phi", methods=("pinv",), fmt="csv"),
        Workload("gamma_lindblad", preset="fig5", axis="gamma", methods=("pinv",), fmt="csv"),
        Workload("nsweep_fourier", preset="fig4", axis="N", methods=("pinv", "fourier"),
                 fmt="json"),
    )
}
