"""Metric arithmetic: latency percentiles with their sample rule, and the
per-layer figures derived from recorded spans."""

from __future__ import annotations

import numpy as np

from spans import self_times

P_HIGH = 90  # the highest latency percentile reported
MIN_TAIL = 10  # samples a reported percentile must have beyond it


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_count(samples, q: float) -> int:
    """Samples strictly above the q-th percentile."""
    samples = np.asarray(samples, dtype=float)
    return int(np.sum(samples > percentile(samples, q))) if samples.size else 0


def enough_samples(samples) -> bool:
    """Whether the P_HIGH percentile has MIN_TAIL samples beyond it."""
    return tail_count(samples, P_HIGH) >= MIN_TAIL


ENTROPY = {"core.von_neumann_entropy", "core.relative_entropy", "core.trace_rho_log_sigma"}
CHECKS = {
    "protocol.conditional_equality_deviation",
    "protocol.entropy_bound_check",
    "protocol.crooks_check",
    "protocol.ift_deviation",
    "protocol.correlation_witness",
}
MOMENTS = {"reconstruct.moments_via_vandermonde", "reconstruct.moments_via_newton"}


class SpanTotals:
    """Calls, inclusive and self seconds per span name and per layer."""

    def __init__(self, spans):
        self.spans = spans
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            layer = name.split(".")[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own

    def outer_total(self, names: set[str]) -> float:
        """Inclusive seconds of spans in ``names`` not nested in another of them."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: SpanTotals, *, points: int, passes: int, lindblad: bool,
                  infeasible: int, ill_conditioned: int, extractions: int,
                  bytes_written: int, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer figures for ``points`` points in ``passes`` traced passes.

    ``infeasible`` counts InfeasibleRecoveryWarnings, ``ill_conditioned`` the
    moment extractions flagged out of ``extractions``; ``traced_s`` and
    ``untraced_s`` are the wall times of equally many traced and untraced
    passes.
    """
    calls = lambda name: totals.calls.get(name, 0)
    ms = lambda name: 1e3 * totals.total.get(name, 0.0)
    per_point = lambda seconds: 1e3 * seconds / points
    own = lambda layer: per_point(totals.layer_self.get(layer, 0.0))
    endpoint = "channels.kraus_from_lindblad_endpoint"
    builds = calls(endpoint)
    lookups = calls("experiments.build_channel") if lindblad else 0
    chi = "charfunc.moment_generating"
    pinv, fourier = "reconstruct.pseudoinverse_reconstruct", "reconstruct.fourier_reconstruct"
    recoveries = calls(pinv) + calls(fourier)
    return {
        "channels.endpoint_builds": builds / passes,
        "channels.endpoint_ms_per_build": _ratio(ms(endpoint), builds),
        "channels.apply_calls_per_point": calls("channels.QuantumChannel.apply_matrix") / points,
        "channels.self_ms_per_point": own("channels"),
        "core.entropy_ms_per_point": per_point(totals.outer_total(ENTROPY)),
        "core.self_ms_per_point": own("core"),
        "protocol.distributions_ms_per_point": ms("protocol.bipartite_distributions") / points,
        "protocol.checks_ms_per_point": per_point(totals.outer_total(CHECKS)),
        "protocol.marginals_calls_per_point": calls("protocol.bipartite_marginals") / points,
        "protocol.backward_tables_per_point": calls("protocol.backward_joint") / points,
        "protocol.self_ms_per_point": own("protocol"),
        "charfunc.chi_calls_per_point": calls(chi) / points,
        "charfunc.chi_ms_per_call": _ratio(ms(chi), calls(chi)),
        "charfunc.chi_self_ms_per_point": own("charfunc"),
        "reconstruct.moments_ms_per_point": per_point(totals.outer_total(MOMENTS)),
        "reconstruct.fourier_ms_per_point": ms(fourier) / points,
        "reconstruct.pinv_ms_per_point": ms(pinv) / points,
        "reconstruct.feasible_ratio": _ratio(recoveries - infeasible, recoveries),
        "reconstruct.ill_conditioned_ratio": _ratio(ill_conditioned, extractions),
        "reconstruct.self_ms_per_point": own("reconstruct"),
        "experiments.build_channel_ms_per_point": ms("experiments.build_channel") / points,
        "experiments.channel_cache_hit_ratio": _ratio(lookups - builds, lookups),
        "experiments.self_ms_per_point": own("experiments"),
        "cli.emit_ms_per_pass": ms("cli.emit_report") / passes,
        "cli.bytes_written": bytes_written / passes,
        "trace.overhead_frac": _ratio(traced_s - untraced_s, untraced_s),
    }
