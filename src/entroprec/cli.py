"""Batch front-end: presets, config resolution, and CSV/JSON report emission.

Commands:
    simulate     enumerate distributions and theorem checks for one config
    reconstruct  run the moment-based reconstruction for one config
    verify       run all fluctuation-theorem checks; exit 0 only if they pass
                 (JSON only: --format csv is refused)
    sweep        sweep phi, gamma, or N and emit one row per point

Precedence of settings: CLI flags > config file > preset > built-in defaults.
The environment variable ENTROPREC_SEED is reserved for randomised test
generation; the pipeline itself is deterministic.

Exit codes: 0 success; 1 a ``verify`` check failed; 2 bad input or a
numerical failure, reported as one JSON line ``{"error": ...}`` on stderr
(argparse usage errors also exit 2, with argparse's usage message).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .experiments import (
    PRESETS,
    SWEEP_COLUMNS,
    SWEEPS,
    SweepReport,
    TwoIonConfig,
    default_sweep_points,
    preset,
    run_config,
)


def _is_real(value) -> bool:
    # bool is an int subclass, but JSON true/false is never a setting here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What each override key accepts. NaN and infinities pass here; TwoIonConfig
# refuses them with the key named.
OVERRIDES = {
    "phi": ("a real number", _is_real),
    "gamma": ("a nonnegative number", lambda v: _is_real(v) and not v < 0),
    "tau": ("a positive number", lambda v: _is_real(v) and not v <= 0),
    "N": ("an integer >= 1", lambda v: _is_real(v) and isinstance(v, int) and v >= 1),
    "dynamics": ("'unitary' or 'lindblad'", lambda v: v in ("unitary", "lindblad")),
    "method": ("'pinv' or 'fourier'", lambda v: v in ("pinv", "fourier")),
}

CHECK_TOLERANCES = {
    "conditional_equality": 1e-7,
    "ift": 1e-7,
    "crooks": 1e-7,
    "subadditivity": -1e-10,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation."""

    command: str
    ion: TwoIonConfig
    method: str = "pinv"
    axis: str = "phi"
    preset_name: str | None = None
    output_dir: Path = Path("out")
    fmt: str = "json"

    def echo(self) -> dict:
        return {
            "command": self.command,
            "preset": self.preset_name,
            "phi": self.ion.phi,
            "gamma": self.ion.gamma,
            "tau": self.ion.tau,
            "N": self.ion.n_moments,
            "dynamics": self.ion.dynamics,
            "method": self.method,
            "axis": self.axis if self.command == "sweep" else None,
            "out": str(self.output_dir),
            "format": self.fmt,
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroprec",
        description="Entropy-production simulation and reconstruction for two trapped ions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "reconstruct", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--phi", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--dynamics", choices=("unitary", "lindblad"), default=None)
        p.add_argument("--method", choices=("pinv", "fourier"), default=None)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if name == "sweep":
            p.add_argument("--axis", choices=("phi", "gamma", "N"), required=True)
    return parser


def _validate_overrides(values: dict, source: str) -> dict:
    for key, value in values.items():
        if key not in OVERRIDES:
            raise ValueError(f"unknown key '{key}' in {source}")
        expected, accepts = OVERRIDES[key]
        if not accepts(value):
            raise ValueError(f"'{key}' must be {expected} ({source})")
    return values


def parse_config(argv) -> RunConfig:
    """Resolve flags, optional config file, and preset into one RunConfig."""
    args = _build_parser().parse_args(argv)
    ion = preset(args.preset) if args.preset else TwoIonConfig(phi=math.pi / 7)
    method = "pinv"
    sources = []
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        sources.append((raw, f"config file {args.config}"))
    flags = {key: getattr(args, key) for key in OVERRIDES if getattr(args, key) is not None}
    sources.append((flags, "command line"))

    for values, source in sources:  # the later source wins
        values = _validate_overrides(values, source)
        method = values.pop("method", method)
        if "N" in values:
            values["n_moments"] = values.pop("N")
        ion = replace(ion, **values)

    if args.command == "verify" and args.format == "csv":
        raise ValueError("verify reports are JSON only; --format csv is not supported")
    return RunConfig(
        command=args.command,
        ion=ion,
        method=method,
        axis=getattr(args, "axis", "phi"),
        preset_name=args.preset,
        output_dir=args.out,
        fmt=args.format,
    )


def _dist_payload(dist) -> list[dict]:
    return [
        {"sigma": float(s), "prob": float(p)}
        for s, p in zip(dist.support, dist.probs)
    ]


def _simulate_report(cfg: RunConfig) -> dict:
    record = run_config(cfg.ion, methods=(cfg.method,))
    table = record.moments_table()
    return {
        "config": cfg.echo(),
        "mean_sigma": record.entropy_bound.mean_sigma,
        "moments": {label: [float(v) for v in table[label]] for label in table},
        "distributions": {
            label: _dist_payload(dist) for label, dist in record.distributions.items()
        },
        "checks": _checks_payload(record)[0],
        "reconstruction": _recon_payload(record, cfg.method),
    }


def _checks_payload(record) -> tuple[dict, list[str]]:
    """The checks of a record, with their overall ``pass``, and the names of
    the checks that failed."""
    checks = {
        "conditional_equality": {
            "deviation": record.conditional_equality_deviation,
            "pass": record.conditional_equality_deviation <= CHECK_TOLERANCES["conditional_equality"],
        },
        "entropy_bound": {
            "relative_entropy": record.entropy_bound.relative_entropy,
            "mean_sigma": record.entropy_bound.mean_sigma,
            "pass": record.entropy_bound.passed,
        },
        "ift": {
            "deviation": record.ift_deviation,
            "pass": record.ift_deviation <= CHECK_TOLERANCES["ift"],
        },
        "crooks": {
            "deviation": record.crooks_deviation,
            "pass": record.crooks_deviation <= CHECK_TOLERANCES["crooks"],
        },
        "subadditivity": {
            "gap": record.subadditivity_gap,
            "pass": record.subadditivity_gap >= CHECK_TOLERANCES["subadditivity"],
        },
        "witness": {
            "moment_gaps": [float(g) for g in record.witness.moment_gaps],
            "distinct": record.witness.distinct,
        },
    }
    failed = [key for key, entry in checks.items() if "pass" in entry and not entry["pass"]]
    checks["pass"] = not failed
    return checks, failed


def _recon_payload(record, method: str) -> dict:
    bundle = record.reconstructions[method]
    payload = {
        "method": method,
        "rmse_probs_conv": bundle.rmse_probs_conv,
        "rmse_moments_conv": bundle.rmse_moments_conv,
        "per_label": {},
    }
    for label, result in bundle.per_label.items():
        payload["per_label"][label] = {
            "nodes": [float(x) for x in result.grid.nodes],
            "chi": [float(x) for x in result.chi],
            "moments": [float(x) for x in result.moments.moments],
            "condition_number": result.moments.condition_number,
            "ill_conditioned": result.moments.ill_conditioned,
            "rmse_moments": result.rmse_moments,
            "rmse_probs": result.rmse_probs,
            "distribution": _dist_payload(result.dist),
        }
    payload["conv_distribution"] = _dist_payload(bundle.conv_dist)
    return payload


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_distributions(report: dict) -> dict | None:
    """The distributions a report's CSV form lists: the enumerated ones of a
    simulate report, the recovered A, B, A-B and A+B of a reconstruct report."""
    if "distributions" in report:
        return report["distributions"]
    if "reconstruction" in report:
        recon = report["reconstruction"]
        dists = {label: entry["distribution"] for label, entry in recon["per_label"].items()}
        return {**dists, "A+B": recon["conv_distribution"]}
    return None


def emit_report(report: dict, cfg: RunConfig, sweep: SweepReport | None = None) -> list[Path]:
    """Write the report in the requested format; returns the written paths.

    JSON writes ``<command>.json``. CSV writes ``sweep.csv`` for a sweep and
    ``<command>_distributions.csv`` (``label,sigma,prob``) for a report that
    carries distributions; a report with no CSV form raises ``ValueError``.
    """
    out_dir = cfg.output_dir
    tables = []  # (file name, header, rows) of each CSV file
    if cfg.fmt == "csv":
        if sweep is not None:
            header = [sweep.axis] + SWEEP_COLUMNS
            tables.append(("sweep.csv", header, [[row[c] for c in header] for row in sweep.rows()]))
        dists = _csv_distributions(report)
        if dists is not None:
            rows = [
                [label, entry["sigma"], entry["prob"]]
                for label, entries in dists.items()
                for entry in entries
            ]
            tables.append((f"{cfg.command}_distributions.csv", ["label", "sigma", "prob"], rows))
        if not tables:
            raise ValueError(f"a {cfg.command} report has no CSV form; use --format json")
    else:
        # serialised before the directory is made, so a refused report leaves none
        text = json.dumps(report, indent=2, allow_nan=False)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out_dir}: {exc}") from exc
    if cfg.fmt == "json":
        path = out_dir / f"{cfg.command}.json"
        path.write_text(text)
        return [path]
    for name, header, rows in tables:
        _write_csv(out_dir / name, header, rows)
    return [out_dir / name for name, _, _ in tables]


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except (ValueError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            return int(exc.code or 0)
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps({"effective_config": cfg.echo()}))
    try:
        return _run(cfg)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def _run(cfg: RunConfig) -> int:
    if cfg.command in ("simulate", "reconstruct"):
        report = _simulate_report(cfg)
        if cfg.command == "reconstruct":
            report = {
                "config": report["config"],
                "reconstruction": report["reconstruction"],
                "moments": report["moments"],
            }
        emit_report(report, cfg)
        return 0

    if cfg.command == "verify":
        checks, failed = _checks_payload(run_config(cfg.ion, methods=()))
        emit_report({"config": cfg.echo(), "checks": checks}, cfg)
        print(json.dumps(checks))
        if not failed:
            return 0
        print(json.dumps({"failed_checks": failed}), file=sys.stderr)
        return 1

    sweep = SWEEPS[cfg.axis](default_sweep_points(cfg.axis), cfg.ion, methods=(cfg.method,))
    report = {"config": cfg.echo(), "axis": cfg.axis, "rows": sweep.rows()}
    emit_report(report, cfg, sweep=sweep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
