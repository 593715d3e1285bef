"""Batch front-end: presets, config resolution, and CSV/JSON report emission.

Commands:
    simulate     enumerate distributions and theorem checks for one config
    reconstruct  run the moment-based reconstruction for one config
    verify       run all fluctuation-theorem checks; exit 0 only if they pass
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
    SweepReport,
    TwoIonConfig,
    default_sweep_points,
    preset,
    run_config,
    sweep_gamma,
    sweep_moment_count,
    sweep_phase,
)

OVERRIDE_KEYS = ("phi", "gamma", "tau", "N", "dynamics", "method")
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
    for key in values:
        if key not in OVERRIDE_KEYS:
            raise ValueError(f"unknown key '{key}' in {source}")
    if "gamma" in values and values["gamma"] < 0:
        raise ValueError(f"'gamma' must be nonnegative ({source})")
    if "N" in values and (not isinstance(values["N"], int) or values["N"] < 1):
        raise ValueError(f"'N' must be an integer >= 1 ({source})")
    if "tau" in values and values["tau"] <= 0:
        raise ValueError(f"'tau' must be positive ({source})")
    if "dynamics" in values and values["dynamics"] not in ("unitary", "lindblad"):
        raise ValueError(f"'dynamics' must be 'unitary' or 'lindblad' ({source})")
    if "method" in values and values["method"] not in ("pinv", "fourier"):
        raise ValueError(f"'method' must be 'pinv' or 'fourier' ({source})")
    return values


def parse_config(argv) -> RunConfig:
    """Resolve flags, optional config file, and preset into one RunConfig."""
    args = _build_parser().parse_args(argv)
    ion = preset(args.preset) if args.preset else TwoIonConfig(phi=math.pi / 7)
    method = "pinv"

    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        file_values = _validate_overrides(raw, f"config file {args.config}")
        method = file_values.pop("method", method)
        if "N" in file_values:
            file_values["n_moments"] = file_values.pop("N")
        ion = replace(ion, **file_values)

    flag_values = {
        key: getattr(args, key)
        for key in ("phi", "gamma", "tau", "N", "dynamics", "method")
        if getattr(args, key) is not None
    }
    flag_values = _validate_overrides(flag_values, "command line")
    method = flag_values.pop("method", method)
    if "N" in flag_values:
        flag_values["n_moments"] = flag_values.pop("N")
    ion = replace(ion, **flag_values)

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
        "mean_sigma": record.mean_sigma,
        "moments": {label: [float(v) for v in table[label]] for label in table},
        "distributions": {
            label: _dist_payload(dist) for label, dist in record.distributions.items()
        },
        "checks": _checks_payload(record),
        "reconstruction": _recon_payload(record, cfg.method),
    }


def _checks_payload(record) -> dict:
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
    checks["pass"] = all(
        entry["pass"] for key, entry in checks.items() if isinstance(entry, dict) and "pass" in entry
    )
    return checks


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


SWEEP_COLUMNS = (
    ["m{}_{}".format(k, key) for key in ("A", "B", "AB", "ApB") for k in range(1, 5)]
    + ["rmse_moments", "rmse_probs"]
    + ["gap_m{}".format(k) for k in range(1, 5)]
)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def emit_report(report: dict, cfg: RunConfig, sweep: SweepReport | None = None) -> list[Path]:
    """Write the report in the requested format; returns the written paths."""
    out_dir = cfg.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out_dir}: {exc}") from exc
    written: list[Path] = []
    if cfg.fmt == "json":
        path = out_dir / f"{cfg.command}.json"
        path.write_text(json.dumps(report, indent=2, allow_nan=False))
        written.append(path)
        return written
    if sweep is not None:
        header = [sweep.axis] + SWEEP_COLUMNS
        rows = [[row[col] for col in header] for row in sweep.rows()]
        path = out_dir / "sweep.csv"
        _write_csv(path, header, rows)
        written.append(path)
    if "distributions" in report:
        rows = []
        for label, entries in report["distributions"].items():
            for entry in entries:
                rows.append([label, entry["sigma"], entry["prob"]])
        path = out_dir / f"{cfg.command}_distributions.csv"
        _write_csv(path, ["label", "sigma", "prob"], rows)
        written.append(path)
    return written


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
        record = run_config(cfg.ion, methods=(cfg.method,))
        checks = _checks_payload(record)
        report = {"config": cfg.echo(), "checks": checks}
        emit_report(report, cfg)
        print(json.dumps(checks))
        if checks["pass"]:
            return 0
        failures = [
            key
            for key, entry in checks.items()
            if isinstance(entry, dict) and "pass" in entry and not entry["pass"]
        ]
        print(json.dumps({"failed_checks": failures}), file=sys.stderr)
        return 1

    # sweep
    points = default_sweep_points(cfg.axis)
    if cfg.axis == "phi":
        sweep = sweep_phase(points, cfg.ion, methods=(cfg.method,))
    elif cfg.axis == "gamma":
        sweep = sweep_gamma(points, cfg.ion, methods=(cfg.method,))
    else:
        sweep = sweep_moment_count(points, cfg.ion, methods=(cfg.method,))
    report = {"config": cfg.echo(), "axis": cfg.axis, "rows": sweep.rows()}
    emit_report(report, cfg, sweep=sweep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
