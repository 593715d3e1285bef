"""entroprec benchmark: seeded sweep workloads through the public library API.

Run from the repository root (the checkout must hold ``src/entroprec``):

    python3 bench/run.py --workload phi_unitary --seed 1 --seconds 30 --trace 0

The load is a closed loop: one process, one thread, whose single caller is the
sweep loop, so the next configuration starts only after the previous one has
completed. One pass is one call of the library's sweep function on freshly
seeded points, followed by ``entroprec.cli.emit_report``; every point is then
checked by ``gate.py`` outside the timed region.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. The last line
of stdout is the JSON result; the full record (environment, warnings by
category, sample counts, failed points) and the spans go to ``.bench_out/``.

``--write-reference`` regenerates ``reference.json`` from the default seed.
"""

import os

# Pin BLAS and OpenMP pools before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import json
import platform
import resource
import select
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
REFERENCE_PASS = 1  # pass 0 is the warm-up
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# The benchmark measures this checkout's sources and nothing installed elsewhere.
if not (SRC / "entroprec" / "__init__.py").is_file():
    sys.exit(f"bench: no entroprec sources under {SRC}; run from the repository root")
sys.path.insert(0, str(SRC))

import numpy as np

import entroprec
import entroprec.cli
import gate
import metrics
from spans import SpanRecorder, instrument
from workloads import WORKLOADS

if Path(entroprec.__file__).resolve().parent != (SRC / "entroprec").resolve():
    sys.exit(f"bench: entroprec imported from {entroprec.__file__}, not {SRC}")


@dataclass
class Tally:
    """What a run accumulates over its passes."""

    passes: int = 0
    points: int = 0
    failed: int = 0
    wall_s: float = 0.0
    bytes_written: int = 0
    extractions: int = 0
    ill_conditioned: int = 0
    latencies_ms: list = field(default_factory=list)
    warnings: collections.Counter = field(default_factory=collections.Counter)
    failures: list = field(default_factory=list)

    def fail(self, index: int, points, which, reasons: list[str]) -> None:
        for i in which:
            self.failed += 1
            self.failures.append({"pass": index, "point": float(points[i]), "reasons": reasons})


@contextmanager
def point_timer(samples: list):
    """Time each run_config call the sweep makes (one per point)."""
    original = entroprec.experiments.run_config

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(1e3 * (perf_counter() - start))

    entroprec.experiments.run_config = timed
    try:
        yield
    finally:
        entroprec.experiments.run_config = original


class Runner:
    """Runs and checks the passes of one workload for one seed."""

    def __init__(self, workload, seed: int, reference: list | None):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.out_dir = OUT / workload.name

    def emit(self, sweep, base) -> list[Path]:
        """Write the pass's report the way ``entroprec sweep`` does."""
        cfg = entroprec.cli.RunConfig(
            command="sweep",
            ion=base,
            method=self.workload.methods[0],
            axis=self.workload.axis,
            preset_name=self.workload.preset,
            output_dir=self.out_dir,
            fmt=self.workload.fmt,
        )
        report = {"config": cfg.echo(), "axis": sweep.axis, "rows": sweep.rows()}
        return entroprec.cli.emit_report(report, cfg, sweep=sweep)

    def run_pass(self, index: int, tally: Tally, recorder=None, time_points: bool = False):
        """One sweep pass plus emission (timed), then the gate (untimed)."""
        points, base = self.workload.inputs(self.seed, index)
        samples: list[float] = []
        sweep = paths = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            timer = point_timer(samples) if time_points else nullcontext()
            span = recorder.span("bench.pass") if recorder else nullcontext()
            start = perf_counter()
            try:
                with timer, span:
                    sweep = self.workload.sweep(points, base)
                    paths = self.emit(sweep, base)
            except Exception:  # a failing pass is counted, never re-drawn
                traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - start
        tally.passes += 1
        tally.points += len(points)
        tally.wall_s += wall
        tally.warnings.update(w.category.__name__ for w in caught)
        if time_points:
            if len(samples) != len(points):  # a sweep not made of run_config calls
                samples = [1e3 * wall / len(points)] * len(points)
            tally.latencies_ms.extend(samples)
        self.check_pass(index, points, sweep, paths, tally)

    def check_pass(self, index: int, points, sweep, paths, tally: Tally) -> None:
        if paths is None or len(sweep.records) != len(points):
            tally.fail(index, points, range(len(points)), ["raised"])
            return
        if not self.emitted_ok(sweep, paths, tally):
            tally.fail(index, points, range(len(points)), ["emission"])
            return
        refs = self.reference if index == REFERENCE_PASS else None
        if refs is not None and [r["point"] for r in refs] != [float(p) for p in points]:
            sys.exit("bench: reference.json does not match the generated inputs")
        for i, record in enumerate(sweep.records):
            reasons = gate.point_failures(record, refs[i] if refs else None)
            if reasons:
                tally.fail(index, points, [i], reasons)
            for bundle in record.reconstructions.values():
                for result in bundle.per_label.values():
                    tally.extractions += 1
                    tally.ill_conditioned += bool(result.moments.ill_conditioned)

    def emitted_ok(self, sweep, paths: list[Path], tally: Tally) -> bool:
        """The written report parses back to exactly the sweep's rows."""
        if len(paths) != 1:
            return False
        tally.bytes_written += paths[0].stat().st_size
        text = paths[0].read_text()
        rows = sweep.rows()
        columns = list(rows[0])
        if self.workload.fmt == "json":
            back = [[row[c] for c in columns] for row in json.loads(text)["rows"]]
        else:
            lines = text.splitlines()
            if lines[0].split(",") != columns:
                return False
            back = [[float(v) for v in line.split(",")] for line in lines[1:]]
        expected = [[row[c] for c in columns] for row in rows]
        return np.array_equal(np.array(back, dtype=float), np.array(expected), equal_nan=True)


def run_timed(runner: Runner, seconds: float) -> Tally:
    """Passes until ``seconds`` of measured work and enough latency samples."""
    points, base = runner.workload.inputs(runner.seed, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.workload.sweep(points[:1], base)  # warm-up, not measured
    tally = Tally()
    index = REFERENCE_PASS
    while tally.wall_s < seconds or not metrics.enough_samples(tally.latencies_ms):
        runner.run_pass(index, tally, time_points=True)
        index += 1
    return tally


def run_traced(runner: Runner, seconds: float, recorder: SpanRecorder) -> tuple[Tally, Tally]:
    """Alternate untraced and traced passes on fresh inputs until ``seconds``."""
    untraced, traced = Tally(), Tally()
    start = perf_counter()
    index = REFERENCE_PASS
    while traced.passes == 0 or perf_counter() - start < seconds:
        runner.run_pass(index, untraced)
        with instrument(recorder, entroprec):
            runner.run_pass(index + 1, traced, recorder=recorder)
        index += 2
    return untraced, traced


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    entroprec and built the workload's first inputs; one value per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit("bench: setup probe failed")
        times.append(elapsed)
    return times


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, env={**os.environ, "GIT_DIR": ".git"})
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 process, 1 thread",
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def write_reference() -> None:
    out = {"seed": DEFAULT_SEED, "pass": REFERENCE_PASS, "workloads": {}}
    for name, workload in WORKLOADS.items():
        points, base = workload.inputs(DEFAULT_SEED, REFERENCE_PASS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = workload.sweep(points, base)
        records = []
        for point, record in zip(points, sweep.records):
            reasons = gate.point_failures(record)
            if reasons:
                sys.exit(f"bench: {name} point {point} fails {reasons}; not writing")
            records.append({"point": float(point), **gate.fingerprint(record)})
        out["workloads"][name] = records
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(args.seed, REFERENCE_PASS)
        print("ready", flush=True)
        return 0

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    runner = Runner(workload, args.seed, reference)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    record = {"workload": workload.name, "seconds": args.seconds}
    record["environment"] = environment(args.seed)

    if args.trace:
        declared = declared_metrics("per_layer")
        recorder = SpanRecorder()
        untraced, traced = run_traced(runner, args.seconds, recorder)
        values = metrics.layer_metrics(
            metrics.SpanTotals(recorder.spans),
            points=traced.points,
            passes=traced.passes,
            lindblad=workload.is_lindblad(),
            infeasible=traced.warnings["InfeasibleRecoveryWarning"],
            ill_conditioned=traced.ill_conditioned,
            extractions=traced.extractions,
            bytes_written=traced.bytes_written,
            traced_s=traced.wall_s,
            untraced_s=untraced.wall_s,
        )
        recorder.write(OUT / f"spans_{stem}.json")
        tallies = {"untraced": untraced, "traced": traced}
    else:
        declared = declared_metrics("end_to_end")
        setup = measure_setup(workload.name, args.seed)
        tally = run_timed(runner, args.seconds)
        values = {
            "setup_s": statistics.median(setup),
            "points_per_s": tally.points / tally.wall_s,
            "point_ms_p50": metrics.percentile(tally.latencies_ms, 50),
            "point_ms_p90": metrics.percentile(tally.latencies_ms, metrics.P_HIGH),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_samples_s"] = setup
        record["latency_samples"] = len(tally.latencies_ms)
        record["p90_tail_samples"] = metrics.tail_count(tally.latencies_ms, metrics.P_HIGH)
        tallies = {"timed": tally}

    if set(values) != set(declared):
        sys.exit(f"bench: metrics {sorted(set(values) ^ set(declared))} not as declared")
    attempted = sum(t.points for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    record.update(
        metrics=out_metrics,
        failed_frac=failed / attempted,
        passes={k: t.passes for k, t in tallies.items()},
        warnings={k: dict(t.warnings) for k, t in tallies.items()},
        failures=[f for t in tallies.values() for f in t.failures],
    )
    (OUT / f"result_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in out_metrics.items():
        print(f"{workload.name:16s} {name:40s} {entry['value']:14.6g} {entry['unit']}")
    failed_frac = f"{failed / attempted:14.6g} 1 ({failed}/{attempted} points)"
    print(f"{workload.name:16s} {'failed_frac':40s} {failed_frac}")
    if not args.trace:
        print(f"{workload.name:16s} latency samples {record['latency_samples']}, "
              f"{record['p90_tail_samples']} beyond p{metrics.P_HIGH}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
