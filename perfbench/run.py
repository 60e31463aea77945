"""pinnet benchmark: time the workloads end to end, or per layer with --trace 1.

    python3 perfbench/run.py                        # all workloads, one process each
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

A workload run repeats the workload's fixed amount of work (one pass) until
``--seconds`` have passed, checks every pass against independent references,
and prints each metric by name and unit. Its last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, environment included, goes to ``perfbench/results/``. The exit code
is 1 when any item fails its check and 2 when the benchmark cannot run.

Untraced runs (``--trace 0``) give the end-to-end metrics, scaled to a
reference machine speed by a calibration loop (see below). Traced runs
(``--trace 1``) alternate untraced and traced passes and give the per-layer
metrics plus the tracing overhead. The package is imported from ``src/``
next to this directory, never from an installed copy.
"""

from __future__ import annotations

import os

# Cap BLAS / OpenMP pools before numpy loads, here and in every child process,
# so the process computes on one thread whatever the machine's core count.
BLAS_THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

WORKLOADS = ("scenarios", "sweep", "network-checks")
MIN_PASSES = 3  # untraced passes; a traced run needs two of each kind
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900

# Machine-speed calibration. On a shared host the same pass can take twice as
# long from one minute to the next, whatever the program does. A fixed numpy
# RK4 loop that never calls pinnet runs between items, after about every
# CALIBRATION_EVERY_S of timed work and at the end of each pass. Each stretch
# of work is scaled by CALIBRATION_REF_S / (the mean loop time on its two
# sides). A set-up probe runs the loop once after its timed set-up and is
# scaled by that loop time. wall_s and setup_s are medians of scaled passes
# and probes, so they read as seconds on a machine where the loop takes
# CALIBRATION_REF_S; the unscaled medians are printed and recorded too.
CALIBRATION_STEPS = 3000
CALIBRATION_REF_S = 0.065
CALIBRATION_EVERY_S = 1.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (sources missing, a probe failed)."""


def require_sources() -> None:
    if not (SRC / "pinnet" / "__init__.py").is_file():
        raise BenchError(f"pinnet sources not found under {SRC}")


def import_pinnet():
    """Import pinnet from ``src/`` of this checkout and the benchmark's modules."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import pinnet

    if Path(pinnet.__file__).resolve().parent != SRC / "pinnet":
        raise BenchError(f"imported pinnet from {pinnet.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(trace: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# one workload


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def calibration_s() -> float:
    """Time the fixed calibration loop: RK4 on a 3-node linear network."""
    import numpy as np

    a = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    y = np.ones((3, 3))
    h = 1e-3
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    """Time import and input set-up from a fresh interpreter; print it as JSON."""
    t0 = time.perf_counter()
    workloads = import_pinnet()
    workloads.setup(workload, seed)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s()}))


def measure_setup(workload: str, seed: int) -> dict:
    """Run one set-up probe in a fresh interpreter; its time and calibration."""
    proc = _child(["--setup-probe", "--workload", workload, "--seed", str(seed)], PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(seconds: float, calibration: float) -> float:
    """A time taken at the machine speed ``calibration`` measures, at reference speed."""
    return seconds * CALIBRATION_REF_S / calibration


class SpeedScale:
    """Timed work scaled to reference speed, calibrating after about every
    CALIBRATION_EVERY_S of it; each stretch between two calibrations is
    scaled by their mean."""

    def __init__(self):
        self.calibrations = [calibration_s()]
        self.pending = 0.0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= CALIBRATION_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            cal = calibration_s()
            self.total += scaled(self.pending, (self.calibrations[-1] + cal) / 2)
            self.calibrations.append(cal)
            self.pending = 0.0


def _timed_pass(workloads, workload: str, items, tracer=None, speed=None):
    """One pass in a fresh output directory.

    Returns its timed seconds, the scaled seconds when ``speed`` is given, the
    failures, and the layer metrics when ``tracer`` is given.
    """
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if tracer is not None:
            tracer.reset()
        before = speed.total if speed is not None else 0.0
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            outputs, wall = workloads.run_pass(
                workload, items, out_dir, speed.add if speed is not None else None
            )
        if speed is not None:
            speed.flush()
        failures = workloads.check(workload, items, outputs, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    layers = tracer.pass_metrics(wall) if tracer is not None else None
    return wall, speed.total - before if speed is not None else None, failures, layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = import_pinnet()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            items = workloads.setup(workload, seed)
        setup_layers = tracer.setup_metrics()
    else:
        items = workloads.setup(workload, seed)

    WORK.mkdir(parents=True, exist_ok=True)
    plain, plain_scaled, traced, layer_rows, failures, probes = [], [], [], [], [], []
    speed = None if trace else SpeedScale()
    start = time.perf_counter()
    while True:
        # traced runs alternate: untraced, traced, untraced, ...
        use_tracer = trace and len(plain) > len(traced)
        wall, wall_scaled, failed, layers = _timed_pass(
            workloads, workload, items, tracer if use_tracer else None, speed
        )
        failures += failed
        if use_tracer:
            traced.append(wall)
            layer_rows.append(layers)
        else:
            plain.append(wall)
            plain_scaled.append(wall_scaled)
        elapsed = time.perf_counter() - start
        # set-up probes are spread over the run, like the passes
        if not trace and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(measure_setup(workload, seed))
        enough = len(traced) >= 2 if trace else len(plain) >= MIN_PASSES
        if elapsed >= seconds and enough:
            break
    while not trace and len(probes) < SETUP_PROBES:
        probes.append(measure_setup(workload, seed))
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run's output directory is still there

    passes = len(plain) + len(traced)
    attempted = workloads.items_per_pass(workload, items) * passes
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(trace),
        "passes": {"untraced_wall_s": plain, "traced_wall_s": traced},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        metrics = dict(setup_layers)
        for name, first in layer_rows[0].items():
            # counts are exact and repeat on every pass; times are medians
            values = [row[name] for row in layer_rows]
            metrics[name] = first if isinstance(first, int) else statistics.median(values)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        record["layers_per_pass"] = layer_rows
    else:
        metrics = {
            "wall_s": statistics.median(plain_scaled),
            "setup_s": statistics.median(
                scaled(p["setup_s"], p["calibration_s"]) for p in probes
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["passes"]["scaled_wall_s"] = plain_scaled
        record["passes"]["calibration_s"] = speed.calibrations
        record["setup_probes"] = probes
        record["unscaled"] = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
        }
    record["failed_frac"] = len(failures) / attempted
    record["metrics"] = metrics
    return record


def metric_units() -> dict:
    """Unit of every metric, as declared in the repository's BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from err
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(record: dict) -> dict:
    """Print the record's metrics by name and unit; return the JSON result line."""
    units = metric_units()
    undeclared = set(record["metrics"]) - set(units)
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['passes']['untraced_wall_s'])} untraced and "
          f"{len(record['passes']['traced_wall_s'])} traced passes")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in record.get("unscaled", {}).items():
        print(f"  {name} unscaled = {value:.6g} {units[name]}")
    print(f"  failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} items)")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }


def run_one(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    line = report(record)
    print(f"  record written to {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status, lines = 0, {}
    for workload in WORKLOADS:
        proc = _child(
            ["--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            WORKLOAD_TIMEOUT_S,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1) and out:
            lines[workload] = json.loads(out[-1])
    print("summary:")
    for workload, line in lines.items():
        parts = [f"correct={line['correct']}",
                 f"failed_frac {line['failed'] / line['attempted']:.4g} ratio"]
        if not args.trace:
            parts += [f"{name} {m['value']:.4g} {m['unit']}" for name, m in line["metrics"].items()]
        print(f"  {workload}: " + ", ".join(parts))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_sources()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
