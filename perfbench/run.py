"""transopt benchmark: time the sweep path users run, layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload quadratic-long --seed 0 \
        --seconds 15 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each
workload's configs are generated from ``--seed`` into a scratch directory
under the checkout, and each workload runs in fresh child processes, one
at a time: a few that only time set-up, then one that times set-up and
repeats ``transopt.cli.main(["sweep", ...])`` for ``--seconds``.  Every
run's artifacts pass through the correctness gate in ``workloads.py``.
Times are rescaled to a fixed host speed by ``child.Ticker``.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, taken from a
traced second half of the run (``tracer.py``).  Human-readable lines come
first; the last stdout line is the JSON result.  ``--smoke`` shrinks every
horizon to a few steps, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 7

#: One workload's run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0

#: The traced layer self times must add up to the traced wall time.
SELF_SUM_TOLERANCE = 0.05


def machine_context() -> dict:
    """What the numbers were measured on; read only, nothing is changed."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


class BenchError(RuntimeError):
    pass


def _child(args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, scratch: Path, deadline: float) -> dict:
    config_dir = scratch / name / "configs"
    work_dir = scratch / name / "out"
    workloads.write_configs(workloads.WORKLOADS[name](seed, smoke), config_dir)
    work_dir.mkdir(parents=True)

    samples = 2 if smoke else SETUP_SAMPLES
    setups = [_child(["setup", config_dir], deadline)["setup_s"]
              for _ in range(samples - 1)]
    result = _child(["measure", config_dir, work_dir, name, seed, seconds,
                     int(trace), int(smoke)], deadline)
    setups.append(result["setup_s"])

    walls = result["walls"]
    result["e2e"] = {
        "us_per_step": (median([w * 1e6 / result["steps"] for w in walls]),
                        "us", len(walls)),
        "runs_per_s": (median([result["runs"] / w for w in walls]),
                       "1/s", len(walls)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    result["failed"] = min(result["failed"], result["attempted"])
    if trace:
        share = result["layers"]["trace.self_sum_share"][0]
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            result["errors"].append(
                f"layer self times sum to {share:.3f} of the traced wall")
    return result


def _declared(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's metrics; return them in the result format."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}  {len(result['walls'])} timed sweeps of {result['runs']} "
          f"runs, {result['steps']} steps each")
    for error in result["errors"]:
        print(f"{name}  ERROR {error}")
    print(f"{name}  failed_ratio = {failed / attempted:.4g} share of runs "
          f"({failed} of {attempted})")
    raw_us = median(result["raw_walls"]) * 1e6 / result["steps"]
    print(f"{name}  unscaled us_per_step = {raw_us:.6g} us")
    if trace:
        values = {k: (v, u, result["traced_sweeps"])
                  for k, (v, u) in result["layers"].items()}
        declared = _declared("per_layer")
    else:
        values = result["e2e"]
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} "
                          "are not both measured and declared")
    metrics = {}
    for key, unit in declared.items():
        value, measured_unit, count = values[key]
        if measured_unit != unit:
            raise BenchError(f"{key} measured in {measured_unit}, "
                              f"declared in {unit}")
        print(f"{name}  {key} = {value:.6g} {unit} (median of {count})")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "transopt" / "__init__.py").is_file():
        print(f"error: no transopt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    context = dict(machine_context(), loadavg_start=loadavg())
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke,
                                         scratch, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    context["loadavg_end"] = loadavg()
    print("context " + json.dumps(context))

    metrics = {}
    try:
        for name, result in results.items():
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in report(name, result, bool(args.trace)).items():
                metrics[prefix + key] = value
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["errors"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
