"""One workload in one fresh process: set-up timing, then timed sweeps.

Run by ``run.py`` with the transopt sources on ``PYTHONPATH``::

    python3 perfbench/child.py setup   CONFIG_DIR
    python3 perfbench/child.py measure CONFIG_DIR WORK_DIR WORKLOAD SEED \
        SECONDS TRACE SMOKE

``setup`` times ``import transopt`` plus load_config, build_problem and
build_optimizer over every config.  ``measure`` does the same, then runs
``transopt.cli.main(["sweep", CONFIG_DIR, "--out", ...])`` repeatedly for
SECONDS, checks every run's artifacts, and with TRACE=1 spends the second
half of the time on traced sweeps.  Every time it reports is rescaled to a
fixed host speed by probes run next to the timed work (``Ticker``).  The
last stdout line is a JSON result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Tuple

import workloads

#: Seconds one interp_block() and one sweep_block() take, about, on the
#: reference host (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) when
#: nothing slows it down.  They fix the units of every reported time.
INTERP_REFERENCE_S = 0.001
SWEEP_REFERENCE_S = 0.0025

#: Seconds of work between two probes while a sweep is timed, and while
#: the much shorter set-up is.
TICK_S = 0.05
SETUP_TICK_S = 0.01


def time_setup(config_dir: Path) -> float:
    """Seconds for the import plus building every config's run objects."""
    started = time.perf_counter()
    import transopt  # noqa: F401  (the import is what is timed)
    from transopt import runner
    from transopt.config import load_config

    for path in sorted(config_dir.glob("*.yaml")):
        cfg = load_config(path)
        problem = runner.build_problem(cfg)
        n = (cfg.problem.n_train if cfg.problem.kind == "mlp"
             else cfg.problem.n_samples)
        horizon = runner.resolve_horizon(cfg, n)
        runner.build_optimizer(cfg, problem.dim, horizon, problem.box)
    return time.perf_counter() - started


def interp_block() -> float:
    """Seconds for one fixed block of interpreted float arithmetic.

    The block resembles an optimizer step loop on a scalar that formats
    what it records.  It imports nothing, so probing set-up with it leaves
    numpy's import in the timed ``import transopt``.
    """
    started = time.perf_counter()
    x, m, v = 0.5, 0.0, 0.0
    cells = []
    for t in range(1, 1201):
        g = x - (t % 3 - 1.0)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = min(max(x - 0.01 * m / (v ** 0.5 + 1e-8), -1.0), 1.0)
        cells.append(f"{x:.6g}")
    ",".join(cells)
    return time.perf_counter() - started


def array_block() -> float:
    """Seconds for one fixed block of small numpy array operations.

    The block resembles a two-layer MLP's forward and backward pass on a
    128-sample batch.
    """
    import numpy as np

    started = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 256).reshape(128, 2)
    w1 = np.linspace(-0.5, 0.5, 32).reshape(2, 16)
    w2 = np.linspace(-0.2, 0.2, 256).reshape(16, 16)
    w3 = np.linspace(-0.3, 0.3, 32).reshape(16, 2)
    for _ in range(72):
        h = np.tanh(np.tanh(x @ w1) @ w2)
        y = h @ w3
        (h.T @ y).sum() + np.sqrt(np.abs(y)).max()
    return time.perf_counter() - started


def sweep_block() -> float:
    """Seconds for interp_block plus array_block, about 1 + 1.5 ms.

    The host's slow spells slow interpreted arithmetic more than they slow
    a sweep, and small array operations less.  Rescaled by either block
    alone, sweep times fell (interp) or rose (array) as the host slowed.
    Rescaled by this mix they leaned far less either way, on all four
    workloads.
    """
    return interp_block() + array_block()


class Ticker:
    """Times blocks of work as they would run at a fixed host speed.

    The host's CPU speed drifts, by up to 2x, in bursts that last from a
    fraction of a second to minutes, and in every layer at once.  While the
    ticker is entered, a SIGALRM handler interrupts the work every `tick_s`
    seconds and runs one `probe` block on the same CPU.  Each stretch of
    work between two probes is rescaled by `reference` seconds over the
    median of the four probes nearest it, two on either side.  The probes' own time is
    left out of ``raw_s``, ``scaled_s`` and ``work_clock``.

    A ticker can be entered again; ``raw_s`` and ``scaled_s`` describe the
    last block.
    """

    def __init__(self, probe: Callable[[], float], reference: float,
                 tick_s: float):
        self.probe = probe
        self.reference = reference
        self.tick_s = tick_s
        self.works = []
        self.probes = []
        self.probe_total = 0.0
        self._active = False
        self._mark = 0.0

    def work_clock(self) -> float:
        """perf_counter() minus the time every probe so far has taken."""
        return time.perf_counter() - self.probe_total

    def __enter__(self) -> "Ticker":
        self.works, self.probes = [], []
        self._probe()
        self._active = True
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        if self._active:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._record()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._record()
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)

    def _record(self) -> None:
        self.works.append(time.perf_counter() - self._mark)
        self._probe()
        self._mark = time.perf_counter()

    def _probe(self) -> None:
        started = time.perf_counter()
        self.probes.append(self.probe())
        self.probe_total += time.perf_counter() - started

    @property
    def raw_s(self) -> float:
        return sum(self.works)

    @property
    def scaled_s(self) -> float:
        # stretch i lies between probes i and i + 1
        p = self.probes
        return sum(work * self.reference
                   / median(p[max(0, i - 1):i + 3])
                   for i, work in enumerate(self.works))


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Sweeper:
    """Runs the workload's sweep and checks what every run wrote."""

    def __init__(self, config_dir: Path, work_dir: Path, workload: str,
                 seed: int, smoke: bool):
        from transopt import cli

        self.cli = cli
        self.config_dir = config_dir
        self.work_dir = work_dir
        self.workload = workload
        self.specs = workloads.WORKLOADS[workload](seed, smoke)
        self.steps = sum(s.horizon for s in self.specs)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = None
        self.reps = 0
        self.write_bytes = 0
        self.ticker = Ticker(sweep_block, SWEEP_REFERENCE_S, TICK_S)
        self.last_s = 0.0
        self.check_acceptance = seed == workloads.DEFAULT_SEED and not smoke

    def sweep(self, tracer=None) -> Tuple[float, float]:
        """One sweep; returns its raw and rescaled times in seconds."""
        started = time.perf_counter()
        out = self.work_dir / f"rep{self.reps}"
        self.reps += 1
        argv = ["sweep", str(self.config_dir), "--out", str(out)]
        self.attempted += len(self.specs)
        with contextlib.redirect_stdout(io.StringIO()), self.ticker:
            code = self._main(argv, tracer)
        self._check(out, code)
        self.last_s = time.perf_counter() - started
        return self.ticker.raw_s, self.ticker.scaled_s

    def fits(self, began: float, seconds: float) -> bool:
        """Whether a sweep as long as the last ends `seconds` after `began`."""
        return time.perf_counter() - began + self.last_s <= seconds

    def _main(self, argv, tracer):
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.span("cli.main", self.cli.main, argv)
        except Exception as exc:  # the program failed: count, go on
            return f"{type(exc).__name__}: {exc}"

    def _check(self, out: Path, code) -> None:
        if code != 0:
            self.failed += len(self.specs)
            self.errors.append(f"sweep failed: {code}")
            shutil.rmtree(out, ignore_errors=True)
            return

        run_dirs, digests = {}, {}
        for spec in self.specs:
            try:
                run_dir = workloads.find_run_dir(out, spec)
                problems = workloads.check_run(run_dir, spec)
                digests[spec.name] = workloads.csv_digests(run_dir)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"{spec.name}: unreadable artifacts: {exc}"]
            else:
                run_dirs[spec.name] = run_dir
            if self.digests is not None and \
                    digests.get(spec.name) != self.digests.get(spec.name):
                problems.append(f"{spec.name}: CSV digests differ between "
                                "sweeps of the same configs")
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        if self.digests is None:
            self.digests = digests
            if self.check_acceptance and len(run_dirs) == len(self.specs):
                wrong = self._acceptance(run_dirs)
                if wrong:
                    self.failed += len(self.specs)
                    self.errors.extend(wrong)
        self.write_bytes = _dir_bytes(out)
        shutil.rmtree(out, ignore_errors=True)

    def _acceptance(self, run_dirs):
        # the thresholds the acceptance suite froze from the oracle run
        root = Path(__file__).resolve().parent.parent
        path = root / "tools" / "thresholds.json"
        thresholds = json.loads(path.read_text())["proposed_thresholds"]
        return workloads.acceptance_errors(self.workload, run_dirs,
                                           thresholds)


def timed_setup(config_dir: Path) -> float:
    """Set-up time, rescaled to the reference host speed."""
    with Ticker(interp_block, INTERP_REFERENCE_S, SETUP_TICK_S) as ticker:
        time_setup(config_dir)
    _check_origin()
    return ticker.scaled_s


def measure(config_dir: Path, work_dir: Path, workload: str, seed: int,
            seconds: float, trace: bool, smoke: bool) -> dict:
    setup_s = timed_setup(config_dir)
    sweeper = Sweeper(config_dir, work_dir, workload, seed, smoke)

    # a sweep starts only if it will likely end in time, and one always runs
    untraced_until = seconds / 2 if trace else seconds
    began = time.perf_counter()
    timings = [sweeper.sweep()]
    # the peak of set-up plus one sweep; later sweeps reuse that memory, and
    # how many of them fit in the time is up to the machine's speed
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while sweeper.fits(began, untraced_until):
        timings.append(sweeper.sweep())

    result = {
        "setup_s": setup_s,
        "walls": [scaled for _, scaled in timings],
        "raw_walls": [raw for raw, _ in timings],
        "steps": sweeper.steps,
        "runs": len(sweeper.specs),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    if trace:
        from tracer import TraceSummary, Tracer, layer_metrics

        tracer = Tracer(clock=sweeper.ticker.work_clock)
        tracer.install()
        samples = []
        try:
            while not samples or sweeper.fits(began, seconds):
                tracer.reset()
                wall, scaled = sweeper.sweep(tracer)
                k = scaled / wall
                metrics = layer_metrics(TraceSummary(tracer), sweeper.steps,
                                        wall, sweeper.write_bytes)
                samples.append((scaled, {
                    name: (value * k if unit in ("s", "us") else value, unit)
                    for name, (value, unit) in metrics.items()}))
        finally:
            tracer.uninstall()
        layers = {}
        for name, (_, unit) in samples[0][1].items():
            layers[name] = (median([m[name][0] for _, m in samples]), unit)
        traced = median(scaled for scaled, _ in samples)
        layers["trace.overhead"] = (traced / median(result["walls"]), "ratio")
        result["layers"] = layers
        result["traced_sweeps"] = len(samples)

    result.update(attempted=sweeper.attempted, failed=sweeper.failed,
                  errors=sweeper.errors[:20])
    return result


def _check_origin() -> None:
    import transopt

    sources = Path(__file__).resolve().parent.parent / "src"
    if sources not in Path(transopt.__file__).resolve().parents:
        raise SystemExit(f"transopt was imported from {transopt.__file__}, "
                         f"not from {sources}")


def main(argv) -> int:
    mode, config_dir = argv[0], Path(argv[1])
    if mode == "setup":
        print(json.dumps({"setup_s": timed_setup(config_dir)}))
        return 0
    work_dir, workload, seed, seconds, trace, smoke = argv[2:8]
    result = measure(config_dir, Path(work_dir), workload, int(seed),
                     float(seconds), trace == "1", smoke == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
