"""The benchmark's own tests: span and ticker arithmetic, the gate, a smoke run.

Run from the repository root with the transopt sources importable::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_never_counts_a_child():
    # root [0, 10] has children A [1, 4] (with grandchild [2, 3]) and two
    # overlapping children B [5, 6], C [5.5, 7]; D [9, 12] overruns root.
    starts = [0.0, 1.0, 2.0, 5.0, 5.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 7.0, 12.0]
    parents = [-1, 0, 1, 0, 0, 0]
    got = list(tracer.self_times(starts, ends, parents))
    assert got == pytest.approx([10 - 3 - 2 - 1, 3 - 1, 1, 1, 1.5, 3])


def test_self_times_of_a_trace_sum_to_its_root():
    t = tracer.Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        return traced_leaf() + traced_leaf()

    traced_leaf = t.wrap("problems.leaf", leaf)
    traced_middle = t.wrap("optim.middle", middle)
    t.span(tracer.ROOT, lambda: [traced_middle() for _ in range(3)])

    assert list(t.parent) == [-1, 0, 1, 1, 0, 4, 4, 0, 7, 7]
    summary = tracer.TraceSummary(t)
    assert summary.total("problems.leaf", "optim.middle")[0] == 6
    assert sum(summary.layer_self().values()) == pytest.approx(summary.root_s)
    own_middle = summary.total("optim.middle")[2]
    incl_middle = summary.total("optim.middle")[1]
    assert own_middle == pytest.approx(
        incl_middle - summary.total("problems.leaf")[1])


def test_ticker_rescales_each_stretch_by_its_nearest_probes():
    ref = 0.001
    ticker = child.Ticker(child.interp_block, ref, child.TICK_S)
    ticker.works = [1.0, 1.0, 1.0]
    ticker.probes = [ref, ref, 2 * ref, 2 * ref]
    # stretch i is scaled by the median of probes i-1 .. i+2
    assert ticker.raw_s == 3.0
    assert ticker.scaled_s == pytest.approx(1.0 + 1 / 1.5 + 0.5)


def test_ticker_probes_during_work_and_leaves_its_probes_out():
    ticker = child.Ticker(child.sweep_block, child.SWEEP_REFERENCE_S,
                          child.TICK_S)
    started = time.perf_counter()
    with ticker:
        clock_started = ticker.work_clock()
        while time.perf_counter() - started < 4 * child.TICK_S:
            pass
        work = ticker.work_clock() - clock_started
    elapsed = time.perf_counter() - started
    assert len(ticker.probes) == len(ticker.works) + 1 >= 3
    assert ticker.raw_s == pytest.approx(elapsed - ticker.probe_total,
                                         abs=1e-3)
    assert work == pytest.approx(ticker.raw_s, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_gate_passes_a_sweep_and_flags_a_broken_histogram(tmp_path):
    from transopt.cli import main

    specs = workloads.cycle_stride1(3, smoke=True)
    workloads.write_configs(specs, tmp_path / "configs")
    assert main(["sweep", str(tmp_path / "configs"),
                 "--out", str(tmp_path / "out")]) == 0
    run_dir = workloads.find_run_dir(tmp_path / "out", specs[0])
    assert workloads.check_run(run_dir, specs[0]) == []
    before = workloads.csv_digests(run_dir)

    hist = run_dir / "lr_hist.csv"
    lines = hist.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    lines[5] = ",".join(cells)
    hist.write_text("\n".join(lines) + "\n")
    errors = workloads.check_run(run_dir, specs[0])
    assert any("do not total d=1" in e for e in errors)
    assert workloads.csv_digests(run_dir)["lr_hist.csv"] != \
        before["lr_hist.csv"]


def _declared(kind):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {f"{w}.{name}": unit for w in workloads.WORKLOADS
            for name, unit in _declared(kind).items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
