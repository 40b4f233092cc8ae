"""tools/step_bench.py with a few steps a row."""

import importlib.util
from pathlib import Path

import numpy as np

from transopt.optim import Adam

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("step_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_prints_every_kind_at_every_dimension_and_the_trio(capsys):
    # and the eight-replica AMSGrad, adadb and criterion-02 grid batches
    tool = _tool()
    assert tool.main(["--steps", "3", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stepper", "d", "us/step"]
    rows = [line.split() for line in lines[1:]]
    assert [(name, int(d)) for name, d, _ in rows] == [
        (name, d) for d in tool.DIMS for name in tool.kinds(3)] + [
        ("cycle-trio", 1)] + [
        (name, d) for name, (d, _) in tool.batches(3).items()]
    assert all(float(us) > 0.0 for _, _, us in rows)


def test_times_the_step_without_the_input_screen():
    # as the runner's loop steps, which screens a buffer at a time
    built = []

    def build():
        built.append(Adam(2))
        return built[-1]

    assert _tool().us_per_step(build, np.ones((3, 2)), 2) > 0.0
    assert [opt.screens_inputs for opt in built] == [False, False]
