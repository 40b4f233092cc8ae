"""tools/step_bench.py with a few steps a row."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_bench.py"


def test_prints_every_kind_at_every_dimension_and_the_trio(capsys):
    # and the eight-replica AMSGrad and adadb batches
    spec = importlib.util.spec_from_file_location("step_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--steps", "3", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stepper", "d", "us/step"]
    rows = [line.split() for line in lines[1:]]
    assert [(name, int(d)) for name, d, _ in rows] == [
        (name, d) for d in tool.DIMS for name in tool.kinds(3)] + [
        ("cycle-trio", 1)] + [
        (name, tool.BATCH_DIM) for name in tool.batches()]
    assert all(float(us) > 0.0 for _, _, us in rows)
