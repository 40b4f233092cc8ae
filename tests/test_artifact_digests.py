"""tools/artifact_digests.py on the benchmark's few-step configs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"

#: The digests of ``--seeds 0 3 --smoke``, which every change
#: must keep unless it changes bytes on purpose and regenerates them.
COMMITTED = Path(__file__).resolve().parent / "data" / "artifact_digests.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_cover_every_artifact_and_check_themselves(tmp_path,
                                                           capsys):
    tool = _load_tool()
    path = tmp_path / "digests.json"
    assert tool.main(["--seeds", "1", "--smoke", "--out", str(path)]) == 0
    recorded = json.loads(path.read_text())
    assert recorded["seeds"] == [1] and recorded["smoke"] is True
    digests = recorded["digests"]
    runs = {key.rsplit("/", 1)[0] for key in digests
            if not key.endswith("sweep.stdout")}
    # 32 runs of the four workloads and 4 of the crossing set, serially
    # and with --jobs 2
    assert len(runs) == 2 * (32 + 4)
    for run in runs:
        assert {key.rsplit("/", 1)[1] for key in digests
                if key.startswith(run + "/")} == {
            *tool.RUN_FILES, "meta.json", "check-conditions"}
    assert tool.pool_mismatches(digests) == []

    assert tool.main(["--check", str(path)]) == 0
    capsys.readouterr()
    # a changed digest, a key the sweep no longer writes and one the file
    # lacks each fail the check
    changed, dropped = sorted(digests)[0], sorted(digests)[-1]
    digests[changed] = "0" * 64
    del digests[dropped]
    digests["seed1/stale"] = "0" * 64
    path.write_text(json.dumps(recorded))
    assert tool.main(["--check", str(path)]) == 1
    assert sorted(capsys.readouterr().err.splitlines()) == [
        f"differs  {changed}", f"extra    {dropped}",
        "missing  seed1/stale"]


def test_serial_and_pooled_digests_must_agree():
    tool = _load_tool()
    digests = {"seed0/w/jobs1/run/loss.csv": "a",
               "seed0/w/jobs2/run/loss.csv": "b",
               "seed0/w/jobs1/run/meta.json": "c"}
    assert tool.pool_mismatches(digests) == ["seed0/w/run/loss.csv",
                                             "seed0/w/run/meta.json"]


def test_out_or_check_is_required(capsys):
    tool = _load_tool()
    for argv in (["--seeds", "1"], ["--out", "a", "--check", "b"]):
        with pytest.raises(SystemExit):
            tool.main(argv)
    capsys.readouterr()


def test_the_committed_digests_hold():
    tool = _load_tool()
    want = json.loads(COMMITTED.read_text())
    assert tool.version_mismatch(want) is None, tool.version_mismatch(want)
    assert (want["seeds"], want["smoke"]) == ([0, 3], True)
    got = tool.collect(want["seeds"], want["smoke"])
    assert tool.pool_mismatches(got) == []
    # each line names the seed, the workload, the job count, the run
    # directory and the file
    lines = tool.compare(want["digests"], got)
    assert not lines, "\n".join(lines)


def test_digests_of_another_numpy_fail_naming_both_versions(tmp_path,
                                                             capsys):
    tool = _load_tool()
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"seeds": [1], "smoke": True,
                                "numpy": "1.0.0",
                                "platform": "elsewhere", "digests": {}}))
    assert tool.main(["--check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "numpy 1.0.0 (elsewhere)" in err
    assert f"numpy {np.__version__}" in err
