#!/usr/bin/env python3
"""SHA-256 digests of every artifact the four benchmark workloads write.

Usage, from the repository root::

    python3 tools/artifact_digests.py --seeds 0 3 --out digests.json
    python3 tools/artifact_digests.py --check digests.json

For each seed and each workload of ``perfbench/workloads.py`` (read,
never modified), the workload's configs are written to a scratch
directory and swept with ``transopt sweep``, serially and with
``--jobs 2``.  Each run directory's five CSVs, ``config.yaml`` and
``meta.json`` without ``wall_clock_seconds`` are hashed, under a key
naming the seed, the workload, the job count, the run directory and the
file, so a renamed directory shows as a missing and an extra key.  The
sweep's summary lines (with the output root cut out) and each run's
``check-conditions`` output are hashed too, and so are the cycle trio
and the quadratic of the few-step configs at horizon
``CROSSING_HORIZON``, which crosses two coefficient blocks of the
steppers and several step buffers, as the few-step horizons do not.

``--out FILE`` writes the digests to FILE.  ``--check FILE`` sweeps
again at the seeds and size recorded in FILE, which may come from
another checkout (say, the parent commit's, with this script copied
into it), and exits 1 on any mismatch, missing or extra key.  Either
way the script exits 1 when a run's artifacts differ between the serial
and the ``--jobs 2`` sweep.  ``--smoke`` uses the workloads' few-step
configs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from transopt.cli import main as transopt_main  # noqa: E402
from transopt.optim import BLOCK_STEPS  # noqa: E402
from transopt.runner import CSV_ARTIFACTS  # noqa: E402

#: The files hashed in every run directory besides ``meta.json``.
RUN_FILES = (*CSV_ARTIFACTS, "config.yaml")

#: Job counts each workload is swept with.
JOBS = ("1", "2")

#: The horizon of the crossing set: two coefficient blocks and then some.
CROSSING_HORIZON = 2 * BLOCK_STEPS + 37

#: The workloads of the crossing set, at their few-step configs.
CROSSING = ("cycle-stride1", "quadratic-long")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv: Sequence[str], out_root: Path) -> bytes:
    """transopt's return code and stdout, with the output root cut out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = transopt_main(list(argv))
    text = stdout.getvalue().replace(str(out_root), "<out>")
    return f"{code}\n{text}".encode()


def run_digests(run_dir: Path, out_root: Path) -> Dict[str, str]:
    """Digests of one run directory's artifacts, keyed by file."""
    digests = {name: _sha((run_dir / name).read_bytes())
               for name in RUN_FILES}
    meta = json.loads((run_dir / "meta.json").read_text())
    meta.pop("wall_clock_seconds", None)
    digests["meta.json"] = _sha(json.dumps(meta).encode())
    digests["check-conditions"] = _sha(
        _call(["check-conditions", str(run_dir)], out_root))
    return digests


def workload_specs(workload: str, seed: int, smoke: bool,
                   horizon: Optional[int] = None) -> list:
    """The workload's specs, at ``horizon`` instead of their own if given."""
    specs = workloads.WORKLOADS[workload](seed, smoke=smoke)
    if horizon is None:
        return specs
    out = []
    for spec in specs:
        old = f"horizon: {spec.horizon}\n"
        assert spec.text.count(old) == 1, spec.text
        out.append(dataclasses.replace(
            spec, horizon=horizon,
            text=spec.text.replace(old, f"horizon: {horizon}\n")))
    return out


def sweep_digests(workload: str, seed: int, smoke: bool, scratch: Path,
                  horizon: Optional[int] = None) -> Dict[str, str]:
    """Digests of one workload at one seed, swept once per job count; at
    ``horizon`` its key is the workload's name with ``-T<horizon>``."""
    specs = workload_specs(workload, seed, smoke, horizon)
    label = workload if horizon is None else f"{workload}-T{horizon}"
    config_dir = scratch / f"{label}-{seed}" / "configs"
    workloads.write_configs(specs, config_dir)
    digests = {}
    for jobs in JOBS:
        out_root = config_dir.parent / f"runs-jobs{jobs}"
        prefix = f"seed{seed}/{label}/jobs{jobs}"
        digests[f"{prefix}/sweep.stdout"] = _sha(_call(
            ["sweep", str(config_dir), "--out", str(out_root),
             "--jobs", jobs], out_root))
        for run_dir in sorted(p for p in out_root.iterdir() if p.is_dir()):
            for name, digest in run_digests(run_dir, out_root).items():
                digests[f"{prefix}/{run_dir.name}/{name}"] = digest
    return digests


def collect(seeds: Sequence[int], smoke: bool) -> Dict[str, str]:
    digests: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                digests.update(sweep_digests(name, seed, smoke, Path(tmp)))
            for name in CROSSING:
                digests.update(sweep_digests(name, seed, True, Path(tmp),
                                             CROSSING_HORIZON))
    return digests


def version_mismatch(want: dict) -> Optional[str]:
    """Why digests recorded under another numpy version cannot be
    compared here, or None."""
    recorded = want.get("numpy")
    if recorded is None or recorded == np.__version__:
        return None
    return (f"the digests were recorded under numpy {recorded} "
            f"({want.get('platform')}); this is numpy {np.__version__} "
            f"({platform.platform()})")


def pool_mismatches(digests: Dict[str, str]) -> List[str]:
    """Keys whose serial digest differs from, or lacks, the --jobs 2 one."""
    serial, pooled = (
        {key.replace(f"/jobs{jobs}/", "/", 1): value
         for key, value in digests.items() if f"/jobs{jobs}/" in key}
        for jobs in JOBS)
    return sorted(key for key in serial.keys() | pooled.keys()
                  if serial.get(key) != pooled.get(key))


def compare(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per key that is missing, extra or different in got."""
    lines = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            lines.append(f"missing  {key}")
        elif key not in want:
            lines.append(f"extra    {key}")
        elif want[key] != got[key]:
            lines.append(f"differs  {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the digests here")
    mode.add_argument("--check", metavar="FILE",
                      help="compare with the digests in FILE")
    args = parser.parse_args(argv)

    want = None
    if args.check:
        want = json.loads(Path(args.check).read_text())
        why = version_mismatch(want)
        if why is not None:
            print(why, file=sys.stderr)
            return 1
        args.seeds, args.smoke = want["seeds"], want["smoke"]
    digests = collect(args.seeds, args.smoke)
    status = 0
    for key in pool_mismatches(digests):
        print(f"serial and --jobs 2 differ: {key}", file=sys.stderr)
        status = 1
    if want is not None:
        lines = compare(want["digests"], digests)
        for line in lines:
            print(line, file=sys.stderr)
        print(f"{len(digests)} digests, {len(lines)} mismatches")
        return 1 if lines else status
    Path(args.out).write_text(json.dumps(
        {"seeds": args.seeds, "smoke": args.smoke, "numpy": np.__version__,
         "platform": platform.platform(), "digests": digests},
        indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
