"""Command-line entry points.

Subcommands:
  run CONFIG                 execute one experiment config
  sweep CONFIG_DIR           run every *.yaml config in a directory;
                             configs that share a loop key (same problem
                             kind, shapes, horizon and stride, with any
                             optimizer) run as one batch
  compare RUN_DIR...         tabulate final metrics of finished runs
  check-conditions RUN_DIR   print the recorded condition report, with the
                             first C2 violation and the max of 1/eta_hat
                             from meta.json

The output root comes from --out, else the TRANSOPT_OUT environment
variable, else the config's out_dir.

``run`` and ``sweep`` step their batches' loops in a fork-started
process pool, one worker per loop up to the usable cores
(``os.sched_getaffinity``), each loop a whole task; a single loop, or a
single usable core, runs in the command's process.  ``--jobs N`` sets
the worker count instead, and splits the loops among the workers when
they outnumber them; ``--jobs 1`` runs serially.  A worker exits when
the command's process dies.

Exit codes: 0 on success; 1 when ``sweep`` finds no config or
``check-conditions`` an inverse-rate bound violated; 2 for a ``--jobs``
below 1, a bad config, incomparable runs, a missing file or an output
root or artifact that cannot be written (checked before a loop's first
step); 3 when a run fails on its data (a DomainError naming the run,
step and coordinate), after every other loop has run and printed its
lines.  Errors print as one ``error:`` line each on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import load_config, with_overrides
from .errors import ComparisonError, ConfigError, DomainError
from .runner import (compare_csv, compare_run_dirs, group_configs,
                     read_conditions, run_batch, run_experiment)


def _summary(record) -> str:
    summary = f"{record.run_dir}  loss={record.final_loss:.6g}"
    if record.final_regret is not None:
        summary += f"  regret={record.final_regret:.6g}"
    if record.test_accuracy is not None:
        summary += f"  acc={record.test_accuracy:.4f}"
    return summary


def _run_group(args):
    """A loop's summary lines, or the message of the DomainError it
    failed with."""
    cfgs, out_root, loops = args
    try:
        # a lone config keeps run_experiment's entry point, whose spans
        # perfbench/tracer.py times; it runs the same loop as a batch of
        # one
        if len(cfgs) == 1:
            records = [run_experiment(cfgs[0], out_root=out_root,
                                      loops=loops)]
        else:
            records = run_batch(cfgs, out_root, loops=loops)
    except DomainError as exc:
        return str(exc)
    return [_summary(record) for record in records]


def _exit_with_parent():
    """A pool worker's initializer: end the worker once the command's
    process is gone, killed even, rather than let it finish its loop
    and wait for tasks forever."""
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _expand_repeats(cfg):
    if cfg.repeats == 1:
        return [cfg]
    return [with_overrides(cfg, seed=cfg.problem.seed + i)
            for i in range(cfg.repeats)]


def _execute(jobs, cfgs, out_root) -> int:
    """Run cfgs loop by loop (:func:`group_configs`), printing one
    summary line per run in config order as soon as the lines before it
    are printed; a loop that fails on its data prints no line, and after
    the last loop each such loop prints one ``error:`` line, in config
    order.  Returns 3 if a loop failed so, else 0.

    Without ``jobs`` each loop is one task of a fork-started pool of one
    worker per loop, up to the usable cores; one loop or one core runs
    in this process.  ``jobs`` workers split the loops among them when
    they outnumber them.
    """
    groups = group_configs(cfgs)
    if jobs is not None and jobs > len(groups):
        # more workers than batches: split the batches among them
        parts = math.ceil(jobs / len(groups))
        groups = [g[i::parts] for g in groups for i in range(parts)
                  if g[i::parts]]
    # the step loops running at once, each in its own worker; without
    # --jobs, at most one per usable core, counted as writer.spare_core
    # counts them
    loops = min(len(groups), jobs or len(os.sched_getaffinity(0)))
    tasks = [([cfgs[i] for i in group], out_root, loops) for group in groups]
    lines = [None] * len(cfgs)
    errors = []
    printed = 0
    # a fork-started pool forks all its workers at once, one per loop,
    # before it starts a thread; a spawned worker would import numpy and
    # transopt again before its first loop
    with (ProcessPoolExecutor(
            loops, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent) if loops > 1
          else contextlib.nullcontext()) as pool:
        results = (pool.map if loops > 1 else map)(_run_group, tasks)
        for group, result in zip(groups, results):
            if isinstance(result, str):
                # the loop failed on its data: its runs print no line
                errors.append(result)
                result = [""] * len(group)
            for index, line in zip(group, result):
                lines[index] = line
            while printed < len(lines) and lines[printed] is not None:
                if lines[printed]:
                    print(lines[printed])
                printed += 1
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 3 if errors else 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = with_overrides(cfg, seed=args.seed, stride=args.stride)
    return _execute(args.jobs, _expand_repeats(cfg), args.out)


def cmd_sweep(args) -> int:
    config_dir = Path(args.config_dir)
    paths = sorted(config_dir.glob("*.yaml")) + sorted(config_dir.glob("*.yml"))
    if not paths:
        print(f"no configs found in {config_dir}", file=sys.stderr)
        return 1
    cfgs = []
    for path in paths:
        cfg = load_config(path)
        cfg = with_overrides(cfg, seed=args.seed, stride=args.stride)
        cfgs.extend(_expand_repeats(cfg))
    return _execute(args.jobs, cfgs, args.out)


def cmd_compare(args) -> int:
    rows = compare_run_dirs(args.run_dirs)
    text = compare_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_check_conditions(args) -> int:
    conditions = read_conditions(args.run_dir)
    meta_path = Path(args.run_dir) / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if "c2_first_violation" in meta:
            first = meta["c2_first_violation"]
            conditions["c2_first_violation"] = (
                "none" if first is None else f"t={first[0]} i={first[1]}")
        if meta.get("inverse_rate_max") is not None:
            conditions["inverse_rate_max"] = \
                f"{meta['inverse_rate_max']:.17g}"
    width = max(len(k) for k in conditions)
    for key, value in conditions.items():
        print(f"{key:<{width}}  {value}")
    ok = conditions.get("eta_inverse_bounded")
    if ok == "false":
        print("inverse-rate bound violated", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transopt",
        description="Adam-to-SGD transition optimizer experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--jobs", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--stride", type=int, default=None)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run every config in a directory")
    sweep.add_argument("config_dir")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--stride", type=int, default=None)
    sweep.set_defaults(func=cmd_sweep)

    compare = sub.add_parser("compare", help="tabulate finished runs")
    compare.add_argument("run_dirs", nargs="+")
    compare.add_argument("--out", default=None)
    compare.set_defaults(func=cmd_compare)

    check = sub.add_parser("check-conditions",
                           help="print a run's condition report")
    check.add_argument("run_dir")
    check.set_defaults(func=cmd_check_conditions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, ComparisonError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
