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

Exit codes: 0 on success; 1 when ``sweep`` finds no config or
``check-conditions`` an inverse-rate bound violated; 2 for a ``--jobs``
below 1, a bad config, incomparable runs, a missing file or an output
root or artifact that cannot be written (checked before a loop's first
step); 3 when a run fails on its data (a DomainError naming the run,
step and coordinate).  Errors print as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
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
    cfgs, out_root, loops = args
    # a lone config keeps run_experiment's entry point, whose spans
    # perfbench/tracer.py times; it runs the same loop as a batch of one
    if len(cfgs) == 1:
        records = [run_experiment(cfgs[0], out_root=out_root, loops=loops)]
    else:
        records = run_batch(cfgs, out_root, loops=loops)
    return [_summary(record) for record in records]


def _expand_repeats(cfg):
    if cfg.repeats == 1:
        return [cfg]
    return [with_overrides(cfg, seed=cfg.problem.seed + i)
            for i in range(cfg.repeats)]


def _execute(jobs, cfgs, out_root):
    """Run cfgs in batches, printing one summary line per config in
    config order as soon as the lines before it are printed."""
    groups = group_configs(cfgs)
    if jobs > len(groups):
        # more workers than batches: split the batches among them
        parts = math.ceil(jobs / len(groups))
        groups = [g[i::parts] for g in groups for i in range(parts)
                  if g[i::parts]]
    parallel = jobs > 1 and len(groups) > 1
    # the step loops running at once, each in its own worker
    loops = min(jobs, len(groups)) if parallel else 1
    tasks = [([cfgs[i] for i in group], out_root, loops) for group in groups]
    lines = [None] * len(cfgs)
    printed = 0
    # a fork-started pool forks all its workers at once: one per loop
    with (ProcessPoolExecutor(max_workers=loops) if parallel
          else contextlib.nullcontext()) as pool:
        results = (pool.map if parallel else map)(_run_group, tasks)
        for group, group_lines in zip(groups, results):
            for index, line in zip(group, group_lines):
                lines[index] = line
            while printed < len(lines) and lines[printed] is not None:
                print(lines[printed])
                printed += 1


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = with_overrides(cfg, seed=args.seed, stride=args.stride)
    _execute(args.jobs, _expand_repeats(cfg), args.out)
    return 0


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
    _execute(args.jobs, cfgs, args.out)
    return 0


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
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--out", default=None)
    run.add_argument("--stride", type=int, default=None)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run every config in a directory")
    sweep.add_argument("config_dir")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=1)
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
    if getattr(args, "jobs", 1) < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, ComparisonError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
