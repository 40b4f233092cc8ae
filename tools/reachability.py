#!/usr/bin/env python3
"""Every function of ``src/transopt`` that no command enters.

Usage, from the repository root::

    python3 tools/reachability.py

A ``sys.settrace`` collector of call events is installed before
``transopt`` is imported, so import-time calls count.  Then the traffic
runs, in this process:

- the four workloads of ``perfbench/workloads.py`` (read, never
  modified) at their few-step size, each swept with ``--jobs 1`` and
  with ``writer.spare_core`` patched to false, so every loop writes its
  artifacts in this process;
- ``transopt run`` of each config in ``configs/``, copied with its
  horizon cut to ``HORIZON`` steps or its epochs to one;
- ``compare`` on the MLP runs of that copy, and ``check-conditions`` on
  every run directory;
- the first code block of README's "Library use", which calls an
  oracle and ``step`` directly.

It prints one line for each ``def`` in ``src/transopt`` (nested ones
too) whose code no call entered: its qualified name with the module
in front (``runner.run_batch.<locals>.load``), its file and line and its
length in lines; then a total.  ``tests/test_reachability.py`` holds
these names to ``tests/data/unreached.json``.  A traffic command that
fails exits 1, naming it, since its failure would leave code unreached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "transopt"

#: The horizon of the shortened ``configs/`` copy.
HORIZON = 50


class Def(NamedTuple):
    """One ``def``: the line of its first decorator or of the ``def``
    (a code object's ``co_firstlineno``), and its length in lines."""

    name: str
    path: Path
    line: int
    length: int


def defs(src: Path = SRC) -> Dict[str, Def]:
    """Every ``def`` of the package at ``src``, by qualified name."""
    found: Dict[str, Def] = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([child.lineno] + [d.lineno
                                             for d in child.decorator_list])
                found[name] = Def(name, path, line,
                                  child.end_lineno - line + 1)
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path,
              "" if path.stem == "__init__" else f"{path.stem}.")
    return found


def _main_ok(argv: List[str], codes=(0,)) -> None:
    """Run ``transopt`` with ``argv``, its output swallowed; exit 1 on a
    return code outside ``codes``."""
    from transopt.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    if code not in codes:
        sys.exit(f"reachability: transopt {' '.join(argv)} exited {code}:\n"
                 f"{out.getvalue()}")


def _library_example() -> str:
    """The first Python block of README's "Library use" section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def traffic(work: Path) -> None:
    """The commands whose calls count as reached, writing under ``work``."""
    import transopt.writer

    # every loop writes in this process, where the collector sees it
    transopt.writer.spare_core = lambda loops: False
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, make in workloads.WORKLOADS.items():
        config_dir = work / "workloads" / name
        workloads.write_configs(make(workloads.DEFAULT_SEED, smoke=True),
                                config_dir)
        _main_ok(["sweep", str(config_dir), "--jobs", "1",
                  "--out", str(work / "runs")])
    configs = work / "configs"
    configs.mkdir()
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        text = re.sub(r"^horizon: \d+$", f"horizon: {HORIZON}",
                      path.read_text(), flags=re.M)
        text = re.sub(r"^epochs: \d+$", "epochs: 1", text, flags=re.M)
        (configs / path.name).write_text(text)
        _main_ok(["run", str(configs / path.name),
                  "--out", str(work / "configs-runs")])
    _main_ok(["compare",
              *map(str, sorted((work / "configs-runs").glob("mlp-*")))])
    for run_dir in sorted([*(work / "runs").iterdir(),
                           *(work / "configs-runs").iterdir()]):
        # a baseline's inverse rate may pass DSTAdam's cap: exit 1
        _main_ok(["check-conditions", str(run_dir)], codes=(0, 1))
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_library_example(), "README.md", "exec"), {})


def entered() -> set:
    """The (file, first line) of every code object of ``src/transopt``
    that a call of the traffic entered."""
    codes = set()

    def collect(frame, event, arg):
        codes.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(collect)
    try:
        import transopt  # noqa: F401  (import-time calls count)

        with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
            traffic(Path(tmp))
    finally:
        sys.settrace(None)
    src = str(SRC)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno)
            for c in codes if c.co_filename.startswith(src)}


def main() -> int:
    reached = entered()
    unreached = [d for d in defs().values()
                 if (d.path.resolve(), d.line) not in reached]
    for d in sorted(unreached, key=lambda d: (d.path, d.line)):
        print(f"{d.name}  {d.path.relative_to(ROOT)}:{d.line}  "
              f"{d.length} lines")
    print(f"unreached: {len(unreached)} functions, "
          f"{sum(d.length for d in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
