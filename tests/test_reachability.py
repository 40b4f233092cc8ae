"""Every function of ``src/transopt`` is entered by some command, or is
listed in ``tests/data/unreached.json`` with the reason why not.

``tools/reachability.py`` runs the commands in a fresh process under a
call-event collector and prints each ``def`` that no call entered.  A
function it prints that the list lacks fails the test, and so does a
listed function that the commands now reach or that no longer exists.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reachability.py"
LISTED = ROOT / "tests" / "data" / "unreached.json"

CLASSES = ("error-path", "other-process", "tracer", "tests-only")

LINE = re.compile(r"^(\S+)  \S+:\d+  \d+ lines$")


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def unreached():
    """The names the tool prints, from one run in its own process."""
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith("unreached: "), done.stdout
    names = [LINE.match(line).group(1) for line in lines[:-1]]
    assert len(names) == len(set(names))
    return set(names)


def test_every_entry_names_its_class_and_reason():
    listed = json.loads(LISTED.read_text())
    for name, entry in listed.items():
        assert entry.get("class") in CLASSES, name
        assert entry.get("reason", "").strip(), name


def test_every_unreached_function_is_listed(unreached):
    listed = json.loads(LISTED.read_text())
    new = sorted(unreached - set(listed))
    assert not new, ("no command enters these functions; call them, delete "
                     f"them or list them in {LISTED.name}: {new}")


def test_no_listed_function_is_reached_or_gone(unreached):
    listed = set(json.loads(LISTED.read_text()))
    defined = set(_load_tool().defs())
    gone = sorted(listed - defined)
    assert not gone, f"listed in {LISTED.name} but no longer defined: {gone}"
    reached = sorted(listed - unreached)
    assert not reached, (f"listed in {LISTED.name} but a command now enters "
                         f"them; drop their entries: {reached}")
