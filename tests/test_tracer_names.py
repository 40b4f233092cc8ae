"""Every name that perfbench/tracer.py patches still exists in transopt.

The benchmark's layer trace wraps these names; one the program no longer
defines fails ``Tracer.install`` on the line that names it.  The tracer
is imported from its file and left unchanged.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_name_and_uninstall_restores_it():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
