"""Every benchmark reference command passes the benchmark's own gate.

`bench/references.json` stores the lambda (mu for bismut) that each `solve`
command of the benchmark must print, and `bench/run.py`'s `gate` judges a
command's output against it.  This runs each stored command through
`hermcurv.cli.main`, keeps the output tail the way `bench/child.py` does, and
judges it with that `gate`, so the bound is stated in one place.
"""

import contextlib
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from hermcurv.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFS = json.loads((BENCH / "references.json").read_text())


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHILD, RUN = load("child"), load("run")


@pytest.mark.parametrize("command", sorted(REFS))
def test_reference_command_passes_the_benchmark_gate(command):
    argv = shlex.split(command)
    tail = CHILD._Tail()
    with contextlib.redirect_stdout(tail):
        rc = main(argv)
    assert RUN.gate(argv, {"rc": rc, "tail": tail.buf}, REFS) is None
