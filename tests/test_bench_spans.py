"""The benchmark's span table names functions that exist.

`bench/spans.py` wraps hermcurv functions by module and attribute path, and
a target it cannot find is listed as missing rather than raising, so a
renamed function would drop its per-layer metric without an error.  This
resolves every target the way `Tracer.install` does, and wraps nothing, and
checks that every timed or counted span metric BENCHMARK.json declares is
one of those targets.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    missing = []
    for name, modname, attr in load_spans().TARGETS:
        try:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            missing.append(name)
            continue
        if not callable(raw.__func__ if isinstance(raw, classmethod) else raw):
            missing.append(name)
    assert missing == []


def test_every_declared_span_metric_is_a_target():
    targets = {name for name, _, _ in load_spans().TARGETS}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = [m["name"].rsplit(".", 1)[0] for m in declared
             if m["name"].endswith((".s", ".calls"))]
    assert spans and sorted(set(spans) - targets) == []


def test_traced_bismut_solve_keeps_its_energy_steps(tmp_path):
    # the CLI looks its solver up at call time, so the solve span that the
    # tracer binds to the module attribute fires and keeps the PGD count
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"),
           "--spans", str(tmp_path / "spans.jsonl"), "--run-id", "t", "--",
           "solve", "bismut", "--manifold", "kaehler-bump", "--param", "eps=3e-5",
           "--grid", "8", "--scheme", "spectral", "--tol", "1e-8"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    steps = re.search(r"^energy_steps: (\d+)$", out["tail"], re.M)
    assert steps is not None, out["tail"]
    assert out["trace"]["kept"]["solvers.bismut_yamabe_minimize"] == [int(steps[1])]
