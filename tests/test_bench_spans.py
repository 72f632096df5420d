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
