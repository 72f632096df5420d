"""Span tracer that wraps hermcurv's public functions from outside the package.

Each target is wrapped where it is defined and in every hermcurv module that
imported it by name (``from .grid import complex_laplacian``), so a call is
seen whichever module makes it.  Spans (name, start, end, parent, run id) are
kept in memory and written out by ``write``; a span's self time is its
duration minus the durations of its direct children.  A target that no
longer exists is listed in ``missing`` instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute path).  `grid.from_manifold` is reported as
# an inclusive total; every other span name is reported as self time.
TARGETS = [
    ("manifolds.jet", "hermcurv.manifolds", "ModelManifold.jet"),
    ("jets.inverse_and_det", "hermcurv.jets", "inverse_and_det"),
    ("jets.conformal_jet", "hermcurv.jets", "conformal_jet"),
    ("curvature.scalar_via_identity", "hermcurv.curvature", "scalar_via_identity"),
    ("curvature.gauduchon_curvature", "hermcurv.curvature", "gauduchon_curvature"),
    ("curvature.ricci_and_scalars", "hermcurv.curvature", "ricci_and_scalars"),
    ("curvature.torsion_diagnostics", "hermcurv.curvature", "torsion_diagnostics"),
    ("forms.lee_form", "hermcurv.forms", "lee_form"),
    ("conformal.transformed_ric34", "hermcurv.conformal", "transformed_ric34"),
    ("conformal.conformal_oracle_check", "hermcurv.conformal",
     "conformal_oracle_check"),
    ("expr.evaluate", "hermcurv.expr", "evaluate"),
    ("dsl.parse_metric", "hermcurv.dsl", "parse_metric"),
    ("grid.from_manifold", "hermcurv.grid", "GridMetric.from_manifold"),
    ("grid.complex_laplacian", "hermcurv.grid", "complex_laplacian"),
    ("grid.dz", "hermcurv.grid", "dz"),
    ("grid.gauduchon_degrees", "hermcurv.grid", "gauduchon_degrees"),
    ("grid.GridMetric.conformal", "hermcurv.grid", "GridMetric.conformal"),
    ("solvers.precondition", "hermcurv.solvers", "_LaplacianOp.precondition"),
    ("solvers.apply_transpose", "hermcurv.solvers", "_LaplacianOp.apply_transpose"),
    ("solvers.bicgstab", "hermcurv.solvers", "bicgstab"),
    ("solvers.lstsq_mean_zero", "hermcurv.solvers", "lstsq_mean_zero"),
    ("solvers.continuity_solve", "hermcurv.solvers", "continuity_solve"),
    ("solvers.grad_energy_norm", "hermcurv.solvers", "_grad_energy_norm"),
    ("solvers.bismut_yamabe_minimize", "hermcurv.solvers",
     "bismut_yamabe_minimize"),
    ("report.curvature_records", "hermcurv.report", "curvature_records"),
    ("report.records_to_csv", "hermcurv.report", "records_to_csv"),
    ("cli.main", "hermcurv.cli", "main"),
]

# Return values kept for the count metrics, reduced to the part needed.
_KEEP = {
    "solvers.continuity_solve": lambda out: [list(step) for step in out[1]],
    "solvers.bismut_yamabe_minimize": lambda rep: len(rep.energy_trace),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.kept: dict[str, list] = {}
        self.missing: list[str] = []
        self.krylov_applies = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(out))
            return out

        return wrapper

    def _counting_bicgstab(self, bicgstab):
        # Counts calls of the operator callable handed to each solve.
        @functools.wraps(bicgstab)
        def run(apply_op, *args, **kwargs):
            def counted(x):
                self.krylov_applies += 1
                return apply_op(x)
            return bicgstab(counted, *args, **kwargs)

        return run

    def install(self) -> None:
        """Wrap every target; call after hermcurv.cli is imported."""
        modules = [m for key, m in sys.modules.items()
                   if key == "hermcurv" or key.startswith("hermcurv.")]
        for name, modname, attr in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, leaf, self._wrap(name, raw))
                continue
            fn = self._counting_bicgstab(raw) if name == "solvers.bicgstab" else raw
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
