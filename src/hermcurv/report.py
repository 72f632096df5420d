"""Machine-readable curvature and solver reports (structured text and CSV).

The structured-text format is stable `key: value` lines grouped in records,
prefixed with a schema-version header; CSV carries one row per record with
flattened columns.  Outputs are byte-deterministic for a fixed seed and
configuration.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .curvature import (class_residual_fields, gauduchon_curvature,
                        report_matrix, ricci_and_scalars, torsion_traces)
from .manifolds import ModelManifold

SCHEMA_VERSION = "hermcurv-report-1"

__all__ = ["SCHEMA_VERSION", "curvature_records", "records_to_text",
           "records_to_csv", "solver_record"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _flatten_matrix(prefix: str, m: np.ndarray, out: dict):
    n = m.shape[-1]
    for i in range(n):
        for j in range(n):
            out[f"{prefix}[{i + 1}][{j + 1}].re"] = float(m[i, j].real)
            out[f"{prefix}[{i + 1}][{j + 1}].im"] = float(m[i, j].imag)


def curvature_records(man: ModelManifold, points: np.ndarray,
                      ts) -> list[dict]:
    """One record per (point, t): scalars, Ricci matrices, torsion data.

    Ricci coefficient matrices are reported in the golden-table convention
    (see curvature.report_matrix).  Class residuals are pointwise values of
    the same quantities `classify` maximizes over samples.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim == 1:
        z = z[None, :]
    jet = man.jet(z)
    traces = torsion_traces(jet)
    lee = traces.lee
    residuals = class_residual_fields(jet, traces=traces)
    n = man.n
    records = []
    for t in ts:
        ric = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
        for p in range(z.shape[0]):
            rec = {"schema": SCHEMA_VERSION, "manifold": man.name, "t": float(t)}
            for k in range(n):
                rec[f"z{k + 1}.re"] = float(z[p, k].real)
                rec[f"z{k + 1}.im"] = float(z[p, k].imag)
            rec["s1"] = float(ric.s1[p])
            rec["s2"] = float(ric.s2[p])
            for idx, m in ((1, ric.ric1), (2, ric.ric2), (3, ric.ric3),
                           (4, ric.ric4)):
                _flatten_matrix(f"ric{idx}", report_matrix(m[p]), rec)
            rec["norm.del_omega_sq"] = float(traces.del_omega_sq[p])
            rec["norm.del_star_sq"] = float(traces.del_star_sq[p])
            rec["norm.pairing"] = float(traces.pairing[p])
            for a in range(2 * n):
                rec[f"lee[{a}]"] = float(lee[p, a])
            for key, field in residuals.items():
                rec[f"residual.{key}"] = float(field[p])
            records.append(rec)
    return records


def records_to_text(records: list[dict]) -> str:
    lines = [f"schema: {SCHEMA_VERSION}", f"records: {len(records)}", ""]
    for i, rec in enumerate(records):
        lines.append(f"[record {i}]")
        for key, val in rec.items():
            if key == "schema":
                continue
            lines.append(f"{key}: {_fmt(val)}")
        lines.append("")
    return "\n".join(lines)


def records_to_csv(records: list[dict]) -> str:
    if not records:
        return "schema\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _fmt(v) for k, v in rec.items()})
    return buf.getvalue()


def solver_record(report, digest: dict) -> dict:
    """Flatten a SolverReport plus the input digest into one record."""
    rec = {"schema": SCHEMA_VERSION}
    rec.update({f"input.{k}": v for k, v in digest.items()})
    rec["lambda"] = float(report.lam)
    rec["residual_linf"] = float(report.residual_linf)
    rec["residual_l2"] = float(report.residual_l2)
    rec["path_steps"] = len(report.path_trace)
    if report.path_trace:
        rec["path_a_final"] = float(report.path_trace[-1][0])
    rec["energy_steps"] = len(report.energy_trace)
    for key, val in report.extras.items():
        if isinstance(val, (int, float, np.floating)):
            rec[f"extras.{key}"] = float(val)
    sol = report.solution.values
    rec["solution.min"] = float(np.min(sol))
    rec["solution.max"] = float(np.max(sol))
    rec["solution.mean"] = float(np.mean(sol))
    return rec
