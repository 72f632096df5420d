"""Machine-readable curvature and solver reports (structured text and CSV).

A report is one table: a dict from column name to its values, one per row
(a float array, or a list of str, int or float).  The structured-text format
is stable `key: value` lines grouped in records, prefixed with a
schema-version header; CSV carries one row per record.  Both writers format
a row with one template: `%.17g` for float columns and `str` for the rest.
Outputs are byte-deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .curvature import (class_residual_fields, report_matrix, ricci_forms,
                        torsion_traces)
from .jets import MetricJet
from .manifolds import ModelManifold

SCHEMA_VERSION = "hermcurv-report-1"

__all__ = ["SCHEMA_VERSION", "curvature_records", "records_to_text",
           "records_to_csv", "solver_record"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def curvature_records(man: ModelManifold, z: np.ndarray, jet: MetricJet, ts) -> dict:
    """One row per (t, point): scalars, Ricci matrices, torsion data.

    `z` holds the points as rows (as `sample_points` returns them) and `jet`
    is `man`'s jet there.  Rows run over the points for each t in turn.
    Ricci coefficient matrices are reported in the golden-table convention
    (see curvature.report_matrix).  Class residuals are the pointwise fields
    whose maxima over the samples `classify` returns.
    """
    traces = torsion_traces(jet)
    residuals = class_residual_fields(traces)
    rics = ricci_forms(jet, ts)
    n, count = man.n, len(ts)
    rows = count * z.shape[0]
    table = {"schema": [SCHEMA_VERSION] * rows, "manifold": [man.name] * rows,
             "t": np.repeat(np.asarray(ts, dtype=float), z.shape[0])}
    for k in range(n):
        table[f"z{k + 1}.re"] = np.tile(z[:, k].real, count)
        table[f"z{k + 1}.im"] = np.tile(z[:, k].imag, count)
    table["s1"] = np.concatenate([ric.s1 for ric in rics])
    table["s2"] = np.concatenate([ric.s2 for ric in rics])
    for idx in range(1, 5):
        m = report_matrix(np.concatenate([getattr(ric, f"ric{idx}") for ric in rics], -1))
        for i in range(n):
            for j in range(n):
                table[f"ric{idx}[{i + 1}][{j + 1}].re"] = m[i, j].real
                table[f"ric{idx}[{i + 1}][{j + 1}].im"] = m[i, j].imag
    for key in ("del_omega_sq", "del_star_sq", "pairing"):
        table[f"norm.{key}"] = np.tile(getattr(traces, key), count)
    for a, col in enumerate(traces.lee):
        table[f"lee[{a}]"] = np.tile(col, count)
    for key, field in residuals.items():
        table[f"residual.{key}"] = np.tile(field, count)
    return table


def _column(values, cell) -> tuple[str, list]:
    """Template and row values of one column; `cell` quotes a non-float text."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return "%.17g", values.tolist()
    values = list(values)
    if all(isinstance(v, float) for v in values):
        return "%.17g", values
    texts = [_fmt(v) for v in values]
    cells = {s: cell(s) for s in set(texts)}
    return "%s", [cells[s] for s in texts]


def _csv_cell(text: str) -> str:
    """`text` as one field of a csv.writer row: quoted only where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]  # drop the empty last field and "\r\n"


def records_to_text(table: dict) -> str:
    names = [key for key in table if key != "schema"]
    cols = [_column(table[key], str) for key in names]
    template = "\n[record %d]\n" + "".join(
        f"{key.replace('%', '%%')}: {fmt}\n" for key, (fmt, _) in zip(names, cols))
    rows = len(next(iter(table.values()), ()))
    body = [template % row for row in zip(range(rows), *(vals for _, vals in cols))]
    return f"schema: {SCHEMA_VERSION}\nrecords: {rows}\n" + "".join(body)


def records_to_csv(table: dict) -> str:
    if not len(next(iter(table.values()), ())):
        return "schema\n"
    cols = [_column(values, _csv_cell) for values in table.values()]
    template = ",".join(fmt for fmt, _ in cols) + "\r\n"
    header = ",".join(map(_csv_cell, table)) + "\r\n"
    return header + "".join(template % row for row in zip(*(vals for _, vals in cols)))


def solver_record(report, digest: dict) -> dict:
    """A one-row table of a SolverReport plus the input digest."""
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
    return {key: [val] for key, val in rec.items()}
