import csv
import io
from types import SimpleNamespace

import numpy as np

from hermcurv.cli import main
from hermcurv.conformal import conformal_oracle_check
from hermcurv.manifolds import builtin
from hermcurv.report import (SCHEMA_VERSION, curvature_records, records_to_csv,
                             records_to_text, solver_record)


# -- reference writer: one dict per record, one value at a time ---------------

def _ref_fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _ref_text(records):
    lines = [f"schema: {SCHEMA_VERSION}", f"records: {len(records)}", ""]
    for i, rec in enumerate(records):
        lines.append(f"[record {i}]")
        for key, val in rec.items():
            if key == "schema":
                continue
            lines.append(f"{key}: {_ref_fmt(val)}")
        lines.append("")
    return "\n".join(lines)


def _ref_csv(records):
    if not records:
        return "schema\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _ref_fmt(v) for k, v in rec.items()})
    return buf.getvalue()


def _as_records(table):
    """The table's rows as dicts, with numpy scalars where the table has arrays."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def _assert_writers_agree(table, records):
    assert records_to_csv(table) == _ref_csv(records)
    assert records_to_text(table) == _ref_text(records)


def test_inspect_table_writes_like_the_record_writer():
    man = builtin("hopf", n=3)
    z = man.sample_points(200, seed=1)
    table = curvature_records(man, z, man.jet(z), [0.0, 1.0])
    assert {len(col) for col in table.values()} == {400}
    records = _as_records(table)
    assert isinstance(records[0]["s1"], np.float64)
    _assert_writers_agree(table, records)


def test_conformal_rows_write_like_the_record_writer(capsys, tmp_path):
    # the comma in the factor makes the csv writer quote it
    factor = "pow(re(z1), 2)/4"
    argv = ["check", "conformal", "--manifold", "hopf", "--points", "10",
            "--t", "0,1", "--factor", factor]
    man = builtin("hopf")
    z = man.sample_points(10, seed=0)
    records = []
    for t, d in zip((0.0, 1.0), conformal_oracle_check(man, [factor], [0.0, 1.0], z)):
        records.append({"schema": SCHEMA_VERSION, "manifold": "hopf",
                        "factor": factor, "t": t, "defect_s2": d["s2"],
                        "defect_ric3": d["ric3"], "defect_ric4": d["ric4"]})
    for fmt, ref in (("csv", _ref_csv), ("text", _ref_text)):
        out = tmp_path / f"conformal.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert fh.read() == ref(records)
    capsys.readouterr()
    assert f'"{factor}"' in _ref_csv(records)


def test_solver_record_writes_like_the_record_writer():
    report = SimpleNamespace(
        lam=np.float64(-0.125), residual_linf=3e-11, residual_l2=np.float64(1e-12),
        path_trace=[(0.5, 3), (1.0, 2)], energy_trace=[1.0, 0.5, 0.25],
        extras={"krylov": 17, "mu": np.float64(2.5), "note": "skipped"},
        solution=SimpleNamespace(values=np.linspace(-1.0, 1.0, 7)))
    digest = {"manifold": "pluriclosed-bump", "n": 2, "params": "eps=0.03,m=1",
              "grid": 8, "tol": np.float64(1e-6), "seed": 0}
    table = solver_record(report, digest)
    records = _as_records(table)
    assert isinstance(records[0]["input.grid"], int)
    assert isinstance(records[0]["input.tol"], np.float64)
    _assert_writers_agree(table, records)


def test_empty_table():
    _assert_writers_agree({}, [])
    assert records_to_csv({}) == "schema\n"
