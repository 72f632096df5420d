import csv
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hermcurv.cli import main
from hermcurv.conformal import conformal_oracle_check
from hermcurv.manifolds import builtin
from hermcurv.report import (ROWS_PER_WRITE, SCHEMA_VERSION, curvature_records,
                             records_to_csv, records_to_text, solver_record)


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


def _written(writer, table) -> str:
    buf = io.StringIO()
    writer(table, buf)
    return buf.getvalue()


def _assert_writers_agree(table, records):
    assert _written(records_to_csv, table) == _ref_csv(records)
    assert _written(records_to_text, table) == _ref_text(records)


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
    assert _written(records_to_csv, {}) == "schema\n"


# -- streaming: ROWS_PER_WRITE rows per write ---------------------------------

R = ROWS_PER_WRITE


class _Writes:
    """A text stream that keeps the length of each write, or nothing."""

    def __init__(self, keep=True):
        self.lengths = [] if keep else None

    def write(self, text):
        if self.lengths is not None:
            self.lengths.append(len(text))


@pytest.fixture(scope="module")
def long_table():
    man = builtin("hopf")
    z = man.sample_points(2 * R + 1, seed=2)
    return curvature_records(man, z, man.jet(z), [0.5])


@pytest.mark.parametrize("rows", [0, 1, R - 1, R, R + 1, 2 * R + 1])
def test_writers_stream_runs_of_rows_like_the_record_writer(long_table, rows):
    # record numbers continue across writes; the header is one write, then
    # one write per run of at most R rows
    table = {key: values[:rows] for key, values in long_table.items()}
    _assert_writers_agree(table, _as_records(table))
    for writer in (records_to_csv, records_to_text):
        sink = _Writes()
        writer(table, sink)
        assert len(sink.lengths) == 1 + math.ceil(rows / R), writer.__name__


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_out_file_equals_stdout(capsys, tmp_path, fmt):
    argv = ["inspect", "hopf", "--points", str(R + 7), "--t", "0,1", "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    with open(out, newline="") as fh:
        assert fh.read() == stdout
    assert stdout.count("\n") > 2 * R


# The 5000-row hopf n = 3 table at one t, written to a stream that drops its
# input: the writers held the whole report at once (a traced peak of 30.8 MiB
# for CSV and 57.6 MiB for text); one run of rows is 3.2 and 4.5 MiB.
WRITER_BOUND_MIB = 8


@pytest.mark.parametrize("writer", [records_to_csv, records_to_text])
def test_writers_hold_one_run_of_rows(writer):
    man = builtin("hopf", n=3)
    z = man.sample_points(5000, seed=0)
    table = curvature_records(man, z, man.jet(z), [0.0])
    tracemalloc.start()
    try:
        writer(table, _Writes(keep=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < WRITER_BOUND_MIB
