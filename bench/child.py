"""Run one hermcurv CLI command in this fresh interpreter and report on it.

    python3 child.py [--spans PATH --run-id ID] [-- CLI ARGS...]

Times ``import hermcurv.cli`` and then ``hermcurv.cli.main(CLI ARGS)``,
keeps the last lines of the command's standard output for the correctness
gate, and prints one JSON line.  Without CLI ARGS it only times the import
and reports library versions.  With ``--spans`` the package is traced and
the spans are written to PATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

TAIL_LINES = 20


class _Tail(io.TextIOBase):
    """Text sink that keeps only the last TAIL_LINES lines written."""

    def __init__(self):
        self.buf = ""

    def writable(self):
        return True

    def write(self, s):
        parts = (self.buf + s).rsplit("\n", TAIL_LINES)
        if len(parts) > TAIL_LINES:
            parts = parts[1:]
        self.buf = "\n".join(parts)
        return len(s)


def _versions() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas}


def main(argv: list[str]) -> int:
    spans_path = run_id = None
    if "--" in argv:
        split = argv.index("--")
        argv, cli_args = argv[:split], argv[split + 1:]
    else:
        cli_args = []
    if argv[:1] == ["--spans"]:
        spans_path, run_id = argv[1], argv[3]

    t0 = perf_counter()
    import hermcurv.cli
    out = {"import_s": perf_counter() - t0}
    if not cli_args:
        out.update(_versions())
        print(json.dumps(out))
        return 0

    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    main_fn = hermcurv.cli.main  # looked up after install, so it is traced
    tail = _Tail()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(tail):
            rc = main_fn(cli_args)
    except Exception:  # a crash is a failed command, not a harness error
        traceback.print_exc()
        rc = 1
    out["wall_s"] = perf_counter() - t0
    out["rc"] = rc
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["tail"] = tail.buf
    if tracer is not None:
        tracer.write(spans_path)
        out["trace"] = {
            "summary": tracer.summary(), "kept": tracer.kept,
            "missing": tracer.missing, "krylov_applies": tracer.krylov_applies,
            "bicgstab_in_continuity": tracer.count_within(
                "solvers.bicgstab", "solvers.continuity_solve")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
