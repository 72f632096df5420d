"""End-to-end and per-layer benchmark for the hermcurv CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Every workload command runs through ``hermcurv.cli.main`` in a fresh child
interpreter (closed loop, one client, BLAS/OpenMP threads capped at the
visible core count).  ``--trace 0`` repeats the workload while another
iteration fits in ``--seconds`` and prints the end-to-end metrics as medians;
``--trace 1`` does the same with pairs of an untraced and a traced iteration
and prints the per-layer metrics.  Every command's output passes a
correctness gate; the last stdout line is the JSON result.
``--smoke`` runs tiny sizes of every workload and checks the harness itself.
See README.md for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = {
    "solve-negative": [
        ["solve", "chern-negative", "--manifold", "pluriclosed-bump",
         "--grid", "16", "--tol", "1e-6"]],
    "solve-bismut": [
        ["solve", "bismut", "--manifold", "kaehler-bump", "--param", "eps=3e-5",
         "--grid", "12", "--scheme", "spectral", "--tol", "1e-8"]],
    "pointwise": [
        ["inspect", "hopf", "--n", "3", "--points", "2500", "--t", "0,1",
         "--format", "csv", "--golden"],
        ["check", "conformal", "--manifold", "hopf", "--n", "3",
         "--points", "5000", "--t", "0,1"]],
}
SMOKE_SIZES = {"--grid": "8", "--points": "200"}

SETUP_PROBES = 9      # fresh-interpreter imports per run, after one warm-up
RUN_LIMIT_S = 170.0   # every child is killed past this point of a run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Span names reported as `<name>.s`; grid.from_manifold is an inclusive total,
# the rest are self time.
TIMED = ["manifolds.jet", "jets.inverse_and_det", "jets.conformal_jet",
         "grid.from_manifold", "curvature.scalar_via_identity",
         "curvature.gauduchon_curvature", "curvature.ricci_and_scalars",
         "curvature.torsion_diagnostics", "forms.lee_form",
         "conformal.transformed_ric34", "conformal.conformal_oracle_check",
         "expr.evaluate", "dsl.parse_metric", "grid.complex_laplacian",
         "grid.dz", "grid.gauduchon_degrees", "grid.GridMetric.conformal",
         "solvers.precondition", "solvers.apply_transpose", "solvers.bicgstab",
         "solvers.lstsq_mean_zero", "report.curvature_records",
         "report.records_to_csv", "cli.main"]
COUNTED = ["curvature.scalar_via_identity", "curvature.gauduchon_curvature",
           "grid.complex_laplacian", "grid.dz", "solvers.precondition",
           "solvers.apply_transpose", "solvers.bicgstab"]


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no library, or a probe failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(cli_args: list[str], env: dict, deadline: float,
              spans: tuple[str, str] | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py")]
    if spans:
        cmd += ["--spans", spans[0], "--run-id", spans[1]]
    cmd += ["--"] + cli_args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "error": "killed at the run time limit"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode, "error": proc.stderr[-2000:]}
    if out.get("rc", 0) != 0:
        out["error"] = proc.stderr[-2000:]
    return out


def gate(argv: list[str], res: dict, refs: dict) -> str | None:
    """Reason the command's output is wrong, or None when it is right."""
    if res.get("rc") != 0:
        return f"exit code {res.get('rc')}: {res.get('error', '').strip()}"
    tail = res["tail"]
    if argv[0] == "solve":
        # The CLI prints lambda (mu for bismut) with 10 significant digits.
        m = re.search(r"lambda=(\S+)", tail)
        ref = refs.get(" ".join(argv))
        if m is None or ref is None:
            return "no lambda in the output or no stored reference"
        got = float(m.group(1))
        bound = float(argv[argv.index("--tol") + 1]) * max(1.0, abs(ref))
        if not abs(got - ref) <= bound:
            return f"lambda {got!r} differs from reference {ref!r} by more than {bound:g}"
    elif argv[0] == "inspect":
        if "GOLDEN FAIL" in tail or tail.count("GOLDEN PASS") != 2:
            return "golden gate did not pass s1 and s2"
    elif "conformal oracle max defect" not in tail:
        return "no conformal defect line in the output"
    return None


class Run:
    """One benchmark run: its commands, their checks and the failures seen."""

    def __init__(self, workload: str, seed: int, smoke: bool, refs: dict):
        self.commands = [self._sized(c, smoke) for c in WORKLOADS[workload]]
        self.seed = seed
        self.refs = refs
        self.env = child_env()
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.iterations = 0
        self.name = workload

    @staticmethod
    def _sized(argv: list[str], smoke: bool) -> list[str]:
        """The command, with the value after each SMOKE_SIZES flag replaced."""
        if not smoke:
            return list(argv)
        return [SMOKE_SIZES.get(prev, arg) for prev, arg in zip([""] + argv, argv)]

    def setup(self) -> tuple[float, dict]:
        """Median fresh-interpreter import time of hermcurv.cli, and versions."""
        if not (ROOT / "src" / "hermcurv" / "cli.py").is_file():
            raise HarnessError(f"no hermcurv sources under {ROOT / 'src'}")
        samples = []
        versions = {}
        for i in range(SETUP_PROBES + 1):
            out = run_child([], self.env, self.deadline)
            if "import_s" not in out:
                raise HarnessError(f"import probe failed: {out.get('error', '')}")
            if i == 0:  # warm-up: compiles the bytecode cache
                versions = {k: out[k] for k in ("python", "numpy", "blas")}
            else:
                samples.append(out["import_s"])
        return statistics.median(samples), versions

    def iteration(self, spans: bool = False) -> dict:
        """Run every command once; sum their wall time, take the peak RSS."""
        wall = rss = 0.0
        traces = []
        self.iterations += 1
        for i, argv in enumerate(self.commands):
            span_arg = None
            if spans:
                OUT.mkdir(exist_ok=True)
                run_id = f"{self.name}-seed{self.seed}-it{self.iterations}-cmd{i}"
                span_arg = (str(OUT / f"spans-{run_id}.jsonl"), run_id)
            res = run_child(argv + ["--seed", str(self.seed)], self.env,
                            self.deadline, span_arg)
            self.attempted += 1
            reason = gate(argv, res, self.refs)
            if reason:
                self.failures.append(f"{' '.join(argv)}: {reason}")
            wall += res.get("wall_s", 0.0)
            rss = max(rss, res.get("rss_mb", 0.0))
            traces.append(res.get("trace"))
        return {"wall_s": wall, "rss_mb": rss, "traces": traces}

    def repeat(self, seconds: float, body) -> list:
        """Closed loop: call body() until another call would overrun seconds."""
        out, spent = [], []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            out.append(body())
            spent.append(perf_counter() - t0)
            now = perf_counter()
            if (now - start + statistics.median(spent) > seconds
                    or now + 2 * max(spent) > self.deadline):
                return out


def timed_metrics(run: Run, seconds: float, setup_s: float) -> tuple[dict, str]:
    its = run.repeat(seconds, run.iteration)
    metrics = {"wall_s": {"value": statistics.median(i["wall_s"] for i in its),
                          "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": statistics.median(i["rss_mb"] for i in its),
                               "unit": "MB"}}
    walls = ", ".join(f"{i['wall_s']:.4f}" for i in its)
    return metrics, f"median of {len(its)} iteration(s); wall_s samples [{walls}]"


# metrics that cannot be measured once a wrapped target no longer exists
DERIVED = {"solvers.bicgstab": ["solvers.krylov_applies", "solvers.newton_useful_frac"],
           "solvers.continuity_solve": ["solvers.continuity_steps",
                                        "solvers.newton_steps",
                                        "solvers.newton_useful_frac"],
           "solvers.grad_energy_norm": ["solvers.energy_evals"],
           "solvers.bismut_yamabe_minimize": ["solvers.pgd_iterations"]}


def layer_metrics(traces: list) -> tuple[dict, set]:
    """Per-layer metrics of one traced iteration, and the targets missing."""
    summary, kept, missing = {}, {}, set()
    krylov = in_continuity = 0
    for tr in traces:
        if tr is None:
            continue
        for name, row in tr["summary"].items():
            acc = summary.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, vals in tr["kept"].items():
            kept.setdefault(name, []).extend(vals)
        missing.update(tr["missing"])
        krylov += tr["krylov_applies"]
        in_continuity += tr["bicgstab_in_continuity"]

    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    metrics = {}
    for name in TIMED:
        row = summary.get(name, empty)
        value = row["total"] if name == "grid.from_manifold" else row["self"]
        metrics[f"{name}.s"] = (value, "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (summary.get(name, empty)["calls"], "count")
    paths = kept.get("solvers.continuity_solve", [])
    newton = sum(step[1] for path in paths for step in path)
    counts = {
        "solvers.krylov_applies": krylov,
        # path entries: the a = 0 solve plus each accepted step, as the
        # report's path_steps counts them
        "solvers.continuity_steps": sum(len(path) for path in paths),
        "solvers.newton_steps": newton,
        "solvers.pgd_iterations": sum(
            n - 1 for n in kept.get("solvers.bismut_yamabe_minimize", [])),
        "solvers.energy_evals": summary.get("solvers.grad_energy_norm", empty)["calls"],
    }
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["solvers.newton_useful_frac"] = (
        newton / in_continuity if in_continuity else 0.0, "ratio")

    gone = set()
    for name in missing:
        gone |= {f"{name}.s", f"{name}.calls", *DERIVED.get(name, ())}
    gone &= set(metrics)
    return {k: v for k, v in metrics.items() if k not in gone}, gone


def traced_metrics(run: Run, seconds: float) -> tuple[dict, str]:
    """Untraced and traced iterations in pairs; medians over the pairs.

    The low median keeps each per-layer value one that was measured, and a
    count a whole number.
    """
    pairs = run.repeat(seconds, lambda: (run.iteration(), run.iteration(spans=True)))
    per_iter, gone = [], set()
    for _, traced in pairs:
        values, missing = layer_metrics(traced["traces"])
        per_iter.append(values)
        gone |= missing
    metrics = {name: {"value": statistics.median_low(v[name][0] for v in per_iter),
                      "unit": unit}
               for name, (_, unit) in per_iter[0].items()}
    plain = statistics.median(p["wall_s"] for p, _ in pairs)
    traced = statistics.median(t["wall_s"] for _, t in pairs)
    metrics["trace.overhead_frac"] = {
        "value": traced / plain - 1.0 if plain else 0.0, "unit": "ratio"}
    note = f"median of {len(pairs)} traced iteration(s)"
    if gone:
        note += f"; missing metrics: {', '.join(sorted(gone))}"
    return metrics, note


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool = False, refs: dict | None = None) -> dict:
    """Run one workload and print the result; returns the result object."""
    if refs is None:
        refs = json.loads((BENCH / "references.json").read_text())
    run = Run(workload, seed, smoke, refs)
    setup_s, versions = run.setup()
    env = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "smoke": smoke,
           "nproc": len(os.sched_getaffinity(0)), **versions,
           "git_commit": _git_commit(),
           "thread_caps": {k: run.env[k] for k in THREAD_VARS},
           "seed_use": "drives the pointwise sample points; the solves are "
                       "deterministic, so there it is passed through and recorded only"}
    print("env " + json.dumps(env))
    if trace:
        metrics, note = traced_metrics(run, seconds)
    else:
        metrics, note = timed_metrics(run, seconds, setup_s)
    for reason in run.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    failed = len(run.failures)
    print(f"{workload} failed_frac = {failed / run.attempted:.6g} "
          f"({failed} of {run.attempted} commands); {note}")
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Tiny sizes: every declared metric is emitted and the gate can fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((BENCH / "references.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = benchmark(workload, 1, 1.0, trace, smoke=True, refs=refs)
            want = {m["name"] for m in spec[key]}
            if set(res["metrics"]) != want:
                problems.append(f"{workload} trace={int(trace)}: metrics differ "
                                f"from BENCHMARK.json by {sorted(want ^ set(res['metrics']))}")
            if not res["correct"]:
                problems.append(f"{workload} trace={int(trace)}: outputs rejected")
    wrong = {key: value + 1.0 for key, value in refs.items()}
    res = benchmark("solve-negative", 1, 1.0, False, smoke=True, refs=wrong)
    if res["failed"] == 0:
        problems.append("a wrong reference did not make failed_frac nonzero")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "OK"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
