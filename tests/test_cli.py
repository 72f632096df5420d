import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hermcurv
from hermcurv import cli
from hermcurv.cli import main
from hermcurv.manifolds import builtin_names


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "hopf" in out and "pluriclosed-bump" in out


def test_inspect_flat_torus(capsys):
    code, out, _ = run(capsys, "inspect", "flat-torus", "--n", "2",
                       "--points", "3")
    assert code == 0
    assert "s1: 0" in out and "s2: 0" in out


def test_inspect_golden_hopf(capsys):
    code, out, _ = run(capsys, "inspect", "hopf", "--n", "2", "--points", "10",
                       "--golden")
    assert code == 0
    assert "GOLDEN PASS hopf s1" in out
    assert "GOLDEN PASS hopf s2" in out


def test_inspect_golden_tricerri_flags_stored_conflict(capsys, monkeypatch):
    # a stored s2 that conflicts with the engine (the refuted tricerri
    # constant -5/4) is reported by the golden gate via exit code 4
    real_builtin = cli.builtin

    def conflicting(name, **kwargs):
        man = real_builtin(name, **kwargs)
        man.golden = {"s1": -0.25, "s2": -1.25}
        return man

    monkeypatch.setattr(cli, "builtin", conflicting)
    code, out, _ = run(capsys, "inspect", "tricerri", "--golden")
    assert "GOLDEN PASS tricerri s1" in out
    assert "GOLDEN FAIL tricerri s2" in out
    assert code == 4


@pytest.mark.parametrize("points", ["0", "-3"])
def test_point_count_below_one_is_refused(capsys, points):
    for argv in (["inspect", "hopf", "--n", "3"],
                 ["check", "conformal", "--manifold", "hopf", "--n", "3"],
                 ["check", "comparison", "--manifold", "vaisman"]):
        code, _, err = run(capsys, *argv, "--points", points)
        assert code == 2, argv
        assert f"sample count must be at least 1, got {points}" in err, argv


def test_inspect_csv_deterministic(capsys, tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for path in (p1, p2):
        code, _, _ = run(capsys, "inspect", "vaisman", "--param", "m=1.0",
                         "--points", "5", "--seed", "7", "--format", "csv",
                         "--out", str(path))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_pointwise_commands_never_build_the_curvature_tensor(capsys, count_calls):
    # inspect, check conformal and check comparison read the component-first
    # passes only
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "gauduchon_curvature", "chern_curvature")
    code, out, _ = run(capsys, "inspect", "hopf", "--n", "3", "--t", "0,1",
                       "--golden", "--format", "csv")
    assert code == 0 and out.count("GOLDEN PASS") == 2
    code, out, _ = run(capsys, "check", "conformal", "--manifold", "hopf",
                       "--n", "3", "--t", "0,1")
    assert code == 0 and "conformal oracle max defect" in out
    code, out, _ = run(capsys, "check", "comparison", "--manifold", "hopf",
                       "--n", "3", "--t", "0,0.5,1")
    assert code == 0 and "comparison identity max defect" in out
    assert calls == []


def test_cli_import_leaves_the_forms_oracle_out():
    # forms is the exterior-algebra oracle of the tests; no module the CLI
    # loads imports it
    src = str(Path(hermcurv.__file__).resolve().parents[1])
    code = "import sys, hermcurv.cli; print('hermcurv.forms' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # a name left in a module's __all__ after its definition is gone breaks
    # `from hermcurv.<module> import *`
    for info in pkgutil.iter_modules(hermcurv.__path__):
        mod = importlib.import_module(f"hermcurv.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], info.name


def test_every_exported_name_is_defined_once_in_its_module():
    # a function or class exported by a module that only imports it, or by
    # two modules, is a stale export left behind when its definition moves
    owners = {}
    for info in pkgutil.iter_modules(hermcurv.__path__):
        mod = importlib.import_module(f"hermcurv.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert owners.setdefault(name, info.name) == info.name, name
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (info.name, name)


def _count_pipeline(count_calls):
    import hermcurv.jets as jets
    import hermcurv.manifolds as manifolds
    return (count_calls(manifolds.ModelManifold, "jet"),
            count_calls(manifolds, "factor_jet_from_expr"),
            count_calls(jets, "conformal_jet"), count_calls(jets, "inverse_and_det"))


def test_check_conformal_builds_each_jet_once(capsys, count_calls):
    # one base jet and one inversion per command; one factor jet, one
    # conformal jet and one inversion of it per factor, whatever the t list
    calls = _count_pipeline(count_calls)
    code, out, _ = run(capsys, "check", "conformal", "--manifold", "hopf",
                       "--n", "3", "--t", "0,1")
    assert code == 0 and "conformal oracle max defect" in out
    assert [len(c) for c in calls] == [1, 3, 3, 4]


def test_inspect_golden_reuses_the_jet(capsys, count_calls):
    jet_calls, _, _, inversions = _count_pipeline(count_calls)
    code, out, _ = run(capsys, "inspect", "hopf", "--n", "3", "--t", "0,1",
                       "--golden")
    assert code == 0 and out.count("GOLDEN PASS") == 2
    assert (len(jet_calls), len(inversions)) == (1, 1)


def test_conformal_check_makes_one_base_ricci_pass(count_calls):
    # one base pass shared by every factor and one direct pass per factor:
    # 4 for the three default factors, where a base pass per factor made 6
    import hermcurv.curvature as curvature
    from hermcurv.conformal import conformal_oracle_check
    from hermcurv.manifolds import builtin
    calls = count_calls(curvature, "ricci_forms")
    man = builtin("hopf", n=3)
    rows = conformal_oracle_check(man, cli.DEFAULT_FACTORS, [0.0, 1.0],
                                  man.sample_points(20, seed=0))
    assert len(rows) == 6 and max(row["max"] for row in rows) < 1e-7
    assert len(calls) == 4


def test_inspect_golden_reads_the_t0_rows_of_the_table(capsys, count_calls):
    # with 0 in --t the golden gate reads the table's t = 0 rows; without
    # it, it makes its own t = 0 pass; the golden lines are the same bytes
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "ricci_forms")
    lines = {}
    for ts, passes in (("0,1", 1), ("1,0", 1), ("0.5", 2)):
        del calls[:]
        code, out, _ = run(capsys, "inspect", "hopf", "--n", "3", "--t", ts,
                           "--golden")
        assert code == 0 and len(calls) == passes, ts
        lines[ts] = [line for line in out.splitlines() if line.startswith("GOLDEN")]
    assert len(lines["0,1"]) == 2
    assert lines["0,1"] == lines["1,0"] == lines["0.5"]


def test_check_comparison_builds_the_t_independent_work_once(capsys, count_calls):
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "ricci_forms", "torsion_traces")
    code, out, _ = run(capsys, "check", "comparison", "--manifold", "hopf",
                       "--n", "3", "--t", "0,0.5,1")
    assert code == 0 and "comparison identity max defect" in out
    assert sorted(calls) == ["ricci_forms", "torsion_traces"]


def test_checks_reject_an_empty_t_list(capsys):
    for what in ("conformal", "comparison"):
        for ts in ("", ","):
            code, out, err = run(capsys, "check", what, "--manifold", "hopf",
                                 "--t", ts)
            assert code == 2, (what, ts)
            assert "--t" in err and "max defect" not in out


def test_checks_reject_a_non_finite_t(capsys):
    for argv in (["inspect", "hopf", "--t", "0,nan"],
                 ["check", "comparison", "--manifold", "hopf", "--t", "inf"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "--t" in err and "max defect" not in out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_checks_fail_on_a_nan_defect(capsys):
    # t = 1e200 is finite, but overflows the curvature to NaN: the verdict
    # must see the NaN rather than drop it
    for what, ts in (("comparison", "1e200"), ("conformal", "0,1e200")):
        code, out, _ = run(capsys, "check", what, "--manifold", "hopf", "--t", ts)
        assert code == 3, what
        assert "max defect nan" in out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_inspect_refuses_a_non_finite_curvature(capsys):
    code, out, err = run(capsys, "inspect", "hopf", "--t", "0,1e200", "--points", "1")
    assert code == 2 and out == ""
    assert "not finite" in err and "t=1e+200" in err


@pytest.mark.parametrize("factor", ["1e400*re(z1)", "0*1e400", "1/0", "pow(2, 5000)",
                                    "pow(0, -1)"])
def test_factor_without_a_finite_value_is_a_precondition_error(capsys, factor):
    # an infinite literal, or a constant whose fold raises or overflows
    code, out, err = run(capsys, "check", "conformal", "--manifold", "hopf",
                         "--factor", factor, "--points", "2")
    assert code == 2 and out == ""
    assert err.startswith("precondition error:") and "finite" in err


@pytest.mark.parametrize("name,param", [("vaisman", "m=nan"), ("vaisman", "m=inf"),
                                        ("kaehler-bump", "eps=inf")])
def test_non_finite_param_is_refused_by_name(capsys, name, param):
    key, value = param.split("=")
    code, out, err = run(capsys, "inspect", name, "--param", param, "--points", "2")
    assert code == 2 and out == ""
    assert err == f"precondition error: --param {key} must be finite, got {value!r}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_manifest_param_is_refused_by_name(capsys, tmp_path, value):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "n": 2, "params": {"a": value},
                                "metric": "h[1][1] = 1 + a*abs2(z1)\nh[2][2] = 1"}))
    code, out, err = run(capsys, "inspect", str(path), "--points", "2")
    assert code == 2 and out == ""
    assert err == f"precondition error: manifest param a must be finite, got {value!r}\n"


@pytest.mark.parametrize("argv", [["m.json", "--points", "20"],
                                  ["vaisman", "--param", "m=1e308", "--points", "2"]],
                         ids=["manifest", "vaisman"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the DSL entries overflow silently
def test_non_finite_metric_coefficients_are_named(capsys, tmp_path, monkeypatch, argv):
    # exp(1000 x) overflows at some of the 20 points and underflows at others:
    # the overflow is named, not the indefinite h it leaves
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps({"name": "m", "n": 2, "metric": [
        "h[1][1] = exp(1000*re(z1))", "h[2][2] = 1"]}))
    code, out, err = run(capsys, "inspect", *argv)
    assert code == 2 and out == ""
    assert err == "precondition error: metric coefficients are not finite: max |h| is inf\n"


def test_an_overflowing_dsl_entry_prints_only_the_message():
    # numpy's overflow warnings from the DSL evaluation once came first on stderr
    src = str(Path(hermcurv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "hermcurv.cli", "inspect", "vaisman",
                          "--param", "m=1e308", "--points", "2"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert "RuntimeWarning" not in out.stderr
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "precondition error: metric coefficients are not finite: max |h| is inf\n")


def test_an_overflowing_conformal_factor_prints_only_the_message():
    # the factor's value was evaluated outside the DSL's silenced error state
    src = str(Path(hermcurv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "hermcurv.cli", "check", "conformal",
                          "--manifold", "hopf", "--n", "2", "--points", "50",
                          "--factor", "exp(exp(800*re(z1)))"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "precondition error: conformal factor out of range: "
               "e^(n f) det h is not a positive finite number\n")


def test_an_ill_conditioned_metric_is_refused_by_its_condition_bound(capsys, tmp_path):
    # diag(1e11, 1) is positive definite; the pivot floor refuses it because
    # its condition estimate exceeds 1 / PD_PIVOT_RTOL, and says so
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "n": 2, "metric": [
        "h[1][1] = 1e11", "h[2][2] = 1", "h[1][2] = 0"]}))
    code, out, err = run(capsys, "inspect", str(path), "--points", "2")
    assert code == 2 and out == ""
    assert err == ("precondition error: metric is not positive definite with condition "
                   "estimate at most 1e+10: LDL^H pivot below 1e-10 * max diagonal\n")


def test_an_overflowing_conformal_factor_is_named(capsys, recwarn):
    code, out, err = run(capsys, "check", "conformal", "--manifold", "hopf",
                         "--factor", "exp(1000*re(z1))", "--points", "2")
    assert code == 2 and out == ""
    assert err == ("precondition error: conformal factor out of range: "
                   "e^(n f) det h is not a positive finite number\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_every_factor_value_check_runs_before_the_oracle_pass(capsys):
    # the factor jets are evaluated before the blocked pass that builds the
    # jet of e^f h, so the second factor's value check fires first
    code, out, err = run(capsys, "check", "conformal", "--manifold", "hopf",
                         "--factor", "exp(1000*re(z1))", "--factor", "re(z1) + im(z2)*i",
                         "--points", "50")
    assert (code, out, err) == (2, "", "precondition error: conformal factor is not "
                                       "real-valued\n")


@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_rejects_an_unknown_param(capsys, name):
    code, out, err = run(capsys, "inspect", name, "--param", "zz=2", "--points", "2")
    assert code == 2
    assert "zz" in err and out == ""


@pytest.mark.parametrize("text,field", [
    ('"name n metric"', "JSON object"), ("123", "JSON object"), ("null", "JSON object"),
    ('{"name": ["x"], "n": 2, "metric": "h[1][1] = 1\\nh[2][2] = 1"}', "name"),
], ids=["string", "number", "null", "list-name"])
def test_manifest_must_be_an_object_with_a_string_name(capsys, tmp_path, text, field):
    # the first three once ran into a traceback; the list was printed as the name
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run(capsys, "inspect", str(path), "--points", "2")
    assert code == 2 and out == ""
    assert err.startswith("precondition error: manifest") and field in err


@pytest.mark.parametrize("tail", ["\nh[", "\nh[1]["])
def test_manifest_metric_cut_off_after_a_bracket(capsys, tmp_path, tail):
    # once an IndexError from the tokenizer's end
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "n": 2,
                                "metric": "h[1][1] = 1\nh[2][2] = 1" + tail}))
    code, out, err = run(capsys, "inspect", str(path), "--points", "2")
    assert code == 2 and out == ""
    assert err.startswith("precondition error:") and "line 3" in err


SUM_600 = " + ".join(["re(z1)*im(z2)"] * 600)


@pytest.mark.parametrize("where,text", [
    ("factor", SUM_600), ("manifest", SUM_600),
    ("factor", "(" * 250 + "re(z1)" + ")" * 250), ("manifest", "(" * 250 + "1" + ")" * 250),
], ids=["factor-sum", "manifest-sum", "factor-parentheses", "manifest-parentheses"])
def test_too_deep_an_expression_is_a_precondition_error(capsys, tmp_path, where, text):
    # each once ran out of Python's stack (RecursionError, exit 1)
    argv = ["check", "conformal", "--manifold", "hopf", "--points", "2", "--factor", text]
    if where == "manifest":
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "m", "n": 2,
                                    "metric": f"h[1][1] = 2 + {text}\nh[2][2] = 1"}))
        argv = ["inspect", str(path), "--points", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("precondition error:") and "nested" in err


def test_a_400_term_factor_stays_inside_the_nesting_bound(capsys):
    # with the deepest sum (418 levels) and sign chain (417) the bound
    # accepts: every pass over the factor, the compiled evaluation included,
    # fits in Python's stack (DECISIONS.md D16, D17)
    for factor in (" + ".join(["re(z1)*im(z2)/400"] * 400),
                   " + ".join(["re(z1)"] * 418), "-" * 417 + "re(z1)"):
        code, _, err = run(capsys, "check", "conformal", "--manifold", "hopf",
                           "--points", "2", f"--factor={factor}")
        assert code == 0, err


def test_an_unbound_factor_parameter_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "check", "conformal", "--manifold", "hopf", "--points", "3",
                         "--factor", "a*re(z1)")
    assert code == 2 and out == ""
    assert err == "precondition error: unbound parameter 'a'\n"


@pytest.mark.parametrize("name", ["lambda", "if", "True", "None"])
def test_a_parameter_may_bear_a_python_keyword(capsys, tmp_path, name):
    # --param binds builtin parameters only, so the manifest's params are how
    # such a name reaches the metric and a --factor
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "n": 2, "params": {name: 0.5},
                                "metric": f"h[1][1] = 1 + {name}*abs2(z1)\nh[2][2] = 1"}))
    code, out, err = run(capsys, "check", "conformal", "--manifold", str(path),
                         "--points", "2", "--factor", f"{name}*re(z1)")
    assert code == 0, err


def test_golden_gate_skips_a_manifest_named_like_a_builtin(capsys, tmp_path):
    # a flat manifest called "hopf" has no stored constants of its own
    doc = {"name": "hopf", "n": 2, "metric": "h[1][1] = 1\nh[2][2] = 1"}
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "inspect", str(path), "--points", "3", "--golden")
    assert code == 0
    assert "GOLDEN SKIP hopf" in out and "GOLDEN FAIL" not in out


def test_manifest_paths_reject_n_and_param(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat", "n": 2,
                                "metric": "h[1][1] = 1\nh[2][2] = 1"}))
    for extra in (["--param", "zz=2"], ["--n", "3"], ["--n", "2"]):
        code, out, err = run(capsys, "inspect", str(path), *extra)
        assert code == 2, extra
        assert "manifest" in err and out == ""
    code, _, _ = run(capsys, "inspect", str(path), "--points", "2")
    assert code == 0


def test_inspect_rejects_unknown_manifold(capsys):
    code, _, err = run(capsys, "inspect", "moebius")
    assert code == 2
    assert "precondition" in err


def test_check_conformal(capsys):
    code, out, _ = run(capsys, "check", "conformal", "--manifold", "hopf", "--points", "10",
                       "--t", "0,1")
    assert code == 0
    assert "max defect" in out


def test_check_comparison(capsys):
    code, out, _ = run(capsys, "check", "comparison", "--manifold", "hopf",
                       "--t", "0,0.5,1", "--tol", "1e-8", "--points", "25")
    assert code == 0


def test_check_duality_flat(capsys):
    code, out, _ = run(capsys, "check", "duality", "--manifold", "flat-torus", "--n", "2",
                       "--grid", "8", "--tol", "1e-9")
    assert code == 0


def test_check_modes_refuse_the_options_they_ignore(tmp_path, capsys):
    # comparison writes no report and duality samples no points: usage errors,
    # reported with the usage of the command that refuses the option
    out = tmp_path / "report.csv"
    for argv, usage in (
            (["check", "comparison", "--manifold", "hopf", "--out", str(out)],
             "usage: hermcurv check comparison "),
            (["check", "duality", "--manifold", "flat-torus", "--points", "3"],
             "usage: hermcurv check duality "),
            (["solve", "chern-negative", "--manifold", "pluriclosed-bump", "--bogus"],
             "usage: hermcurv solve ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(usage), (argv, err)
        assert f"unrecognized arguments: {argv[4]}" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
def test_tol_must_be_positive_and_finite(capsys, tol):
    # a NaN tol passed every gate and a negative one failed every solve: each
    # is a usage error of the command it follows
    for argv in (["solve", "bismut", "--manifold", "flat-torus", "--grid", "4"],
                 ["check", "conformal", "--manifold", "hopf", "--points", "1"],
                 ["check", "comparison", "--manifold", "hopf", "--points", "1"],
                 ["check", "duality", "--manifold", "flat-torus", "--grid", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and f"argument --tol: invalid tolerance value: '{tol}'" in err


def test_unwritable_paths_are_precondition_errors(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    for argv in (["inspect", "hopf", "--points", "2", "--out", str(missing / "r.txt")],
                 ["solve", "bismut", "--manifold", "flat-torus", "--grid", "4",
                  "--dump-solution", str(missing / "phi.csv")]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("precondition error: ") and str(missing) in err
        assert out == "", argv  # nothing is reported before the path fails
    assert not missing.exists()


def test_solve_zero_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "solve", "chern-zero", "--manifold", "kaehler-bump",
                       "--grid", "8", "--scheme", "spectral",
                       "--tol", "1e-6", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "schema: hermcurv-report-1" in text
    assert "input.problem: chern-zero" in text


def test_solve_negative_refuses_zero_degree(capsys):
    code, _, err = run(capsys, "solve", "chern-negative", "--manifold", "flat-torus",
                       "--n", "2", "--grid", "8")
    assert code == 2
    assert "degree" in err


def test_solve_reports_non_convergence_with_exit_3(capsys):
    # the fd2 zero-degree residual at N = 8 is above the default --tol
    code, out, err = run(capsys, "solve", "chern-zero", "--manifold", "kaehler-bump",
                         "--grid", "8")
    assert code == 3
    assert out == ""
    assert err.startswith("non-convergence: zero-degree residual l2")


REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


def test_solve_lambdas_match_the_benchmark_references(capsys):
    # the benchmark gate's rule: |lambda - ref| <= tol * max(1, |ref|)
    refs = json.loads(REFERENCES.read_text())
    assert refs
    for command, ref in refs.items():
        argv = command.split()
        code, out, err = run(capsys, *argv)
        assert code == 0, (command, err)
        got = float(re.search(r"lambda=(\S+)", out).group(1))
        tol = float(argv[argv.index("--tol") + 1])
        assert abs(got - ref) <= tol * max(1.0, abs(ref)), (command, got, ref)


def test_solve_negative_end_to_end(capsys, tmp_path):
    dump = tmp_path / "field.csv"
    code, out, _ = run(capsys, "solve", "chern-negative", "--manifold", "pluriclosed-bump",
                       "--grid", "8", "--tol", "1e-8",
                       "--dump-solution", str(dump))
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 8 ** 4 + 1
    # the dump is the reported solution F, not the continuity stage's f
    values = [float(line.split(",")[1]) for line in lines[1:]]
    for key, want in (("min", min(values)), ("max", max(values))):
        assert float(re.search(rf"solution\.{key}: (\S+)", out).group(1)) == want


def test_solve_negative_deterministic(capsys, tmp_path):
    # two identical solves write byte-identical reports and solutions
    reports = []
    for k in range(2):
        out_path = tmp_path / f"report{k}.txt"
        dump = tmp_path / f"field{k}.csv"
        code, _, _ = run(capsys, "solve", "chern-negative", "--manifold",
                         "pluriclosed-bump", "--grid", "8", "--out", str(out_path),
                         "--dump-solution", str(dump))
        assert code == 0
        reports.append((out_path.read_bytes(), dump.read_bytes()))
    assert reports[0] == reports[1]


def test_solve_bismut_deterministic(capsys, tmp_path):
    # two identical solves write byte-identical reports and solutions
    reports = []
    for k in range(2):
        out_path = tmp_path / f"report{k}.txt"
        dump = tmp_path / f"field{k}.csv"
        code, _, _ = run(capsys, "solve", "bismut", "--manifold", "kaehler-bump",
                         "--param", "eps=3e-5", "--grid", "8", "--scheme", "spectral",
                         "--out", str(out_path), "--dump-solution", str(dump))
        assert code == 0
        reports.append((out_path.read_bytes(), dump.read_bytes()))
    assert reports[0] == reports[1]


def test_spectral_report_does_not_depend_on_blas_threads(tmp_path):
    # the spectral derivatives are BLAS products: one and two threads must
    # write the same bytes
    src = str(Path(hermcurv.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out_path = tmp_path / f"report{threads}.txt"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "hermcurv.cli", "solve", "bismut",
                        "--manifold", "kaehler-bump", "--param", "eps=3e-5",
                        "--grid", "8", "--scheme", "spectral", "--out", str(out_path)],
                       capture_output=True, env=env, check=True)
        reports.append(out_path.read_bytes())
    assert reports[0] == reports[1]


def test_solves_never_parse_the_builtin_dsl_metric(capsys, monkeypatch):
    # the solves evaluate the closed-form jets only; the DSL source is
    # derived and parsed on first use, and here never
    def refuse(*args, **kwargs):
        raise AssertionError("parse_metric called")

    monkeypatch.setattr("hermcurv.manifolds.parse_metric", refuse)
    code, _, _ = run(capsys, "solve", "bismut", "--manifold", "kaehler-bump",
                     "--param", "eps=3e-5", "--grid", "8", "--scheme", "spectral")
    assert code == 0
    code, _, _ = run(capsys, "solve", "chern-negative", "--manifold",
                     "pluriclosed-bump", "--grid", "8")
    assert code == 0


def test_solve_bismut_flat(capsys):
    code, out, _ = run(capsys, "solve", "bismut", "--manifold", "flat-torus", "--n", "2",
                       "--grid", "8", "--tol", "1e-8")
    assert code == 0
    assert "lambda=0" in out


def test_solve_on_manifest(capsys, tmp_path):
    doc = {
        "name": "my-flat", "n": 2, "params": {},
        "metric": "h[1][1] = 1\nh[2][2] = 1",
        "domain": {"kind": "full", "periods": [1, 1, 1, 1]},
        "declared_gauduchon": True, "declared_balanced": True,
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", "chern-zero", "--manifold", str(path), "--grid", "8")
    assert code == 0


# manifest fields that replace the well-formed ones: the domain block, then
# the top-level fields
MALFORMED_MANIFESTS = {
    "zero-period": {"domain": {"kind": "full", "periods": [0, 1, 1, 1]}},
    "negative-period": {"domain": {"kind": "full", "periods": [-1, 1, 1, 1]}},
    "string-period": {"domain": {"kind": "full", "periods": ["1", 1, 1, 1]}},
    "scalar-periods": {"domain": {"kind": "full", "periods": 3}},
    "string-domain": {"domain": "full"},
    "axis-out-of-range": {"domain": {"kind": "halfplane", "punctured_axes": [5],
                                     "periods": [1, 1, 1, 1]}},
    "negative-axis": {"domain": {"kind": "halfplane", "punctured_axes": [-1],
                                 "periods": [1, 1, 1, 1]}},
    "fractional-n": {"n": 2.7},
    "string-n": {"n": "2"},
    "list-params": {"params": [1]},
    "numeric-metric": {"metric": 5},
    "string-flag": {"declared_gauduchon": "no"},
    "constant-without-value": {"metric": "h[1][1] = 1/0 + abs2(z1)\nh[2][2] = 1"},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_domain_is_a_precondition_error(capsys, tmp_path, case):
    # each of these once ran: a traceback, a nan defect, a torus with
    # negative volume, n = 2.7 read as 2, or the flag "no" read as true
    doc = {"name": "bad", "n": 2, "metric": "h[1][1] = 1\nh[2][2] = 1",
           "domain": {"kind": "full", "periods": [1, 1, 1, 1]},
           "declared_gauduchon": True, "declared_balanced": True,
           **MALFORMED_MANIFESTS[case]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["inspect", str(path), "--points", "2"],
                 ["solve", "chern-zero", "--manifold", str(path), "--grid", "8"],
                 ["solve", "chern-negative", "--manifold", str(path), "--grid", "8"],
                 ["solve", "bismut", "--manifold", str(path), "--grid", "8"],
                 ["check", "duality", "--manifold", str(path), "--grid", "8"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("precondition error:") and out == "", argv


@pytest.mark.parametrize("n", ["0", "1"])
@pytest.mark.parametrize("argv", [["inspect", "hopf", "--points", "2"],
                                  ["solve", "chern-zero", "--manifold", "flat-torus",
                                   "--grid", "8"]], ids=["inspect-hopf", "solve-flat"])
def test_dimension_below_two_is_a_precondition_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 2
    assert err.startswith("precondition error:") and "n >= 2" in err and out == ""


def test_grid_over_the_memory_budget_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "solve", "chern-zero", "--manifold", "flat-torus",
                         "--n", "3", "--grid", "12")
    assert code == 2
    assert err.startswith("precondition error:") and "memory budget" in err and out == ""


def test_solve_uses_the_manifest_periods(capsys, tmp_path):
    doc = {"name": "wide-flat", "n": 2, "metric": "h[1][1] = 1\nh[2][2] = 1",
           "domain": {"kind": "full", "periods": [2, 2, 2, 2]},
           "declared_gauduchon": True, "declared_balanced": True}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "bismut", "--manifold", str(path),
                         "--grid", "8")
    assert code == 0, err
    assert "bismut: lambda=" in out
