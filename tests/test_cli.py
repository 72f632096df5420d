import json

import pytest

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
    # inspect and check conformal read the batch-last Ricci pass only
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "gauduchon_curvature", "chern_curvature")
    code, out, _ = run(capsys, "inspect", "hopf", "--n", "3", "--t", "0,1",
                       "--golden", "--format", "csv")
    assert code == 0 and out.count("GOLDEN PASS") == 2
    code, out, _ = run(capsys, "check", "conformal", "--manifold", "hopf",
                       "--n", "3", "--t", "0,1")
    assert code == 0 and "conformal oracle max defect" in out
    assert calls == []


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


def test_check_comparison_builds_the_t_independent_work_once(capsys, count_calls):
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "chern_curvature", "torsion_traces")
    code, out, _ = run(capsys, "check", "comparison", "--manifold", "hopf",
                       "--n", "3", "--t", "0,0.5,1")
    assert code == 0 and "comparison identity max defect" in out
    assert sorted(calls) == ["chern_curvature", "torsion_traces"]


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


@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_rejects_an_unknown_param(capsys, name):
    code, out, err = run(capsys, "inspect", name, "--param", "zz=2", "--points", "2")
    assert code == 2
    assert "zz" in err and out == ""


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


def test_solve_negative_end_to_end(capsys, tmp_path):
    dump = tmp_path / "field.csv"
    code, out, _ = run(capsys, "solve", "chern-negative", "--manifold", "pluriclosed-bump",
                       "--grid", "8", "--tol", "1e-8",
                       "--dump-solution", str(dump))
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 8 ** 4 + 1


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
