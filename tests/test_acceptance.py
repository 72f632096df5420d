"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE PASS/FAIL <id>` line.  The surface golden
constants are the exact values of the symbolic oracle in
tests/test_curvature.py; DECISIONS.md records their derivation.
"""

import time

import numpy as np
import pytest

from hermcurv.cli import main as cli_main
from hermcurv.conformal import conformal_oracle_check
from hermcurv.curvature import (CLASS_TOL, classify, del_del_star, einstein_residual,
                                gauduchon_curvature, report_matrix,
                                ricci_and_scalars, scalar_comparison_defect,
                                scalar_via_identity)
from hermcurv.grid import gauduchon_degrees, laplacian_duality_defect
from hermcurv.manifolds import builtin, _TrigSum
from hermcurv.solvers import (bismut_yamabe_minimize, continuity_solve,
                              solve_chern_zero)

from conftest import analytic_laplacian, make_gm, trig_values

GOLDEN_TOL = 1e-8


def report(crit: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {crit}" +
          (f": {detail}" if detail else ""))
    assert ok, f"{crit}: {detail}"


def scalars_at(name, count=100, t=0.0, seed=2024, **params):
    man = builtin(name, **params)
    z = man.sample_points(count, seed=seed)
    jet = man.jet(z)
    ric = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
    return man, z, jet, ric


# -- criterion 1: golden pointwise values (tolerance 1e-8, < 1 s each) --------

def test_golden_hopf_n2():
    t0 = time.perf_counter()
    man, z, jet, ric = scalars_at("hopf", count=100)
    ok = (np.max(np.abs(ric.s1 - 0.5)) < GOLDEN_TOL
          and np.max(np.abs(ric.s2 - 0.25)) < GOLDEN_TOL)
    ok = ok and np.max(np.abs(ric.ric2 - 0.25 * jet.h)) < GOLDEN_TOL
    r = np.sum(np.abs(z) ** 2, axis=-1)
    want = (np.eye(2)[:, :, None] * r
            - np.einsum("pi,pj->ijp", z, np.conj(z))) / r ** 2
    ok = ok and np.max(np.abs(report_matrix(ric.ric3) - want)) < GOLDEN_TOL
    ok = ok and np.max(np.abs(report_matrix(ric.ric4) - want)) < GOLDEN_TOL
    dt = time.perf_counter() - t0
    report("1.hopf-n2", ok and dt < 1.0,
           f"s1=1/2 s2=1/4, Theta2=(1/4)omega, Theta34 matrix at 100 pts "
           f"({dt:.2f}s)")


def test_golden_hopf_n3():
    t0 = time.perf_counter()
    _, _, _, ric = scalars_at("hopf", count=100, n=3)
    ok = (np.max(np.abs(ric.s1 - 1.5)) < GOLDEN_TOL
          and np.max(np.abs(ric.s2 - 0.5)) < GOLDEN_TOL)
    report("1.hopf-n3", ok and time.perf_counter() - t0 < 1.0,
           "s1=3/2 s2=1/2")


def test_golden_elliptic_surface():
    t0 = time.perf_counter()
    man, z, jet, ric = scalars_at("elliptic", count=100)
    dev_s1 = float(np.max(np.abs(ric.s1 - (-0.5))))
    dev_s2 = float(np.max(np.abs(ric.s2 - (-0.75))))
    y = z[:, 0].imag
    dev_t3 = float(np.max(np.abs(ric.ric3[0, 0] - (-0.75 / y ** 2))))
    ok = max(dev_s1, dev_s2, dev_t3) < GOLDEN_TOL
    report("1.elliptic", ok and time.perf_counter() - t0 < 1.0,
           f"s1 dev {dev_s1:.2e}; s2=-3/4 dev {dev_s2:.2e}; "
           f"Theta3 coeff -3/(4y^2) dev {dev_t3:.2e}")


def test_golden_inoue_s1():
    t0 = time.perf_counter()
    man, z, jet, ric = scalars_at("tricerri", count=100)
    dev_s1 = float(np.max(np.abs(ric.s1 - (-0.25))))
    dev_s2 = float(np.max(np.abs(ric.s2 - (-0.5))))
    y = z[:, 0].imag
    dev_dd = float(np.max(np.abs(del_del_star(jet)[0, 0] - 0.25 / y ** 2)))
    ok = max(dev_s1, dev_s2, dev_dd) < GOLDEN_TOL
    report("1.inoue-s1", ok and time.perf_counter() - t0 < 1.0,
           f"s1 dev {dev_s1:.2e}; s2=-1/2 dev {dev_s2:.2e}; "
           f"dd* coeff 1/(4y^2) dev {dev_dd:.2e}")


@pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
def test_golden_inoue_s2(m):
    t0 = time.perf_counter()
    _, _, _, ric = scalars_at("vaisman", count=100, m=m)
    dev_s1 = float(np.max(np.abs(ric.s1 - (-0.5))))
    want_s2 = -(3.0 + m * m) / 4.0
    dev_s2 = float(np.max(np.abs(ric.s2 - want_s2)))
    ok = max(dev_s1, dev_s2) < GOLDEN_TOL
    report(f"1.inoue-s2[m={m:g}]", ok and time.perf_counter() - t0 < 1.0,
           f"s1 dev {dev_s1:.2e}; s2={want_s2:g} dev {dev_s2:.2e}")


# -- criterion 2: identity suites ------------------------------------------------

CONFORMAL_METRICS = [("flat-torus", {}), ("hopf", {}), ("tricerri", {}),
                     ("vaisman", {"m": 1.0}), ("pluriclosed-bump", {})]
CONFORMAL_FACTORS = ["re(z1)/4", "im(z2)*re(z2)/5", "log(1 + abs2(z1)/3)",
                     "re(z1)*im(z1)/3 - re(z2)/6", "im(exp(i*re(z1)))/4"]


def test_conformal_oracle_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in CONFORMAL_METRICS:
        man = builtin(name, **params)
        z = man.sample_points(20, seed=404)
        for d in conformal_oracle_check(man, CONFORMAL_FACTORS, (0.0, 0.5, 1.0, -1.0), z):
            worst = max(worst, d["max"])
    dt = time.perf_counter() - t0
    report("2.conformal-oracle", worst < 1e-7 and dt < 30.0,
           f"max defect {worst:.3e} over 5x5x20x4 ({dt:.1f}s)")


def test_comparison_identity_suite():
    worst = 0.0
    for name, params in (("flat-torus", {}), ("hopf", {}), ("hopf", {"n": 3}),
                         ("elliptic", {}), ("tricerri", {}),
                         ("vaisman", {"m": 1.0}), ("kaehler-bump", {}),
                         ("pluriclosed-bump", {})):
        man = builtin(name, **params)
        z = man.sample_points(40, seed=11)
        jet = man.jet(z)
        for defect in scalar_comparison_defect(jet, [-1.0, 0.0, 0.3, 1.0, 2.0]):
            worst = max(worst, float(np.max(np.abs(defect))))
    report("2.comparison-identity", worst < 1e-8, f"max defect {worst:.3e}")


def test_two_path_scalars_suite():
    worst = 0.0
    for name, params in CONFORMAL_METRICS + [("elliptic", {}),
                                             ("kaehler-bump", {})]:
        man = builtin(name, **params)
        z = man.sample_points(50, seed=13)
        jet = man.jet(z)
        for t in (-1.0, 0.0, 0.3, 1.0, 2.0):
            ric = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
            s1, s2 = scalar_via_identity(jet, t)
            worst = max(worst, float(np.max(np.abs(ric.s1 - s1))),
                        float(np.max(np.abs(ric.s2 - s2))))
    report("2.two-path-scalars", worst < 1e-7, f"max defect {worst:.3e}")


def test_duality_order():
    defects = []
    for N in (8, 16, 32):
        gm = make_gm("pluriclosed-bump", N)
        x = gm.grid.points()
        u = (np.sin(2 * np.pi * x[..., 0].real)
             * np.sin(2 * np.pi * x[..., 0].imag)
             + 0.3 * np.cos(2 * np.pi * x[..., 1].real))
        defects.append(laplacian_duality_defect(gm, u))
    orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
    report("2.laplacian-duality", min(orders) >= 1.8,
           f"defects {['%.2e' % d for d in defects]}, orders "
           f"{['%.2f' % o for o in orders]}")


# -- criterion 3: solver criteria (n=2 torus, N=16, < 120 s each) ----------------

def test_solver_manufactured_zero_order():
    t0 = time.perf_counter()
    trig = _TrigSum([(0.1, (1, 0), (0, 0), 0.0), (0.07, (0, 1), (1, 0), 0.4)])
    errs = []
    from hermcurv.solvers import _LaplacianOp, lstsq_mean_zero
    for N in (8, 16, 32):
        gm = make_gm("kaehler-bump", N)
        fstar = trig_values(gm, trig)
        f, _ = lstsq_mean_zero(_LaplacianOp(gm), analytic_laplacian(gm, trig))
        errs.append(np.max(np.abs((f - f.mean()) - (fstar - fstar.mean()))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    dt = time.perf_counter() - t0
    report("3.zero-manufactured", min(orders) >= 1.8 and dt < 120,
           f"L-inf errors {['%.2e' % e for e in errs]}, orders "
           f"{['%.2f' % o for o in orders]} ({dt:.0f}s)")


def test_solver_manufactured_negative():
    t0 = time.perf_counter()
    lam = -2.0
    trig = _TrigSum([(0.02, (1, 0), (0, 0), 0.0), (0.01, (0, 0), (1, 1), 0.7)])
    gm = make_gm("kaehler-bump", 16)
    fstar = trig_values(gm, trig) + 0.045
    rhs = analytic_laplacian(gm, trig) + lam * np.exp(fstar)
    _, trace = continuity_solve(gm, rhs, lam)  # a-priori bound checked inside
    a_end = trace[-1][0]
    resid = trace[-1][2]
    dt = time.perf_counter() - t0
    ok = a_end == 1.0 and resid < 1e-8 and dt < 120
    report("3.negative-manufactured", ok,
           f"a={a_end}, residual {resid:.2e}, bound held ({dt:.0f}s)")


def test_solver_negative_end_to_end():
    t0 = time.perf_counter()
    gm = make_gm("pluriclosed-bump", 16)
    g1, g2 = gauduchon_degrees(gm)
    from hermcurv.solvers import solve_chern_negative
    rep = solve_chern_negative(gm)
    lam_indep = g2 / gm.volume()
    rel = abs(rep.lam - lam_indep) / abs(lam_indep)
    sup = rep.extras["sup_dev_from_lam"] / abs(lam_indep)
    dt = time.perf_counter() - t0
    ok = rel < 1e-3 and sup < 1e-3 and rep.path_trace[-1][0] == 1.0 and dt < 120
    report("3.negative-end-to-end", ok,
           f"achieved lambda {rep.lam:.6g} vs quadrature {lam_indep:.6g} "
           f"(rel {rel:.1e}), field sup-dev {sup:.1e} ({dt:.0f}s)")


def test_solver_bismut():
    t0 = time.perf_counter()
    gm_flat = make_gm("flat-torus", 16)
    rep_flat = bismut_yamabe_minimize(gm_flat)
    phi = rep_flat.solution.values
    flat_ok = (abs(rep_flat.extras["mu"]) < 1e-8
               and phi.max() - phi.min() < 1e-8)
    gm = make_gm("kaehler-bump", 16, scheme="spectral", eps=3e-5)
    rep = bismut_yamabe_minimize(gm)
    el_ok = rep.residual_l2 < 1e-6
    mu = rep.extras["mu"]
    bounds_ok = (mu <= rep.extras["mu_upper_exact"] + 1e-8
                 and mu >= rep.extras["mu_lower"] - 1e-8)
    zero = solve_chern_zero(gm)
    fb = rep.extras["f"].values
    fc = zero.solution.values
    agree = float(np.max(np.abs((fb - fb.mean()) - (fc - fc.mean()))))
    dt = time.perf_counter() - t0
    ok = flat_ok and el_ok and bounds_ok and agree < 1e-3 and dt < 120
    report("3.bismut-minimizer", ok,
           f"flat mu={rep_flat.extras['mu']:.1e} const phi; bump EL "
           f"{rep.residual_l2:.1e}, mu {mu:.3e} within bounds, f-agreement "
           f"{agree:.1e} ({dt:.0f}s)")


# -- criterion 4: negative controls ------------------------------------------------

def test_negative_controls_classify():
    worst = np.inf
    for name, params in (("hopf", {}), ("tricerri", {}), ("vaisman", {"m": 1.0})):
        man = builtin(name, **params)
        res = classify(man, man.sample_points(40, seed=3))
        worst = min(worst, res["kahler"])
        assert not res["kahler"] < CLASS_TOL
    report("4.classify-rejects-kahler", worst > 0.1,
           f"min kahler residual {worst:.3f} > 0.1")


def test_negative_control_einstein():
    man = builtin("tricerri")
    z = man.sample_points(40, seed=4)
    rep = einstein_residual(man.jet(z))
    lo = float(np.min(rep.residual))
    report("4.einstein-residual-positive", lo > 1e-3,
           f"min residual {lo:.3e} strictly positive")


def test_negative_control_exit_code():
    code = cli_main(["solve", "chern-negative", "--manifold", "flat-torus", "--n", "2",
                     "--grid", "8"])
    report("4.refuse-nonnegative-degree", code == 2,
           f"CLI exit code {code} == 2")
