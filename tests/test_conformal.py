import numpy as np

from hermcurv.conformal import conformal_oracle_check, transformed_ric34
from hermcurv.curvature import (CLASS_TOL, classify, gauduchon_curvature,
                                ricci_and_scalars, ricci_forms, torsion_traces)
from hermcurv.dsl import parse_expr
from hermcurv.jets import conformal_jet
from hermcurv.manifolds import builtin, conformal_manifold, factor_jet_from_expr

METRICS = [
    ("flat-torus", {}),
    ("hopf", {}),
    ("tricerri", {}),
    ("vaisman", {"m": 1.0}),
    ("pluriclosed-bump", {}),
]

FACTORS = [
    "re(z1)/4",
    "im(z2)*re(z2)/5",
    "log(1 + abs2(z1)/3)",
    "re(z1)*im(z1)/3 - re(z2)/6",
    "im(exp(i*re(z1)))/4",
]

TS = [0.0, 0.5, 1.0, -1.0]


def test_oracle_full_sweep():
    # 5 metrics x 5 factors x 20 points x 4 values of t, defect < 1e-7
    worst = 0.0
    for name, params in METRICS:
        man = builtin(name, **params)
        z = man.sample_points(20, seed=101)
        for d in conformal_oracle_check(man, FACTORS, TS, z):
            worst = max(worst, d["max"])
    assert worst < 1e-7, worst


def test_oracle_zero_factor_is_exact():
    man = builtin("hopf", n=2)
    z = man.sample_points(10, seed=7)
    d, = conformal_oracle_check(man, ["0"], [1.0], z)
    assert d["max"] < 1e-12


def test_constant_factor_scales_s2_and_fixes_ric3():
    man = builtin("tricerri")
    z = man.sample_points(15, seed=3)
    jet = man.jet(z)
    c = 0.8
    fj = factor_jet_from_expr(parse_expr(f"{c}", 2), z, 2)
    for t, out in zip(TS, transformed_ric34(jet, fj, ricci_forms(jet, TS))):
        base = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
        np.testing.assert_allclose(out.s2, np.exp(-c) * base.s2, rtol=1e-12)
        np.testing.assert_allclose(out.ric3, base.ric3, rtol=1e-12, atol=1e-14)


def test_chern_specialization_ric3_is_ric3_minus_hessian():
    # t = 0: Theta3(e^f w) = Theta3(w) - (dd f)-matrix
    man = builtin("elliptic")
    z = man.sample_points(15, seed=8)
    jet = man.jet(z)
    fj = factor_jet_from_expr(parse_expr("re(z1)/3", 2), z, 2)
    base = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    out, = transformed_ric34(jet, fj, ricci_forms(jet, [0.0]))
    np.testing.assert_allclose(out.ric3, base.ric3 - fj.ddf, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out.ric4, base.ric4 - fj.ddf, rtol=1e-12, atol=1e-14)


def test_pairing_term_vanishes_on_balanced_base():
    # balanced => del* omega = 0 so the <del* w, i dbar f> ingredient is zero;
    # the t-dependence of s2(e^f w) then has no torsion contribution
    man = builtin("kaehler-bump")
    z = man.sample_points(10, seed=4)
    jet = man.jet(z)
    fj = factor_jet_from_expr(parse_expr("re(z2)/4", 2), z, 2)
    d, = conformal_oracle_check(man, ["re(z2)/4"], [1.0], z)
    assert d["max"] < 1e-9
    from hermcurv.conformal import _factor_terms
    *_, kappa = _factor_terms(jet, fj, torsion_traces(jet).tau)
    assert np.max(np.abs(kappa)) < 1e-12


def test_ric3_ric4_conjugate_transpose_relation():
    # Ric4 = conj(Ric3)^T on the direct side: both forms of e^f omega come from
    # their own traces of one ricci_forms pass, and Ric3 is not Hermitian at
    # t != 1/2, so the check is not one form against itself (seen: <= 5e-16)
    man = builtin("pluriclosed-bump")
    z = man.sample_points(12, seed=9)
    fj = factor_jet_from_expr(parse_expr(FACTORS[3], 2), z, 2)
    for rf in ricci_forms(conformal_jet(man.jet(z), fj), TS):
        np.testing.assert_allclose(rf.ric4, np.conj(np.swapaxes(rf.ric3, 0, 1)),
                                   rtol=0, atol=1e-13)


def test_constant_factor_preserves_class_flags():
    for c in (0.7, -0.5):
        for name, params in (("hopf", {}), ("kaehler-bump", {}),
                             ("pluriclosed-bump", {})):
            man = builtin(name, **params)
            scaled = conformal_manifold(man, f"{c}")
            pts = man.sample_points(15, seed=11)
            r0 = classify(man, pts)
            r1 = classify(scaled, pts)
            for key in r0:
                assert (r0[key] < CLASS_TOL) == (r1[key] < CLASS_TOL), (name, key)


def test_nonconstant_factor_breaks_gauduchon():
    man = builtin("pluriclosed-bump")
    bent = conformal_manifold(man, "re(z1)*re(z1)")
    # the chart sampling stays valid; Gauduchon residual must become visible
    pts = man.sample_points(15, seed=13)
    res = classify(bent, pts)
    assert not res["gauduchon"] < CLASS_TOL
    assert res["gauduchon"] > 1e-3


def test_conformal_jet_matches_the_unfused_expression():
    # conformal_jet sums its four ddh terms in place, in the order of this sum
    man = builtin("pluriclosed-bump")
    z = man.sample_points(16, seed=31)
    jet = man.jet(z)
    fj = factor_jet_from_expr(parse_expr("log(1 + abs2(z1)/3) - re(z2)/6", 2), z, 2)
    ef = np.exp(fj.f)
    h, dh, ddh, df, ddf = jet.h, jet.dh, jet.ddh, fj.df, fj.ddf
    dbarh = np.conj(np.swapaxes(dh, 1, 2))
    term0 = (ddf[:, :, None, None]
             + df[:, None, None, None] * np.conj(df)[None, :, None, None]) \
        * h[None, None, :, :]
    term1 = np.conj(df)[None, :, None, None] * dh[:, None, :, :]
    term2 = df[:, None, None, None] * dbarh[None, :, :, :]
    want = ef * (term0 + term1 + term2 + ddh)
    got = conformal_jet(jet, fj)
    assert np.array_equal(got.ddh, want)
    assert np.array_equal(got.h, ef * h)


def test_oracle_via_symbolic_manifold_route():
    # conformal_manifold (symbolic e^f h) agrees with the jet-level transform
    man = builtin("tricerri")
    f = "re(z1)/5 + im(z2)/7"
    bent = conformal_manifold(man, f)
    z = man.sample_points(10, seed=15)
    jet_sym = bent.jet(z)
    fj = factor_jet_from_expr(parse_expr(f, 2), z, 2)
    jet_num = conformal_jet(man.jet(z), fj)
    np.testing.assert_allclose(jet_sym.h, jet_num.h, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(jet_sym.dh, jet_num.dh, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(jet_sym.ddh, jet_num.ddh, rtol=1e-10, atol=1e-11)
