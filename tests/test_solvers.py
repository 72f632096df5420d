import time

import numpy as np
import pytest

from hermcurv.grid import GridMetric, TorusGrid, gauduchon_degrees
from hermcurv.manifolds import builtin, conformal_manifold, _TrigSum
from hermcurv.solvers import (ConvergenceError, PreconditionError, SolverReport,
                              YamabeConstants, _check_apriori_bound,
                              bismut_yamabe_minimize, continuity_solve,
                              lozenge_constancy_check, normalize_to_negative,
                              solve_chern_negative, solve_chern_zero)

from conftest import make_gm


def analytic_laplacian(gm, trig):
    z = gm.grid.points()
    out = np.zeros(gm.grid.shape, complex)
    for i in range(gm.n):
        for j in range(gm.n):
            out += gm.ginv[..., i, j] * trig.deriv(z, (i,), (j,))
    return out.real


MMS_FIELD = _TrigSum([(0.1, (1, 0), (0, 0), 0.0), (0.07, (0, 1), (1, 0), 0.4)])


def test_yamabe_constants():
    yc = YamabeConstants(2)
    assert yc.N1 == pytest.approx(1 / 3)
    assert yc.N2 == pytest.approx(3.0)
    assert yc.N2 < 2 * 2 / (2 - 1)
    yc3 = YamabeConstants(3)
    assert yc3.N2 < 2 * 3 / (3 - 1)
    with pytest.raises(PreconditionError):
        yc.check_exponent(2.0)
    with pytest.raises(PreconditionError):
        yc.check_exponent(4.0)


@pytest.mark.parametrize("n, N, scheme", [(2, 8, "fd2"), (2, 8, "spectral"),
                                           (3, 4, "fd2")])
def test_flat_preconditioner_inverts_the_flat_operator(n, N, scheme):
    # constant coefficients: the flat symbol is the operator's own symbol
    from hermcurv.solvers import _LaplacianOp
    op = _LaplacianOp(make_gm("flat-torus", N=N, scheme=scheme, n=n))
    f = np.random.default_rng(6).normal(size=op.grid.shape)
    lap_f = op.apply(f)
    normal_f = op.apply_transpose(lap_f)
    for _ in range(2):  # a second round reads the cached inverse symbols
        np.testing.assert_allclose(op.precondition(lap_f), f - np.mean(f),
                                   atol=1e-12)
        np.testing.assert_allclose(op.precondition(lap_f - 0.7 * f, shift=-0.7),
                                   f, atol=1e-12)
        np.testing.assert_allclose(op.precondition(normal_f, power=2),
                                   f - np.mean(f), atol=1e-12)


def test_preconditioner_matches_a_full_spectrum_reference():
    # the half-spectrum apply against complex fftn/ifftn on the full grid,
    # on a metric whose mean coefficients differ from the flat ones
    from hermcurv.solvers import _LaplacianOp
    gm = make_gm("pluriclosed-bump", N=8)
    op = _LaplacianOp(gm)
    grid = gm.grid
    sym = np.zeros(grid.shape)
    for t in (t for t in gm.laplacian_terms if t.i == t.j):
        for a in (2 * t.i, 2 * t.i + 1):
            shape = [1] * len(grid.shape)
            shape[a] = grid.N
            sym = sym + np.mean(t.coef) * grid.d2_symbol(a).reshape(shape)
    r = np.random.default_rng(7).normal(size=grid.shape)
    for shift, power in ((0.0, 1), (-0.7, 1), (0.0, 2), (-0.7, 1)):
        s = sym + shift
        bad = np.abs(s) < 1e-14
        rh = np.fft.fftn(r) / np.where(bad, 1.0, s) ** power
        want = np.fft.ifftn(np.where(bad, 0.0, rh)).real
        got = op.precondition(r, shift=shift, power=power)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


# -- zero-degree case ----------------------------------------------------------

def test_zero_case_flat_is_trivial():
    gm = make_gm("flat-torus", 8)
    rep = solve_chern_zero(gm)
    assert np.max(np.abs(rep.solution.values)) < 1e-12
    assert rep.residual_l2 < 1e-12


def test_zero_case_manufactured_order():
    errs = []
    for N in (8, 16, 32):
        gm = make_gm("kaehler-bump", N)
        from hermcurv.solvers import _LaplacianOp, lstsq_mean_zero
        z = gm.grid.points()
        fstar = MMS_FIELD.deriv(z, (), ()).real
        rhs = analytic_laplacian(gm, MMS_FIELD)
        op = _LaplacianOp(gm)
        f, _ = lstsq_mean_zero(op, rhs)
        errs.append(np.max(np.abs((f - f.mean()) - (fstar - fstar.mean()))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8, (errs, orders)


def test_zero_case_end_to_end_constancy():
    gm = make_gm("kaehler-bump", 16)
    rep = solve_chern_zero(gm)
    # transformed curvature field is constant (zero) within 1e-4 at N = 16
    assert rep.extras["sup_dev_from_zero"] < 1e-4
    gm_s = make_gm("kaehler-bump", 16, scheme="spectral")
    rep_s = solve_chern_zero(gm_s, resid_tol=1e-6)
    assert rep_s.residual_l2 < 1e-10


def test_zero_case_rejects_nonzero_degree():
    gm = make_gm("pluriclosed-bump", 8)
    with pytest.raises(PreconditionError, match="degree"):
        solve_chern_zero(gm)


# -- negative-degree case --------------------------------------------------------

def test_normalize_to_negative():
    gm = make_gm("pluriclosed-bump", 16)
    u, gm_neg, lam = normalize_to_negative(gm)
    assert lam < 0
    s_neg = gm_neg.scalar_fields()["s_c2"]
    assert np.max(s_neg) < 0  # pointwise negative on every node
    # curvature of e^u omega follows e^{-u} lam up to discretization
    np.testing.assert_allclose(s_neg, lam * np.exp(-u.values), atol=5e-3)


def test_normalize_rejects_zero_degree():
    gm = make_gm("flat-torus", 8)
    with pytest.raises(PreconditionError, match="not negative"):
        normalize_to_negative(gm)


def test_chern_solvers_reject_non_gauduchon_input():
    # a conformal change of a Gauduchon metric is not Gauduchon
    base = builtin("pluriclosed-bump")
    bent = conformal_manifold(base, "re(exp(i*(6.283185307179586*re(z1))))/3")
    bent.periods = base.periods
    gm = GridMetric.from_manifold(bent, TorusGrid(n=2, N=8))
    with pytest.raises(PreconditionError, match="Gauduchon residual"):
        solve_chern_zero(gm)
    with pytest.raises(PreconditionError, match="Gauduchon residual"):
        normalize_to_negative(gm)


def test_negative_rejects_nonnegative_degree():
    gm = make_gm("kaehler-bump", 8)
    with pytest.raises(PreconditionError):
        solve_chern_negative(gm)


MMS_NEG = _TrigSum([(0.02, (1, 0), (0, 0), 0.0), (0.01, (0, 0), (1, 1), 0.7)])
LAM_NEG = -2.0


def manufactured_negative(gm):
    z = gm.grid.points()
    fstar = MMS_NEG.deriv(z, (), ()).real + 0.045
    assert fstar.min() > 0.01
    rhs = analytic_laplacian(gm, MMS_NEG) + LAM_NEG * np.exp(fstar)
    return fstar, rhs


def test_continuity_manufactured_order_and_path():
    errs = []
    for N in (8, 16, 32):
        gm = make_gm("kaehler-bump", N)
        fstar, rhs = manufactured_negative(gm)
        f, trace = continuity_solve(gm, rhs, LAM_NEG)
        assert trace[-1][0] == 1.0
        assert trace[-1][2] < 1e-8  # final Newton residual, grid norm
        errs.append(np.max(np.abs(f - fstar)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8, (errs, orders)


def test_continuity_uniqueness_two_inits():
    gm = make_gm("kaehler-bump", 8)
    fstar, rhs = manufactured_negative(gm)
    f1, _ = continuity_solve(gm, rhs, LAM_NEG)
    rng = np.random.default_rng(0)
    f2, _ = continuity_solve(gm, rhs, LAM_NEG,
                             f0=0.01 * rng.normal(size=gm.grid.shape),
                             check_bound=False)
    assert np.max(np.abs(f1 - f2)) < 1e-6


def test_continuity_requires_negative_lam():
    gm = make_gm("kaehler-bump", 8)
    _, rhs = manufactured_negative(gm)
    with pytest.raises(PreconditionError):
        continuity_solve(gm, rhs, +1.0)


def test_apriori_bound_checker():
    s = -np.ones((4, 4))
    _check_apriori_bound(np.full((4, 4), 0.1), s, -2.0)
    with pytest.raises(ConvergenceError, match="a-priori"):
        _check_apriori_bound(np.full((4, 4), -0.5), s, -2.0)
    with pytest.raises(ConvergenceError, match="a-priori"):
        _check_apriori_bound(np.full((4, 4), 3.0), s, -2.0)


def test_negative_end_to_end():
    gm = make_gm("pluriclosed-bump", 16)
    g1, g2, _ = gauduchon_degrees(gm)
    t0 = time.perf_counter()
    rep = solve_chern_negative(gm)
    wall = time.perf_counter() - t0
    assert rep.path_trace[-1][0] == 1.0
    assert rep.residual_linf < 1e-8
    lam_indep = g2 / gm.volume()
    assert abs(rep.lam - lam_indep) / abs(lam_indep) < 1e-12
    assert rep.extras["sup_dev_from_lam"] / abs(lam_indep) < 1e-3
    assert isinstance(rep, SolverReport) and wall < 120


# -- Bismut-Yamabe ---------------------------------------------------------------

def test_bismut_flat_torus():
    gm = make_gm("flat-torus", 12)
    rep = bismut_yamabe_minimize(gm)
    phi = rep.solution.values
    assert abs(rep.extras["mu"]) < 1e-8
    assert phi.max() - phi.min() < 1e-10
    assert rep.extras["min_phi"] > 0
    assert rep.extras["constraint_defect"] < 1e-10


def test_bismut_flat_torus_evaluates_the_objective_once(count_calls):
    # a constant phi is already the minimizer: one energy evaluation serves
    # the start, mu, its upper bound and the polish
    import hermcurv.solvers as solvers_mod
    calls = count_calls(solvers_mod, "_grad_energy_norm")
    bismut_yamabe_minimize(make_gm("flat-torus", 12))
    assert len(calls) == 1


def test_bismut_rejects_unbalanced():
    gm = make_gm("pluriclosed-bump", 8)
    with pytest.raises(PreconditionError, match="balanced"):
        bismut_yamabe_minimize(gm)


def test_bismut_kaehler_bump():
    gm = make_gm("kaehler-bump", 16, scheme="spectral", eps=3e-5)
    rep = bismut_yamabe_minimize(gm)
    assert rep.residual_l2 < 1e-6
    mu = rep.extras["mu"]
    assert mu <= rep.extras["mu_upper_exact"] + 1e-8
    assert mu >= rep.extras["mu_lower"] - 1e-8
    assert rep.extras["min_phi"] > 0
    # descent invariant: energy non-increasing along accepted steps
    energies = [e for _, e, _ in rep.energy_trace]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    defects = [d for _, _, d in rep.energy_trace[1:]]
    assert max(defects) < 1e-10
    # cross-solver agreement at tiny amplitude (common Kaehler base)
    zero = solve_chern_zero(gm)
    fb = rep.extras["f"].values
    fc = zero.solution.values
    diff = np.max(np.abs((fb - fb.mean()) - (fc - fc.mean())))
    assert diff < 1e-3
    assert rep.extras["sup_dev_from_mu"] < 1e-8


def test_bismut_larger_amplitude_still_converges():
    gm = make_gm("kaehler-bump", 12, scheme="spectral", eps=2e-3)
    rep = bismut_yamabe_minimize(gm)
    assert rep.residual_l2 < 1e-8
    assert rep.extras["mu"] < 0  # variable curvature pulls the infimum below 0


# -- constancy check ---------------------------------------------------------------

def test_lozenge_flat():
    gm = make_gm("flat-torus", 8)
    out = lozenge_constancy_check(gm)
    assert out["constant_asserted"]
    assert out["lozenge_sup"] == 0.0
    assert out["s_c2_variance"] == 0.0


def test_lozenge_negative_control():
    gm = make_gm("kaehler-bump", 8)
    out = lozenge_constancy_check(gm)
    assert out["einstein_residual_max"] > 0.1
    assert not out["constant_asserted"]
    assert out["s_c2_variance"] > 1e-3


def test_lozenge_precondition():
    base = builtin("pluriclosed-bump")
    bent = conformal_manifold(base, "re(exp(i*(6.283185307179586*re(z1))))/3")
    bent.periods = base.periods
    gm = GridMetric.from_manifold(bent, TorusGrid(n=2, N=8))
    with pytest.raises(PreconditionError, match="pluriclosed"):
        lozenge_constancy_check(gm)


def test_lozenge_of_constant_field_is_zero():
    gm = make_gm("pluriclosed-bump", 8)
    from hermcurv.grid import complex_laplacian, dz
    f = np.full(gm.grid.shape, 1.7)
    lap = complex_laplacian(gm, f)
    assert np.max(np.abs(lap)) < 1e-12
    tau = gm.tau()
    pair = np.zeros(gm.grid.shape)
    for i in range(gm.n):
        dfi = dz(f, i, gm.grid)
        for j in range(gm.n):
            pair += (gm.ginv[..., i, j] * dfi * np.conj(tau[..., j])).real
    assert np.max(np.abs(gm.n * lap + 2 * pair)) < 1e-12
