import time
import tracemalloc

import numpy as np
import pytest

from hermcurv.conformal import transformed_ric34
from hermcurv.curvature import ricci_forms
from hermcurv.grid import (GridMetric, TorusGrid, complex_laplacian, dz,
                           factor_jet_from_field, gauduchon_degrees)
from hermcurv.manifolds import builtin, conformal_manifold, _TrigSum
from hermcurv.solvers import (PGD_MAX, ConvergenceError, PreconditionError,
                              SolverReport, _check_apriori_bound, _conformal_s2,
                              _LaplacianOp, _grad_energy_norm,
                              bicgstab, bismut_yamabe_minimize, continuity_solve,
                              lozenge_constancy_check, normalize_to_negative,
                              solve_chern_negative, solve_chern_zero)

from conftest import analytic_laplacian, make_gm, trig_values


MMS_FIELD = _TrigSum([(0.1, (1, 0), (0, 0), 0.0), (0.07, (0, 1), (1, 0), 0.4)])


def test_yamabe_constants():
    # the constants the minimizer reports: N1(2) = 1/3, N2(2) = 3, N2(3) = 21/8
    for n, n1, n2 in ((2, 1 / 3, 3.0), (3, 8 / 25, 21 / 8)):
        extras = bismut_yamabe_minimize(make_gm("flat-torus", 4, n=n)).extras
        assert extras["N1"] == pytest.approx(n1)
        assert extras["N2"] == pytest.approx(n2) and extras["q"] == extras["N2"]
    # so the exponent q = N2 always lies inside (2, 2n/(n-1))
    for n in range(2, 13):
        n2 = 2 + (2 * n - 1) / (n ** 2 - 1)
        assert 2 < n2 < 2 * n / (n - 1)


@pytest.mark.parametrize("n, N, scheme", [(2, 8, "fd2"), (2, 8, "spectral"),
                                           (3, 4, "fd2")])
def test_flat_preconditioner_inverts_the_flat_operator(n, N, scheme):
    # constant coefficients: the flat symbol is the operator's own symbol
    from hermcurv.solvers import _LaplacianOp
    op = _LaplacianOp(make_gm("flat-torus", N=N, scheme=scheme, n=n))
    f = np.random.default_rng(6).normal(size=op.grid.shape)
    lap_f = complex_laplacian(op.gm, f)
    normal_f = op.apply_transpose(lap_f)
    for _ in range(2):  # a second round reads the cached inverse symbols
        np.testing.assert_allclose(op.precondition(lap_f), f - np.mean(f),
                                   atol=1e-12)
        np.testing.assert_allclose(op.precondition(lap_f - 0.7 * f, shift=-0.7),
                                   f, atol=1e-12)
        np.testing.assert_allclose(op.precondition(normal_f, power=2),
                                   f - np.mean(f), atol=1e-12)


def test_bicgstab_returns_zero_for_a_zero_right_hand_side():
    x, res = bicgstab(lambda v: 2.0 * v, np.zeros((4, 4)), lambda v: v, tol=1e-12)
    assert res == 0.0
    assert x.shape == (4, 4) and not np.any(x)


def test_bicgstab_reports_a_breakdown():
    # one step leaves s = e2 with <t, s> = 0, so omega = 0 with r != 0
    a = np.array([[1.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConvergenceError, match="breakdown"):
        bicgstab(lambda v: a @ v, np.array([1.0, 0.0]), lambda v: v, tol=1e-12)


def test_bicgstab_breakdown_on_a_zero_rhat_v():
    # the zero operator makes v = 0, so alpha = rho / <rhat, v> has no value
    with pytest.raises(ConvergenceError, match=r"breakdown \(rhat\.v = 0"):
        bicgstab(lambda v: np.zeros_like(v), np.ones((4, 4)), lambda v: v, tol=1e-10)


def test_bicgstab_breakdown_on_a_zero_omega():
    # the operator kills s = -e2 after one step, so t = 0 and omega = 0
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConvergenceError, match=r"breakdown \(omega = 0"):
        bicgstab(lambda v: a @ v, np.array([1.0, 0.0]), lambda v: v, tol=1e-12)


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
        fstar = trig_values(gm, MMS_FIELD)
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
    rep_s = solve_chern_zero(gm_s, tol=1e-6)
    assert rep_s.residual_l2 < 1e-10


def test_zero_case_rejects_nonzero_degree():
    gm = make_gm("pluriclosed-bump", 8)
    with pytest.raises(PreconditionError, match="degree"):
        solve_chern_zero(gm)


# -- negative-degree case --------------------------------------------------------

def test_normalize_to_negative():
    gm = make_gm("pluriclosed-bump", 16)
    u, gm_neg, lam, _ = normalize_to_negative(gm)
    assert lam < 0
    s_neg = gm_neg.scalar_fields()["s_c2"]
    assert np.max(s_neg) < 0  # pointwise negative on every node
    # curvature of e^u omega follows e^{-u} lam up to discretization
    np.testing.assert_allclose(s_neg, lam * np.exp(-u.values), atol=5e-3)


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_normalized_curvature_is_the_trace_pass_of_the_changed_metric(scheme):
    # the conformal law at t = 0 against a torsion-trace pass on e^u omega
    _, gm_neg, _, s_neg = normalize_to_negative(
        make_gm("pluriclosed-bump", 8, scheme=scheme))
    s_pass = gm_neg.scalar_fields()["s_c2"]
    assert np.max(np.abs(s_neg - s_pass)) <= 1e-13 * np.max(np.abs(s_pass))


def test_negative_solve_runs_the_trace_pass_once(count_calls):
    # on the input metric only; e^u omega's curvature comes from the law
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "torsion_traces", "collect_traces")
    man = builtin("pluriclosed-bump")
    solve_chern_negative(GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8)))
    assert calls == ["collect_traces"]  # the build's fused pass


def test_negative_solve_scales_the_normalized_metric(count_calls):
    # e^u omega is scaled from the prebuilt metric: no conformal 2-jet and no
    # second LDL^H (building and inverting it eagerly made one call of each)
    import hermcurv.jets as jets
    man = builtin("pluriclosed-bump")
    gm = GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8))
    calls = count_calls(jets, "conformal_jet", "inverse_and_det")
    solve_chern_negative(gm)
    assert calls == []


def test_negative_solve_differentiates_no_factor(count_calls):
    # both t = 0 laws read the lap of u and f that the solve holds: no dz of
    # them and no factor 2-jet (the 2-jet law of u made 2 and 1)
    import hermcurv.grid as grid
    gm = make_gm("pluriclosed-bump", 8)
    calls = count_calls(grid, "dz", "factor_jet_from_field")
    solve_chern_negative(gm)
    assert calls == []


@pytest.mark.parametrize("N, scheme", [(8, "fd2"), (16, "fd2"), (8, "spectral")])
def test_negative_solution_is_pinned(N, scheme, monkeypatch):
    # the solution is F = u + f, and e^F omega is the unique constant-curvature
    # metric of the class: a 1e-10 normalizer moves u and f, not F
    import hermcurv.solvers as solvers_mod
    gm = make_gm("pluriclosed-bump", N, scheme=scheme)
    rep = solve_chern_negative(gm)
    u, gm_neg, lam, s_neg = normalize_to_negative(gm)
    f, _ = continuity_solve(gm_neg, s_neg, lam)
    np.testing.assert_array_equal(rep.solution.values, u.values + f)
    monkeypatch.setattr(solvers_mod, "NORMALIZE_TOL", 1e-10)
    tight = solve_chern_negative(gm).solution.values
    assert np.max(np.abs(rep.solution.values - tight)) <= 1e-13


def test_normalization_stops_at_its_loose_tolerance(count_calls):
    # the 1e-10 normalizer made 12 transposes, and the whole solve 26 Laplacians
    import hermcurv.grid as grid
    from hermcurv.solvers import _LaplacianOp
    gm = make_gm("pluriclosed-bump", 8)
    transposes = count_calls(_LaplacianOp, "apply_transpose")
    normalize_to_negative(gm)
    assert len(transposes) <= 6
    laplacians = count_calls(grid, "complex_laplacian")
    solve_chern_negative(gm)
    assert len(laplacians) <= 20


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
@pytest.mark.parametrize("name", ["pluriclosed-bump", "kaehler-bump"])
def test_grid_law_matches_the_oracle_checked_law(name, scheme):
    # the solvers' S_C2 law on the stencil Laplacian against transformed_ric34
    # on the grid factor 2-jet, the path the direct-recomputation oracle checks
    gm = make_gm(name, 8, scheme=scheme)
    f = trig_values(gm, MMS_FIELD)
    fj = factor_jet_from_field(gm.grid, f)
    for t in (0.0, 1.0):
        got = _conformal_s2(gm, gm.traces.scalars(t)[1], f, complex_laplacian(gm, f), t)
        want = transformed_ric34(gm.jet, fj, ricci_forms(gm.jet, [t]))[0].s2
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), t


def test_negative_solve_peak_memory_per_node():
    # tracemalloc peak of the solve on a prebuilt metric whose trace bundle
    # is cached: about 340 B/node; 460 when e^u omega kept its scaled h and
    # inverse, and 1096 with the eager conformal 2-jet
    man = builtin("pluriclosed-bump")
    gm = GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8))
    gm.traces
    tracemalloc.start()
    try:
        solve_chern_negative(gm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / gm.grid.node_count < 450


def test_zero_solve_reuses_the_least_squares_laplacian(count_calls, monkeypatch):
    # lstsq_mean_zero hands back lap f, so no apply follows it
    import hermcurv.solvers as solvers_mod
    calls = count_calls(solvers_mod, "complex_laplacian")
    real, after = solvers_mod.lstsq_mean_zero, []

    def lstsq(*args, **kwargs):
        out = real(*args, **kwargs)
        after.append(len(calls))
        return out
    monkeypatch.setattr(solvers_mod, "lstsq_mean_zero", lstsq)
    solve_chern_zero(make_gm("kaehler-bump", 8))
    assert after == [len(calls)]


def test_zero_solve_runs_on_bicgstab(count_calls):
    import hermcurv.solvers as solvers_mod
    calls = count_calls(solvers_mod, "bicgstab")
    solve_chern_zero(make_gm("kaehler-bump", 8))
    assert len(calls) == 1


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
    fstar = trig_values(gm, MMS_NEG) + 0.045
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


def test_continuity_starts_at_the_exact_entry(count_calls):
    # f = 0 solves the a = 0 problem exactly: the path records it without a
    # Newton solve, so the one Laplacian before the first Krylov solve is the
    # a = 1 residual (a solved a = 0 entry made 2)
    import hermcurv.solvers as solvers_mod
    gm = make_gm("kaehler-bump", 8)
    _, rhs = manufactured_negative(gm)
    calls = count_calls(solvers_mod, "complex_laplacian", "bicgstab")
    _, trace = continuity_solve(gm, rhs, LAM_NEG)
    assert trace[0] == (0.0, 0, 0.0)
    assert calls.index("bicgstab") == 1


@pytest.mark.parametrize("N", [8, 16])
def test_continuity_takes_the_full_step(N):
    gm = make_gm("kaehler-bump", N)
    _, rhs = manufactured_negative(gm)
    _, trace = continuity_solve(gm, rhs, LAM_NEG)
    assert [step[0] for step in trace] == [0.0, 1.0]
    assert trace[0][1] == 0 and trace[1][1] <= 4


def test_negative_solve_takes_the_full_step():
    rep = solve_chern_negative(make_gm("pluriclosed-bump", 8))
    assert [step[0] for step in rep.path_trace] == [0.0, 1.0]
    assert rep.path_trace[0][1] == 0 and rep.path_trace[1][1] <= 4
    assert f"lambda={rep.lam:.10g}" == "lambda=-0.09058016343"  # as the CLI prints it


def test_continuity_falls_back_to_the_path():
    # MMS_NEG amplitudes x30: Newton at a = 1 from f = 0 is rejected, the path
    # takes a smaller step first and still reaches a = 1
    big = _TrigSum([(0.6, (1, 0), (0, 0), 0.0), (0.3, (0, 0), (1, 1), 0.7)])
    gm = make_gm("kaehler-bump", 16)
    fstar = trig_values(gm, big)
    fstar += 0.01 - fstar.min()
    rhs = analytic_laplacian(gm, big) + LAM_NEG * np.exp(fstar)
    f, trace = continuity_solve(gm, rhs, LAM_NEG)
    assert trace[1][0] < 1.0 and trace[-1][0] == 1.0
    assert trace[-1][2] < 1e-8
    # the discretization error that the path-only solve reaches
    assert abs(np.max(np.abs(f - fstar)) - 1.083930639448534e-2) < 1e-8


def test_continuity_requires_negative_lam():
    gm = make_gm("kaehler-bump", 8)
    _, rhs = manufactured_negative(gm)
    with pytest.raises(PreconditionError):
        continuity_solve(gm, rhs, +1.0)


def test_solver_gates_fail_closed():
    # each solver gates its own residual with its tol: a residual that is not
    # at most tol fails, and a NaN tol fails every gate
    neg = make_gm("pluriclosed-bump", 8)
    with pytest.raises(ConvergenceError, match="final residual"):
        solve_chern_negative(neg, tol=1e-30)
    nan = float("nan")
    with pytest.raises(ConvergenceError, match="final residual"):
        solve_chern_negative(neg, tol=nan)
    with pytest.raises(ConvergenceError, match="zero-degree residual"):
        solve_chern_zero(make_gm("kaehler-bump", 8, scheme="spectral"), tol=nan)
    with pytest.raises(ConvergenceError, match="Euler-Lagrange residual"):
        bismut_yamabe_minimize(make_gm("flat-torus", 4), tol=nan)


def test_apriori_bound_checker():
    s = -np.ones((4, 4))
    _check_apriori_bound(np.full((4, 4), 0.1), s, -2.0)
    with pytest.raises(ConvergenceError, match="a-priori"):
        _check_apriori_bound(np.full((4, 4), -0.5), s, -2.0)
    with pytest.raises(ConvergenceError, match="a-priori"):
        _check_apriori_bound(np.full((4, 4), 3.0), s, -2.0)


def test_negative_end_to_end():
    gm = make_gm("pluriclosed-bump", 16)
    g1, g2 = gauduchon_degrees(gm)
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


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_energy_gradient_is_exact_for_the_quadratic_energy(scheme):
    # the energy is a quadratic form in phi, so its central difference along
    # any v is exactly the directional derivative g . v
    gm = make_gm("kaehler-bump", N=8, scheme=scheme)
    op = _LaplacianOp(gm)
    rng = np.random.default_rng(17)
    phi = 1.0 + 0.1 * rng.normal(size=gm.grid.shape)
    v = rng.normal(size=gm.grid.shape)
    g = _grad_energy_norm(op, phi)[1]()
    e_plus, _ = _grad_energy_norm(op, phi + v)
    e_minus, _ = _grad_energy_norm(op, phi - v)
    want = float(np.sum(g * v))
    assert abs((e_plus - e_minus) / 2 - want) <= 1e-10 * abs(want)
    # the gradient is -(w lap_C phi + lap_C^T (w phi)), bit for bit
    w = gm.weights()
    np.testing.assert_array_equal(
        g, -(w * complex_laplacian(gm, phi) + op.apply_transpose(w * phi)))


def test_bismut_descent_takes_gradients_where_it_steps_only(monkeypatch):
    # the descent reads a gradient at the start and after each accepted step,
    # not for rejected line-search trials; the polish reads one for each
    # candidate that passes its energy check, for that candidate's residual
    import hermcurv.solvers as solvers_mod
    real, real_krylov, events = solvers_mod._grad_energy_norm, solvers_mod.bicgstab, []

    def counted(op, phi):
        energy, grad = real(op, phi)
        events.append(("energy", phi))
        return energy, lambda: events.append(("gradient", phi)) or grad()

    def krylov(*args, **kwargs):
        events.append(("bicgstab", None))
        return real_krylov(*args, **kwargs)
    monkeypatch.setattr(solvers_mod, "_grad_energy_norm", counted)
    monkeypatch.setattr(solvers_mod, "bicgstab", krylov)
    gm = make_gm("kaehler-bump", 12, scheme="spectral", eps=3e-5)
    rep = bismut_yamabe_minimize(gm)
    energies = [e for _, e, _ in rep.energy_trace]
    accepted = sum(b < a for a, b in zip(energies, energies[1:]))
    first = [kind for kind, _ in events].index("bicgstab")
    descent, polish = events[:first], events[first:]
    kinds = [kind for kind, _ in descent]
    assert kinds.count("gradient") == 1 + accepted < kinds.count("energy")
    # a candidate that fails the energy check ends the polish, so every
    # candidate but the last was accepted and sets the U to check against
    op, w, s_b2 = _LaplacianOp(gm), gm.weights(), gm.scalar_fields()["s_b2"]
    current, passed = energies[-1], []
    for phi in (phi for kind, phi in polish if kind == "energy"):
        u = real(op, phi)[0] + rep.extras["N1"] * float(np.sum(w * s_b2 * phi ** 2))
        if u <= current + 1e-12 * max(1.0, abs(current)):
            passed.append(phi)
        current = u
    read = [phi for kind, phi in polish if kind == "gradient"]
    assert passed and len(read) == len(passed)
    assert all(a is b for a, b in zip(read, passed))


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


@pytest.mark.parametrize("N", [12, 16])
def test_bismut_descent_iterations_do_not_grow_with_N(N):
    # the Sobolev gradient takes 14 iterations at both sizes (raw nodal
    # gradient: 133 at N=12, the PGD_MAX cap at N=16)
    gm = make_gm("kaehler-bump", N, scheme="spectral", eps=3e-5)
    rep = bismut_yamabe_minimize(gm)
    assert len(rep.energy_trace) - 1 <= 20


def test_bismut_larger_amplitude_descent_ends_before_the_cap():
    gm = make_gm("kaehler-bump", 16, scheme="spectral", eps=2e-3)
    rep = bismut_yamabe_minimize(gm)
    assert len(rep.energy_trace) - 1 < PGD_MAX
    energies = [e for _, e, _ in rep.energy_trace]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert max(d for _, _, d in rep.energy_trace[1:]) < 1e-10


def test_bismut_larger_amplitude_still_converges():
    for scheme in ("spectral", "fd2"):
        gm = make_gm("kaehler-bump", 12, scheme=scheme, eps=2e-3)
        rep = bismut_yamabe_minimize(gm)
        assert rep.residual_l2 < 1e-8
        assert rep.extras["mu"] < 0  # variable curvature pulls the infimum below 0


@pytest.mark.parametrize("eps", [3e-5, 2e-3])
def test_bismut_fd2_converges_with_second_order_mu(eps):
    # the descent and the polish share one discrete functional, so fd2 solves
    # to tol at every N, and its mu approaches the spectral value at order 2
    ref = bismut_yamabe_minimize(
        make_gm("kaehler-bump", 16, scheme="spectral", eps=eps), tol=1e-8).extras["mu"]
    errors = []
    for N in (8, 12, 16):
        rep = bismut_yamabe_minimize(make_gm("kaehler-bump", N, eps=eps), tol=1e-8)
        assert rep.residual_l2 <= 1e-8
        errors.append(abs(rep.extras["mu"] - ref))
    for (n0, e0), (n1, e1) in zip(zip((8, 12), errors), zip((12, 16), errors[1:])):
        assert np.log(e0 / e1) / np.log(n1 / n0) >= 1.8


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


def test_lozenge_check_runs_the_trace_pass_once(count_calls):
    # the Einstein residual reads the grid metric's cached bundle
    import hermcurv.curvature as curvature
    calls = count_calls(curvature, "torsion_traces", "collect_traces")
    man = builtin("pluriclosed-bump")
    gm = GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8))
    lozenge_constancy_check(gm)
    assert calls == ["collect_traces"]  # the build's fused pass


def test_lozenge_of_constant_field_is_zero():
    gm = make_gm("pluriclosed-bump", 8)
    from hermcurv.grid import complex_laplacian, dz
    f = np.full(gm.grid.shape, 1.7)
    lap = complex_laplacian(gm, f)
    assert np.max(np.abs(lap)) < 1e-12
    tau = gm.traces.tau
    pair = np.zeros(gm.grid.shape)
    for i in range(gm.n):
        dfi = dz(f, i, gm.grid)
        for j in range(gm.n):
            pair += (gm.ginv[i, j] * dfi * np.conj(tau[j])).real
    assert np.max(np.abs(gm.n * lap + 2 * pair)) < 1e-12
