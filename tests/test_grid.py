import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hermcurv.curvature import CLASS_TOL
from hermcurv.grid import (GridError, GridMetric, TorusField, TorusGrid,
                           complex_laplacian, dz, factor_jet_from_field,
                           gauduchon_degrees, integrate, laplacian_duality_defect)
from hermcurv.jets import JetError, MetricJet, conformal_jet, inverse_and_det
from hermcurv.manifolds import builtin, conformal_manifold

from conftest import balanced_representative, make_gm


def dzbar(v, k, grid):
    """Discrete d/dzbar^k = (d_x + i d_y)/2; the engine needs only dz."""
    return 0.5 * (grid.d_axis(v, 2 * k) + 1j * grid.d_axis(v, 2 * k + 1))


def x_field(grid, a):
    shape = [1] * (2 * grid.n)
    shape[a] = grid.N
    col = grid.axis_coords(a).reshape(shape)
    return np.broadcast_to(col, grid.shape).copy()


@pytest.mark.parametrize("n, N", [(3, 12), (2, 48)])
def test_memory_guard_counts_bytes_per_node_from_n(n, N):
    # once admitted by a flat 40 doubles per node: the n = 3 jet alone is
    # about 5.6 GB at N = 12, and n = 2 at N = 48 was measured to need 5.9 GB
    with pytest.raises(GridError, match="memory budget"):
        TorusGrid(n=n, N=N)


def test_memory_guard_admits_n2_at_32():
    assert TorusGrid(n=2, N=32).node_count == 32 ** 4


def test_memory_guard_admits_n2_at_42():
    # the trace bundle keeps no del del* omega: 656 bytes per node at n = 2,
    # 1.90 GiB here (720 and 2.09 GiB with it)
    assert TorusGrid(n=2, N=42).node_count == 42 ** 4


def test_memory_guard_admits_n3_at_10():
    # the grid holds no 2-jet: 832 bytes per node at n = 3, 0.77 GiB here
    assert TorusGrid(n=3, N=10).node_count == 10 ** 6


def test_grid_validation():
    with pytest.raises(GridError):
        TorusGrid(n=2, N=5)
    with pytest.raises(GridError):
        TorusGrid(n=2, N=2)
    with pytest.raises(GridError):
        TorusGrid(n=2, N=8, scheme="fd4")
    with pytest.raises(GridError):
        TorusGrid(n=3, N=64)  # node budget
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(GridError, match="positive finite"):
            TorusGrid(n=2, N=8, periods=(1.0, bad, 1.0, 1.0))


def test_field_validation():
    grid = TorusGrid(n=2, N=4)
    with pytest.raises(GridError):
        TorusField(grid, np.zeros((4, 4)))
    with pytest.raises(GridError):
        TorusField(grid, np.full(grid.shape, np.nan))
    TorusField(grid, np.zeros(grid.shape))


def test_nonperiodic_manifold_rejected():
    man = builtin("hopf", n=2)
    grid = TorusGrid(n=2, N=4)
    with pytest.raises(GridError, match="periodic"):
        GridMetric.from_manifold(man, grid)


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_derivative_of_constant_is_zero(scheme):
    grid = TorusGrid(n=2, N=8, scheme=scheme)
    u = np.ones(grid.shape)
    assert np.max(np.abs(dz(u, 0, grid))) < 1e-14
    assert np.max(np.abs(dzbar(u, 1, grid))) < 1e-14


def test_spectral_derivative_exact_on_modes():
    grid = TorusGrid(n=2, N=8, scheme="spectral")
    for a, k in ((0, 2), (3, 3)):
        x = x_field(grid, a)
        u = np.exp(2j * np.pi * k * x)
        d = grid.d_axis(u, a)
        np.testing.assert_allclose(d, 2j * np.pi * k * u, atol=1e-12)


@pytest.mark.parametrize("n, N", [(2, 12), (2, 16), (3, 6)])
def test_spectral_real_derivatives_match_complex_fft(n, N):
    # the circulant matrices for real input against a full complex FFT
    periods = tuple(0.7 + 0.4 * a for a in range(2 * n))
    grid = TorusGrid(n=n, N=N, periods=periods, scheme="spectral")
    u = np.random.default_rng(n).normal(size=grid.shape)
    for a in range(2 * n):
        shape = [1] * u.ndim
        shape[a] = N
        for deriv, symbol in ((grid.d_axis, grid.d_symbol),
                              (grid.d2_axis, grid.d2_symbol)):
            ref = np.fft.ifft(np.fft.fft(u, axis=a) * symbol(a).reshape(shape),
                              axis=a).real
            got = deriv(u, a)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [4, 6, 8, 12, 16])
def test_spectral_matrices_are_circulant_and_exactly_skew_or_symmetric(N):
    # the energy gradient of the Bismut descent takes d as antisymmetric
    grid = TorusGrid(n=2, N=N, periods=(0.7, 1.1, 1.5, 1.9), scheme="spectral")
    d, d2 = grid._matrices
    for a in range(4):
        for m in (d[a], d2[a]):
            assert m.shape == (N, N)
            for j in range(N):
                assert np.array_equal(m[j], np.roll(m[0], j))
        assert np.array_equal(d[a], -d[a].T)
        assert np.array_equal(d2[a], d2[a].T)


def test_spectral_derivative_ignores_the_input_layout():
    # strided views (a transpose, the imaginary part of a complex field)
    # give the same bits as their contiguous copies
    grid = TorusGrid(n=2, N=12, periods=(0.7, 1.1, 1.5, 1.9), scheme="spectral")
    rng = np.random.default_rng(5)
    z = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    for v in (rng.normal(size=grid.shape).T, z.imag):
        assert not v.flags.c_contiguous
        for a in range(4):
            for deriv in (grid.d_axis, grid.d2_axis):
                got = deriv(v, a)
                assert got.dtype == np.float64
                assert np.array_equal(got, deriv(np.ascontiguousarray(v), a))


def test_dz_on_y_independent_field():
    # u = sin(2 pi x1): dz along axis 1 is pi cos(2 pi x1)
    grid = TorusGrid(n=2, N=32, scheme="spectral")
    x = x_field(grid, 0)
    u = np.sin(2 * np.pi * x)
    got = dz(u, 0, grid)
    np.testing.assert_allclose(got, np.pi * np.cos(2 * np.pi * x), atol=1e-10)


def test_fd2_derivative_second_order():
    errs = []
    for N in (8, 16, 32):
        grid = TorusGrid(n=2, N=N, scheme="fd2")
        x = x_field(grid, 0)
        u = np.sin(2 * np.pi * x)
        err = np.max(np.abs(dz(u, 0, grid) - np.pi * np.cos(2 * np.pi * x)))
        errs.append(err)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


@pytest.mark.parametrize("n", [2, 3])
def test_fd2_stencils_match_a_roll_reference(n):
    # centred periodic differences written with np.roll, on every axis
    grid = TorusGrid(n=n, N=6, periods=[0.5 + 0.25 * a for a in range(2 * n)])
    rng = np.random.default_rng(4)
    for u in (rng.normal(size=grid.shape),
              rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)):
        for a in range(2 * n):
            h = grid.spacing[a]
            up, down = np.roll(u, -1, axis=a), np.roll(u, 1, axis=a)
            np.testing.assert_array_equal(grid.d_axis(u, a), (up - down) / (2 * h))
            np.testing.assert_array_equal(grid.d2_axis(u, a),
                                          (up - 2 * u + down) / h ** 2)


def test_conjugation_identity():
    grid = TorusGrid(n=2, N=8)
    rng = np.random.default_rng(0)
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    np.testing.assert_allclose(dzbar(np.conj(u), 0, grid),
                               np.conj(dz(u, 0, grid)), atol=1e-13)


def test_operator_linearity():
    gm = make_gm("kaehler-bump", N=8)
    rng = np.random.default_rng(1)
    u = rng.normal(size=gm.grid.shape)
    v = rng.normal(size=gm.grid.shape)
    lu = complex_laplacian(gm, u)
    lv = complex_laplacian(gm, v)
    luv = complex_laplacian(gm, 2.5 * u - 1.25 * v)
    np.testing.assert_allclose(luv, 2.5 * lu - 1.25 * lv, atol=1e-11)


def _synthetic_n3_metric(hermitian=True):
    # n = 3, N = 4 with a non-diagonal Hermitian metric; only the Laplacian's
    # stencil table reads it, through the jet's inverse
    grid = TorusGrid(n=3, N=4)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3) + grid.shape) + 1j * rng.normal(size=(3, 3) + grid.shape)
    h = np.einsum("ij...,kj...->ik...", a, np.conj(a))
    for i in range(3):
        h[i, i] += 3
    if not hermitian:
        # LDL^H reads the lower triangle only, so the inverse refuses this
        # input before it factorizes
        h[0, 1] += 0.1
    return GridMetric(grid, MetricJet(h, None, None))


@pytest.mark.parametrize("case", ["pluriclosed-bump/fd2", "pluriclosed-bump/spectral",
                                  "kaehler-bump/fd2", "kaehler-bump/spectral",
                                  "synthetic-n3"])
def test_laplacian_transpose_is_adjoint(case):
    from hermcurv.solvers import _LaplacianOp
    if case == "synthetic-n3":
        gm = _synthetic_n3_metric()
    else:
        name, scheme = case.split("/")
        gm = make_gm(name, N=8, scheme=scheme)
    rng = np.random.default_rng(2)
    u = rng.normal(size=gm.grid.shape)
    v = rng.normal(size=gm.grid.shape)
    op = _LaplacianOp(gm)
    lhs = float(np.sum(complex_laplacian(gm, u) * v))
    rhs = float(np.sum(u * op.apply_transpose(v)))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (case, lhs, rhs)


def test_non_hermitian_inverse_metric_raises():
    gm = _synthetic_n3_metric(hermitian=False)
    with pytest.raises(JetError, match="Hermitian"):
        complex_laplacian(gm, np.ones(gm.grid.shape))


def test_flat_laplacian_is_quarter_euclidean():
    gm = make_gm("flat-torus", N=32)
    x = x_field(gm.grid, 0)
    u = np.sin(2 * np.pi * x)
    lap = complex_laplacian(gm, u)
    want = -np.pi ** 2 * u  # (1/4) * (-(2 pi)^2) sin
    # fd2 truncation bound: (1/4) (2 pi)^4 h^2 / 12 ~ 0.032 at N = 32
    assert np.max(np.abs(lap - want)) < 4e-2
    gm_s = make_gm("flat-torus", N=8, scheme="spectral")
    x = x_field(gm_s.grid, 0)
    u = np.sin(2 * np.pi * x)
    np.testing.assert_allclose(complex_laplacian(gm_s, u), -np.pi ** 2 * u,
                               atol=1e-10)


def test_manufactured_laplacian_convergence():
    # nontrivial metric: error decays at second order under refinement
    def exact_field(grid):
        x1 = x_field(grid, 0)
        y2 = x_field(grid, 3)
        return np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y2)

    errs = []
    for N in (8, 16, 32):
        gm = make_gm("kaehler-bump", N=N)
        u = exact_field(gm.grid)
        got = complex_laplacian(gm, u)
        gm_ref = make_gm("kaehler-bump", N=N, scheme="spectral")
        want = complex_laplacian(gm_ref, exact_field(gm_ref.grid))
        errs.append(np.max(np.abs(got - want)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_duality_flat_exact():
    gm = make_gm("flat-torus", N=8)
    rng = np.random.default_rng(3)
    u = rng.normal(size=gm.grid.shape)
    assert laplacian_duality_defect(gm, u) < 1e-9


def test_duality_defect_zero_for_constant():
    gm = make_gm("pluriclosed-bump", N=8)
    assert laplacian_duality_defect(gm, np.ones(gm.grid.shape)) < 1e-12


def test_duality_convergence_on_curved_metric():
    defects = []
    for N in (8, 16, 32):
        gm = make_gm("pluriclosed-bump", N=N)
        x1 = x_field(gm.grid, 0)
        y1 = x_field(gm.grid, 1)
        u = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y1)
        defects.append(laplacian_duality_defect(gm, u))
    orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_integrate_volume_normalization():
    gm = make_gm("flat-torus", N=8)
    assert abs(integrate(gm, np.ones(gm.grid.shape)) - 4.0) < 1e-12


def test_integrate_mean_zero_mode():
    gm = make_gm("flat-torus", N=16)
    x = x_field(gm.grid, 0)
    assert abs(integrate(gm, np.sin(2 * np.pi * x))) < 1e-12


def test_integral_of_laplacian_vanishes_under_refinement():
    # discrete analogue of the adjoint-kernel argument: the quadrature of
    # lap_C u over a Gauduchon metric tends to zero at the stencil order
    vals = []
    for N in (8, 16, 32):
        gm = make_gm("kaehler-bump", N=N)
        x1, y1 = x_field(gm.grid, 0), x_field(gm.grid, 1)
        x2 = x_field(gm.grid, 2)
        u = np.sin(2 * np.pi * x1) + 0.4 * np.cos(2 * np.pi * (y1 + x2))
        vals.append(abs(integrate(gm, complex_laplacian(gm, u))))
    orders = [np.log2(vals[i] / vals[i + 1]) for i in range(2)]
    assert min(orders) > 1.8
    gm2 = make_gm("pluriclosed-bump", N=16, scheme="spectral")
    u2 = np.sin(2 * np.pi * x_field(gm2.grid, 0))
    assert abs(integrate(gm2, complex_laplacian(gm2, u2))) < 1e-8


def test_degrees_flat_and_kaehler():
    gm = make_gm("flat-torus", N=8)
    g1, g2 = gauduchon_degrees(gm)
    assert abs(g1) < 1e-12 and abs(g2) < 1e-12
    assert gm.class_residuals()["gauduchon"] < CLASS_TOL
    gm2 = make_gm("kaehler-bump", N=16)
    g1b, g2b = gauduchon_degrees(gm2)
    assert abs(g1b) < 1e-6 and abs(g2b) < 1e-6
    assert gm2.class_residuals()["gauduchon"] < CLASS_TOL
    assert abs(g1b - g2b) < 1e-9  # balanced: S_C1 = S_C2 pointwise


def test_degrees_pluriclosed_bump_negative():
    gm = make_gm("pluriclosed-bump", N=16)
    g1, g2 = gauduchon_degrees(gm)
    assert gm.class_residuals()["gauduchon"] < CLASS_TOL
    assert abs(g1) < 1e-6          # first degree vanishes on the torus
    assert g2 < -1e-4              # second degree strictly negative
    # Gamma^2 = -||delbar* omega||^2 for Gauduchon torus metrics
    from hermcurv.curvature import torsion_diagnostics
    diag = torsion_diagnostics(gm.jet)
    cross = -integrate(gm, diag.del_star_sq)
    np.testing.assert_allclose(g2, cross, rtol=1e-8)


def test_class_residuals_take_every_node():
    # a conformal change of a Gauduchon metric is not Gauduchon; the grid's
    # residual is the maximum of the forms oracle over every node
    from hermcurv import forms
    base = builtin("pluriclosed-bump")
    bent = conformal_manifold(base, "re(exp(i*(6.283185307179586*re(z1))))/3")
    bent.periods = base.periods
    gm = GridMetric.from_manifold(bent, TorusGrid(n=2, N=8))
    want = float(np.sqrt(np.max(forms.del_delbar_omega(gm.jet).norm2(gm.ginv))))
    res = gm.class_residuals()
    for key in ("gauduchon", "pluriclosed"):
        worst = res[key]
        assert not worst < CLASS_TOL
        assert abs(worst - want) <= 1e-12 * max(1.0, want), key


def test_degree_conformal_scaling():
    # Gamma^(j) of e^c omega is e^{(n-1)c} Gamma^(j)
    c = 0.4
    base = builtin("pluriclosed-bump")
    man2 = conformal_manifold(base, f"{c}")
    man2.periods = base.periods
    gm1 = GridMetric.from_manifold(base, TorusGrid(n=2, N=8))
    gm2 = GridMetric.from_manifold(man2, TorusGrid(n=2, N=8))
    _, g2a = gauduchon_degrees(gm1)
    _, g2b = gauduchon_degrees(gm2)
    np.testing.assert_allclose(g2b, np.exp(c) * g2a, rtol=1e-9)


def test_balanced_representative_recovers_known_factor():
    # e^g * (Kaehler torus) has Lee form dg (n = 2); the solver recovers
    # u = (n-1) g up to its mean and returns a balanced metric
    base = builtin("kaehler-bump", eps=1e-3)
    g_src = "re(exp(i*(6.283185307179586*re(z1))))/5"
    man = conformal_manifold(base, g_src)
    man.periods = base.periods
    grid = TorusGrid(n=2, N=16, scheme="spectral")
    gm = GridMetric.from_manifold(man, grid)
    u, gm_bal, info = balanced_representative(gm)
    x = x_field(grid, 0)
    g_vals = np.cos(2 * np.pi * x) / 5
    got = u.values - np.mean(u.values)
    want = (gm.n - 1) * (g_vals - np.mean(g_vals))
    assert np.max(np.abs(got - want)) < 1e-6
    assert info["lee_residual_out"] < 1e-6


def test_balanced_representative_trivial_on_balanced_input():
    gm = make_gm("kaehler-bump", N=8)
    u, gm_bal, info = balanced_representative(gm)
    assert np.max(np.abs(u.values - np.mean(u.values))) < 1e-8
    assert info["lee_residual_out"] < 1e-7


def test_balanced_representative_obstruction():
    # a private metric: the injected Lee form must not reach the shared cache
    man = builtin("pluriclosed-bump")
    gm = GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8))
    eta = gm.traces.lee.copy()
    eta[0] += 0.3  # inject a harmonic (constant) part: nonzero period
    gm.traces = SimpleNamespace(lee=eta)  # the Lee form is all it reads first
    with pytest.raises(GridError, match="harmonic"):
        balanced_representative(gm)


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
@pytest.mark.parametrize("name", ["pluriclosed-bump", "kaehler-bump"])
def test_scalar_fields_match_full_tensor_oracle(name, scheme):
    from hermcurv.curvature import gauduchon_curvature, ricci_and_scalars
    gm = make_gm(name, N=8, scheme=scheme)
    fields = gm.scalar_fields()
    for key, t in (("s_c2", 0.0), ("s_b2", 1.0)):
        want = ricci_and_scalars(gauduchon_curvature(gm.jet, t), gm.jet).s2
        dev = np.abs(fields[key] - want) / np.maximum(1.0, np.abs(want))
        assert np.max(dev) <= 1e-12, (name, scheme, key)


def test_grid_metric_runs_the_fused_pass_once(count_calls):
    import hermcurv.curvature as curvature
    # the build collects its blocks' trace bundle once, and never runs the
    # whole-jet trace pass
    calls = count_calls(curvature, "torsion_traces", "collect_traces")
    man = builtin("pluriclosed-bump")
    gm = GridMetric.from_manifold(man, TorusGrid(n=man.n, N=8))
    gm.scalar_fields()
    gm.traces.tau
    gm.traces.lee
    gauduchon_degrees(gm)
    gm.scalar_fields()
    assert calls == ["collect_traces"]


def test_grid_metric_builds_the_nodes_once(count_calls):
    # the periodicity check samples the nodes the jet was evaluated on
    calls = count_calls(TorusGrid, "points")
    GridMetric.from_manifold(builtin("pluriclosed-bump"), TorusGrid(n=2, N=8))
    assert len(calls) == 1


def _normalizer(scheme):
    """Pluriclosed-bump at N = 8 and the normalization's factor u on it."""
    from hermcurv.solvers import normalize_to_negative
    gm = make_gm("pluriclosed-bump", 8, scheme=scheme)
    return gm, normalize_to_negative(gm)[0].values


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_conformal_metric_scales_the_inverse_and_det(scheme):
    # e^{-u} h^{-1} and e^{nu} det h against an LDL^H of e^u h
    gm, u = _normalizer(scheme)
    gm_u = gm.conformal(u)
    np.testing.assert_array_equal(gm_u.jet.h, np.exp(u) * gm.jet.h)
    ginv, det = inverse_and_det(MetricJet(np.exp(u) * gm.jet.h, None, None))
    for got, want in ((gm_u.ginv, ginv), (gm_u.det, det)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_conformal_metric_scales_on_each_read(scheme):
    # bit for bit the eager e^u h, h^{-1} / e^u and e^{nu} det h, with h and
    # h^{-1} computed anew on each read and kept by neither
    gm, u = _normalizer(scheme)
    jet = gm.conformal(u).jet
    want = (np.exp(u) * gm.jet.h, gm.ginv / np.exp(u), np.exp(gm.n * u) * gm.det)
    for name, w in zip(("h", "ginv", "det"), want):
        assert np.array_equal(getattr(jet, name), w), name
    assert jet.h is not jet.h and jet.ginv is not jet.ginv


def test_conformal_metric_holds_no_scaled_copy():
    # At N = 16 building e^u omega and reading its det hold the copy of u,
    # e^u and det (three real fields, 1.5 MiB) and one node block of the
    # residual check's temporaries: a 2.2 MiB traced peak, where keeping
    # e^u h and h^{-1} / e^u peaked at 9.8 MiB
    gm = make_gm("pluriclosed-bump", 16)
    u = 0.1 * np.cos(2 * np.pi * gm.grid.points()[..., 0].real)
    gm.ginv, gm.det
    tracemalloc.start()
    try:
        gm.conformal(u).det
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * gm.det.nbytes + 2 ** 20


@pytest.mark.parametrize("scheme", ["fd2", "spectral"])
def test_conformal_metric_builds_its_two_jet_on_first_read(scheme, count_calls):
    import hermcurv.jets as jets
    gm, u = _normalizer(scheme)
    want = conformal_jet(gm.jet, factor_jet_from_field(gm.grid, u))
    calls = count_calls(jets, "conformal_jet")
    gm_u = gm.conformal(u)
    assert calls == []
    gm_u.jet.dh, gm_u.jet.ddh
    assert len(calls) == 1  # one build serves both reads
    np.testing.assert_array_equal(gm_u.jet.dh, want.dh)
    np.testing.assert_array_equal(gm_u.jet.ddh, want.ddh)


@pytest.mark.parametrize("value", [np.nan, 800.0, -800.0])
def test_conformal_metric_refuses_a_factor_out_of_range(value):
    gm = make_gm("pluriclosed-bump", 8)
    f = np.zeros(gm.grid.shape)
    f[1, 2, 3, 4] = value
    with pytest.raises(JetError, match="conformal factor out of range"):
        gm.conformal(f)
