import itertools
from functools import partial

import numpy as np
import pytest

from hermcurv import expr as ex
from hermcurv import jets
from hermcurv.dsl import parse_expr
from hermcurv.jets import MetricJet, JetError, check_jet_invariants, inverse_and_det
from hermcurv.manifolds import (DomainError, ModelManifold, _TrigSum, builtin,
                                builtin_names, conformal_manifold,
                                manifold_from_manifest, plane_wave_jets)

from conftest import make_gm, scalar_jets

ALL_BUILTINS = [
    ("flat-torus", {}),
    ("hopf", {}),
    ("elliptic", {}),
    ("tricerri", {}),
    ("vaisman", {"m": 1.0}),
    ("vaisman", {"m": 2.0}),
    ("kaehler-bump", {}),
    ("pluriclosed-bump", {}),
    # h - I is O(0.1) and h stays positive definite: a sign or factor slip
    # in an amplitude table shows as a large error
    ("kaehler-bump", {"eps": 0.01}),
    ("pluriclosed-bump", {"eps": 0.05}),
]


def fd_jet_of_h(man, z, step=1e-5):
    """Central finite differences of h: oracle for dh and (via dh) ddh."""
    n = man.n

    def h_at(pts):
        return man.jet(pts, check_domain=False).h

    def dh_at(pts):
        return man.jet(pts, check_domain=False).dh

    dh = np.empty((n, n, n) + z.shape[:-1], complex)
    ddh = np.empty((n, n, n, n) + z.shape[:-1], complex)
    for k in range(n):
        dx = np.zeros_like(z)
        dx[..., k] = step
        dy = np.zeros_like(z)
        dy[..., k] = 1j * step
        ddx = (h_at(z + dx) - h_at(z - dx)) / (2 * step)
        ddy = (h_at(z + dy) - h_at(z - dy)) / (2 * step)
        dh[k] = 0.5 * (ddx - 1j * ddy)
        gdx = (dh_at(z + dx) - dh_at(z - dx)) / (2 * step)
        gdy = (dh_at(z + dy) - dh_at(z - dy)) / (2 * step)
        # anti-holomorphic derivative of the exact dh gives ddh[i, k, :, :]
        ddh[:, k] = 0.5 * (gdx + 1j * gdy)
    return dh, ddh


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_jets_match_finite_differences(name, params):
    man = builtin(name, **params)
    z = man.sample_points(200, seed=42)
    jet = man.jet(z)
    check_jet_invariants(jet)
    dh_fd, ddh_fd = fd_jet_of_h(man, z)
    scale = max(1.0, float(np.max(np.abs(jet.dh))))
    assert np.max(np.abs(jet.dh - dh_fd)) / scale < 1e-7
    scale2 = max(1.0, float(np.max(np.abs(jet.ddh))))
    assert np.max(np.abs(jet.ddh - ddh_fd)) / scale2 < 1e-7


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_closed_form_agrees_with_expression_path(name, params):
    man = builtin(name, **params)
    z = man.sample_points(60, seed=9)
    a = man.jet(z)
    b = man.expression_jet(z)
    np.testing.assert_allclose(a.h, b.h, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(a.dh, b.dh, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(a.ddh, b.ddh, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_trig_derivs_agree_with_expression_path(n):
    # value, d and d dbar of the sum as a 1 x 1 plane-wave sum against the
    # symbolic differentiator applied to the sum's DSL source
    trig = _TrigSum([(A, a[:n], b[:n], ph) for A, a, b, ph in (
        (0.7, (1, -2, 1), (0, 1, 2), 0.3),
        (0.4, (2, 0, -1), (1, 1, 0), 1.1),
        (0.25, (0, 1, 3), (-1, 2, 1), 2.5))])
    z = np.random.default_rng(4).uniform(-1, 1, (5, n, 2)) @ np.array([1, 1j])
    f, df, ddf = scalar_jets(z, trig)
    tree = parse_expr(trig.source(n), n)
    d_trees = [ex.wirtinger_derivative(tree, i, bar=False) for i in range(n)]
    cases = [((), f, tree)]
    cases += [((i,), df[i], d_trees[i]) for i in range(n)]
    cases += [((i, j), ddf[i, j], ex.wirtinger_derivative(d_trees[i], j, bar=True))
              for i, j in itertools.product(range(n), repeat=2)]
    for idx, got, t in cases:
        assert got.shape == (5,)
        want = ex.evaluate(t, z)
        dev = np.abs(got - want)
        assert np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(want))), idx


def test_plane_wave_jets_of_a_non_hermitian_amplitude():
    # P_t need not be Hermitian: h = I + sum (P_t e + P_t^H conj(e)) is
    rng = np.random.default_rng(8)
    waves = _TrigSum([(1.0, (1, 0, -1), (0, 2, 1), 0.4),
                      (1.0, (0, 1, 1), (1, 0, 0), 2.0),
                      (1.0, (2, -1, 0), (0, 1, -1), 5.1)])
    amps = 0.04 * (rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    assert np.max(np.abs(amps - np.conj(amps.swapaxes(1, 2)))) > 0.01
    man = ModelManifold(name="waves", n=3, closed_jet=partial(
        plane_wave_jets, waves=waves, amplitude=lambda A, c: amps))
    z = man.sample_points(200, seed=42)
    jet = man.jet(z)
    assert np.max(np.abs(jet.h - np.conj(jet.h.swapaxes(0, 1)))) < 1e-15
    check_jet_invariants(jet)
    dh_fd, ddh_fd = fd_jet_of_h(man, z)
    scale = max(1.0, float(np.max(np.abs(jet.dh))))
    assert np.max(np.abs(jet.dh - dh_fd)) / scale < 1e-7
    scale2 = max(1.0, float(np.max(np.abs(jet.ddh))))
    assert np.max(np.abs(jet.ddh - ddh_fd)) / scale2 < 1e-7


def test_hopf_value_at_unit_point():
    man = builtin("hopf", n=2)
    jet = man.jet(np.array([1.0, 0.0]))
    np.testing.assert_allclose(jet.h, np.diag([4.0, 4.0]), atol=1e-14)
    ginv, det = inverse_and_det(jet)
    np.testing.assert_allclose(ginv, np.diag([0.25, 0.25]), atol=1e-14)
    np.testing.assert_allclose(det, 16.0, rtol=1e-13)


def test_tricerri_value_at_unit_height():
    man = builtin("tricerri")
    jet = man.jet(np.array([1j, 0.3 + 0.1j]))
    np.testing.assert_allclose(jet.h, np.eye(2), atol=1e-14)


def test_vaisman_inverse_matches_closed_form():
    man = builtin("vaisman", m=0.0)
    # v = Im z2 = 0 so s = 0: inverse should be diag-ish with h^{zz} = y^2
    z = np.array([0.2 + 1.3j, 0.5 + 0j])
    jet = man.jet(z)
    ginv, _ = inverse_and_det(jet)
    y = 1.3
    np.testing.assert_allclose(ginv[0, 0], y ** 2, rtol=1e-13)
    np.testing.assert_allclose(ginv[1, 1], 1.0, rtol=1e-13)
    np.testing.assert_allclose(ginv[0, 1], 0.0, atol=1e-13)


def test_elliptic_inverse_closed_form():
    man = builtin("elliptic")
    z = np.array([0.4 + 0.9j, 0.7 - 0.2j])
    jet = man.jet(z)
    ginv, _ = inverse_and_det(jet)
    y, w = 0.9, 0.7 - 0.2j
    np.testing.assert_allclose(ginv[0, 0], y ** 2, rtol=1e-12)
    np.testing.assert_allclose(ginv[0, 1], -0.5j * y * np.conj(w), rtol=1e-12)
    np.testing.assert_allclose(ginv[1, 0], 0.5j * y * w, rtol=1e-12)
    np.testing.assert_allclose(ginv[1, 1], abs(w) ** 2 / 2, rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_spd_inverse_residual(n):
    rng = np.random.default_rng(123)
    a = rng.normal(size=(n, n, 40)) + 1j * rng.normal(size=(n, n, 40))
    h = np.einsum("ij...,kj...->ik...", a, np.conj(a)) + 3 * np.eye(n)[:, :, None]
    jet = MetricJet(h, None, None)
    ginv, det = inverse_and_det(jet)
    resid = np.einsum("ij...,kj...->ik...", ginv, h) - np.eye(n)[:, :, None]
    assert np.max(np.abs(resid)) < 1e-12
    assert np.all(det > 0)
    # numpy's batch-first inverse and determinant as the reference
    h_rows = np.moveaxis(h, -1, 0)
    want = np.moveaxis(np.linalg.inv(h_rows), 0, -1).swapaxes(0, 1)
    np.testing.assert_allclose(ginv, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(det, np.linalg.det(h_rows).real, rtol=1e-12)


def test_domain_violations_raise():
    with pytest.raises(DomainError):
        builtin("hopf", n=2).jet(np.array([0j, 0j]))
    with pytest.raises(DomainError):
        builtin("tricerri").jet(np.array([1.0 - 1j, 0j]))


def test_indefinite_metric_rejected():
    h = np.array([[1.0 + 0j, 0], [0, -1.0]])
    jet = MetricJet(h, np.zeros((2, 2, 2), complex), np.zeros((2, 2, 2, 2), complex))
    with pytest.raises(JetError, match="positive definite"):
        inverse_and_det(jet)


def test_vanishing_pivot_rejected():
    # positive definite, but the second LDL^H pivot is 1e-12 of the diagonal
    h = np.array([[1.0 + 0j, 1.0], [1.0, 1.0 + 1e-12]])
    with pytest.raises(JetError, match="pivot below"):
        inverse_and_det(MetricJet(h, None, None))


def test_near_floor_pivots_accepted():
    # the smallest pivot is about twice the floor: a diagonal h, and one
    # whose second pivot comes from cancellation; the inverse is still exact
    small = 2 * jets.PD_PIVOT_RTOL
    h = np.empty((2, 2, 2), complex)
    h[..., 0] = np.diag([1.0, small])
    h[..., 1] = [[1.0, 1.0], [1.0, 1.0 + small]]
    ginv, det = inverse_and_det(MetricJet(h, None, None))
    h_rows = np.moveaxis(h, -1, 0)
    want = np.moveaxis(np.linalg.inv(h_rows), 0, -1).swapaxes(0, 1)
    np.testing.assert_allclose(ginv, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    want_det = np.linalg.det(h_rows).real
    np.testing.assert_allclose(det, want_det, rtol=0,
                               atol=1e-12 * np.max(np.abs(want_det)))


def test_manifest_roundtrip(tmp_path):
    doc = {
        "name": "custom-hopf",
        "n": 2,
        "params": {},
        "metric": "h[1][1] = 4/(abs2(z1)+abs2(z2))\n"
                  "h[2][2] = 4/(abs2(z1)+abs2(z2))",
        "domain": {"kind": "punctured"},
    }
    man = manifold_from_manifest(doc)
    ref = builtin("hopf", n=2)
    z = ref.sample_points(20, seed=1)
    np.testing.assert_allclose(man.jet(z).h, ref.jet(z).h, rtol=1e-12)


def test_conformal_manifold_flattens_hopf():
    # e^{log|z|^2} * (4/|z|^2) delta = 4 delta: the flat-cover form
    man = builtin("hopf", n=2)
    flat = conformal_manifold(man, "log(abs2(z1) + abs2(z2))")
    z = man.sample_points(20, seed=4)
    jet = flat.jet(z)
    assert np.max(np.abs(jet.h - 4 * np.eye(2)[:, :, None])) < 1e-10
    assert np.max(np.abs(jet.dh)) < 1e-10
    assert np.max(np.abs(jet.ddh)) < 1e-9


def test_conformal_manifold_rejects_complex_factor():
    man = builtin("flat-torus", n=2)
    with pytest.raises(ValueError, match="real"):
        conformal_manifold(man, "z1")


def test_builtin_names_cover_catalog():
    for name in builtin_names():
        man = builtin(name)
        assert man.n >= 2


def _assert_component_fields_contiguous(jet, batch_ndim):
    # DECISIONS.md D4: every component of h, dh, ddh and ginv is one
    # C-ordered field over the batch axes, stepping one item per point
    for key in ("h", "dh", "ddh", "ginv"):
        a = getattr(jet, key)
        for idx in np.ndindex(a.shape[:a.ndim - batch_ndim]):
            assert a[idx].flags.c_contiguous, (key, idx, a.strides)
            assert a[idx].strides[-1] == a.itemsize, (key, idx, a.strides)


@pytest.mark.parametrize("points", [2500, 5000])
@pytest.mark.parametrize("path", ["jet", "expression_jet"])
@pytest.mark.parametrize("name,n", [
    ("hopf", 2), ("hopf", 3), ("flat-torus", 2), ("flat-torus", 3),
    ("elliptic", None), ("tricerri", None), ("vaisman", None),
    ("kaehler-bump", None), ("pluriclosed-bump", None)])
def test_jets_write_contiguous_component_fields(name, n, path, points):
    # small samples can hide a strided output: at 50 points the hopf ddh
    # came out contiguous while its dh did not
    man = builtin(name, n=n)
    jet = getattr(man, path)(man.sample_points(points, seed=5))
    _assert_component_fields_contiguous(jet, 1)


@pytest.mark.parametrize("name,N,params", [
    ("kaehler-bump", 8, {}), ("pluriclosed-bump", 8, {}), ("flat-torus", 4, {"n": 3})],
    ids=["kaehler-bump", "pluriclosed-bump", "flat-torus-n3"])
def test_grid_jets_write_contiguous_component_fields(name, N, params):
    gm = make_gm(name, N, **params)
    _assert_component_fields_contiguous(gm.jet, 2 * gm.n)
