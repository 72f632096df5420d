import numpy as np
import pytest

from hermcurv.curvature import (CLASS_TOL, chern_curvature, chern_torsion,
                                classify, del_del_star, einstein_residual,
                                gauduchon_curvature,
                                report_matrix, ricci_and_scalars, ricci_forms,
                                scalar_comparison_defect, scalar_via_identity,
                                torsion_diagnostics, torsion_traces)
from hermcurv.manifolds import builtin, builtin_names

BUILTINS = [
    ("flat-torus", {}),
    ("hopf", {}),
    ("elliptic", {}),
    ("tricerri", {}),
    ("vaisman", {"m": 1.0}),
    ("kaehler-bump", {}),
    ("pluriclosed-bump", {}),
]

GAUDUCHON_BUILTINS = [b for b in BUILTINS]  # every catalog metric is Gauduchon


def sample_jet(name, params, count=50, seed=2):
    man = builtin(name, **params)
    z = man.sample_points(count, seed=seed)
    return man, man.jet(z)


def test_jet_inverts_once(count_calls):
    import hermcurv.jets as jets_mod
    calls = count_calls(jets_mod, "inverse_and_det")
    _, jet = sample_jet("pluriclosed-bump", {}, count=10)
    jet.ginv, jet.det  # the first use inverts
    torsion_traces(jet)
    gauduchon_curvature(jet, 0.5)
    ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    assert len(calls) == 1


# -- torsion ------------------------------------------------------------------

def test_flat_torus_torsion_vanishes():
    _, jet = sample_jet("flat-torus", {})
    assert np.max(np.abs(chern_torsion(jet))) == 0.0


def test_kaehler_torsion_vanishes():
    _, jet = sample_jet("kaehler-bump", {})
    assert np.max(np.abs(chern_torsion(jet))) < 1e-12


def test_torsion_antisymmetry_exact():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=20)
        T = chern_torsion(jet)
        assert np.max(np.abs(T + np.swapaxes(T, 0, 1))) == 0.0


def test_hopf_torsion_closed_form():
    man = builtin("hopf", n=2)
    z = man.sample_points(30, seed=5)
    jet = man.jet(z)
    T = chern_torsion(jet)
    r = np.sum(np.abs(z) ** 2, axis=-1)
    zb = np.conj(z)
    eye = np.eye(2)
    # T_{ij}^k = (delta_{ik} conj(z_j) - delta_{jk} conj(z_i)) / |z|^2
    want = (np.einsum("ik,pj->ijkp", eye, zb) - np.einsum("jk,pi->ijkp", eye, zb))
    want /= r
    np.testing.assert_allclose(T, want, rtol=1e-12, atol=1e-13)


# -- curvature tensors ---------------------------------------------------------

def test_hopf_chern_tensor_closed_form():
    man = builtin("hopf", n=2)
    z = man.sample_points(30, seed=8)
    jet = man.jet(z)
    theta = chern_curvature(jet)
    r = np.sum(np.abs(z) ** 2, axis=-1)
    zb = np.conj(z)
    eye = np.eye(2)
    core = (eye[:, :, None] * r - np.einsum("pj,pi->ijp", z, zb))
    want = 4 * np.einsum("ijp,kl->ijklp", core, eye) / r ** 3
    np.testing.assert_allclose(theta, want, rtol=1e-11, atol=1e-12)


def test_curvature_hermitian_symmetry():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=20)
        for t in (0.0, 0.7, 1.0, -1.0):
            R = gauduchon_curvature(jet, t).R
            flip = np.conj(np.transpose(R, (1, 0, 3, 2, 4)))
            scale = max(1.0, float(np.max(np.abs(R))))
            assert np.max(np.abs(R - flip)) / scale < 1e-12, (name, t)


def test_gauduchon_at_zero_is_chern_bitwise():
    _, jet = sample_jet("tricerri", {})
    theta = chern_curvature(jet)
    curv = gauduchon_curvature(jet, 0.0)
    assert np.array_equal(curv.R, theta)


def test_kaehler_gauduchon_family_is_constant_in_t():
    _, jet = sample_jet("kaehler-bump", {}, count=20)
    theta = chern_curvature(jet)
    for t in (0.5, 1.0, -2.0):
        R = gauduchon_curvature(jet, t).R
        assert np.max(np.abs(R - theta)) < 1e-12


# -- Ricci forms and scalars ---------------------------------------------------

def test_hopf_scalars_and_ricci2():
    for n, s1_want, s2_want in ((2, 0.5, 0.25), (3, 1.5, 0.5)):
        man = builtin("hopf", n=n)
        z = man.sample_points(40, seed=3)
        jet = man.jet(z)
        ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
        np.testing.assert_allclose(ric.s1, s1_want, rtol=1e-10)
        np.testing.assert_allclose(ric.s2, s2_want, rtol=1e-10)
        want = (n - 1) / 4 * jet.h
        np.testing.assert_allclose(ric.ric2, want, rtol=1e-10, atol=1e-12)


def test_hopf_theta34_closed_form():
    man = builtin("hopf", n=2)
    z = man.sample_points(40, seed=13)
    jet = man.jet(z)
    ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    r = np.sum(np.abs(z) ** 2, axis=-1)
    want = (np.eye(2)[:, :, None] * r
            - np.einsum("pi,pj->ijp", z, np.conj(z))) / r ** 2
    np.testing.assert_allclose(report_matrix(ric.ric3), want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(report_matrix(ric.ric4), want, rtol=1e-10, atol=1e-12)


def test_ric3_is_conj_transpose_of_ric4():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=15)
        for t in (0.0, 0.6, 1.0):
            ric = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
            lhs = ric.ric3
            rhs = np.conj(np.swapaxes(ric.ric4, 0, 1))
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_ric1_ric2_hermitian():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=15)
        ric = ricci_and_scalars(gauduchon_curvature(jet, 0.3), jet)
        for m in (ric.ric1, ric.ric2):
            assert np.max(np.abs(m - np.conj(np.swapaxes(m, 0, 1)))) < 1e-11


# Scalar values of the surface examples.  They agree with the catalog's golden
# table and with the exact values of the symbolic oracle below; DECISIONS.md
# records how the earlier stored s2 constants were found wrong.
SURFACE_SCALARS = [
    ("elliptic", {}, -0.5, -0.75),
    ("tricerri", {}, -0.25, -0.5),
    ("vaisman", {"m": 0.0}, -0.5, -0.75),
    ("vaisman", {"m": 1.0}, -0.5, -1.0),
    ("vaisman", {"m": 2.0}, -0.5, -1.75),
]


@pytest.mark.parametrize("name,params,s1_want,s2_want", SURFACE_SCALARS)
def test_surface_scalars_engine_values(name, params, s1_want, s2_want):
    _, jet = sample_jet(name, params, count=40, seed=21)
    ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    np.testing.assert_allclose(ric.s1, s1_want, rtol=1e-10)
    np.testing.assert_allclose(ric.s2, s2_want, rtol=1e-10)



# Independent symbolic oracle: exact curvature of the n = 2 catalog metrics by
# sympy Wirtinger calculus on the metric matrices, sharing no code with the
# engine's expression, DSL or jet layers.  w_k stands for conj(z_k); y, v and
# lg stand for Im z1, Im z2 and log Im z1, differentiated by the chain rule.
ORACLE_SURFACES = [("flat-torus", [{}]), ("hopf", [{}]), ("elliptic", [{}]),
                   ("tricerri", [{}]),
                   ("vaisman", [{"m": 0.0}, {"m": 1.0}, {"m": 2.0}])]


def _oracle_metric(sp, name):
    """(H, d, db, conj, symbols): the metric matrix H[k, l] = h_{k lbar},
    the Wirtinger derivatives d/dz_k and d/dzbar_k, conjugation, and the
    symbols (z1, z2, w1, w2, y, v, lg, m) that H is written in."""
    z1, z2, w1, w2 = sp.symbols("z1 z2 w1 w2")
    y, v, lg, m = sp.symbols("y v lg m", real=True)
    Z, W = (z1, z2), (w1, w2)
    aux = {y: (1 / (2 * sp.I), 0), v: (0, 1 / (2 * sp.I)),
           lg: (1 / (2 * sp.I * y), 0)}  # d/dz_k; d/dzbar_k is the conjugate

    def d(f, k):
        return sp.diff(f, Z[k]) + sum(sp.diff(f, a) * dk[k]
                                      for a, dk in aux.items())

    def db(f, k):
        return sp.diff(f, W[k]) + sum(sp.diff(f, a) * sp.conjugate(dk[k])
                                      for a, dk in aux.items())

    def conj(f):
        swap = {z1: w1, w1: z1, z2: w2, w2: z2}
        return sp.conjugate(f).subs(
            {sp.conjugate(a): b for a, b in swap.items()}, simultaneous=True)

    r, s = z1 * w1 + z2 * w2, v - m * lg
    H = {"flat-torus": sp.eye(2),
         "hopf": sp.Matrix([[4 / r, 0], [0, 4 / r]]),
         "elliptic": sp.Matrix([[2 / y ** 2, -2 * sp.I / (y * w2)],
                                [2 * sp.I / (y * z2), 4 / (z2 * w2)]]),
         "tricerri": sp.Matrix([[1 / y ** 2, 0], [0, y]]),
         "vaisman": sp.Matrix([[(1 + s ** 2) / y ** 2, -s / y],
                               [-s / y, 1]])}[name]
    return H, d, db, conj, (z1, z2, w1, w2, y, v, lg, m)


def _oracle_curvature(sp, name):
    H, d, db, conj, symbols = _oracle_metric(sp, name)
    y, m = symbols[4], symbols[7]
    Hinv = H.inv().applyfunc(sp.cancel)
    g = lambda a, b: Hinv[b, a]  # h^{a bbar}
    # Theta_{i jbar} = -d_i dbar_j H + (d_i H) H^{-1} (dbar_j H), matrix in (k, l)
    dH = [H.applyfunc(lambda f: d(f, i)) for i in range(2)]
    theta = [[-dH[i].applyfunc(lambda f: db(f, j))
              + dH[i] * Hinv * H.applyfunc(lambda f: db(f, j))
              for j in range(2)] for i in range(2)]
    idx = [(i, j, k, l) for i in range(2) for j in range(2)
           for k in range(2) for l in range(2)]
    s1 = sum(g(i, j) * g(k, l) * theta[i][j][k, l] for i, j, k, l in idx)
    s2 = sum(g(i, l) * g(k, j) * theta[i][j][k, l] for i, j, k, l in idx)
    ric3_11 = sum(g(k, l) * theta[0][l][k, 0] for k in range(2) for l in range(2))
    # tau_i = T_{ip}^p; del del* omega = i M_{i jbar} dz^i ^ dzbar^j with
    # M_{i jbar} = -d_i conj(tau_j)
    tau = [sum(g(p, q) * (d(H[p, q], i) - d(H[i, q], p))
               for p in range(2) for q in range(2)) for i in range(2)]
    M = [[-d(conj(tau[j]), i) for j in range(2)] for i in range(2)]
    pairing = sum(g(i, j) * M[i][j] for i in range(2) for j in range(2))
    out = {"s1": s1, "s2": s2, "ric3_11": ric3_11, "pairing": pairing,
           "ddstar_11": M[0][0]}
    return {k: sp.cancel(e) for k, e in out.items()}, (y, m)


@pytest.mark.parametrize("name,param_sets", ORACLE_SURFACES,
                         ids=[name for name, _ in ORACLE_SURFACES])
def test_symbolic_oracle_matches_golden_table(name, param_sets):
    sp = pytest.importorskip("sympy")
    exact, (y, m) = _oracle_curvature(sp, name)
    # the scalars are constants; m stays symbolic for vaisman
    assert exact["s1"].free_symbols <= {m} and exact["s2"].free_symbols <= {m}
    assert sp.simplify(exact["pairing"] - (exact["s1"] - exact["s2"])) == 0
    for params in param_sets:
        at = {m: sp.Rational(params.get("m", 0.0))}
        golden = builtin(name, **params).golden
        for key in ("s1", "s2"):
            assert float(exact[key].subs(at)) == pytest.approx(golden[key],
                                                               abs=1e-15), key
    if name == "elliptic":
        assert sp.simplify(exact["ric3_11"] + sp.Rational(3, 4) / y ** 2) == 0
    if name == "tricerri":
        assert sp.simplify(exact["ddstar_11"] - sp.Rational(1, 4) / y ** 2) == 0
    if name == "vaisman":
        assert sp.simplify(exact["s2"] + (3 + m ** 2) / 4) == 0


@pytest.mark.parametrize("name,params", [
    ("elliptic", {}), ("tricerri", {}), ("vaisman", {"m": 1.0}), ("vaisman", {"m": 2.0}),
    ("hopf", {"n": 2})])
def test_surface_jets_match_the_symbolic_oracle(name, params):
    # every builtin without a closed form has its DSL jets checked against
    # the exact derivatives of the oracle's matrices
    sp = pytest.importorskip("sympy")
    H, d, db, _, symbols = _oracle_metric(sp, name)
    man = builtin(name, **params)
    z = man.sample_points(60, seed=9)
    jet = man.jet(z)
    y = z[:, 0].imag
    with np.errstate(invalid="ignore"):  # hopf's points have Im z1 < 0 too; its H has no log
        lg = np.log(y)
    values = (*z.T, *np.conj(z.T), y, z[:, 1].imag, lg, params.get("m", 0.0))
    exact = {"h": lambda j, l: H[j, l], "dh": lambda i, j, l: d(H[j, l], i),
             "ddh": lambda i, j, k, l: db(d(H[k, l], i), j)}
    for key, entry in exact.items():
        got = getattr(jet, key)
        for idx in np.ndindex(got.shape[:-1]):
            want = sp.lambdify(symbols, entry(*idx), "numpy")(*values)
            dev = np.abs(got[idx] - want)
            assert np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(want))), (key, idx)


def test_tricerri_theta1_coefficient():
    man = builtin("tricerri")
    z = np.array([[0.3 + 0.8j, 0.2 + 0.1j], [1j, 0j]])
    jet = man.jet(z)
    ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    y = z[:, 0].imag
    np.testing.assert_allclose(ric.ric1[0, 0], -1 / (4 * y ** 2), rtol=1e-12)
    np.testing.assert_allclose(ric.ric1[1, 1], 0, atol=1e-13)


# -- torsion diagnostics --------------------------------------------------------

def test_tricerri_diagnostics_closed_form():
    man = builtin("tricerri")
    z = np.array([[0.5 + 1.2j, -0.3 + 0.4j]])
    jet = man.jet(z)
    diag = torsion_diagnostics(jet)
    y = 1.2
    np.testing.assert_allclose(diag.tau[:, 0], [-0.5j / y, 0], atol=1e-13)
    # del* omega = -i conj(tau_j) dzbar^j = (1/(2y)) dzbar^1 in the trace normalization
    np.testing.assert_allclose(-1j * np.conj(diag.tau[:, 0]), [0.5 / y, 0], atol=1e-13)
    np.testing.assert_allclose(diag.del_star_sq[0], 0.25, rtol=1e-12)
    np.testing.assert_allclose(diag.del_omega_sq[0], 0.25, rtol=1e-12)
    np.testing.assert_allclose(diag.pairing[0], 0.25, rtol=1e-12)
    # del del* omega = (i/(4y^2)) dz^1 ^ dzbar^1
    want = np.zeros((2, 2))
    want[0, 0] = 1 / (4 * y ** 2)
    np.testing.assert_allclose(del_del_star(jet)[:, :, 0], want, atol=1e-13)
    # Lee form is dy/y: real components (x1, y1, x2, y2)
    np.testing.assert_allclose(diag.lee[:, 0], [0, 1 / y, 0, 0], atol=1e-12)


def test_elliptic_del_star_components():
    man = builtin("elliptic")
    z = np.array([[0.1 + 0.9j, 0.8 - 0.5j]])
    jet = man.jet(z)
    diag = torsion_diagnostics(jet)
    y, w = 0.9, 0.8 - 0.5j
    want = np.array([1 / (2 * y), -1j / np.conj(w)])
    np.testing.assert_allclose(-1j * np.conj(diag.tau[:, 0]), want, rtol=1e-12)


def test_vaisman_del_star_components():
    man = builtin("vaisman", m=1.5)
    z = np.array([[0.4 + 1.1j, 0.2 + 0.7j]])
    jet = man.jet(z)
    diag = torsion_diagnostics(jet)
    y, v, m = 1.1, 0.7, 1.5
    s = v - m * np.log(y)
    want = np.array([(1 + m * s) / (2 * y), -m / 2])
    np.testing.assert_allclose(-1j * np.conj(diag.tau[:, 0]), want, rtol=1e-12, atol=1e-13)


def test_balanced_metric_has_zero_lee_and_del_star():
    _, jet = sample_jet("kaehler-bump", {}, count=20)
    diag = torsion_diagnostics(jet)
    assert np.max(np.abs(-1j * np.conj(diag.tau))) < 1e-12
    assert np.max(np.abs(diag.lee)) < 1e-10


def test_ddstar_matches_theta1_minus_theta3():
    # del del* omega = Theta^(1) - Theta^(3) at t = 0, along independent paths
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=25)
        ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
        lhs = del_del_star(jet)
        rhs = ric.ric1 - ric.ric3
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-11, name


def test_pairing_equals_s1_minus_s2():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=25)
        ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
        diag = torsion_diagnostics(jet)
        np.testing.assert_allclose(diag.pairing, ric.s1 - ric.s2,
                                   rtol=1e-9, atol=1e-11)


def test_lee_defining_equation():
    # reconstructed eta satisfies d(omega^{n-1}) = eta ^ omega^{n-1}
    from hermcurv import forms
    for name, params in (("tricerri", {}), ("hopf", {}), ("vaisman", {"m": 1.0}),
                         ("pluriclosed-bump", {}), ("hopf", {"n": 3})):
        man = builtin(name, **params)
        z = man.sample_points(20, seed=6)
        jet = man.jet(z)
        eta = forms.lee_form(jet)
        n = man.n
        lhs = forms.del_omega_power(jet, n - 1)
        eta_form = forms.PQForm(n, 1, 0, {((i,), ()): eta[i] for i in range(n)})
        rhs = eta_form.wedge(forms.omega_power(jet, n - 1))
        worst = 0.0
        for key, v in lhs.coeffs.items():
            w = rhs.coeffs.get(key, np.zeros_like(v))
            worst = max(worst, float(np.max(np.abs(v - w))))
        for key, w in rhs.coeffs.items():
            if key not in lhs.coeffs:
                worst = max(worst, float(np.max(np.abs(w))))
        assert worst < 1e-9, name


def test_lee_holomorphic_part_is_torsion_trace():
    # the (1,0)-part of the Lee form, solved from its defining equation,
    # equals the torsion trace tau_i of the fused pass independently of n
    # (hand-checked on the 4 delta/|z|^2 metric)
    from hermcurv import forms
    for name, params in (("tricerri", {}), ("hopf", {}), ("hopf", {"n": 3}),
                         ("elliptic", {}), ("pluriclosed-bump", {})):
        man = builtin(name, **params)
        z = man.sample_points(15, seed=10)
        jet = man.jet(z)
        np.testing.assert_allclose(forms.lee_form(jet), torsion_traces(jet).tau,
                                   rtol=1e-9, atol=1e-10)


# -- identity suites ------------------------------------------------------------

@pytest.mark.parametrize("t", [-1.0, 0.0, 0.3, 1.0, 2.0])
def test_two_path_scalars(t):
    # the fused pass never builds R; the full-tensor path is its oracle
    for name, params in BUILTINS + [("hopf", {"n": 3})]:
        _, jet = sample_jet(name, params, count=50, seed=17)
        ric = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
        s1_id, s2_id = scalar_via_identity(jet, t)
        for want, got in ((ric.s1, s1_id), (ric.s2, s2_id)):
            dev = np.abs(want - got) / np.maximum(1.0, np.abs(want))
            assert np.max(dev) <= 1e-12, (name, params, t)


def test_ricci_forms_match_full_tensor_oracle():
    # the batch-last Ricci pass never builds R; the full tensor is its oracle.
    # One pass over several t gives, bit for bit, the pass at each t alone.
    ts = (-1.0, 0.0, 0.5, 1.0)
    for name, params in BUILTINS + [("hopf", {"n": 3})]:
        _, jet = sample_jet(name, params, count=50, seed=23)
        for t, got in zip(ts, ricci_forms(jet, ts), strict=True):
            want = ricci_and_scalars(gauduchon_curvature(jet, t), jet)
            alone, = ricci_forms(jet, [t])
            assert got.t == t and alone.t == t
            for key in ("ric1", "ric2", "ric3", "ric4", "s1", "s2"):
                a, b = getattr(want, key), getattr(got, key)
                assert a.shape == b.shape, (name, key)
                dev = np.abs(a - b) / np.maximum(1.0, np.abs(a))
                assert np.max(dev) <= 1e-12, (name, params, t, key)
                assert np.array_equal(b, getattr(alone, key)), (name, params, t, key)


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.3, 0.5, 1.0, 2.0])
def test_comparison_identity_on_gauduchon_builtins(t):
    for name, params in GAUDUCHON_BUILTINS:
        _, jet = sample_jet(name, params, count=40, seed=19)
        defect, = scalar_comparison_defect(jet, [t])
        assert np.max(np.abs(defect)) < 1e-8, (name, t)


def test_n2_norm_identity():
    # in complex dimension two |del omega|^2 = |delbar* omega|^2
    for name, params in BUILTINS:
        man = builtin(name, **params)
        if man.n != 2:
            continue
        _, jet = sample_jet(name, params, count=30)
        diag = torsion_diagnostics(jet)
        np.testing.assert_allclose(diag.del_omega_sq,
                                   diag.del_star_sq,
                                   rtol=1e-9, atol=1e-12)


def test_comparison_defect_reduces_to_n2_form():
    # (3t-1)(t-1)|del omega|^2 equals (t^2-4t+1)|dbar* w|^2 + 2t^2 |dw|^2 at n=2
    _, jet = sample_jet("tricerri", {}, count=20)
    diag = torsion_diagnostics(jet)
    for t in (-1.0, 0.25, 0.9, 2.0):
        lhs = (3 * t - 1) * (t - 1) * diag.del_omega_sq
        rhs = ((t * t - 4 * t + 1) * diag.del_star_sq
               + 2 * t * t * diag.del_omega_sq)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


# -- einstein residual ---------------------------------------------------------

def test_einstein_cross_check_is_tight():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=25)
        rep = einstein_residual(jet)
        assert np.max(rep.cross_defect) < 1e-9, name


def test_einstein_residual_tricerri():
    man = builtin("tricerri")
    z = np.array([[0.1 + 0.7j, 0.4 + 0.2j]])
    jet = man.jet(z)
    rep = einstein_residual(jet)
    y = 0.7
    # engine Theta3 = Theta1 - dd* = -(1/(2y^2)) on dz^1 dzbar^1
    np.testing.assert_allclose(rep.theta3[0, 0, 0], -1 / (2 * y ** 2), rtol=1e-11)
    np.testing.assert_allclose(rep.f_hat[0], -0.5, rtol=1e-11)
    assert rep.residual[0] > 0.05  # not weak second Hermitian-Einstein


def test_kaehler_einstein_flat_residual_zero():
    _, jet = sample_jet("flat-torus", {})
    rep = einstein_residual(jet)
    assert np.max(rep.residual) < 1e-13
    np.testing.assert_allclose(rep.f_hat, 0.0, atol=1e-13)


# -- classification --------------------------------------------------------------

def test_pq_norm2_matches_the_uncached_loop():
    # the Gram determinants are computed once per index pair; the sum is the
    # same products in the same order as the loop that recomputed them
    from hermcurv import forms

    def norm2_loop(form, ginv):
        keys = list(form.coeffs)
        total = 0.0
        for (I1, J1) in keys:
            v1 = form.coeffs[(I1, J1)]
            for (I2, J2) in keys:
                v2 = form.coeffs[(I2, J2)]
                gi = forms._gram_det(ginv, I1, I2)
                gj = np.conj(forms._gram_det(ginv, J1, J2))
                total = total + v1 * np.conj(v2) * gi * gj
        return np.real(total)

    for name, params in (("hopf", {}), ("hopf", {"n": 3}), ("pluriclosed-bump", {})):
        _, jet = sample_jet(name, params, count=20, seed=29)
        n = jet.n
        for form in (forms.del_omega(jet), forms.del_delbar_omega(jet),
                     forms.del_delbar_omega_power(jet, n - 1)):
            assert np.array_equal(form.norm2(jet.ginv), norm2_loop(form, jet.ginv))


def _generic_manifest(n):
    """A manifest metric that is neither Gauduchon nor pluriclosed, with
    non-holomorphic entries on and off the diagonal."""
    from hermcurv.dsl import parse_metric
    from hermcurv.manifolds import ModelManifold
    r = range(1, n + 1)
    lines = []
    for i in r:
        mixed = " + ".join(f"0.0{(i + a + 2 * b) % 5 + 1}*re(z{a}*zb{b})"
                           for a in r for b in r if a != b)
        others = " + ".join(f"abs2(z{k})/{k + 2}" for k in r if k != i)
        lines.append(f"h[{i}][{i}] = {i + 1} + re(z{i})/5 + {others} + {mixed}")
        for j in range(i + 1, n + 1):
            quad = " + ".join(f"0.0{(i + 2 * j + 3 * a + 5 * b) % 7 + 1}*z{a}*zb{b}"
                              for a in r for b in r)
            lines.append(f"h[{i}][{j}] = 0.1*i*zb{i} + 0.05*re(z{j}) + {quad}")
    return ModelManifold(name=f"generic-{n}", n=n,
                         metric_expr=parse_metric("\n".join(lines), n))


def test_class_residuals_match_the_forms_oracle():
    # the trace pass's closed-form Gauduchon and pluriclosed residuals against
    # the exterior-algebra engine; every catalog residual at n = 2 is 0, so
    # generic manifests pin the nonzero case at n = 2, 3 and 4
    from hermcurv import forms
    mans = [builtin(name) for name in builtin_names()]
    mans += [builtin("hopf", n=3), builtin("hopf", n=4)]
    mans += [_generic_manifest(n) for n in (2, 3, 4)]
    for man in mans:
        jet = man.jet(man.sample_points(20, seed=31))
        tr = torsion_traces(jet)
        n = man.n
        pluri = np.sqrt(np.maximum(forms.del_delbar_omega(jet).norm2(jet.ginv), 0.0))
        gaud = np.sqrt(np.maximum(
            forms.del_delbar_omega_power(jet, n - 1).norm2(jet.ginv), 0.0))
        if man.name.startswith("generic"):
            assert min(np.min(gaud), np.min(pluri)) > 1e-3, man.name
        for want, got in ((gaud, tr.gauduchon), (pluri, tr.pluriclosed)):
            assert got.shape == want.shape, (man.name, n)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), \
                (man.name, n)


def test_classify_flat_torus_all_hold():
    man = builtin("flat-torus", n=2)
    res = classify(man, man.sample_points(10, seed=1))
    for name, resid in res.items():
        assert resid < CLASS_TOL and resid < 1e-12, name


def test_classify_hopf():
    man = builtin("hopf", n=2)
    res = classify(man, man.sample_points(40, seed=2))
    assert res["gauduchon"] < CLASS_TOL
    assert not res["kahler"] < CLASS_TOL and res["kahler"] > 0.1
    assert not res["balanced"] < CLASS_TOL
    assert res["pluriclosed"] < CLASS_TOL  # n = 2 only
    man3 = builtin("hopf", n=3)
    res3 = classify(man3, man3.sample_points(25, seed=2))
    assert res3["gauduchon"] < CLASS_TOL
    assert not res3["pluriclosed"] < CLASS_TOL
    assert not res3["kahler"] < CLASS_TOL


def test_classify_tricerri_and_vaisman():
    for name, params in (("tricerri", {}), ("vaisman", {"m": 1.0})):
        man = builtin(name, **params)
        res = classify(man, man.sample_points(30, seed=3))
        assert res["gauduchon"] < CLASS_TOL, name
        assert not res["kahler"] < CLASS_TOL and res["kahler"] > 0.1, name


def test_classify_kaehler_bump():
    man = builtin("kaehler-bump")
    res = classify(man, man.sample_points(30, seed=4))
    assert res["kahler"] < CLASS_TOL and res["balanced"] < CLASS_TOL
    assert res["gauduchon"] < CLASS_TOL


def test_classify_pluriclosed_bump():
    man = builtin("pluriclosed-bump")
    res = classify(man, man.sample_points(30, seed=5))
    assert res["gauduchon"] < CLASS_TOL and res["pluriclosed"] < CLASS_TOL
    assert not res["balanced"] < CLASS_TOL
    assert not res["kahler"] < CLASS_TOL


def test_classify_residual_dominance():
    # gauduchon residual is controlled by the balanced residual is controlled
    # by the kahler residual, up to moderate constants
    for name, params in BUILTINS:
        man = builtin(name, **params)
        res = classify(man, man.sample_points(25, seed=7))
        rk, rb, rg = res["kahler"], res["balanced"], res["gauduchon"]
        C = 50.0
        assert rb <= C * rk + 1e-12
        assert rg <= C * rb + 1e-12


def test_einstein_trace_identity():
    # n * f_hat = 2 * s2 as computed, up to one rounding
    for name, params in (("hopf", {}), ("hopf", {"n": 3}), ("vaisman", {"m": 1.0})):
        man = builtin(name, **params)
        z = man.sample_points(10, seed=12)
        jet = man.jet(z)
        rep = einstein_residual(jet)
        ric, = ricci_forms(jet, [0.0])  # the pass einstein_residual reads
        np.testing.assert_allclose(man.n * rep.f_hat, 2 * ric.s2, rtol=1e-15)


def test_kaehler_einstein_metric_has_zero_einstein_residual():
    # Fubini-Study-type potential log(1 + |z|^2): ric1 = (n+1) h, so the
    # weak second Hermitian-Einstein residual vanishes and f_hat = 2(n+1)
    from hermcurv.dsl import parse_metric
    from hermcurv.manifolds import ModelManifold
    src = """
h[1][1] = 1/(1 + abs2(z1) + abs2(z2)) - zb1*z1/pow(1 + abs2(z1) + abs2(z2), 2)
h[1][2] = -zb1*z2/pow(1 + abs2(z1) + abs2(z2), 2)
h[2][2] = 1/(1 + abs2(z1) + abs2(z2)) - zb2*z2/pow(1 + abs2(z1) + abs2(z2), 2)
"""
    man = ModelManifold(name="fubini-study", n=2, metric_expr=parse_metric(src, 2))
    z = man.sample_points(15, seed=2)
    jet = man.jet(z)
    rep = einstein_residual(jet)
    assert np.max(rep.residual) < 1e-9
    np.testing.assert_allclose(rep.f_hat, 2 * (2 + 1), rtol=1e-10)
    ric = ricci_and_scalars(gauduchon_curvature(jet, 0.0), jet)
    np.testing.assert_allclose(ric.ric1, 3 * jet.h, rtol=1e-9, atol=1e-11)


def test_diagnostic_norms_nonnegative_and_pairing_real():
    for name, params in BUILTINS:
        _, jet = sample_jet(name, params, count=20)
        diag = torsion_diagnostics(jet)
        assert np.min(diag.del_star_sq) >= 0
        assert np.min(diag.del_omega_sq) >= -1e-14
        assert np.isrealobj(diag.pairing)
