import numpy as np
import pytest

from hermcurv import expr as ex
from hermcurv.dsl import parse_expr
from hermcurv.manifolds import _differentiate_metric, builtin, builtin_names


def wirt_fd(e, z, k, bar=False, step=1e-6, params=None):
    """Central-difference Wirtinger derivative of an expression tree."""
    dx = np.zeros_like(z)
    dx[..., k] = step
    dy = np.zeros_like(z)
    dy[..., k] = 1j * step
    fxp = ex.evaluate(e, z + dx, params)
    fxm = ex.evaluate(e, z - dx, params)
    fyp = ex.evaluate(e, z + dy, params)
    fym = ex.evaluate(e, z - dy, params)
    ddx = (fxp - fxm) / (2 * step)
    ddy = (fyp - fym) / (2 * step)
    return 0.5 * (ddx - 1j * ddy) if not bar else 0.5 * (ddx + 1j * ddy)


def test_wirtinger_rules_trivial():
    # d/dz1 abs2(z1) = conj(z1); independent variables differentiate to zero
    d = ex.wirtinger_derivative(ex.Abs2(ex.Z(0)), 0)
    z = np.array([[0.3 + 0.2j, -1.0 + 0.5j]])
    np.testing.assert_allclose(ex.evaluate(d, z), np.conj(z[..., 0]))
    assert ex.wirtinger_derivative(ex.Exp(ex.Z(1)), 0) == ex.ZERO
    assert ex.wirtinger_derivative(ex.Z(0), 0, bar=True) == ex.ZERO
    assert ex.wirtinger_derivative(ex.Zb(0), 0) == ex.ZERO


def test_dzbar_of_inverse_abs2_matches_fd():
    # d/dzbar1 of 1/abs2(z1) = -z1/abs2(z1)^2, checked against central FD
    e = parse_expr("1/abs2(z1)", 2)
    d = ex.wirtinger_derivative(e, 0, bar=True)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)) + (1 + 1j)
    got = ex.evaluate(d, z)
    want = -z[..., 0] / (np.abs(z[..., 0]) ** 2) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(got, wirt_fd(e, z, 0, bar=True, step=1e-5),
                               rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("src", [
    "exp(z1*zb2) + log(abs2(z1) + 1)",
    "re(z1)*im(z2) - abs2(z1 - z2)/2",
    "pow(z1 + conj(z2), 3)/(1 + abs2(z2))",
    "im(exp(i*(re(z1) + 2*im(z2))))",
])
@pytest.mark.parametrize("k,bar", [(0, False), (1, False), (0, True), (1, True)])
def test_symbolic_matches_fd(src, k, bar):
    e = parse_expr(src, 2)
    d = ex.wirtinger_derivative(e, k, bar=bar)
    rng = np.random.default_rng(11)
    z = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)) + (0.7 + 0.3j)
    np.testing.assert_allclose(ex.evaluate(d, z), wirt_fd(e, z, k, bar=bar),
                               rtol=2e-7, atol=2e-7)


def test_second_derivatives_commute():
    e = parse_expr("exp(re(z1)*im(z2))/(1 + abs2(z1))", 2)
    d1 = ex.wirtinger_derivative(ex.wirtinger_derivative(e, 0), 1, bar=True)
    d2 = ex.wirtinger_derivative(ex.wirtinger_derivative(e, 1, bar=True), 0)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    np.testing.assert_allclose(ex.evaluate(d1, z), ex.evaluate(d2, z),
                               rtol=1e-12, atol=1e-12)


def test_formal_conj_is_numeric_conj():
    e = parse_expr("exp(z1*zb2) + i*re(z2) + pow(z1, 2)/(1 + abs2(z2))", 2)
    c = ex.formal_conj(e)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    np.testing.assert_allclose(ex.evaluate(c, z), np.conj(ex.evaluate(e, z)),
                               rtol=1e-13)


def test_constructed_tree_equals_and_hashes_like_the_parsed_one():
    # parse_metric's Hermitian check and conformal_manifold's reality check
    # compare simplified trees by value
    built = ex.Sub(ex.Mul(ex.Param("m"), ex.Pow(ex.Zb(1), -2)),
                   ex.Div(ex.Num(4), ex.Add(ex.Abs2(ex.Z(0)), ex.Exp(ex.Num(1j)))))
    parsed = parse_expr("pow(zb2, -2)*m - 4/(abs2(z1) + exp(i))", 2)
    assert built is not parsed
    assert built == parsed and hash(built) == hash(parsed)
    assert ex.simplify(built) == built


def test_nodes_are_set_and_dict_keys():
    srcs = ["z1", "zb1", "z2", "0", "1", "i", "m", "pow(z1, 2)", "pow(z1, 3)",
            "abs2(z1)", "re(z1)", "conj(z1*z2)", "z1 + z2", "z1*z2", "-z1"]
    nodes = [parse_expr(src, 2) for src in srcs]
    assert len(set(nodes)) == len(srcs)
    table = {node: src for node, src in zip(nodes, srcs)}
    assert [table[parse_expr(src, 2)] for src in srcs] == srcs
    # a payload alone does not identify a node; the sign of a zero does not count
    assert ex.Z(1) not in {ex.Num(1)} and ex.Param("m") not in {ex.Num(0)}
    assert ex.Num(-0.0) in {ex.ZERO} and {ex.Num(-0.0): 1}[ex.ZERO] == 1


@pytest.mark.parametrize("field", ["op", "args", "value", "other"])
def test_nodes_are_immutable(field):
    node = parse_expr("pow(z1 + m, 2)", 2)
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    assert ex.to_source(node) == "pow(m + z1, 2)"


def test_print_parse_roundtrip():
    srcs = [
        "4/(abs2(z1) + abs2(z2))",
        "-(im(z2) - m*log(im(z1)))/im(z1)",
        "pow(z1 + conj(z2), -2)*exp(i*re(z1))",
    ]
    for src in srcs:
        tree = parse_expr(src, 2)
        again = parse_expr(ex.to_source(tree), 2)
        assert tree == again


def _leaves(tree):
    return [t for u in tree for t in _leaves(u)] if isinstance(tree, list) else [tree]


@pytest.mark.parametrize("name,n", [(name, 2) for name in builtin_names()]
                         + [("hopf", 3), ("flat-torus", 3)])
def test_builtin_trees_print_and_parse_back(name, n):
    # the DSL metric and symbolic 2-jet of every builtin; a right-nested sum
    # once printed without parentheses and parsed back left-nested
    trees = _leaves(list(_differentiate_metric(builtin(name, n=n).dsl_metric())))
    assert len(trees) == n * n * (1 + n + n * n)
    bad = [ex.to_source(t) for t in trees if parse_expr(ex.to_source(t), n) != t]
    assert bad == []
