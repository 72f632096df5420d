import random

import numpy as np
import pytest

from hermcurv import expr as ex
from hermcurv.dsl import MetricExpr, ParseError, parse_expr, parse_metric


HOPF2 = """
h[1][1] = 4/(abs2(z1) + abs2(z2))
h[2][2] = 4/(abs2(z1) + abs2(z2))
"""


def test_parse_hopf_diagonal():
    mx = parse_metric(HOPF2, 2)
    z = np.array([[1.0 + 0j, 0j]])
    v = ex.evaluate(mx.entries[0][0], z)
    np.testing.assert_allclose(v, 4.0)
    assert mx.entries[0][1] == ex.ZERO


def test_dimension_one_rejected():
    with pytest.raises(ParseError, match="n >= 2"):
        parse_metric("h[1][1] = 1", 1)


def test_non_hermitian_pair_rejected():
    with pytest.raises(ParseError, match="non-Hermitian"):
        parse_metric("h[1][1] = 1; h[2][2] = 1; h[1][2] = z1; h[2][1] = z1", 2)


def test_hermitian_pair_accepted_and_mirrored():
    mx = parse_metric("h[1][1] = 2; h[2][2] = 3; h[1][2] = i*z1*zb2", 2)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    lo = ex.evaluate(mx.entries[1][0], z)
    hi = ex.evaluate(mx.entries[0][1], z)
    np.testing.assert_allclose(lo, np.conj(hi), rtol=1e-13)


def test_both_halves_consistent():
    mx = parse_metric(
        "h[1][1] = 1; h[2][2] = 1; h[1][2] = i*z1; h[2][1] = -i*zb1", 2)
    assert mx.n == 2


def test_syntax_error_is_positioned():
    with pytest.raises(ParseError, match=r"line 2"):
        parse_metric("h[1][1] = 1\nh[2][2] = 1 + * 2", 2)


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_metric("h[1][1] = 1; h[2][2] = 1; h[3][1] = 0", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_metric("h[1][1] = z3; h[2][2] = 1", 2)


def test_missing_diagonal_rejected():
    with pytest.raises(ParseError, match="diagonal"):
        parse_metric("h[1][1] = 1", 2)


def test_nonreal_diagonal_rejected():
    with pytest.raises(ParseError, match="not real"):
        parse_metric("h[1][1] = i + re(z1); h[2][2] = 1", 2)


def test_metric_source_roundtrip():
    mx = parse_metric("h[1][1] = 1 + abs2(z2); h[2][2] = 2; h[1][2] = i*z2*zb1", 2)
    again = parse_metric(mx.to_source(), 2)
    for i in range(2):
        for j in range(2):
            assert ex.simplify(mx.entries[i][j]) == ex.simplify(again.entries[i][j])
    assert isinstance(again, MetricExpr)


# the DSL's characters, plus whole tokens so that some strings parse
_PIECES = (list("azZ_019.+-*/()[],=; \t\n")
           + ["z1", "zb2", "i", "m", "lambda", "007", "2.5e-1", "pow(", "exp(", "abs2(",
              "im", ", 2)", ", -1)", ",)", "h[", "h[1][", "h[1][1] = ", "h[2][2] = ", "\n"])


def test_parsers_raise_nothing_but_parse_error():
    # a string either parses, and its trees print and parse back, or it is a
    # ParseError; a metric ending in "h[" once raised IndexError
    rng = random.Random(33)
    parsed = 0
    for _ in range(5000):
        src = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12)))
        for text in (src, f"h[1][1] = 1\nh[2][2] = {src}"):
            try:
                trees = [parse_expr(text, 2)]
            except ParseError:
                trees = []
            try:
                trees += [e for row in parse_metric(text, 2).entries for e in row]
            except ParseError:
                pass
            for tree in trees:
                assert parse_expr(ex.to_source(tree), 2) == tree, text
            parsed += len(trees)
    assert parsed > 1000


@pytest.mark.parametrize("src,want", [
    ("007", ex.Num(7)),
    ("z01", ex.Z(0)),
    ("pow(z1, - 2)", ex.Pow(ex.Z(0), -2)),
    ("lambda + if", ex.Add(ex.Param("if"), ex.Param("lambda"))),
    ("True*None", ex.Mul(ex.Param("None"), ex.Param("True"))),
])
def test_accepted_edges(src, want):
    # Python would refuse or misread each of these; the DSL never did
    assert parse_expr(src, 2) == want
    mx = parse_metric(f"h[01][1] = 1 + abs2({src})\nh[2][2] = 1", 2)
    assert mx.entries[0][0] == ex.simplify(ex.Add(1, ex.Abs2(want)))


@pytest.mark.parametrize("src", [
    "h[2][2] = im", "h[2][2] = abs2(z1,)", "h[2][2] = z1**2", "h[2][2] = z1//2",
    "h[2][2] = z1%2", "h[2][2] = 0x10", "h[2][2] = 1_0", "h[2][2] = 1j",
    "h[2][2] = z1.real", "h[2][2] = 1 # c", "h[2][2] = 1\r\n", "h[2][2] = \u03b1",
    "h[2][2] = pow(z1, 2.0)", "h[1.0][1] = 1", "h[1][1] += 1",
    "h[2][2] = 1 h[1][2] = 0",
])
def test_refused_edges(src):
    # Python accepts most of these and the DSL never did; the last runs two
    # assignments together without a separator, refused on purpose
    # (DECISIONS.md D16)
    with pytest.raises(ParseError, match=r"\(line 2, col \d+\)"):
        parse_metric(f"h[1][1] = 1\n{src}", 2)
