"""Parser for the metric coefficient DSL and the JSON manifest format.

A metric source is a list of assignments, one per Hermitian coefficient,
separated by newlines or semicolons::

    h[1][1] = 4/(abs2(z1) + abs2(z2))
    h[1][2] = 0
    h[2][2] = 4/(abs2(z1) + abs2(z2))

Expression syntax: numeric literals, the imaginary unit ``i``, coordinates
``z<k>`` and conjugates ``zb<k>`` (1-based), real parameter names, unary
minus, ``+ - * /``, ``pow(e, int)``, and ``exp log re im abs2 conj``.

Hermitian symmetry policy: the diagonal must be assigned; for an
off-diagonal pair (i, j) either one entry is given (the mirror is filled
with its formal conjugate), both are given (checked for consistency,
mismatch is an error), or neither is given (both default to 0).
"""

from __future__ import annotations

import json
import re as _re
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = ["MetricExpr", "ParseError", "parse_expr", "parse_metric", "load_manifest"]

_FUNCS = {"exp": ex.Exp, "log": ex.Log, "re": ex.Re, "im": ex.Im,
          "abs2": ex.Abs2, "conj": ex.Conj}

_TOKEN = _re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/()\[\],=;])
  | (?P<ws>[ \t]+)
  | (?P<nl>\n)
""", _re.VERBOSE)


class ParseError(ValueError):
    """Syntax or structural error, annotated with line and column."""

    def __init__(self, msg, line=None, col=None):
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks, line, col, pos = [], 1, 1, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            toks.append(_Tok("op", ";", line, col))
            line += 1
            col = 1
        elif kind != "ws":
            toks.append(_Tok(kind, text, line, col))
            col += len(text)
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], n: int):
        self.toks = toks
        self.i = 0
        self.n = n

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # expr := term (('+'|'-') term)*
    def expr(self) -> ex.Expr:
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            node = ex.Add(node, rhs) if op == "+" else ex.Sub(node, rhs)
        return node

    def term(self) -> ex.Expr:
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.unary()
            node = ex.Mul(node, rhs) if op == "*" else ex.Div(node, rhs)
        return node

    def unary(self) -> ex.Expr:
        if self.peek().text == "-":
            self.next()
            return ex.Neg(self.unary())
        if self.peek().text == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self) -> ex.Expr:
        t = self.next()
        if t.kind == "num":
            try:
                return ex.Num(float(t.text))
            except ValueError:
                raise ParseError(f"literal {t.text} is not a finite number",
                                 t.line, t.col) from None
        if t.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "name":
            name = t.text
            if name == "i":
                return ex.Num(1j)
            if name == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                m = self._int_literal()
                self.expect(")")
                return ex.Pow(base, m)
            if name in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _FUNCS[name](arg)
            zm = _re.fullmatch(r"z(\d+)", name)
            if zm:
                return ex.Z(self._coord_index(zm.group(1), t))
            zbm = _re.fullmatch(r"zb(\d+)", name)
            if zbm:
                return ex.Zb(self._coord_index(zbm.group(1), t))
            return ex.Param(name)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def _int_literal(self) -> int:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        t = self.next()
        if t.kind != "num" or not _re.fullmatch(r"\d+", t.text):
            raise ParseError("pow exponent must be an integer literal", t.line, t.col)
        return sign * int(t.text)

    def _coord_index(self, digits: str, t: _Tok) -> int:
        k = int(digits)
        if not 1 <= k <= self.n:
            raise ParseError(f"coordinate index {k} out of range for n={self.n}",
                             t.line, t.col)
        return k - 1


def parse_expr(src: str, n: int) -> ex.Expr:
    """Parse a single expression over z1..zn."""
    p = _Parser(_tokenize(src), n)
    while p.peek().text == ";":
        p.next()
    start = p.peek()
    node = p.expr()
    while p.peek().text == ";":
        p.next()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return _simplify(node, start)


def _simplify(node: ex.Expr, at: _Tok) -> ex.Expr:
    """`ex.simplify`, with a constant that has no finite value a ParseError at `at`."""
    try:
        return ex.simplify(node)
    except ValueError as err:
        raise ParseError(str(err), at.line, at.col) from None


@dataclass
class MetricExpr:
    """Parsed, Hermitian-normalized n x n array of coefficient trees."""

    n: int
    entries: list  # entries[i][j] is the tree for h_{i jbar}
    params: tuple = field(default_factory=tuple)

    def to_source(self) -> str:
        lines = []
        for i in range(self.n):
            for j in range(self.n):
                lines.append(f"h[{i + 1}][{j + 1}] = {ex.to_source(self.entries[i][j])}")
        return "\n".join(lines)


def _param_names(e: ex.Expr, out: set):
    if e.op == "Param":
        out.add(e.value)
    for a in e.args:
        _param_names(a, out)


def _numeric_equal(a: ex.Expr, b: ex.Expr, n: int, params: set) -> bool:
    rng = np.random.default_rng(20240811)
    z = rng.normal(size=(24, n)) + 1j * rng.normal(size=(24, n))
    z += 0.5 + 0.5j  # keep clear of log/abs2 singularities at the origin
    vals = {p: 0.734 + 0.1 * k for k, p in enumerate(sorted(params))}
    with np.errstate(all="ignore"):
        va = ex.evaluate(a, z, vals)
        vb = ex.evaluate(b, z, vals)
    ok = np.isfinite(va) & np.isfinite(vb)
    if not ok.any():
        return False
    return bool(np.allclose(va[ok], vb[ok], rtol=1e-9, atol=1e-9))


def parse_metric(text: str, n: int) -> MetricExpr:
    """Parse a metric source into Hermitian-normalized coefficient trees.

    Raises ParseError on syntax errors (position-annotated), bad dimension
    (n >= 2 is required), index out of range, a missing diagonal entry, or
    an off-diagonal pair that is not formally conjugate.
    """
    if n < 2:
        raise ParseError(f"complex dimension n={n}: n >= 2 is required")
    toks = _tokenize(text)
    p = _Parser(toks, n)
    given: dict[tuple, ex.Expr] = {}
    while p.peek().kind != "eof":
        if p.peek().text == ";":
            p.next()
            continue
        t = p.next()
        if t.kind != "name" or t.text != "h":
            raise ParseError(f"expected assignment 'h[i][j] = ...', found {t.text!r}",
                             t.line, t.col)
        p.expect("[")
        ti = p.next()
        p.expect("]")
        p.expect("[")
        tj = p.next()
        p.expect("]")
        p.expect("=")
        try:
            ij = (int(ti.text), int(tj.text))
        except ValueError:
            raise ParseError("entry indices must be integers", ti.line, ti.col) from None
        for k, tk in zip(ij, (ti, tj)):
            if not 1 <= k <= n:
                raise ParseError(f"entry index {k} out of range for n={n}", tk.line, tk.col)
        rhs = _simplify(p.expr(), t)
        if ij in given:
            raise ParseError(f"entry h[{ij[0]}][{ij[1]}] assigned twice", ti.line, ti.col)
        given[ij] = rhs

    params: set = set()
    for e in given.values():
        _param_names(e, params)

    entries = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        if (i, i) not in given:
            raise ParseError(f"diagonal entry h[{i}][{i}] missing")
        diag = given[(i, i)]
        if not _structurally_real(diag, n, params):
            raise ParseError(f"diagonal entry h[{i}][{i}] is not real: "
                             f"conjugate differs")
        entries[i - 1][i - 1] = diag
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = given.get((i, j)), given.get((j, i))
            if a is None and b is None:
                entries[i - 1][j - 1] = ex.ZERO
                entries[j - 1][i - 1] = ex.ZERO
            elif b is None:
                entries[i - 1][j - 1] = a
                entries[j - 1][i - 1] = ex.simplify(ex.formal_conj(a))
            elif a is None:
                entries[j - 1][i - 1] = b
                entries[i - 1][j - 1] = ex.simplify(ex.formal_conj(b))
            else:
                want = ex.simplify(ex.formal_conj(a))
                if want != ex.simplify(b) and not _numeric_equal(want, b, n, params):
                    raise ParseError(
                        f"non-Hermitian pair: h[{j}][{i}] is not the conjugate "
                        f"of h[{i}][{j}]")
                entries[i - 1][j - 1] = a
                entries[j - 1][i - 1] = b
    return MetricExpr(n=n, entries=entries, params=tuple(sorted(params)))


def _structurally_real(e: ex.Expr, n: int, params: set) -> bool:
    c = ex.simplify(ex.formal_conj(e))
    return c == ex.simplify(e) or _numeric_equal(c, e, n, params)


def load_manifest(path) -> dict:
    """Load a manifold manifest (JSON with keys name, n, params, metric, domain)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("name", "n", "metric"):
        if key not in doc:
            raise ParseError(f"manifest missing required key {key!r}")
    doc.setdefault("params", {})
    doc.setdefault("domain", {})
    return doc
