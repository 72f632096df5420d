"""Parser for the metric coefficient DSL and the JSON manifest format.

A metric source is a list of assignments, one per Hermitian coefficient,
separated by newlines or semicolons::

    h[1][1] = 4/(abs2(z1) + abs2(z2))
    h[1][2] = 0
    h[2][2] = 4/(abs2(z1) + abs2(z2))

Expression syntax is the subset of Python's: numeric literals, the
imaginary unit ``i``, coordinates ``z<k>`` and conjugates ``zb<k>``
(1-based), real parameter names (``lambda`` and ``True`` too), unary ``+``
and ``-``, ``+ - * /``, ``pow(e, int)``, and ``exp log re im abs2 conj``.
Each statement goes through `ast.parse`; one whitelist converter maps these
node kinds to `expr` trees and refuses any other with a `ParseError` at its
line and column, as it refuses trees deeper than `MAX_DEPTH` (weighted).

Hermitian symmetry policy: the diagonal must be assigned; for an
off-diagonal pair (i, j) either one entry is given (the mirror is filled
with its formal conjugate), both are given (checked for consistency,
mismatch is an error), or neither is given (both default to 0).
"""

from __future__ import annotations

import ast
import json
import keyword
import re as _re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = ["MetricExpr", "ParseError", "parse_expr", "parse_metric", "load_manifest"]

_FUNCS = {"exp": ex.Exp, "log": ex.Log, "re": ex.Re, "im": ex.Im,
          "abs2": ex.Abs2, "conj": ex.Conj}
_BINOPS = {ast.Add: ex.Add, ast.Sub: ex.Sub, ast.Mult: ex.Mul, ast.Div: ex.Div}

_FOREIGN = _re.compile(r"[^A-Za-z0-9_.+\-*/()\[\],=; \t\n]")
_NUMERAL = _re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_COORD = _re.compile(r"(zb?)(\d+)")
_TARGET = _re.compile(r"[ \t]*h[ \t]*\[[ \t]*(\d+)[ \t]*\][ \t]*\[[ \t]*(\d+)[ \t]*\][ \t]*=")
_EXPONENT = _re.compile(r"[ \t)]*,[ \t]*(-?)[ \t]*(\d+)[ \t]*\)")
# Python reads keywords (a DSL parameter may be called `lambda` or `True`) as
# syntax and refuses leading zeros (`007`); both are rewritten to the same
# length before `ast.parse`, and the converter reads names and numerals from
# the text as written
_KEYWORD = _re.compile(r"\b(?:%s)\b" % "|".join(keyword.kwlist))
_LEADING_ZEROS = _re.compile(r"(?<![\w.])0+(?=\d)")

# A node's weight is the Python frames one nesting level of it costs the
# deepest recursive pass it meets (simplify or evaluate of a second Wirtinger
# derivative), in units of the two frames of a sum level; other nodes weigh
# 1.  A sum's derivative is a sum as deep, but a product's is a sum of
# products and a quotient's a quotient of differences of products, so their
# levels deepen with each derivative.  A tree of MAX_DEPTH weighted levels
# takes about 850 of Python's 1000 frames (DECISIONS.md D16).
_WEIGHT = {ex.Mul: 3, ex.Div: 6, ex.Pow: 2, ex.Exp: 2, ex.Conj: 2,
           ex.Log: 3, ex.Re: 3, ex.Im: 3, ex.Abs2: 3}
MAX_DEPTH = 420


class ParseError(ValueError):
    """Syntax or structural error, annotated with line and column."""

    def __init__(self, msg, line=None, col=None):
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


def _statements(text: str):
    """(line, col, statement) of every non-blank statement, after checking
    that `text` holds only DSL characters; col is the 1-based column."""
    bad = _FOREIGN.search(text)
    if bad:
        at = bad.start()
        raise ParseError(f"unexpected character {bad.group()!r}", text.count("\n", 0, at) + 1,
                         at - text.rfind("\n", 0, at))
    for line, row in enumerate(text.split("\n"), 1):
        col = 1
        for stmt in row.split(";"):
            if stmt.strip(" \t"):
                yield line, col, stmt
            col += len(stmt) + 1


def _index(digits: str, n: int, what: str, line: int, col: int) -> int:
    """The 0-based index of 1-based `digits`; ParseError unless in 1..n."""
    # int() refuses more than 4300 digits; so many are out of range anyway
    k = int(digits) if len(digits.lstrip("0")) <= len(str(n)) else n + 1
    if not 1 <= k <= n:
        raise ParseError(f"{what} index {digits} out of range for n={n}", line, col)
    return k - 1


def _expression(text: str, line: int, col: int, n: int) -> ex.Expr:
    """The simplified tree of `text`, which starts at column `col` of `line`."""
    body = text.lstrip(" \t")
    col += len(text) - len(body)
    code = _KEYWORD.sub(lambda m: "_" + m.group()[1:], body)
    code = _LEADING_ZEROS.sub(lambda m: "1" * len(m.group()), code)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SyntaxWarning, e.g. on "1if"
            tree = ast.parse(code, mode="eval").body
    except SyntaxError as err:
        raise ParseError(err.msg, line, col + (err.offset or 1) - 1) from None
    except (RecursionError, MemoryError):  # the parser's own stack
        raise ParseError("expression nested too deeply", line, col) from None

    def fail(msg, node):
        raise ParseError(msg, line, col + node.col_offset)

    def conv(node, depth):
        if depth > MAX_DEPTH:
            fail(f"expression nested deeper than {MAX_DEPTH} weighted levels", node)
        text = body[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            depth += _WEIGHT.get(_BINOPS[type(node.op)], 1)
            return _BINOPS[type(node.op)](conv(node.left, depth), conv(node.right, depth))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = conv(node.operand, depth + 1)
            return ex.Neg(arg) if isinstance(node.op, ast.USub) else arg
        if isinstance(node, ast.Constant) and _NUMERAL.fullmatch(text):
            try:
                return ex.Num(float(text))
            except ValueError:
                fail(f"literal {text} is not a finite number", node)
        if isinstance(node, ast.Name):
            if text in _FUNCS or text == "pow":
                fail(f"expected '(' after {text!r}", node)
            coord = _COORD.fullmatch(text)
            if coord:
                k = _index(coord[2], n, "coordinate", line, col + node.col_offset)
                return ex.Zb(k) if coord[1] == "zb" else ex.Z(k)
            return ex.Num(1j) if text == "i" else ex.Param(text)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            name, arg = node.func.id, node.args[0]
            rest = body[arg.end_col_offset:node.end_col_offset]
            if name in _FUNCS and len(node.args) == 1 and "," not in rest:
                return _FUNCS[name](conv(arg, depth + _WEIGHT[_FUNCS[name]]))
            power = _EXPONENT.fullmatch(rest)
            if name == "pow" and power:
                return ex.Pow(conv(arg, depth + _WEIGHT[ex.Pow]), int(power[1] + power[2]))
        fail(f"unsupported syntax {text[:40]!r}", node)

    node = conv(tree, 0)
    try:
        return ex.simplify(node)
    except ValueError as err:  # a constant that has no finite value
        raise ParseError(str(err), line, col) from None


def parse_expr(src: str, n: int) -> ex.Expr:
    """Parse a single expression over z1..zn."""
    stmts = list(_statements(src))
    if len(stmts) != 1:
        raise ParseError("expected one expression", *stmts[1][:2] if stmts else ())
    line, col, text = stmts[0]
    return _expression(text, line, col, n)


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
    given: dict[tuple, ex.Expr] = {}
    for line, col, stmt in _statements(text):
        target = _TARGET.match(stmt)
        if not target:
            raise ParseError("expected assignment 'h[i][j] = ...'", line,
                             col + len(stmt) - len(stmt.lstrip(" \t")))
        ij = tuple(_index(target[k], n, "entry", line, col + target.start(k)) + 1
                   for k in (1, 2))
        rhs = _expression(stmt[target.end():], line, col + target.end(), n)
        if ij in given:
            raise ParseError(f"entry h[{ij[0]}][{ij[1]}] assigned twice", line, col)
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
    if not isinstance(doc, dict):
        raise ParseError(f"manifest must be a JSON object, got {doc!r}")
    for key in ("name", "n", "metric"):
        if key not in doc:
            raise ParseError(f"manifest missing required key {key!r}")
    if not isinstance(doc["name"], str):
        raise ParseError(f"manifest name must be a string, got {doc['name']!r}")
    doc.setdefault("params", {})
    doc.setdefault("domain", {})
    return doc
