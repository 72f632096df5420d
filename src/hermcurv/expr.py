"""Expression trees over chart coordinates with exact Wirtinger calculus.

Expressions are built from the variables ``z1..zn``, their conjugates
``zb1..zbn``, complex numeric literals and named real parameters, closed
under +, -, *, /, integer powers, exp, log, re, im, abs2 and conj.  The
grammar is closed under the Wirtinger derivatives d/dz_k and d/dzb_k, so
metric coefficients written in this language have exact symbolic 2-jets.

Every node is one immutable `Expr` tuple ``(op, args, value)``: ``op`` names
the operation (``"Add"``, ``"Num"``, ...), ``args`` holds the child nodes,
and ``value`` holds a leaf's payload (a finite complex literal, a 0-based
coordinate index, a parameter name) or a power's integer exponent.  Nodes
compare and hash by value, so two trees are equal however they were built.
The constructors ``Num``, ``Z``, ``Add``, ... name the ops.

`compile_trees` lists each distinct node of a set of trees once, operands
first, as one straight-line program; `evaluate` runs it over numpy arrays
of chart points, broadcasting, so a shared subtree is evaluated once.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expr", "Num", "Z", "Zb", "Param",
    "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Log", "Re", "Im", "Abs2", "Conj",
    "compile_trees", "evaluate",
    "wirtinger_derivative", "formal_conj", "simplify", "to_source",
]


class Expr(NamedTuple):
    """One tree node: operation tag, child nodes, leaf payload or exponent."""

    op: str
    args: tuple = ()
    value: object = None

    def __repr__(self):
        return to_source(self)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Num(x)
    raise TypeError(f"cannot coerce {x!r} to an expression")


def Num(value: complex) -> Expr:
    """Complex literal; a tree holds finite constants only (ValueError)."""
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError(f"constant {v} is not finite")
    return Expr("Num", (), v)


def Z(k: int) -> Expr:
    """Holomorphic coordinate z_k (0-based index)."""
    return Expr("Z", (), int(k))


def Zb(k: int) -> Expr:
    """Conjugate coordinate conj(z_k) (0-based index)."""
    return Expr("Zb", (), int(k))


def Param(name: str) -> Expr:
    """Named real parameter, bound at evaluation time."""
    return Expr("Param", (), str(name))


def Pow(base, m: int) -> Expr:
    """Integer power pow(base, m); m may be negative, never symbolic."""
    return Expr("Pow", (as_expr(base),), int(m))


def _op(op: str):
    def make(*args) -> Expr:
        return Expr(op, tuple(as_expr(a) for a in args))

    make.__name__ = make.__qualname__ = op
    make.__doc__ = f"{op} node over the given operands (numbers become Num)."
    return make


Add, Sub, Mul, Div, Neg, Exp, Log, Re, Im, Abs2, Conj = map(_op, (
    "Add", "Sub", "Mul", "Div", "Neg", "Exp", "Log", "Re", "Im", "Abs2", "Conj"))

ZERO = Num(0.0)
ONE = Num(1.0)
HALF = Num(0.5)

_OPS = {
    "Add": operator.add, "Sub": operator.sub, "Mul": operator.mul,
    "Div": operator.truediv, "Neg": operator.neg, "Pow": operator.pow,
    "Exp": np.exp, "Log": np.log, "Conj": np.conj,
    "Re": lambda v: np.real(v) + 0j,
    "Im": lambda v: np.imag(v) + 0j,
    "Abs2": lambda v: v * np.conj(v),
}


def _apply(op: str, value, vals: list):
    """op on its operands' values; a power's exponent (`value`) comes last."""
    return _OPS[op](*vals) if value is None else _OPS[op](*vals, value)


def compile_trees(trees) -> tuple:
    """The straight-line program (steps, roots) of `trees`: each distinct node
    once, operands first, as (op, operand step indices, value), and the step
    of each tree.  Literals are told apart by their printed value, so Num(0.0)
    and Num(-0.0), which compare equal, stay two steps."""
    steps, index, seen = [], {}, {}

    def visit(t):  # one frame per tree level, as the depth bound assumes
        if id(t) not in seen:  # once per node object, however many parents share it
            slots = tuple(map(visit, t.args))
            key = (t.op, slots, repr(t.value) if t.op == "Num" else t.value)
            if key not in index:
                index[key] = len(steps)
                steps.append((t.op, slots, t.value))
            seen[id(t)] = index[key]
        return seen[id(t)]

    return steps, [visit(t) for t in trees]


def evaluate(e: "Expr | tuple", z: np.ndarray, params: dict | None = None):
    """Evaluate at chart points `z` of shape (..., n), broadcasting: a tree as
    one complex array, a program (`compile_trees`) as the list of its roots'
    values.  A parameter with no value in `params` raises ValueError."""
    steps, roots = compile_trees([e]) if isinstance(e, Expr) else e
    params, vals = params or {}, []
    for op, slots, value in steps:
        if op == "Num":
            vals.append(value)
        elif op in ("Z", "Zb"):
            vals.append(z[..., value] if op == "Z" else np.conj(z[..., value]))
        elif op == "Param":
            if value not in params:
                raise ValueError(f"unbound parameter {value!r}")
            vals.append(complex(params[value]))
        else:
            vals.append(_apply(op, value, [vals[k] for k in slots]))
    if isinstance(e, Expr):
        return np.asarray(vals[roots[0]], dtype=complex)
    return [vals[k] for k in roots]


def wirtinger_derivative(e: Expr, k: int, bar: bool = False) -> Expr:
    """Exact d e / d z_k (or d/d conj(z_k) when `bar`).

    The Wirtinger rules make z_k and conj(z_k) independent: dz_k/dzb_k = 0
    and d conj(z_k)/dz_k = 0.  conj, re, im and abs2 route through the
    opposite-type derivative of their argument, keeping the grammar closed.
    """

    def d(t, bar):
        op = t.op
        if op in ("Num", "Param"):
            return ZERO
        if op in ("Z", "Zb"):
            return ONE if (t.value == k and bar == (op == "Zb")) else ZERO
        a, b = t.args[0], t.args[-1]
        if op in ("Add", "Sub", "Neg"):
            return t._replace(args=tuple(d(u, bar) for u in t.args))
        if op == "Mul":
            return Add(Mul(d(a, bar), b), Mul(a, d(b, bar)))
        if op == "Div":
            return Div(Sub(Mul(d(a, bar), b), Mul(a, d(b, bar))), Pow(b, 2))
        if op == "Pow":
            if t.value == 0:
                return ZERO
            return Mul(Mul(Num(t.value), Pow(a, t.value - 1)), d(a, bar))
        if op == "Exp":
            return Mul(t, d(a, bar))
        if op == "Log":
            return Div(d(a, bar), a)
        if op == "Conj":
            return Conj(d(a, not bar))
        if op == "Re":
            # re(u) = (u + conj u)/2
            return Mul(HALF, Add(d(a, bar), Conj(d(a, not bar))))
        if op == "Im":
            # im(u) = (u - conj u)/(2i)
            return Mul(Num(-0.5j), Sub(d(a, bar), Conj(d(a, not bar))))
        if op == "Abs2":
            # abs2(u) = u * conj(u)
            return Add(Mul(d(a, bar), Conj(a)), Mul(a, Conj(d(a, not bar))))
        raise TypeError(f"unknown node {t!r}")

    return simplify(d(e, bar))


def formal_conj(e: Expr) -> Expr:
    """Structural conjugate: swaps z_k <-> zb_k, conjugates literals.

    Parameters are real by contract, re/im/abs2 return real values, and log
    is taken on positive quantities in any valid metric, so the formal rule
    conj(log u) = log(conj u) is sound here.
    """
    op = e.op
    if op == "Num":
        return Num(np.conj(e.value))
    if op in ("Z", "Zb"):
        return e._replace(op="Zb" if op == "Z" else "Z")
    if op == "Conj":
        return e.args[0]
    if op in ("Param", "Re", "Im", "Abs2"):
        return e  # real-valued: conj(re u) = re u, conj(im u) = im u
    return e._replace(args=tuple(formal_conj(a) for a in e.args))


def _is_const(e, v=None):
    return e.op == "Num" and (v is None or e.value == v)


def simplify(e: Expr) -> Expr:
    """Light normalization: constant folding plus 0/1 identities.

    Not a CAS; its job is to keep repeated differentiation from blowing up
    trees with trivial factors, and to give the Hermitian checker a stable
    canonical-ish shape (commutative args sorted by op and printed source).
    A constant that folds to no finite number raises ValueError.
    """
    if not e.args:
        return e
    args = [simplify(a) for a in e.args]
    op, a, b = e.op, args[0], args[-1]
    if op == "Conj":
        return formal_conj(a)
    # the 0/1 identities run before the fold: 0*c stays +0 and 0/0 stays 0
    if op == "Pow" and e.value in (0, 1):
        return ONE if e.value == 0 else a
    if op == "Add" and (_is_const(a, 0) or _is_const(b, 0)):
        return b if _is_const(a, 0) else a
    if op == "Sub" and _is_const(b, 0):
        return a
    if op == "Mul":
        if _is_const(a, 0) or _is_const(b, 0):
            return ZERO
        if _is_const(a, 1) or _is_const(b, 1):
            return b if _is_const(a, 1) else a
    if op == "Div" and (_is_const(a, 0) or _is_const(b, 1)):
        return ZERO if _is_const(a, 0) else a
    if op in ("Add", "Sub", "Mul", "Div", "Neg", "Pow") and all(map(_is_const, args)):
        const = e._replace(args=tuple(args))
        try:
            return Num(_apply(op, e.value, [u.value for u in args]))
        except (ArithmeticError, ValueError):
            raise ValueError(f"constant {to_source(const)} has no finite value") from None
    if op == "Sub" and _is_const(a, 0):
        return simplify(Neg(b))
    if op == "Neg" and a.op == "Neg":
        return a.args[0]
    if op in ("Add", "Mul") and _sort_key(b) < _sort_key(a):
        args = [b, a]
    return e._replace(args=tuple(args))


def _sort_key(e: Expr):
    return (e.op, to_source(e))


_INFIX = {"Add": (" + ", 0, 1, 0), "Sub": (" - ", 0, 1, 0),
          "Mul": ("*", 1, 2, 1), "Div": ("/", 1, 2, 1)}


def to_source(e: Expr) -> str:
    """Print in the metric DSL; parse(to_source(e)) reproduces the tree."""

    def p(t, prec):
        # precedence: 0 add, 1 mul, 2 unary, 3 atom
        op = t.op
        if op == "Num":
            v = t.value
            if v.imag == 0:
                s = _fmt(v.real)
                return s if v.real >= 0 or prec < 2 else f"({s})"
            if v.real == 0:
                s = f"{_fmt(v.imag)}*i" if v.imag != 1 else "i"
                return s if prec <= 1 else f"({s})"
            return f"({_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}*i)"
        if op == "Z":
            return f"z{t.value + 1}"
        if op == "Zb":
            return f"zb{t.value + 1}"
        if op == "Param":
            return t.value
        if op in _INFIX:
            sym, left, right, level = _INFIX[op]
            s = f"{p(t.args[0], left)}{sym}{p(t.args[1], right)}"
            return s if prec <= level else f"({s})"
        if op == "Neg":
            s = f"-{p(t.args[0], 2)}"
            return s if prec <= 1 else f"({s})"
        if op == "Pow":
            return f"pow({p(t.args[0], 0)}, {t.value})"
        return f"{op.lower()}({p(t.args[0], 0)})"

    return p(e, 0)


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)
