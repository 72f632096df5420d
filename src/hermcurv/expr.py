"""Expression trees over chart coordinates with exact Wirtinger calculus.

Expressions are built from the variables ``z1..zn``, their conjugates
``zb1..zbn``, complex numeric literals and named real parameters, closed
under +, -, *, /, integer powers, exp, log, re, im, abs2 and conj.  The
grammar is closed under the Wirtinger derivatives d/dz_k and d/dzb_k, so
metric coefficients written in this language have exact symbolic 2-jets.

Trees are immutable; `evaluate` broadcasts over numpy arrays of chart
points, so one compiled tree serves single points and whole grids alike.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Expr", "Num", "Z", "Zb", "Param",
    "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Log", "Re", "Im", "Abs2", "Conj",
    "wirtinger_derivative", "formal_conj", "simplify", "to_source",
]


class Expr:
    """Base node. Subclasses are value-like: hashable, comparable, immutable."""

    __slots__ = ()
    args: tuple

    def __eq__(self, other):
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self):
        return hash((type(self).__name__, self.key()))

    def key(self):
        return self.args

    def __repr__(self):
        return to_source(self)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Num(complex(x))
    raise TypeError(f"cannot coerce {x!r} to an expression")


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: complex):
        object.__setattr__(self, "value", complex(value))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def key(self):
        return (self.value,)


class Z(Expr):
    """Holomorphic coordinate z_k (0-based index)."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        object.__setattr__(self, "k", int(k))

    __setattr__ = Num.__setattr__

    def key(self):
        return (self.k,)


class Zb(Expr):
    """Conjugate coordinate conj(z_k) (0-based index)."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        object.__setattr__(self, "k", int(k))

    __setattr__ = Num.__setattr__

    def key(self):
        return (self.k,)


class Param(Expr):
    """Named real parameter, bound at evaluation time."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", str(name))

    __setattr__ = Num.__setattr__

    def key(self):
        return (self.name,)


def _nary(name):
    class _Node(Expr):
        __slots__ = ("args",)

        def __init__(self, *args):
            object.__setattr__(self, "args", tuple(as_expr(a) for a in args))

        __setattr__ = Num.__setattr__

    _Node.__name__ = name
    _Node.__qualname__ = name
    return _Node


Add = _nary("Add")
Sub = _nary("Sub")
Mul = _nary("Mul")
Div = _nary("Div")
Neg = _nary("Neg")
Exp = _nary("Exp")
Log = _nary("Log")
Re = _nary("Re")
Im = _nary("Im")
Abs2 = _nary("Abs2")
Conj = _nary("Conj")


class Pow(Expr):
    """Integer power pow(base, m); m may be negative, never symbolic."""

    __slots__ = ("args", "m")

    def __init__(self, base, m: int):
        object.__setattr__(self, "args", (as_expr(base),))
        object.__setattr__(self, "m", int(m))

    __setattr__ = Num.__setattr__

    def key(self):
        return (self.args, self.m)


ZERO = Num(0.0)
ONE = Num(1.0)
HALF = Num(0.5)


def evaluate(e: Expr, z: np.ndarray, params: dict | None = None):
    """Evaluate `e` at chart points `z` of shape (..., n), broadcasting."""
    params = params or {}

    def ev(t):
        if isinstance(t, Num):
            return t.value
        if isinstance(t, Z):
            return z[..., t.k]
        if isinstance(t, Zb):
            return np.conj(z[..., t.k])
        if isinstance(t, Param):
            try:
                return complex(params[t.name])
            except KeyError:
                raise KeyError(f"unbound parameter {t.name!r}") from None
        if isinstance(t, Add):
            return ev(t.args[0]) + ev(t.args[1])
        if isinstance(t, Sub):
            return ev(t.args[0]) - ev(t.args[1])
        if isinstance(t, Mul):
            return ev(t.args[0]) * ev(t.args[1])
        if isinstance(t, Div):
            return ev(t.args[0]) / ev(t.args[1])
        if isinstance(t, Neg):
            return -ev(t.args[0])
        if isinstance(t, Pow):
            return ev(t.args[0]) ** t.m
        if isinstance(t, Exp):
            return np.exp(ev(t.args[0]))
        if isinstance(t, Log):
            return np.log(ev(t.args[0]))
        if isinstance(t, Re):
            return np.real(ev(t.args[0])) + 0j
        if isinstance(t, Im):
            return np.imag(ev(t.args[0])) + 0j
        if isinstance(t, Abs2):
            v = ev(t.args[0])
            return v * np.conj(v)
        if isinstance(t, Conj):
            return np.conj(ev(t.args[0]))
        raise TypeError(f"unknown node {t!r}")

    return np.asarray(ev(e), dtype=complex)


def wirtinger_derivative(e: Expr, k: int, bar: bool = False) -> Expr:
    """Exact d e / d z_k (or d/d conj(z_k) when `bar`).

    The Wirtinger rules make z_k and conj(z_k) independent: dz_k/dzb_k = 0
    and d conj(z_k)/dz_k = 0.  conj, re, im and abs2 route through the
    opposite-type derivative of their argument, keeping the grammar closed.
    """

    def d(t, bar):
        if isinstance(t, (Num, Param)):
            return ZERO
        if isinstance(t, Z):
            return ONE if (t.k == k and not bar) else ZERO
        if isinstance(t, Zb):
            return ONE if (t.k == k and bar) else ZERO
        if isinstance(t, Add):
            return Add(d(t.args[0], bar), d(t.args[1], bar))
        if isinstance(t, Sub):
            return Sub(d(t.args[0], bar), d(t.args[1], bar))
        if isinstance(t, Mul):
            a, b = t.args
            return Add(Mul(d(a, bar), b), Mul(a, d(b, bar)))
        if isinstance(t, Div):
            a, b = t.args
            return Div(Sub(Mul(d(a, bar), b), Mul(a, d(b, bar))), Pow(b, 2))
        if isinstance(t, Neg):
            return Neg(d(t.args[0], bar))
        if isinstance(t, Pow):
            a = t.args[0]
            if t.m == 0:
                return ZERO
            return Mul(Mul(Num(t.m), Pow(a, t.m - 1)), d(a, bar))
        if isinstance(t, Exp):
            return Mul(t, d(t.args[0], bar))
        if isinstance(t, Log):
            return Div(d(t.args[0], bar), t.args[0])
        if isinstance(t, Conj):
            return Conj(d(t.args[0], not bar))
        if isinstance(t, Re):
            # re(u) = (u + conj u)/2
            return Mul(HALF, Add(d(t.args[0], bar), Conj(d(t.args[0], not bar))))
        if isinstance(t, Im):
            # im(u) = (u - conj u)/(2i)
            return Mul(Num(-0.5j), Sub(d(t.args[0], bar), Conj(d(t.args[0], not bar))))
        if isinstance(t, Abs2):
            # abs2(u) = u * conj(u)
            u = t.args[0]
            return Add(Mul(d(u, bar), Conj(u)), Mul(u, Conj(d(u, not bar))))
        raise TypeError(f"unknown node {t!r}")

    return simplify(d(e, bar))


def formal_conj(e: Expr) -> Expr:
    """Structural conjugate: swaps z_k <-> zb_k, conjugates literals.

    Parameters are real by contract, re/im/abs2 return real values, and log
    is taken on positive quantities in any valid metric, so the formal rule
    conj(log u) = log(conj u) is sound here.
    """
    if isinstance(e, Num):
        return Num(np.conj(e.value))
    if isinstance(e, Z):
        return Zb(e.k)
    if isinstance(e, Zb):
        return Z(e.k)
    if isinstance(e, Param):
        return e
    if isinstance(e, Conj):
        return e.args[0]
    if isinstance(e, (Re, Im, Abs2)):
        return e  # real-valued: conj(re u) = re u, conj(im u) = im u
    if isinstance(e, Pow):
        return Pow(formal_conj(e.args[0]), e.m)
    if isinstance(e, (Add, Sub, Mul, Div, Neg, Exp, Log)):
        return type(e)(*[formal_conj(a) for a in e.args])
    raise TypeError(f"unknown node {e!r}")


def _is_const(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def simplify(e: Expr) -> Expr:
    """Light normalization: constant folding plus 0/1 identities.

    Not a CAS; its job is to keep repeated differentiation from blowing up
    trees with trivial factors, and to give the Hermitian checker a stable
    canonical-ish shape (commutative args sorted by hash key).
    """
    if isinstance(e, (Num, Z, Zb, Param)):
        return e
    if isinstance(e, Pow):
        a = simplify(e.args[0])
        if e.m == 0:
            return ONE
        if e.m == 1:
            return a
        if _is_const(a):
            return Num(a.value ** e.m)
        return Pow(a, e.m)
    args = [simplify(a) for a in e.args]
    if isinstance(e, Neg):
        (a,) = args
        if _is_const(a):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.args[0]
        return Neg(a)
    if isinstance(e, Add):
        a, b = args
        if _is_const(a, 0):
            return b
        if _is_const(b, 0):
            return a
        if _is_const(a) and _is_const(b):
            return Num(a.value + b.value)
        if _sort_key(b) < _sort_key(a):
            a, b = b, a
        return Add(a, b)
    if isinstance(e, Sub):
        a, b = args
        if _is_const(b, 0):
            return a
        if _is_const(a) and _is_const(b):
            return Num(a.value - b.value)
        if _is_const(a, 0):
            return simplify(Neg(b))
        return Sub(a, b)
    if isinstance(e, Mul):
        a, b = args
        if _is_const(a, 0) or _is_const(b, 0):
            return ZERO
        if _is_const(a, 1):
            return b
        if _is_const(b, 1):
            return a
        if _is_const(a) and _is_const(b):
            return Num(a.value * b.value)
        if _sort_key(b) < _sort_key(a):
            a, b = b, a
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = args
        if _is_const(a, 0):
            return ZERO
        if _is_const(b, 1):
            return a
        if _is_const(a) and _is_const(b):
            return Num(a.value / b.value)
        return Div(a, b)
    if isinstance(e, Conj):
        (a,) = args
        return formal_conj(a)
    if isinstance(e, (Exp, Log, Re, Im, Abs2)):
        return type(e)(*args)
    raise TypeError(f"unknown node {e!r}")


def _sort_key(e: Expr):
    return (type(e).__name__, to_source(e))


for _cls in (Num, Z, Zb, Param):
    _cls.args = ()  # leaves have no children


def to_source(e: Expr) -> str:
    """Print in the metric DSL; parse(to_source(e)) reproduces the tree."""

    def p(t, prec):
        # precedence: 0 add, 1 mul, 2 unary, 3 atom
        if isinstance(t, Num):
            v = t.value
            if v.imag == 0:
                s = _fmt(v.real)
                return s if v.real >= 0 or prec < 2 else f"({s})"
            if v.real == 0:
                s = f"{_fmt(v.imag)}*i" if v.imag != 1 else "i"
                return s if prec <= 1 else f"({s})"
            return f"({_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}*i)"
        if isinstance(t, Z):
            return f"z{t.k + 1}"
        if isinstance(t, Zb):
            return f"zb{t.k + 1}"
        if isinstance(t, Param):
            return t.name
        if isinstance(t, Add):
            s = f"{p(t.args[0], 0)} + {p(t.args[1], 0)}"
            return s if prec <= 0 else f"({s})"
        if isinstance(t, Sub):
            s = f"{p(t.args[0], 0)} - {p(t.args[1], 1)}"
            return s if prec <= 0 else f"({s})"
        if isinstance(t, Mul):
            s = f"{p(t.args[0], 1)}*{p(t.args[1], 2)}"
            return s if prec <= 1 else f"({s})"
        if isinstance(t, Div):
            s = f"{p(t.args[0], 1)}/{p(t.args[1], 2)}"
            return s if prec <= 1 else f"({s})"
        if isinstance(t, Neg):
            s = f"-{p(t.args[0], 2)}"
            return s if prec <= 1 else f"({s})"
        if isinstance(t, Pow):
            return f"pow({p(t.args[0], 0)}, {t.m})"
        name = type(t).__name__.lower()
        return f"{name}({p(t.args[0], 0)})"

    return p(e, 0)


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)
