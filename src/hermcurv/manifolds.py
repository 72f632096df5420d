"""Model manifolds: chart domains, metric sources, and jet evaluation.

A `ModelManifold` owns one coordinate chart and one Hermitian metric given
either as parsed DSL expression trees (differentiated symbolically) or as
hand-coded closed-form jet functions, or both.  Builtins carry both
representations; the test suite asserts the two agree, which guards the
symbolic differentiator and the hand transcription against each other.

Group quotients are not modeled: every pointwise quantity is an invariant
expression evaluated on the covering chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .dsl import MetricExpr, ParseError, parse_expr, parse_metric
from .jets import FactorJet, MetricJet, map_blocks

__all__ = ["Domain", "ModelManifold", "DomainError",
           "builtin", "builtin_names", "manifold_from_manifest", "plane_wave_jets",
           "conformal_manifold", "factor_jet_from_expr"]


class DomainError(ValueError):
    """Chart point outside the manifold's declared domain."""


@dataclass
class Domain:
    """Chart domain descriptor: membership test plus a point sampler."""

    description: str
    contains: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, int, int], np.ndarray]


def _full_domain():
    return Domain(
        description="all of C^n",
        contains=lambda z: np.ones(z.shape[:-1], dtype=bool),
        sample=lambda rng, count, n: (rng.uniform(-1, 1, (count, n))
                                      + 1j * rng.uniform(-1, 1, (count, n))),
    )


def _punctured_domain():
    def sample(rng, count, n):
        z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
        r = np.linalg.norm(z, axis=-1, keepdims=True)
        return z / r * rng.uniform(0.5, 1.5, (count, 1))

    return Domain(
        description="C^n minus the origin",
        contains=lambda z: np.linalg.norm(z, axis=-1) > 1e-12,
        sample=sample,
    )


def _halfplane_domain(punctured_axes=()):
    """Im z^1 > 0; optional punctured axes require z^k != 0."""

    def contains(z):
        ok = z[..., 0].imag > 1e-12
        for k in punctured_axes:
            ok = ok & (np.abs(z[..., k]) > 1e-12)
        return ok

    def sample(rng, count, n):
        z = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
        z[:, 0] = z[:, 0].real + 1j * rng.uniform(0.4, 2.0, count)
        for k in punctured_axes:
            w = rng.normal(size=count) + 1j * rng.normal(size=count)
            z[:, k] = w / np.abs(w) * rng.uniform(0.5, 1.5, count)
        return z

    desc = "Im z1 > 0" + "".join(f", z{k + 1} != 0" for k in punctured_axes)
    return Domain(description=desc, contains=contains, sample=sample)


@dataclass
class ModelManifold:
    """One coordinate chart and its Hermitian metric.

    The metric comes from `closed_jet`, from the DSL metric `metric_expr`,
    or from both.  A builtin passes its DSL source as `metric_source`, a
    callable that derives the text: `dsl_metric` parses it into
    `metric_expr` on first use (by `expression_jet`, by `conformal_manifold`
    or by a manifold with no closed form), so a run that only evaluates the
    closed form never derives or parses it.
    """

    name: str
    n: int
    params: dict = field(default_factory=dict)
    domain: Domain = None
    declared_gauduchon: bool = False
    declared_balanced: bool = False
    periods: tuple | None = None  # (2n real periods) when chart-periodic
    metric_expr: MetricExpr | None = None
    metric_source: Callable[[], str] | None = None
    closed_jet: Callable | None = None  # z(..., n) -> (h[i, j, ...], dh, ddh)
    golden: dict | None = None  # stored Chern {"s1", "s2"} of a builtin, at t = 0
    _expr_jets: tuple | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complex dimension n >= 2 required")
        if self.domain is None:
            self.domain = _full_domain()
        if (self.closed_jet is None and self.metric_expr is None
                and self.metric_source is None):
            raise ValueError("manifold needs a metric source")

    def dsl_metric(self) -> MetricExpr | None:
        """The DSL metric, parsed from `metric_source` on first use."""
        if self.metric_expr is None and self.metric_source is not None:
            self.metric_expr = parse_metric(self.metric_source(), self.n)
        return self.metric_expr

    # -- jets ---------------------------------------------------------------

    def jet(self, z: np.ndarray, check_domain: bool = True) -> MetricJet:
        """Evaluate the metric 2-jet at chart points z of shape (..., n)."""
        z = np.asarray(z, dtype=complex)
        if z.shape[-1] != self.n:
            raise DomainError(f"points have dimension {z.shape[-1]}, chart has {self.n}")
        if check_domain:
            ok = self.domain.contains(z)
            if not np.all(ok):
                raise DomainError(f"{int(np.sum(~ok))} point(s) outside domain "
                                  f"({self.domain.description})")
        if self.closed_jet is not None:
            h, dh, ddh = self.closed_jet(z, **self.params)
        else:
            h, dh, ddh = self._eval_expr_jets(z)
        return MetricJet(np.asarray(h, complex), np.asarray(dh, complex),
                         np.asarray(ddh, complex))

    def expression_jet(self, z: np.ndarray) -> MetricJet:
        """Jet via the symbolic-differentiation path, ignoring closed forms."""
        if self.dsl_metric() is None:
            raise ValueError(f"{self.name} has no expression-DSL metric")
        return MetricJet(*self._eval_expr_jets(np.asarray(z, complex)))

    def _eval_expr_jets(self, z):
        if self._expr_jets is None:
            self._expr_jets = _differentiate_metric(self.dsl_metric())
        return tuple(_evaluate_tensor(t, z, self.params) for t in self._expr_jets)

    # -- sampling -----------------------------------------------------------

    def sample_points(self, count: int, seed: int = 0) -> np.ndarray:
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        rng = np.random.default_rng(seed)
        return self.domain.sample(rng, count, self.n)


def _evaluate_tensor(trees, z: np.ndarray, params: dict) -> np.ndarray:
    """trees[i][j]... evaluated at z, as the component-first array a[i, j, ...]."""
    if isinstance(trees, list):
        return np.stack([_evaluate_tensor(t, z, params) for t in trees])
    return np.broadcast_to(ex.evaluate(trees, z, params), z.shape[:-1]).astype(complex)


def _differentiate_metric(mx: MetricExpr):
    n = mx.n
    h_t = mx.entries
    dh_t = [[[ex.wirtinger_derivative(h_t[j][l], i, bar=False)
              for l in range(n)] for j in range(n)] for i in range(n)]
    ddh_t = [[[[ex.wirtinger_derivative(dh_t[i][k][l], j, bar=True)
                for l in range(n)] for k in range(n)]
              for j in range(n)] for i in range(n)]
    return h_t, dh_t, ddh_t


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def _hopf_jets(z):
    n = z.shape[-1]
    r = np.sum(z * np.conj(z), axis=-1).real
    zc = np.ascontiguousarray(np.moveaxis(z, -1, 0))  # zc[i] = z^i, one field each
    zb, eye = np.conj(zc), np.eye(n).reshape((n, n) + (1,) * r.ndim)
    # h = 4 delta / r, dh[i,j,l] = -4 delta_{jl} conj(z_i) / r^2, and
    # ddh[i,j,k,l] = 4 delta_{kl} (-delta_{ij}/r^2 + 2 z_j conj(z_i)/r^3)
    core = -eye / r ** 2 + 2 * zc[None, :] * zb[:, None] / r ** 3
    return (4 * eye / r, -4 * zb[:, None, None] * eye / r ** 2,
            4 * core[:, :, None, None] * eye)


def _hopf_source(n):
    r = " + ".join(f"abs2(z{k + 1})" for k in range(n))
    return "\n".join(f"h[{k + 1}][{k + 1}] = 4/({r})" for k in range(n))


def _tricerri_jets(z):
    # diag(1/y^2, y) with y = Im z1, on Im z1 > 0
    y = z[..., 0].imag
    shape = z.shape[:-1]
    h = np.zeros((2, 2) + shape, complex)
    h[0, 0] = 1 / y ** 2
    h[1, 1] = y
    dh = np.zeros((2, 2, 2) + shape, complex)
    dh[0, 0, 0] = 1j / y ** 3
    dh[0, 1, 1] = -0.5j
    ddh = np.zeros((2, 2, 2, 2) + shape, complex)
    ddh[0, 0, 0, 0] = 1.5 / y ** 4
    return h, dh, ddh


_TRICERRI_SRC = """
h[1][1] = 1/pow(im(z1), 2)
h[2][2] = im(z1)
"""


def _elliptic_jets(z):
    # Vaisman metric on (Im z1 > 0) x (z2 != 0); coordinates (z, w) = (z1, z2)
    y = z[..., 0].imag
    w = z[..., 1]
    wb = np.conj(w)
    shape = z.shape[:-1]
    h = np.zeros((2, 2) + shape, complex)
    h[0, 0] = 2 / y ** 2
    h[0, 1] = -2j / (y * wb)
    h[1, 0] = 2j / (y * w)
    h[1, 1] = 4 / (w * wb)
    dh = np.zeros((2, 2, 2) + shape, complex)
    dh[0, 0, 0] = 2j / y ** 3
    dh[0, 0, 1] = 1 / (wb * y ** 2)
    dh[0, 1, 0] = -1 / (w * y ** 2)
    dh[1, 1, 0] = -2j / (y * w ** 2)
    dh[1, 1, 1] = -4 / (w ** 2 * wb)
    ddh = np.zeros((2, 2, 2, 2) + shape, complex)
    ddh[0, 0, 0, 0] = 3 / y ** 4
    ddh[0, 0, 0, 1] = -1j / (y ** 3 * wb)
    ddh[0, 0, 1, 0] = 1j / (y ** 3 * w)
    ddh[0, 1, 0, 1] = -1 / (y ** 2 * wb ** 2)
    ddh[1, 0, 1, 0] = -1 / (y ** 2 * w ** 2)
    ddh[1, 1, 1, 1] = 4 / (w ** 2 * wb ** 2)
    return h, dh, ddh


_ELLIPTIC_SRC = """
h[1][1] = 2/pow(im(z1), 2)
h[1][2] = -2*i/(im(z1)*zb2)
h[2][2] = 4/abs2(z2)
"""


def _vaisman_jets(z, m):
    # Inoue-surface family: s = Im z2 - m log(Im z1), on Im z1 > 0
    y = z[..., 0].imag
    v = z[..., 1].imag
    s = v - m * np.log(y)
    shape = z.shape[:-1]
    h = np.zeros((2, 2) + shape, complex)
    h[0, 0] = (1 + s ** 2) / y ** 2
    h[0, 1] = -s / y
    h[1, 0] = -s / y
    h[1, 1] = 1.0
    dh = np.zeros((2, 2, 2) + shape, complex)
    dh[0, 0, 0] = 1j * (1 + s ** 2 + m * s) / y ** 3
    dh[0, 0, 1] = -1j * (m + s) / (2 * y ** 2)
    dh[0, 1, 0] = -1j * (m + s) / (2 * y ** 2)
    dh[1, 0, 0] = -1j * s / y ** 2
    dh[1, 0, 1] = 1j / (2 * y)
    dh[1, 1, 0] = 1j / (2 * y)
    ddh = np.zeros((2, 2, 2, 2) + shape, complex)
    ddh[0, 0, 0, 0] = (3 + 3 * s ** 2 + 5 * m * s + m ** 2) / (2 * y ** 4)
    ddh[0, 0, 0, 1] = -(3 * m + 2 * s) / (4 * y ** 3)
    ddh[0, 0, 1, 0] = -(3 * m + 2 * s) / (4 * y ** 3)
    ddh[0, 1, 0, 0] = -(2 * s + m) / (2 * y ** 3)
    ddh[1, 0, 0, 0] = -(2 * s + m) / (2 * y ** 3)
    ddh[0, 1, 0, 1] = 1 / (4 * y ** 2)
    ddh[0, 1, 1, 0] = 1 / (4 * y ** 2)
    ddh[1, 0, 0, 1] = 1 / (4 * y ** 2)
    ddh[1, 0, 1, 0] = 1 / (4 * y ** 2)
    ddh[1, 1, 0, 0] = 1 / (2 * y ** 2)
    return h, dh, ddh


_VAISMAN_SRC = """
h[1][1] = (1 + pow(im(z2) - m*log(im(z1)), 2))/pow(im(z1), 2)
h[1][2] = -(im(z2) - m*log(im(z1)))/im(z1)
h[2][2] = 1
"""


class _TrigSum:
    """Sum of A * cos(2 pi (a.x + b.y) + phase) terms.

    `plane_wave_jets` evaluates its jets exactly, which keeps the builtin
    grid metrics exactly periodic; `source` gives the same sum as a DSL
    expression for the symbolic path.
    """

    def __init__(self, terms):
        # terms: list of (amplitude, a(len n), b(len n), phase in turns*2pi)
        self.terms = [(float(A), np.asarray(a, float), np.asarray(b, float),
                       float(ph)) for A, a, b, ph in terms]

    def source(self, n):
        """Equivalent DSL expression: re(exp(i*(2 pi u + phase)))."""
        parts = []
        for A, a, b, ph in self.terms:
            u_terms = []
            for k in range(n):
                if a[k]:
                    u_terms.append(f"{_flit(2 * np.pi * a[k])}*re(z{k + 1})")
                if b[k]:
                    u_terms.append(f"{_flit(2 * np.pi * b[k])}*im(z{k + 1})")
            u_terms.append(_flit(ph))
            parts.append(f"{_flit(A)}*re(exp(i*({' + '.join(u_terms)})))")
        return " + ".join(parts)


def _flit(x: float) -> str:
    return repr(float(x))


def plane_wave_jets(z, waves: _TrigSum, amplitude: Callable):
    """(h, dh, ddh) of h = I + sum_t (P_t e^{i theta_t} + P_t^H e^{-i theta_t}).

    `waves` gives the phases theta_t = 2 pi (a_t.x + b_t.y) + phase_t and the
    amplitudes A_t; `amplitude(A, c)` returns the (T, m, m) matrices P_t from
    A (T,) and c (T, n), c_t = a_t/2 - i b_t/2.  d/dz^i multiplies
    e^{+-i theta} by +-2 pi i c_i and d/dzbar^j by +-2 pi i conj(c_j), so
    every component of h, dh and ddh is a fixed combination of the 2T fields
    e^{+-i theta_t}: on each node block (`map_blocks`) each array is one
    (components x 2T) @ (2T x nodes) product written in place, and the
    fields live for one block only.  T = 0 gives the identity.
    """
    n, batch = z.shape[-1], z.shape[:-1]
    A = np.array([t[0] for t in waves.terms])
    a, b = (np.reshape([t[k] for t in waves.terms], (len(A), n)) for k in (1, 2))
    phase = np.array([t[3] for t in waves.terms])
    c = 0.5 * a - 0.5j * b
    P = np.asarray(amplitude(A, c), complex)
    amp = np.concatenate([P, np.conj(P).swapaxes(1, 2)])  # of e^{i theta}, e^{-i theta}
    dz = 2j * np.pi * np.concatenate([c, -c])  # d/dz^i, then its d/dzbar^j is -conj
    coefs = (amp, dz[:, :, None, None] * amp[:, None],
             dz[:, :, None, None, None] * -np.conj(dz)[:, None, :, None, None]
             * amp[:, None, None])
    rows = [coef.reshape(len(coef), math.prod(coef.shape[1:])).T  # (components, 2T)
            for coef in coefs]
    flat = [np.empty((len(row),) + batch, complex) for row in rows]

    def block(zb, *out):  # zb[k, node]; out[m][component, node], written here
        e = np.exp(1j * (2 * np.pi * (a @ zb.real + b @ zb.imag) + phase[:, None]))
        fields = np.concatenate([e, np.conj(e)])
        for row, o in zip(rows, out):
            np.matmul(row, fields, out=o)
        return ()

    map_blocks(block, batch, np.moveaxis(z, -1, 0), *flat)
    h, dh, ddh = (f.reshape(coef.shape[1:] + batch) for f, coef in zip(flat, coefs))
    diag = np.arange(amp.shape[-1])
    h[diag, diag] += 1
    return h, dh, ddh


def _kaehler_amplitude(A, c):
    # h = I + d dbar phi with phi = sum A cos(theta): P = -2 pi^2 A c c^H
    return -2 * np.pi ** 2 * A[:, None, None] * c[:, :, None] * np.conj(c)[:, None, :]


def _pluriclosed_amplitude(A, c):
    # h_{k lbar} = delta + i (dbar_l g [k = 0] - d_k g [l = 0]) with
    # g = sum A cos(theta): P[0, l] = -pi A conj(c_l), P[k, 0] += pi A c_k
    P = np.zeros(c.shape + c.shape[-1:], complex)
    P[:, 0, :] = -np.pi * A[:, None] * np.conj(c)
    P[:, :, 0] += np.pi * A[:, None] * c
    return P


# Kaehler potential bump: phi = sum of trig terms; h = I + d d-bar phi.
_KB_TERMS = [
    (1.0, (1, 0), (0, 0), 0.0),          # cos(2 pi x1)
    (0.5, (0, 0), (1, 0), 1.0),          # cos(2 pi y1 + 1)
    (0.5, (1, 0), (0, -1), 0.0),         # cos(2 pi (x1 - y2))
    (1.0 / 3.0, (0, 1), (1, 0), 0.5),    # cos(2 pi (x2 + y1) + 1/2)
]

# Pluriclosed bump: h = I + i(g_jbar delta_{i1} - g_i delta_{j1}) from the
# (0,1)-form g dzbar^1; exactly pluriclosed (n = 2: Gauduchon), not balanced.
_PB_TERMS = [
    (1.0, (0, 1), (0, 0), 0.0),          # cos(2 pi x2)
    (0.6, (1, 0), (0, 1), 1.2),          # cos(2 pi (x1 + y2) + 1.2)
    (0.4, (0, 0), (1, 1), 0.3),          # cos(2 pi (y1 + y2) + 0.3)
]


def _bump(terms, eps):
    return _TrigSum([(eps * A, a, b, ph) for A, a, b, ph in terms])


def _bump_jets(terms, amplitude, z, eps):
    return plane_wave_jets(z, _bump(terms, eps), amplitude)


def _kaehler_bump_source(n, eps):
    # h entries are second derivatives of the potential; the DSL carries the
    # potential composed with re/im/exp, differentiated symbolically.
    tree = parse_expr(_bump(_KB_TERMS, eps).source(n), n)
    lines = []
    for k in range(n):
        dk = ex.wirtinger_derivative(tree, k, bar=False)
        for l in range(k, n):
            dd = ex.wirtinger_derivative(dk, l, bar=True)
            entry = ex.simplify(ex.Add(ex.Num(1.0 if k == l else 0.0), dd))
            lines.append(f"h[{k + 1}][{l + 1}] = {ex.to_source(entry)}")
    return "\n".join(lines)


def _pluriclosed_bump_source(n, eps):
    tree = parse_expr(_bump(_PB_TERMS, eps).source(n), n)
    lines = []
    for i in range(n):
        for j in range(i, n):
            term = ex.ZERO
            if i == 0:
                term = ex.Add(term, ex.Mul(ex.Num(1j),
                                           ex.wirtinger_derivative(tree, j, bar=True)))
            if j == 0:
                term = ex.Sub(term, ex.Mul(ex.Num(1j),
                                           ex.wirtinger_derivative(tree, i, bar=False)))
            entry = ex.simplify(ex.Add(ex.Num(1.0 if i == j else 0.0), term))
            lines.append(f"h[{i + 1}][{j + 1}] = {ex.to_source(entry)}")
    return "\n".join(lines)


class _Builtin(NamedTuple):
    """One catalog entry; `builtin` is its only reader."""

    jets: Callable                   # closed form: (z, **params) -> (h, dh, ddh)
    source: Callable                 # DSL metric source: (n, **params) -> str
    defaults: dict = {}              # the only parameters accepted
    any_n: bool = False              # otherwise the chart has n = 2
    domain: Callable = _full_domain
    balanced: bool = False
    periodic: bool = False
    golden: Callable | None = None   # stored Chern (s1, s2): (n, **params) -> dict


# Every builtin is Gauduchon.  The golden (s1, s2) at t = 0 are asserted by
# `inspect --golden`; each agrees with the exact sympy oracle in the test
# suite, and DECISIONS.md (D1) records the corrected surface constants.
_CATALOG = {
    "flat-torus": _Builtin(  # the empty plane-wave sum
        partial(plane_wave_jets, waves=_TrigSum([]), amplitude=_kaehler_amplitude),
        lambda n: "\n".join(f"h[{k + 1}][{k + 1}] = 1" for k in range(n)),
        any_n=True, balanced=True, periodic=True,
        golden=lambda n: {"s1": 0.0, "s2": 0.0}),
    "hopf": _Builtin(
        _hopf_jets, _hopf_source, any_n=True, domain=_punctured_domain,
        golden=lambda n: {"s1": n * (n - 1) / 4.0, "s2": (n - 1) / 4.0}),
    "elliptic": _Builtin(
        _elliptic_jets, lambda n: _ELLIPTIC_SRC,
        domain=partial(_halfplane_domain, punctured_axes=(1,)),
        golden=lambda n: {"s1": -0.5, "s2": -0.75}),
    "tricerri": _Builtin(
        _tricerri_jets, lambda n: _TRICERRI_SRC, domain=_halfplane_domain,
        golden=lambda n: {"s1": -0.25, "s2": -0.5}),
    "vaisman": _Builtin(
        _vaisman_jets, lambda n, m: _VAISMAN_SRC, {"m": 0.0}, domain=_halfplane_domain,
        golden=lambda n, m: {"s1": -0.5, "s2": -(3.0 + m * m) / 4.0}),
    "kaehler-bump": _Builtin(
        partial(_bump_jets, _KB_TERMS, _kaehler_amplitude), _kaehler_bump_source,
        {"eps": 1e-3}, balanced=True, periodic=True),
    "pluriclosed-bump": _Builtin(
        partial(_bump_jets, _PB_TERMS, _pluriclosed_amplitude),
        _pluriclosed_bump_source, {"eps": 0.03}, periodic=True),
}

_BUILTIN_ALIASES = {
    "inoue1": "tricerri",
    "inoue2": "vaisman",
    "elliptic-surface": "elliptic",
}


def builtin_names():
    return list(_CATALOG)


def builtin(name: str, n: int | None = None, **params) -> ModelManifold:
    """Construct a catalog manifold; unknown names raise KeyError.

    A dimension the entry does not allow, or a parameter it does not
    declare, raises ValueError; declared parameters not given take their
    defaults.
    """
    name = _BUILTIN_ALIASES.get(name, name)
    if name not in _CATALOG:
        raise KeyError(f"unknown builtin manifold {name!r}; "
                       f"known: {', '.join(builtin_names())}")
    entry = _CATALOG[name]
    if not entry.any_n and n is not None and n != 2:
        raise ValueError(f"{name} is only defined for n=2")
    n = 2 if n is None else n
    extra = set(params) - set(entry.defaults)
    if extra:
        raise ValueError(f"unknown parameters: {sorted(extra)}")
    params = {k: float(params.get(k, v)) for k, v in entry.defaults.items()}
    return ModelManifold(
        name=name, n=n, params=params, domain=entry.domain(),
        declared_gauduchon=True, declared_balanced=entry.balanced,
        periods=(1.0,) * (2 * n) if entry.periodic else None,
        metric_source=partial(entry.source, n, **params),
        closed_jet=entry.jets,
        golden=entry.golden(n, **params) if entry.golden else None)


def manifold_from_manifest(doc: dict) -> ModelManifold:
    """Build a manifold from a parsed manifest dictionary; ParseError if a
    field has the wrong JSON type."""
    n, metric, params = doc["n"], doc["metric"], doc.get("params", {})
    if type(n) is not int:
        raise ParseError(f"manifest n must be an integer, got {n!r}")
    if not (isinstance(metric, str) or (isinstance(metric, list)
                                         and all(isinstance(m, str) for m in metric))):
        raise ParseError(f"manifest metric must be a string or a list of strings, "
                         f"got {metric!r}")
    if not (isinstance(params, dict)
            and all(type(v) in (int, float) for v in params.values())):
        raise ParseError(f"manifest params must map names to numbers, got {params!r}")
    for key, value in params.items():
        if not np.isfinite(value):
            raise ParseError(f"manifest param {key} must be finite, got {value!r}")
    flags = {key: doc.get(key, False) for key in ("declared_gauduchon", "declared_balanced")}
    for key, flag in flags.items():
        if type(flag) is not bool:
            raise ParseError(f"manifest {key} must be true or false, got {flag!r}")
    src = metric if isinstance(metric, str) else "\n".join(metric)
    params = {k: float(v) for k, v in params.items()}
    mx = parse_metric(src, n)
    unbound = set(mx.params) - set(params)
    if unbound:
        raise ParseError(f"manifest leaves parameters unbound: {sorted(unbound)}")
    dom = doc.get("domain", {}) or {}
    if not isinstance(dom, dict):
        raise ParseError(f"manifest domain must be an object, got {dom!r}")
    kind = dom.get("kind", "full")
    if kind == "full":
        domain = _full_domain()
    elif kind == "punctured":
        domain = _punctured_domain()
    elif kind == "halfplane":
        axes = dom.get("punctured_axes", [])
        if not (isinstance(axes, list) and all(type(k) is int and 1 <= k < n
                                               for k in axes)):
            raise ParseError(f"punctured_axes must be integers in 1..{n - 1}, "
                             f"got {axes!r}")
        domain = _halfplane_domain(tuple(axes))
    else:
        raise ParseError(f"unknown domain kind {kind!r}")
    periods = dom.get("periods")
    if periods is not None:
        if not (isinstance(periods, list) and len(periods) == 2 * n
                and all(type(p) in (int, float) and 0 < p < np.inf for p in periods)):
            raise ParseError(f"periods must be {2 * n} positive finite numbers, "
                             f"got {periods!r}")
        periods = tuple(float(p) for p in periods)
    return ModelManifold(
        name=str(doc["name"]), n=n, params=params, metric_expr=mx, domain=domain,
        periods=periods, **flags)


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------

def factor_jet_from_expr(f: ex.Expr, z: np.ndarray, n: int,
                         params: dict | None = None) -> FactorJet:
    """2-jet of a real-valued DSL expression f at points z."""
    params = params or {}
    val = ex.evaluate(f, z, params)
    if np.max(np.abs(val.imag)) > 1e-10 * max(1.0, float(np.max(np.abs(val)))):
        raise ValueError("conformal factor is not real-valued")
    df_t = [ex.wirtinger_derivative(f, k, bar=False) for k in range(n)]
    ddf_t = [[ex.wirtinger_derivative(df_t[i], j, bar=True) for j in range(n)]
             for i in range(n)]
    return FactorJet(val.real, _evaluate_tensor(df_t, z, params),
                     _evaluate_tensor(ddf_t, z, params))


def conformal_manifold(man: ModelManifold, f: "ex.Expr | str") -> ModelManifold:
    """Manifold whose metric is e^f times `man`'s metric, built symbolically.

    f must be real-valued (checked formally, with a numeric fallback on the
    chart domain).  The result always carries a DSL metric; jets flow
    through the symbolic differentiator.
    """
    if isinstance(f, str):
        f = parse_expr(f, man.n)
    fc = ex.simplify(ex.formal_conj(f))
    if fc != ex.simplify(f):
        z = man.sample_points(16, seed=3)
        va = ex.evaluate(f, z, man.params)
        if np.max(np.abs(va.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(va)))):
            raise ValueError("conformal factor is not real-valued")
    base = man.dsl_metric()
    if base is None:
        raise ValueError(f"{man.name} carries no expression metric to transform")
    n = man.n
    ef = ex.Exp(f)
    entries = [[ex.simplify(ex.Mul(ef, base.entries[i][j]))
                for j in range(n)] for i in range(n)]
    mx = MetricExpr(n=n, entries=entries, params=base.params)
    return ModelManifold(
        name=f"{man.name}*e^f", n=n, params=dict(man.params),
        metric_expr=mx, domain=man.domain,
        declared_gauduchon=False, declared_balanced=False,
        periods=man.periods)
