"""Pointwise curvature engine for the Chern and Gauduchon-family connections.

Index conventions (every array is component-first, like the jet: index
axes lead and the batch axes trail):

* torsion      T[i, j, k, ...]    = T_{ij}^k
             = h^{k lbar} (d h_{j lbar}/dz^i - d h_{i lbar}/dz^j)
* curvature    R[i, j, k, l, ...] = R_{i jbar k lbar}
* Chern        Theta_{i jbar k lbar}
             = -d^2 h_{k lbar}/dz^i dzbar^j
               + h^{p qbar} (d h_{p lbar}/dzbar^j)(d h_{k qbar}/dz^i)
* family       R(t) = Theta + t (Theta_{i lbar k jbar} + Theta_{k jbar i lbar}
               - 2 Theta) + t^2 (T_{ik}^p conj(T_{jl}^q) h_{p qbar}
               - h^{p qbar} h_{m lbar} h_{k rbar} T_{ip}^m conj(T_{jq}^r))
* traces       Ric1_{i jbar} = h^{k lbar} R_{i jbar k lbar}
               Ric2_{i jbar} = h^{k lbar} R_{k lbar i jbar}
               Ric3_{i jbar} = h^{k lbar} R_{i lbar k jbar}
               Ric4_{i jbar} = h^{k lbar} R_{k jbar i lbar}
               s1 = h^{i jbar} h^{k lbar} R_{i jbar k lbar}
               s2 = h^{i lbar} h^{k jbar} R_{i jbar k lbar}

Ricci coefficient matrices are stored internally in the raw d_i d_jbar
index order; `report_matrix` flips to the entrywise conjugate, which is the
convention the builtin golden tables use.

Torsion-trace forms: with tau_i = sum_p T_{ip}^p,
  delbar* omega = i tau_i dz^i,   del* omega = -i conj(tau_j) dzbar^j,
and del del* omega is the exterior derivative of the latter, computed from
the jet's mixed second derivatives.  These normalizations are pinned by two
calibration identities that the test suite enforces exactly: the two-path
scalar relations at every t, and |del omega|^2 = |delbar* omega|^2 in
complex dimension two.

Two paths produce the curvature traces.  The pointwise pipeline builds no
4-tensor: `torsion_traces` gives tau, <del del* omega, omega>, the torsion
norms, S_C1 and the Gauduchon and pluriclosed residuals in one pass over the
jet (the grid metric, the class residuals, the report and the comparison
identity read it; `del_del_star` runs it for del del* omega), and
`ricci_forms` gives the four Ricci forms and s1/s2 at every t of a list in
one pass; both read the jet's components in place.  The full-tensor path
(`chern_torsion`, `chern_curvature`, `gauduchon_curvature` at one t,
`ricci_and_scalars`) builds R_{i jbar k lbar} with `einsum`; it is the
tests' oracle for both passes, and no CLI command runs it; `forms` is the
exterior-algebra oracle of the class residuals and the Lee form, and no
module here imports it.

Class membership is a dict of residual maxima (`classify`); each caller
compares a residual with the threshold its decision needs (`CLASS_TOL` for
a class flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .jets import MetricJet, map_blocks
from .manifolds import ModelManifold

__all__ = [
    "CurvatureTensor", "RicciForms", "EinsteinReport", "chern_torsion",
    "chern_curvature", "gauduchon_curvature", "ricci_and_scalars", "torsion_diagnostics",
    "scalar_via_identity", "scalar_comparison_defect", "einstein_residual",
    "classify", "report_matrix", "oneone_norm2", "TorsionTraces",
    "torsion_traces", "traces_block", "collect_traces", "ricci_forms",
    "class_residual_fields", "del_del_star",
]

IMAG_TOL = 1e-10
CLASS_TOL = 1e-8  # a metric is in a class iff its residual is below this


@dataclass
class CurvatureTensor:
    R: np.ndarray
    t: float


@dataclass
class RicciForms:
    ric1: np.ndarray
    ric2: np.ndarray
    ric3: np.ndarray
    ric4: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    t: float = 0.0


@dataclass
class EinsteinReport:
    f_hat: np.ndarray
    residual: np.ndarray      # metric norm of Theta3 + Theta4 - f_hat * omega
    cross_defect: np.ndarray  # vs 2 Theta1 - (ddstar + dbardbstar)
    theta3: np.ndarray
    theta4: np.ndarray


def report_matrix(m: np.ndarray) -> np.ndarray:
    """Coefficient matrix in the golden-table convention (entrywise conj)."""
    return np.conj(m)


def chern_torsion(jet: MetricJet) -> np.ndarray:
    a = jet.dh - jet.dh.swapaxes(0, 1)  # dh[i,j,l] - dh[j,i,l]
    return np.einsum("kl...,ijl...->ijk...", jet.ginv, a)


def chern_curvature(jet: MetricJet) -> np.ndarray:
    quad = np.einsum("pq...,jlp...,ikq...->ijkl...", jet.ginv, np.conj(jet.dh), jet.dh)
    return -jet.ddh + quad


# The benchmark's span table (bench/spans.py) times this name.
def gauduchon_curvature(jet: MetricJet, t: float) -> CurvatureTensor:
    """Curvature of the Gauduchon connection (1-t) Chern + t Bismut.

    At t = 0 this returns the Chern tensor bit-identically.
    """
    theta = chern_curvature(jet)
    if t == 0:
        return CurvatureTensor(theta, 0.0)
    torsion = chern_torsion(jet)
    sw1 = np.einsum("ilkj...->ijkl...", theta)
    sw2 = np.einsum("kjil...->ijkl...", theta)
    a_term = np.einsum("ikp...,jlq...,pq...->ijkl...",
                       torsion, np.conj(torsion), jet.h)
    lowered = np.einsum("ipm...,ml...->ipl...", torsion, jet.h)
    b_term = np.einsum("pq...,ipl...,jqk...->ijkl...",
                       jet.ginv, lowered, np.conj(lowered))
    linear, quadratic = sw1 + sw2 - 2 * theta, a_term - b_term
    return CurvatureTensor(theta + t * linear + t * t * quadratic, float(t))


def ricci_and_scalars(curv: CurvatureTensor, jet: MetricJet) -> RicciForms:
    ginv, R = jet.ginv, curv.R
    ric1 = np.einsum("kl...,ijkl...->ij...", ginv, R)
    ric2 = np.einsum("kl...,klij...->ij...", ginv, R)
    ric3 = np.einsum("kl...,ilkj...->ij...", ginv, R)
    ric4 = np.einsum("kl...,kjil...->ij...", ginv, R)
    s1 = np.einsum("ij...,ij...->...", ginv, ric1)
    s2 = np.einsum("ij...,ij...->...", ginv, ric3)
    return RicciForms(ric1, ric2, ric3, ric4, *_real_scalars(s1, s2), curv.t)


def _real_scalars(s1: np.ndarray, s2: np.ndarray):
    """Real parts of (s1, s2); ArithmeticError if either is not real."""
    _check_real(*_extents(s1, s2))
    return s1.real, s2.real


def _extents(*fields) -> tuple:
    """(max |x| for each field, then max |Im x| for each), as floats."""
    return tuple(float(np.max(np.abs(x))) for x in fields + tuple(x.imag for x in fields))


def _check_real(s1_max, s2_max, s1_imag, s2_imag) -> None:
    """ArithmeticError unless the larger imaginary part of s1 and s2 is within
    IMAG_TOL of max(1, max |s1|, max |s2|), each a maximum over every node."""
    worst = max(s1_imag, s2_imag)
    if worst > IMAG_TOL * max(1.0, s1_max, s2_max):
        raise ArithmeticError(f"scalar curvature has imaginary part {worst:.3e}")


def _sum(terms):
    """Sum of freshly computed arrays, accumulated in place into the first."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _up(x: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """y[.., k, ..] = sum_l g[l, k] x[.., l, ..] over index `axis` of x."""
    xm = np.moveaxis(x, axis, 0)
    pad = (slice(None),) + (None,) * (x.ndim - g.ndim + 1)
    y = _sum(g[l][pad] * xm[l][None] for l in range(g.shape[0]))
    return np.moveaxis(y, 0, axis)


def _raise_last2(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """z[i, l, p] = g[k, l] g[p, q] x[i, k, q]."""
    return _up(_up(x, g.swapaxes(0, 1), 2), g, 1)


def _full_norm2(x: np.ndarray, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g[i, j] g[k, l] g[p, q] x[i, k, q] conj(x[j, l, p]), with z = _raise_last2(x, g)."""
    n = g.shape[0]
    raised = _sum(g[i, :, None, None] * z[i, None] for i in range(n))
    # Re sum x conj(raised) equals Re sum conj(x) raised; no conj(x) copy
    np.conj(raised, out=raised)
    raised *= x
    return raised.sum(axis=(0, 1, 2)).real


@dataclass(frozen=True)
class TorsionTraces:
    """Pointwise torsion traces and scalars of one metric jet.

    Every array carries the jet's batch axes last; `tau` and `lee` lead
    with their index axes, like the jet.  del del* omega is not kept.
    """

    tau: np.ndarray           # tau_i = sum_p T_{ip}^p = eta^{1,0}_i
    pairing: np.ndarray       # <del del* omega, omega>
    del_omega_sq: np.ndarray  # |del omega|^2
    del_star_sq: np.ndarray   # |del* omega|^2 = |delbar* omega|^2
    s_c1: np.ndarray          # first Chern scalar curvature
    gauduchon: np.ndarray     # |del delbar omega^{n-1}|
    pluriclosed: np.ndarray   # |del delbar omega|

    @property
    def lee(self) -> np.ndarray:
        """Real Lee-form components lee[a, ...], a ordered (x1, y1, x2, y2, ...)."""
        lee = np.stack([2 * self.tau.real, -2 * self.tau.imag], axis=1)  # lee[k, (x, y)]
        return lee.reshape((-1,) + lee.shape[2:])

    def scalars(self, t: float):
        """(s1, s2) of the Gauduchon connection at t via the torsion-trace identities.

        s1 = S_C1 - 2 t <dd* w, w>
        s2 = S_C1 - (1 - 2t) <dd* w, w> - t^2 (2 |dw|^2 + |d* w|^2)
        """
        s1 = self.s_c1 - 2 * t * self.pairing
        s2 = self.s_c1 - (1 - 2 * t) * self.pairing - t * t * (
            2 * self.del_omega_sq + self.del_star_sq)
        return s1, s2


def torsion_traces(jet: MetricJet) -> TorsionTraces:
    """One pass over the jet for tau, <del del* omega, omega>, the torsion
    norms, S_C1 and the Gauduchon and pluriclosed residuals.

    Reads the jet's components in place and never forms the Chern 4-tensor:
    S_C1 = h^{i jbar} h^{k lbar} (-ddh[i,j,k,l]
                                  + h^{p qbar} conj(dh[j,l,p]) dh[i,k,q]).
    The lowered torsion T_{ik}^p h_{p qbar} is dh[i,k,q] - dh[k,i,q], and
    d tau_j / dzbar^i follows from the jet's mixed second derivatives.  With
    Lambda^2 = h^{i jbar} h^{k lbar} (ddh[i,j,k,l] - ddh[k,j,i,l]),
    |del delbar omega^{n-1}| = (n-1)! |Lambda^2 - |del omega|^2 + |del* omega|^2|;
    at n = 2 this is |del delbar omega| too, and `_pluriclosed_norm` gives
    that for n >= 3.  Runs in node blocks (`map_blocks`); the pairing must be
    real to IMAG_TOL of its largest value over every node.
    """
    g = jet.ginv
    return collect_traces(jet.n, map_blocks(lambda *b: traces_block(*b)[1:], g.shape[2:],
                                            g, jet.dh, jet.ddh))


def collect_traces(n: int, out: tuple) -> TorsionTraces:
    """The bundle from `traces_block`'s outputs over every node (as
    `map_blocks` returns them); ArithmeticError unless the pairing is real."""
    *fields, largest, worst = out
    if worst > IMAG_TOL * max(1.0, largest):
        raise ArithmeticError("pairing <del del* omega, omega> is not real")
    if n == 2:
        fields.append(fields[-1])  # the pluriclosed residual is the Gauduchon one
    return TorsionTraces(*fields)


def del_del_star(jet: MetricJet) -> np.ndarray:
    """ddstar[i, j, ...], the (1,1)-matrix of del del* omega, by the trace
    pass, which pairs it with omega and does not keep it (`traces_block`)."""
    g = jet.ginv
    return map_blocks(lambda *b: traces_block(*b)[:1], g.shape[2:], g, jet.dh, jet.ddh)[0]


def traces_block(g: np.ndarray, dh: np.ndarray, ddh: np.ndarray) -> tuple:
    """del del* omega on one block of nodes, then `torsion_traces`' fields
    there (the pluriclosed residual only for n >= 3), then max |pairing|
    and max |Im pairing|."""
    n = g.shape[0]
    r = range(n)
    # trace of ddh over its last index pair, and over its outer pair
    inner = [[_sum(g[k, l] * ddh[a, b, k, l] for k in r for l in r)
              for b in r] for a in r]
    outer = [[_sum(g[p, l] * ddh[p, i, j, l] for p in r for l in r)
              for j in r] for i in r]
    trace_inner = _sum(g[a, b] * inner[a][b] for a in r for b in r)
    lam2 = trace_inner - _sum(g[i, j] * outer[j][i] for i in r for j in r)
    s_c1 = _full_norm2(dh, _raise_last2(dh, g), g) - trace_inner.real
    del trace_inner

    low = dh - dh.swapaxes(0, 1)   # lowered torsion
    tau = (low * g).sum(axis=(1, 2))
    z = _raise_last2(low, g)
    del_omega_sq = 0.5 * _full_norm2(low, z, g)
    del low
    del_star_sq = _sum(g[i, j] * tau[i] * np.conj(tau[j]) for i in r for j in r).real
    lam2 -= del_omega_sq
    lam2 += del_star_sq
    gauduchon = math.factorial(n - 1) * np.abs(lam2)
    del lam2
    pluriclosed = () if n == 2 else (_pluriclosed_norm(ddh, g),)

    # ddstar[i, j] = -conj(d tau_j / dzbar^i): the derivative of the inverse
    # metric in tau, then the mixed second derivatives of h
    np.conj(z, out=z)
    ddstar = np.empty((n, n) + tau.shape[1:], complex)
    for i in r:
        for j in r:
            ddstar[i, j] = _sum(dh[i, c, b] * z[j, c, b] for c in r for b in r)
            ddstar[i, j] += np.conj(outer[i][j] - inner[j][i])
    pairing = _sum(g[i, j] * ddstar[i, j] for i in r for j in r)
    return (ddstar, tau, pairing.real, del_omega_sq, del_star_sq, s_c1, gauduchon,
            *pluriclosed, *_extents(pairing))


def _pluriclosed_norm(ddh: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|del delbar omega| from the jet's ddh and inverse metric g.

    On dz^i ^ dz^k ^ dzbar^j ^ dzbar^l (i < k, j < l) the form has the
    coefficient -i a[(i,k), (j,l)], a[(i,k), (j,l)] = ddh[i,j,k,l] -
    ddh[k,j,i,l] - ddh[i,l,k,j] + ddh[k,l,i,j], and its norm squared is
    sum a[I,J] conj(a[K,L]) m[I,K] conj(m[J,L]) over the 2x2 minors m of g.
    With conj(m[J,L]) = m[L,J] the sum runs as two contractions over pairs.
    """
    pairs = list(combinations(range(g.shape[0]), 2))
    a = [[ddh[i, j, k, l] - ddh[k, j, i, l] - ddh[i, l, k, j] + ddh[k, l, i, j]
          for j, l in pairs] for i, k in pairs]
    m = [[g[i, j] * g[k, l] - g[i, l] * g[k, j] for j, l in pairs] for i, k in pairs]
    conj_a = [[np.conj(x) for x in row] for row in a]
    r = range(len(pairs))
    total = 0.0
    for I in r:
        row = [_sum(a[I][J] * m[L][J] for J in r) for L in r]  # (a conj(m))[I, L]
        total = total + _sum(m[I][K] * _sum(row[L] * conj_a[K][L] for L in r)
                             for K in r).real
    return np.sqrt(np.maximum(total, 0.0))


# Ric_m[i, j] = h^{k lbar} R.transpose(_TRACE_AXES[m - 1])[i, j, k, l]
_TRACE_AXES = ((0, 1, 2, 3), (2, 3, 0, 1), (0, 3, 2, 1), (2, 1, 0, 3))


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[i, j] = sum_{k, p} a[i, k, p] conj(b[j, k, p])."""
    n = a.shape[0]
    b = np.conj(b)
    return _sum(a[:, None, k, p] * b[None, :, k, p] for k in range(n) for p in range(n))


def ricci_forms(jet: MetricJet, ts) -> list[RicciForms]:
    """The four Ricci forms and (s1, s2) of the Gauduchon connection at each t in ts.

    One pass over the jet's components that never forms R.  Theta = -ddh + Q with
    Q[i,j,k,l] = sum_p E[i,k,p] conj(dh[j,l,p]), E = dh raised in its last
    index, so each Chern trace C_m is a trace of ddh plus one contraction.
    The t part of R(t) permutes the C_m; the t^2 part is A - B with
    A[i,j,k,l] = sum_p T[i,k,p] conj(L[j,l,p]) and B[i,j,k,l] =
    sum_{p,q} h^{p qbar} L[i,p,l] conj(L[j,q,k]), where L = dh - dh^T is the
    lowered torsion and T = E - E^T.  The C_m and the traces of A and B are
    built once per node block (`map_blocks`) and serve every t; s1 and s2
    must be real to IMAG_TOL of their largest values over every node.  The
    full-tensor path is its oracle.
    """
    ts = [float(t) for t in ts]
    g = jet.ginv
    res = map_blocks(partial(_ricci_block, ts), g.shape[2:], g, jet.dh, jet.ddh)
    out = []
    for k, t in enumerate(ts):
        fields = res[10 * k:10 * k + 10]  # four forms, s1, s2, then their extents
        _check_real(*fields[6:])
        out.append(RicciForms(*fields[:6], t))
    return out


def _ricci_block(ts, g: np.ndarray, dh: np.ndarray, ddh: np.ndarray) -> tuple:
    """For each t, `ricci_forms`' four forms and the real parts of s1 and s2
    on one block of nodes, then `_extents(s1, s2)`."""
    r = range(g.shape[0])
    e = _up(dh, g.swapaxes(0, 1), 2)
    et = e.swapaxes(0, 1)
    f = _up(dh, g, 1)                  # f[j, k, p] = h^{l kbar} dh[j, l, p]
    gt = _up(dh, g, 0).swapaxes(0, 1)  # gt[j, k, p] = h^{l kbar} dh[l, j, p]
    quad = (_pair(e, f), _pair(et, gt), _pair(e, gt), _pair(et, f))
    rest = tuple(range(4, ddh.ndim))
    c1, c2, c3, c4 = chern = [
        q - _sum(g[k, l] * x[:, :, k, l] for k in r for l in r)
        for q, x in zip(quad, (ddh.transpose(axes + rest) for axes in _TRACE_AXES))]
    del ddh, quad
    if any(t != 0 for t in ts):
        low = dh - dh.swapaxes(0, 1)
        tor, low_m = e - et, f - gt  # T, and L raised in its middle index
        a = _pair(tor, low_m)        # Ric1(A) = Ric2(A) = -Ric3(A) = -Ric4(A)
        b1 = _pair(_up(tor, g, 1), low)
        low_mu = _up(low_m, g, 0)  # b2[i, j] = sum conj(L[k, p, i]) low_mu[k, p, j]
        b2 = _sum(np.conj(low[k, p, :, None]) * low_mu[k, p, None] for k in r for p in r)
        # -Ric3(B) and -Ric4(B) contract L with the torsion trace tau
        tau = (low * g).sum(axis=(1, 2))
        u = _sum(g[:, q] * np.conj(tau[q]) for q in r)
        v = _sum(g[p] * tau[p] for p in r)
        b3 = _sum(low[:, p] * u[p] for p in r)
        b4 = _sum(np.conj(low[:, q]).swapaxes(0, 1) * v[q] for q in r)
    out = []
    for t in ts:
        ric = chern
        if t != 0:
            t2 = t * t
            ric = [c1 + t * (c3 + c4 - 2 * c1) + t2 * (a - b1),
                   c2 + t * (c3 + c4 - 2 * c2) + t2 * (a - b2),
                   c3 + t * (c1 + c2 - 2 * c3) - t2 * (a - b3),
                   c4 + t * (c1 + c2 - 2 * c4) - t2 * (a - b4)]
        s1 = _sum(g[i, j] * ric[0][i, j] for i in r for j in r)
        s2 = _sum(g[i, j] * ric[2][i, j] for i in r for j in r)
        out += [*ric, s1.real, s2.real, *_extents(s1, s2)]
    return tuple(out)


# The benchmark's span table (bench/spans.py) times this name.
def torsion_diagnostics(jet: MetricJet) -> TorsionTraces:
    """The torsion-trace bundle of `jet`, as `torsion_traces` returns it."""
    return torsion_traces(jet)


# The benchmark's span table (bench/spans.py) times this name.
def scalar_via_identity(jet: MetricJet, t: float):
    """(s1, s2) of the Gauduchon connection via the torsion-trace identities."""
    return torsion_traces(jet).scalars(t)


def scalar_comparison_defect(jet: MetricJet, ts) -> list[np.ndarray]:
    """s2 - s1 + (t^2 - 4t + 1)|delbar* w|^2 + 2 t^2 |dw|^2 at each t in ts.

    ~0 for Gauduchon metrics.  s1 and s2 come from one `ricci_forms` pass and
    the norms from `torsion_traces`: two independent passes over the jet, so
    the identity checks one against the other.
    """
    tr = torsion_traces(jet)
    out = []
    for ric in ricci_forms(jet, ts):
        t = ric.t
        out.append(ric.s2 - ric.s1
                   + (t * t - 4 * t + 1) * tr.del_star_sq
                   + 2 * t * t * tr.del_omega_sq)
    return out


def oneone_norm2(m: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Metric norm squared of a (1,1)-form given by its coefficient matrix."""
    return np.einsum("ij...,kl...,ik...,lj...->...",
                     m, np.conj(m), ginv, ginv).real


def einstein_residual(jet: MetricJet) -> EinsteinReport:
    """Deviation of Theta3 + Theta4 from f * omega with f = (2/n) S_C2.

    Also cross-checks Theta3 + Theta4 against 2 Theta1 - (dd* w + dbar dbar* w),
    whose two sides are computed along independent code paths: the Ricci
    pass and `del_del_star`.
    """
    ginv = jet.ginv
    ric, = ricci_forms(jet, [0.0])
    f_hat = 2.0 * ric.s2 / jet.n
    sum34 = ric.ric3 + ric.ric4
    resid = np.sqrt(np.maximum(oneone_norm2(
        sum34 - f_hat * jet.h, ginv), 0.0))
    ddstar = del_del_star(jet)
    other = 2 * ric.ric1 - (ddstar + np.conj(ddstar.swapaxes(0, 1)))
    cross = np.sqrt(np.maximum(oneone_norm2(sum34 - other, ginv), 0.0))
    return EinsteinReport(f_hat, resid, cross, ric.ric3, ric.ric4)


def class_residual_fields(traces: TorsionTraces) -> dict:
    """Pointwise metric-norm residuals of the four metric classes.

    kahler: |d omega|, balanced: |eta|, gauduchon: |del delbar omega^{n-1}|,
    pluriclosed: |del delbar omega|; each an array over the jet's batch axes.
    """
    return {"kahler": np.sqrt(np.maximum(2 * traces.del_omega_sq, 0.0)),
            "balanced": np.sqrt(np.maximum(2 * traces.del_star_sq, 0.0)),
            "gauduchon": traces.gauduchon, "pluriclosed": traces.pluriclosed}


def classify(man: ModelManifold, points: np.ndarray) -> dict:
    """Each class residual's maximum over the sample points; a metric is in a
    class iff its residual is below CLASS_TOL."""
    z = np.asarray(points, dtype=complex)
    if z.ndim == 1:
        z = z[None, :]
    if z.shape[0] < 1:
        raise ValueError("classification needs at least one sample point")
    return {k: float(np.max(v)) for k, v in
            class_residual_fields(torsion_traces(man.jet(z))).items()}
