"""Conformal transformation laws for the Gauduchon-connection curvatures.

Implements the closed-form transformation of the third/fourth Ricci forms
and the second scalar curvature under omega -> e^f omega, together with a
direct-recomputation oracle: transform the metric jet, rerun the curvature
engine, compare.  The oracle is the arbiter for every coefficient here.
Every factor's law reads the base Ric3 and S_C2 of one Ricci pass per node
block.  `s2_law` is the one S_C2 law; the grid solvers feed it the lap f
they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .curvature import ricci_forms
from .dsl import parse_expr
from .jets import DeferredJet, FactorJet, MetricJet, conformal_jet, map_blocks
from .manifolds import ModelManifold, factor_jet_from_expr

__all__ = ["TransformedCurvature", "law_coefficients", "s2_law", "transformed_ric34",
           "conformal_oracle_check", "gradient_terms", "torsion_pairing"]


@dataclass
class TransformedCurvature:
    """Ric3 and S_C2 at one t; Ric4 = conj(Ric3)^T holds at every metric."""
    ric3: np.ndarray
    s2: np.ndarray
    t: float

    @property
    def ric4(self) -> np.ndarray:
        return np.conj(self.ric3.swapaxes(0, 1))


def torsion_pairing(jet: MetricJet, tau: np.ndarray, df: np.ndarray) -> np.ndarray:
    """kappa = <del* omega, i delbar f> = -h^{k jbar} conj(tau_j) f_k."""
    return -np.einsum("kj...,j...,k...->...", jet.ginv, np.conj(tau), df)


def gradient_terms(jet: MetricJet, tau: np.ndarray, df: np.ndarray):
    """|df|^2 = h^{i jbar} f_i conj(f_j) and the pairing kappa of the laws."""
    grad2 = np.einsum("ij...,i...,j...->...", jet.ginv, df, np.conj(df)).real
    return grad2, torsion_pairing(jet, tau, df)


def _factor_terms(jet: MetricJet, fj: FactorJet, tau: np.ndarray):
    """Shared ingredients: laplacian, gradient norm and the pairing kappa."""
    lap = np.einsum("ij...,ij...->...", jet.ginv, fj.ddf)
    if np.max(np.abs(lap.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(lap)))):
        raise ArithmeticError("complex laplacian of a real factor is not real")
    return (lap.real, *gradient_terms(jet, tau, fj.df))


def law_coefficients(n: int, t: float) -> tuple:
    """(A, B) = (1 + 2(n-1) t, (n^2 - 1) t^2), the lap f and |df|^2 coefficients."""
    return 1 + 2 * (n - 1) * t, (n * n - 1) * t * t


def s2_law(n: int, t: float, f, s2, lap, grad2, kappa) -> np.ndarray:
    """S_C2 of e^f omega from the base s2 at t, f, lap f, |df|^2 and kappa,
    s2(e^f w, t) = e^{-f} (s2(w, t) - A lap f - B |df|^2 + 2 (n+1) t^2 Re kappa)
    with (A, B) = law_coefficients(n, t) and kappa = <del* w, i dbar f>."""
    a, b = law_coefficients(n, t)
    return np.exp(-f) * (s2 - a * lap - b * grad2 + 2 * (n + 1) * t * t * kappa.real)


def transformed_ric34(jet: MetricJet, fj: FactorJet, base) -> list[TransformedCurvature]:
    """Third/fourth Ricci forms of e^f omega assembled from base-metric data, per t.

    All nine contributions, with the torsion contraction T(V) taken at the
    metric dual V of the (0,1)-form dbar f.  The coefficient asymmetry
    (-n t^2 on T(V), -t^2 on its conjugate) is implemented as displayed and
    validated against the direct recomputation oracle.  `base` is the base
    metric's Ric3, S_C2 and t per t (`ricci_forms(jet, ts)` serves), made once
    for every factor; the factor terms are computed once for all of it.
    """
    n = jet.n
    h = jet.h
    # tau_i = T_{ip}^p = h^{p lbar} (d h_{p lbar}/dz^i - d h_{i lbar}/dz^p)
    low = jet.dh - jet.dh.swapaxes(0, 1)
    tau = np.einsum("pl...,ipl...->i...", jet.ginv, low)
    lap, grad2, kappa = _factor_terms(jet, fj, tau)
    dfbar = np.conj(fj.df)
    v = np.einsum("pq...,q...->p...", jet.ginv, dfbar)  # (dbar f)^sharp
    # T(V) matrix c[i, j] = T_{pi}^k h_{k jbar} V^p, with the lowered torsion
    c = np.einsum("pij...,p...->ij...", low, v)
    ch = np.conj(c.swapaxes(0, 1))
    df_outer = fj.df[:, None] * dfbar[None]
    tau_outer = tau[:, None] * dfbar[None]
    out = []
    for ric in base:
        t, t2 = ric.t, ric.t * ric.t
        ric3 = (ric.ric3
                - (1 + (n - 2) * t) * fj.ddf
                - t * lap * h
                - n * t2 * grad2 * h
                + t2 * df_outer
                - n * t2 * c
                - t2 * ch
                + t2 * kappa * h
                - t2 * tau_outer)
        s2 = s2_law(n, t, fj.f, ric.s2, lap, grad2, kappa)
        out.append(TransformedCurvature(ric3, s2, float(t)))
    return out


_DEFECTS = ("s2", "ric3", "ric4")


def _oracle_defects(jet: MetricJet, fj: FactorJet, base, ts) -> list[dict]:
    """Max absolute defects of the formula path against the direct path, per t."""
    direct = ricci_forms(conformal_jet(jet, fj), ts)
    rows = []
    for formula, ric_f in zip(transformed_ric34(jet, fj, base), direct):
        row = {key: float(np.max(np.abs(getattr(formula, key) - getattr(ric_f, key))))
               for key in _DEFECTS}
        rows.append(dict(row, max=max(row.values())))
    return rows


def _oracle_block(ts, h, dh, ddh, ginv, det, *factors) -> tuple:
    """`_oracle_defects` of each factor's (f, df, ddf) on one block of nodes,
    as floats, after the block's base Ricci pass."""
    jet = DeferredJet(h, ginv, det, lambda: MetricJet(h, dh, ddh))
    base = ricci_forms(jet, ts)
    return tuple(row[key] for i in range(0, len(factors), 3)
                 for row in _oracle_defects(jet, FactorJet(*factors[i:i + 3]), base, ts)
                 for key in _DEFECTS)


def conformal_oracle_check(man: ModelManifold, factors, ts, points) -> list[dict]:
    """Formula path vs direct recomputation at the given points.

    Returns one row of max absolute defects (s2, ric3, ric4 and their max)
    per (factor, t), the factors outermost.  The base jet, its inverse and
    each factor's 2-jet are evaluated once over every point.  Then one
    node-block pass (`map_blocks`) runs, per block, the base Ricci pass and,
    for each factor, the jet of e^f h and its Ricci pass for all t at once;
    each defect is the maximum over the blocks.  So the temporaries are one
    block's whatever the point count, and the checks of the Ricci passes,
    of the inverse of e^f h and of lap f compare each block's maxima.
    """
    z = np.asarray(points, dtype=complex)
    jet = man.jet(z)
    fjs = [factor_jet_from_expr(parse_expr(f, man.n), z, man.n, man.params)
           for f in factors]
    res = map_blocks(partial(_oracle_block, ts), jet.h.shape[2:],
                     jet.h, jet.dh, jet.ddh, jet.ginv, jet.det,
                     *(x for fj in fjs for x in (fj.f, fj.df, fj.ddf)))
    rows = [dict(zip(_DEFECTS, res[i:i + 3])) for i in range(0, len(res), 3)]
    return [dict(row, max=max(row.values())) for row in rows]
