"""Pointwise 2-jets of Hermitian metrics.

A `MetricJet` bundles, at one or many chart points,

* ``h``   -- h_{i jbar}, shape (..., n, n), Hermitian positive definite,
* ``dh``  -- dh[..., i, j, l] = d h_{j lbar} / d z^i, shape (..., n, n, n),
* ``ddh`` -- ddh[..., i, j, k, l] = d^2 h_{k lbar} / d z^i d zbar^j,
             shape (..., n, n, n, n).

It also owns ``ginv`` (h^{i jbar}) and ``det`` (det h): `inverse_and_det`
computes both on first use and the jet keeps them, so every contraction
downstream reads the same inverse and no function takes it as an argument.

Antiholomorphic first derivatives are never stored: d h_{j lbar}/d zbar^i
equals conj(dh[i, l, j]).  Every curvature formula downstream consumes
exactly this data; all functions broadcast over leading batch axes, so a
single point and a million grid nodes go through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["MetricJet", "FactorJet", "JetError", "inverse_and_det",
           "conformal_jet", "check_jet_invariants"]

# smallest Cholesky pivot must exceed this times the largest diagonal entry
PD_PIVOT_RTOL = 1e-10
# largest condition number estimated from the Cholesky pivots
COND_LIMIT = 1e12
INVERSE_RTOL = 1e-12
# tolerance of the symmetry identities `check_jet_invariants` asserts
INVARIANT_ATOL = 1e-10


class JetError(ValueError):
    """Invalid jet: loss of positivity, broken symmetry, or singular h."""


@dataclass
class MetricJet:
    h: np.ndarray
    dh: np.ndarray
    ddh: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[-1]

    @cached_property
    def _inverse(self) -> tuple:
        return inverse_and_det(self)

    @property
    def ginv(self) -> np.ndarray:
        """h^{i jbar}, ginv[..., i, j]; computed once, on first use."""
        return self._inverse[0]

    @property
    def det(self) -> np.ndarray:
        """det h, from the same factorization as `ginv`."""
        return self._inverse[1]


@dataclass
class FactorJet:
    """2-jet of a real conformal factor f: value, df[i] = d f/d z^i,
    ddf[i, j] = d^2 f / d z^i d zbar^j."""

    f: np.ndarray
    df: np.ndarray
    ddf: np.ndarray


def check_jet_invariants(jet: MetricJet) -> None:
    """Assert Hermitian symmetry of h and the two conjugation identities."""
    h, dh, ddh = jet.h, jet.dh, jet.ddh
    herm = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    if herm > INVARIANT_ATOL:
        raise JetError(f"h is not Hermitian: max deviation {herm:.3e}")
    # conj(ddh[i,j,k,l]) must equal ddh[j,i,l,k]
    flip = np.conj(np.transpose(ddh, axes=(*range(ddh.ndim - 4), -3, -4, -1, -2)))
    dev = np.max(np.abs(ddh - flip))
    if dev > INVARIANT_ATOL * max(1.0, float(np.max(np.abs(ddh)))):
        raise JetError(f"ddh conjugation symmetry broken: max deviation {dev:.3e}")


def inverse_and_det(jet: MetricJet):
    """Inverse metric h^{i jbar} and det h, with positivity diagnostics.

    Returns (ginv, det) where ginv[..., i, j] = h^{i jbar}, i.e. the matrix
    satisfying sum_j h^{i jbar} h_{k jbar} = delta_{ik}; as an array this is
    the transpose of the plain matrix inverse of h.

    Positivity is checked by Cholesky factorization: the smallest pivot has
    to exceed PD_PIVOT_RTOL times the largest diagonal entry.  A condition
    number beyond COND_LIMIT (estimated from the pivots) raises JetError.
    """
    h = jet.h
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as err:
        raise JetError(f"metric is not positive definite: {err}") from None
    pivots = np.einsum("...ii->...i", chol).real ** 2
    hdiag = np.einsum("...ii->...i", h).real
    bad = pivots.min(axis=-1) <= PD_PIVOT_RTOL * hdiag.max(axis=-1)
    if np.any(bad):
        raise JetError("metric is not positive definite: Cholesky pivot below "
                       f"{PD_PIVOT_RTOL} * max diagonal")
    cond_est = pivots.max(axis=-1) / pivots.min(axis=-1)
    if np.any(cond_est > COND_LIMIT):
        raise JetError(f"metric numerically singular: condition estimate "
                       f"{float(np.max(cond_est)):.3e} beyond {COND_LIMIT:.1e}")
    minv = np.linalg.inv(h)
    ginv = np.swapaxes(minv, -1, -2)
    det = np.prod(pivots, axis=-1)
    resid = np.einsum("...ij,...kj->...ik", ginv, h)
    eye = np.eye(jet.n)
    dev = np.max(np.abs(resid - eye))
    if dev > INVERSE_RTOL * max(1.0, float(np.max(np.abs(h)))) * 10:
        raise JetError(f"inverse residual {dev:.3e} too large")
    return ginv, det


def conformal_jet(jet: MetricJet, fj: FactorJet) -> MetricJet:
    """Jet of e^f h from the jets of h and f (f real).

    d(e^f h_{j lbar})/dz^i       = e^f (f_i h_{j lbar} + dh[i,j,l])
    d^2(e^f h_{k lbar})/dz^i dzbar^j
        = e^f [ (f_{i jbar} + f_i conj(f_j)) h_{k lbar}
                + conj(f_j) dh[i,k,l] + f_i conj(dh[j,l,k]) + ddh[i,j,k,l] ]
    """
    ef = np.exp(fj.f)
    h, dh, ddh = jet.h, jet.dh, jet.ddh
    df, ddf = fj.df, fj.ddf
    h2 = ef[..., None, None] * h
    dh2 = ef[..., None, None, None] * (df[..., :, None, None] * h[..., None, :, :] + dh)
    dbarh = np.conj(np.swapaxes(dh, -1, -2))  # dbarh[..., j, k, l] = d h_{k lbar}/dzbar^j
    dfbar = np.conj(df)
    # the four terms summed left to right in place, through one scratch array
    ddh2 = (ddf[..., :, :, None, None]
            + df[..., :, None, None, None] * dfbar[..., None, :, None, None]) \
        * h[..., None, None, :, :]
    scratch = np.multiply(dfbar[..., None, :, None, None], dh[..., :, None, :, :],
                          out=np.empty_like(ddh2))
    ddh2 += scratch
    ddh2 += np.multiply(df[..., :, None, None, None], dbarh[..., None, :, :, :],
                        out=scratch)
    ddh2 += ddh
    ddh2 *= ef[..., None, None, None, None]
    return MetricJet(h2, dh2, ddh2)
