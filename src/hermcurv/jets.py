"""Pointwise 2-jets of Hermitian metrics.

A `MetricJet` bundles, at one or many chart points,

* ``h``   -- h[i, j, ...] = h_{i jbar}, Hermitian positive definite,
* ``dh``  -- dh[i, j, l, ...] = d h_{j lbar} / d z^i,
* ``ddh`` -- ddh[i, j, k, l, ...] = d^2 h_{k lbar} / d z^i d zbar^j.

Every geometry array is component-first (index axes lead, batch axes
trail): each component h[i, j] is one contiguous field over the points.

The jet also owns ``ginv`` (ginv[i, j, ...] = h^{i jbar}) and ``det``
(det h): `inverse_and_det` computes both on first use and the jet keeps
them, so every contraction downstream reads the same inverse and no
function takes it as an argument (a `ConformalJet` scales its base's).

Antiholomorphic first derivatives are never stored: d h_{j lbar}/d zbar^i
equals conj(dh[i, l, j]).  Every curvature formula downstream consumes
exactly this data; a single point and a million grid nodes go through the
same code path.

Every per-node pass (the inverse here, the plane-wave jet, the trace and
Ricci passes, the conformal oracle) runs through `map_blocks`:
`node_block(n)` nodes at a time, so its temporaries are block-sized
whatever the batch, while its outputs are allocated once at full size and
its checks compare maxima over every node (DECISIONS.md D12); the conformal
oracle's inner passes check each block (D15).  `inverse_block` never raises
and `check_inverse` judges its maxima after the last block, so the grid
metric's fused pass keeps the inverse's checks and their order
(DECISIONS.md D14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["MetricJet", "FactorJet", "JetError", "inverse_and_det",
           "inverse_block", "check_inverse", "DeferredJet", "ConformalJet",
           "conformal_jet", "check_jet_invariants", "NODE_BLOCK", "node_block",
           "map_blocks"]

# nodes per block of every per-node pass at n = 2 (`map_blocks`, DECISIONS.md D12)
NODE_BLOCK = 4096

# smallest LDL^H pivot must exceed this times the largest diagonal entry
PD_PIVOT_RTOL = 1e-10
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
        return self.h.shape[0]

    @cached_property
    def _inverse(self) -> tuple:
        return inverse_and_det(self)

    @property
    def ginv(self) -> np.ndarray:
        """h^{i jbar}, ginv[i, j, ...]; computed once, on first use."""
        return self._inverse[0]

    @property
    def det(self) -> np.ndarray:
        """det h, from the same factorization as `ginv`."""
        return self._inverse[1]


@dataclass
class FactorJet:
    """2-jet of a real conformal factor f: value f[...], df[i, ...] = d f/d z^i,
    ddf[i, j, ...] = d^2 f / d z^i d zbar^j."""

    f: np.ndarray
    df: np.ndarray
    ddf: np.ndarray


def node_block(n: int) -> int:
    """Nodes per block at dimension n: NODE_BLOCK * 16 // n^4, so that a
    block of the n^4-component passes holds as many entries as at n = 2
    (4096 nodes at n = 2, 809 at n = 3, 256 at n = 4), and one node at
    least, which every n >= 17 runs (DECISIONS.md D15)."""
    return max(1, NODE_BLOCK * 16 // n ** 4)


def map_blocks(fn, batch: tuple, *fields) -> tuple:
    """Run fn over the nodes of `fields` in blocks of `node_block(n)` nodes,
    n being the leading axis of the first field.

    Each field is component-first with trailing batch axes `batch`, seen
    with those axes flattened into one: a view for a C-ordered field, so fn
    may also write its block of a preallocated output.  fn gets the same
    block of every field and returns a tuple.  Its arrays (block last) are
    copied into full-size outputs allocated on the first block; its floats
    are maxima, combined over the blocks (NaN if any block's is NaN).
    Returns that tuple, each output shaped (components...) + batch.
    """
    count = math.prod(batch)
    flat = [x.reshape(x.shape[:x.ndim - len(batch)] + (count,)) for x in fields]
    out, step = None, node_block(fields[0].shape[0])
    for start in range(0, max(count, 1), step):  # an empty batch runs once
        block = slice(start, start + step)
        res = fn(*(x[..., block] for x in flat))
        if out is None:
            out = [np.empty(r.shape[:-1] + (count,), r.dtype)
                   if isinstance(r, np.ndarray) else r for r in res]
        for k, r in enumerate(res):
            if isinstance(r, np.ndarray):
                out[k][..., block] = r
            else:
                out[k] = float(np.maximum(out[k], r))
    return tuple(o.reshape(o.shape[:-1] + batch) if isinstance(o, np.ndarray) else o
                 for o in out)


def _hermitian_deviation(h: np.ndarray) -> float:
    """Largest |h[i, j] - conj(h[j, i])| over every index pair and point."""
    return float(np.max(np.abs(h - np.conj(h.swapaxes(0, 1)))))


def check_jet_invariants(jet: MetricJet) -> None:
    """Assert Hermitian symmetry of h and the two conjugation identities."""
    herm = _hermitian_deviation(jet.h)
    if herm > INVARIANT_ATOL:
        raise JetError(f"h is not Hermitian: max deviation {herm:.3e}")
    # conj(ddh[i,j,k,l]) must equal ddh[j,i,l,k]
    ddh = jet.ddh
    flip = np.conj(ddh.transpose((1, 0, 3, 2) + tuple(range(4, ddh.ndim))))
    dev = np.max(np.abs(ddh - flip))
    if dev > INVARIANT_ATOL * max(1.0, float(np.max(np.abs(ddh)))):
        raise JetError(f"ddh conjugation symmetry broken: max deviation {dev:.3e}")


def inverse_and_det(jet: MetricJet):
    """Inverse metric h^{i jbar} and det h from one LDL^H factorization.

    Returns (ginv, det) with ginv[i, j, ...] = h^{i jbar}, the matrix with
    sum_j h^{i jbar} h_{k jbar} = delta_{ik} (the transpose of the plain
    inverse of h).  h = L D L^H is unrolled over the components and reads the
    lower triangle only, so a non-Hermitian h (beyond INVARIANT_ATOL,
    relative) is refused.  det h = prod d_k and h^{-1} = X^H D^{-1} X with
    X = L^{-1}.  The pivots d_k are the squared Cholesky diagonal: the
    smallest has to exceed PD_PIVOT_RTOL times the largest diagonal entry
    (which bounds the pivot condition estimate by 1/PD_PIVOT_RTOL, since
    every d_k <= h_kk), and the inverse residual has to stay within
    INVERSE_RTOL; JetError otherwise.  Both tolerances scale with max |h|
    over every node, whichever block a node falls in, and it must be finite.
    One blocked pass (`inverse_block`), then `check_inverse` on its maxima.
    """
    ginv, det, *maxima = map_blocks(inverse_block, jet.h.shape[2:], jet.h)
    check_inverse(*maxima)
    return ginv, det


def inverse_block(h: np.ndarray) -> tuple:
    """(ginv, det) of one block of h, then the block's maxima that
    `check_inverse` reads: Hermitian deviation, max |h|, pivot shortfall and
    inverse residual.  Never raises and never warns, so that a whole batch
    is checked in `check_inverse`'s order whichever block fails."""
    with np.errstate(invalid="ignore"):  # inf - inf in the deviation of a refused h
        herm, hmax = _hermitian_deviation(h), float(np.max(np.abs(h)))
    ginv, det, shortfall, dev = _ldl_inverse(h)
    return ginv, det, herm, hmax, shortfall, dev


def check_inverse(herm: float, hmax: float, shortfall: float, dev: float) -> None:
    """The inverse's checks on `inverse_block`'s maxima over every node, in
    this order: finite coefficients, Hermitian h, the pivot floor, the
    inverse residual; JetError at the first that fails (NaN fails each)."""
    if not np.isfinite(hmax):
        raise JetError(f"metric coefficients are not finite: max |h| is {hmax}")
    if herm > INVARIANT_ATOL * max(1.0, hmax):
        raise JetError(f"h is not Hermitian: max deviation {herm:.3e}")
    if not shortfall < 0:  # the floor bounds the condition estimate (DECISIONS.md D5)
        raise JetError(f"metric is not positive definite with condition estimate at "
                       f"most {1 / PD_PIVOT_RTOL:.0e}: LDL^H pivot below "
                       f"{PD_PIVOT_RTOL} * max diagonal")
    _check_residual(dev, hmax)


def _ldl_inverse(h: np.ndarray):
    """(ginv, det, pivot shortfall, inverse residual) of one block of h.

    The shortfall is the largest PD_PIVOT_RTOL * max diagonal - smallest
    pivot over the block's nodes: negative when every node clears the
    pivot floor, NaN if a pivot is.  A node below the floor may leave
    non-finite entries in ginv and the residual, without a warning."""
    n = h.shape[0]
    r = range(n)
    low, pivots = {}, np.empty(h.shape[1:])  # low[i, k] = L[i, k], pivots[k] = d_k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in r:
            pivots[j] = h[j, j].real - sum(
                (low[j, k] * np.conj(low[j, k])).real * pivots[k] for k in range(j))
            for i in range(j + 1, n):
                low[i, j] = (h[i, j] - sum(low[i, k] * np.conj(low[j, k]) * pivots[k]
                                           for k in range(j))) / pivots[j]
        floor = PD_PIVOT_RTOL * np.max(h[r, r].real, axis=0)
        shortfall = float(np.max(floor - pivots.min(axis=0)))
        x = {(k, k): 1.0 for k in r}  # x = L^{-1} by forward substitution
        for i in r:
            for j in range(i):
                x[i, j] = -sum(low[i, k] * x[k, j] for k in range(j, i))
        # ginv[i, j] = (h^{-1})[j, i] = sum_{k >= j} conj(x[k, j]) x[k, i] / d_k
        ginv = np.empty(h.shape, complex)
        for i in r:
            for j in range(i, n):
                ginv[i, j] = sum(np.conj(x[k, j]) * x[k, i] / pivots[k]
                                 for k in range(j, n))
                if i < j:
                    ginv[j, i] = np.conj(ginv[i, j])
        return ginv, np.prod(pivots, axis=0), shortfall, _inverse_residual(h, ginv)


def _inverse_residual(h: np.ndarray, ginv: np.ndarray) -> float:
    """max |sum_j h^{i jbar} h_{k jbar} - delta_{ik}|; NaN if any entry is."""
    r = range(h.shape[0])
    return float(np.max([np.max(np.abs(sum(ginv[i, j] * h[k, j] for j in r) - (i == k)))
                         for i in r for k in r]))


def _check_residual(dev: float, hmax: float) -> None:
    """JetError unless the inverse residual dev is within INVERSE_RTOL of
    max(1, max |h|); NaN fails."""
    if not dev <= INVERSE_RTOL * max(1.0, hmax) * 10:
        raise JetError(f"inverse residual {dev:.3e} too large")


class DeferredJet(MetricJet):
    """A jet that holds h, ginv and det and builds its dh and ddh by
    `derive()` when first read; one build serves both."""

    def __init__(self, h: np.ndarray, ginv: np.ndarray, det: np.ndarray, derive):
        self.h, self._inverse, self._derive = h, (ginv, det), derive

    _jet = cached_property(lambda self: self._derive())
    dh = property(lambda self: self._jet.dh)
    ddh = property(lambda self: self._jet.ddh)


class ConformalJet(DeferredJet):
    """Jet of e^f h0 keeping its base, e^f and det e^{nf} det h0: h = e^f h0 and
    ginv = h0^{-1} / e^f are scaled on each read and kept by neither (DECISIONS.md
    D18).  dh and ddh are `conformal_jet`'s with the factor 2-jet `factor()`, built
    when first read.  JetError if `_conformal_scale` refuses f or the residual fails."""

    def __init__(self, base: MetricJet, f: np.ndarray, factor):
        self.base, self._derive = base, lambda: conformal_jet(base, factor())
        self.ef, self._det = _conformal_scale(base, f)
        _check_residual(*map_blocks(lambda h, g, ef: (  # residual, max |h| of e^f h
            _inverse_residual(ef * h, g / ef), float(np.max(np.abs(ef * h)))),
            base.h.shape[2:], base.h, base.ginv, self.ef))

    n = property(lambda self: self.base.n)
    h = property(lambda self: self.ef * self.base.h)
    ginv = property(lambda self: self.base.ginv / self.ef)
    det = property(lambda self: self._det)


def _conformal_scale(jet: MetricJet, f: np.ndarray) -> tuple:
    """(e^f, e^{nf} det h); JetError unless the latter is a positive finite
    number at every point, with no warning (NaN f, e^f over- or underflowing)."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ef, det = np.exp(f), np.exp(jet.n * f) * jet.det
    if not np.all((det > 0) & (det < np.inf)):  # a NaN fails too
        raise JetError("conformal factor out of range: e^(n f) det h is "
                       "not a positive finite number")
    return ef, det


def conformal_jet(jet: MetricJet, fj: FactorJet) -> MetricJet:
    """Jet of e^f h from the jets of h and f (f real, in `_conformal_scale`'s range).

    d(e^f h_{j lbar})/dz^i       = e^f (f_i h_{j lbar} + dh[i,j,l])
    d^2(e^f h_{k lbar})/dz^i dzbar^j
        = e^f [ (f_{i jbar} + f_i conj(f_j)) h_{k lbar}
                + conj(f_j) dh[i,k,l] + f_i conj(dh[j,l,k]) + ddh[i,j,k,l] ]
    """
    ef = _conformal_scale(jet, fj.f)[0]
    h, dh, ddh = jet.h, jet.dh, jet.ddh
    df, ddf = fj.df, fj.ddf
    h2 = ef * h
    dh2 = ef * (df[:, None, None] * h[None] + dh)
    dbarh = np.conj(dh.swapaxes(1, 2))  # dbarh[j, k, l] = d h_{k lbar}/dzbar^j
    dfbar = np.conj(df)
    # the four terms summed left to right in place, through one scratch array
    ddh2 = (ddf[:, :, None, None]
            + df[:, None, None, None] * dfbar[None, :, None, None]) * h[None, None]
    scratch = np.multiply(dfbar[None, :, None, None], dh[:, None],
                          out=np.empty_like(ddh2))
    ddh2 += scratch
    ddh2 += np.multiply(df[:, None, None, None], dbarh[None], out=scratch)
    ddh2 += ddh
    ddh2 *= ef
    return MetricJet(h2, dh2, ddh2)
