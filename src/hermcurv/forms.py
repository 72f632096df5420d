"""Batched complex (p, q)-forms at chart points.

A form is stored as a dict mapping (I, J) -> coefficient array, where I and
J are strictly increasing tuples of holomorphic / antiholomorphic indices
and the coefficient arrays are fields over the jet's batch axes.  With this
representation the inner product is the plain Gram determinant pairing
<dz^I ^ dzbar^J, dz^K ^ dzbar^L> = det(g[I,K]) * conj(det(g[J,L])), which
is exactly the 1/(p! q!) full-contraction convention the scalar-curvature
identities require.

Only what the test oracles need is implemented: wedge products,
conjugation, metric norms, and constructors for omega and its derivatives
straight from a metric 2-jet.  The tests check `curvature`'s closed-form
class residuals and Lee form against this engine; no other module imports
it.
"""

from __future__ import annotations

import numpy as np

from .jets import MetricJet

__all__ = ["PQForm", "omega_form", "del_omega", "delbar_omega",
           "del_delbar_omega", "omega_power", "del_omega_power",
           "del_delbar_omega_power", "lee_form"]


def _merge(a: tuple, b: tuple):
    """Merge two strictly increasing index tuples; return (key, sign) or None."""
    if set(a) & set(b):
        return None
    out = a + b
    # bubble sort counting transpositions (tuples are tiny)
    lst = list(out)
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return tuple(lst), sign


class PQForm:
    def __init__(self, n: int, p: int, q: int, coeffs: dict | None = None):
        self.n = n
        self.p = p
        self.q = q
        self.coeffs = coeffs or {}

    def add_term(self, I: tuple, J: tuple, value):
        key = (I, J)
        if key in self.coeffs:
            self.coeffs[key] = self.coeffs[key] + value
        else:
            self.coeffs[key] = value

    def __add__(self, other: "PQForm") -> "PQForm":
        out = PQForm(self.n, self.p, self.q, dict(self.coeffs))
        for key, v in other.coeffs.items():
            out.add_term(*key, v)
        return out

    def __sub__(self, other: "PQForm") -> "PQForm":
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "PQForm":
        return PQForm(self.n, self.p, self.q,
                      {k: c * v for k, v in self.coeffs.items()})

    def wedge(self, other: "PQForm") -> "PQForm":
        out = PQForm(self.n, self.p + other.p, self.q + other.q)
        # moving the other's dz^I block past our dzbar^J block costs a sign
        cross = (-1) ** (self.q * other.p)
        for (I1, J1), v1 in self.coeffs.items():
            for (I2, J2), v2 in other.coeffs.items():
                mi = _merge(I1, I2)
                if mi is None:
                    continue
                mj = _merge(J1, J2)
                if mj is None:
                    continue
                I, si = mi
                J, sj = mj
                out.add_term(I, J, (cross * si * sj) * (v1 * v2))
        return out

    def conj(self) -> "PQForm":
        # conj(dz^I ^ dzbar^J) = (-1)^{pq} dz^J ^ dzbar^I
        sign = (-1) ** (self.p * self.q)
        out = PQForm(self.n, self.q, self.p)
        for (I, J), v in self.coeffs.items():
            out.add_term(J, I, sign * np.conj(v))
        return out

    def norm2(self, ginv: np.ndarray) -> np.ndarray:
        """Pointwise |alpha|^2 with the inverse metric ginv[i, j, ...] = h^{i jbar}."""
        keys = list(self.coeffs)
        # each Gram determinant once per (I, K) pair of index tuples
        pairs = {(a[s], b[s]) for a in keys for b in keys for s in (0, 1)}
        gram = {pair: _gram_det(ginv, *pair) for pair in pairs}
        total = 0.0
        for (I1, J1) in keys:
            v1 = self.coeffs[(I1, J1)]
            for (I2, J2) in keys:
                v2 = self.coeffs[(I2, J2)]
                total = total + v1 * np.conj(v2) * gram[I1, I2] * np.conj(gram[J1, J2])
        return np.real(total)


def _gram_det(ginv, I: tuple, K: tuple):
    if len(I) == 0:
        return 1.0 + 0j
    if len(I) == 1:
        return ginv[I[0], K[0]]
    block = np.stack([np.stack([ginv[i, k] for k in K], axis=-1)
                      for i in I], axis=-2)
    return np.linalg.det(block)


# -- constructors from a metric jet -----------------------------------------

def omega_form(jet: MetricJet) -> PQForm:
    n = jet.n
    out = PQForm(n, 1, 1)
    for i in range(n):
        for j in range(n):
            out.add_term((i,), (j,), 1j * jet.h[i, j])
    return out


def del_omega(jet: MetricJet) -> PQForm:
    """del omega = i d_i h_{k lbar} dz^i ^ dz^k ^ dzbar^l."""
    n = jet.n
    out = PQForm(n, 2, 1)
    for i in range(n):
        for k in range(i + 1, n):
            for l in range(n):
                # antisymmetrized coefficient of dz^i ^ dz^k (i < k)
                val = 1j * (jet.dh[i, k, l] - jet.dh[k, i, l])
                out.add_term((i, k), (l,), val)
    return out


def delbar_omega(jet: MetricJet) -> PQForm:
    return del_omega(jet).conj()


def del_delbar_omega(jet: MetricJet) -> PQForm:
    """del delbar omega = -i ddh[i,j,k,l] dz^i ^ dz^k ^ dzbar^j ^ dzbar^l."""
    n = jet.n
    out = PQForm(n, 2, 2)
    dd = jet.ddh
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    val = -1j * (dd[i, j, k, l] - dd[k, j, i, l]
                                 - dd[i, l, k, j] + dd[k, l, i, j])
                    out.add_term((i, k), (j, l), val)
    return out


def omega_power(jet: MetricJet, k: int) -> PQForm:
    out = omega_form(jet)
    for _ in range(k - 1):
        out = out.wedge(omega_form(jet))
    return out


def del_omega_power(jet: MetricJet, k: int) -> PQForm:
    """del(omega^k) = k del(omega) ^ omega^(k-1)."""
    out = del_omega(jet)
    if k > 1:
        out = out.wedge(omega_power(jet, k - 1)).scaled(float(k))
    return out


def del_delbar_omega_power(jet: MetricJet, k: int) -> PQForm:
    """del delbar (omega^k); k = n-1 is the Gauduchon residual form."""
    if k == 1:
        return del_delbar_omega(jet)
    if k == 2:
        a = del_delbar_omega(jet).wedge(omega_form(jet))
        b = delbar_omega(jet).wedge(del_omega(jet))
        return (a - b).scaled(2.0)
    # k >= 3: del delbar(w^k) = k ddbar(w) ^ w^(k-1) - k(k-1) dbar(w)^dw^w^(k-2)
    wk1 = omega_power(jet, k - 1)
    a = del_delbar_omega(jet).wedge(wk1).scaled(float(k))
    wk2 = omega_power(jet, k - 2)
    b = delbar_omega(jet).wedge(del_omega(jet)).wedge(wk2).scaled(float(k * (k - 1)))
    return a - b


def lee_form(jet: MetricJet) -> np.ndarray:
    """Lee form from d(omega^{n-1}) = eta ^ omega^{n-1}, solved pointwise.

    Returns the holomorphic components eta^{1,0}_i (shape (n, ...)); the real
    1-form is eta = eta_i dz^i + conj.  The (n, n-1)-type part of the
    defining equation is an n x n linear system in eta^{1,0}, uniquely
    solvable for positive omega.
    """
    n = jet.n
    wn1 = omega_power(jet, n - 1)
    lhs = del_omega_power(jet, n - 1)
    full = tuple(range(n))
    keys = [(full, tuple(x for x in full if x != l)) for l in range(n)]
    batch = np.broadcast_shapes(*[np.shape(v) for v in lhs.coeffs.values()],
                                jet.h.shape[2:])
    A = np.zeros(batch + (n, n), complex)  # np.linalg.solve takes batch-first systems
    b = np.zeros(batch + (n,), complex)
    for a_idx, key in enumerate(keys):
        if key in lhs.coeffs:
            b[..., a_idx] = lhs.coeffs[key]
        for i in range(n):
            basis = PQForm(n, 1, 0, {((i,), ()): np.ones(())})
            w = basis.wedge(wn1)
            if key in w.coeffs:
                A[..., a_idx, i] = w.coeffs[key]
    return np.moveaxis(np.linalg.solve(A, b[..., None])[..., 0], -1, 0)
