"""Periodic discretization on complex-torus charts.

Real coordinates are ordered (x1, y1, x2, y2, ...): grid axis 2k samples
x_k = Re z^k and axis 2k+1 samples y_k = Im z^k, each with N nodes over its
period.  Two derivative schemes are supported: second-order centered
differences ("fd2", the default) and Fourier-spectral ("spectral").  The
fd2 differences are written with slices into one output array, the
wrap-around slabs last.  The mixed Wirtinger second derivatives share one
stencil builder so that exact cancellations (flat-metric Laplacian duality,
linearity) hold to roundoff.

The Chern Laplacian lap_C u = h^{i jbar} d^2 u / dz^i dzbar^j is one table of
terms sum_k c_k S_k per grid metric: real coefficient fields c_k times
symmetric real stencils S_k from the same builder.  `complex_laplacian`
applies it as sum_k c_k S_k(u), taking the inner first differences of the
i != j stencils once per apply, and its transpose is sum_k S_k(c_k v).  The
solvers' flat preconditioner inverts the Fourier symbol of the diagonal
terms with mean coefficients (`d2_symbol`).

Quadrature: the volume form is det(h) * 2^n dx1 dy1 ... , so periodic
trapezoid integration is the plain node mean times det(h) 2^n and the cell
volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curvature import ClassFlags, class_residual_fields, torsion_traces
from .jets import FactorJet, MetricJet, conformal_jet
from .manifolds import ModelManifold

__all__ = ["TorusGrid", "TorusField", "GridMetric", "GridError",
           "dz", "complex_laplacian", "laplacian_duality_defect",
           "integrate", "gauduchon_degrees", "balanced_representative"]

MEMORY_BUDGET_BYTES = 2 << 30
IMAG_TOL = 1e-9


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    n: int
    N: int
    periods: tuple = None
    scheme: str = "fd2"

    def __post_init__(self):
        if self.N < 4 or self.N % 2:
            raise GridError("grid size N must be even and at least 4")
        if self.scheme not in ("fd2", "spectral"):
            raise GridError(f"unknown derivative scheme {self.scheme!r}")
        periods = self.periods or (1.0,) * (2 * self.n)
        if len(periods) != 2 * self.n:
            raise GridError(f"need {2 * self.n} periods, got {len(periods)}")
        object.__setattr__(self, "periods", tuple(float(p) for p in periods))
        nodes = self.N ** (2 * self.n)
        # ~40 doubles of jet/curvature data per node is the working set
        if nodes * 8 * 40 > MEMORY_BUDGET_BYTES:
            raise GridError(f"grid with {nodes} nodes exceeds the memory budget")

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def node_count(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def spacing(self) -> tuple:
        return tuple(p / self.N for p in self.periods)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, a: int) -> np.ndarray:
        return np.arange(self.N) * self.spacing[a]

    def points(self) -> np.ndarray:
        """Complex chart coordinates, shape grid.shape + (n,)."""
        axes = np.meshgrid(*[self.axis_coords(a) for a in range(2 * self.n)],
                           indexing="ij")
        z = np.empty(self.shape + (self.n,), complex)
        for k in range(self.n):
            z[..., k] = axes[2 * k] + 1j * axes[2 * k + 1]
        return z

    # -- single-axis derivatives --------------------------------------------

    def d_axis(self, u: np.ndarray, a: int) -> np.ndarray:
        if self.scheme == "fd2":
            # (u[i+1] - u[i-1]) / 2h: the bulk, then the two wrap-around slabs
            out = np.empty(u.shape, np.result_type(u, 1.0))
            np.subtract(u[_at(a, 2, None)], u[_at(a, None, -2)], out=out[_at(a, 1, -1)])
            np.subtract(u[_at(a, 1, 2)], u[_at(a, -1, None)], out=out[_at(a, 0, 1)])
            np.subtract(u[_at(a, 0, 1)], u[_at(a, -2, -1)], out=out[_at(a, -1, None)])
            out /= 2 * self.spacing[a]
            return out
        return _apply_symbol(u, self.d_symbol(a), a)

    def d2_axis(self, u: np.ndarray, a: int) -> np.ndarray:
        if self.scheme == "fd2":
            # ((-2 u[i] + u[i+1]) + u[i-1]) / h^2, each neighbour added in place
            out = np.multiply(u, -2.0)
            out[_at(a, None, -1)] += u[_at(a, 1, None)]
            out[_at(a, -1, None)] += u[_at(a, 0, 1)]
            out[_at(a, 1, None)] += u[_at(a, None, -1)]
            out[_at(a, 0, 1)] += u[_at(a, -1, None)]
            out /= self.spacing[a] ** 2
            return out
        return _apply_symbol(u, self.d2_symbol(a), a)

    def d_symbol(self, a: int) -> np.ndarray:
        """Fourier symbol of d_axis (used by solver preconditioners)."""
        h = self.spacing[a]
        k = np.fft.fftfreq(self.N, d=h)
        if self.scheme == "fd2":
            return 1j * np.sin(2 * np.pi * k * h) / h
        k[self.N // 2] = 0.0  # odd-derivative Nyquist convention
        return 2j * np.pi * k

    def d2_symbol(self, a: int) -> np.ndarray:
        h = self.spacing[a]
        k = np.fft.fftfreq(self.N, d=h)
        if self.scheme == "fd2":
            return (2 * np.cos(2 * np.pi * k * h) - 2) / h ** 2
        return -(2 * np.pi * k) ** 2


def _at(a: int, start, stop) -> tuple:
    """Index of the slice start:stop along axis a."""
    return (slice(None),) * a + (slice(start, stop),)


def _apply_symbol(u: np.ndarray, mult: np.ndarray, a: int) -> np.ndarray:
    uh = np.fft.fft(u, axis=a)
    shape = [1] * u.ndim
    shape[a] = len(mult)
    out = np.fft.ifft(uh * mult.reshape(shape), axis=a)
    return out.real if np.isrealobj(u) else out


@dataclass
class TorusField:
    grid: TorusGrid
    values: np.ndarray
    real: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise GridError(f"field shape {self.values.shape} does not match "
                            f"grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite entries")
        if self.real and np.iscomplexobj(self.values):
            if np.max(np.abs(self.values.imag)) > IMAG_TOL:
                raise GridError("real-tagged field has imaginary content")
            self.values = self.values.real


def dz(v: np.ndarray, k: int, grid: TorusGrid) -> np.ndarray:
    """Discrete Wirtinger derivative d/dz^k = (d_x - i d_y)/2."""
    return 0.5 * (grid.d_axis(v, 2 * k) - 1j * grid.d_axis(v, 2 * k + 1))


def dz_dzbar(v: np.ndarray, i: int, j: int, grid: TorusGrid) -> np.ndarray:
    """Discrete d^2/dz^i dzbar^j sharing stencils with dz.

    For i = j the pure second-difference stencil is used on each real axis,
    which is what makes the flat-metric duality identity exact.
    """
    if i == j:
        return 0.25 * _stencil(grid, v, i, i).astype(complex)
    return 0.25 * (_stencil(grid, v, i, j) + 1j * _stencil(grid, v, i, j, imag=True))


def _stencil(grid: TorusGrid, v: np.ndarray, i: int, j: int,
             imag: bool = False) -> np.ndarray:
    """Real part, or with `imag` the imaginary part, of 4 d^2 v/dz^i dzbar^j.

    Both are symmetric real stencils; for i = j the imaginary part is zero.
    """
    if i == j:
        out = grid.d2_axis(v, 2 * i)
        out += grid.d2_axis(v, 2 * i + 1)
        return out
    return _outer(grid, _inner(grid, v, j), i, imag)


def _inner(grid: TorusGrid, v: np.ndarray, j: int) -> tuple:
    """(d v/dx_j, d v/dy_j): the inner differences of the i != j stencils."""
    return grid.d_axis(v, 2 * j), grid.d_axis(v, 2 * j + 1)


def _outer(grid: TorusGrid, inner: tuple, i: int, imag: bool) -> np.ndarray:
    """The i != j `_stencil` from the inner differences `_inner(grid, v, j)`."""
    dxj, dyj = inner
    if imag:
        out = grid.d_axis(dyj, 2 * i)
        out -= grid.d_axis(dxj, 2 * i + 1)
    else:
        out = grid.d_axis(dxj, 2 * i)
        out += grid.d_axis(dyj, 2 * i + 1)
    return out


class StencilTerm(NamedTuple):
    """One term c * S of lap_C: a real coefficient field and a `_stencil`."""

    coef: np.ndarray
    i: int
    j: int
    imag: bool = False

    def stencil(self, grid: TorusGrid, v: np.ndarray) -> np.ndarray:
        return _stencil(grid, v, self.i, self.j, self.imag)


# ---------------------------------------------------------------------------


@dataclass
class GridMetric:
    """Metric jet data and cached curvature fields on every grid node."""

    grid: TorusGrid
    jet: MetricJet

    @classmethod
    def from_manifold(cls, man: ModelManifold, grid: TorusGrid) -> "GridMetric":
        if man.periods is None:
            raise GridError(f"{man.name} is not declared periodic; PDE solving "
                            "is restricted to torus charts")
        if tuple(man.periods) != grid.periods:
            raise GridError(f"grid periods {grid.periods} do not match the "
                            f"manifold's {tuple(man.periods)}")
        z = grid.points()
        jet = man.jet(z, check_domain=False)
        _check_periodicity(man, grid, z)
        jet.ginv  # invert now, so that a JetError surfaces at build time
        return cls(grid, jet)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def ginv(self) -> np.ndarray:
        return self.jet.ginv

    @property
    def det(self) -> np.ndarray:
        return self.jet.det

    def weights(self) -> np.ndarray:
        """Quadrature weight per node: det(h) 2^n * cell volume."""
        return self.det * (2 ** self.n) * self.grid.cell_volume()

    def volume(self) -> float:
        return float(np.sum(self.weights()))

    @cached_property
    def laplacian_terms(self) -> tuple:
        """lap_C = sum_k c_k S_k as a tuple of StencilTerm, built once.

        With h^{i jbar} Hermitian, the (i, j) and (j, i) terms of
        h^{i jbar} d_i d_jbar pair into real arithmetic:

          1/4 Re h^{i ibar}  (d2 on x_i + d2 on y_i),
          1/2 Re h^{i jbar}  (d_xi d_xj + d_yi d_yj),   i < j,
         -1/2 Im h^{i jbar}  (d_xi d_yj - d_yi d_xj),   i < j.

        Terms whose coefficient field is identically zero are left out.  A
        non-Hermitian inverse metric raises GridError.
        """
        g = self.ginv
        dev = float(np.max(np.abs(g - np.conj(np.swapaxes(g, -1, -2)))))
        if dev > IMAG_TOL * max(1.0, float(np.max(np.abs(g)))):
            raise GridError(f"inverse metric is not Hermitian "
                            f"(deviation {dev:.3e})")
        terms = [StencilTerm(0.25 * g[..., i, i].real, i, i)
                 for i in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                terms += [StencilTerm(0.5 * g[..., i, j].real, i, j),
                          StencilTerm(-0.5 * g[..., i, j].imag, i, j, True)]
        return tuple(t for t in terms if np.any(t.coef))

    @cached_property
    def _traces(self):
        return torsion_traces(self.jet)

    def tau(self) -> np.ndarray:
        return self._traces.tau

    def lee_real(self) -> np.ndarray:
        return self._traces.lee

    def scalar_fields(self) -> dict:
        """S_C^(1), S_C^(2), S_B^(2) fields from the cached torsion-trace bundle."""
        tr = self._traces
        s_c1, s_c2 = tr.scalars(0.0)
        _, s_b2 = tr.scalars(1.0)
        return {"s_c1": s_c1, "s_c2": s_c2, "s_b2": s_b2}

    def class_residuals(self) -> dict:
        """Metric-norm class residuals on a seeded subsample of 200 nodes.

        Works from this metric's own jet data, so it stays correct for
        conformally transformed grid metrics whose coefficients no longer
        match the base manifold.
        """
        rng = np.random.default_rng(0)
        count = min(200, self.grid.node_count)
        idx = np.unravel_index(rng.integers(0, self.grid.node_count, size=count),
                               self.grid.shape)
        fields = class_residual_fields(self.jet[idx], traces=self._traces[idx])
        return ClassFlags.from_residuals(fields).as_dict()

    def conformal(self, f: np.ndarray) -> "GridMetric":
        """Grid metric of e^f h, with f differentiated by the grid scheme."""
        jet2 = conformal_jet(self.jet, factor_jet_from_field(self.grid, f))
        jet2.ginv  # invert now, so that a JetError surfaces at build time
        return GridMetric(self.grid, jet2)


def factor_jet_from_field(grid: TorusGrid, f: np.ndarray) -> FactorJet:
    """2-jet of a real field; ddf is Hermitian, so only j >= i is computed."""
    n = grid.n
    df = np.empty(grid.shape + (n,), complex)
    ddf = np.empty(grid.shape + (n, n), complex)
    for i in range(n):
        df[..., i] = dz(f, i, grid)
        for j in range(i, n):
            ddf[..., i, j] = dz_dzbar(f, i, j, grid)
            ddf[..., j, i] = np.conj(ddf[..., i, j])
    return FactorJet(np.asarray(f, float), df, ddf)


def _check_periodicity(man: ModelManifold, grid: TorusGrid, z: np.ndarray):
    """h at 32 seeded nodes of z (the grid points) against h one period on."""
    rng = np.random.default_rng(1)
    z = z.reshape(-1, grid.n)[rng.integers(0, grid.node_count, 32)]
    h0 = man.jet(z, check_domain=False).h
    for a in range(2 * grid.n):
        shift = np.zeros(grid.n, complex)
        shift[a // 2] = grid.periods[a] if a % 2 == 0 else 1j * grid.periods[a]
        h1 = man.jet(z + shift, check_domain=False).h
        if np.max(np.abs(h0 - h1)) > 1e-9:
            raise GridError(f"metric coefficients are not periodic along axis {a}")


# -- operators ---------------------------------------------------------------


def complex_laplacian(gm: GridMetric, v: np.ndarray) -> np.ndarray:
    """h^{i jbar} d^2 v / dz^i dzbar^j as sum_k c_k S_k(v) over the metric's
    stencil table (`GridMetric.laplacian_terms`).

    The i != j terms share their inner first differences d v/dx_j and
    d v/dy_j, so each is taken once per apply.
    """
    grid = gm.grid
    out = np.zeros(grid.shape)
    inner = {}
    for t in gm.laplacian_terms:
        if t.i == t.j:
            s = t.stencil(grid, v)
        else:
            if t.j not in inner:
                inner[t.j] = _inner(grid, v, t.j)
            s = _outer(grid, inner[t.j], t.i, t.imag)
        s *= t.coef
        out += s
    return out


def real_metric(gm: GridMetric):
    """Underlying Riemannian metric g and its inverse, as 2n x 2n blocks."""
    n = gm.n
    h = gm.jet.h
    g = np.zeros(gm.grid.shape + (2 * n, 2 * n))
    re = h.real
    im = h.imag
    for a in range(n):
        for b in range(n):
            g[..., 2 * a, 2 * b] = 2 * re[..., a, b]
            g[..., 2 * a + 1, 2 * b + 1] = 2 * re[..., a, b]
            g[..., 2 * a, 2 * b + 1] = 2 * im[..., a, b]
            g[..., 2 * a + 1, 2 * b] = -2 * im[..., a, b]
    ginv = np.linalg.inv(g)
    return g, ginv


def laplace_de_rham(gm: GridMetric, v: np.ndarray) -> np.ndarray:
    """Laplace-de Rham operator on functions (positive convention).

    Delta_d v = -(g^{ab} d_a d_b v + J^{-1} d_a(J g^{ab}) d_b v), with the
    same-axis second derivatives taken by the d2 stencil used everywhere.
    """
    grid = gm.grid
    _, ginv_r = real_metric(gm)
    jac = gm.det * (2 ** gm.n)  # sqrt(det g)
    nn = 2 * gm.n
    first = np.zeros(grid.shape)
    dv = [grid.d_axis(v, b) for b in range(nn)]
    for a in range(nn):
        for b in range(nn):
            gg = ginv_r[..., a, b]
            if a == b:
                first += gg * grid.d2_axis(v, a)
            else:
                first += gg * grid.d_axis(dv[b], a)
    second = np.zeros(grid.shape)
    for b in range(nn):
        acc = np.zeros(grid.shape)
        for a in range(nn):
            acc += grid.d_axis(jac * ginv_r[..., a, b], a)
        second += acc / jac * dv[b]
    return -(first + second)


def metric_pairing_du_eta(gm: GridMetric, v: np.ndarray) -> np.ndarray:
    """<dv, eta(omega)> with the real metric, stencil-consistent."""
    _, ginv_r = real_metric(gm)
    eta = gm.lee_real()
    nn = 2 * gm.n
    out = np.zeros(gm.grid.shape)
    for a in range(nn):
        da = gm.grid.d_axis(v, a)
        for b in range(nn):
            out += ginv_r[..., a, b] * da * eta[..., b]
    return out


def laplacian_duality_defect(gm: GridMetric, u: np.ndarray) -> float:
    """Grid max of | -2 lap_C u - Delta_d u - <du, eta> |."""
    lhs = -2 * complex_laplacian(gm, u)
    rhs = laplace_de_rham(gm, u) + metric_pairing_du_eta(gm, u)
    return float(np.max(np.abs(lhs - rhs)))


def integrate(gm: GridMetric, v: np.ndarray) -> float:
    return float(np.sum(v * gm.weights()))


def gauduchon_degrees(gm: GridMetric):
    """(Gamma^1, Gamma^2) by quadrature; warns when the input fails the
    Gauduchon residual test instead of silently reporting degrees."""
    fields = gm.scalar_fields()
    g1 = integrate(gm, fields["s_c1"])
    g2 = integrate(gm, fields["s_c2"])
    res = gm.class_residuals()
    warn = not res["gauduchon"][0]
    return g1, g2, warn


def balanced_representative(gm: GridMetric):
    """Balanced metric e^{-u/(n-1)} omega_G from an exact Lee form.

    Solves the least-squares problem min ||du - eta||^2 over grid functions
    by Fourier diagonalization, then verifies that the residual is pure
    harmonic noise below tolerance.  A Lee form with nonzero periods (its
    harmonic part on the torus, i.e. the component-wise mean) is the
    topological obstruction and raises GridError.
    """
    grid = gm.grid
    eta = gm.lee_real()
    nn = 2 * gm.n
    tol = 1e-8
    means = [float(np.mean(eta[..., a])) for a in range(nn)]
    if max(abs(m) for m in means) > tol:
        raise GridError(
            "Lee form is not d-exact: nonzero harmonic part "
            f"{means} (first de Rham cohomology obstruction)")
    # normal equations in Fourier space: u_hat = sum conj(d_a) eta_a / sum |d_a|^2
    num = np.zeros(grid.shape, complex)
    den = np.zeros(grid.shape)
    for a in range(nn):
        sym = grid.d_symbol(a)
        shape = [1] * nn
        shape[a] = grid.N
        sym = sym.reshape(shape)
        num = num + np.conj(sym) * np.fft.fftn(eta[..., a])
        den = den + np.abs(sym) ** 2
    den_flat = den.copy()
    den_flat[den == 0] = 1.0
    uhat = np.where(den == 0, 0.0, num / den_flat)
    u = np.fft.ifftn(uhat).real
    resid = 0.0
    for a in range(nn):
        resid = max(resid, float(np.max(np.abs(grid.d_axis(u, a) - eta[..., a]))))
    if resid > 10 * tol:
        raise GridError(f"Lee form residual {resid:.3e} after exact-part solve; "
                        "input is not balanced-conformal at grid tolerance")
    gm_bal = gm.conformal(-u / (gm.n - 1))
    out_res = float(np.max(np.abs(gm_bal.lee_real())))
    return TorusField(grid, u), gm_bal, {"lee_residual_in": resid,
                                         "lee_residual_out": out_res}
