"""Periodic discretization on complex-torus charts.

Real coordinates are ordered (x1, y1, x2, y2, ...): grid axis 2k samples
x_k = Re z^k and axis 2k+1 samples y_k = Im z^k, each with N nodes over its
period.  Two derivative schemes are supported: second-order centered
differences ("fd2", the default) and Fourier-spectral ("spectral").  The
fd2 differences are written with slices into one output array, the
wrap-around slabs last.  A spectral derivative of a real field is a stack of
N x N products along its axis by the axis's circulant matrix (Trefethen,
Spectral Methods in MATLAB, ch. 3), built once per grid from `d_symbol` and
`d2_symbol`, exactly antisymmetric for d and symmetric for d2; a complex
field is differentiated as its real and imaginary parts.  The mixed
Wirtinger second derivatives share one stencil builder so that exact
cancellations (flat-metric Laplacian duality, linearity) hold to roundoff.

The Chern Laplacian lap_C u = h^{i jbar} d^2 u / dz^i dzbar^j is one table of
terms sum_k c_k S_k per grid metric: real coefficient fields c_k times
symmetric real stencils S_k from the same builder.  `complex_laplacian`
applies it as sum_k c_k S_k(u), taking the inner first differences of the
i != j stencils once per apply, and its transpose is sum_k S_k(c_k v).  The
solvers' flat preconditioner inverts the Fourier symbol of the diagonal
terms with mean coefficients (`d2_symbol`).

`GridMetric.from_manifold` builds a grid metric in one node-block pass: per
block of nodes, the manifold's 2-jet, its inverse and det, and its
torsion-trace bundle (`GridMetric.traces`).  Only h, the inverse, det and
the bundle are kept for every node, so the whole 2-jet never exists; its dh
and ddh are re-derived from the manifold if a test or a curvature oracle
reads them.  Class residuals (`GridMetric.class_residuals`) are the maxima
over every node of the closed-form residual fields in the bundle, the same
pass that gives its scalar fields and Lee form.  The metric of e^f h
(`GridMetric.conformal`) scales h, h^{-1} and det exactly, with no second
inversion, and builds its dh and ddh (by `jets.conformal_jet`) only if a
curvature pass reads them.  Geometry arrays are component-first like the
jet's (ginv[i, j] is one field of grid.shape); only the chart points
(`TorusGrid.points`) keep their coordinate axis last.

Quadrature: the volume form is det(h) * 2^n dx1 dy1 ... , so periodic
trapezoid integration is the plain node mean times det(h) 2^n and the cell
volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curvature import (TorsionTraces, class_residual_fields, collect_traces,
                        torsion_traces, traces_block)
from .jets import (ConformalJet, DeferredJet, FactorJet, MetricJet, check_inverse,
                   inverse_block, map_blocks)
from .manifolds import ModelManifold

__all__ = ["TorusGrid", "TorusField", "GridMetric", "GridError",
           "dz", "complex_laplacian", "laplacian_duality_defect",
           "integrate", "gauduchon_degrees"]

MEMORY_BUDGET_BYTES = 2 << 30
# bytes per node a grid command holds beyond the metric, inverse and trace
# bundle of `_bytes_per_node`: at most 419 B over the solve and duality
# commands traced at n = 2 (N = 16, 32) and n = 3 (N = 6, 8, 10), rounded up
# (DECISIONS.md D14, D15)
WORKING_SET_BYTES = 448
IMAG_TOL = 1e-9


def _bytes_per_node(n: int) -> int:
    """Peak bytes per node of a grid command at dimension n: h (n^2
    complex), the inverse and det, the torsion-trace bundle (n + n^2
    complex, five real fields) and the working set."""
    metric = 16 * n ** 2
    inverse = 16 * n ** 2 + 8
    traces = 16 * (n + n ** 2) + 8 * 5
    return metric + inverse + traces + WORKING_SET_BYTES


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
        periods = tuple(float(p) for p in periods)
        if not all(0 < p < np.inf for p in periods):
            raise GridError(f"periods must be positive finite numbers, got {periods}")
        object.__setattr__(self, "periods", periods)
        nodes = self.N ** (2 * self.n)
        need = nodes * _bytes_per_node(self.n)
        if need > MEMORY_BUDGET_BYTES:
            raise GridError(f"grid with {nodes} nodes is budgeted at {need / 2 ** 30:.1f} "
                            f"GiB, over the memory budget of "
                            f"{MEMORY_BUDGET_BYTES / 2 ** 30:g} GiB")

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
        return self._spectral(u, a, 0)

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
        return self._spectral(u, a, 1)

    def d_symbol(self, a: int) -> np.ndarray:
        """Fourier symbol of d_axis (and of the spectral `_matrices`): the tests'
        d_axis reference and Lee-form symbol (`conftest.balanced_representative`)."""
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

    def _spectral(self, u: np.ndarray, a: int, order: int) -> np.ndarray:
        """Spectral derivative of order + 1 along axis a, C-ordered: stacked N x N
        products by its circulant matrix, not one GEMM (DECISIONS.md D8)."""
        if np.iscomplexobj(u):  # linear: differentiate the two real parts
            return self._spectral(u.real, a, order) + 1j * self._spectral(u.imag, a, order)
        out = np.empty(u.shape)
        np.matmul(self._matrices[order][a], np.moveaxis(u, a, -2),
                  out=np.moveaxis(out, a, -2))
        return out

    @cached_property
    def _matrices(self) -> tuple:
        """(d, d2) spectral differentiation matrices, one per axis: M[j, k] =
        c[(j - k) mod N] with c = ifft(symbol).real, made odd for d (so that
        M = -M^T exactly) and even for d2 (M = M^T)."""
        idx = np.subtract.outer(np.arange(self.N), np.arange(self.N)) % self.N

        def circulant(symbol, sign):
            c = np.fft.ifft(symbol).real
            return ((c + sign * c[idx[0]]) / 2)[idx]  # idx[0] is -m mod N
        return (tuple(circulant(self.d_symbol(a), -1) for a in range(2 * self.n)),
                tuple(circulant(self.d2_symbol(a), 1) for a in range(2 * self.n)))


def _at(a: int, start, stop) -> tuple:
    """Index of the slice start:stop along axis a."""
    return (slice(None),) * a + (slice(start, stop),)


@dataclass
class TorusField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise GridError(f"field shape {self.values.shape} does not match "
                            f"grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite entries")
        if np.iscomplexobj(self.values):
            if np.max(np.abs(self.values.imag)) > IMAG_TOL:
                raise GridError("field has imaginary content")
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
    """h, its inverse and det, and the torsion-trace bundle on every grid
    node.  The jet holds the first three; its dh and ddh are re-derived
    when first read (`jets.DeferredJet`), never by a solve."""

    grid: TorusGrid
    jet: MetricJet

    @classmethod
    def from_manifold(cls, man: ModelManifold, grid: TorusGrid) -> "GridMetric":
        """The grid metric of man in one node-block pass (module docstring);
        `check_inverse`, then the pairing's check, judge maxima over every node."""
        if man.periods is None:
            raise GridError(f"{man.name} is not declared periodic; PDE solving "
                            "is restricted to torus charts")
        if tuple(man.periods) != grid.periods:
            raise GridError(f"grid periods {grid.periods} do not match the "
                            f"manifold's {tuple(man.periods)}")
        z = grid.points()
        _check_periodicity(man, grid, z)

        def block(zb):  # zb[k, node]: its transpose is a C-ordered slice of z
            jet = man.jet(zb.T, check_domain=False)
            ginv, det, herm, hmax, shortfall, dev = inverse_block(jet.h)
            # a block below the pivot floor is refused after the pass; its
            # traces only fill the outputs, so they run silently
            with np.errstate(all=None if shortfall < 0 else "ignore"):
                return (jet.h, ginv, det, herm, hmax, shortfall, dev,
                        *traces_block(ginv, jet.dh, jet.ddh))
        h, ginv, det, herm, hmax, shortfall, dev, *traces = map_blocks(
            block, grid.shape, np.moveaxis(z, -1, 0))
        check_inverse(herm, hmax, shortfall, dev)
        traces = collect_traces(grid.n, traces)
        gm = cls(grid, DeferredJet(h, ginv, det,
                                   lambda: man.jet(grid.points(), check_domain=False)))
        gm.traces = traces  # the pass's bundle: `traces` never reads dh or ddh
        return gm

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

        Terms whose coefficient field is identically zero are left out.  The
        jet's inverse is Hermitian by construction (`inverse_and_det`).
        """
        g = self.ginv
        terms = [StencilTerm(0.25 * g[i, i].real, i, i) for i in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                terms += [StencilTerm(0.5 * g[i, j].real, i, j),
                          StencilTerm(-0.5 * g[i, j].imag, i, j, True)]
        return tuple(t for t in terms if np.any(t.coef))

    @cached_property
    def traces(self) -> TorsionTraces:
        """The torsion-trace bundle of the jet: `from_manifold`'s pass sets
        it, and a metric made otherwise computes it on first use."""
        return torsion_traces(self.jet)

    def scalar_fields(self) -> dict:
        """S_C^(1), S_C^(2), S_B^(2) fields from the cached torsion-trace bundle."""
        tr = self.traces
        s_c1, s_c2 = tr.scalars(0.0)
        _, s_b2 = tr.scalars(1.0)
        return {"s_c1": s_c1, "s_c2": s_c2, "s_b2": s_b2}

    def class_residuals(self) -> dict:
        """Each metric-norm class residual's maximum over every node of the
        cached torsion-trace bundle.

        Works from this metric's own jet data, so it stays correct for
        conformally transformed grid metrics whose coefficients no longer
        match the base manifold.
        """
        return {k: float(np.max(v)) for k, v in class_residual_fields(self.traces).items()}

    def conformal(self, f: np.ndarray) -> "GridMetric":
        """Grid metric of e^f h: h, h^{-1} and det scaled from this metric's
        by e^f, e^{-f} and e^{nf} and checked now (`jets.ConformalJet`); dh
        and ddh on first read, with f differentiated by the grid scheme."""
        f = np.array(f, float)
        return GridMetric(self.grid, ConformalJet(
            self.jet, f, lambda: factor_jet_from_field(self.grid, f)))


def factor_jet_from_field(grid: TorusGrid, f: np.ndarray) -> FactorJet:
    """2-jet of a real field; ddf is Hermitian, so only j >= i is computed."""
    n = grid.n
    df = np.stack([dz(f, i, grid) for i in range(n)])
    ddf = np.empty((n, n) + grid.shape, complex)
    for i in range(n):
        for j in range(i, n):
            ddf[i, j] = dz_dzbar(f, i, j, grid)
            ddf[j, i] = np.conj(ddf[i, j])
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


def laplacian_duality_defect(gm: GridMetric, u: np.ndarray) -> float:
    """Grid max of | -2 lap_C u - Delta_d u - <du, eta> |.

    Delta_d u = -(g^{ab} d_a d_b u + J^{-1} d_a(J g^{ab}) d_b u) is the
    Laplace-de Rham operator on functions (positive convention), with the
    same-axis second derivatives taken by the d2 stencil used everywhere, and
    <du, eta> pairs du with the Lee form; both read the same first
    differences d_b u.  g realifies 2h (an entry x + iy becomes the block
    [[x, y], [-y, x]]), and realification is multiplicative, so its inverse
    g^{ab} realifies (2h)^{-1} = h^{-1}/2; each entry is taken from the
    metric's inverse where it is used (`_real_inverse`), never stored.
    """
    grid, nn = gm.grid, 2 * gm.n
    jac = gm.det * (2 ** gm.n)  # sqrt(det g)
    du = [grid.d_axis(u, b) for b in range(nn)]
    first = np.zeros(grid.shape)
    for a in range(nn):
        for b in range(nn):
            gg = _real_inverse(gm, a, b)
            if a == b:
                first += gg * grid.d2_axis(u, a)
            else:
                first += gg * grid.d_axis(du[b], a)
    second = np.zeros(grid.shape)
    for b in range(nn):
        acc = np.zeros(grid.shape)
        for a in range(nn):
            acc += grid.d_axis(jac * _real_inverse(gm, a, b), a)
        second += acc / jac * du[b]
    eta = gm.traces.lee
    pairing = np.zeros(grid.shape)
    for a in range(nn):
        for b in range(nn):
            pairing += _real_inverse(gm, a, b) * du[a] * eta[b]
    lhs = -2 * complex_laplacian(gm, u)
    return float(np.max(np.abs(lhs - (-(first + second) + pairing))))


def _real_inverse(gm: GridMetric, a: int, b: int) -> np.ndarray:
    """g^{ab}, a and b ordered (x1, y1, x2, y2, ...): the entry of the
    realified h^{-1}/2, whose (i, j) entry is ginv[j, i] / 2."""
    x = 0.5 * gm.ginv[b // 2, a // 2]
    if a % 2 == b % 2:
        return x.real
    return x.imag if a % 2 == 0 else -x.imag


def integrate(gm: GridMetric, v: np.ndarray) -> float:
    return float(np.sum(v * gm.weights()))


def gauduchon_degrees(gm: GridMetric):
    """(Gamma^1, Gamma^2) by quadrature.  They are the degrees only of a
    Gauduchon metric; callers check `gm.class_residuals()` for that."""
    fields = gm.scalar_fields()
    g1 = integrate(gm, fields["s_c1"])
    g2 = integrate(gm, fields["s_c2"])
    return g1, g2
