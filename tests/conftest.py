"""Shared fixtures: one session-wide cache of grid metrics, the exact complex
Laplacian of a manufactured trig field, the balanced conformal representative
by a Fourier least-squares solve, and call counters.

Grid metrics returned by `make_gm` are shared by every test that asks for the
same key, so a test that mutates one must build a private `GridMetric`.
"""

import sys

import numpy as np
import pytest

from hermcurv.grid import GridError, GridMetric, TorusField, TorusGrid
from hermcurv.manifolds import builtin, plane_wave_jets

_GM_CACHE = {}


def make_gm(name="flat-torus", N=8, scheme="fd2", **params):
    key = (name, N, scheme, tuple(sorted(params.items())))
    if key not in _GM_CACHE:
        man = builtin(name, **params)
        _GM_CACHE[key] = GridMetric.from_manifold(
            man, TorusGrid(n=man.n, N=N, scheme=scheme))
    return _GM_CACHE[key]


def scalar_jets(z, trig):
    """(f, d_i f, d_i dbar_j f) of a `_TrigSum` f at points z.

    A cos(theta) = (A/2) e^{i theta} + (A/2) e^{-i theta}, so f is the 1 x 1
    plane-wave sum with P = A/2, less the identity `plane_wave_jets` adds.
    """
    h, dh, ddh = plane_wave_jets(z, trig, lambda A, c: A[:, None, None] / 2)
    return h[0, 0] - 1, dh[:, 0, 0], ddh[:, :, 0, 0]


def trig_values(gm, trig):
    """A `_TrigSum`'s values at the grid nodes."""
    return scalar_jets(gm.grid.points(), trig)[0].real


def analytic_laplacian(gm, trig):
    """h^{i jbar} d_i dbar_j of a `_TrigSum` at the grid nodes, from its exact jet."""
    return np.sum(gm.ginv * scalar_jets(gm.grid.points(), trig)[2], axis=(0, 1)).real


def balanced_representative(gm: GridMetric):
    """Balanced metric e^{-u/(n-1)} omega_G from an exact Lee form.

    Solves the least-squares problem min ||du - eta||^2 over grid functions
    by Fourier diagonalization, then verifies that the residual is pure
    harmonic noise below tolerance.  A Lee form with nonzero periods (its
    harmonic part on the torus, i.e. the component-wise mean) is the
    topological obstruction and raises GridError.
    """
    grid = gm.grid
    eta = gm.traces.lee
    nn = 2 * gm.n
    tol = 1e-8
    means = [float(np.mean(eta[a])) for a in range(nn)]
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
        num = num + np.conj(sym) * np.fft.fftn(eta[a])
        den = den + np.abs(sym) ** 2
    den_flat = den.copy()
    den_flat[den == 0] = 1.0
    uhat = np.where(den == 0, 0.0, num / den_flat)
    u = np.fft.ifftn(uhat).real
    resid = 0.0
    for a in range(nn):
        resid = max(resid, float(np.max(np.abs(grid.d_axis(u, a) - eta[a]))))
    if resid > 10 * tol:
        raise GridError(f"Lee form residual {resid:.3e} after exact-part solve; "
                        "input is not balanced-conformal at grid tolerance")
    gm_bal = gm.conformal(-u / (gm.n - 1))
    out_res = float(np.max(np.abs(gm_bal.traces.lee)))
    return TorusField(grid, u), gm_bal, {"lee_residual_in": resid,
                                         "lee_residual_out": out_res}


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(owner, *names)` counts the calls of `owner.<name>` for each name.

    A method is wrapped in its class.  A module function is wrapped in every
    hermcurv module that bound it by name, so a call is counted whichever
    module makes it.  Returns one list that gets the name of each call.
    """
    def install(owner, *names):
        calls = []
        for name in names:
            real = vars(owner)[name]

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, counted)
                continue
            for key, mod in list(sys.modules.items()):
                if key == "hermcurv" or key.startswith("hermcurv."):
                    for attr, val in list(vars(mod).items()):
                        if val is real:
                            monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
