"""Shared fixtures: one session-wide cache of grid metrics, the exact complex
Laplacian of a manufactured trig field, and call counters.

Grid metrics returned by `make_gm` are shared by every test that asks for the
same key, so a test that mutates one must build a private `GridMetric`.
"""

import sys

import numpy as np
import pytest

from hermcurv.grid import GridMetric, TorusGrid
from hermcurv.manifolds import builtin

_GM_CACHE = {}


def make_gm(name="flat-torus", N=8, scheme="fd2", **params):
    key = (name, N, scheme, tuple(sorted(params.items())))
    if key not in _GM_CACHE:
        man = builtin(name, **params)
        _GM_CACHE[key] = GridMetric.from_manifold(
            man, TorusGrid(n=man.n, N=N, scheme=scheme))
    return _GM_CACHE[key]


def trig_values(gm, trig):
    """A `_TrigSum`'s values at the grid nodes."""
    return trig.derivs(gm.grid.points(), [(0, 0)])[0, 0].real


def analytic_laplacian(gm, trig):
    """h^{i jbar} d_i dbar_j of a `_TrigSum` at the grid nodes, from its exact jet."""
    d11 = trig.derivs(gm.grid.points(), [(1, 1)])[1, 1]
    return np.sum(gm.ginv * d11, axis=(0, 1)).real


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
