"""Shared fixtures: one session-wide cache of grid metrics.

Grid metrics returned by `make_gm` are shared by every test that asks for the
same key, so a test that mutates one must build a private `GridMetric`.
"""

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
