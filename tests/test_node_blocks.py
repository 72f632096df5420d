"""Node blocks: every per-node pass gives, on any slice of nodes, exactly what
it gives on that slice alone, keeps its whole-batch checks, and holds only
one block of temporaries."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hermcurv.curvature import ricci_forms, torsion_traces
from hermcurv.grid import GridMetric, TorusGrid
from hermcurv.jets import NODE_BLOCK, JetError, MetricJet, inverse_and_det
from hermcurv.manifolds import builtin

# a batch that is not a multiple of the block, with slices that straddle
# the first block boundary and end the last (partial) block
SLICES = (slice(4090, 4100), slice(-50, None))
TRACE_FIELDS = ("tau", "ddstar", "pairing", "del_omega_sq", "del_star_sq",
                "s_c1", "gauduchon", "pluriclosed")


def _flat(x, batch_ndim):
    return x.reshape(x.shape[:x.ndim - batch_ndim] + (-1,))


# 10 000 nodes: two full blocks and 1808 left over
GRID = TorusGrid(2, 10)


@pytest.fixture(scope="module")
def grid_case():
    # the whole-batch jet and trace pass, and the grid metric's fused build
    assert GRID.node_count % NODE_BLOCK and GRID.node_count > 2 * NODE_BLOCK
    man = builtin("pluriclosed-bump")
    jet = man.jet(GRID.points(), check_domain=False)
    return (man, GRID.points().reshape(-1, 2), jet, torsion_traces(jet),
            GridMetric.from_manifold(man, GRID))


def test_fused_build_matches_the_whole_batch_passes(grid_case):
    _, _, jet, traces, gm = grid_case
    ginv, det = inverse_and_det(jet)
    for got, want in ((gm.jet.h, jet.h), (gm.ginv, ginv), (gm.det, det)):
        assert np.array_equal(got, want)
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(gm.traces, name), getattr(traces, name)), name
    # the re-derived 2-jet
    assert np.array_equal(gm.jet.dh, jet.dh)
    assert np.array_equal(gm.jet.ddh, jet.ddh)


def test_jet_blocks_match_the_block_alone(grid_case):
    # Blocks, not arbitrary slices: the BLAS product rounds its last few
    # columns through a different kernel (up to 7e-18 on h for a 10- or
    # 50-node product, as it did for the whole-batch product)
    man, z, jet, *_ = grid_case
    for start in range(0, len(z), NODE_BLOCK):
        nodes = slice(start, start + NODE_BLOCK)
        part = man.jet(z[nodes], check_domain=False)
        for name in ("h", "dh", "ddh"):
            whole = _flat(getattr(jet, name), 4)[..., nodes]
            assert np.array_equal(whole, getattr(part, name)), (name, start)


@pytest.mark.parametrize("nodes", SLICES, ids=["boundary", "tail"])
def test_grid_passes_match_the_slice_alone(grid_case, nodes):
    _, _, jet, traces, _ = grid_case
    part = MetricJet(*(_flat(getattr(jet, name), 4)[..., nodes].copy()
                       for name in ("h", "dh", "ddh")))
    for name in ("ginv", "det"):
        whole = _flat(getattr(jet, name), 4)[..., nodes]
        assert np.array_equal(whole, getattr(part, name)), name
    part_traces = torsion_traces(part)
    for name in TRACE_FIELDS:
        whole = _flat(getattr(traces, name), 4)[..., nodes]
        assert np.array_equal(whole, getattr(part_traces, name)), name


@pytest.mark.parametrize("nodes", SLICES, ids=["boundary", "tail"])
def test_ricci_forms_match_the_slice_alone(nodes):
    man = builtin("hopf", n=3)
    z = man.sample_points(5000, seed=4)  # one full block and 904 left over
    ts = [0.0, 0.5, 1.0]
    whole, part = ricci_forms(man.jet(z), ts), ricci_forms(man.jet(z[nodes]), ts)
    for w, p in zip(whole, part):
        for name in ("ric1", "ric2", "ric3", "ric4", "s1", "s2"):
            assert np.array_equal(getattr(w, name)[..., nodes], getattr(p, name)), name


PIVOT_MESSAGE = "metric is not positive definite: LDL^H pivot below 1e-10 * max diagonal"


def test_non_positive_last_node_is_refused(grid_case):
    h = _flat(grid_case[2].h, 4).copy()
    h[:, :, -1] = np.diag([1.0, -1.0])
    with pytest.raises(JetError, match=re.escape(PIVOT_MESSAGE)):
        inverse_and_det(MetricJet(h, None, None))


def test_hermitian_check_covers_every_block_first(grid_case):
    # a non-positive node in the first block and a non-Hermitian one in the
    # last: the whole-batch order of the checks names the symmetry
    h = _flat(grid_case[2].h, 4).copy()
    h[:, :, 0] = np.diag([1.0, -1.0])
    h[0, 1, -1] += 0.1
    with pytest.raises(JetError, match="h is not Hermitian: max deviation 1.000e-01"):
        inverse_and_det(MetricJet(h, None, None))


def _edit_first_and_last(monkeypatch, first, last):
    """pluriclosed-bump whose jet, wherever it is evaluated, has h edited by
    first(h) at the first node of GRID and by last(h) at its last node.  The
    periodicity check samples neither node, so only the build's pass sees
    them."""
    man = builtin("pluriclosed-bump")
    real, points = man.jet, GRID.points().reshape(-1, 2)

    def jet(z, check_domain=True):
        out = real(z, check_domain)
        for node, edit in ((0, first), (-1, last)):
            at = np.all(z == points[node], axis=-1)
            out.h[..., at] = edit(out.h[..., at])
        return out
    monkeypatch.setattr(man, "jet", jet)
    return man


def _non_positive(h):
    return np.broadcast_to(np.diag([1.0, -1.0])[..., None], h.shape)


def _singular(h):  # a zero pivot: its block's inverse and traces are not finite
    return np.broadcast_to(np.diag([1.0, 0.0])[..., None], h.shape)


def _non_hermitian(h):
    h[0, 1] += 0.1
    return h


@pytest.mark.parametrize("first, last, message", [
    (lambda h: h, _non_positive, PIVOT_MESSAGE),
    (lambda h: h, _singular, PIVOT_MESSAGE),
    (_non_positive, _non_hermitian, "h is not Hermitian: max deviation 1.000e-01"),
    (_non_positive, lambda h: np.full(h.shape, np.inf),
     "metric coefficients are not finite: max |h| is inf"),
    (_non_hermitian, lambda h: np.full(h.shape, np.nan),
     "metric coefficients are not finite: max |h| is nan"),
], ids=["non-positive-last", "singular-last", "hermitian-first", "inf-first",
        "nan-first"])
def test_grid_build_keeps_the_whole_batch_check_order(monkeypatch, first, last, message):
    # the fused build checks its blocks' maxima after the pass, in the order
    # of `inverse_and_det`, and warns of nothing on the way
    man = _edit_first_and_last(monkeypatch, first, last)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JetError, match=re.escape(message)):
            GridMetric.from_manifold(man, GRID)


# At N = 16 (65 536 nodes) the whole 2-jet alone is 28 MiB.  The fused build
# keeps h, the inverse, det and the trace bundle (17.8 MiB) and one block of
# temporaries: a 25.6 MiB traced peak, where building the whole jet and then
# its trace bundle peaked at 45.1 MiB.
BUILD_BOUND_MIB = 28


def test_grid_build_never_holds_the_whole_jet():
    man = builtin("pluriclosed-bump")
    tracemalloc.start()
    try:
        GridMetric.from_manifold(man, TorusGrid(2, 16)).traces
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < BUILD_BOUND_MIB
