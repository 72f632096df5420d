"""Node blocks: every per-node pass gives, on any slice of nodes, exactly what
it gives on that slice alone, keeps its whole-batch checks, and holds only
one block of temporaries."""

import re
import tracemalloc

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


@pytest.fixture(scope="module")
def grid_case():
    man = builtin("pluriclosed-bump")
    grid = TorusGrid(2, 10)  # 10 000 nodes: two full blocks and 1808 left over
    assert grid.node_count % NODE_BLOCK and grid.node_count > 2 * NODE_BLOCK
    gm = GridMetric.from_manifold(man, grid)
    return man, grid.points().reshape(-1, 2), gm.jet, torsion_traces(gm.jet)


def test_jet_blocks_match_the_block_alone(grid_case):
    # Blocks, not arbitrary slices: the BLAS product rounds its last few
    # columns through a different kernel (up to 7e-18 on h for a 10- or
    # 50-node product, as it did for the whole-batch product)
    man, z, jet, _ = grid_case
    for start in range(0, len(z), NODE_BLOCK):
        nodes = slice(start, start + NODE_BLOCK)
        part = man.jet(z[nodes], check_domain=False)
        for name in ("h", "dh", "ddh"):
            whole = _flat(getattr(jet, name), 4)[..., nodes]
            assert np.array_equal(whole, getattr(part, name)), (name, start)


@pytest.mark.parametrize("nodes", SLICES, ids=["boundary", "tail"])
def test_grid_passes_match_the_slice_alone(grid_case, nodes):
    _, _, jet, traces = grid_case
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


def test_non_positive_last_node_is_refused(grid_case):
    h = _flat(grid_case[2].h, 4).copy()
    h[:, :, -1] = np.diag([1.0, -1.0])
    with pytest.raises(JetError, match=re.escape(
            "metric is not positive definite: LDL^H pivot below 1e-10 * max diagonal")):
        inverse_and_det(MetricJet(h, None, None))


def test_hermitian_check_covers_every_block_first(grid_case):
    # a non-positive node in the first block and a non-Hermitian one in the
    # last: the whole-batch order of the checks names the symmetry
    h = _flat(grid_case[2].h, 4).copy()
    h[:, :, 0] = np.diag([1.0, -1.0])
    h[0, 1, -1] += 0.1
    with pytest.raises(JetError, match="h is not Hermitian: max deviation 1.000e-01"):
        inverse_and_det(MetricJet(h, None, None))


# At N = 16 (65 536 nodes) the trace pass's outputs are 8.5 MiB (tau, ddstar
# and five real fields) and one block of temporaries 3.3 MiB: 11.8 MiB
# measured above the jet, where the whole-batch pass added 43.5 MiB.
TRACE_PASS_BOUND_MIB = 14


def test_trace_pass_adds_a_fixed_bound_above_the_jet():
    jet = GridMetric.from_manifold(builtin("pluriclosed-bump"), TorusGrid(2, 16)).jet
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        torsion_traces(jet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2 ** 20 < TRACE_PASS_BOUND_MIB
