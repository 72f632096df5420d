"""Node blocks: every per-node pass gives, on any slice of nodes, exactly what
it gives on that slice alone, keeps its whole-batch checks, and holds only
one block of temporaries."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hermcurv import conformal
from hermcurv.cli import DEFAULT_FACTORS, main
from hermcurv.conformal import conformal_oracle_check
from hermcurv.curvature import ricci_forms, torsion_traces
from hermcurv.dsl import parse_expr
from hermcurv.grid import GridMetric, TorusGrid
from hermcurv.jets import NODE_BLOCK, JetError, MetricJet, inverse_and_det, node_block
from hermcurv.manifolds import _jet_trees, builtin, factor_jet_from_expr

# a batch that is not a multiple of the block, with slices that straddle
# the first block boundary and end the last (partial) block
SLICES = (slice(4090, 4100), slice(-50, None))
TRACE_FIELDS = ("tau", "pairing", "del_omega_sq", "del_star_sq",
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


@pytest.mark.parametrize("nodes", SLICES + (slice(4040, 4050),),
                         ids=["boundary", "tail", "n3-boundary"])
def test_ricci_forms_match_the_slice_alone(nodes):
    # n = 3 runs 809-node blocks: 4090:4100 lies inside the sixth, 4040:4050
    # straddles the fifth boundary (4045)
    man = builtin("hopf", n=3)
    z = man.sample_points(5000, seed=4)  # six full blocks and 146 left over
    assert node_block(3) == 809
    ts = [0.0, 0.5, 1.0]
    whole, part = ricci_forms(man.jet(z), ts), ricci_forms(man.jet(z[nodes]), ts)
    for w, p in zip(whole, part):
        for name in ("ric1", "ric2", "ric3", "ric4", "s1", "s2"):
            assert np.array_equal(getattr(w, name)[..., nodes], getattr(p, name)), name


@pytest.mark.parametrize("name,params,points,nodes", [
    ("hopf", {"n": 3}, 2000, slice(1610, 1625)), ("hopf", {"n": 3}, 2000, slice(-50, None)),
    ("vaisman", {"m": 2.0}, 10000, SLICES[0]), ("vaisman", {"m": 2.0}, 10000, SLICES[1])],
    ids=["hopf-n3-boundary", "hopf-n3-tail", "vaisman-boundary", "vaisman-tail"])
def test_dsl_jets_match_the_slice_alone(name, params, points, nodes):
    # the compiled DSL 2-jet runs in blocks of 809 nodes (n = 3: 1610:1625
    # straddles the second boundary) and 4096 (n = 2)
    man = builtin(name, **params)
    z = man.sample_points(points, seed=6)
    whole, part = man.jet(z), man.jet(z[nodes])
    for key in ("h", "dh", "ddh"):
        assert np.array_equal(getattr(whole, key)[..., nodes], getattr(part, key)), key


def test_the_hopf_jet_program_has_one_step_per_distinct_node():
    # each subtree shared within or across the 117 trees of the n = 3 2-jet
    # is evaluated once
    man = builtin("hopf", n=3)
    man.jet(man.sample_points(3, seed=1))
    h_t = [e for row in man.dsl_metric().entries for e in row]
    stack, seen, total = _jet_trees(h_t, 3), set(), 0
    while stack:
        t = stack.pop()
        total += 1
        seen.add(t)
        stack.extend(t.args)
    steps, _ = man._jet_program
    assert len(steps) == len(seen) < total


def test_a_block_holds_one_node_at_least(capsys):
    # NODE_BLOCK * 16 // n^4 is 0 from n = 17 on; such a batch runs one node
    # at a time
    assert [node_block(n) for n in (16, 17, 40)] == [1, 1, 1]
    man = builtin("hopf", n=17)
    z = man.sample_points(2, seed=1)
    (whole,) = ricci_forms(man.jet(z), [0.5])
    (alone,) = ricci_forms(man.jet(z[1:]), [0.5])
    assert np.array_equal(whole.s2[1:], alone.s2)
    assert main(["check", "conformal", "--manifold", "hopf", "--n", "17",
                 "--points", "1"]) == 0
    assert "max defect" in capsys.readouterr().out


PIVOT_MESSAGE = ("metric is not positive definite with condition estimate at most 1e+10: "
                 "LDL^H pivot below 1e-10 * max diagonal")


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
# keeps h, the inverse, det and the trace bundle without del del* omega
# (13.8 MiB) and one block of temporaries: a 21.4 MiB traced peak, where
# keeping del del* omega peaked at 25.6 MiB and building the whole jet and
# then its trace bundle at 45.1 MiB.
BUILD_BOUND_MIB = 24


def test_grid_build_never_holds_the_whole_jet():
    man = builtin("pluriclosed-bump")
    tracemalloc.start()
    try:
        GridMetric.from_manifold(man, TorusGrid(2, 16)).traces
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < BUILD_BOUND_MIB


# -- the conformal oracle: one node-block pass over every factor -------------

ORACLE_TS = [0.0, 0.5, 1.0]


@pytest.mark.parametrize("man, points", [(builtin("hopf", n=3), 2000),
                                         (builtin("pluriclosed-bump"), 9000)],
                         ids=["hopf-n3", "pluriclosed-bump"])
def test_conformal_oracle_blocks_match_the_whole_batch(man, points):
    # three blocks or more (809 nodes at n = 3, 4096 at n = 2), against the
    # formula and direct paths run once over every point
    assert points > 2 * node_block(man.n)
    z = man.sample_points(points, seed=6)
    jet = man.jet(z)
    base = ricci_forms(jet, ORACLE_TS)
    want = []
    for f in DEFAULT_FACTORS:
        fj = factor_jet_from_expr(parse_expr(f, man.n), z, man.n, man.params)
        want += conformal._oracle_defects(jet, fj, base, ORACLE_TS)
    assert conformal_oracle_check(man, DEFAULT_FACTORS, ORACLE_TS, z) == want


@pytest.mark.parametrize("block", [0, 1, 2])
def test_a_nan_defect_in_any_block_reaches_the_verdict(capsys, monkeypatch, block):
    # 2000 points at n = 3 are three blocks; the first factor's defects turn
    # NaN in one of them, and the maxima over the blocks keep it
    real, calls = conformal._oracle_defects, []

    def defects(*args):
        rows = real(*args)
        calls.append(len(calls))
        if calls[-1] == 3 * block:
            rows = [{key: np.nan for key in row} for row in rows]
        return rows
    monkeypatch.setattr(conformal, "_oracle_defects", defects)
    code = main(["check", "conformal", "--manifold", "hopf", "--n", "3",
                 "--points", "2000", "--t", "0,1"])
    out = capsys.readouterr().out
    assert len(calls) == 9
    assert code == 3 and "conformal oracle max defect nan (tol 1e-07)" in out
    assert out.count("nan") == 1 + 2 * 3  # the verdict; s2, ric3, ric4 at two t


# 5000 hopf n = 3 points, the three default factors at t = 0, 1: the whole
# base jet (8.9 MiB) and the factor jets stay; the base Ricci forms, the jet
# of e^f h and its Ricci pass are one 809-node block at a time.  A traced
# peak of 19.3 MiB, where the whole-batch oracle peaked at 42.3 MiB.
ORACLE_BOUND_MIB = 24


def test_conformal_oracle_holds_one_block_of_temporaries():
    man = builtin("hopf", n=3)
    z = man.sample_points(5000, seed=0)
    tracemalloc.start()
    try:
        conformal_oracle_check(man, DEFAULT_FACTORS, [0.0, 1.0], z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < ORACLE_BOUND_MIB
