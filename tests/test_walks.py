import json
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netinstab import (
    NstcRow,
    NumericalFailure,
    SignedWeightedDigraph,
    nstc,
    nstc_ranking,
    nstc_table,
    two_step_walks,
)
from netinstab.cli import main
from netinstab.graph import BLOCK_BYTES
from netinstab.report import WALK_COLUMNS, AnalysisConfig, _csv, _walk_csv, run
from netinstab.walks import all_walks, walk_blocks
from conftest import random_signed_digraph_weights

APPENDIX_NSTC = {
    0: 1.0,
    1: 1.0,
    2: -25.9395,
    3: 4.7331,
    4: 1.0,
    5: 1.0,
    6: -32.1065,
    7: 152.9635,
}


def oracle_walks(weights, start):
    """Independent triple-loop enumeration of the two-step walk rule, in loop order."""
    n = weights.shape[0]
    found = []
    for k, i, j in product(range(n), repeat=3):
        if k != start:
            continue
        if i == k or j == i or j == k:
            continue
        if weights[k, i] == 0 or weights[i, j] == 0:
            continue
        found.append((k, i, j, weights[k, i], weights[i, j]))
    return found


def oracle_walk_rows(weights):
    """The oracle's walks from every start, as `walk_tree.csv` rows: (start, mid, end, w1, w2, product)."""
    n = weights.shape[0]
    walks = [w for start in range(n) for w in oracle_walks(weights, start)]
    return [(k, i, j, w1, w2, float(w1) * float(w2)) for k, i, j, w1, w2 in walks]


def walk_row_bytes(weights):
    """The bytes of each `_walk_csv` row: its (start, mid), end, w1 and w2 texts, each with
    its comma and NUL-padded to whole 8-byte lanes as wide as the widest of its kind
    (every edge's, every node's), and the product's three lanes."""
    edges = list(zip(*np.nonzero(weights)))
    texts = [f"{k},{i}," for k, i in edges], [f"{j}," for j in range(len(weights))], ["%.6g," % weights[e] for e in edges]
    pair, end, weight = (-(-max(map(len, t), default=0) // 8) * 8 for t in texts)
    return pair + end + 2 * weight + 24


def oracle_nstc(weights, node):
    """Mean walk product, added left to right in the oracle's walk order.

    A plain loop, not builtin `sum`: from Python 3.12 `sum` adds floats with
    compensation, which changes the last bits.
    """
    walks = oracle_walks(weights, node)
    if not walks:
        return NstcRow(node=node, n_paths=0, nstc=0.0, no_walks=True)
    total = 0.0
    for _, _, _, w1, w2 in walks:
        total += float(w1) * float(w2)
    return NstcRow(node=node, n_paths=len(walks), nstc=total / len(walks))


@st.composite
def signed_digraphs(draw):
    """Signed digraphs with n <= 10, any density, self-loops and some emptied rows."""
    n = draw(st.integers(1, 10))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = random_signed_digraph_weights(rng, n, density=density)  # diagonal included
    weights[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0.0
    return SignedWeightedDigraph(weights=weights)


# pairs near 1e-200 whose products underflow to +-0.0, subnormals, and magnitudes at the
# edge of float64 overflow: 1.3e154 squared is finite, 1.4e154 squared is not
EXTREME_WEIGHTS = [1e-200, 3e-200, 5e-324, 2.5e-310, 1.3e154, 1.4e154, 0.75, 2.0]


@st.composite
def extreme_digraphs(draw):
    """Signed digraphs with n <= 6 whose weights are mostly extreme, or any finite float."""
    n = draw(st.integers(1, 6))
    signed = [0.0] + EXTREME_WEIGHTS + [-w for w in EXTREME_WEIGHTS]
    elements = st.sampled_from(signed) | st.floats(allow_nan=False, allow_infinity=False)
    return SignedWeightedDigraph(weights=draw(arrays(float, (n, n), elements=elements)))


class TestTwoStepWalks:
    @pytest.mark.parametrize("node,count", [(2, 8), (3, 10), (7, 10), (0, 4)])
    def test_piezo_path_counts(self, piezo, node, count):
        assert len(two_step_walks(piezo[0], node)) == count

    def test_no_out_edges(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0]])
        graph = SignedWeightedDigraph(weights=w)
        assert two_step_walks(graph, 0) == []

    def test_walk_fields(self, piezo):
        graph = piezo[0]
        for walk in two_step_walks(graph, 2):
            assert walk.w1 == graph.weights[walk.start, walk.mid] != 0
            assert walk.w2 == graph.weights[walk.mid, walk.end] != 0
            assert walk.mid != walk.start
            assert walk.end not in (walk.mid, walk.start)
            assert walk.product == walk.w1 * walk.w2

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density=0.5))
        for start in range(n):
            got = [(w.start, w.mid, w.end, w.w1, w.w2) for w in two_step_walks(graph, start)]
            assert got == oracle_walks(graph.weights, start)


class TestNstc:
    @pytest.mark.parametrize("node,value", sorted(APPENDIX_NSTC.items()))
    def test_piezo_values(self, piezo, node, value):
        assert nstc(piezo[0], node).nstc == pytest.approx(value, abs=1e-3)

    def test_all_positive_unit_products_give_exactly_one(self, piezo):
        # every two-step product from these nodes is +1, so the mean is exactly 1
        for node in (0, 1, 4, 5):
            assert nstc(piezo[0], node).nstc == 1.0

    def test_isolated_node_flagged(self):
        graph = SignedWeightedDigraph(weights=np.zeros((1, 1)))
        row = nstc(graph, 0)
        assert row.no_walks and row.n_paths == 0 and row.nstc == 0.0

    def test_all_positive_complete_graph(self):
        w = np.ones((4, 4)) - np.eye(4)
        graph = SignedWeightedDigraph(weights=w)
        table = nstc_ranking(graph)
        assert all(s == 1.0 for s in table.scores)
        assert table.order == (0, 1, 2, 3)  # ties break by node index

    def test_piezo_ranking_starts_6_2(self, piezo):
        table = nstc_ranking(piezo[0])
        assert table.order[:2] == (6, 2)
        assert table.scores[6] == pytest.approx(-32.1065, abs=1e-3)
        assert table.scores[2] == pytest.approx(-25.9395, abs=1e-3)

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 7),
        c=st.floats(0.1, 10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_scaling_law(self, seed, n, c):
        rng = np.random.default_rng(seed)
        w = random_signed_digraph_weights(rng, n, density=0.6)
        base = nstc_table(SignedWeightedDigraph(weights=w))
        scaled = nstc_table(SignedWeightedDigraph(weights=c * w))
        for b, s in zip(base, scaled):
            assert s.nstc == pytest.approx(c**2 * b.nstc, rel=1e-9, abs=1e-12)
        assert nstc_ranking(SignedWeightedDigraph(weights=w)).order == nstc_ranking(
            SignedWeightedDigraph(weights=c * w)
        ).order


class TestVectorisedWalks:
    """`all_walks` and the tables read from it, against the triple-loop oracle."""

    @given(graph=signed_digraphs())
    @example(graph=SignedWeightedDigraph(weights=np.array([[1.5]])))
    @example(graph=SignedWeightedDigraph(weights=np.ones((4, 4))))
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_oracle_in_order(self, graph):
        walks = all_walks(graph)
        expected = oracle_walk_rows(graph.weights)
        got = list(zip(walks.start.tolist(), walks.mid.tolist(), walks.end.tolist()))
        assert got == [row[:3] for row in expected]
        assert len(walks) == len(expected)
        w = graph.weights
        product = w[walks.start, walks.mid] * w[walks.mid, walks.end]
        assert walks.product.tobytes() == product.tobytes()

    @given(graph=signed_digraphs())
    @example(graph=SignedWeightedDigraph(weights=np.array([[0.0]])))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_sequential_sum_oracle(self, graph):
        expected = [oracle_nstc(graph.weights, k) for k in range(graph.n)]
        assert nstc_table(graph) == expected
        for budget in (1, graph.n**3):  # a block a node, or one block
            assert [row for _, rows in walk_blocks(graph, budget, 1) for row in rows] == expected
        assert [nstc(graph, k) for k in range(graph.n)] == expected

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_block_memory_follows_the_budget_on_sparse_graphs(self, n):
        # about 20 out-edges per node: each walk prefix holds an n-byte mask row while
        # it is enumerated, which at n = 4096 outweighs the walks' 72-byte rows
        rng = np.random.default_rng(n)
        nodes = np.arange(n)[:, None]
        weights = np.zeros((n, n))
        weights[nodes, (nodes + rng.integers(1, n, (n, 20))) % n] = rng.uniform(-2, 2, (n, 20))
        blocks = walk_blocks(SignedWeightedDigraph(weights=weights), BLOCK_BYTES, 72)
        next(blocks)  # the first block also makes the edge table and the walk counts
        tracemalloc.start()
        try:
            block = next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block[0]) > 0
        assert peak < 2 * BLOCK_BYTES

    def test_products_added_left_to_right_in_walk_order(self):
        # node 0's walks have products 1e16, 1 and -1e16: added left to right the 1 is
        # rounded away and the mean is exactly 0, where a compensated sum gives 1/3
        w = np.zeros((5, 5))
        w[0, 1], w[1, 2], w[1, 3], w[1, 4] = 1.0, 1e16, 1.0, -1e16
        graph = SignedWeightedDigraph(weights=w)
        assert all_walks(graph).product.tolist() == [1e16, 1.0, -1e16]
        assert nstc(graph, 0).nstc == 0.0
        assert nstc_table(graph)[0].nstc == 0.0

    @given(graph=signed_digraphs() | extreme_digraphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_walk_tree_bytes_equal_generic_csv(self, graph, data):
        width = walk_row_bytes(graph.weights)
        block_bytes = data.draw(st.integers(1, 4 * width), label="block_bytes")  # up to four rows a block
        pieces, rows = [], []
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            try:
                pieces.extend(_walk_csv(graph, rows))
                failed = None
            except NumericalFailure as exc:  # a block whose products or means overflow
                failed = str(exc)
        # `rows` holds the nodes of the blocks written; a failure names the first node after them that overflows
        done = len(rows)
        expected = [oracle_nstc(graph.weights, k) for k in range(graph.n)]
        assert rows == expected[:done]
        bad = [k for k, row in enumerate(expected) if not np.isfinite(row.nstc)]
        assert (failed is None) == (done == graph.n) == (not bad)
        if failed:
            assert bad[0] >= done and f"from node {bad[0]} " in failed
        header, *pieces = pieces
        walk_rows = [row for row in oracle_walk_rows(graph.weights) if row[0] < done]
        assert header + "".join(pieces) == _csv(list(WALK_COLUMNS), walk_rows)
        # pieces split only between start nodes, and each holds one node's walks or fits in the bound
        starts = [[int(line.split(",")[0]) for line in piece.splitlines()] for piece in pieces]
        assert all(a[-1] < b[0] for a, b in zip(starts, starts[1:]))
        assert all(len(set(s)) == 1 or len(s) <= max(1, block_bytes // width) for s in starts)

    @pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 200])  # one block, or two rows a block
    def test_walk_tree_with_four_digit_nodes(self, block_bytes):
        # "1004,1199," takes two lanes, so rows are wider than below node 1000
        nodes = [*range(3), *range(995, 1005), *range(1195, 1200)]
        w = np.zeros((1200, 1200))
        w[np.ix_(nodes, nodes)] = random_signed_digraph_weights(np.random.default_rng(1000), len(nodes), density=0.6)
        # the oracle's loop over every triple of the 1,200 nodes, restricted to the ones with edges
        rows = [
            (k, i, j, w[k, i], w[i, j], float(w[k, i]) * float(w[i, j]))
            for k, i, j in product(nodes, repeat=3)
            if len({k, i, j}) == 3 and w[k, i] != 0 and w[i, j] != 0
        ]
        assert len(rows) > 1000 and walk_row_bytes(w) == 80
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            text = "".join(_walk_csv(SignedWeightedDigraph(weights=w), []))
        assert text == _csv(list(WALK_COLUMNS), rows)


OVERFLOWING = {
    # products of +-1e400 overflow to +-inf: node 0's mean is +inf, node 1's is nan
    "products": [[0, 1e200, 1e200], [-1e200, 0, 1e200], [1e200, 1e200, 0]],
    # every product is 1.69e308 (finite), but the sum of a node's two walks overflows
    "sum": [[0, 1.3e154, 1.3e154], [1.3e154, 0, 1.3e154], [1.3e154, 1.3e154, 0]],
}


class TestOverflow:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_table_fails_closed_naming_node(self, case):
        graph = SignedWeightedDigraph(weights=np.array(OVERFLOWING[case]))
        with pytest.raises(NumericalFailure, match="from node 0 "):
            nstc_table(graph)
        with pytest.raises(NumericalFailure, match="from node 1 "):
            nstc(graph, 1)

    def test_first_bad_node_named(self):
        w = np.array(OVERFLOWING["products"])
        w[0] = [0, 1.0, 1.0]  # node 0's products are finite
        with pytest.raises(NumericalFailure, match="from node 1 "):
            nstc_table(SignedWeightedDigraph(weights=w))

    def test_analyze_exits_1(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        weights = OVERFLOWING["products"]
        model.write_text(json.dumps({"n": 3, "adjacency": weights, "features": [[1.0]] * 3}))
        out = str(tmp_path / "out")
        assert main(["analyze", "--model", str(model), "--method", "nstc", "--out", out]) == 1
        assert "from node 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_failed_run_writes_no_csv(self, tmp_path):
        model = tmp_path / "model.json"
        weights = OVERFLOWING["products"]
        model.write_text(json.dumps({"n": 3, "adjacency": weights, "features": [[1.0]] * 3}))
        out = tmp_path / "out"
        config = AnalysisConfig(model_path=str(model), methods=("spectral", "nstc"), output_dir=str(out))
        # spectral marks its cells failed and succeeds; nstc then fails
        with pytest.raises(NumericalFailure, match="from node 0"):
            run(config)
        assert list(out.iterdir()) == []
