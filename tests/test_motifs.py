import json
import warnings
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinstab import (
    BadParameter,
    MotifScoreRow,
    NumericalFailure,
    SignedWeightedDigraph,
    TooLarge,
    enumerate_simple_cycles,
    imbalanced_motif_score,
    motif_table,
    total_cost,
    total_degree,
)
from netinstab import motifs
from netinstab.cli import main
from netinstab.graph import BLOCK_BYTES
from conftest import random_signed_digraph_weights

# reference per-node scores: (w3, w4, w5, w6, total_cost), all to 2 decimals
REFERENCE_MOTIF_TABLE = {
    0: (0.00, -1.22, 0.00, 0.00, 0.00),
    1: (0.00, -20.71, -2.68, -0.38, 0.00),
    2: (-0.10, -7.41, -1.86, -0.26, 0.71),
    3: (0.00, -5.12, -0.67, -0.09, 0.00),
    4: (0.00, -2.32, 0.00, 0.00, 0.00),
    5: (-0.29, -0.63, 0.00, -0.38, 0.00),
    6: (-0.10, -7.41, -1.86, -0.26, 0.71),
    7: (-0.07, -5.22, -0.67, -0.09, 0.29),
}


def oracle_cycles(weights, k):
    """Brute force: check every k-permutation, keep min-first rotations."""
    n = weights.shape[0]
    found = {}
    for perm in permutations(range(n), k):
        if perm[0] != min(perm):
            continue
        product = 1.0
        ok = True
        for t in range(k):
            u, v = perm[t], perm[(t + 1) % k]
            if u == v or weights[u, v] == 0:
                ok = False
                break
            product *= weights[u, v]
        if ok:
            found[perm] = product
    return found


def dfs_cycles(weights, k):
    """Depth-first search: (nodes, product) of each k-cycle, in lexicographic order.

    From each start node the search visits only larger-indexed nodes, which
    yields the canonical (min-first) rotation directly; the product is
    multiplied edge by edge in path order.
    """
    n = weights.shape[0]
    cycles = []
    path = [0] * k
    in_path = [False] * n

    def extend(start, node, depth, product):
        if depth == k:
            back = weights[node, start]
            if back != 0:
                cycles.append((tuple(path), float(product * back)))
            return
        for nxt in range(start + 1, n):
            if in_path[nxt] or weights[node, nxt] == 0:
                continue
            path[depth] = nxt
            in_path[nxt] = True
            extend(start, nxt, depth + 1, product * weights[node, nxt])
            in_path[nxt] = False

    with np.errstate(over="ignore"):
        for start in range(n):
            path[0] = start
            in_path[start] = True
            extend(start, start, 1, 1.0)
            in_path[start] = False
    return cycles


def scan_oracle_table(graph):
    """Motif rows by scanning every depth-first-search cycle for every node.

    Each node's products are added left to right in a plain loop, not by builtin
    `sum`, which from Python 3.12 adds floats with compensation.
    """
    ws = {}
    for k in (3, 4, 5, 6):
        cycles = dfs_cycles(graph.weights, k)
        ws[k] = []
        for node in range(graph.n):
            total = 0.0
            for nodes, p in cycles:
                if p < 0 and node in nodes:
                    total += p
            ws[k].append(0.0 if total == 0 else total / total_degree(graph, node) ** 2)
    rows = []
    for node in range(graph.n):
        w3, w4, w5, w6 = (ws[k][node] for k in (3, 4, 5, 6))
        rows.append(MotifScoreRow(node, w3, w4, w5, w6, abs(w3 * w4 * w5 * w6) ** (1.0 / 3.0)))
    return rows


class TestEnumeration:
    def test_three_ring(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1.0
        cycles = enumerate_simple_cycles(SignedWeightedDigraph(weights=w), 3)
        assert len(cycles) == 1
        (cycle,) = cycles
        assert cycle.nodes == (0, 1, 2)
        assert cycle.weight_product == 1.0
        assert not cycle.imbalanced

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_dag_has_no_cycles(self, k):
        w = np.triu(np.ones((6, 6)), k=1)  # strictly upper triangular
        assert enumerate_simple_cycles(SignedWeightedDigraph(weights=w), k) == []

    def test_piezo_triangles_through_node2(self, piezo):
        cycles = enumerate_simple_cycles(piezo[0], 3)
        through_2 = {c.nodes for c in cycles if 2 in c.nodes}
        # canonical (min-first) rotations of 2->3->1, 2->7->5, 2->7->3, 2->3->7
        assert through_2 == {(1, 2, 3), (2, 7, 5), (2, 7, 3), (2, 3, 7)}

    def test_self_loops_never_used(self, piezo):
        for k in (3, 4, 5, 6):
            for cycle in enumerate_simple_cycles(piezo[0], k):
                assert len(set(cycle.nodes)) == k

    def test_length_guardrails(self, piezo):
        for k in (1, 2, 7):
            with pytest.raises(BadParameter):
                enumerate_simple_cycles(piezo[0], k)

    def test_size_guard(self):
        # past the old n <= 16 guard: a 17-node path has no cycles and is not refused
        path = SignedWeightedDigraph(weights=np.eye(17, k=1))
        assert enumerate_simple_cycles(path, 3) == []
        # the complete 48-node digraph: its 5-edge walk bound passes the memory cap
        dense = SignedWeightedDigraph(weights=np.ones((48, 48)))
        with pytest.raises(TooLarge, match=r"work bound for n=48 is [\d,]+ MiB .* cap of 256 MiB"):
            enumerate_simple_cycles(dense, 3)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        density=st.floats(0.0, 1.0),
        k=st.integers(3, 6),
        block_bytes=st.sampled_from([BLOCK_BYTES, 1]),  # 1: one start node per block
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_depth_first_search(self, seed, n, density, k, block_bytes):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density))
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            got = [(c.nodes, c.weight_product) for c in enumerate_simple_cycles(graph, k)]
        assert got == dfs_cycles(graph.weights, k)

    def test_blocks_of_start_nodes(self, piezo):
        assert motifs._blocks(piezo[0]) == [range(8)]
        with mock.patch("netinstab.graph.BLOCK_BYTES", 1):
            assert motifs._blocks(piezo[0]) == [range(s, s + 1) for s in range(8)]

    @given(seed=st.integers(0, 100_000), n=st.integers(3, 7), k=st.integers(3, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_permutation_oracle(self, seed, n, k):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density=0.5))
        got = {c.nodes: c.weight_product for c in enumerate_simple_cycles(graph, k)}
        assert got == oracle_cycles(graph.weights, k)

    @given(seed=st.integers(0, 100_000), n=st.integers(3, 7), k=st.integers(3, 6))
    @settings(max_examples=50, deadline=None)
    def test_sign_rule(self, seed, n, k):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density=0.6))
        for cycle in enumerate_simple_cycles(graph, k):
            edges = [
                graph.weights[cycle.nodes[t], cycle.nodes[(t + 1) % k]] for t in range(k)
            ]
            negatives = sum(1 for e in edges if e < 0)
            assert cycle.imbalanced == (negatives % 2 == 1) == (cycle.weight_product < 0)


class TestScores:
    def test_node2_triangle_score(self, piezo):
        # one imbalanced triangle of weight -3.6549 through node 2, degree 6
        score = imbalanced_motif_score(piezo[0], 2, 3)
        assert score == pytest.approx(-3.6549 / 36, rel=1e-12)
        assert score == pytest.approx(-0.10, abs=5e-3)

    def test_node0_square_score(self, piezo):
        assert imbalanced_motif_score(piezo[0], 0, 4) == pytest.approx(4 * -2.748 / 9, rel=1e-12)

    def test_node1_square_score(self, piezo):
        assert imbalanced_motif_score(piezo[0], 1, 4) == pytest.approx(-20.71, abs=1e-2)

    def test_total_cost_examples(self, piezo):
        assert total_cost(piezo[0], 2).total_cost == pytest.approx(0.71, abs=1e-2)
        assert total_cost(piezo[0], 7).total_cost == pytest.approx(0.29, abs=1e-2)
        row0 = total_cost(piezo[0], 0)
        assert row0.w3 == 0.0 and row0.total_cost == 0.0

    def test_reference_table_reproduced(self, piezo):
        for row in motif_table(piezo[0]):
            expected = REFERENCE_MOTIF_TABLE[row.node]
            got = (row.w3, row.w4, row.w5, row.w6, row.total_cost)
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, abs=1e-2), (row.node, got, expected)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        density=st.floats(0.0, 1.0),
        block_bytes=st.sampled_from([BLOCK_BYTES, 1]),  # 1: one start node per block
    )
    @settings(max_examples=100, deadline=None)
    def test_table_equals_per_node_scan(self, seed, n, density, block_bytes):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density))
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            assert motif_table(graph) == scan_oracle_table(graph)

    def test_zero_when_no_imbalanced_cycles(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1.0  # balanced ring only
        graph = SignedWeightedDigraph(weights=w)
        assert imbalanced_motif_score(graph, 0, 3) == 0.0

    @given(seed=st.integers(0, 100_000), c=st.floats(0.2, 5, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_laws(self, seed, c):
        rng = np.random.default_rng(seed)
        w = random_signed_digraph_weights(rng, 6, density=0.6)
        base = motif_table(SignedWeightedDigraph(weights=w))
        scaled = motif_table(SignedWeightedDigraph(weights=c * w))
        for b, s in zip(base, scaled):
            for k, (bw, sw) in enumerate(
                [(b.w3, s.w3), (b.w4, s.w4), (b.w5, s.w5), (b.w6, s.w6)], start=3
            ):
                assert sw == pytest.approx(c**k * bw, rel=1e-9, abs=1e-12)
            assert s.total_cost == pytest.approx(c**6 * b.total_cost, rel=1e-8, abs=1e-12)
        base_order = sorted(range(6), key=lambda v: (-base[v].total_cost, v))
        scaled_order = sorted(range(6), key=lambda v: (-scaled[v].total_cost, v))
        assert base_order == scaled_order


def complete_with_one_negative_edge(n=6, weight=1e25):
    w = np.full((n, n), weight)
    w[0, 1] = -weight
    return w


def two_triangles_through_node_0(weight=5.3e102):
    """Imbalanced 3-cycles 0->1->2->0 and 0->1->3->0, each of product about -1.5e308."""
    w = np.zeros((4, 4))
    w[0, 1] = -weight
    w[1, 2] = w[2, 0] = w[1, 3] = w[3, 0] = weight
    return w


OVERFLOWING = {
    # cycle products of +-1e600 overflow: every node's w3 is -inf and its total cost nan
    "scores": np.array([[0, 1e200, 1e200], [-1e200, 0, 1e200], [1e200, 1e200, 0]]),
    # every cycle product is finite, but node 0's two add up past float64
    "sums": two_triangles_through_node_0(),
    # every w3..w6 is finite, but their product overflows: node 0's total cost is inf
    "total_cost": complete_with_one_negative_edge(),
}


class TestOverflow:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_table_fails_closed_naming_node(self, case):
        graph = SignedWeightedDigraph(weights=OVERFLOWING[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failure is the error, not a RuntimeWarning
            with pytest.raises(NumericalFailure, match="of node 0 "):
                motif_table(graph)

    def test_single_score_fails_closed_naming_node(self):
        graph = SignedWeightedDigraph(weights=OVERFLOWING["scores"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="3-cycle score of node 0 "):
                imbalanced_motif_score(graph, 0, 3)

    def test_analyze_exits_1_and_writes_no_csv(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        weights = OVERFLOWING["scores"].tolist()
        model.write_text(json.dumps({"n": 3, "adjacency": weights, "features": [[1.0]] * 3}))
        out = tmp_path / "out"
        assert main(["analyze", "--model", str(model), "--method", "motifs", "--out", str(out)]) == 1
        assert "of node 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []
