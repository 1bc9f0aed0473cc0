import contextlib
import json
import math
import warnings
from dataclasses import astuple
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netinstab import (
    AnalysisConfig,
    BadParameter,
    MotifScoreRow,
    NumericalFailure,
    SignedWeightedDigraph,
    TooLarge,
    enumerate_simple_cycles,
    imbalanced_motif_score,
    motif_table,
    ranked_table,
    run,
    total_cost,
    total_degree,
)
from netinstab import motifs
from netinstab.cli import main
from netinstab.graph import BLOCK_BYTES
from conftest import random_signed_digraph_weights
from test_spectral import pattern_weights

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


def scan_oracle(graph):
    """Motif rows by scanning every depth-first-search cycle for every node, and per
    length the number of imbalanced cycles through each node.

    Each node's products are added left to right in a plain loop, not by builtin
    `sum`, which from Python 3.12 adds floats with compensation.
    """
    ws, counts = {}, []
    for k in (3, 4, 5, 6):
        cycles = dfs_cycles(graph.weights, k)
        ws[k] = []
        counts.append([])
        for node in range(graph.n):
            total, count = 0.0, 0
            for nodes, p in cycles:
                if p < 0 and node in nodes:
                    total += p
                    count += 1
            ws[k].append(0.0 if total == 0 else total / total_degree(graph, node) ** 2)
            counts[-1].append(count)
    rows = []
    for node in range(graph.n):
        w3, w4, w5, w6 = (ws[k][node] for k in (3, 4, 5, 6))
        rows.append(MotifScoreRow(node, w3, w4, w5, w6, abs(w3 * w4 * w5 * w6) ** (1.0 / 3.0)))
    return rows, counts


def scan_oracle_table(graph):
    return scan_oracle(graph)[0]


UNIT = 2.0**-53


def gamma(k):
    return k * UNIT / (1 - k * UNIT)


def motif_ranks(rows):
    table = ranked_table("motifs", [row.total_cost for row in rows])
    return [table.rank_of(node) for node in range(table.n)]


def oracle_radii(rows, counts):
    """Radii about the exact values of `scan_oracle`'s scores (one row per length) and
    total costs. A score adds N products of the same sign, each of k - 1 roundings, and
    divides once, so it is within gamma(N + k) of the exact score, relative (Higham,
    §3.1); the module's propagation of relative radii to a total cost, 5 (sigma + 10 u)
    times the cost, then bounds the cost."""
    relative = np.array([[2 * gamma(count + k) for count in row] for k, row in zip((3, 4, 5, 6), counts)])
    scores = np.array([astuple(row)[1:5] for row in rows]).T
    costs = np.array([row.total_cost for row in rows])
    return relative * np.abs(scores), 5 * (relative.sum(axis=0) + 10 * UNIT) * costs


def exact_cost_radii(graph):
    """Each total cost of `motif_table(graph)` is within this radius of the exact one."""
    certified = motifs._closed_walk_table(graph)
    return certified[2] if certified else oracle_radii(*scan_oracle(graph))[1]


def certified_rows(graph):
    """`motif_table(graph)`, checked against `scan_oracle`: bit for bit where it falls back
    to enumeration (or None, where both overflow and the table raises); else with the
    same zeros and ranks, and each score and total cost within its certified radius plus
    the oracle's own (`oracle_radii`).
    """
    rows, counts = scan_oracle(graph)
    certified = motifs._closed_walk_table(graph)
    if certified is None:
        if not all(math.isfinite(x) for row in rows for x in astuple(row)):
            with pytest.raises(NumericalFailure, match="of node "):
                motif_table(graph)
            return None
        assert (table := motif_table(graph)) == rows
        return table
    table = motif_table(graph)
    assert table == certified[0]
    _, radii, cost_radii = certified
    slack, cost_slack = oracle_radii(rows, counts)
    for got, want in zip(table, rows):
        node = got.node
        for i, (a, b) in enumerate(zip(astuple(got)[1:5], astuple(want)[1:5])):
            assert (a == 0) == (b == 0), (node, i, a, b)
            assert abs(a - b) <= radii[i][node] + slack[i][node], (node, i, a, b, radii[i][node])
        assert (got.total_cost == 0) == (want.total_cost == 0)
        assert abs(got.total_cost - want.total_cost) <= cost_radii[node] + cost_slack[node], (node, got, want)
    assert motif_ranks(table) == motif_ranks(rows)
    return table


@contextlib.contextmanager
def falling_back():
    """`motif_table` as if inclusion–exclusion could never order the costs."""
    with mock.patch("netinstab.motifs._closed_walk_table", return_value=None):
        yield


@contextlib.contextmanager
def counting_enumerations():
    """The calls of `motifs._cycle_layers`, which only enumeration makes."""
    with mock.patch("netinstab.motifs._cycle_layers", wraps=motifs._cycle_layers) as layers:
        yield layers


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
    def test_terms_count_partitions_and_merge_patterns(self):
        # 1, 4, 11 and 41 partitions keep no two cyclically adjacent positions in one block;
        # each adds its Möbius weight to its pattern's coefficient, and 1, 4, 8 and 28
        # patterns remain. The partition into single positions, which counts every closed
        # k-walk (pattern ((k, 0, 0),), the diagonal of the k-th power), has coefficient 1
        partitions = [
            sum(all(b[p] != b[p - 1] for p in range(k)) for b in motifs._partitions(k)) for k in (3, 4, 5, 6)
        ]
        assert partitions == [1, 4, 11, 41]
        assert [len(terms) for terms in motifs._terms()] == [1, 4, 8, 28]
        assert [dict((p, c) for c, p in terms)[((k, 0, 0),)] for k, terms in zip((3, 4, 5, 6), motifs._terms())] == [1] * 4

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
        n=st.integers(1, 17),
        density=st.floats(0.0, 1.0),
        exponent=st.integers(-150, 150),
        block_bytes=st.sampled_from([BLOCK_BYTES, 1]),  # 1: one start node per block
    )
    @settings(max_examples=100, deadline=None)
    def test_table_equals_per_node_scan(self, seed, n, density, exponent, block_bytes):
        # weights times 10**exponent: past about 1e50 or below 1e-50 some cycle products
        # overflow or underflow, and the table falls back to enumeration
        rng = np.random.default_rng(seed)
        weights = random_signed_digraph_weights(rng, n, density) * 10.0**exponent
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            certified_rows(SignedWeightedDigraph(weights=weights))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        density=st.floats(0.0, 1.0),
        block_bytes=st.sampled_from([BLOCK_BYTES, 1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_enumeration_equals_per_node_scan(self, seed, n, density, block_bytes):
        # the fallback, which random graphs seldom take, bit for bit
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density))
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes), falling_back():
            assert motif_table(graph) == scan_oracle_table(graph)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        density=st.floats(0.2, 1.0),
        exponent=st.integers(-8, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_radii_hold_in_rational_arithmetic(self, seed, n, density, exponent):
        # the exact scores, from each cycle's product in rationals, are within the radii;
        # the exact total cost is bracketed by cubes, as the cube root differs from
        # ** fl(1/3) by under 2e-17 |log x| relative, far inside 50u
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density) * 2.0**exponent)
        certified = motifs._closed_walk_table(graph)
        assume(certified is not None)
        rows, radii, cost_radii = certified
        w = [[Fraction(x) for x in row] for row in graph.weights.tolist()]
        exact = np.zeros((4, n), object)
        for i, k in enumerate((3, 4, 5, 6)):
            for nodes, _ in dfs_cycles(graph.weights, k):
                product = math.prod(w[nodes[t]][nodes[(t + 1) % k]] for t in range(k))
                if product < 0:
                    for node in nodes:
                        exact[i, node] += product
        for row in rows:
            scores = (row.w3, row.w4, row.w5, row.w6)
            d2 = max(total_degree(graph, row.node), 1) ** 2  # 1 for a node on no cycle
            for i, score in enumerate(scores):
                assert abs(Fraction(score) - exact[i, row.node] / d2) <= Fraction(radii[i][row.node])
            cube = abs(math.prod(exact[:, row.node])) / d2**4
            radius = Fraction(cost_radii[row.node])
            assert max(Fraction(row.total_cost) - radius, 0) ** 3 <= cube <= (Fraction(row.total_cost) + radius) ** 3

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
    # 5 nodes have no 6-cycle: node 0's w6 is 0, and 0 times its overflowing w3 w4 w5 is nan
    "zero_times_overflow": np.where(np.eye(5) == 0, 1e26, 0.0) * np.where(np.arange(25).reshape(5, 5) == 1, -1, 1),
}


class TestOverflow:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_falls_back_to_enumeration(self, case):
        graph = SignedWeightedDigraph(weights=OVERFLOWING[case])
        assert motifs._closed_walk_table(graph) is None
        assert certified_rows(graph) is None

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_table_fails_closed_naming_node(self, case):
        graph = SignedWeightedDigraph(weights=OVERFLOWING[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failure is the error, not a RuntimeWarning
            with pytest.raises(NumericalFailure, match="of node 0 "):
                motif_table(graph)

    def test_walk_products_that_could_underflow_fall_back(self):
        # 2**200 on an edge into a sink sets the scale to 2**-201, and the triangle's weights
        # near 2**-150 scale to near 2**-351: their product, below float64's normal range,
        # would keep some 21 bits and leave its certified radius (1e-7 relative, against a
        # radius of 2e-16). So the table falls back, where the score is exact to rounding
        w = np.zeros((4, 4))
        w[0, 1], w[1, 2], w[2, 0] = -1.3 * 2.0**-150, 1.7 * 2.0**-150, 1.1 * 2.0**-150
        w[0, 3] = 2.0**200
        graph = SignedWeightedDigraph(weights=w)
        assert motifs._closed_walk_table(graph) is None
        assert certified_rows(graph) == scan_oracle_table(graph)

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


def swapped_twins(rng, n=7):
    """A graph whose nodes 0 and 1 swap by an automorphism, with weights that are
    multiples of 1/4 below 3, so that every cycle product and sum is exact."""
    w = np.where(rng.random((n, n)) < 0.6, rng.integers(-12, 13, (n, n)) / 4, 0.0)
    swap = np.arange(n)
    swap[:2] = [1, 0]
    w[1, 2:], w[2:, 1], w[1, 0], w[1, 1] = w[0, 2:], w[2:, 0], w[0, 1], w[0, 0]
    assert np.array_equal(w[np.ix_(swap, swap)], w)
    return w


class TestPaths:
    """Which of the two methods scores a graph, counted by the calls of `_cycle_layers`."""

    def test_cycles_n16_draws_take_inclusion_exclusion(self):
        for seed in range(32):
            graph = SignedWeightedDigraph(weights=pattern_weights(16, seed, density=0.5))
            with counting_enumerations() as layers:
                rows = certified_rows(graph)
            assert layers.call_count == 0, seed
            with falling_back():
                enumerated = motif_table(graph)
            # the artifact's "%.6g" text and the ranks are the enumeration's
            text = [["%.6g" % x for x in astuple(row)] for row in rows]
            assert text == [["%.6g" % x for x in astuple(row)] for row in enumerated], seed
            assert motif_ranks(rows) == motif_ranks(enumerated), seed

    @pytest.mark.parametrize("n", [128, 256])
    def test_ladder_graphs_take_inclusion_exclusion(self, tmp_path, n):
        # refused with TooLarge by enumeration's work bound
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": n, "adjacency": pattern_weights(n, 0).tolist(), "features": [[1.0]] * n}))
        with counting_enumerations() as layers:
            summary = run(AnalysisConfig(model_path=str(model), methods=("motifs",), output_dir=str(tmp_path / "out")))
        assert layers.call_count == 0
        rows = summary["methods"]["motifs"]["rows"]
        assert len(rows) == n and all(row["total_cost"] > 0 for row in rows)
        with pytest.raises(TooLarge):
            motifs._blocks(SignedWeightedDigraph(weights=pattern_weights(n, 0)))

    def test_piezo_ties_fall_back_with_the_enumerated_bits(self, piezo):
        # nodes 2 and 6 have equal imbalanced sums at every length, so their costs tie
        with counting_enumerations() as layers:
            rows = motif_table(piezo[0])
        assert layers.call_count > 0
        assert motifs._closed_walk_table(piezo[0]) is None
        assert rows == scan_oracle_table(piezo[0])
        assert rows[2].total_cost == rows[6].total_cost == 0.7195902670072738
        assert motif_ranks(rows) == [4, 5, 1, 6, 7, 8, 2, 3]  # node 2 first, by its index

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_swapped_twins_tie_exactly_by_the_fallback(self, seed):
        graph = SignedWeightedDigraph(weights=swapped_twins(np.random.default_rng(seed)))
        rows = scan_oracle_table(graph)
        assume(rows[0].total_cost > 0)
        with counting_enumerations() as layers:
            assert motif_table(graph) == rows
        assert layers.call_count > 0
        assert astuple(rows[0])[1:] == astuple(rows[1])[1:]

    def test_count_bound(self):
        # a star whose centre has in-degree D: its counts are bounded by 2 * 52 * D**5, which
        # 2**53 admits up to D = 613. Past it, inclusion–exclusion gives way to enumeration
        # before it scales the weights (`math.frexp`), so the acyclic star costs no n**3 work
        def star(degree, first=1.0):
            w = np.zeros((degree + 1, degree + 1))
            w[1:, 0] = 1.0
            w[1, 0] = first
            return SignedWeightedDigraph(weights=w)

        # one weight of 1e-300 makes the method give way after the bound, at the underflow check
        for graph, passed in ((star(613, 1e-300), True), (star(614), False)):
            with mock.patch("netinstab.motifs.math.frexp", wraps=math.frexp) as scaled:
                assert motifs._closed_walk_table(graph) is None
            assert scaled.called == passed
        with counting_enumerations() as layers:
            rows = motif_table(star(614))
        assert layers.call_count > 0 and all(row == MotifScoreRow(row.node, 0, 0, 0, 0, 0) for row in rows)
        # a complete digraph past the count bound is refused by enumeration's work bound
        with pytest.raises(TooLarge, match="MiB"):
            motif_table(SignedWeightedDigraph(weights=1.0 - np.eye(700)))
