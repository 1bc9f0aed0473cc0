"""Directed simple-cycle enumeration and the imbalanced-motif cost per node.

A motif here is a directed simple cycle of 3 to 6 distinct nodes (self-loops
are never cycle edges). A cycle is imbalanced when the product of its edge
weights is negative, i.e. it carries an odd number of negative edges. For a
node and cycle length k, the score sums the weight products of the imbalanced
k-cycles through the node, normalized by the squared total degree; the total
cost combines the four lengths as the cube root of the absolute product.

Enumeration is exact. Graphs beyond the guard size are rejected rather than
sampled, since the scores are only meaningful under exhaustive counting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NumericalFailure, TooLarge
from .graph import SignedWeightedDigraph, _check_node, total_degree

MIN_CYCLE_LEN = 3
MAX_CYCLE_LEN = 6
DEFAULT_NODE_GUARD = 16


@dataclass(frozen=True)
class DirectedCycle:
    """Simple cycle in canonical rotation: nodes[0] is the smallest index."""

    nodes: tuple[int, ...]
    weight_product: float

    @property
    def imbalanced(self) -> bool:
        return self.weight_product < 0


@dataclass(frozen=True)
class MotifScoreRow:
    node: int
    w3: float
    w4: float
    w5: float
    w6: float
    total_cost: float


def check_size(graph: SignedWeightedDigraph, max_nodes: int = DEFAULT_NODE_GUARD) -> None:
    """Raise `TooLarge` when `graph` is past the exact-enumeration guard."""
    if graph.n > max_nodes:
        raise TooLarge(
            f"the motifs method enumerates cycles exactly and handles at most {max_nodes} "
            f"nodes, got n={graph.n}"
        )


def enumerate_simple_cycles(
    graph: SignedWeightedDigraph, length: int, max_nodes: int = DEFAULT_NODE_GUARD
) -> list[DirectedCycle]:
    """All directed simple cycles with exactly `length` distinct nodes.

    Each cycle is reported once, rotated so its smallest node index comes
    first. Depth-first search from each start node only visits larger-indexed
    nodes, which yields the canonical rotation directly.
    """
    if not (MIN_CYCLE_LEN <= length <= MAX_CYCLE_LEN):
        raise BadParameter(
            f"cycle length must be in [{MIN_CYCLE_LEN}, {MAX_CYCLE_LEN}], got {length}"
        )
    check_size(graph, max_nodes)
    w = graph.weights
    n = graph.n
    cycles: list[DirectedCycle] = []
    path = [0] * length
    in_path = [False] * n

    def extend(start: int, node: int, depth: int, product: float) -> None:
        if depth == length:
            back = w[node, start]
            if back != 0:
                cycles.append(DirectedCycle(tuple(path), float(product * back)))
            return
        for nxt in range(start + 1, n):
            if in_path[nxt] or w[node, nxt] == 0:
                continue
            path[depth] = nxt
            in_path[nxt] = True
            extend(start, nxt, depth + 1, product * w[node, nxt])
            in_path[nxt] = False

    with np.errstate(over="ignore"):  # an infinite product fails in `motif_table`, not here
        for start in range(n):
            path[0] = start
            in_path[start] = True
            extend(start, start, 1, 1.0)
            in_path[start] = False
    return cycles


def _imbalanced_scores(graph: SignedWeightedDigraph, length: int) -> list[float]:
    """Every node's imbalanced `length`-cycle score from one enumeration.

    Each imbalanced cycle's product is added to the total of each node on it,
    in enumeration order, so a node's total is the same sum, in the same
    order, as a scan of all cycles for that node.
    """
    totals = [0.0] * graph.n
    for cycle in enumerate_simple_cycles(graph, length):
        if cycle.imbalanced:
            for node in cycle.nodes:
                totals[node] += cycle.weight_product
    return [
        total / total_degree(graph, node) ** 2 if total else 0.0
        for node, total in enumerate(totals)
    ]


def imbalanced_motif_score(graph: SignedWeightedDigraph, node: int, length: int) -> float:
    """Sum of weight products of imbalanced `length`-cycles through `node`, over degree^2.

    A node on no imbalanced cycle scores 0.
    """
    _check_node(graph, node)
    return _imbalanced_scores(graph, length)[node]


def total_cost(graph: SignedWeightedDigraph, node: int) -> MotifScoreRow:
    """Per-length imbalance scores and their combined cost for one node.

    total_cost = |w3 * w4 * w5 * w6| ** (1/3); any zero factor forces 0.
    """
    _check_node(graph, node)
    return motif_table(graph)[node]


def motif_table(graph: SignedWeightedDigraph) -> list[MotifScoreRow]:
    """Scores for every node, enumerating each cycle length once.

    Raises `NumericalFailure` naming the first node with a non-finite score or
    total cost, which cycle weight products past float64 give.
    """
    w3, w4, w5, w6 = (
        _imbalanced_scores(graph, k) for k in range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1)
    )
    rows = [
        MotifScoreRow(
            node=node,
            w3=w3[node],
            w4=w4[node],
            w5=w5[node],
            w6=w6[node],
            total_cost=abs(w3[node] * w4[node] * w5[node] * w6[node]) ** (1.0 / 3.0),
        )
        for node in range(graph.n)
    ]
    for row in rows:
        if not all(map(math.isfinite, (row.w3, row.w4, row.w5, row.w6, row.total_cost))):
            raise NumericalFailure(
                f"motif cost of node {row.node} is not finite ({row}): "
                "cycle weight products overflow float64"
            )
    return rows
