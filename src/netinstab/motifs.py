"""Directed simple-cycle enumeration and the imbalanced-motif cost per node.

A motif here is a directed simple cycle of 3 to 6 distinct nodes along the
graph's `edges` (never a self-loop). A cycle is imbalanced when the product of
its edge weights is negative, i.e. it carries an odd number of negative edges.
For a node and cycle length k, the score sums the weight products of the
imbalanced k-cycles through the node, normalized by the squared total degree;
the total cost combines the four lengths as the cube root of the absolute product.

Enumeration is exact. `_cycle_layers` grows every simple path from a block of
start nodes one edge at a time, as numpy columns, stepping only to nodes above
the start that are not yet on the path, so each cycle is found once, in the
order of a depth-first search, with its edge weights multiplied in path order.
Its memory follows the largest layer of paths. `check_size` bounds each start
node's layers by counting walks through the nodes above it, and refuses a
graph whose bound for one start node passes `MEMORY_CAP` bytes before any
enumeration; by the same bounds, `graph.plan_blocks` splits the start nodes
into blocks of `graph.BLOCK_BYTES` or one node. A refused graph is not
sampled, since the scores are only meaningful under exhaustive counting.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import graph as _graph
from .errors import NumericalFailure, TooLarge, whole_number
from .graph import SignedWeightedDigraph, _check_node, total_degree

MIN_CYCLE_LEN = 3
MAX_CYCLE_LEN = 6
MEMORY_CAP = 2**28  # bytes the largest layer of one start node may take
_PATH_BYTES = 128  # measured per path row besides its mask: columns, indices, temporaries


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


def _layer_bytes(graph: SignedWeightedDigraph) -> np.ndarray:
    """Per start node, an upper bound on the bytes of its largest layer of paths.

    `walks[s, u]` counts the walks from s to u that visit only nodes above s,
    which bounds the simple paths `_cycle_layers` keeps; its last layer keeps
    only the paths that close. A path row also holds a mask row of n bytes.
    """
    b = graph.edges.astype(float)
    walks = np.triu(b, 1)
    rows = [walks.sum(axis=1)]
    for _ in range(MAX_CYCLE_LEN - 3):
        walks = np.triu(walks @ b, 1)
        rows.append(walks.sum(axis=1))
    rows.append((np.triu(walks @ b, 1) * b.T).sum(axis=1))
    return np.max(rows, axis=0) * (graph.n + _PATH_BYTES)


def _blocks(graph: SignedWeightedDigraph) -> list[range]:
    """Consecutive start nodes grouped into blocks of `graph.BLOCK_BYTES` of paths.

    Raises `TooLarge` when one start node's bound passes `MEMORY_CAP`.
    """
    need = _layer_bytes(graph)
    worst = int(np.argmax(need))
    if need[worst] > MEMORY_CAP:
        raise TooLarge(
            f"the motifs method enumerates cycles exactly; its work bound for n={graph.n} is "
            f"{need[worst] / 2**20:,.0f} MiB of paths from start node {worst}, over the cap of "
            f"{MEMORY_CAP / 2**20:,.0f} MiB"
        )
    return _graph.plan_blocks(need.tolist(), _graph.BLOCK_BYTES)


def check_size(graph: SignedWeightedDigraph) -> None:
    """Raise `TooLarge` when exact enumeration would pass the memory cap."""
    _blocks(graph)


def _cycle_layers(
    graph: SignedWeightedDigraph, starts: range
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cycles whose smallest node is in `starts`, one length at a time from 3 to 6.

    Yields (nodes, products): row i of `nodes` is a cycle in canonical
    rotation and `products[i]` its weight product. Row-major `np.nonzero`
    keeps the paths in lexicographic order, and each product is multiplied
    edge by edge in path order, so rows and products equal a depth-first
    search's.
    """
    w, edge = graph.weights, graph.edges
    node = np.arange(graph.n)
    first = node[starts.start : starts.stop]
    row, nxt = np.nonzero(edge[first] & (node > first[:, None]))
    path = [first[row], nxt]
    product = w[path[0], nxt]
    for length in range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1):
        start, last = path[0], path[-1]
        step = edge[last] & (node > start[:, None])
        for col in path[1:]:
            step[np.arange(len(last)), col] = False
        if length == MAX_CYCLE_LEN:  # no longer path is needed: keep the ones that close
            step &= edge.T[start]
        row, nxt = np.nonzero(step)
        path = [col[row] for col in path] + [nxt]
        closes = edge[nxt, path[0]]
        nodes = np.column_stack([col[closes] for col in path])
        with np.errstate(over="ignore"):  # an infinite product fails in `_imbalanced_scores`
            product = product[row] * w[last[row], nxt]
            closed = product[closes] * w[nxt[closes], nodes[:, 0]]
        yield nodes, closed


def enumerate_simple_cycles(graph: SignedWeightedDigraph, length: int) -> list[DirectedCycle]:
    """All directed simple cycles with exactly `length` distinct nodes.

    Each cycle is reported once, rotated so its smallest node index comes
    first, in lexicographic order of its nodes. Raises `TooLarge` past the
    work bound (see `check_size`).
    """
    whole_number(length, "cycle length", MIN_CYCLE_LEN, MAX_CYCLE_LEN)
    cycles: list[DirectedCycle] = []
    for block in _blocks(graph):
        layers = _cycle_layers(graph, block)
        nodes, products = next(islice(layers, length - MIN_CYCLE_LEN, None))
        cycles += map(DirectedCycle, map(tuple, nodes.tolist()), products.tolist())
    return cycles


def _imbalanced_scores(graph: SignedWeightedDigraph, max_length: int) -> list[list[float]]:
    """Every node's imbalanced k-cycle score, one list per k from 3 to `max_length`.

    Each imbalanced cycle's product is added to the total of each node on it,
    in enumeration order, so a node's total is the same sum, in the same
    order, as a scan of all cycles for that node. Raises `NumericalFailure`
    naming the first node with a non-finite score, which cycle weight products
    past float64 give.
    """
    lengths = range(MIN_CYCLE_LEN, max_length + 1)
    totals = [np.zeros(graph.n) for _ in lengths]
    for block in _blocks(graph):
        for length, total, (nodes, products) in zip(lengths, totals, _cycle_layers(graph, block)):
            imbalanced = products < 0
            # add.at adds in index order, so each node's total sums in enumeration order;
            # a total that overflows fails below
            with np.errstate(over="ignore"):
                np.add.at(total, nodes[imbalanced].ravel(), np.repeat(products[imbalanced], length))
    degrees = [total_degree(graph, v) for v in range(graph.n)]
    scores = []
    for length, total in zip(lengths, totals):
        scores.append([t / d**2 if t else 0.0 for d, t in zip(degrees, total.tolist())])
        for node, score in enumerate(scores[-1]):
            if not math.isfinite(score):
                raise NumericalFailure(
                    f"imbalanced {length}-cycle score of node {node} is not finite ({score}): "
                    "cycle weight products or their sum overflow float64"
                )
    return scores


def imbalanced_motif_score(graph: SignedWeightedDigraph, node: int, length: int) -> float:
    """Sum of weight products of imbalanced `length`-cycles through `node`, over degree^2.

    A node on no imbalanced cycle scores 0. Raises `NumericalFailure` when a
    score overflows.
    """
    _check_node(graph, node)
    whole_number(length, "cycle length", MIN_CYCLE_LEN, MAX_CYCLE_LEN)
    return _imbalanced_scores(graph, length)[-1][node]


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
    w3, w4, w5, w6 = _imbalanced_scores(graph, MAX_CYCLE_LEN)
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
        if not math.isfinite(row.total_cost):
            raise NumericalFailure(
                f"motif cost of node {row.node} is not finite ({row}): "
                "cycle weight products overflow float64"
            )
    return rows
