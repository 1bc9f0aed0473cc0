"""Two-step random-walk enumeration and the transition-cost node ranking.

From a start node k the walker takes two directed steps along the graph's
`edges` (which leave out self-loops), never returning to the start: k -> i -> j
with i != k, j != i, j != k. The score of a start node is the mean over all
its walks of the product of the two traversed edge weights; strongly negative
values mark a polarity-reversing local flow structure, and nodes are ranked
most-negative-first as the strongest instability spreaders.

`_enumerate` states the walk rule once, as numpy columns in (start, mid, end)
order; `all_walks`, `two_step_walks`, `nstc` and `walk_blocks`, which scores
them a block of whole start nodes at a time (`graph.plan_blocks` of the bytes
each node's walks and enumeration take), all read it. `np.bincount` adds each
node's products left to right in walk order, and no block splits a node's
walks, so a score has the same float64 bits on every Python and numpy version
and at every block size.
A product or mean that overflows raises `NumericalFailure` instead of ranking
an infinite node first.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .graph import SignedWeightedDigraph, _check_node, plan_blocks
from .scores import NodeScoreTable, ranked_table


@dataclass(frozen=True)
class TwoStepWalk:
    start: int
    mid: int
    end: int
    w1: float  # weight of start -> mid
    w2: float  # weight of mid -> end

    @property
    def product(self) -> float:
        return self.w1 * self.w2


@dataclass(frozen=True)
class Walks:
    """Two-step walks as parallel columns, sorted by (start, mid, end); the edge
    weights stay in the graph."""

    start: np.ndarray
    mid: np.ndarray
    end: np.ndarray
    product: np.ndarray  # weights[start, mid] * weights[mid, end]

    def __len__(self) -> int:
        return len(self.start)


@dataclass(frozen=True)
class NstcRow:
    node: int
    n_paths: int
    nstc: float
    no_walks: bool = False


def _enumerate(graph: SignedWeightedDigraph, edge: np.ndarray, starts: range) -> Walks:
    """Every walk from `starts` along `edge` (`graph.edges`): no self-loop step, no return to the start."""
    k, i = np.nonzero(edge[starts.start : starts.stop])
    k += starts.start
    # row-major nonzero keeps (start, mid, end) order; row p of the mask is walk prefix k[p] -> i[p]
    mask = edge[i]
    mask[np.arange(len(k)), k] = False  # no return to the start
    p, end = np.nonzero(mask)
    start, mid = k[p], i[p]
    with np.errstate(over="ignore"):  # an infinite product fails in `_nstc_rows`, not here
        return Walks(start, mid, end, graph.weights[start, mid] * graph.weights[mid, end])


def all_walks(graph: SignedWeightedDigraph) -> Walks:
    """Every two-step walk in the graph, grouped by start node."""
    return _enumerate(graph, graph.edges, range(graph.n))


def two_step_walks(graph: SignedWeightedDigraph, start: int) -> list[TwoStepWalk]:
    """Exhaustive, deterministic enumeration of two-step walks from `start`."""
    _check_node(graph, start)
    walks = _enumerate(graph, graph.edges, range(start, start + 1))
    k, i, j, w = walks.start, walks.mid, walks.end, graph.weights
    return [TwoStepWalk(*row) for row in zip(*(c.tolist() for c in (k, i, j, w[k, i], w[i, j])))]


def _nstc_rows(walks: Walks, nodes: range) -> list[NstcRow]:
    """The NSTC row of each of `nodes`, from the walks that start at them; `np.bincount`
    adds each node's products left to right in walk order, on every Python."""
    at = walks.start - nodes.start
    counts = np.bincount(at, minlength=len(nodes))
    means = np.bincount(at, weights=walks.product, minlength=len(nodes)) / np.maximum(counts, 1)
    # weights are finite and nonzero, so a product overflows to +-inf, never nan, and its
    # node's mean is then non-finite too; checking the mean also catches an overflowing sum
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        raise NumericalFailure(
            f"two-step walk cost from node {nodes[bad[0]]} is not finite ({means[bad[0]]}): "
            "walk products overflow float64"
        )
    rows = zip(nodes, counts.tolist(), means.tolist())
    return [NstcRow(node=v, n_paths=c, nstc=mean, no_walks=c == 0) for v, c, mean in rows]


def nstc(graph: SignedWeightedDigraph, node: int) -> NstcRow:
    """Normalized summation of transition cost: mean walk weight product.

    A node with no two-step walks gets score 0 with the no_walks flag set.
    Raises `NumericalFailure` when the products or their mean overflow.
    """
    _check_node(graph, node)
    nodes = range(node, node + 1)
    return _nstc_rows(_enumerate(graph, graph.edges, nodes), nodes)[0]


def walk_blocks(
    graph: SignedWeightedDigraph, budget: int, row_bytes: int
) -> Iterator[tuple[Walks, list[NstcRow]]]:
    """Every walk and each start node's `NstcRow`, in node order, in blocks of whole start
    nodes: each as many nodes as cost at most `budget` bytes together, or one node. A
    node costs the larger of `row_bytes` per walk and the n bytes per out-edge that
    `_enumerate`'s mask holds, which is the larger on sparse graphs with many nodes.
    Raises `NumericalFailure` at a block with a node whose products or mean overflow."""
    edge = graph.edges
    out = edge.sum(1)
    # k's walks: the out-edges of each i that k has an edge to, but any back to k
    # einsum casts in buffers: no n-by-n int copy, and no n-by-n mask of the mutual edges
    counts = np.einsum("ki,i->k", edge, out) - np.einsum("ki,ik->k", edge, edge, dtype=np.int64)
    for nodes in plan_blocks(np.maximum(counts * row_bytes, out * graph.n).tolist(), budget):
        walks = _enumerate(graph, edge, nodes)
        yield walks, _nstc_rows(walks, nodes)


def nstc_table(graph: SignedWeightedDigraph) -> list[NstcRow]:
    """One `NstcRow` per node, from `walk_blocks` a start node at a time."""
    return [row for _, rows in walk_blocks(graph, 0, 1) for row in rows]


def nstc_ranking(graph: SignedWeightedDigraph) -> NodeScoreTable:
    """Rank all nodes by score: most negative first (strongest spreader)."""
    rows = nstc_table(graph)
    return ranked_table("nstc", [r.nstc for r in rows])
