"""Two-step random-walk enumeration and the transition-cost node ranking.

From a start node k the walker takes two directed steps along the graph's
`edges` (which leave out self-loops), never returning to the start: k -> i -> j
with i != k, j != i, j != k. The score of a start node is the mean over all
its walks of the product of the two traversed edge weights; strongly negative
values mark a polarity-reversing local flow structure, and nodes are ranked
most-negative-first as the strongest instability spreaders.

`_enumerate` states the walk rule once, as numpy columns in (start, mid, end)
order; `all_walks`, `two_step_walks`, `nstc` and `nstc_table` all read it.
`np.bincount` adds each node's products left to right in that walk order, so
a score has the same float64 bits on every Python and numpy version. A
product or mean that overflows raises `NumericalFailure` instead of ranking
an infinite node first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .graph import SignedWeightedDigraph, _check_node
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


def _enumerate(graph: SignedWeightedDigraph, starts: range) -> Walks:
    """Every walk from `starts`: no self-loop step, no return to the start."""
    w, edge = graph.weights, graph.edges
    k, i = np.nonzero(edge[starts.start : starts.stop])
    k += starts.start
    # row-major nonzero keeps (start, mid, end) order; row p of the mask is walk prefix k[p] -> i[p]
    p, end = np.nonzero(edge[i] & (np.arange(graph.n) != k[:, None]))
    start, mid = k[p], i[p]
    with np.errstate(over="ignore"):  # an infinite product fails in `_nstc_rows`, not here
        return Walks(start, mid, end, w[start, mid] * w[mid, end])


def all_walks(graph: SignedWeightedDigraph) -> Walks:
    """Every two-step walk in the graph, grouped by start node."""
    return _enumerate(graph, range(graph.n))


def two_step_walks(graph: SignedWeightedDigraph, start: int) -> list[TwoStepWalk]:
    """Exhaustive, deterministic enumeration of two-step walks from `start`."""
    _check_node(graph, start)
    walks = _enumerate(graph, range(start, start + 1))
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
    return _nstc_rows(_enumerate(graph, nodes), nodes)[0]


def nstc_table(graph: SignedWeightedDigraph, walks: Walks | None = None) -> list[NstcRow]:
    """One `NstcRow` per node; `walks` is `all_walks(graph)` when the caller has it."""
    if walks is None:
        walks = all_walks(graph)
    return _nstc_rows(walks, range(graph.n))


def nstc_ranking(graph: SignedWeightedDigraph) -> NodeScoreTable:
    """Rank all nodes by score: most negative first (strongest spreader)."""
    rows = nstc_table(graph)
    return ranked_table("nstc", [r.nstc for r in rows])
