"""Per-node score tables with ranking metadata, plus rank-agreement measures.

Every analysis reduces to one scalar per node. A NodeScoreTable keeps the raw
scores indexed by node and a ranking oriented so that rank 1 is the node the
method flags as most unstable (or most attended). Ties break by ascending
node index so rankings are total orders and artifacts are reproducible.
Missing scores (None) always rank last.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, real_number, sequence, whole_number


@dataclass(frozen=True)
class NodeScoreTable:
    scores: tuple  # raw per-node score, None where undefined
    order: tuple[int, ...]  # node indices from rank 1 to rank n

    @property
    def n(self) -> int:
        return len(self.scores)

    def rank_of(self, node: int) -> int:
        """1-based rank of a node."""
        return self.order.index(node) + 1

    def top(self, k: int) -> frozenset:
        return frozenset(self.order[: min(k, self.n)])


# Each method's ranking orientation, stated here and nowhere else, in run order.
# True ranks the largest score first.
DESCENDING = {
    "attention": True,  # most attention received
    "spectral": True,  # end eigenvalue closest to zero
    "motifs": True,  # largest imbalance cost
    "nstc": False,  # most negative walk cost
}


def ranked_table(method: str, scores) -> NodeScoreTable:
    """Rank nodes by score in `method`'s orientation; None scores go last, ties by index."""
    if method not in DESCENDING:
        raise BadParameter(f"unknown method {method!r}; valid: {list(DESCENDING)}")
    vals = [None if s is None else float(real_number(s, "scores"))
            for s in sequence(scores, "scores")]
    sign = -1.0 if DESCENDING[method] else 1.0

    def key(node):
        s = vals[node]
        return (s is None, sign * s if s is not None else 0.0, node)

    order = tuple(sorted(range(len(vals)), key=key))
    return NodeScoreTable(scores=tuple(vals), order=order)


def average_ranks(table: NodeScoreTable) -> np.ndarray:
    """Fractional ranks (1-based, ties averaged) per node, in table orientation.

    Nodes with missing scores share the average of the trailing rank positions.
    `table.order` already puts equal scores next to each other and None last.
    """
    ranks = np.empty(table.n)
    pos = 0
    for _, group in itertools.groupby(table.order, key=lambda node: table.scores[node]):
        tied = list(group)
        ranks[tied] = pos + (len(tied) + 1) / 2.0
        pos += len(tied)
    return ranks


def spearman_rho(a: NodeScoreTable, b: NodeScoreTable) -> float:
    """Spearman rank correlation between two tables over the same node set.

    Computed as the Pearson correlation of fractional ranks. When one side has
    zero rank variance (all scores tied) the correlation is undefined; we
    return 1.0 if both rankings are entirely tied and 0.0 otherwise.
    """
    if a.n != b.n:
        raise BadParameter(f"tables cover different node sets: {a.n} vs {b.n}")
    ra, rb = average_ranks(a), average_ranks(b)
    da, db = ra - ra.mean(), rb - rb.mean()
    va, vb = float(da @ da), float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 1.0 if va == 0.0 and vb == 0.0 else 0.0
    return float((da @ db) / math.sqrt(va * vb))


def top_k_jaccard(a: NodeScoreTable, b: NodeScoreTable, k: int) -> float:
    """Jaccard overlap of the two tables' top-k node sets."""
    whole_number(k, "top_k", 1)
    sa, sb = a.top(k), b.top(k)
    union = sa | sb
    return len(sa & sb) / len(union) if union else 1.0
