"""Directed simple-cycle enumeration and the imbalanced-motif cost per node.

A motif here is a directed simple cycle of 3 to 6 distinct nodes along the
graph's `edges` (never a self-loop). A cycle is imbalanced when the product of
its edge weights is negative, i.e. it carries an odd number of negative edges.
For a node and cycle length k, the score sums the weight products of the
imbalanced k-cycles through the node, normalized by the squared total degree;
the total cost combines the four lengths as the cube root of the absolute product.

`motif_table` scores by closed-walk inclusion–exclusion in O(n³)
(`_closed_walk_table`): each node's k-cycle sums come from sums over the
walk-position partitions of matrix powers of four stacked layers, each with a
certified radius about the exact value. Where a cycle count could pass 2**53
(a node of in- or out-degree past 613), those radii cannot order two nonzero
total costs (a tie, as piezo's nodes 2 and 6), or a value on the way leaves
float64's normal range, it falls back to enumeration, which gives the scores
of earlier releases bit for bit, its overflow errors and underflow zeros
included.

Enumeration is exact. `_cycle_layers` grows every simple path from a block of
start nodes one edge at a time, as numpy columns, stepping only to nodes above
the start that are not yet on the path, so each cycle is found once, in the
order of a depth-first search, with its edge weights multiplied in path order.
Its memory follows the largest layer of paths. `_blocks` bounds each start
node's layers by counting walks through the nodes above it, and refuses a
graph whose bound for one start node passes `MEMORY_CAP` bytes before any
enumeration; by the same bounds, `graph.plan_blocks` splits the start nodes
into blocks of `graph.BLOCK_BYTES` or one node. A refused graph is not
sampled, since the scores are only meaningful under exhaustive counting.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import graph as _graph
from .errors import NumericalFailure, TooLarge, whole_number
from .graph import SignedWeightedDigraph, _check_node, _total_degrees

MIN_CYCLE_LEN = 3
MAX_CYCLE_LEN = 6
MEMORY_CAP = 2**28  # bytes the largest layer of one start node may take
_PATH_BYTES = 128  # measured per path row besides its mask: columns, indices, temporaries
_LENGTHS = range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1)
_UNIT = 2.0**-53  # float64's unit roundoff
_TINY = np.finfo(float).tiny  # its smallest normal number


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
        with np.errstate(over="ignore"):  # an infinite product fails in `_enumerated_scores`
            product = product[row] * w[last[row], nxt]
            closed = product[closes] * w[nxt[closes], nodes[:, 0]]
        yield nodes, closed


def enumerate_simple_cycles(graph: SignedWeightedDigraph, length: int) -> list[DirectedCycle]:
    """All directed simple cycles with exactly `length` distinct nodes.

    Each cycle is reported once, rotated so its smallest node index comes
    first, in lexicographic order of its nodes. Raises `TooLarge` past the
    work bound (see `_blocks`).
    """
    whole_number(length, "cycle length", MIN_CYCLE_LEN, MAX_CYCLE_LEN)
    cycles: list[DirectedCycle] = []
    for block in _blocks(graph):
        layers = _cycle_layers(graph, block)
        nodes, products = next(islice(layers, length - MIN_CYCLE_LEN, None))
        cycles += map(DirectedCycle, map(tuple, nodes.tolist()), products.tolist())
    return cycles


def _enumerated_scores(graph: SignedWeightedDigraph) -> np.ndarray:
    """Every node's imbalanced k-cycle score, one row per k from 3 to 6, by enumeration.

    Each imbalanced cycle's product is added to the total of each node on it,
    in enumeration order, so a node's total is the same sum, in the same
    order, as a scan of all cycles for that node. Raises `NumericalFailure`
    naming the first node with a non-finite score, which cycle weight products
    past float64 give.
    """
    totals = np.zeros((len(_LENGTHS), graph.n))
    for block in _blocks(graph):
        for length, total, (nodes, products) in zip(_LENGTHS, totals, _cycle_layers(graph, block)):
            imbalanced = products < 0
            # add.at adds in index order, so each node's total sums in enumeration order;
            # a total that overflows fails below
            with np.errstate(over="ignore"):
                np.add.at(total, nodes[imbalanced].ravel(), np.repeat(products[imbalanced], length))
    scores = np.where(totals != 0, totals / np.maximum(_total_degrees(graph) ** 2, 1), 0.0)
    for length, row in zip(_LENGTHS, scores):
        for node in np.flatnonzero(~np.isfinite(row))[:1].tolist():
            raise NumericalFailure(
                f"imbalanced {length}-cycle score of node {node} is not finite ({row[node]}): "
                "cycle weight products or their sum overflow float64"
            )
    return scores


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Every set partition of the positions 0..k-1, as each position's block: blocks are
    numbered in the order of their first position, so position 0 is in block 0."""

    def grow(blocks: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(blocks) == k:
            yield blocks
            return
        for block in range(top + 2):
            yield from grow(blocks + (block,), max(top, block))

    return grow((0,), 0)


def _pattern(blocks: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The closed walk of a partition of walk positions, with its lone positions contracted.

    A position alone in its block, other than the root's (position 0), is summed over
    freely, so a run of them contracts into a matrix power. What is kept are the
    positions of the root's block and of blocks of two or more, named 0 (the root's), 1
    and 2. The walk from one kept position p to the next, q, becomes the factor
    (L, x, y): entry [x, y] of the L-th power, where L is the walk's length and x, y name
    the blocks of p and q. Of the two namings of blocks 1 and 2, the first in sort order
    that joins block 1 to the root is kept, so that equal patterns compare equal.
    """
    k = len(blocks)
    size = Counter(blocks)
    kept = [p for p in range(k) if blocks[p] == 0 or size[blocks[p]] > 1]
    name: dict[int, int] = {}
    for p in kept:
        name.setdefault(blocks[p], len(name))
    steps = [((q - p) % k or k, name[blocks[p]], name[blocks[q]]) for p, q in zip(kept, kept[1:] + kept[:1])]
    namings = [(0, 1, 2), (0, 2, 1)][: 2 if len(name) == 3 else 1]
    patterns = [tuple(sorted((length, n[x], n[y]) for length, x, y in steps)) for n in namings]
    return min(patterns, key=lambda f: (not any({x, y} == {0, 1} for _, x, y in f), f))


@functools.cache
def _terms() -> tuple[tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...], ...]:
    """Per cycle length k from 3 to 6, the terms (coefficient, pattern) of its
    inclusion–exclusion over closed walks, equal patterns merged.

    The simple k-cycles through a node are its closed k-walks whose positions 0..k-1 are
    all distinct. By Möbius inversion over the partitions π of the positions, their sum
    is Σ_π μ(π) hom_π, where hom_π sums the walks whose positions agree within each
    block of π, and μ(π) = Π_B (-1)^(|B|-1) (|B|-1)! (Alon, Yuster & Zwick, Algorithmica
    1997; Curticapean, Dell & Marx, STOC 2017). A block holding two cyclically adjacent
    positions would need a self-loop, which the masked layers do not have, so those
    partitions are dropped: 1, 4, 11 and 41 remain for k = 3..6, and 1, 4, 8 and 28
    patterns once equal ones merge.
    """
    table = []
    for k in _LENGTHS:
        weight: Counter = Counter()
        for blocks in _partitions(k):
            if all(blocks[p] != blocks[p - 1] for p in range(k)):
                sizes = Counter(blocks).values()
                weight[_pattern(blocks)] += math.prod((-1) ** (s - 1) * math.factorial(s - 1) for s in sizes)
        table.append(tuple((c, pattern) for pattern, c in weight.items() if c))
    return tuple(table)


_EDGE, _BACK, _COLUMN, _DIAGONAL = range(4)  # how a factor (L, kind) enters; see `_plans`


@functools.cache
def _plans() -> tuple[np.ndarray, tuple, tuple]:
    """Every length's patterns (`_terms`), in one list: the coefficients, one row per
    length and one column per pattern (0 where the pattern is another length's), each
    pattern's evaluation plan, and per plan the products no later plan needs.

    A plan is five products of factors (L, kind), each a sorted tuple: the diagonal
    factors of the root's block, the factors between blocks 0 and 1, block 1's diagonal
    factors, and the factors between blocks 0 and 2 and between 1 and 2. A factor is
    entry [x, y] of the L-th power (`_EDGE`: x the lower block) or of its transpose
    (`_BACK`), diag(L)[y] (`_COLUMN`: block 2's diagonal factors, moved into one of
    its products) or diag(L)[x] (`_DIAGONAL`).
    """
    terms = [(i, c, pattern) for i, length in enumerate(_terms()) for c, pattern in length]
    coefficients = np.zeros((len(_LENGTHS), len(terms)))
    plans = []
    for j, (i, c, pattern) in enumerate(terms):
        coefficients[i, j] = c
        own: dict = {0: [], 1: [], 2: []}
        joint: dict = {(0, 1): [], (0, 2): [], (1, 2): []}
        for length, x, y in pattern:
            if x == y:
                own[x].append((length, _DIAGONAL))
            else:
                joint[min(x, y), max(x, y)].append((length, _EDGE if x < y else _BACK))
        joint[(0, 2) if joint[0, 2] else (1, 2)] += [(length, _COLUMN) for length, _ in own[2]]
        parts = own[0], joint[0, 1], own[1], joint[0, 2], joint[1, 2]
        plans.append(tuple(tuple(sorted(part)) for part in parts))
    last = {part[:i]: j for j, plan in enumerate(plans) for part in plan for i in range(1, len(part) + 1)}
    done = tuple(tuple(key for key, j in last.items() if j == i) for i in range(len(plans)))
    return coefficients, tuple(plans), done


def _times(a, b):
    """a * b, where None stands for a factor of 1."""
    return b if a is None else a if b is None else a * b


def _homs(power: list, diagonal: list) -> np.ndarray:
    """hom of every pattern of `_plans`, rooted at each node, for each stacked layer:
    shape (patterns, layers, n).

    `power[L]` is the L-th power (L <= 3) and `diagonal[L]` the diagonal of the L-th
    (L <= 6). Each product of a plan is taken once per call, by extending the product
    of its first factors, and kept only while a later plan needs it. Block 2 is summed
    out first: by one stacked matmul when it meets both the root and block 1, else by a
    row sum. Block 1 is summed out by a matrix-vector product with its diagonal factors.
    """
    products: dict = {(): None}

    def product(key: tuple) -> np.ndarray | None:
        if key not in products:
            length, kind = key[-1]
            if kind == _EDGE:
                factor = power[length]
            elif kind == _BACK:
                factor = power[length].transpose(0, 2, 1)
            else:
                factor = diagonal[length][:, None, :] if kind == _COLUMN else diagonal[length]
            products[key] = _times(product(key[:-1]), factor)
        return products[key]

    homs = []
    _, plans, done = _plans()
    for plan, needed_last in zip(plans, done):
        own_0, joint, own_1, root_2, one_2 = map(product, plan)
        if root_2 is not None and one_2 is not None:
            joint = _times(joint, root_2 @ one_2.transpose(0, 2, 1))
        elif root_2 is not None:
            own_0 = _times(own_0, root_2.sum(axis=-1))
        elif one_2 is not None:
            own_1 = _times(own_1, one_2.sum(axis=-1))
        if joint is not None:
            own_0 = _times(own_0, joint.sum(axis=-1) if own_1 is None else (joint @ own_1[..., None])[..., 0])
        homs.append(own_0)
        for key in needed_last:
            del products[key]
    return np.stack(homs)


def _normal(x: np.ndarray) -> np.ndarray:
    """Where x is finite and not below float64's smallest normal magnitude."""
    return np.isfinite(x) & (np.abs(x) >= _TINY)


def _closed_walk_table(
    graph: SignedWeightedDigraph,
) -> tuple[list[MotifScoreRow], np.ndarray, np.ndarray] | None:
    """Motif rows by closed-walk inclusion–exclusion, with certified radii; None where a
    cycle count could pass 2**53 (below), where the radii cannot order two nonzero total
    costs, or where a value leaves float64's normal range.

    Returns the rows, each score's radius (one row per length, one column per node) and
    each total cost's radius: the exact score or cost is within its radius of the row's.

    The four stacked layers are the masked weights W (`where(edges, W, 0)`, so the
    diagonal is 0), |W|, the 0/1 support B and sign W. Every layer is an entrywise
    function f with f(ab) = f(a) f(b), so each layer's S_k = Σ_π c_π hom_π (`_terms`) sums
    f of the products of the k-cycles through a node. So the imbalanced total is
    (S(W) - S(|W|)) / 2 and the count of imbalanced cycles (S(B) - S(sign W)) / 2.
    The last two layers hold whole numbers. Every value computed for a term counts the
    maps of a connected part of its pattern with at least one node fixed, and is at most
    D^(k-1), D the largest in- or out-degree; the partial sums of S are at most Σ_π |c_π|
    D^(k-1). While twice that is at most 2**53, every sum of those layers is exact, and a
    count is positive exactly when a node is on an imbalanced k-cycle; past it (D > 613),
    the method gives up.

    W is scaled by an exact power of 2 into |w| < 1 first and each length's total is
    scaled back exactly, so no sum overflows. If the smallest entry's 6th power could
    fall below float64's normal range, the method gives up, so no product of a walk
    underflows in the |W| layer.

    Certified radius. Take each rounding as fl(a op b) = (a op b)(1 + δ) + η with |δ| <= u
    = 2**-53, and η = 0 except where a product underflows, which has |η| <= u 2**-1022.
    That product's |W| counterpart is at least 2**-1022, so η counts as a second δ. By
    induction over the evaluation (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1 and §3.5, whose bound on an inner product holds for any
    order of summation), each value computed for the W or |W| layer is within γ_m of its
    exact |W| counterpart, γ_m = m u / (1 - m u), where m counts the roundings on the
    way of one walk's product: 2 per product (k - 1 in the walk, and one by c_π), at
    most n - 1 additions for each of the k - 1 summed blocks, and the sum over the
    length's patterns (the other lengths' coefficients are 0, whose products and sums
    are exact). The difference and the halving add 2, so the scaled total T is within
    γ_m H of its exact value, m = 2k + (k - 1)(n - 1) + (patterns) + 1, where H =
    Σ_π |c_π| hom_π(|W|) is summed alongside from the |W| layer's homs. The computed H has
    its own γ_m, so the radius taken is 2 γ_m H; the factor 2 covers 1/(1 - γ_m) and the
    radius's own roundings while γ_m <= 1/4. Relative to |T|, the radius is unchanged by
    the exact scaling back, and dividing by the degree squared adds 2u: that is a
    score's relative radius ρ_k.

    A total cost is fl(|fl(fl(w3 w4) w5) w6| ** fl(1/3)). Its certified value is the
    exact scores' |w3 w4 w5 w6| ** fl(1/3), which orders the nodes as the cube root does.
    With σ = ρ_3 + .. + ρ_6 <= 1/4, the computed product is within 2σ + 5u of the exact
    one, relative; taking the power keeps that bound, and `**` (C's pow) is taken to be
    within 2 ulps, 4u. So the cost is within (2σ + 12u) of its certified value, relative
    to that value, which is at most twice the cost: the radius taken is 5 (σ + 10u)
    times the cost. A node with σ > 1/4 gives up.

    Every value with a positive count stays in the normal range (the scores, and the
    partial products of a cost whose four counts are positive), and every partial product
    stays finite, or the method gives up, so an overflow or an underflow to 0 is left to
    enumeration, which keeps its errors and zeros.
    """
    n, edge = graph.n, graph.edges
    reach = int(max(edge.sum(axis=0).max(initial=0), edge.sum(axis=1).max(initial=0)))
    bounds = [2 * sum(abs(c) for c, _ in terms) * reach ** (k - 1) for k, terms in zip(_LENGTHS, _terms())]
    if max(bounds) > 2**53:  # a count could be inexact: enumeration scores the graph, or refuses it
        return None
    weights = np.where(edge, graph.weights, 0.0)
    shift = math.frexp(float(np.abs(weights).max(initial=0.0)))[1]
    w = np.ldexp(weights, -shift)
    smallest = float(np.abs(w[edge]).min(initial=1.0))
    if not smallest or MAX_CYCLE_LEN * (math.frexp(smallest)[1] - 1) < -1022:
        return None
    layers = np.stack([w, np.abs(w), edge.astype(float), np.sign(w)])
    power = [None, layers, layers @ layers]
    power.append(power[2] @ layers)
    diagonal = [None, None] + [np.diagonal(p, axis1=1, axis2=2) for p in power[2:]]
    diagonal += [(power[length - 3] * power[3].transpose(0, 2, 1)).sum(axis=-1) for length in (4, 5, 6)]
    coefficients = _plans()[0]
    homs = _homs(power, diagonal)
    sums = (coefficients @ homs.reshape(len(homs), -1)).reshape(len(_LENGTHS), len(layers), n)
    absolute = np.abs(coefficients) @ homs[:, 1]
    total, counted = (sums[:, 0] - sums[:, 1]) / 2, sums[:, 2] > sums[:, 3]
    length = np.array(_LENGTHS)[:, None]
    m = 2 * length + (length - 1) * (n - 1) + np.count_nonzero(coefficients, axis=1)[:, None] + 1
    with np.errstate(all="ignore"):  # the nodes with no imbalanced k-cycle stay 0
        scores = np.where(counted, np.ldexp(total, shift * length) / _total_degrees(graph) ** 2, 0.0)
        relative = np.where(counted, 2 * m * _UNIT / (1 - m * _UNIT) * absolute / abs(total) + 2 * _UNIT, 0.0)
        partial = np.cumprod(scores, axis=0)[1:]  # w3 w4, then times w5 and w6, as `_table` multiplies
    costed = counted.all(axis=0)
    spread = relative.sum(axis=0)
    if (
        (counted & ~_normal(scores)).any()
        or not np.isfinite(partial).all()  # a cost that overflows, or 0 times an overflow
        or (costed & (~_normal(partial).all(axis=0) | (spread > 0.25))).any()
    ):
        return None
    rows = _table(scores)
    cost = np.array([row.total_cost for row in rows])
    radius = np.where(costed, 5 * (spread + 10 * _UNIT) * cost, 0.0)
    order = np.flatnonzero(costed)[np.argsort(cost[costed])]
    if (cost[order[:-1]] + radius[order[:-1]] >= cost[order[1:]] - radius[order[1:]]).any():
        return None
    return rows, relative * np.abs(scores), radius


def _table(scores: np.ndarray) -> list[MotifScoreRow]:
    """The rows of scores w3..w6 (one row of `scores` per length), with their total costs.

    Raises `NumericalFailure` naming the first node whose total cost is not finite.
    """
    rows = [
        MotifScoreRow(node, w3, w4, w5, w6, abs(w3 * w4 * w5 * w6) ** (1.0 / 3.0))
        for node, (w3, w4, w5, w6) in enumerate(scores.T.tolist())
    ]
    for row in rows:
        if not math.isfinite(row.total_cost):
            raise NumericalFailure(
                f"motif cost of node {row.node} is not finite ({row}): "
                "cycle weight products overflow float64"
            )
    return rows


def imbalanced_motif_score(graph: SignedWeightedDigraph, node: int, length: int) -> float:
    """Sum of weight products of imbalanced `length`-cycles through `node`, over degree^2.

    The score `motif_table` gives: a node on no imbalanced cycle scores 0. Raises
    `NumericalFailure` where `motif_table` does, when a score or cost overflows.
    """
    _check_node(graph, node)
    whole_number(length, "cycle length", MIN_CYCLE_LEN, MAX_CYCLE_LEN)
    return getattr(motif_table(graph)[node], f"w{length}")


def total_cost(graph: SignedWeightedDigraph, node: int) -> MotifScoreRow:
    """Per-length imbalance scores and their combined cost for one node.

    total_cost = |w3 * w4 * w5 * w6| ** (1/3); any zero factor forces 0.
    """
    _check_node(graph, node)
    return motif_table(graph)[node]


def motif_table(graph: SignedWeightedDigraph) -> list[MotifScoreRow]:
    """Scores for every node: by closed-walk inclusion–exclusion where its certified
    radii order every two nonzero total costs, else by enumerating each cycle length once.

    Raises `NumericalFailure` naming the first node with a non-finite score or
    total cost, which cycle weight products past float64 give, and `TooLarge`
    past enumeration's work bound, the one refusal of either method.
    """
    certified = _closed_walk_table(graph)
    return certified[0] if certified else _table(_enumerated_scores(graph))
