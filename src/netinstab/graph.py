"""Signed weighted digraph model, fixture loading, degrees, and column perturbation.

A graph is a dense n x n weight matrix: entry (i, j) is the weight of the
directed edge i -> j, and an edge exists exactly when its weight is nonzero
(no epsilon thresholding; fixture weights are exact decimal literals).
Self-loops are allowed but left out of `edges`. Graphs are immutable after
construction; every operation returns a new value, so concurrent reads are safe.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import BadNode, BadParameter, MalformedModel, number_table, real_number, whole_number

_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_FIXTURE_ALIAS = "piezo"
VARIANTS = ("appendix", "printed")
# The variants differ only in the sign of coupling entry (3, 1): the bundled
# fixture holds the appendix's +1.3083 (every reference score assumes it), and
# `printed` negates it.
_PRINTED_SIGN_FLIP = (3, 1)
BLOCK_BYTES = 1 << 19  # one block's budget of stacked seeds, walk rows or cycle paths; read at call time


@dataclass(frozen=True)
class SignedWeightedDigraph:
    """Dense signed weighted digraph; weights[i, j] is the weight of edge i -> j."""

    weights: np.ndarray
    node_labels: np.ndarray | None = None

    def __post_init__(self):
        w = number_table(self.weights, "adjacency", MalformedModel)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
            raise MalformedModel(f"adjacency must be a nonempty square table, got shape {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.node_labels is not None:
            lab = number_table(self.node_labels, "labels", MalformedModel)
            if lab.shape != (w.shape[0],):
                raise MalformedModel(
                    f"labels must have one entry per node, got shape {lab.shape} for n={w.shape[0]}"
                )
            object.__setattr__(self, "node_labels", lab)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def edges(self) -> np.ndarray:
        edges = self.weights != 0  # the one n-by-n temporary: the diagonal is cleared in place
        np.fill_diagonal(edges, False)
        return edges


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-node feature table, one row per node."""

    values: np.ndarray

    def __post_init__(self):
        v = number_table(self.values, "features", MalformedModel)
        if v.ndim != 2:
            raise MalformedModel(f"features must be a 2-d table, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def fixture_path() -> Path:
    """Path of the bundled piezo actuator fixture, the `appendix` variant."""
    return _FIXTURE_DIR / "piezo_appendix.json"


def load_model(source, variant: str = "appendix") -> tuple[SignedWeightedDigraph, FeatureMatrix]:
    """Load a model file and return its graph and feature matrix.

    `source` is either a path to a model JSON document or the bundled-fixture
    alias "piezo". For the alias `variant` selects the appendix fixture as
    bundled or with entry (3, 1) negated (`printed`); a path, including the
    bundled fixture's own, is loaded as-is, so any `variant` but `appendix`
    is refused for it.
    """
    if variant not in VARIANTS:
        raise BadParameter(f"variant must be one of {VARIANTS}, got {variant!r}")
    alias = str(source) == _FIXTURE_ALIAS
    if not alias and variant != "appendix":
        raise BadParameter(f"variant {variant!r} applies only to model 'piezo', not to {str(source)!r}")
    doc = read_json(fixture_path() if alias else source, "model", MalformedModel)
    if alias and variant == "printed":
        i, j = _PRINTED_SIGN_FLIP
        doc["adjacency"][i][j] = -doc["adjacency"][i][j]
    return model_from_dict(doc)


def read_json(path, what: str, error):
    """The JSON document in file `path`; `error` names the `what` file it cannot read or parse."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise error(f"{what} file {str(path)!r} cannot be read: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise error(f"{what} file is not valid JSON: {exc}") from exc


def model_from_dict(doc: dict) -> tuple[SignedWeightedDigraph, FeatureMatrix]:
    """Build (graph, features) from a parsed model document; unknown keys are ignored."""
    if not isinstance(doc, dict):
        raise MalformedModel(f"model document must be a JSON object, got {type(doc).__name__}")
    for key in ("n", "adjacency", "features"):
        if key not in doc:
            raise MalformedModel(f"model document is missing field {key!r}")
    n = whole_number(doc["n"], "field 'n'", 1, error=MalformedModel)
    graph = SignedWeightedDigraph(weights=doc["adjacency"], node_labels=doc.get("labels"))
    if graph.n != n:
        raise MalformedModel(f"adjacency must be {n}x{n}, got shape {graph.weights.shape}")
    features = FeatureMatrix(values=doc["features"])
    if features.rows != n:
        raise MalformedModel(f"features must have {n} rows, got shape {features.values.shape}")
    return graph, features


def model_to_dict(graph: SignedWeightedDigraph, features: FeatureMatrix) -> dict:
    """Serialize (graph, features) to a model document round-trippable by load_model."""
    doc = {
        "n": graph.n,
        "adjacency": graph.weights.tolist(),
        "features": features.values.tolist(),
    }
    if graph.node_labels is not None:
        doc["labels"] = graph.node_labels.tolist()
    return doc


def save_model(path, graph: SignedWeightedDigraph, features: FeatureMatrix) -> None:
    Path(path).write_text(json.dumps(model_to_dict(graph, features), indent=1))


def total_degree(graph: SignedWeightedDigraph, node: int) -> int:
    """Count of nonzero entries in the node's row plus those in its column.

    A self-loop appears in both the row and the column, so it contributes 2.
    """
    _check_node(graph, node)
    w = graph.weights
    return int(np.count_nonzero(w[node, :]) + np.count_nonzero(w[:, node]))


def perturb_column(graph: SignedWeightedDigraph, node: int, delta: float) -> SignedWeightedDigraph:
    """Return a copy with `delta` added to every nonzero entry of column `node`.

    Structural zeros in the column stay zero and no other column changes;
    the input graph is left untouched. Raises `BadParameter` naming `delta`
    if a shifted weight overflows float64.
    """
    _check_node(graph, node)
    delta = real_number(delta, "delta")
    w = graph.weights.copy()
    mask = w[:, node] != 0
    with np.errstate(over="ignore"):  # an overflowing weight is refused below
        w[mask, node] += delta
    if not np.isfinite(w[:, node]).all():
        raise BadParameter(f"delta {delta!r} overflows a weight of column {node} in float64")
    return SignedWeightedDigraph(weights=w, node_labels=graph.node_labels)


def plan_blocks(costs, budget) -> list[range]:
    """Consecutive ranges that cover the indices of `costs` in order: each takes as
    many items as cost at most `budget` together, and at least one."""
    ends = [0, *accumulate(costs)]  # ends[k]: the cost of items 0..k-1
    blocks, lo = [], 0
    while lo < len(costs):
        blocks.append(range(lo, max(lo + 1, bisect_right(ends, ends[lo] + budget) - 1)))
        lo = blocks[-1].stop
    return blocks


def _check_node(graph: SignedWeightedDigraph, node: int) -> None:
    whole_number(node, "node index", 0, graph.n - 1, BadNode)
