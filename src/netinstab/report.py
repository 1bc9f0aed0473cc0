"""Analysis orchestration: run selected methods on a model file, emit CSV/JSON
artifacts, and measure agreement between the resulting node rankings.

Rankings are oriented so rank 1 is "most unstable" (or most attended), by
`scores.DESCENDING`; `METHODS` holds each method's runner in run order.
Artifacts use fixed 6-significant-digit float formatting so identical configs
reproduce byte-identical files.

The two-step walks are almost all of the output, and both `walk_tree.csv` and
summary.json list every one of them. Their rows are formatted straight from
the `Walks` columns (`_walk_row_blocks`): each node index, edge weight and
(start, mid) pair is formatted once, and each row takes one `%`-format call
whose only float is the walk's product. The rows are written in blocks, so
neither text is held whole.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import agcn, motifs, spectral, walks
from .errors import BadParameter
from .graph import load_model
from .scores import NodeScoreTable, ranked_table, spearman_rho, top_k_jaccard
from .walks import WALK_COLUMNS, Walks

# stands in for the nstc walk list while the rest of the summary is encoded
_WALKS_PLACEHOLDER = "netinstab:walks-placeholder"
_WALK_CHUNK_ROWS = 1024  # walk rows formatted per block, which bounds the text held at once
CONVERGENCE_LOSS = 0.005  # a training run at or below this counts as converged
# each grid point costs one verified O(n^3) eigen-solve per node (about 2 ms at
# n = 48), so a grid past this (a delta_step of 1e-7 gives 25 million points)
# would run for days rather than fail
MAX_DELTA_POINTS = 1000


@dataclass(frozen=True)
class AnalysisConfig:
    model_path: str = "piezo"
    variant: str = "appendix"
    methods: tuple[str, ...] = field(default_factory=lambda: tuple(METHODS))
    output_dir: str = "out"
    seeds: tuple[int, ...] = (0,)
    iterations: int = agcn.AgcnHyperparams.iterations
    learning_rate: float = agcn.AgcnHyperparams.learning_rate
    leaky_slope: float = agcn.AgcnHyperparams.leaky_slope
    perturb_node: int | None = None
    perturb_factor: float = 2.0
    delta_min: float = 0.5
    delta_max: float = 3.0
    delta_step: float = 0.5
    top_k: int = 2

    def __post_init__(self):
        if not self.methods:
            raise BadParameter("methods must not be empty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise BadParameter(f"unknown methods {unknown}; valid: {list(METHODS)}")
        for name in ("delta_min", "delta_max", "delta_step"):
            if not math.isfinite(getattr(self, name)):
                raise BadParameter(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_step <= 0:
            raise BadParameter(f"delta_step must be > 0, got {self.delta_step}")
        if (self.delta_max - self.delta_min) / self.delta_step + 1 > MAX_DELTA_POINTS:
            raise BadParameter(
                f"delta_step={self.delta_step} from delta_min={self.delta_min} to "
                f"delta_max={self.delta_max} gives more than {MAX_DELTA_POINTS} grid points"
            )
        self.delta_grid()
        if self.top_k < 1:
            raise BadParameter(f"top_k must be >= 1, got {self.top_k}")
        if not self.seeds:
            raise BadParameter("seeds must not be empty")
        if not math.isfinite(self.perturb_factor):
            raise BadParameter(f"perturb_factor must be finite, got {self.perturb_factor}")
        for seed in self.seeds:  # refuse bad training settings before anything runs
            self.hyperparams(seed)
        if len(set(self.seeds)) != len(self.seeds):  # a repeat would train twice and keep one
            raise BadParameter(f"seeds must not repeat, got {list(self.seeds)}")

    def delta_grid(self) -> list[float]:
        """The sweep's perturbation sizes, from delta_min to delta_max in delta_step steps."""
        grid = []
        k = 0
        while True:
            d = self.delta_min + k * self.delta_step
            if d > self.delta_max + 1e-12:
                break
            grid.append(round(d, 12))
            k += 1
        if not grid:
            raise BadParameter(
                f"empty delta grid: delta_min={self.delta_min} delta_max={self.delta_max}"
            )
        return grid

    def hyperparams(self, seed: int) -> agcn.AgcnHyperparams:
        """The training settings for one of `seeds`."""
        return agcn.AgcnHyperparams(
            leaky_slope=self.leaky_slope,
            learning_rate=self.learning_rate,
            iterations=self.iterations,
            seed=seed,
        )


@dataclass(frozen=True)
class MethodPairConcordance:
    top_k_jaccard: float
    spearman_rho: float
    top_k: dict  # method name -> sorted top-k node list


@dataclass(frozen=True)
class ConcordanceReport:
    top_k: int
    pairs: dict  # "a|b" (alphabetical) -> MethodPairConcordance


def concordance(tables: dict[str, NodeScoreTable], top_k: int) -> ConcordanceReport:
    """Pairwise top-k Jaccard and Spearman rank agreement between rankings."""
    if top_k < 1:
        raise BadParameter(f"top_k must be >= 1, got {top_k}")
    sizes = {name: t.n for name, t in tables.items()}
    if len(set(sizes.values())) > 1:
        raise BadParameter(f"tables cover different node sets: {sizes}")
    names = sorted(tables)
    pairs = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pairs[f"{a}|{b}"] = MethodPairConcordance(
                top_k_jaccard=top_k_jaccard(tables[a], tables[b], top_k),
                spearman_rho=spearman_rho(tables[a], tables[b]),
                top_k={
                    a: sorted(tables[a].top(top_k)),
                    b: sorted(tables[b].top(top_k)),
                },
            )
    return ConcordanceReport(top_k=top_k, pairs=pairs)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _walk_row_blocks(walks: Walks, weights, number, pair_format: str, row_format: str):
    """The rows of `walks`, formatted `_WALK_CHUNK_ROWS` at a time; one list of row texts per block.

    Each node index and each edge's weight are formatted once by `number`, and
    each edge's (start, mid) pair once by `pair_format`; these tables are read
    by edge id. `row_format` then takes one walk's (start, mid) pair, end, w1
    and w2 texts and its product as a Python float.
    """
    n = len(weights)
    nodes = [number(k) for k in range(n)]
    node_text = np.array(nodes, dtype=object)
    flat = weights.ravel()
    edges = np.flatnonzero(flat)
    weight_text = np.empty(flat.size, dtype=object)
    weight_text[edges] = [number(w) for w in flat[edges].tolist()]
    pair_text = np.empty(flat.size, dtype=object)
    pair_text[edges] = [pair_format % (nodes[e // n], nodes[e % n]) for e in edges.tolist()]
    for lo in range(0, len(walks), _WALK_CHUNK_ROWS):
        block = slice(lo, lo + _WALK_CHUNK_ROWS)
        mid, end = walks.mid[block], walks.end[block]
        first, second = walks.start[block] * n + mid, mid * n + end
        columns = (pair_text[first], node_text[end], weight_text[first], weight_text[second])
        rows = zip(*(c.tolist() for c in columns), walks.product[block].tolist())
        yield list(map(row_format.__mod__, rows))


def _walk_csv(walks: Walks, weights):
    """The text of `walk_tree.csv`, in pieces: `_csv` of `walks.rows()`, with every number `%.6g`."""
    yield ",".join(WALK_COLUMNS) + "\n"
    number = "%.6g".__mod__
    for rows in _walk_row_blocks(walks, weights, number, "%s,%s", "%s,%s,%s,%s,%.6g\n"):
        yield "".join(rows)


def _summary_pieces(summary: dict, walks: Walks | None = None, weights=None):
    """Strings whose concatenation is `json.dumps(summary, indent=2, sort_keys=True)`.

    The nstc walk list, `summary["methods"]["nstc"]["walks"]`, is almost all of
    the document. When `walks` holds its columns (and `weights` the graph's
    weights), the rest is encoded with a placeholder in place of that list, and
    the walk rows are formatted straight from the columns, laid out the way
    `indent=2` lays them out. Their numbers are the tokens json writes for
    finite numbers, `int.__repr__` and `float.__repr__`, so the bytes are the
    same; `SignedWeightedDigraph` refuses non-finite weights. No walks, a
    non-finite product (which json writes as `Infinity` or `NaN`) or a
    `config` string that holds the placeholder's token take the one
    `json.dumps` call.
    """
    if walks is not None and len(walks) and np.isfinite(walks.product).all():
        nstc = summary["methods"]["nstc"]
        methods = {**summary["methods"], "nstc": {**nstc, "walks": _WALKS_PLACEHOLDER}}
        text = json.dumps({**summary, "methods": methods}, indent=2, sort_keys=True)
        token = json.dumps(_WALKS_PLACEHOLDER)
        if text.count(token) == 1:
            head, _, tail = text.partition(token)
            line = head[head.rfind("\n") + 1 :]
            outer = " " * (len(line) - len(line.lstrip(" ")))  # the "walks" key's indent
            row, cell = outer + "  ", outer + "    "
            pair_format = f"%s,\n{cell}%s"
            row_format = f"{row}[\n{cell}%s,\n{cell}%s,\n{cell}%s,\n{cell}%s,\n{cell}%r\n{row}]"
            blocks = _walk_row_blocks(walks, weights, repr, pair_format, row_format)
            yield f"{head}[\n"
            for i, rows in enumerate(blocks):
                yield (",\n" if i else "") + ",\n".join(rows)
            yield f"\n{outer}]{tail}"
            return
    yield json.dumps(summary, indent=2, sort_keys=True)


def _write_summary(path: Path, summary: dict, walks: Walks | None = None, weights=None) -> None:
    """Stream `summary` as indented JSON into a temporary file that then replaces `path`.

    `walks` and `weights` are the `Walks` record and the graph's weight matrix
    behind the summary's nstc walk list, which `_summary_pieces` formats from
    the columns.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(_summary_pieces(summary, walks, weights))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _ranking(table: NodeScoreTable) -> dict:
    """The summary's per-node `scores` and 1-based `ranks` of a table."""
    return {
        "scores": list(table.scores),
        "ranks": [table.rank_of(node) for node in range(table.n)],
    }


def _run_attention(config: AnalysisConfig, graph, features) -> tuple:
    if graph.node_labels is None:
        raise BadParameter("model has no 'labels' field; the attention method needs targets")
    if config.perturb_node is not None:
        features = agcn.perturb_features(features, config.perturb_node, config.perturb_factor)
    hyper = config.hyperparams(config.seeds[0])
    trained = agcn.train_seeds(graph, features, graph.node_labels, hyper, config.seeds)
    states = dict(zip(config.seeds, trained))
    tables = {seed: agcn.node_attention_scores(state.alpha) for seed, state in states.items()}
    converged = {seed: state.final_loss <= CONVERGENCE_LOSS for seed, state in states.items()}
    representative = next((s for s in config.seeds if converged[s]), config.seeds[0])
    state, table = states[representative], tables[representative]

    texts = (
        _csv(["iteration", "loss"], [[i, loss] for i, loss in enumerate(state.loss_history)]),
        _csv([f"to_{j}" for j in range(graph.n)], [list(row) for row in state.alpha]),
        _csv(
            ["node", "score", "rank"],
            [[node, table.scores[node], table.rank_of(node)] for node in range(graph.n)],
        ),
    )
    return table, texts, None, {
        "representative_seed": representative,
        "perturb_node": config.perturb_node,
        "perturb_factor": config.perturb_factor if config.perturb_node is not None else None,
        "alpha": [[float(v) for v in row] for row in state.alpha],
        "seeds": {
            str(seed): {
                "initial_loss": s.loss_history[0],
                "final_loss": s.final_loss,
                "converged": converged[seed],
                "loss_history": [float(l) for l in s.loss_history],
                **_ranking(tables[seed]),
            }
            for seed, s in states.items()
        },
    }


def _run_spectral(config: AnalysisConfig, graph, features) -> tuple:
    table = spectral.perturbation_sweep(graph, config.delta_grid())
    cells = [asdict(table.cells[key]) for key in sorted(table.cells)]
    csv = _csv(
        ["node", "delta", "largest_negative_eigenvalue", "status"],
        [list(cell.values()) for cell in cells],
    )
    ranking = ranked_table("spectral", spectral.sweep_end_scores(table))
    return ranking, (csv,), None, {"deltas": list(table.deltas), "cells": cells}


def _run_motifs(config: AnalysisConfig, graph, features) -> tuple:
    rows = [asdict(r) for r in motifs.motif_table(graph)]
    csv = _csv(["node", "w3", "w4", "w5", "w6", "total_cost"], [list(r.values()) for r in rows])
    table = ranked_table("motifs", [r["total_cost"] for r in rows])
    return table, (csv,), None, {"rows": rows}


def _run_nstc(config: AnalysisConfig, graph, features) -> tuple:
    all_walks = walks.all_walks(graph)
    rows = walks.nstc_table(graph, all_walks)
    table = ranked_table("nstc", [r.nstc for r in rows])
    texts = (
        _csv(
            ["node", "n_paths", "nstc", "rank"],
            [[r.node, r.n_paths, r.nstc, table.rank_of(r.node)] for r in rows],
        ),
        _walk_csv(all_walks, graph.weights),
    )
    return table, texts, all_walks, {"rows": [asdict(r) for r in rows], "walks": all_walks.rows()}


# Run order. Each runner maps (config, graph, features) to its ranking, the
# texts of its CSV files in `ARTIFACTS` order (a string, or an iterable of
# pieces that formats them as it is written), the `Walks` whose rows its
# summary fields hold as "walks" (or None), and those fields. It does no I/O.
METHODS = {
    "attention": _run_attention,
    "spectral": _run_spectral,
    "motifs": _run_motifs,
    "nstc": _run_nstc,
}
# Each method's CSV files, named here and nowhere else.
ARTIFACTS = {
    "attention": ("loss_history.csv", "alpha.csv", "attention_scores.csv"),
    "spectral": ("spectral_sweep.csv",),
    "motifs": ("motif_costs.csv",),
    "nstc": ("nstc.csv", "walk_tree.csv"),
}


def run(config: AnalysisConfig) -> dict:
    """Run the configured methods, write artifacts, and return the summary.

    Writes one set of CSV artifacts per method plus summary.json into the
    output directory. The summary is self-contained: every number in the
    per-method CSVs appears in it. Deterministic given the config.

    summary.json holds exactly `json.dumps(summary, indent=2, sort_keys=True)`.
    The summary's nstc walk list is a list of (start, mid, end, w1, w2,
    product) tuples, but the file's walk rows, like `walk_tree.csv`'s, are
    formatted from the `Walks` columns in blocks (see `_summary_pieces`). The
    file is streamed into a temporary file that then atomically replaces any
    summary.json already there.

    A graph past the motif work bound (`motifs.check_size`) is refused before
    any method runs or any file is written. The CSVs are written only after every
    selected method has succeeded, so a run that raises writes none. A run
    that succeeds also removes the CSVs of the methods it did not run (and no
    other file), so no CSV of an earlier run outlives its summary.
    """
    graph, features = load_model(config.model_path, config.variant)
    if "motifs" in config.methods:
        motifs.check_size(graph)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadParameter(f"output_dir {config.output_dir!r} cannot be created: {exc}") from exc

    tables: dict[str, NodeScoreTable] = {}
    files: dict = {}
    method_summaries = {}
    walk_columns = None
    for name, runner in METHODS.items():
        if name not in config.methods:
            continue
        table, texts, method_walks, fields = runner(config, graph, features)
        if method_walks is not None:
            walk_columns = method_walks
        tables[name] = table
        files.update(zip(ARTIFACTS[name], texts, strict=True))
        method_summaries[name] = {**fields, **_ranking(table)}

    summary = {
        "config": asdict(config),
        "n": graph.n,
        "methods": method_summaries,
    }
    if len(tables) >= 2:
        summary["concordance"] = asdict(concordance(tables, config.top_k))
    for name in METHODS.keys() - tables.keys():
        for stale in ARTIFACTS[name]:
            (out / stale).unlink(missing_ok=True)
    for name in list(files):  # each text is dropped once written, before the summary is encoded
        text = files.pop(name)
        with open(out / name, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
    _write_summary(out / "summary.json", summary, walk_columns, graph.weights)
    return summary


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise BadParameter(f"summary {where} must be a JSON object, got {type(value).__name__}")
    return value


def tables_from_summary(summary: dict) -> dict[str, NodeScoreTable]:
    """Rebuild the per-method score tables stored in a summary document."""
    methods = _json_object(_json_object(summary, "document").get("methods", {}), "field 'methods'")
    tables = {}
    for name, data in methods.items():
        if name not in METHODS:
            raise BadParameter(f"summary names unknown method {name!r}; valid: {list(METHODS)}")
        data = _json_object(data, f"field 'methods.{name}'")
        if "scores" in data:
            scores = data["scores"]
            if not isinstance(scores, list) or not all(
                s is None or isinstance(s, (int, float)) for s in scores
            ):
                raise BadParameter(
                    f"summary field 'methods.{name}.scores' must be a list of numbers or nulls"
                )
            tables[name] = ranked_table(name, scores)
    return tables


def concordance_from_summary(summary: dict, top_k: int | None = None) -> ConcordanceReport:
    """Recompute the concordance report from a summary document."""
    tables = tables_from_summary(summary)
    if len(tables) < 2:
        raise BadParameter("summary holds fewer than two method score tables")
    if top_k is None:
        top_k = _json_object(summary.get("config", {}), "field 'config'").get("top_k", 2)
        if not isinstance(top_k, int):
            raise BadParameter(f"summary field 'config.top_k' must be an integer, got {top_k!r}")
    return concordance(tables, top_k)
