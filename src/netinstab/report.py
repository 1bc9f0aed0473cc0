"""Analysis orchestration: run selected methods on a model file, emit CSV/JSON
artifacts, and measure agreement between the resulting node rankings.

Rankings are oriented so rank 1 is "most unstable" (or most attended), by
`scores.DESCENDING`; `METHODS` holds each method's runner in run order.
Artifacts use fixed 6-significant-digit float formatting so identical configs
reproduce byte-identical files.

The two-step walks are almost all of the output. `walk_tree.csv` is the one
place that lists them; summary.json holds each node's walk count (`n_paths`)
but not the walks. `walks.walk_blocks` enumerates and scores them a block of
whole start nodes at a time, and `_walk_csv` formats each block's rows (about
`graph.BLOCK_BYTES`) as they are written, so neither walks nor text are held
whole; nstc.csv and the summary are made from the scores afterwards. A block
is one array of byte lanes, a row per walk: the node and pair text comes from
tables that Python formats once per node or edge, and the weights' (once per
edge) and the products' text from `_g6_lines`, a vectorised `%.6g` that hands
to Python's own every value it cannot show it rounds the same way. So the
file is Python's `%.6g` text, byte for byte.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import agcn, graph as _graph, motifs, spectral, walks
from .errors import BadParameter, real_number, sequence, whole_number
from .graph import load_model
from .scores import NodeScoreTable, ranked_table, spearman_rho, top_k_jaccard

WALK_COLUMNS = ("start", "mid", "end", "w1", "w2", "product")  # walk_tree.csv's header
CONVERGENCE_LOSS = 0.005  # a training run at or below this counts as converged
# each grid point but delta = 0 costs one O(n^3) eigenvalues-only solve per node,
# verified by an O(n^2) residual bound with no SVD (a sweep takes about 0.5 ms per cell
# at n = 48 on a 2-core x86-64, with one OpenBLAS thread or two), so a grid past this (a
# delta_step of 1e-7 gives 25 million points) would run for days rather than fail
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
        # the config goes into summary.json, so it keeps strings, tuples and built-in numbers
        for name in ("model_path", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise BadParameter(f"{name} must be a string, got {getattr(self, name)!r}")
        object.__setattr__(self, "methods", sequence(self.methods, "methods"))
        if not self.methods or not all(isinstance(m, str) and m in METHODS for m in self.methods):
            raise BadParameter(f"methods must be some of {list(METHODS)}, got {self.methods}")
        for name in ("delta_min", "delta_max", "delta_step", "perturb_factor", "learning_rate", "leaky_slope"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if self.perturb_node is None and self.perturb_factor != AnalysisConfig.perturb_factor:
            raise BadParameter(f"perturb_factor={self.perturb_factor} needs a perturb_node to scale")
        if self.delta_step <= 0:
            raise BadParameter(f"delta_step must be > 0, got {self.delta_step}")
        self.delta_grid()
        for name in ("top_k", "iterations"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, 1))
        object.__setattr__(self, "seeds", agcn.check_seeds(self.seeds))  # before anything runs
        self.hyperparams()

    def delta_grid(self) -> list[float]:
        """The sweep's perturbation sizes, delta_min + k * delta_step up to delta_max:
        worked out exactly on the decimal forms (`repr`) of the three numbers, so that
        0.1 + 2 * 0.1 is 0.3, and rounded to the nearest float64 only then. An empty
        grid, one of more than MAX_DELTA_POINTS points, and one that float64 cannot hold
        (two points round to one float, or a point other than 0 rounds to 0) are refused."""
        lo, hi, step = (Fraction(repr(x)) for x in (self.delta_min, self.delta_max, self.delta_step))
        count = (hi - lo) // step + 1
        if count < 1:
            raise BadParameter(f"empty delta grid: delta_min={self.delta_min} delta_max={self.delta_max}")
        if count > MAX_DELTA_POINTS:
            raise BadParameter(
                f"delta_step={self.delta_step} from delta_min={self.delta_min} to "
                f"delta_max={self.delta_max} gives more than {MAX_DELTA_POINTS} grid points"
            )
        points = [lo + k * step for k in range(count)]
        grid = [float(p) for p in points]
        if any(a >= b for a, b in zip(grid, grid[1:])) or any(p and not d for p, d in zip(points, grid)):
            raise BadParameter(
                f"delta_step={self.delta_step} is below float64's resolution from delta_min="
                f"{self.delta_min} to delta_max={self.delta_max}: grid points would coincide or be 0"
            )
        return grid

    def hyperparams(self) -> agcn.AgcnHyperparams:
        """The training settings shared by all of `seeds`."""
        return agcn.AgcnHyperparams(
            leaky_slope=self.leaky_slope,
            learning_rate=self.learning_rate,
            iterations=self.iterations,
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
    top_k = whole_number(top_k, "top_k", 1)
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


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else "" if c is None else f"{c:.6g}" for c in row))
    return "\n".join(lines) + "\n"


_LANE = np.dtype("<i8")  # little-endian, so a lane's first text byte is its lowest


def _lanes(texts: list[str]) -> np.ndarray:
    """`texts` as rows of ASCII bytes, NUL-padded to a whole number of 8-byte lanes and
    viewed as `_LANE`s, which numpy gathers and copies faster than single bytes."""
    width = -(-max(map(len, texts), default=1) // 8) * 8  # no texts: a table of no rows
    return np.array(texts, f"S{width}").view(_LANE).reshape(len(texts), width // 8)


_G6_LANES = 3  # `_g6_lines`' 8-byte lanes per value
_G6_TIE_MARGIN = 1e-6  # a scaled value this near a rounding tie goes to Python: see `_g6_lines`
_G6_EXPONENTS = range(-302, 310)  # the decimal exponents `_g6_lines` formats itself


def _word_text(word: str, point: int, shown: int) -> str:
    """The 3-digit `word` up to its `shown`th digit and the one at `point`, with a
    decimal point after the one at `point` if a shown digit follows it."""
    text = word[: shown if shown > point else point + 1]
    return text[: point + 1] + "." + text[point + 1 :] if 0 <= point < shown - 1 else text


@functools.cache
def _g6_tables() -> tuple:
    """`_g6_lines`' tables, made on first use. Each is read at a key made of a value's
    exponent e (as e - min(_G6_EXPONENTS)), its six digits as two 3-digit words, or both:
    - the float64 nearest 10**(5 - e);
    - lane 0: the sign, then "0.", "0.0", "0.00" or "0.000" for e = -1..-4;
    - lane 1: the high word's text, plus the low word's text shifted into the upper half;
    - lane 2: "e+308" in exponent notation, then the newline.
    A word's text is `_word_text` of the word at `point`, the index of the digit before
    the decimal point (e; 0 in exponent notation; -1 below 1). The high table has a row
    per word, point -1..3 (3 for e >= 3, which leaves the point to the low word) and
    whether the low word is 0: then the word is shown up to its last nonzero digit,
    else whole (shown 4, so that "123." can end it); a high word of 1000, a carry,
    reads as 100. A low word's text is the high table's entry for it with a zero low
    word at point e - 3, clipped to -1..2, so the low table is a slice of the high one.
    """
    e = np.array(_G6_EXPONENTS)
    powers = np.array([float(f"1e{5 - k}") for k in _G6_EXPONENTS])
    point = np.where((e >= -4) & (e <= 5), np.maximum(e, -1), 0)  # the digit before the point
    high_key = 2 * (np.minimum(point, 3) + 1)  # + 10 * high word + (low word == 0)
    low_key = np.clip(point - 2, 0, 3)  # + 4 * low word
    words = [f"{w:03d}" for w in range(1000)] + ["100"]
    shown = ([4] * len(words), [len(w.rstrip("0")) for w in words])  # all; up to the last nonzero digit
    columns = ([_word_text(w, p, s) for w, s in zip(words, counts)] for p in range(-1, 4) for counts in shown)
    high = np.hstack([_lanes(texts) for texts in columns]).ravel()  # a column at a time, so few strings are held
    low = high.reshape(1001, 5, 2)[:1000, :4, 1].ravel() << 32
    prefix = [sign + ("0." + "0" * (-k - 1) if -4 <= k < 0 else "") for k in _G6_EXPONENTS for sign in ("", "-")]
    suffix = ["\n" if -4 <= k <= 5 else f"e{k:+03d}\n" for k in _G6_EXPONENTS]
    return powers, _lanes(prefix).ravel(), high, low, _lanes(suffix).ravel(), high_key, low_key


def _g6_lines(x: np.ndarray) -> np.ndarray:
    """`"%.6g\n" % v` of each float64 `v` in `x`, as `_G6_LANES` `_LANE`s of ASCII bytes
    with NULs in between: the text is what is left when they are dropped.

    A value's decimal exponent e is estimated from its binary one, k in |v| = m * 2**k
    with m in [1, 2), as floor(k * log10(2)): floor(log10 |v|) or one less. The scaled
    value s = |v| * 10**(5 - e) then corrects it once into [1e5, 1e6); rint(s) gives
    the six digits, and a rint of 1e6 carries into e. s is computed with two float64
    roundings, that of the power of 10 and that of the product, so it is within about
    3e-10 of the exact scaled value; wherever its fraction is more than
    `_G6_TIE_MARGIN` from 1/2, it rounds as the exact value does, and the digits are
    Python's correctly rounded ones.
    Every other value (0, not finite, near a tie, or with e outside `_G6_EXPONENTS`,
    so subnormal among others) is formatted by Python itself, in one call for the
    whole array.

    The lanes hold the sign and the "0.000" of fixed notation below 1, the text of
    each 3-digit word, and the "e+308" of exponent notation with the newline. The
    trailing zeros of the fraction are left out, and so is a point with nothing after it.
    """
    powers, prefix, high_text, low_text, suffix, high_key, low_key = _g6_tables()
    with np.errstate(all="ignore"):  # a value that is 0 or not finite goes to Python below
        a = np.abs(x)
        binary = (a.view(np.int64) >> 52) - 1023  # k, read from the exponent bits
        e = np.floor(binary * math.log10(2)).astype(np.int64) - _G6_EXPONENTS.start
        s = a * np.take(powers, e, mode="clip")
        e += s >= 1e6
        e -= s < 1e5  # s may round across 1e5 near a power of 10
        s = a * np.take(powers, e, mode="clip")
        d = np.rint(s)
        ok = (np.abs(s - d) < 0.5 - _G6_TIE_MARGIN) & (d >= 1e5) & (d <= 1e6)
        high = np.floor(d / 1000)  # exact: d is a whole number below 2**53
        low = (d - 1000 * high).astype(np.int64)
        high = high.astype(np.int64)
    del a, binary, s, d  # before the text is assembled, which a block's memory peaks at
    e += high == 1000  # rounded up to the next power of 10
    ok &= (e >= 0) & (e < len(powers))
    text = np.empty((len(x), _G6_LANES), _LANE)
    text[:, 0] = np.take(prefix, 2 * e + (x < 0), mode="clip")  # x is not -0.0 where ok
    text[:, 1] = np.take(high_text, 10 * high + np.take(high_key, e, mode="clip") + (low == 0), mode="clip")
    text[:, 1] += np.take(low_text, 4 * low + np.take(low_key, e, mode="clip"), mode="clip")
    text[:, 2] = np.take(suffix, e, mode="clip")
    bad = np.flatnonzero(~ok)
    if bad.size:
        texts = list(map("%.6g\n".__mod__, x[bad].tolist()))
        text[bad] = np.array(texts, f"S{8 * _G6_LANES}").view(_LANE).reshape(-1, _G6_LANES)
    return text


def _walk_csv(graph, rows: list):
    """The text of `walk_tree.csv`, in pieces: `_csv` of one (start, mid, end, w1, w2, product)
    row per walk, where w1 and w2 are the weights of its two edges, every number `%.6g`.
    `rows` gets each start node's `NstcRow` as its walks are formatted.

    Python formats each node index and each edge's (start, mid) pair once, and
    `_g6_lines` each edge's weight, into tables of NUL-padded 8-byte lanes (`_lanes`)
    read by node or edge id. The products are formatted by `_g6_lines` too: a value
    whose six scaled digits lie within `_G6_TIE_MARGIN` of a rounding tie, and one
    that is 0, subnormal or not finite, goes through Python's own `"%.6g"`, once per
    call for all of them. Each block of `walks.walk_blocks` becomes one array of lanes,
    a row per walk, whose NULs are then dropped. A block holds as many rows, and as
    much of the enumeration's mask, as fit in `graph.BLOCK_BYTES`, or one start node's:
    bounded in bytes, not rows, so that rows widened by long node indices or exponents
    keep the memory bound, while blocks stay large enough to amortise the few dozen
    numpy calls each one costs.
    """
    yield ",".join(WALK_COLUMNS) + "\n"
    weights, n = graph.weights, graph.n
    flat = weights.ravel()
    edges = np.flatnonzero(flat)
    edge_id = np.zeros(flat.size, np.int32)
    edge_id[edges] = np.arange(len(edges))
    nodes = ["%.6g" % k for k in range(n)]
    pair_text = _lanes([f"{nodes[e // n]},{nodes[e % n]}," for e in edges.tolist()])
    end_text = _lanes([f"{v}," for v in nodes])
    weight_text = _lanes([w + "," for w in _g6_lines(flat[edges]).tobytes().translate(None, b"\0").decode().split()])
    tables = (pair_text, end_text, weight_text, weight_text)
    lanes = np.cumsum([0, *(table.shape[1] for table in tables), _G6_LANES])
    for block, block_rows in walks.walk_blocks(graph, _graph.BLOCK_BYTES, _LANE.itemsize * lanes[-1]):
        rows += block_rows
        if not len(block):
            continue
        first, second = edge_id[block.start * n + block.mid], edge_id[block.mid * n + block.end]
        text = np.empty((len(block), lanes[-1]), _LANE)
        for table, key, start, stop in zip(tables, (first, block.end, first, second), lanes, lanes[1:]):
            text[:, start:stop] = np.take(table, key, axis=0)
        text[:, lanes[-2]:] = _g6_lines(block.product)
        text = text.tobytes()  # the lanes go before the copy is translated
        yield text.translate(None, b"\0").decode("ascii")


def _ranking(table: NodeScoreTable) -> dict:
    """The summary's per-node `scores` and 1-based `ranks` of a table."""
    return {
        "scores": list(table.scores),
        "ranks": [table.rank_of(node) for node in range(table.n)],
    }


def _run_attention(config: AnalysisConfig, graph, features, write) -> tuple:
    if config.perturb_node is not None:
        features = agcn.perturb_features(features, config.perturb_node, config.perturb_factor)
    trained = agcn.train_seeds(graph, features, graph.node_labels, config.hyperparams(), config.seeds)
    states = dict(zip(config.seeds, trained))
    tables = {seed: agcn.node_attention_scores(state.alpha) for seed, state in states.items()}
    converged = {seed: state.final_loss <= CONVERGENCE_LOSS for seed, state in states.items()}
    representative = next((s for s in config.seeds if converged[s]), config.seeds[0])
    state, table = states[representative], tables[representative]

    write(_csv(["iteration", "loss"], [[i, loss] for i, loss in enumerate(state.loss_history)]))
    write(_csv([f"to_{j}" for j in range(graph.n)], state.alpha.tolist()))
    write(_csv(["node", "score", "rank"], [[node, table.scores[node], table.rank_of(node)] for node in range(graph.n)]))
    return table, {
        "representative_seed": representative,
        "perturb_node": config.perturb_node,
        "perturb_factor": config.perturb_factor if config.perturb_node is not None else None,
        "alpha": state.alpha.tolist(),
        "seeds": {
            str(seed): {
                "initial_loss": s.loss_history[0],
                "final_loss": s.final_loss,
                "converged": converged[seed],
                "loss_history": s.loss_history,
                **_ranking(tables[seed]),
            }
            for seed, s in states.items()
        },
    }


def _run_spectral(config: AnalysisConfig, graph, features, write) -> tuple:
    table = spectral.perturbation_sweep(graph, config.delta_grid())
    cells = [dict(vars(table.cells[key])) for key in sorted(table.cells)]
    write(_csv(["node", "delta", "largest_negative_eigenvalue", "status"], [list(cell.values()) for cell in cells]))
    ranking = ranked_table("spectral", spectral.sweep_end_scores(table))
    return ranking, {"deltas": list(table.deltas), "cells": cells}


def _run_motifs(config: AnalysisConfig, graph, features, write) -> tuple:
    rows = [dict(vars(r)) for r in motifs.motif_table(graph)]
    write(_csv(["node", "w3", "w4", "w5", "w6", "total_cost"], [list(r.values()) for r in rows]))
    return ranked_table("motifs", [r["total_cost"] for r in rows]), {"rows": rows}


def _run_nstc(config: AnalysisConfig, graph, features, write) -> tuple:
    rows = []
    write(_walk_csv(graph, rows))  # fills `rows` as the walks are written
    table = ranked_table("nstc", [r.nstc for r in rows])
    write(_csv(["node", "n_paths", "nstc", "rank"], [[r.node, r.n_paths, r.nstc, table.rank_of(r.node)] for r in rows]))
    return table, {"rows": [dict(vars(r)) for r in rows]}


# Run order. Each runner maps (config, graph, features, write) to its ranking and
# summary fields. It hands `write`, the staged writer, each of its CSV files' texts
# in `ARTIFACTS` order: a string, or pieces formatted as they are written, which a
# later text may draw on. It does no I/O outside the staged writer.
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
    "nstc": ("walk_tree.csv", "nstc.csv"),
}


def run(config: AnalysisConfig) -> dict:
    """Run the configured methods, write artifacts, and return the summary.

    Writes one set of CSV artifacts per method plus summary.json into the
    output directory. Every number in the per-method CSVs appears in the
    summary, except the walk rows of `walk_tree.csv`: the summary gives their
    count per start node (`n_paths`), and the file alone lists them.
    Deterministic given the config.

    summary.json holds exactly `json.dumps(summary, indent=2, sort_keys=True)`.

    A `perturb_node` outside the graph, a model without labels with
    `attention` selected, and a graph past the motif work bound
    (`motifs.check_size`) are refused before any file or directory is written,
    and a directory where a file goes before any method runs or any file is
    written. Each method writes its CSVs under temporary names in the output
    directory as it runs (the walk rows a block at a time, the nstc scores
    found on the way); summary.json is encoded and written so once every CSV
    is. Only then are the CSVs of the methods not run removed (and no other
    file) and the files renamed into place, summary.json last. So no CSV of an
    earlier run outlives its summary, and a run that fails, even part way
    through the walk rows (an overflowing product in a late block), removes
    its temporary files and leaves the output directory's files as they were.
    A file that cannot be written or removed raises `BadParameter` naming
    `output_dir` and the file.
    """
    graph, features = load_model(config.model_path, config.variant)
    if config.perturb_node is not None:
        node = whole_number(config.perturb_node, "perturb_node", 0, graph.n - 1)
        config = replace(config, perturb_node=node)
    if "attention" in config.methods and graph.node_labels is None:
        raise BadParameter("model has no 'labels' field; the attention method needs targets")
    if "motifs" in config.methods:
        motifs.check_size(graph)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadParameter(f"output_dir {config.output_dir!r} cannot be created: {exc}") from exc

    selected = [method for method in METHODS if method in config.methods]
    names = [*(file for method in selected for file in ARTIFACTS[method]), "summary.json"]
    stale = [file for method in METHODS.keys() - selected for file in ARTIFACTS[method]]
    files, tmp, name = iter(names), {}, None  # tmp: each file written so far -> its temporary path

    def write(text) -> None:  # the staged writer: the next of `names`, under a temporary name
        nonlocal name
        name = next(files)
        tmp[name] = out / f".{name}.{os.getpid()}.tmp"
        with open(tmp[name], "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)

    tables, method_summaries = {}, {}
    try:
        # a directory in the way is the one rename or removal failure a user can cause
        for name in [*names, *stale]:
            if (out / name).is_dir():
                raise IsADirectoryError(f"{out / name} is a directory")
        for method in selected:
            tables[method], fields = METHODS[method](config, graph, features, write)
            method_summaries[method] = {**fields, **_ranking(tables[method])}
        summary = {"config": asdict(config), "n": graph.n, "methods": method_summaries}
        if len(tables) >= 2:
            summary["concordance"] = asdict(concordance(tables, config.top_k))
        write(json.dumps(summary, indent=2, sort_keys=True))
        for name in stale:
            (out / name).unlink(missing_ok=True)
        for name, path in tmp.items():  # summary.json, written last, goes in last
            os.replace(path, out / name)
    except OSError as exc:
        raise BadParameter(f"output_dir {config.output_dir!r}: cannot write or remove {name}: {exc}") from exc
    finally:
        for path in tmp.values():
            path.unlink(missing_ok=True)
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
            try:
                tables[name] = ranked_table(name, data["scores"])
            except BadParameter as exc:
                raise BadParameter(f"summary field 'methods.{name}.scores': {exc}") from exc
    return tables


def concordance_from_summary(summary: dict, top_k: int | None = None) -> ConcordanceReport:
    """Recompute the concordance report from a summary document."""
    tables = tables_from_summary(summary)
    if len(tables) < 2:
        raise BadParameter("summary holds fewer than two method score tables")
    if top_k is None:
        config = _json_object(summary.get("config", {}), "field 'config'")
        top_k = config.get("top_k", AnalysisConfig.top_k)
        whole_number(top_k, "summary field 'config.top_k'", 1)
    return concordance(tables, top_k)
