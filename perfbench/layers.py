"""The netinstab module boundaries the traced run wraps, and the per-layer
metrics derived from one analysis's spans and counts.

Each wrapper patches the attribute that callers look up at call time:
`report.run` calls `load_model` and `concordance` through its own module
globals, and calls the other layers as `agcn.train`, `spectral.*` and so on;
inside a layer, `perturbation_sweep` looks up `eigenvalues`, `motif_table`
looks up `enumerate_simple_cycles`, `nstc_ranking` looks up `nstc_table`, and
`nstc` and `all_walks` look up `two_step_walks`, each in its own module.
"""
from __future__ import annotations

import time
from statistics import median

import numpy as np

from spans import Tracer, summarize

MOTIF_LENGTHS = (3, 4, 5, 6)


class Boundaries:
    """Installs and removes the wrappers; keeps the sweep's matrices once."""

    def __init__(self, netinstab_modules):
        self.m = netinstab_modules
        self.tracer = Tracer()
        self.capture = False  # keep the next analysis's eigen-solve inputs
        self.matrices: list[np.ndarray] = []

    def install(self) -> None:
        m, t = self.m, self.tracer
        t.wrap(m.report, "run", "report.run")
        t.wrap(m.report, "load_model", "graph.load_model", on_result=_graph_size)
        t.wrap(m.agcn, "train", "agcn.train", on_result=self._training)
        t.wrap(m.agcn, "node_attention_scores", "agcn.node_attention_scores")
        t.wrap(m.spectral, "perturbation_sweep", "spectral.sweep", on_result=_sweep_cells)
        t.wrap(m.spectral, "eigenvalues", "spectral.eigenvalues", on_result=self._keep_matrix)
        t.wrap(m.spectral, "sweep_end_scores", "spectral.sweep_end_scores")
        t.wrap(m.motifs, "motif_table", "motifs.table")
        t.wrap(
            m.motifs,
            "enumerate_simple_cycles",
            "motifs.enumerate",
            label=lambda args, kwargs: f".k{args[1]}",
            on_result=_cycles,
        )
        t.wrap(m.walks, "nstc_table", "walks.nstc_table")
        t.wrap(m.walks, "nstc_ranking", "walks.nstc_ranking")
        t.wrap(m.walks, "all_walks", "walks.all_walks", on_result=_walks)
        t.wrap(m.walks, "two_step_walks", "walks.two_step_walks", span=False)
        t.wrap(m.report, "concordance", "scores.concordance")

    def remove(self) -> None:
        self.tracer.restore()

    def _training(self, tracer, args, kwargs, state) -> None:
        tracer.count("agcn.train_calls")
        tracer.count("agcn.iterations", len(state.loss_history))
        tracer.count("agcn.converged", state.final_loss <= self.m.report.CONVERGENCE_LOSS)

    def _keep_matrix(self, tracer, args, kwargs, result) -> None:
        if self.capture:
            self.matrices.append(np.array(args[0], dtype=float))

    def eigvals_floor(self, repeats: int = 3) -> float:
        """Median seconds for bare `np.linalg.eigvals` on one analysis's matrices."""
        if not self.matrices:
            return 0.0
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for matrix in self.matrices:
                np.linalg.eigvals(matrix)
            times.append(time.perf_counter() - start)
        return median(times)

    def metrics(self, analysis: int) -> dict[str, float]:
        """Per-layer values for one traced analysis, before artifact sizes."""
        inclusive, own = summarize(self.tracer.spans, analysis)
        counts = self.tracer.counts.get(analysis, {})

        def get(key: str) -> float:
            return float(counts.get(key, 0))

        calls = get("agcn.train_calls")
        iterations = get("agcn.iterations")
        cycles = sum(get(f"motifs.cycles.k{k}") for k in MOTIF_LENGTHS)
        enumerate_s = {k: inclusive[f"motifs.enumerate.k{k}"] for k in MOTIF_LENGTHS}
        n = get("graph.n")
        out = {
            "graph.load_model_s": inclusive["graph.load_model"],
            "agcn.train_s": inclusive["agcn.train"],
            "agcn.train_calls": calls,
            "agcn.iter_us": 1e6 * inclusive["agcn.train"] / iterations if iterations else 0.0,
            "agcn.converged_frac": get("agcn.converged") / calls if calls else 0.0,
            "spectral.sweep_s": inclusive["spectral.sweep"],
            "spectral.eigenvalues_s": inclusive["spectral.eigenvalues"],
            "spectral.cells": get("spectral.cells"),
            "spectral.cells_failed": get("spectral.cells_failed"),
            "spectral.cells_no_negative": get("spectral.cells_no_negative"),
            "motifs.table_s": inclusive["motifs.table"],
            "motifs.score_s": inclusive["motifs.table"] - sum(enumerate_s.values()),
            "motifs.imbalanced_frac": get("motifs.imbalanced") / cycles if cycles else 0.0,
            "walks.nstc_table_s": inclusive["walks.nstc_table"],
            "walks.nstc_ranking_s": own["walks.nstc_ranking"],
            "walks.all_walks_s": inclusive["walks.all_walks"],
            "walks.walks": get("walks.walks"),
            "walks.enumerations_per_node": get("walks.two_step_walks") / n if n else 0.0,
            "scores.concordance_s": inclusive["scores.concordance"],
            "report.self_s": own["report.run"],
        }
        for k in MOTIF_LENGTHS:
            out[f"motifs.enumerate_s.k{k}"] = enumerate_s[k]
            out[f"motifs.cycles.k{k}"] = get(f"motifs.cycles.k{k}")
        return out


def _graph_size(tracer, args, kwargs, result) -> None:
    tracer.count("graph.n", result[0].n)


def _sweep_cells(tracer, args, kwargs, table) -> None:
    for cell in table.cells.values():
        tracer.count("spectral.cells")
        if cell.status != "ok":
            tracer.count(f"spectral.cells_{cell.status}")


def _cycles(tracer, args, kwargs, cycles) -> None:
    tracer.count(f"motifs.cycles.k{args[1]}", len(cycles))
    tracer.count("motifs.imbalanced", sum(c.imbalanced for c in cycles))


def _walks(tracer, args, kwargs, walks) -> None:
    tracer.count("walks.walks", len(walks))
