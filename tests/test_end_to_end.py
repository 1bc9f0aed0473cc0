"""`report.run` with all four methods against the per-module oracles, on random
signed digraphs.

Training stacks seeds, cycle enumeration grows paths and the walk writer formats
rows in blocks of `graph.BLOCK_BYTES`, and no block size may change a bit of the
output. The budget is drawn from the default and 1 byte, which makes every block
one seed, one start node or one node's walks. Every CSV is rebuilt from the
oracles and must be the same text, and every number in summary.json must be `==`.
"""
import json
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netinstab import AnalysisConfig, BadParameter, DivergedTraining, concordance, load_model, ranked_table, run
from netinstab.graph import BLOCK_BYTES
from netinstab.report import CONVERGENCE_LOSS, WALK_COLUMNS, _csv
from conftest import random_signed_digraph_weights
from test_agcn import sequential_train
from test_motifs import scan_oracle_table
from test_spectral import column_by_column_sweep
from test_walks import oracle_nstc, oracle_walk_rows


def ranking(table):
    return {"scores": list(table.scores), "ranks": [table.rank_of(node) for node in range(table.n)]}


def expected_run(config, graph, features):
    """Each CSV's text, by file name, and the summary that `run(config)` should give,
    from the oracles alone. Raises as the oracle training does on a refused model."""
    n, hyper = graph.n, config.hyperparams()
    states = {seed: sequential_train(graph, features, graph.node_labels, hyper, seed) for seed in config.seeds}
    attention = {seed: ranked_table("attention", state.alpha.mean(axis=0)) for seed, state in states.items()}
    converged = {seed: state.final_loss <= CONVERGENCE_LOSS for seed, state in states.items()}
    chosen = next((seed for seed in config.seeds if converged[seed]), config.seeds[0])
    state, table = states[chosen], attention[chosen]

    deltas = sorted({0.0, *config.delta_grid()})
    cells = column_by_column_sweep(graph, deltas)
    cell_rows = [asdict(cells[key]) for key in sorted(cells)]
    motif_rows = [asdict(row) for row in scan_oracle_table(graph)]
    nstc_rows = [oracle_nstc(graph.weights, node) for node in range(n)]
    tables = {
        "attention": table,
        "spectral": ranked_table("spectral", [cells[(node, deltas[-1])].value for node in range(n)]),
        "motifs": ranked_table("motifs", [row["total_cost"] for row in motif_rows]),
        "nstc": ranked_table("nstc", [row.nstc for row in nstc_rows]),
    }
    texts = {
        "loss_history.csv": _csv(["iteration", "loss"], list(enumerate(state.loss_history))),
        "alpha.csv": _csv([f"to_{j}" for j in range(n)], state.alpha.tolist()),
        "attention_scores.csv": _csv(
            ["node", "score", "rank"], [[node, table.scores[node], table.rank_of(node)] for node in range(n)]
        ),
        "spectral_sweep.csv": _csv(
            ["node", "delta", "largest_negative_eigenvalue", "status"], [list(row.values()) for row in cell_rows]
        ),
        "motif_costs.csv": _csv(["node", "w3", "w4", "w5", "w6", "total_cost"], [list(row.values()) for row in motif_rows]),
        "walk_tree.csv": _csv(list(WALK_COLUMNS), oracle_walk_rows(graph.weights)),
        "nstc.csv": _csv(
            ["node", "n_paths", "nstc", "rank"],
            [[row.node, row.n_paths, row.nstc, tables["nstc"].rank_of(row.node)] for row in nstc_rows],
        ),
    }
    seeds = {
        str(seed): {
            "initial_loss": s.loss_history[0],
            "final_loss": s.final_loss,
            "converged": converged[seed],
            "loss_history": s.loss_history,
            **ranking(attention[seed]),
        }
        for seed, s in states.items()
    }
    fields = {
        "attention": {
            "representative_seed": chosen,
            "perturb_node": None,
            "perturb_factor": None,
            "alpha": state.alpha.tolist(),
            "seeds": seeds,
        },
        "spectral": {"deltas": deltas, "cells": cell_rows},
        "motifs": {"rows": motif_rows},
        "nstc": {"rows": [asdict(row) for row in nstc_rows]},
    }
    summary = {
        "config": asdict(config),
        "n": n,
        "methods": {method: {**fields[method], **ranking(tables[method])} for method in tables},
        "concordance": asdict(concordance(tables, config.top_k)),
    }
    return texts, summary


@given(
    n=st.integers(1, 9),
    graph_seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    width=st.integers(1, 3),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3, unique=True),
    iterations=st.integers(1, 50),
    budget=st.sampled_from([BLOCK_BYTES, 1]),  # 1: a seed, a start node or a node's walks a block
)
@settings(max_examples=100, deadline=None)
def test_run_equals_the_oracles(n, graph_seed, density, width, seeds, iterations, budget):
    rng = np.random.default_rng(graph_seed)
    doc = {
        "n": n,
        "adjacency": random_signed_digraph_weights(rng, n, density).tolist(),
        "features": rng.uniform(-1.0, 1.0, (n, width)).tolist(),
        "labels": rng.random(n).tolist(),
    }
    with tempfile.TemporaryDirectory() as d:
        model = Path(d) / "model.json"
        model.write_text(json.dumps(doc))
        out = Path(d) / "out"
        config = AnalysisConfig(model_path=str(model), output_dir=str(out), seeds=seeds, iterations=iterations)
        try:
            texts, summary = expected_run(config, *load_model(model))
        except (BadParameter, DivergedTraining) as exc:  # the model cannot be trained
            with pytest.raises(type(exc)), mock.patch("netinstab.graph.BLOCK_BYTES", budget):
                run(config)
            assume(False)
        with mock.patch("netinstab.graph.BLOCK_BYTES", budget):
            run(config)
        assert {name: (out / name).read_text() for name in texts} == texts
        # == on every number: json keeps each float's repr, which round-trips exactly
        assert json.loads((out / "summary.json").read_text()) == json.loads(json.dumps(summary))
