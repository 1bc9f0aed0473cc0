"""`report.run` with all four methods against the per-module oracles, on random
signed digraphs.

Training stacks seeds, cycle enumeration grows paths and the walk writer formats
rows in blocks of `graph.BLOCK_BYTES`, and no block size may change a bit of the
output. The budget is drawn from the default and 1 byte, which makes every block
one seed, one start node or one node's walks. Every CSV is rebuilt from the
oracles and must be the same text, and every number in summary.json must be `==`.
The one exception is the motif rows: they are `motif_table`'s, which `certified_rows`
checks against the scan oracle, within their certified radii (bit for bit where the
table falls back to enumeration), and the CSV, ranks and concordance built from them
must then be `==` too.
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

from netinstab import (
    AnalysisConfig,
    BadParameter,
    DivergedTraining,
    SignedWeightedDigraph,
    concordance,
    load_model,
    ranked_table,
    run,
)
from netinstab.graph import BLOCK_BYTES
from netinstab.report import CONVERGENCE_LOSS, WALK_COLUMNS, _csv
from netinstab.spectral import ZERO_RTOL
from conftest import random_signed_digraph_weights
from test_agcn import sequential_train
from test_motifs import certified_rows, exact_cost_radii
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
    motif_rows = [asdict(row) for row in certified_rows(graph)]
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


def analysis(d, name, weights, features, labels):
    model = Path(d) / f"{name}.json"
    doc = {"n": len(weights), "adjacency": weights.tolist(), "features": features.tolist(), "labels": labels.tolist()}
    model.write_text(json.dumps(doc))
    return run(AnalysisConfig(model_path=str(model), output_dir=str(Path(d) / name)))


def spectral_tolerances(w, delta):
    """Per node, twice the first-order bound on how far rounding moves an eigenvalue of
    the sweep's last cell: None where it may change which eigenvalue the score is.

    The computed eigenvalues of m are exact for a matrix within about n eps ||m||_F of
    m, taken 10 times over here, which moves each by that much times its condition
    number ||x|| ||y|| (x a column of V, y the matching row of V^-1). The score is the
    largest real part below -ZERO_RTOL u, for a unit u from max(1, ||m||_2) to
    max(1, ||m||_F); where an eigenvalue's real part is within its bound of that band,
    or V is singular, either labelling may pick another eigenvalue.
    """
    tolerances = []
    for node in range(len(w)):
        m = w.copy()
        m[:, node] += delta
        values, vecs = np.linalg.eig(m)
        try:
            with np.errstate(all="ignore"):  # a near-singular V: an unbounded condition
                condition = np.linalg.norm(np.linalg.inv(vecs), axis=1) * np.linalg.norm(vecs, axis=0)
        except np.linalg.LinAlgError:
            condition = np.full(len(w), np.inf)
        error = 10 * len(w) * np.finfo(float).eps * np.linalg.norm(m) * condition
        band = -ZERO_RTOL * max(1.0, np.linalg.norm(m)), -ZERO_RTOL * max(1.0, np.linalg.norm(m, 2))
        picked_either_way = ~np.isfinite(error) | (values.real + error >= band[0]) & (values.real - error <= band[1])
        tolerances.append(None if picked_either_way.any() else 2 * error.max())
    return tolerances


@given(
    n=st.integers(3, 9),
    graph_seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 0.6, 1.0]),
)
@settings(max_examples=15, deadline=None)
def test_relabelled_nodes_permute_every_score(n, graph_seed, density):
    """Relabelling the nodes by a permutation P, node i becoming P[i], permutes each
    method's scores the same way, within its tolerance, over the default 500 iterations:
    - motifs: the two costs' radii about the exact cost (`exact_cost_radii`);
    - nstc: a node's mean of N walk products is within gamma(N + 1) max |w|^2 of its
      exact value in either labelling, N < n^2;
    - spectral: `spectral_tolerances`, at the nodes where rounding cannot change which
      eigenvalue is picked: 836 of 897 nodes of 150 graphs of 3 to 9 nodes, where the
      largest difference seen was 0.021 times it;
    - attention: 1e-12 of the largest score, some 300 times the largest difference seen
      on the same graphs, 3.3e-15 of it.
    """
    rng = np.random.default_rng(graph_seed)
    w = random_signed_digraph_weights(rng, n, density)
    x, y, p = rng.uniform(-1.0, 1.0, (n, 2)), rng.random(n), rng.permutation(n)
    wp, xp, yp = np.empty_like(w), np.empty_like(x), np.empty_like(y)
    wp[np.ix_(p, p)], xp[p], yp[p] = w, x, y
    with tempfile.TemporaryDirectory() as d:
        try:
            before = analysis(d, "before", w, x, y)["methods"]
        except DivergedTraining:
            assume(False)
        after = analysis(d, "after", wp, xp, yp)["methods"]
    gamma = lambda k: k * 2.0**-53 / (1 - k * 2.0**-53)
    radii = exact_cost_radii(SignedWeightedDigraph(weights=w)), exact_cost_radii(SignedWeightedDigraph(weights=wp))
    tolerance = {
        "motifs": radii[0] + radii[1][p],
        "nstc": [2 * gamma(n * n + 1) * np.abs(w).max() ** 2] * n,
        "spectral": spectral_tolerances(w, AnalysisConfig().delta_grid()[-1]),
        "attention": [1e-12 * max(np.abs(before["attention"]["scores"]))] * n,
    }
    for method, fields in before.items():
        for node, (a, t) in enumerate(zip(fields["scores"], tolerance[method])):
            b = after[method]["scores"][p[node]]
            if t is not None:  # spectral's None: rounding may pick another eigenvalue
                assert (a is None) == (b is None) and (a is None or abs(a - b) <= t), (method, node, a, b, t)
