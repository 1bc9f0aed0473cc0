"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (the -s shows the per-criterion
lines even when everything is green).
"""
import json
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from netinstab import (
    AgcnHyperparams,
    AnalysisConfig,
    SignedWeightedDigraph,
    concordance,
    enumerate_simple_cycles,
    eigenvalues,
    load_model,
    motif_table,
    node_attention_scores,
    nstc_table,
    perturb_column,
    perturbation_sweep,
    train,
    two_step_walks,
)
from netinstab.agcn import normalize_adjacency, pair_attention, perturb_features, self_attention_embed
from netinstab.graph import FeatureMatrix
from netinstab.walks import nstc_ranking
from conftest import random_signed_digraph_weights
from test_motifs import REFERENCE_MOTIF_TABLE, oracle_cycles
from test_walks import APPENDIX_NSTC, oracle_walks

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "spectral_piezo_reference.json").read_text()
)

HIGH_CLUSTER = [1, 2, 5, 6]
LOW_CLUSTER = [0, 3, 4, 7]
SEEDS = range(10)
CONVERGENCE_BAR = 0.005


def _report(name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def piezo_model():
    return load_model("piezo", "appendix")


@pytest.fixture(scope="module")
def trained_runs(piezo_model):
    """Training results for seeds 0..9 in both feature scenarios."""
    graph, features = piezo_model
    scenarios = {
        "plain": features,
        "perturbed": perturb_features(features, 0, 2.0),
    }
    runs = {}
    for name, feats in scenarios.items():
        for seed in SEEDS:
            state = train(graph, feats, graph.node_labels, AgcnHyperparams(), seed)
            runs[(name, seed)] = state
    return runs


def test_criterion_1_motif_table_reproduction(piezo_model):
    """Every reference per-node motif score (8 nodes x 5 columns) within 0.01."""
    graph, _ = piezo_model
    start = time.perf_counter()
    rows = motif_table(graph)
    elapsed = time.perf_counter() - start
    deviations = []
    for row in rows:
        got = (row.w3, row.w4, row.w5, row.w6, row.total_cost)
        for g, e in zip(got, REFERENCE_MOTIF_TABLE[row.node]):
            deviations.append(abs(g - e))
    ok = max(deviations) <= 0.01 and elapsed < 10.0
    _report(
        "1 motif-cost table",
        ok,
        f"max deviation {max(deviations):.4f}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_walk_scores_reproduction(piezo_model):
    """All eight walk scores within 1e-3; path counts for nodes 2, 3, 7 exact."""
    graph, _ = piezo_model
    start = time.perf_counter()
    rows = nstc_table(graph)
    elapsed = time.perf_counter() - start
    value_ok = all(abs(rows[k].nstc - APPENDIX_NSTC[k]) <= 1e-3 for k in range(8))
    counts_ok = (
        len(two_step_walks(graph, 2)) == 8
        and len(two_step_walks(graph, 3)) == 10
        and len(two_step_walks(graph, 7)) == 10
    )
    ok = value_ok and counts_ok and elapsed < 1.0
    _report(
        "2 walk-score table",
        ok,
        f"values {[round(r.nstc, 4) for r in rows]}, runtime {elapsed:.3f}s",
    )


def test_criterion_3_spectral_drive_to_zero(piezo_model):
    """Nodes 2 and 6 strictly approach zero and end closest; matches archive at 1e-8."""
    graph, _ = piezo_model
    table = perturbation_sweep(graph, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    monotone = all(
        all(b > a for a, b in zip(table.trajectory(j)[1:], table.trajectory(j)[2:]))
        for j in (2, 6)
    )
    end = {j: table.value(j, 3.0) for j in range(8)}
    closest_two = set(sorted(end, key=lambda j: -end[j])[:2])
    archive_ok = all(
        abs(got - exp) <= 1e-8
        for node_str, expected in REFERENCE["trajectories"].items()
        for got, exp in zip(table.trajectory(int(node_str)), expected)
    )
    ok = monotone and closest_two == {2, 6} and archive_ok
    _report(
        "3 spectral sweep",
        ok,
        f"monotone(2,6)={monotone}, closest={sorted(closest_two)}, archive={archive_ok}",
    )


def test_criterion_4_training_convergence(trained_runs):
    """>= 8 of 10 seeds reach final MSE <= 0.005 in each scenario; loss always drops."""
    converged = {"plain": 0, "perturbed": 0}
    all_decreased = True
    for (scenario, seed), state in trained_runs.items():
        if state.final_loss <= CONVERGENCE_BAR:
            converged[scenario] += 1
        if not state.final_loss < state.loss_history[0]:
            all_decreased = False
    ok = converged["plain"] >= 8 and converged["perturbed"] >= 8 and all_decreased
    _report(
        "4 training convergence",
        ok,
        f"converged plain {converged['plain']}/10, perturbed {converged['perturbed']}/10, "
        f"loss decreased for all: {all_decreased}",
    )


def test_criterion_5_cluster_separation(trained_runs):
    """Every converged run separates the label clusters; predictions sum to 1."""
    checked = 0
    failures = []
    for (scenario, seed), state in trained_runs.items():
        pred = state.y_pp[:, 0]
        if abs(pred.sum() - 1.0) > 1e-9:
            failures.append((scenario, seed, "sum", float(pred.sum())))
        if state.final_loss > CONVERGENCE_BAR:
            continue
        checked += 1
        if not pred[HIGH_CLUSTER].min() > pred[LOW_CLUSTER].max():
            failures.append((scenario, seed, "overlap", pred.round(3).tolist()))
    ok = not failures and checked > 0
    _report("5 cluster separation", ok, f"checked {checked} converged runs, failures: {failures}")


def test_criterion_6_attention_top2_and_agreement(piezo_model, trained_runs):
    """{2, 6} is the attention top-2 for most seeds; agreement with the
    stability rankings is perfect at k=2 for a converged seed."""
    graph, _ = piezo_model
    per_seed = {}
    for seed in SEEDS:
        state = trained_runs[("plain", seed)]
        table = node_attention_scores(state.alpha)
        per_seed[seed] = {
            "top2": sorted(table.top(2)),
            "rank_2": table.rank_of(2),
            "rank_6": table.rank_of(6),
            "converged": state.final_loss <= CONVERGENCE_BAR,
        }
    hits = sum(1 for rec in per_seed.values() if rec["top2"] == [2, 6])
    majority = hits > len(per_seed) / 2

    passing_seed = next(
        (s for s in SEEDS if per_seed[s]["converged"] and per_seed[s]["top2"] == [2, 6]), None
    )
    jaccards = {}
    if passing_seed is not None:
        tables = {
            "attention": node_attention_scores(trained_runs[("plain", passing_seed)].alpha),
            "motifs": __import__("netinstab").ranked_table(
                "motifs", [r.total_cost for r in motif_table(graph)]
            ),
            "nstc": nstc_ranking(graph),
        }
        report = concordance(tables, top_k=2)
        jaccards = {
            "motifs": report.pairs["attention|motifs"].top_k_jaccard,
            "nstc": report.pairs["attention|nstc"].top_k_jaccard,
        }
    agreement_ok = jaccards.get("motifs") == 1.0 and jaccards.get("nstc") == 1.0

    seed_table = "\n".join(
        f"  seed {s}: top2={rec['top2']} rank(2)={rec['rank_2']} rank(6)={rec['rank_6']} "
        f"converged={rec['converged']}"
        for s, rec in per_seed.items()
    )
    ok = majority and agreement_ok
    _report(
        "6 attention top-2",
        ok,
        f"{hits}/10 seeds with top2={{2,6}}, jaccard vs motifs/nstc: {jaccards}\n{seed_table}",
    )


def test_criterion_7a_cycle_oracle():
    """Exact cycle enumeration equals the brute-force permutation oracle."""
    rng = np.random.default_rng(20240811)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(3, 8))
        graph = SignedWeightedDigraph(
            weights=random_signed_digraph_weights(rng, n, density=float(rng.uniform(0.2, 0.7)))
        )
        k = int(rng.integers(3, 7))
        got = {c.nodes: c.weight_product for c in enumerate_simple_cycles(graph, k)}
        if got != oracle_cycles(graph.weights, k):
            mismatches += 1
    _report("7a cycle enumeration oracle", mismatches == 0, f"{mismatches} mismatches in 200 graphs")


def test_criterion_7b_walk_oracle():
    """Two-step walk enumeration equals the triple-loop oracle, in order."""
    rng = np.random.default_rng(20240812)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        graph = SignedWeightedDigraph(
            weights=random_signed_digraph_weights(rng, n, density=float(rng.uniform(0.2, 0.8)))
        )
        for start in range(n):
            got = [(w.start, w.mid, w.end, w.w1, w.w2) for w in two_step_walks(graph, start)]
            if got != oracle_walks(graph.weights, start):
                mismatches += 1
    _report("7b walk enumeration oracle", mismatches == 0, f"{mismatches} mismatches in 200 graphs")


def test_criterion_7c_eigensolver_properties():
    """Trace, determinant, and conjugate-closure identities on 1000 random matrices."""
    rng = np.random.default_rng(20240813)
    worst_trace, worst_det, worst_conj = 0.0, 0.0, 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        m = rng.uniform(-3, 3, size=(n, n))
        scale = max(1.0, float(np.linalg.norm(m, 2)))
        es = eigenvalues(m)
        vals = np.array(es.values)

        trace_err = abs(vals.sum() - np.trace(m)) / (1e-6 * scale)
        worst_trace = max(worst_trace, trace_err)

        det = float(np.linalg.det(m))
        prod = complex(np.prod(vals))
        denom = max(abs(det), abs(prod))
        det_err = abs(prod - det) / (1e-6 * denom) if denom > 0 else 0.0
        worst_det = max(worst_det, det_err)

        remaining = list(vals.conj())
        pair_err = 0.0
        for v in vals:
            dists = [abs(v - r) for r in remaining]
            idx = int(np.argmin(dists))
            pair_err = max(pair_err, dists[idx])
            remaining.pop(idx)
        worst_conj = max(worst_conj, pair_err / (1e-9 * scale))

    ok = worst_trace <= 1.0 and worst_det <= 1.0 and worst_conj <= 1.0
    _report(
        "7c eigensolver properties",
        ok,
        f"worst trace/det/conjugacy error (fraction of tolerance): "
        f"{worst_trace:.3g}/{worst_det:.3g}/{worst_conj:.3g}",
    )


def test_criterion_8_invariance_suites(piezo_model, trained_runs):
    """Softmax normalization, identity perturbation, zero-step no-op,
    positive-scaling laws, and permutation equivariance."""
    graph, features = piezo_model
    rng = np.random.default_rng(20240814)
    checks = {}

    # softmax normalization along every declared axis
    hyper = AgcnHyperparams()
    e = self_attention_embed(features, hyper)
    alpha = pair_attention(e, rng.uniform(-1, 1, 6), hyper)
    state = trained_runs[("plain", 0)]
    checks["softmax"] = (
        np.allclose(e.y_prime.sum(axis=1), 1.0, atol=1e-9)
        and np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        and abs(state.y_pp.sum() - 1.0) <= 1e-9
        and np.allclose(state.alpha.sum(axis=1), 1.0, atol=1e-9)
    )

    # perturb_column with delta=0 is the identity
    checks["perturb_identity"] = all(
        np.array_equal(perturb_column(graph, j, 0.0).weights, graph.weights) for j in range(8)
    )

    # zero learning rate leaves parameters exactly at their seeded initialization
    zero = train(graph, features, graph.node_labels, AgcnHyperparams(iterations=10, learning_rate=0.0), 4)
    r = np.random.default_rng(4)
    checks["zero_step_noop"] = np.array_equal(
        zero.w_att, r.uniform(-0.5, 0.5, 6)
    ) and np.array_equal(zero.w, r.uniform(-0.5, 0.5, (3, 1)))

    # positive scaling: per-length motif scores scale as c^k, total as c^6,
    # walk scores as c^2, and both rankings are unchanged
    c = 1.7
    w = random_signed_digraph_weights(rng, 6, density=0.6)
    g1, gc = SignedWeightedDigraph(weights=w), SignedWeightedDigraph(weights=c * w)
    base_m, scaled_m = motif_table(g1), motif_table(gc)
    scaling_ok = True
    for b, s in zip(base_m, scaled_m):
        for k, (bw, sw) in enumerate([(b.w3, s.w3), (b.w4, s.w4), (b.w5, s.w5), (b.w6, s.w6)], 3):
            scaling_ok &= np.isclose(sw, c**k * bw, rtol=1e-9, atol=1e-12)
        scaling_ok &= np.isclose(s.total_cost, c**6 * b.total_cost, rtol=1e-8, atol=1e-12)
    base_w, scaled_w = nstc_table(g1), nstc_table(gc)
    for b, s in zip(base_w, scaled_w):
        scaling_ok &= np.isclose(s.nstc, c**2 * b.nstc, rtol=1e-9, atol=1e-12)
    scaling_ok &= nstc_ranking(g1).order == nstc_ranking(gc).order
    order = lambda rows: sorted(range(len(rows)), key=lambda v: (-rows[v].total_cost, v))
    scaling_ok &= order(base_m) == order(scaled_m)
    checks["scaling_laws"] = bool(scaling_ok)

    # permutation equivariance of the forward pass
    from netinstab import AgcnState, forward

    w_att = rng.uniform(-0.5, 0.5, 6)
    wmat = rng.uniform(-0.5, 0.5, (3, 1))
    alpha1 = pair_attention(self_attention_embed(features, hyper), w_att, hyper)
    y1 = forward(graph, features, AgcnState(w_att=w_att, w=wmat, alpha=alpha1), hyper)
    perm = rng.permutation(8)
    p = np.eye(8)[perm]
    graph_p = SignedWeightedDigraph(weights=p @ graph.weights @ p.T)
    features_p = FeatureMatrix(values=p @ features.values)
    alpha2 = pair_attention(self_attention_embed(features_p, hyper), w_att, hyper)
    y2 = forward(graph_p, features_p, AgcnState(w_att=w_att, w=wmat, alpha=alpha2), hyper)
    equivariant = np.allclose(y2[:, 0], y1[perm, 0], atol=1e-12) and all(
        np.isclose(alpha2[i, j], alpha1[perm[i], perm[j]], atol=1e-12)
        for i in range(8)
        for j in range(8)
    )
    checks["permutation_equivariance"] = bool(equivariant)

    ok = all(checks.values())
    _report("8 invariance suites", ok, ", ".join(f"{k}={v}" for k, v in checks.items()))
