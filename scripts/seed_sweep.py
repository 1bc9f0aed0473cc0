#!/usr/bin/env python3
"""Train the attention model across seeds, with and without feature perturbation,
and print per-seed convergence, cluster separation, and top-attention nodes.
Each scenario trains all its seeds in one `train_seeds` batch."""
import argparse

import numpy as np

from netinstab import AgcnHyperparams, load_model, node_attention_scores, train_seeds
from netinstab.agcn import perturb_features
from netinstab.report import CONVERGENCE_LOSS, AnalysisConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--iters", type=int, default=AgcnHyperparams.iterations)
    ap.add_argument("--perturb-node", type=int, default=0)
    ap.add_argument("--perturb-factor", type=float, default=AnalysisConfig.perturb_factor)
    args = ap.parse_args()

    graph, features = load_model("piezo", "appendix")
    labels = graph.node_labels
    high = [i for i in range(graph.n) if labels[i] == labels.max()]
    low = [i for i in range(graph.n) if labels[i] == labels.min()]

    scenarios = {
        "plain": features,
        "perturbed": perturb_features(features, args.perturb_node, args.perturb_factor),
    }
    for name, feats in scenarios.items():
        print(f"--- scenario: {name} ---")
        print(f"{'seed':>4} {'initial':>9} {'final':>9} {'conv':>5} {'sep':>5}  top-2")
        states = train_seeds(graph, feats, labels, AgcnHyperparams(iterations=args.iters), args.seeds)
        for seed, state in zip(args.seeds, states):
            pred = state.y_pp[:, 0]
            sep = pred[high].min() > pred[low].max()
            top2 = sorted(node_attention_scores(state.alpha).top(2))
            print(
                f"{seed:>4} {state.loss_history[0]:>9.5f} {state.final_loss:>9.5f} "
                f"{str(state.final_loss <= CONVERGENCE_LOSS):>5} {str(sep):>5}  {top2}"
            )


if __name__ == "__main__":
    main()
