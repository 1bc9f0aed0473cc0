"""netinstab: attention scores and instability rankings for signed weighted digraphs.

Given a signed weighted digraph with node features and labels, the package
computes per-node attention scores from an attention-enhanced graph
convolutional network and per-node instability scores from three independent
analyses (eigenvalue drift under column perturbation, imbalanced directed
cycles, two-step walk transition costs), then ranks nodes and measures how
well the attention ranking agrees with each instability ranking.
"""
from .agcn import (
    AgcnHyperparams,
    AgcnState,
    EmbeddingIntermediates,
    forward,
    node_attention_scores,
    normalize_adjacency,
    pair_attention,
    perturb_features,
    self_attention_embed,
    train,
    train_seeds,
)
from .errors import (
    BadMatrix,
    BadNode,
    BadParameter,
    DivergedTraining,
    MalformedModel,
    NetinstabError,
    NumericalFailure,
    TooLarge,
)
from .graph import (
    FeatureMatrix,
    SignedWeightedDigraph,
    fixture_path,
    load_model,
    model_from_dict,
    model_to_dict,
    perturb_column,
    save_model,
    total_degree,
)
from .motifs import (
    DirectedCycle,
    MotifScoreRow,
    enumerate_simple_cycles,
    imbalanced_motif_score,
    motif_table,
    total_cost,
)
from .report import AnalysisConfig, ConcordanceReport, concordance, run
from .scores import NodeScoreTable, ranked_table, spearman_rho, top_k_jaccard
from .spectral import (
    EigenSet,
    PerturbationSweepTable,
    eigenvalues,
    largest_negative_eigenvalue,
    perturbation_sweep,
)
from .walks import NstcRow, TwoStepWalk, nstc, nstc_ranking, nstc_table, two_step_walks

__version__ = "0.1.0"
