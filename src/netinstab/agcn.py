"""Attention-enhanced graph convolution: embedding, pairwise attention,
degree-normalized convolution, and the heuristic training updates.

The pipeline, per forward pass:

1. Self-attention embedding. The feature matrix is weighted by its own Gram
   matrix (X X^T), then passed through LeakyReLU and a per-node softmax
   across features, giving embedded features Y'.
2. Pairwise attention. A learnable vector w_att of length 2F scores every
   ordered node pair through the concatenation (Y'_i || Y'_j); LeakyReLU then
   a per-source softmax across targets yields the attention matrix alpha.
3. Convolution. The self-looped weight matrix is symmetrically scaled by
   inverse square-root absolute-value row sums (signed weights make raw row
   sums unusable), multiplied entrywise by alpha, and applied to the
   features with a learnable F x 1 weight column. LeakyReLU then a
   softmax across the n nodes produces the prediction vector.

Training nudges both parameter blocks with delta-rule style updates built
from the prediction error and output*(1-output) derivative surrogates; it is
deliberately not an exact-gradient method. All softmax outputs are
nonnegative and sum to 1 along their axis to within 1e-9.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DivergedTraining
from .graph import FeatureMatrix, SignedWeightedDigraph
from .scores import NodeScoreTable, ranked_table

INIT_RANGE = 0.5  # both parameter blocks start uniform in [-INIT_RANGE, +INIT_RANGE]


@dataclass(frozen=True)
class AgcnHyperparams:
    leaky_slope: float = 0.01
    learning_rate: float = 0.5
    iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.leaky_slope < 1.0):
            raise BadParameter(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise BadParameter(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.iterations < 1:
            raise BadParameter(f"iterations must be >= 1, got {self.iterations}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise BadParameter(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class EmbeddingIntermediates:
    omega_self: np.ndarray  # X X^T, exactly symmetric
    y: np.ndarray  # omega_self X
    y_prime: np.ndarray  # row softmax of LeakyReLU(y); rows sum to 1


@dataclass
class AgcnState:
    w_att: np.ndarray  # attention parameters, length 2F
    w: np.ndarray  # convolution weights, F x 1
    alpha: np.ndarray  # attention coefficients, n x n, row-stochastic
    loss_history: list[float] = field(default_factory=list)
    y_pp: np.ndarray | None = None  # prediction vector, n x 1, sums to 1
    final_loss: float | None = None


def _leaky_relu(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z >= 0.0, z, slope * z)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def self_attention_embed(features: FeatureMatrix, hyper: AgcnHyperparams) -> EmbeddingIntermediates:
    """Gram-weighted feature averaging followed by LeakyReLU and a per-node softmax."""
    x = features.values
    if x.size == 0:
        raise BadParameter("feature matrix is empty")
    omega_self = x @ x.T
    y = omega_self @ x
    y_prime = _softmax_rows(_leaky_relu(y, hyper.leaky_slope))
    return EmbeddingIntermediates(omega_self=omega_self, y=y, y_prime=y_prime)


def pair_attention(
    embedding: EmbeddingIntermediates, w_att: np.ndarray, hyper: AgcnHyperparams
) -> np.ndarray:
    """Row-stochastic attention matrix from scored ordered node pairs.

    The raw score of pair (i, j) is w_att . (Y'_i || Y'_j) through LeakyReLU;
    row i is the softmax of its scores over all targets j, including j = i.
    """
    y_prime = embedding.y_prime
    n, f = y_prime.shape
    w_att = np.asarray(w_att, dtype=float).reshape(-1)
    if w_att.shape[0] != 2 * f:
        raise BadParameter(f"w_att must have length {2 * f}, got {w_att.shape[0]}")
    left = y_prime @ w_att[:f]
    right = y_prime @ w_att[f:]
    scores = _leaky_relu(left[:, None] + right[None, :], hyper.leaky_slope)
    return _softmax_rows(scores)


def normalize_adjacency(graph: SignedWeightedDigraph) -> np.ndarray:
    """Self-looped weight matrix scaled symmetrically by absolute-value row sums.

    Returns D^{-1/2} (A + I) D^{-1/2} with D_ii = sum_j |A + I|_ij. Absolute
    values keep the scaling real on signed weights; D_ii >= 1 always holds
    because of the added identity.
    """
    a_tilde = graph.weights + np.eye(graph.n)
    d = np.abs(a_tilde).sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]


def _forward(a_hat, alpha, x, w, hyper) -> tuple[np.ndarray, np.ndarray]:
    masked = a_hat * alpha
    logits = _leaky_relu(masked @ x @ w, hyper.leaky_slope)
    y_pp = _softmax_rows(logits.reshape(1, -1)).reshape(-1, 1)  # softmax across nodes
    return y_pp, masked


def forward(
    graph: SignedWeightedDigraph,
    features: FeatureMatrix,
    state: AgcnState,
    hyper: AgcnHyperparams,
) -> np.ndarray:
    """Prediction vector (n x 1, summing to 1) from the state's alpha and weights."""
    x = features.values
    n, f = x.shape
    if n != graph.n:
        raise BadParameter(f"features have {n} rows for a graph with n={graph.n}")
    if state.alpha.shape != (n, n):
        raise BadParameter(f"alpha must be {n}x{n}, got {state.alpha.shape}")
    w = np.asarray(state.w, dtype=float)
    if w.size != f:
        raise BadParameter(f"w must be {f}x1, got shape {w.shape}")
    w = w.reshape(f, 1)
    a_hat = normalize_adjacency(graph)
    y_pp, _ = _forward(a_hat, state.alpha, x, w, hyper)
    return y_pp


def train(
    graph: SignedWeightedDigraph,
    features: FeatureMatrix,
    targets,
    hyper: AgcnHyperparams,
) -> AgcnState:
    """Fit the attention and convolution weights to per-node targets.

    Both parameter blocks start uniform in [-INIT_RANGE, +INIT_RANGE] from the
    seed. Each iteration runs the full forward pass at the current parameters,
    records the mean squared error, then applies the two updates:

    * convolution: w += mu * ((err^T (M_X * (1 - M_X)))^T) with
      M_X = (A_hat * alpha) X, err = targets - prediction;
    * attention: per-node contributions G = Y'(1 - Y') * mu * err * X are
      concatenated over the ordered pairs (i, j) connected in the self-looped
      weight matrix and summed, normalized by 2n, and added to w_att.

    The returned state carries the post-training alpha and prediction, the
    loss at the final parameters, and one recorded loss per iteration (each
    measured before that iteration's update). learning_rate = 0 leaves both
    parameter blocks exactly at their initial values.
    """
    x = features.values
    n, f = x.shape
    if n != graph.n:
        raise BadParameter(f"features have {n} rows for a graph with n={graph.n}")
    y_target = np.asarray(targets, dtype=float).reshape(-1)
    if y_target.shape[0] != n:
        raise BadParameter(f"targets must have length {n}, got {y_target.shape[0]}")
    y_target = y_target.reshape(-1, 1)
    mu = hyper.learning_rate

    rng = np.random.default_rng(hyper.seed)
    w_att = rng.uniform(-INIT_RANGE, INIT_RANGE, size=2 * f)
    w = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(f, 1))

    a_hat = normalize_adjacency(graph)
    a_tilde = graph.weights + np.eye(n)
    pair_src, pair_dst = np.nonzero(a_tilde)
    embedding = self_attention_embed(features, hyper)
    y_prime = embedding.y_prime
    deriv_prime = y_prime * (1.0 - y_prime)

    losses: list[float] = []
    # runaway parameters are caught through the loss check, so numpy's own
    # overflow warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(hyper.iterations):
            alpha = pair_attention(embedding, w_att, hyper)
            y_pp, masked = _forward(a_hat, alpha, x, w, hyper)
            err = y_target - y_pp
            loss = float((err**2).mean())
            if not np.isfinite(loss):
                raise DivergedTraining(iteration)
            losses.append(loss)

            m_x = masked @ x
            w = w + mu * (err.T @ (m_x * (1.0 - m_x))).T
            g = deriv_prime * (mu * err) * x
            z = np.concatenate([g[pair_src], g[pair_dst]], axis=1).sum(axis=0) / (2.0 * n)
            w_att = w_att + z

        alpha = pair_attention(embedding, w_att, hyper)
        y_pp, _ = _forward(a_hat, alpha, x, w, hyper)
        final_loss = float(((y_target - y_pp) ** 2).mean())
    if not np.isfinite(final_loss):
        raise DivergedTraining(hyper.iterations)
    return AgcnState(
        w_att=w_att,
        w=w,
        alpha=alpha,
        loss_history=losses,
        y_pp=y_pp,
        final_loss=final_loss,
    )


def perturb_features(features: FeatureMatrix, node: int, factor: float = 2.0) -> FeatureMatrix:
    """Copy of the feature table with one node's feature row multiplied by factor."""
    x = features.values.copy()
    if not (0 <= node < x.shape[0]):
        raise BadParameter(f"perturb node {node} outside feature table with {x.shape[0]} rows")
    x[node, :] *= factor
    return FeatureMatrix(values=x)


def node_attention_scores(alpha: np.ndarray) -> NodeScoreTable:
    """Per-node mean of the attention it receives (alpha's column means), ranked."""
    alpha = np.asarray(alpha, dtype=float)
    return ranked_table("attention", alpha.mean(axis=0))
