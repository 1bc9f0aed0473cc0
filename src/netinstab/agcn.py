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

Training seeds run together in one loop (`train_seeds`), in blocks of as
many seeds as keep each stacked array under about BLOCK_BYTES. On small
graphs such as the paper's 8-node model every seed is in one block, which
saves numpy's per-call overhead; from about n = 360 on a block holds one
seed, so memory does not grow with the number of seeds. Within a block
the parameters carry a leading seed axis, and the masked adjacency
A_hat * alpha, the products (A_hat * alpha) X w and M_X, the prediction
softmax, both updates and the loss are stacked arrays over the seeds. A
seed's results do not depend on its block: numpy runs a stacked matmul as the
same BLAS call per seed that one seed's product makes, and every reduction
adds along the same contiguous axis in the same order, so each seed's
parameters, losses and outputs are bit for bit those of training it alone.
The attention projections Y' w_att[:F] and Y' w_att[F:] stay one
matrix-vector product (gemv) per seed, stacked the same way: Y' times all
seeds' parameters as one F x S matrix would be a gemm, which rounds
differently and moves alpha by up to 2.8e-16.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadParameter, DivergedTraining
from .graph import FeatureMatrix, SignedWeightedDigraph
from .scores import NodeScoreTable, ranked_table

INIT_RANGE = 0.5  # both parameter blocks start uniform in [-INIT_RANGE, +INIT_RANGE]
BLOCK_BYTES = 1 << 20  # train_seeds stacks seeds up to about this size per array


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
    """Gram-weighted feature averaging followed by LeakyReLU and a per-node softmax.

    Raises `BadParameter` naming the features when X X^T, Y or Y' is not
    finite: Y is cubic in the features, so entries past about 5e102 overflow
    float64.
    """
    x = features.values
    if x.size == 0:
        raise BadParameter("feature matrix is empty")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        omega_self = x @ x.T
        y = omega_self @ x
        y_prime = _softmax_rows(_leaky_relu(y, hyper.leaky_slope))
    for name, value in (("X X^T", omega_self), ("Y = X X^T X", y), ("Y'", y_prime)):
        if not np.isfinite(value).all():
            raise BadParameter(
                f"features overflow the self-attention embedding: {name} is not finite in float64"
            )
    return EmbeddingIntermediates(omega_self=omega_self, y=y, y_prime=y_prime)


def _attention(y_prime: np.ndarray, w_att: np.ndarray, slope: float) -> np.ndarray:
    """One row-stochastic attention matrix per row of w_att (seeds x 2F).

    The projections are stacked matrix-vector products, one gemv per seed,
    so stacking seeds does not change the rounding (see the module docstring).
    """
    f = y_prime.shape[1]
    left = y_prime @ w_att[:, :f, None]
    right = y_prime @ w_att[:, f:, None]
    return _softmax_rows(_leaky_relu(left + right.swapaxes(1, 2), slope))


def pair_attention(
    embedding: EmbeddingIntermediates, w_att: np.ndarray, hyper: AgcnHyperparams
) -> np.ndarray:
    """Row-stochastic attention matrix from scored ordered node pairs.

    The raw score of pair (i, j) is w_att . (Y'_i || Y'_j) through LeakyReLU;
    row i is the softmax of its scores over all targets j, including j = i.
    """
    f = embedding.y_prime.shape[1]
    w_att = np.asarray(w_att, dtype=float).reshape(-1)
    if w_att.shape[0] != 2 * f:
        raise BadParameter(f"w_att must have length {2 * f}, got {w_att.shape[0]}")
    return _attention(embedding.y_prime, w_att[None], hyper.leaky_slope)[0]


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


def _forward(a_hat, alpha, x, w, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked predictions (seeds x n x 1) and masked adjacencies, from alpha and w stacked."""
    masked = a_hat * alpha
    logits = _leaky_relu(masked @ x @ w, slope)
    y_pp = _softmax_rows(logits[..., 0])[..., None]  # softmax across nodes
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
    a_hat = normalize_adjacency(graph)
    y_pp, _ = _forward(a_hat, state.alpha[None], x, w.reshape(1, f, 1), hyper.leaky_slope)
    return y_pp[0]


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

    This is `train_seeds` with one seed. Its products carry a seed axis of
    length one; the attention projections stay matrix-vector products, as
    they are for each seed of a batch, so a seed trained here or in a batch
    gives the same bits (see the module docstring).
    """
    return train_seeds(graph, features, targets, hyper, [hyper.seed])[0]


def train_seeds(
    graph: SignedWeightedDigraph,
    features: FeatureMatrix,
    targets,
    hyper: AgcnHyperparams,
    seeds: Iterable[int],
) -> list[AgcnState]:
    """`train` with `hyper` for each of `seeds`, stacked; states in that order.

    `hyper.seed` is not used. Each state is bit for bit the one `train` gives
    for its seed alone (see the module docstring). The seeds train in blocks
    whose largest stacked array stays under about BLOCK_BYTES, so memory does
    not grow with the number of seeds on large graphs. If seeds diverge,
    `DivergedTraining` names the first of them in the given order, with its
    iteration, as training the seeds one after another would. A block is
    checked only after all its iterations, so a seed that diverges early
    still runs to the end on non-finite values with the rest of its block.
    """
    seeds = list(seeds)
    if not seeds:
        raise BadParameter("seeds must not be empty")
    for seed in seeds:
        replace(hyper, seed=seed)  # checks the seed as AgcnHyperparams does
    x = features.values
    n, f = x.shape
    if n != graph.n:
        raise BadParameter(f"features have {n} rows for a graph with n={graph.n}")
    y_target = np.asarray(targets, dtype=float).reshape(-1)
    if y_target.shape[0] != n:
        raise BadParameter(f"targets must have length {n}, got {y_target.shape[0]}")
    a_hat = normalize_adjacency(graph)
    pairs = np.nonzero(graph.weights + np.eye(n))  # ordered pairs of the self-looped graph
    y_prime = self_attention_embed(features, hyper).y_prime
    # per seed, the larger of the n x n arrays and the concatenated pair contributions
    seed_bytes = 8 * max(n * n, 2 * f * pairs[0].size)
    block = max(1, BLOCK_BYTES // seed_bytes)
    y_target = y_target.reshape(-1, 1)
    states = []
    for start in range(0, len(seeds), block):
        block_seeds = seeds[start : start + block]
        states += _train_block(a_hat, pairs, y_prime, x, y_target, hyper, block_seeds)
    return states


def _train_block(a_hat, pairs, y_prime, x, y_target, hyper: AgcnHyperparams, seeds) -> list:
    """The training loop of `train_seeds` for one block of seeds."""
    n, f = x.shape
    mu, slope = hyper.learning_rate, hyper.leaky_slope
    pair_src, pair_dst = pairs
    rngs = [np.random.default_rng(seed) for seed in seeds]  # each draws w_att, then w
    w_att = np.stack([rng.uniform(-INIT_RANGE, INIT_RANGE, size=2 * f) for rng in rngs])
    w = np.stack([rng.uniform(-INIT_RANGE, INIT_RANGE, size=(f, 1)) for rng in rngs])
    deriv_prime = y_prime * (1.0 - y_prime)

    losses = np.empty((hyper.iterations, len(seeds)))
    # runaway parameters are caught through the loss check, so numpy's own
    # overflow warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(hyper.iterations):
            alpha = _attention(y_prime, w_att, slope)
            y_pp, masked = _forward(a_hat, alpha, x, w, slope)
            err = y_target - y_pp
            losses[iteration] = (err**2).mean(axis=(1, 2))

            m_x = masked @ x
            w = w + mu * (err.swapaxes(1, 2) @ (m_x * (1.0 - m_x))).swapaxes(1, 2)
            g = deriv_prime * (mu * err) * x
            z = np.concatenate([g[:, pair_src], g[:, pair_dst]], axis=2).sum(axis=1) / (2.0 * n)
            w_att = w_att + z

        alpha = _attention(y_prime, w_att, slope)
        y_pp, _ = _forward(a_hat, alpha, x, w, slope)
        final_losses = ((y_target - y_pp) ** 2).mean(axis=(1, 2))
    for k, seed in enumerate(seeds):
        diverged = np.flatnonzero(~np.isfinite(losses[:, k]))
        if diverged.size:
            raise DivergedTraining(int(diverged[0]), seed)
        if not np.isfinite(final_losses[k]):
            raise DivergedTraining(hyper.iterations, seed)
    return [
        AgcnState(
            w_att=w_att[k],
            w=w[k],
            alpha=alpha[k],
            loss_history=losses[:, k].tolist(),
            y_pp=y_pp[k],
            final_loss=float(final_losses[k]),
        )
        for k in range(len(seeds))
    ]


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
