from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netinstab import (
    AgcnHyperparams,
    AgcnState,
    BadParameter,
    DivergedTraining,
    FeatureMatrix,
    SignedWeightedDigraph,
    agcn,
    forward,
    node_attention_scores,
    normalize_adjacency,
    pair_attention,
    self_attention_embed,
    train,
    train_seeds,
)
from netinstab.agcn import (
    INIT_RANGE,
    EmbeddingIntermediates,
    _leaky_relu,
    _softmax_rows,
    perturb_features,
)
from netinstab.cli import main
from netinstab.graph import BLOCK_BYTES, save_model
from conftest import random_signed_digraph_weights

DEFAULTS = AgcnHyperparams()


def _one_seed_attention(y_prime, w_att, slope):
    f = y_prime.shape[1]
    left = y_prime @ w_att[:f]
    right = y_prime @ w_att[f:]
    return _softmax_rows(_leaky_relu(left[:, None] + right[None, :], slope))


def _one_seed_forward(a_hat, alpha, x, w, slope):
    masked = a_hat * alpha
    logits = _leaky_relu(masked @ x @ w, slope)
    y_pp = _softmax_rows(logits.reshape(1, -1)).reshape(-1, 1)  # softmax across nodes
    return y_pp, masked


def pair_degrees(graph):
    """Out- and in-degree counts (2 x n) of the ordered pairs of the self-looped graph."""
    pair_src, pair_dst = np.nonzero(graph.weights + np.eye(graph.n))
    return np.stack([np.bincount(pair_src, minlength=graph.n), np.bincount(pair_dst, minlength=graph.n)])


def sequential_train(graph, features, targets, hyper, seed):
    """Train one seed with no seed axis: the oracle for `train_seeds`.

    The same updates as `agcn.train_seeds`, with its own forward pass and
    attention, so that the stacked code is checked against code that has no
    seed axis at all. Its degrees come from `pair_degrees`, not from the
    code under test.
    """
    x = features.values
    n, f = x.shape
    y_target = np.asarray(targets, dtype=float).reshape(-1, 1)
    mu = hyper.learning_rate

    rng = np.random.default_rng(seed)
    w_att = rng.uniform(-INIT_RANGE, INIT_RANGE, size=2 * f)
    w = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(f, 1))

    a_hat = normalize_adjacency(graph)
    degrees = pair_degrees(graph).astype(float)
    y_prime = self_attention_embed(features, hyper).y_prime
    deriv_prime = y_prime * (1.0 - y_prime)

    losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(hyper.iterations):
            alpha = _one_seed_attention(y_prime, w_att, hyper.leaky_slope)
            y_pp, masked = _one_seed_forward(a_hat, alpha, x, w, hyper.leaky_slope)
            err = y_target - y_pp
            loss = float((err**2).mean())
            if not np.isfinite(loss):
                raise DivergedTraining(iteration, seed)
            losses.append(loss)

            m_x = masked @ x
            w = w + mu * (err.T @ (m_x * (1.0 - m_x))).T
            g = deriv_prime * (mu * err) * x
            w_att = w_att + (degrees @ g).reshape(2 * f) / (2.0 * n)

        alpha = _one_seed_attention(y_prime, w_att, hyper.leaky_slope)
        y_pp, _ = _one_seed_forward(a_hat, alpha, x, w, hyper.leaky_slope)
        final_loss = float(((y_target - y_pp) ** 2).mean())
    if not np.isfinite(final_loss):
        raise DivergedTraining(hyper.iterations, seed)
    return AgcnState(
        w_att=w_att,
        w=w,
        alpha=alpha,
        loss_history=losses,
        y_pp=y_pp,
        final_loss=final_loss,
    )


def assert_same_states(got, want):
    for field in fields(AgcnState):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b) and np.shape(a) == np.shape(b), field.name
        assert np.array_equal(a, b), field.name


def assert_trains_like_the_oracle(graph, features, targets, hyper, seeds):
    """`train_seeds` gives the oracle's states `==`, or raises as it does."""
    try:
        expected = [sequential_train(graph, features, targets, hyper, s) for s in seeds]
    except DivergedTraining as oracle:
        with pytest.raises(DivergedTraining) as info:
            train_seeds(graph, features, targets, hyper, seeds)
        assert (info.value.seed, info.value.iteration) == (oracle.seed, oracle.iteration)
        return
    for got, want in zip(train_seeds(graph, features, targets, hyper, seeds), expected, strict=True):
        assert_same_states(got, want)


# two 2-node models whose divergence depends on the seed (learning rate, iterations):
# seeds 0, 1, 6 and 8 diverge at iteration 5 and the others at 1
LATE_AND_EARLY = (
    SignedWeightedDigraph(weights=np.array([[-0.5, 0.0], [0.0, 1.5]])),
    FeatureMatrix(values=[[-1e96], [-1e16]]),
    [0.25, 0.75],
    1e52,
)
# seeds 0, 1, 6 and 8 never diverge and the others do at 1
NEVER_AND_EARLY = (
    SignedWeightedDigraph(weights=np.array([[0.0, 0.0], [0.0, -0.5]])),
    FeatureMatrix(values=[[1e83], [1e18]]),
    [0.75, 0.25],
    1e88,
)

finite_features = arrays(
    float,
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)


class TestEmbedding:
    def test_single_scalar_feature(self):
        e = self_attention_embed(FeatureMatrix(values=[[2.0]]), DEFAULTS)
        assert np.allclose(e.omega_self, [[4.0]])
        assert np.allclose(e.y, [[8.0]])
        assert np.allclose(e.y_prime, [[1.0]])

    def test_two_identical_rows(self):
        e = self_attention_embed(FeatureMatrix(values=[[1.0, 0.0], [1.0, 0.0]]), DEFAULTS)
        assert np.allclose(e.omega_self, [[1, 1], [1, 1]])
        assert np.allclose(e.y, [[2, 0], [2, 0]])
        assert np.allclose(e.y_prime[0], e.y_prime[1])

    def test_piezo_gram_entry(self, piezo):
        e = self_attention_embed(piezo[1], DEFAULTS)
        assert e.omega_self[0, 0] == pytest.approx(0.35)

    @given(x=finite_features)
    @settings(max_examples=80, deadline=None)
    def test_gram_symmetry_and_softmax_rows(self, x):
        e = self_attention_embed(FeatureMatrix(values=x), DEFAULTS)
        assert np.array_equal(e.omega_self, e.omega_self.T)
        for i in range(x.shape[0]):
            assert e.omega_self[i, i] == pytest.approx(float(x[i] @ x[i]))
        assert np.all(e.y_prime >= 0)
        assert np.allclose(e.y_prime.sum(axis=1), 1.0, atol=1e-9)

    # X X^T overflows at 1e200; at 1e136 only Y = X X^T X does; -1e136 overflows Y to -inf
    @pytest.mark.parametrize("scale, name", [(1e200, "X X^T"), (1e136, "Y = "), (-1e136, "Y = ")])
    def test_overflow_fails_closed_naming_the_features(self, piezo, scale, name):
        features = FeatureMatrix(values=piezo[1].values * scale)
        with pytest.raises(BadParameter, match="^features overflow") as info:
            self_attention_embed(features, DEFAULTS)
        assert name in str(info.value)

    def test_overflow_is_refused_before_any_seed_trains(self, piezo, monkeypatch):
        graph, features = piezo
        monkeypatch.setattr(agcn, "_train_block", mock.Mock(side_effect=AssertionError("trained")))
        huge = FeatureMatrix(values=features.values * 1e136)
        with pytest.raises(BadParameter, match="^features overflow"):
            train_seeds(graph, huge, graph.node_labels, DEFAULTS, [3])

    def test_analyze_exits_1_on_overflowing_features(self, piezo, tmp_path, capsys):
        graph, features = piezo
        model = tmp_path / "model.json"
        save_model(model, graph, FeatureMatrix(values=features.values * 1e136))
        out = tmp_path / "out"
        argv = ["analyze", "--model", str(model), "--method", "attention", "--seed", "3", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: features overflow")
        assert list(out.iterdir()) == []


class TestPairAttention:
    def test_zero_weights_give_uniform(self, piezo):
        e = self_attention_embed(piezo[1], DEFAULTS)
        alpha = pair_attention(e, np.zeros(6), DEFAULTS)
        assert np.allclose(alpha, 1.0 / 8)

    def test_single_node(self):
        e = self_attention_embed(FeatureMatrix(values=[[1.0, 2.0]]), DEFAULTS)
        alpha = pair_attention(e, np.zeros(4), DEFAULTS)
        assert np.allclose(alpha, [[1.0]])

    def test_hand_computed_two_node_case(self):
        e = EmbeddingIntermediates(
            omega_self=np.eye(2), y=np.zeros((2, 1)), y_prime=np.array([[1.0], [0.0]])
        )
        alpha = pair_attention(e, np.array([1.0, 0.0]), DEFAULTS)
        assert np.allclose(alpha, [[0.5, 0.5], [0.5, 0.5]])

    def test_length_mismatch(self, piezo):
        e = self_attention_embed(piezo[1], DEFAULTS)
        with pytest.raises(BadParameter):
            pair_attention(e, np.zeros(5), DEFAULTS)

    @given(x=finite_features, seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_stochastic(self, x, seed):
        rng = np.random.default_rng(seed)
        e = self_attention_embed(FeatureMatrix(values=x), DEFAULTS)
        alpha = pair_attention(e, rng.uniform(-1, 1, 2 * x.shape[1]), DEFAULTS)
        assert np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = SignedWeightedDigraph(weights=np.array([[0.0]]))
        assert np.allclose(normalize_adjacency(g), [[1.0]])

    def test_symmetric_pair(self):
        g = SignedWeightedDigraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(normalize_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])

    def test_asymmetric_signed_case(self):
        g = SignedWeightedDigraph(weights=np.array([[0.0, 2.0], [0.0, 0.0]]))
        expected = [[1.0 / 3.0, 2.0 / np.sqrt(3.0)], [0.0, 1.0]]
        assert np.allclose(normalize_adjacency(g), expected)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_input_gives_symmetric_output(self, seed, n):
        rng = np.random.default_rng(seed)
        w = random_signed_digraph_weights(rng, n)
        w = (w + w.T) / 2
        g = SignedWeightedDigraph(weights=w)
        out = normalize_adjacency(g)
        assert np.allclose(out, out.T, atol=1e-12)

    def test_overflowing_row_sum_is_refused_naming_the_row(self):
        w = np.zeros((3, 3))
        w[1, [0, 2]] = 1.5e308  # row 1's absolute sum overflows; each weight is finite
        with pytest.raises(BadParameter, match="^adjacency row 1 cannot be normalized: .* not finite"):
            normalize_adjacency(SignedWeightedDigraph(weights=w))

    def test_row_cancelled_to_zero_is_refused_naming_the_row(self):
        # row 1 of A + I is zero, so D_11 = 0 and its scaling 1 / sqrt(D_11) would be inf
        graph = SignedWeightedDigraph(weights=[[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(BadParameter, match="^adjacency row 1 cannot be normalized: .* is zero"):
            normalize_adjacency(graph)

    def test_analyze_exits_1_on_an_overflowing_row(self, tmp_path, capsys):
        w = np.zeros((3, 3))
        w[0, [1, 2]] = 1.5e308
        model = tmp_path / "model.json"
        graph = SignedWeightedDigraph(weights=w, node_labels=[0.2, 0.3, 0.5])
        save_model(model, graph, FeatureMatrix(values=[[1.0], [2.0], [3.0]]))
        argv = ["analyze", "--model", str(model), "--method", "attention", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: adjacency row 0 cannot be normalized") and "Traceback" not in err


class TestForward:
    def _state(self, graph, features, w_att, w):
        e = self_attention_embed(features, DEFAULTS)
        alpha = pair_attention(e, w_att, DEFAULTS)
        return AgcnState(w_att=w_att, w=w, alpha=alpha)

    def test_sums_to_one(self, piezo):
        graph, features = piezo
        state = self._state(graph, features, np.ones(6), np.array([[0.3], [-0.2], [0.1]]))
        y = forward(graph, features, state, DEFAULTS)
        assert y.shape == (8, 1)
        assert np.all(y >= 0)
        assert y.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_weights_give_uniform(self, piezo):
        graph, features = piezo
        state = self._state(graph, features, np.ones(6), np.zeros((3, 1)))
        assert np.allclose(forward(graph, features, state, DEFAULTS), 1.0 / 8)

    def test_shape_mismatch(self, piezo):
        graph, features = piezo
        state = self._state(graph, features, np.ones(6), np.zeros((2, 1)))
        with pytest.raises(BadParameter):
            forward(graph, features, state, DEFAULTS)

    def test_permutation_equivariance(self, piezo):
        graph, features = piezo
        rng = np.random.default_rng(5)
        w_att = rng.uniform(-0.5, 0.5, 6)
        w = rng.uniform(-0.5, 0.5, (3, 1))
        state = self._state(graph, features, w_att, w)
        y = forward(graph, features, state, DEFAULTS)

        perm = rng.permutation(8)
        p = np.eye(8)[perm]  # row i of permuted objects = original row perm[i]
        graph_p = SignedWeightedDigraph(weights=p @ graph.weights @ p.T)
        features_p = FeatureMatrix(values=p @ features.values)
        state_p = self._state(graph_p, features_p, w_att, w)
        y_p = forward(graph_p, features_p, state_p, DEFAULTS)

        assert np.allclose(y_p[:, 0], y[perm, 0], atol=1e-12)
        for i in range(8):
            for j in range(8):
                assert state_p.alpha[i, j] == pytest.approx(state.alpha[perm[i], perm[j]], abs=1e-12)


class TestTrain:
    def test_zero_learning_rate_is_exact_noop(self, piezo):
        graph, features = piezo
        hyper = AgcnHyperparams(iterations=20, learning_rate=0.0)
        state = train(graph, features, graph.node_labels, hyper, 3)
        rng = np.random.default_rng(3)
        w_att0 = rng.uniform(-0.5, 0.5, 6)
        w0 = rng.uniform(-0.5, 0.5, (3, 1))
        assert np.array_equal(state.w_att, w_att0)
        assert np.array_equal(state.w, w0)
        assert len(set(state.loss_history)) == 1

    def test_loss_history_length(self, piezo):
        graph, features = piezo
        state = train(graph, features, graph.node_labels, AgcnHyperparams(iterations=40))
        assert len(state.loss_history) == 40

    def test_deterministic_per_seed(self, piezo):
        graph, features = piezo
        hyper = AgcnHyperparams(iterations=30)
        a = train(graph, features, graph.node_labels, hyper, 11)
        b = train(graph, features, graph.node_labels, hyper, 11)
        assert np.array_equal(a.w_att, b.w_att)
        assert np.array_equal(a.w, b.w)
        assert a.loss_history == b.loss_history

    def test_divergence_raises_with_iteration(self, piezo):
        # a step size at float range overflows the convolution weights within
        # a few iterations; the non-finite loss must surface as an exception
        graph, features = piezo
        hyper = AgcnHyperparams(iterations=200, learning_rate=1e308)
        with pytest.raises(DivergedTraining, match="seed 0") as info:
            train(graph, features, graph.node_labels, hyper)
        assert 0 <= info.value.iteration <= 200
        assert info.value.seed == 0

    def test_default_training_converges_and_separates(self, piezo):
        graph, features = piezo
        state = train(graph, features, graph.node_labels, AgcnHyperparams())
        assert state.final_loss < state.loss_history[0]
        assert state.final_loss <= 0.005
        pred = state.y_pp[:, 0]
        assert pred[[1, 2, 5, 6]].min() > pred[[0, 3, 4, 7]].max()
        assert pred.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feature_perturbation_scenario(self, piezo):
        graph, features = piezo
        perturbed = perturb_features(features, 0, 2.0)
        assert np.allclose(perturbed.values[0], 2 * features.values[0])
        assert np.allclose(perturbed.values[1:], features.values[1:])
        state = train(graph, perturbed, graph.node_labels, AgcnHyperparams())
        assert state.final_loss <= 0.005
        for node in (8, -1, True, 1.5):
            with pytest.raises(BadParameter, match="perturb node must be an integer from 0 to 7"):
                perturb_features(features, node)

    def test_overflowing_perturbation_names_the_factor(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        graph = SignedWeightedDigraph(weights=[[0.0, 1.0], [1.0, 0.0]], node_labels=[0.5, 0.5])
        save_model(model, graph, FeatureMatrix(values=[[1e300], [1.0]]))
        out = tmp_path / "out"
        argv = ["analyze", "--model", str(model), "--method", "attention", "--out", str(out),
                "--perturb-node", "0", "--perturb-factor", "1e10"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: factor 10000000000.0 overflows node 0's features")
        assert "Traceback" not in err

    def test_target_length_mismatch(self, piezo):
        graph, features = piezo
        with pytest.raises(BadParameter):
            train(graph, features, [0.1, 0.2], AgcnHyperparams())

    def test_bad_hyperparams(self):
        with pytest.raises(BadParameter):
            AgcnHyperparams(leaky_slope=0.0)
        with pytest.raises(BadParameter):
            AgcnHyperparams(learning_rate=-1.0)
        with pytest.raises(BadParameter):
            AgcnHyperparams(iterations=0)

    def test_fraction_hyperparams_train_like_their_floats(self, piezo):
        graph, features = piezo
        exact = AgcnHyperparams(leaky_slope=Fraction(1, 100), learning_rate=Fraction(1, 2), iterations=30)
        assert (exact.leaky_slope, exact.learning_rate) == (0.01, 0.5)
        a = train(graph, features, graph.node_labels, exact, 4)
        b = train(graph, features, graph.node_labels, AgcnHyperparams(iterations=30), 4)
        for field in fields(AgcnState):
            assert np.asarray(getattr(a, field.name)).tobytes() == np.asarray(getattr(b, field.name)).tobytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("iterations", 2.5),
            ("seed", -1),
            ("seed", 0.5),
        ],
    )
    def test_bad_hyperparams_name_the_field(self, piezo, field, value):
        graph, features = piezo
        with pytest.raises(BadParameter, match=field):
            if field == "seed":  # the seed is an argument of train, not a hyperparameter
                train(graph, features, graph.node_labels, DEFAULTS, seed=value)
            else:
                AgcnHyperparams(**{field: value})


class TestTrainSeeds:
    def test_piezo_seeds_equal_the_sequential_oracle(self, piezo):
        graph, features = piezo
        assert_trains_like_the_oracle(graph, features, graph.node_labels, DEFAULTS, range(10))

    @given(
        n=st.integers(1, 12),
        width=st.integers(1, 4),
        graph_seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        scale=st.sampled_from([1.0, 1.0, 1e16, 1e96]),
        perturb=st.none() | st.tuples(st.integers(0, 11), st.sampled_from([2.0, -3.0, 0.0, 1e3])),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6, unique=True),
        iterations=st.integers(1, 60),
        learning_rate=st.sampled_from([0.0, 0.5, 1e52, 1e88, 1e308]) | st.floats(0.0, 10.0),
        block_bytes=st.sampled_from([BLOCK_BYTES, 1, 2000]),  # all, one or a few seeds a block
    )
    # derandomized: every machine and numpy version draws the same examples
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_sequential_oracle(
        self,
        n,
        width,
        graph_seed,
        density,
        scale,
        perturb,
        seeds,
        iterations,
        learning_rate,
        block_bytes,
    ):
        rng = np.random.default_rng(graph_seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density))
        features = FeatureMatrix(values=rng.uniform(-1.0, 1.0, (n, width)) * scale)
        if perturb is not None:
            features = perturb_features(features, perturb[0] % n, perturb[1])
        targets = rng.random(n)
        hyper = AgcnHyperparams(iterations=iterations, learning_rate=learning_rate)
        with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            assert_trains_like_the_oracle(graph, features, targets, hyper, seeds)

    def test_ladder_size_equals_the_sequential_oracle(self, monkeypatch):
        # at n = 128 the default BLOCK_BYTES stacks 4 seeds a block, so ten seeds train in three;
        # OpenBLAS may pick other kernels here than at the n <= 12 of the hypothesis draws
        n = 128
        rng = np.random.default_rng(128)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, 0.3))
        features = FeatureMatrix(values=rng.uniform(-1.0, 1.0, (n, 3)))
        sizes, train_block = [], agcn._train_block

        def counted(*args):
            sizes.append(len(args[-1]))
            return train_block(*args)

        monkeypatch.setattr(agcn, "_train_block", counted)
        hyper = AgcnHyperparams(iterations=20)
        assert_trains_like_the_oracle(graph, features, rng.random(n), hyper, range(10))
        assert sizes == [4, 4, 2]

    @given(
        n=st.integers(1, 40),
        graph_seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        cancelled=st.floats(0.0, 0.5),
        width=st.integers(1, 4),
        seeds=st.integers(1, 3),
        scale=st.sampled_from([1e-5, 1.0, 1e5, None]),  # None: each entry its own scale
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_degree_update_is_the_pair_sum_within_its_bound(
        self, n, graph_seed, density, cancelled, width, seeds, scale
    ):
        """The attention update (degrees @ G) / 2n against the pair sum it replaced.

        `degrees` must be the self-looped graph's out- and in-degree counts,
        exactly. Per entry, with u = eps / 2, T = sum_p |G_p| over the P
        ordered pairs and gamma_k = k u / (1 - k u) <= k eps:

        * the pair sum adds P terms, so it is within gamma_{P-1} T of the
          exact sum in any order (Higham, Accuracy and Stability of Numerical
          Algorithms, 2nd ed., eq. 4.4), and the division by 2n rounds once:
          within gamma_P T / 2n of the exact update;
        * degrees @ G is a dot product of n terms d_i G_i with d_i an exact
          integer and sum_i |d_i G_i| = T, so the gemm, in any order and with
          or without FMA, is within gamma_n T of the exact sum, and within
          gamma_{n+1} T / 2n after the division.

        Hence |new - old| <= (P + n + 1) eps T / 2n. The test takes T as the
        computed sum of |G_p|, itself within gamma_{P-1} T of T, so it allows
        one eps more: (P + n + 2) eps T / 2n.
        """
        rng = np.random.default_rng(graph_seed)
        w = random_signed_digraph_weights(rng, n, density)
        loops = np.flatnonzero(rng.random(n) < cancelled)
        w[loops, loops] = -1.0  # self-loops that the + I cancels
        graph = SignedWeightedDigraph(weights=w)
        if not (w + np.eye(n)).any(axis=1).all():  # a -1 self-loop and no other edge in a row
            with pytest.raises(BadParameter, match="absolute sum is zero"):
                train_seeds(graph, FeatureMatrix(values=np.ones((n, width))), np.ones(n), DEFAULTS, [0])
            return
        captured, train_block = [], agcn._train_block

        def record(a_hat, degrees, *rest):
            captured.append(degrees)
            return train_block(a_hat, degrees, *rest)

        with mock.patch.object(agcn, "_train_block", record):
            features = FeatureMatrix(values=rng.uniform(-1.0, 1.0, (n, width)))
            train_seeds(graph, features, rng.random(n), AgcnHyperparams(iterations=1), [0])
        degrees = captured[0]
        assert degrees.dtype == float and np.array_equal(degrees, pair_degrees(graph))

        shape = (seeds, n, width)
        g = rng.uniform(-1.0, 1.0, shape) * (10.0 ** rng.uniform(-5, 5, shape) if scale is None else scale)
        new = (degrees @ g).reshape(seeds, 2 * width) / (2.0 * n)  # as agcn._train_block has it
        pair_src, pair_dst = np.nonzero(w + np.eye(n))
        pairs = np.concatenate([g[:, pair_src], g[:, pair_dst]], axis=2)
        old = pairs.sum(axis=1) / (2.0 * n)
        bound = (pair_src.size + n + 2) * np.finfo(float).eps * np.abs(pairs).sum(axis=1) / (2.0 * n)
        assert np.all(np.abs(new - old) <= bound)

    @pytest.mark.parametrize("block_bytes, blocks", [(BLOCK_BYTES, [10]), (1, [1] * 10)])
    def test_blocks_of_seeds(self, piezo, monkeypatch, block_bytes, blocks):
        graph, features = piezo
        sizes, train_block = [], agcn._train_block

        def counted(*args):
            sizes.append(len(args[-1]))  # the block's seeds
            return train_block(*args)

        monkeypatch.setattr("netinstab.graph.BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(agcn, "_train_block", counted)
        hyper = AgcnHyperparams(iterations=50)
        assert_trains_like_the_oracle(graph, features, graph.node_labels, hyper, range(10))
        assert sizes == blocks

    @pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 1])  # one block, or one per seed
    def test_final_loss_is_the_next_iterations_last_loss(self, piezo, monkeypatch, block_bytes):
        graph, features = piezo
        monkeypatch.setattr("netinstab.graph.BLOCK_BYTES", block_bytes)
        k = 40
        short, longer = (
            train_seeds(graph, features, graph.node_labels, AgcnHyperparams(iterations=i), range(3))
            for i in (k, k + 1)
        )
        for a, b in zip(short, longer, strict=True):
            assert a.loss_history + [a.final_loss] == b.loss_history

    @pytest.mark.parametrize("block_bytes", [BLOCK_BYTES, 1])
    @pytest.mark.parametrize(
        "model, seeds, iterations, expected",
        [
            (LATE_AND_EARLY, (0, 2), 20, (0, 5)),  # seed 2 diverges first, but comes second
            (LATE_AND_EARLY, (2, 0), 20, (2, 1)),
            (LATE_AND_EARLY, (0, 2), 5, (0, 5)),  # only seed 0's final loss is non-finite
            (NEVER_AND_EARLY, (0, 6, 3), 20, (3, 1)),
        ],
    )
    def test_divergence_names_the_first_diverging_seed_in_order(
        self, monkeypatch, model, seeds, iterations, expected, block_bytes
    ):
        monkeypatch.setattr("netinstab.graph.BLOCK_BYTES", block_bytes)
        graph, features, targets, learning_rate = model
        hyper = AgcnHyperparams(iterations=iterations, learning_rate=learning_rate)
        with pytest.raises(DivergedTraining, match=f"seed {expected[0]}:") as info:
            train_seeds(graph, features, targets, hyper, seeds)
        assert (info.value.seed, info.value.iteration) == expected
        assert_trains_like_the_oracle(graph, features, targets, hyper, seeds)

    @pytest.mark.parametrize("seeds", [[], [0, -1], [0.5], [True], [1, 1]])
    def test_bad_seeds(self, piezo, seeds):
        graph, features = piezo
        with pytest.raises(BadParameter, match="seed"):
            train_seeds(graph, features, graph.node_labels, DEFAULTS, seeds)


class TestAttentionScores:
    def test_uniform_alpha(self):
        table = node_attention_scores(np.full((4, 4), 0.25))
        assert all(s == pytest.approx(0.25) for s in table.scores)
        assert table.order == (0, 1, 2, 3)

    def test_identity_alpha(self):
        table = node_attention_scores(np.eye(4))
        assert all(s == pytest.approx(0.25) for s in table.scores)

    def test_column_vs_row_mean(self):
        alpha = np.array([[0.9, 0.1], [0.8, 0.2]])
        col = node_attention_scores(alpha)  # column means; the row means would tie at 0.5
        assert col.scores[0] == pytest.approx(0.85)
        assert col.order[0] == 0

    def test_trained_piezo_flags_nodes_2_and_6(self, piezo):
        graph, features = piezo
        state = train(graph, features, graph.node_labels, AgcnHyperparams())
        assert sorted(node_attention_scores(state.alpha).top(2)) == [2, 6]
