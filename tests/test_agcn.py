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
    forward,
    node_attention_scores,
    normalize_adjacency,
    pair_attention,
    self_attention_embed,
    train,
)
from netinstab.agcn import EmbeddingIntermediates, perturb_features
from conftest import random_signed_digraph_weights

DEFAULTS = AgcnHyperparams()

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
        hyper = AgcnHyperparams(seed=3, iterations=20, learning_rate=0.0)
        state = train(graph, features, graph.node_labels, hyper)
        rng = np.random.default_rng(3)
        w_att0 = rng.uniform(-0.5, 0.5, 6)
        w0 = rng.uniform(-0.5, 0.5, (3, 1))
        assert np.array_equal(state.w_att, w_att0)
        assert np.array_equal(state.w, w0)
        assert len(set(state.loss_history)) == 1

    def test_loss_history_length(self, piezo):
        graph, features = piezo
        state = train(graph, features, graph.node_labels, AgcnHyperparams(seed=0, iterations=40))
        assert len(state.loss_history) == 40

    def test_deterministic_per_seed(self, piezo):
        graph, features = piezo
        hyper = AgcnHyperparams(seed=11, iterations=30)
        a = train(graph, features, graph.node_labels, hyper)
        b = train(graph, features, graph.node_labels, hyper)
        assert np.array_equal(a.w_att, b.w_att)
        assert np.array_equal(a.w, b.w)
        assert a.loss_history == b.loss_history

    def test_divergence_raises_with_iteration(self, piezo):
        # a step size at float range overflows the convolution weights within
        # a few iterations; the non-finite loss must surface as an exception
        graph, features = piezo
        hyper = AgcnHyperparams(seed=0, iterations=200, learning_rate=1e308)
        with pytest.raises(DivergedTraining) as info:
            train(graph, features, graph.node_labels, hyper)
        assert 0 <= info.value.iteration <= 200

    def test_default_training_converges_and_separates(self, piezo):
        graph, features = piezo
        state = train(graph, features, graph.node_labels, AgcnHyperparams(seed=0))
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
        state = train(graph, perturbed, graph.node_labels, AgcnHyperparams(seed=0))
        assert state.final_loss <= 0.005

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("seed", -1),
            ("seed", 0.5),
        ],
    )
    def test_bad_hyperparams_name_the_field(self, field, value):
        with pytest.raises(BadParameter, match=field):
            AgcnHyperparams(**{field: value})


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
        state = train(graph, features, graph.node_labels, AgcnHyperparams(seed=0))
        assert sorted(node_attention_scores(state.alpha).top(2)) == [2, 6]
