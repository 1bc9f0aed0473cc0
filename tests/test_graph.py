import json
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinstab import (
    BadNode,
    BadParameter,
    FeatureMatrix,
    MalformedModel,
    SignedWeightedDigraph,
    fixture_path,
    load_model,
    model_from_dict,
    model_to_dict,
    perturb_column,
    save_model,
    total_degree,
)
from netinstab.graph import plan_blocks
from conftest import random_signed_digraph_weights


class TestLoadModel:
    def test_piezo_appendix_entries(self, piezo):
        graph, features = piezo
        assert graph.n == 8
        assert graph.weights[3, 0] == pytest.approx(-2.748)
        assert graph.weights[3, 1] == pytest.approx(+1.3083)
        assert features.rows == 8 and features.cols == 3

    def test_piezo_printed_entry(self, piezo_printed):
        graph, _ = piezo_printed
        assert graph.weights[3, 1] == pytest.approx(-1.3083)

    def test_variants_differ_only_at_conflicted_entry(self, piezo, piezo_printed):
        a, p = piezo[0].weights.copy(), piezo_printed[0].weights.copy()
        a[3, 1] = p[3, 1] = 0.0
        assert np.array_equal(a, p)

    def test_labels(self, piezo):
        graph, _ = piezo
        assert graph.node_labels[0] == 0.01 and graph.node_labels[1] == 0.2

    def test_trivial_single_node(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "adjacency": [[0]], "features": [[0, 0, 0]]}))
        graph, features = load_model(path)
        assert graph.n == 1
        assert np.count_nonzero(graph.weights) == 0
        assert features.rows == 1

    def test_nonsquare_adjacency_rejected(self, tmp_path):
        doc = {"n": 8, "adjacency": [[0.0] * 7 for _ in range(8)], "features": [[0.0]] * 8}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel):
            load_model(path)

    def test_nan_rejected(self):
        with pytest.raises(MalformedModel):
            SignedWeightedDigraph(weights=np.array([[np.nan]]))

    def test_constructors_keep_a_copy(self):
        w, labels = np.eye(2), np.array([0.1, 0.2])
        graph = SignedWeightedDigraph(weights=w, node_labels=labels)
        w[0, 0] = labels[0] = 5.0  # the caller's arrays stay writable and apart
        assert graph.weights[0, 0] == 1.0 and graph.node_labels[0] == 0.1

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(MalformedModel):
            model_from_dict(
                {"n": 2, "adjacency": [[0, 1], [1, 0]], "features": [[1], [2]], "labels": [0.1]}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", [0.1, float("nan")]),
            ("labels", "ab"),
            ("labels", 0.5),
            ("adjacency", [[0, "x"], [1, 0]]),
            ("adjacency", [[0, 1], [1]]),  # ragged
            ("features", [[1], [2, 3]]),
            ("features", [[1], [{}]]),
            ("adjacency", [[0, True], [1, 0]]),
            ("features", [[True], [2]]),
            ("labels", [True, False]),
            ("adjacency", [[0, 10**400], [1, 0]]),  # past float range
        ],
    )
    def test_bad_tables_name_the_field(self, field, value):
        doc = {"n": 2, "adjacency": [[0, 1], [1, 0]], "features": [[1], [2]], field: value}
        with pytest.raises(MalformedModel, match=field):
            model_from_dict(doc)

    @pytest.mark.parametrize("doc", [5, [[0.0]]])
    def test_document_that_is_not_an_object(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel, match=f"must be a JSON object, got {type(doc).__name__}"):
            load_model(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": true, "adjacency": [[0.5]], "features": [[1]]}', "field 'n' must be an integer"),
            ('{"n": 1.0, "adjacency": [[0.5]], "features": [[1]]}', "field 'n' must be an integer"),
            ("[" * 200_000, "model file is not valid JSON"),
        ],
        ids=["n is true", "n is a float", "deeply nested"],
    )
    def test_malformed_file_names_the_problem(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(MalformedModel, match=message):
            load_model(path)

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_file_names_the_path(self, tmp_path, kind):
        path = tmp_path / "model.json"
        if kind == "directory":
            path.mkdir()
        else:
            doc = '{"n": 1, "adjacency": [[0]], "features": [[0]], "name": "\u00e9"}'
            path.write_bytes(doc.encode("latin-1"))
        with pytest.raises(MalformedModel, match=f"model file {str(path)!r} cannot be read"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedModel):
            load_model(tmp_path / "nope.json")

    def test_bad_variant(self):
        with pytest.raises(BadParameter):
            load_model("piezo", "typo")

    def test_fixture_path_refuses_printed(self):
        # only the "piezo" alias selects by variant; a path, the fixture's own too, is read as-is
        with pytest.raises(BadParameter, match="variant 'printed' applies only to model 'piezo'"):
            load_model(fixture_path(), "printed")
        graph, _ = load_model(fixture_path(), "appendix")
        assert graph.weights[3, 1] == pytest.approx(+1.3083)

    @pytest.mark.parametrize("variant", ["appendix", "printed"])
    def test_round_trip(self, tmp_path, variant):
        graph, features = load_model("piezo", variant)
        path = tmp_path / "copy.json"
        save_model(path, graph, features)
        graph2, features2 = load_model(path)
        assert np.array_equal(graph.weights, graph2.weights)
        assert np.array_equal(features.values, features2.values)
        assert np.array_equal(graph.node_labels, graph2.node_labels)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        w = random_signed_digraph_weights(rng, 5)
        graph = SignedWeightedDigraph(weights=w)
        features = FeatureMatrix(values=rng.normal(size=(5, 2)))
        doc = json.loads(json.dumps(model_to_dict(graph, features)))
        graph2, features2 = model_from_dict(doc)
        assert np.array_equal(graph.weights, graph2.weights)
        assert np.array_equal(features.values, features2.values)


class TestTotalDegree:
    def test_piezo_node2(self, piezo):
        assert total_degree(piezo[0], 2) == 6

    def test_piezo_node7(self, piezo):
        assert total_degree(piezo[0], 7) == 10

    def test_isolated_node(self):
        graph = SignedWeightedDigraph(weights=np.zeros((3, 3)))
        assert total_degree(graph, 1) == 0

    def test_self_loop_counts_twice(self):
        graph = SignedWeightedDigraph(weights=np.array([[1.0]]))
        assert total_degree(graph, 0) == 2

    def test_out_of_range(self, piezo):
        for node in (8, -1, True, 1.5):
            with pytest.raises(BadNode, match="node index must be an integer from 0 to 7"):
                total_degree(piezo[0], node)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_counts_every_edge_twice(self, seed, n):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n))
        total = sum(total_degree(graph, k) for k in range(n))
        assert total == 2 * np.count_nonzero(graph.weights)


class TestPerturbColumn:
    def test_printed_column1_example(self, piezo_printed):
        graph, _ = piezo_printed
        out = perturb_column(graph, 1, 0.5)
        assert out.weights[0, 1] == pytest.approx(1.5)
        assert out.weights[3, 1] == pytest.approx(-0.8083)
        assert out.weights[4, 1] == pytest.approx(1.5)
        for row in (1, 2, 5, 6, 7):
            assert out.weights[row, 1] == 0.0

    def test_appendix_column1(self, piezo):
        out = perturb_column(piezo[0], 1, 1.0)
        assert out.weights[3, 1] == pytest.approx(2.3083)

    def test_input_unmodified(self, piezo):
        before = piezo[0].weights.copy()
        perturb_column(piezo[0], 1, 0.5)
        assert np.array_equal(piezo[0].weights, before)

    def test_out_of_range(self, piezo):
        for node in (99, True, 1.5):
            with pytest.raises(BadNode, match="node index"):
                perturb_column(piezo[0], node, 0.5)

    def test_nonfinite_delta(self, piezo):
        with pytest.raises(BadParameter):
            perturb_column(piezo[0], 0, np.inf)

    def test_overflowing_delta_is_refused_naming_it(self):
        graph = SignedWeightedDigraph(weights=[[0.0, 1.5e308], [-1.0, 0.0]])
        with pytest.raises(BadParameter, match="^delta 1e\\+308 overflows a weight of column 1"):
            perturb_column(graph, 1, 1e308)

    def test_fraction_delta_equals_its_float(self, piezo):
        out = perturb_column(piezo[0], 1, Fraction(1, 2))
        assert out.weights.tobytes() == perturb_column(piezo[0], 1, 0.5).weights.tobytes()

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_zero_delta_is_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n))
        j = int(rng.integers(n))
        assert np.array_equal(perturb_column(graph, j, 0.0).weights, graph.weights)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        delta=st.floats(-5, 5, allow_nan=False).filter(lambda d: d != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_changes_exactly_nonzero_column_entries(self, seed, n, delta):
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n))
        j = int(rng.integers(n))
        out = perturb_column(graph, j, delta)
        diff = out.weights - graph.weights
        col_mask = graph.weights[:, j] != 0
        assert np.allclose(diff[col_mask, j], delta)
        other = diff.copy()
        other[:, j] = 0.0
        assert np.count_nonzero(other) == 0
        # structural zeros stay exactly zero
        assert np.all(out.weights[~col_mask, j] == 0.0)


# The three block planners `plan_blocks` replaced, as they were written in their layers.


def seed_blocks(count, cost, budget):
    """`train_seeds`' blocks of `count` seeds that cost `cost` bytes each."""
    step = max(1, budget // cost)
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


def running_sum_blocks(costs, budget):
    """The motif layer's blocks of start nodes, closed when the next one would pass `budget`."""
    blocks, first, size = [], 0, 0.0
    for start, nbytes in enumerate(costs):
        if start > first and size + nbytes > budget:
            blocks.append(range(first, start))
            first, size = start, 0.0
        size += nbytes
    blocks.append(range(first, len(costs)))
    return blocks


def bisect_blocks(counts, max_walks):
    """The walk layer's blocks of start nodes, by bisecting the running walk counts."""
    ends = [0, *np.cumsum(counts).tolist()]
    blocks, lo = [], 0
    while lo < len(counts):
        blocks.append(range(lo, max(lo + 1, bisect_right(ends, ends[lo] + max_walks) - 1)))
        lo = blocks[-1].stop
    return blocks


budgets = st.sampled_from([0, 1]) | st.integers(2, 100)
# zeros, and single items over every budget drawn
costs = st.lists(st.sampled_from([0, 1]) | st.integers(0, 150), max_size=30)


class TestPlanBlocks:
    @given(costs=costs, budget=budgets)
    @settings(max_examples=300, deadline=None)
    def test_consecutive_ranges_that_fit_and_cannot_grow(self, costs, budget):
        blocks = plan_blocks(costs, budget)
        assert [i for block in blocks for i in block] == list(range(len(costs)))
        assert all(len(block) for block in blocks)
        assert all(sum(costs[i] for i in block) <= budget or len(block) == 1 for block in blocks)
        # none could also take the first index of the next one
        assert all(sum(costs[block.start : block.stop + 1]) > budget for block in blocks[:-1])

    @given(count=st.integers(1, 40), cost=st.integers(1, 150), budget=budgets)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_seed_blocks(self, count, cost, budget):
        assert plan_blocks([cost] * count, budget) == seed_blocks(count, cost, budget)

    @given(costs=costs.filter(len), budget=budgets)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_running_sum_and_bisect_blocks(self, costs, budget):
        assert plan_blocks([float(c) for c in costs], budget) == running_sum_blocks(costs, budget)
        assert plan_blocks(costs, budget) == bisect_blocks(costs, budget)
