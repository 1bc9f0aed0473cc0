import json
import math
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinstab import (
    AgcnHyperparams,
    AnalysisConfig,
    BadParameter,
    NumericalFailure,
    SignedWeightedDigraph,
    TooLarge,
    concordance,
    node_attention_scores,
    nstc_ranking,
    ranked_table,
)
from netinstab import report
from netinstab.cli import main
from netinstab.report import (
    _WALK_CHUNK_ROWS,
    _WALKS_PLACEHOLDER,
    CONVERGENCE_LOSS,
    MAX_DELTA_POINTS,
    _csv,
    _write_summary,
    concordance_from_summary,
    run,
    tables_from_summary,
)
from netinstab.walks import WALK_COLUMNS, all_walks
from conftest import random_signed_digraph_weights
from test_agcn import sequential_train
from test_walks import extreme_digraphs, signed_digraphs


def write_model(path, weights):
    """Write a model file with these weights and one feature per node; return its path."""
    n = len(weights)
    path.write_text(json.dumps({"n": n, "adjacency": np.asarray(weights).tolist(), "features": [[1.0]] * n}))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConcordance:
    def test_identical_rankings(self):
        a = ranked_table("attention", [5, 4, 3, 2, 1])
        b = ranked_table("motifs", [50, 40, 30, 20, 10])
        report = concordance({"attention": a, "motifs": b}, top_k=2)
        pair = report.pairs["attention|motifs"]
        assert pair.top_k_jaccard == 1.0
        assert pair.spearman_rho == pytest.approx(1.0)

    def test_reversed_rankings(self):
        scores = [8, 7, 6, 5, 4, 3, 2, 1]
        a = ranked_table("attention", scores)
        b = ranked_table("nstc", scores)  # ascending: the reverse of attention
        report = concordance({"attention": a, "nstc": b}, top_k=2)
        assert report.pairs["attention|nstc"].spearman_rho == pytest.approx(-1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=8)
        a = ranked_table("attention", scores)
        b = ranked_table("motifs", np.exp(3 * scores))  # strictly monotone transform
        report = concordance({"attention": a, "motifs": b}, top_k=3)
        pair = report.pairs["attention|motifs"]
        assert pair.spearman_rho == pytest.approx(1.0)
        assert pair.top_k_jaccard == 1.0

    def test_node_set_mismatch(self):
        a = ranked_table("attention", [1, 2, 3])
        b = ranked_table("motifs", [1, 2])
        with pytest.raises(BadParameter):
            concordance({"attention": a, "motifs": b}, top_k=1)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = ranked_table("attention", rng.normal(size=6))
        b = ranked_table("motifs", rng.normal(size=6))
        r1 = concordance({"attention": a, "motifs": b}, top_k=2).pairs["attention|motifs"]
        r2 = concordance({"motifs": b, "attention": a}, top_k=2).pairs["attention|motifs"]
        assert r1.top_k_jaccard == r2.top_k_jaccard
        assert r1.spearman_rho == r2.spearman_rho

    def test_unknown_method_has_no_orientation(self):
        with pytest.raises(BadParameter, match="'voodoo'"):
            ranked_table("voodoo", [1.0, 2.0])


class TestConfig:
    def test_empty_methods_rejected(self):
        with pytest.raises(BadParameter):
            AnalysisConfig(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(BadParameter):
            AnalysisConfig(methods=("nstc", "voodoo"))

    def test_bad_grid_rejected(self):
        with pytest.raises(BadParameter):
            AnalysisConfig(delta_step=0.0)

    def test_bad_top_k_rejected(self):
        with pytest.raises(BadParameter):
            AnalysisConfig(top_k=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta_max", float("inf")),
            ("delta_min", float("nan")),
            ("delta_min", float("-inf")),
            ("delta_step", float("nan")),
            ("delta_step", 1e-7),
            ("delta_step", 5e-324),
        ],
    )
    def test_unbounded_grid_rejected_before_running(self, field, value):
        with pytest.raises(BadParameter, match=field):
            AnalysisConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("seeds", (0, -1), "seed"),
            ("seeds", (1, 1), "seeds"),
            ("learning_rate", float("nan"), "learning_rate"),
            ("learning_rate", float("inf"), "learning_rate"),
            ("perturb_factor", float("nan"), "perturb_factor"),
            ("perturb_factor", float("-inf"), "perturb_factor"),
        ],
    )
    def test_bad_training_input_rejected_before_running(self, field, value, named):
        with pytest.raises(BadParameter, match=named):
            AnalysisConfig(**{field: value})

    def test_grid_at_the_point_cap_accepted(self):
        config = AnalysisConfig(delta_min=0.0, delta_max=999.0, delta_step=1.0)
        assert len(config.delta_grid()) == MAX_DELTA_POINTS

    def test_empty_grid_rejected_before_running(self):
        with pytest.raises(BadParameter, match="empty delta grid: delta_min=3"):
            AnalysisConfig(delta_min=3, delta_max=0.5)


class TestRun:
    def test_nstc_artifacts(self, tmp_path):
        config = AnalysisConfig(methods=("nstc",), output_dir=str(tmp_path))
        summary = run(config)
        header, rows = read_csv(tmp_path / "nstc.csv")
        assert header == ["node", "n_paths", "nstc", "rank"]
        node6 = next(r for r in rows if r[0] == "6")
        assert node6[2] == "-32.1065"
        assert node6[3] == "1"
        assert (tmp_path / "walk_tree.csv").exists()
        assert summary["methods"]["nstc"]["rows"][6]["nstc"] == pytest.approx(-32.1065, abs=1e-3)

    def test_motif_artifacts_match_reference_values(self, tmp_path):
        from test_motifs import REFERENCE_MOTIF_TABLE

        config = AnalysisConfig(methods=("motifs",), output_dir=str(tmp_path))
        run(config)
        header, rows = read_csv(tmp_path / "motif_costs.csv")
        assert header == ["node", "w3", "w4", "w5", "w6", "total_cost"]
        for row in rows:
            expected = REFERENCE_MOTIF_TABLE[int(row[0])]
            for got, exp in zip(row[1:], expected):
                assert float(got) == pytest.approx(exp, abs=1e-2)

    def test_spectral_artifacts(self, tmp_path):
        config = AnalysisConfig(methods=("spectral",), output_dir=str(tmp_path))
        summary = run(config)
        header, rows = read_csv(tmp_path / "spectral_sweep.csv")
        assert header == ["node", "delta", "largest_negative_eigenvalue", "status"]
        assert len(rows) == 8 * 7  # 8 nodes x (baseline + 6 deltas)
        assert all(r[3] == "ok" for r in rows)
        assert len(summary["methods"]["spectral"]["cells"]) == 56

    def test_attention_artifacts(self, tmp_path):
        config = AnalysisConfig(
            methods=("attention",), output_dir=str(tmp_path), seeds=(0,), iterations=60
        )
        summary = run(config)
        header, rows = read_csv(tmp_path / "loss_history.csv")
        assert header == ["iteration", "loss"]
        assert len(rows) == 60
        header, rows = read_csv(tmp_path / "alpha.csv")
        assert len(rows) == 8 and len(rows[0]) == 8
        header, rows = read_csv(tmp_path / "attention_scores.csv")
        assert header == ["node", "score", "rank"]
        seed_info = summary["methods"]["attention"]["seeds"]["0"]
        assert len(seed_info["loss_history"]) == 60

    def test_missing_labels_names_field(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"n": 2, "adjacency": [[0, 1], [1, 0]], "features": [[1.0], [2.0]]}))
        config = AnalysisConfig(
            model_path=str(model), methods=("attention",), output_dir=str(tmp_path / "out")
        )
        with pytest.raises(BadParameter, match="labels"):
            run(config)

    def test_reruns_are_byte_identical(self, tmp_path):
        config = AnalysisConfig(
            methods=("attention", "spectral", "motifs", "nstc"),
            output_dir=str(tmp_path),
            seeds=(0,),
            iterations=50,
        )
        run(config)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name in first:  # the rerun must write every file again
            (tmp_path / name).unlink()
        run(config)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
        assert "summary.json" in first

    def test_motif_guard_refuses_before_any_file_is_written(self, tmp_path):
        # the complete 48-node digraph: its work bound passes the memory cap
        model = write_model(tmp_path / "m.json", np.ones((48, 48)))
        out = tmp_path / "out"
        config = AnalysisConfig(model_path=model, methods=("spectral", "motifs"), output_dir=str(out))
        with pytest.raises(TooLarge, match=r"motifs method .* work bound for n=48 is .* cap of 256 MiB"):
            run(config)
        assert not out.exists()

    def test_motifs_score_a_17_node_path_zero(self, tmp_path):
        model = write_model(tmp_path / "m.json", np.eye(17, k=1))
        summary = run(AnalysisConfig(model_path=model, methods=("motifs",), output_dir=str(tmp_path)))
        rows = summary["methods"]["motifs"]["rows"]
        assert [r["node"] for r in rows] == list(range(17))
        assert all(r[key] == 0.0 for r in rows for key in ("w3", "w4", "w5", "w6", "total_cost"))

    def test_motifs_past_the_old_guard_match_the_scan_oracle(self, tmp_path):
        from conftest import random_signed_digraph_weights
        from test_motifs import scan_oracle_table

        graph = SignedWeightedDigraph(
            weights=random_signed_digraph_weights(np.random.default_rng(24), 24, density=0.3)
        )
        model = write_model(tmp_path / "m.json", graph.weights)
        config = AnalysisConfig(model_path=model, methods=("motifs", "nstc"), output_dir=str(tmp_path))
        summary = run(config)
        assert summary["methods"]["motifs"]["rows"] == [asdict(r) for r in scan_oracle_table(graph)]
        assert len(read_csv(tmp_path / "motif_costs.csv")[1]) == 24

    def test_summary_contains_every_csv_number(self, tmp_path):
        config = AnalysisConfig(
            methods=("spectral", "motifs", "nstc"), output_dir=str(tmp_path)
        )
        summary = run(config)

        def close_to_some(x, pool):
            # CSV cells carry 6 significant digits; half an ulp is 5e-6 relative
            return any(v is not None and abs(v - x) <= 6e-6 * max(1, abs(x)) for v in pool)

        m = summary["methods"]
        pools = {
            "nstc.csv": [r["nstc"] for r in m["nstc"]["rows"]]
            + [float(r["n_paths"]) for r in m["nstc"]["rows"]]
            + [float(r["node"]) for r in m["nstc"]["rows"]]
            + [float(v) for v in m["nstc"]["ranks"]],
            "walk_tree.csv": [v for w in m["nstc"]["walks"] for v in w],
            "motif_costs.csv": [
                r[k] for r in m["motifs"]["rows"] for k in ("w3", "w4", "w5", "w6", "total_cost")
            ]
            + [float(r["node"]) for r in m["motifs"]["rows"]],
            "spectral_sweep.csv": [c["value"] for c in m["spectral"]["cells"]]
            + [c["delta"] for c in m["spectral"]["cells"]]
            + [float(c["node"]) for c in m["spectral"]["cells"]],
        }
        for name, pool in pools.items():
            _, rows = read_csv(tmp_path / name)
            for row in rows:
                for cell in row:
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    assert close_to_some(x, pool), (name, cell)

    def test_concordance_in_summary(self, tmp_path):
        config = AnalysisConfig(methods=("motifs", "nstc"), output_dir=str(tmp_path))
        summary = run(config)
        pair = summary["concordance"]["pairs"]["motifs|nstc"]
        assert pair["top_k_jaccard"] == 1.0
        assert sorted(pair["top_k"]["motifs"]) == [2, 6]
        assert sorted(pair["top_k"]["nstc"]) == [2, 6]

    def test_run_ranks_match_module_rankers(self, tmp_path, piezo):
        graph, _ = piezo
        config = AnalysisConfig(methods=("attention", "nstc"), output_dir=str(tmp_path), seeds=(0, 1))
        methods = run(config)["methods"]
        nstc = nstc_ranking(graph)
        assert methods["nstc"]["ranks"] == [nstc.rank_of(v) for v in range(graph.n)]
        attention = node_attention_scores(np.array(methods["attention"]["alpha"]))
        assert methods["attention"]["ranks"] == [attention.rank_of(v) for v in range(graph.n)]

    def test_attention_equals_the_sequential_oracle(self, tmp_path, piezo):
        graph, features = piezo
        seeds = tuple(range(10))
        config = AnalysisConfig(methods=("attention",), output_dir=str(tmp_path), seeds=seeds)
        attention = run(config)["methods"]["attention"]
        states = {
            seed: sequential_train(graph, features, graph.node_labels, AgcnHyperparams(seed=seed))
            for seed in seeds
        }
        expected_seeds = {}
        for seed, state in states.items():
            table = node_attention_scores(state.alpha)
            expected_seeds[str(seed)] = {
                "initial_loss": state.loss_history[0],
                "final_loss": state.final_loss,
                "converged": state.final_loss <= CONVERGENCE_LOSS,
                "loss_history": state.loss_history,
                "scores": list(table.scores),
                "ranks": [table.rank_of(node) for node in range(graph.n)],
            }
        representative = next(s for s in seeds if states[s].final_loss <= CONVERGENCE_LOSS)
        assert attention["seeds"] == expected_seeds
        assert attention["representative_seed"] == representative
        assert attention["alpha"] == states[representative].alpha.tolist()

    def test_rerun_with_fewer_methods_removes_only_their_csvs(self, tmp_path):
        config = AnalysisConfig(output_dir=str(tmp_path), iterations=20)
        run(config)
        (tmp_path / "notes.txt").write_text("kept")
        run(replace(config, methods=("nstc",)))
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"nstc.csv", "walk_tree.csv", "summary.json", "notes.txt"}

    def test_failed_rerun_removes_nothing(self, tmp_path):
        from test_walks import OVERFLOWING

        out = tmp_path / "out"
        run(AnalysisConfig(methods=("motifs", "nstc"), output_dir=str(out)))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 3, "adjacency": OVERFLOWING["products"], "features": [[1.0]] * 3}))
        failing = AnalysisConfig(model_path=str(model), methods=("spectral", "nstc"), output_dir=str(out))
        with pytest.raises(NumericalFailure):  # spectral succeeds, nstc fails
            run(failing)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_tables_from_summary_round_trip(self, tmp_path):
        config = AnalysisConfig(methods=("motifs", "nstc"), output_dir=str(tmp_path))
        summary = run(config)
        tables = tables_from_summary(summary)
        assert tables["nstc"].order[:2] == (6, 2)
        report = concordance_from_summary(summary)
        assert report.pairs["motifs|nstc"].top_k_jaccard == 1.0


FLOAT_EDGES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.2e-308, 1e-310, -1e300]
numbers = st.one_of(
    st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=True, allow_infinity=True), st.integers()
)
output_dirs = st.one_of(
    st.text(max_size=8),
    st.just(_WALKS_PLACEHOLDER),  # encodes to the very token that marks the walk list
    st.builds(lambda a, b: a + _WALKS_PLACEHOLDER + b, st.text(max_size=3), st.text(max_size=3)),
)


def nstc_summary(walks, output_dir="out", **fields) -> dict:
    """A summary shaped like `run`'s, whose nstc walk list holds the rows of `walks`."""
    nstc = {"rows": [{"node": 0, "n_paths": 1, "nstc": 1.0}], **fields, "walks": walks.rows()}
    return {"config": {"output_dir": output_dir, "top_k": 2}, "n": 3, "methods": {"nstc": nstc}}


@st.composite
def summaries(draw):
    """(summary, walks, weights): a summary whose walk list is the rows of a graph's `Walks`."""
    graph = draw(signed_digraphs() | extreme_digraphs())
    walks = all_walks(graph)
    summary = nstc_summary(walks, draw(output_dirs), scores=draw(st.lists(numbers, max_size=3)))
    if draw(st.booleans()):
        summary["methods"]["motifs"] = {
            "rows": draw(st.lists(st.dictionaries(st.sampled_from("ab"), numbers), max_size=3))
        }
    return summary, walks, graph.weights


class TestSummaryWriter:
    def write(self, summary, walks=None, weights=None) -> bytes:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "summary.json"
            _write_summary(path, summary, walks, weights)
            assert os.listdir(d) == ["summary.json"]
            return path.read_bytes()

    @given(drawn=summaries(), chunk_rows=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_indented_dumps(self, drawn, chunk_rows):
        summary, walks, weights = drawn
        expected = json.dumps(summary, indent=2, sort_keys=True).encode()
        with mock.patch("netinstab.report._WALK_CHUNK_ROWS", chunk_rows):
            assert self.write(summary, walks, weights) == expected

    def test_several_default_chunks(self):
        rng = np.random.default_rng(5)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, 30, density=1.0))
        walks = all_walks(graph)
        assert len(walks) > 4 * _WALK_CHUNK_ROWS
        summary = nstc_summary(walks)
        expected = json.dumps(summary, indent=2, sort_keys=True).encode()
        assert self.write(summary, walks, graph.weights) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 4, 6])
    def test_nonfinite_products_encode_as_json_does(self, chunk_rows):
        graph = SignedWeightedDigraph(weights=np.ones((3, 3)))  # six walks
        product = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.5])
        walks = replace(all_walks(graph), product=product)
        summary = nstc_summary(walks)
        with mock.patch("netinstab.report._WALK_CHUNK_ROWS", chunk_rows):
            text = self.write(summary, walks, graph.weights).decode()
        assert text == json.dumps(summary, indent=2, sort_keys=True)
        assert "Infinity" in text and "NaN" in text and "inf" not in text.replace("Infinity", "")

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text("old")
        graph = SignedWeightedDigraph(weights=np.ones((20, 20)))  # 6,840 walks: several blocks
        walks = all_walks(graph)
        written, blocks = [], report._walk_row_blocks

        def second_block_fails(*args):
            for rows in blocks(*args):
                if written:
                    raise OSError("disk full")
                written.append(len(rows))
                yield rows

        with mock.patch("netinstab.report._walk_row_blocks", second_block_fails):
            with pytest.raises(OSError, match="disk full"):
                _write_summary(path, nstc_summary(walks), walks, graph.weights)
        assert written == [_WALK_CHUNK_ROWS]  # the first block went to the temporary file
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["summary.json"]

    @given(
        graph=extreme_digraphs(),
        chunk_rows=st.integers(1, 5),
        # the second name puts the walk list's token in the config, which takes the one-call form
        name=st.sampled_from(["out", 'q"' + _WALKS_PLACEHOLDER, _WALKS_PLACEHOLDER]),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_writes_the_returned_summary_and_walk_rows(self, graph, chunk_rows, name):
        with tempfile.TemporaryDirectory() as d, mock.patch("netinstab.report._WALK_CHUNK_ROWS", chunk_rows):
            out = Path(d) / name
            model = write_model(Path(d) / "model.json", graph.weights)
            try:
                summary = run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(out)))
            except NumericalFailure:  # an overflowing product or mean is refused before any write
                assert os.listdir(out) == []
                return
            walks = all_walks(graph)
            assert np.isfinite(walks.product).all()
            assert summary["methods"]["nstc"]["walks"] == walks.rows()
            assert (out / "walk_tree.csv").read_text() == _csv(list(WALK_COLUMNS), walks.rows())
            expected = json.dumps(summary, indent=2, sort_keys=True).encode()
            assert (out / "summary.json").read_bytes() == expected


class TestCli:
    def test_analyze_and_concordance(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            [
                "analyze",
                "--model", "piezo",
                "--variant", "appendix",
                "--method", "motifs,nstc",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "summary.json").exists()
        code = main(["concordance", "--summary", str(out / "summary.json")])
        assert code == 0
        printed = capsys.readouterr().out
        doc = json.loads(printed[printed.index("{") :])
        assert doc["pairs"]["motifs|nstc"]["top_k_jaccard"] == 1.0

    def test_method_all(self, tmp_path):
        out = tmp_path / "all"
        code = main(
            [
                "analyze",
                "--model", "piezo",
                "--method", "all",
                "--out", str(out),
                "--seed", "0",
                "--iters", "50",
            ]
        )
        assert code == 0
        for name in (
            "attention_scores.csv",
            "alpha.csv",
            "loss_history.csv",
            "spectral_sweep.csv",
            "motif_costs.csv",
            "nstc.csv",
            "walk_tree.csv",
            "summary.json",
        ):
            assert (out / name).exists(), name

    def test_analyze_defaults_are_the_config_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--model", "piezo", "--method", "nstc", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = AnalysisConfig(model_path="piezo", methods=("nstc",), output_dir=str(out))
        assert summary["config"] == json.loads(json.dumps(asdict(expected)))

    def test_duplicate_seed_fails(self, tmp_path, capsys):
        argv = ["analyze", "--model", "piezo", "--method", "attention", "--seed", "1", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_fails_with_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main(["analyze", "--model", "piezo", "--method", "nstc", "--out", str(out)]) == 1
        assert "output_dir" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_bad_model_path_fails(self, tmp_path, capsys):
        code = main(
            ["analyze", "--model", str(tmp_path / "missing.json"), "--method", "nstc", "--out", str(tmp_path)]
        )
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_empty_method_list_fails(self, tmp_path, capsys):
        code = main(["analyze", "--model", "piezo", "--method", ",", "--out", str(tmp_path)])
        assert code != 0

    def test_missing_summary_fails(self, tmp_path, capsys):
        code = main(["concordance", "--summary", str(tmp_path / "none.json")])
        assert code != 0

    def test_malformed_summary_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text("{not json")
        assert main(["concordance", "--summary", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1, 2], "document"),
            ({"methods": [1]}, "'methods'"),
            ({"methods": {"nstc": {"scores": 3}, "motifs": {"scores": [1.0]}}}, "'methods.nstc.scores'"),
        ],
    )
    def test_wrong_shape_summary_fails_with_diagnostic(self, tmp_path, capsys, doc, field):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(doc))
        assert main(["concordance", "--summary", str(path)]) == 1
        assert field in capsys.readouterr().err

    def test_unknown_method_in_summary_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        methods = {"nstc": {"scores": [1.0, 2.0]}, "bogus": {"scores": [2.0, 1.0]}}
        path.write_text(json.dumps({"methods": methods}))
        assert main(["concordance", "--summary", str(path)]) == 1
        assert "'bogus'" in capsys.readouterr().err
