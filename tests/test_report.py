import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netinstab import (
    AgcnHyperparams,
    AgcnState,
    AnalysisConfig,
    BadParameter,
    NetinstabError,
    NumericalFailure,
    SignedWeightedDigraph,
    TooLarge,
    concordance,
    eigenvalues,
    enumerate_simple_cycles,
    forward,
    node_attention_scores,
    nstc_ranking,
    pair_attention,
    perturb_column,
    perturb_features,
    perturbation_sweep,
    ranked_table,
    self_attention_embed,
    train_seeds,
)
import netinstab
from netinstab import report
from netinstab.agcn import MAX_ITERATIONS
from netinstab.cli import main
from netinstab.graph import BLOCK_BYTES
from netinstab.report import (
    CONVERGENCE_LOSS,
    MAX_DELTA_POINTS,
    WALK_COLUMNS,
    _csv,
    _g6_lines,
    _walk_csv,
    concordance_from_summary,
    run,
    tables_from_summary,
)
from conftest import random_signed_digraph_weights
from test_agcn import sequential_train
from test_walks import extreme_digraphs, oracle_nstc, oracle_walk_rows, signed_digraphs, walk_row_bytes


def write_model(path, weights):
    """Write a model file with these weights and one feature per node; return its path."""
    n = len(weights)
    path.write_text(json.dumps({"n": n, "adjacency": np.asarray(weights).tolist(), "features": [[1.0]] * n}))
    return str(path)


def nstc_files(out, block_bytes, **config):
    """The bytes of walk_tree.csv, nstc.csv and summary.json from an nstc run with
    `BLOCK_BYTES` at `block_bytes`, or the message of the `NumericalFailure` it raises."""
    with mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
        try:
            run(AnalysisConfig(methods=("nstc",), output_dir=str(out), **config))
        except NumericalFailure as exc:
            return str(exc)
    return {name: (out / name).read_bytes() for name in ("walk_tree.csv", "nstc.csv", "summary.json")}


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
        for top_k in (0, True, 1.5):
            with pytest.raises(BadParameter, match="top_k"):
                AnalysisConfig(top_k=top_k)

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
            ("seeds", 5, "seeds"),
            ("seeds", np.array(3), "seeds"),
            ("methods", 5, "methods must be"),
            ("methods", "nstc", "methods must be"),  # not split into letters
            ("learning_rate", float("nan"), "learning_rate"),
            ("learning_rate", float("inf"), "learning_rate"),
            ("perturb_factor", float("nan"), "perturb_factor"),
            ("perturb_factor", float("-inf"), "perturb_factor"),
            *(
                (name, value, name)
                for name in ("learning_rate", "leaky_slope", "perturb_factor")
                + ("delta_min", "delta_max", "delta_step")
                for value in (True, "x")
            ),
            ("methods", [["nstc"]], "methods must be"),  # unhashable
            ("iterations", MAX_ITERATIONS + 1, f"iterations must be an integer from 1 to {MAX_ITERATIONS}"),
            ("iterations", 10**12, "iterations"),  # not a loss array of terabytes
        ],
    )
    def test_bad_training_input_rejected_before_running(self, field, value, named):
        with pytest.raises(BadParameter, match=named):
            AnalysisConfig(**{field: value})

    def test_iterations_at_the_cap_accepted(self):
        assert AnalysisConfig(iterations=MAX_ITERATIONS).hyperparams().iterations == MAX_ITERATIONS

    def test_perturb_factor_without_perturb_node_rejected(self):
        with pytest.raises(BadParameter, match="perturb_factor=3.0 needs a perturb_node"):
            AnalysisConfig(perturb_factor=3.0)
        # the default factor, or any factor with a node to scale, is accepted
        AnalysisConfig(perturb_factor=AnalysisConfig.perturb_factor)
        assert AnalysisConfig(perturb_node=0, perturb_factor=3.0).perturb_factor == 3.0

    @pytest.mark.parametrize("field", ["model_path", "output_dir"])
    def test_path_that_is_not_a_string_rejected(self, tmp_path, field):
        with pytest.raises(BadParameter, match=field):
            AnalysisConfig(**{field: tmp_path / "x"})

    def test_sequences_stored_as_tuples(self, tmp_path):
        config = AnalysisConfig(methods=["nstc"], seeds=range(3), output_dir=str(tmp_path))
        assert (config.methods, config.seeds) == (("nstc",), (0, 1, 2))
        run(config)
        saved = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert (saved["methods"], saved["seeds"]) == (["nstc"], [0, 1, 2])
        # numpy scalars and fractions are stored, and saved, as the built-in numbers they equal
        plain = dict(methods=("attention", "nstc"), seeds=(0, 1, 2), top_k=3, iterations=20,
                     perturb_node=1, delta_max=3.0, delta_step=0.5)
        other = dict(plain, seeds=np.arange(3), top_k=np.int64(3), iterations=np.int64(20),
                     perturb_node=np.int64(1), delta_max=np.float32(3.0), delta_step=Fraction(1, 2))
        texts = []
        for kwargs in (plain, other):
            run(AnalysisConfig(output_dir=str(tmp_path / "out"), **kwargs))
            texts.append((tmp_path / "out" / "summary.json").read_text())
        assert texts[0] == texts[1]

    def test_grid_at_the_point_cap_accepted(self):
        # the cap counts the grid's points; a delta_max just past the last one adds none
        for delta_max in (999.0, 999.0000000000001):
            config = AnalysisConfig(delta_min=0.0, delta_max=delta_max, delta_step=1.0)
            assert len(config.delta_grid()) == MAX_DELTA_POINTS
        with pytest.raises(BadParameter, match=f"more than {MAX_DELTA_POINTS} grid points"):
            AnalysisConfig(delta_min=0.0, delta_max=1000.0, delta_step=1.0)

    def test_empty_grid_rejected_before_running(self):
        with pytest.raises(BadParameter, match="empty delta grid: delta_min=3"):
            AnalysisConfig(delta_min=3, delta_max=0.5)

    @pytest.mark.parametrize(
        "kwargs, grid",
        [
            ({}, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
            (dict(delta_min=0.1, delta_max=0.7, delta_step=0.1), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
            # below 1e-12, where rounding each point to 12 decimals made most of them 0.0
            (dict(delta_min=1e-13, delta_max=5e-13, delta_step=1e-13), [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]),
            (dict(delta_min=2.5e-13, delta_max=2.5e-13), [2.5e-13]),
            # 1e16 + 1 is 1e16 in float64, but it is past delta_max
            (dict(delta_min=1e16, delta_max=1e16, delta_step=1), [1e16]),
            (dict(delta_min=-0.0, delta_max=1.0), [0.0, 0.5, 1.0]),
        ],
    )
    def test_grid_points(self, kwargs, grid):
        got = AnalysisConfig(**kwargs).delta_grid()
        assert got == grid
        assert [math.copysign(1, d) for d in got] == [math.copysign(1, d) for d in grid]  # -0.0 is 0.0

    @pytest.mark.parametrize(
        "delta_min, delta_max, delta_step",
        [
            (1e16, 1e16 + 4, 1),  # points 1e16 + 1 and 1e16 + 3 are no float64 of their own
            (-4.4e-323, 1e-322, 1.5e-323),  # one point is 1e-324, which float64 rounds to 0.0
        ],
    )
    def test_grid_float64_cannot_hold_is_refused(self, delta_min, delta_max, delta_step):
        with pytest.raises(BadParameter, match="delta_step=.* below float64's resolution"):
            AnalysisConfig(delta_min=delta_min, delta_max=delta_max, delta_step=delta_step)

    def test_tenth_step_grids_keep_their_values(self):
        # the values that rounding each naive sum to 12 decimals gave, up to 3.0
        for lo, hi in itertools.combinations_with_replacement(range(31), 2):
            delta_min, delta_max = lo / 10, hi / 10
            naive = [round(delta_min + k * 0.1, 12) for k in range(hi - lo + 1)]
            assert AnalysisConfig(delta_min=delta_min, delta_max=delta_max, delta_step=0.1).delta_grid() == naive

    @given(
        lo=st.integers(-999, 999),
        step=st.integers(1, 999),
        exponent=st.integers(-330, 300),
        finer=st.integers(-2, 19),  # the step's exponent below delta_min's
        points=st.integers(0, 40),
        past=st.sampled_from([-1, 0, 1, 5, 9]),  # tenths of a step past the last point
    )
    @example(lo=1, step=1, exponent=16, finer=16, points=4, past=0)  # 1e16 in steps of 1
    @example(lo=1, step=1, exponent=-13, finer=0, points=4, past=0)
    @settings(max_examples=300, deadline=None)
    def test_grid_is_the_exact_decimal_grid(self, lo, step, exponent, finer, points, past):
        """Every point lies in [delta_min, delta_max], is the float64 nearest
        delta_min + k * delta_step worked out exactly, and is told apart from its
        neighbours and, unless that sum is 0, from 0; otherwise the grid is refused."""
        exact_min, exact_step = Decimal(f"{lo}e{exponent}"), Decimal(f"{step}e{exponent - finer}")
        delta_min, delta_step = float(exact_min), float(exact_step)
        assume(delta_step > 0 and math.isfinite(delta_min + 50 * delta_step))
        delta_max = float(exact_min + (10 * points + past) * exact_step / 10)
        with localcontext(prec=1000):
            first, last, stride = (Decimal(repr(x)) for x in (delta_min, delta_max, delta_step))
            count = math.floor((last - first) / stride) + 1  # delta_max may round far past the last point
            exact = [first + k * stride for k in range(min(count, MAX_DELTA_POINTS))]
        want = list(map(float, exact))
        refusal = (
            "empty delta grid" if count < 1
            else f"more than {MAX_DELTA_POINTS} grid points" if count > MAX_DELTA_POINTS
            else "delta_step=.* below float64's resolution" if any(a >= b for a, b in zip(want, want[1:]))
            or any(p and not d for p, d in zip(exact, want))
            else None
        )
        kwargs = dict(delta_min=delta_min, delta_max=delta_max, delta_step=delta_step)
        if refusal:
            with pytest.raises(BadParameter, match=refusal):
                AnalysisConfig(**kwargs)
            return
        grid = AnalysisConfig(**kwargs).delta_grid()
        assert grid == want
        assert all(delta_min <= d <= delta_max for d in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert all(d or not p for p, d in zip(exact, grid))


def _state(w):
    return AgcnState(w_att=np.zeros(6), w=w, alpha=np.full((8, 8), 1 / 8))


HYPER = AgcnHyperparams(iterations=2)
NAN = float("nan")


@pytest.mark.parametrize(
    "named, call",
    [
        ("deltas", lambda g, f: perturbation_sweep(g, ["a"])),
        ("deltas", lambda g, f: perturbation_sweep(g, [True])),
        ("delta", lambda g, f: perturb_column(g, 1, "x")),
        ("delta", lambda g, f: perturb_column(g, 1, True)),
        ("factor", lambda g, f: perturb_features(f, 0, "x")),
        ("factor", lambda g, f: perturb_features(f, 0, NAN)),
        ("matrix", lambda g, f: eigenvalues([["a"]])),
        ("matrix", lambda g, f: eigenvalues([[True]])),
        ("w", lambda g, f: forward(g, f, _state(["a", "b", "c"]), HYPER)),
        ("w_att", lambda g, f: pair_attention(self_attention_embed(f, HYPER), ["a"] * 6, HYPER)),
        ("targets", lambda g, f: train_seeds(g, f, [0.1] * 7 + [NAN], HYPER, [0])),
        ("targets", lambda g, f: train_seeds(g, f, "abcdefgh", HYPER, [0])),
        ("targets", lambda g, f: train_seeds(g, f, [True] * 8, HYPER, [0])),
        ("cycle length", lambda g, f: enumerate_simple_cycles(g, 3.5)),
        ("scores", lambda g, f: ranked_table("nstc", ["x"] * 8)),
        ("scores", lambda g, f: ranked_table("nstc", [NAN, 1.0])),
        ("scores", lambda g, f: ranked_table("nstc", [np.float32("nan"), 1.0])),
        ("scores", lambda g, f: ranked_table("nstc", 5)),
        ("seeds", lambda g, f: train_seeds(g, f, g.node_labels, HYPER, seeds=3)),
        ("alpha", lambda g, f: node_attention_scores([["a"]])),
        ("delta_max", lambda g, f: AnalysisConfig(delta_max=10**400)),
    ],
    ids=[
        "perturbation_sweep-str", "perturbation_sweep-bool", "perturb_column-str",
        "perturb_column-bool", "perturb_features-str", "perturb_features-nan", "eigenvalues-str",
        "eigenvalues-bool", "forward-str", "pair_attention-str", "train_seeds-nan",
        "train_seeds-str", "train_seeds-bool", "enumerate_simple_cycles-float", "ranked_table-str",
        "ranked_table-nan", "ranked_table-float32-nan", "ranked_table-int", "train_seeds-int",
        "node_attention_scores-str", "AnalysisConfig-past-float-range",
    ],
)
def test_public_functions_name_a_bad_number(piezo, named, call):
    # a NetinstabError that names the argument, not a bare TypeError or DivergedTraining
    with pytest.raises(NetinstabError, match=f"^{named} must be"):
        call(*piezo)


class TestRun:
    def test_unencodable_summary_writes_nothing(self, tmp_path):
        with mock.patch("netinstab.report.json.dumps", side_effect=TypeError("not JSON serializable")):
            with pytest.raises(TypeError, match="not JSON serializable"):
                run(AnalysisConfig(methods=("nstc",), output_dir=str(tmp_path)))
        assert os.listdir(tmp_path) == []

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

    def test_motif_guard_leaves_the_output_as_it_was(self, tmp_path):
        # the complete 48-node digraph, each edge i -> i + 1 (mod 48) negative: every node is
        # like every other, so the costs tie, inclusion–exclusion gives way to enumeration,
        # and its work bound passes the memory cap. The sweep has run and written by then
        w = np.ones((48, 48)) - 2 * np.roll(np.eye(48), 1, axis=1)
        model = write_model(tmp_path / "m.json", w)
        out = tmp_path / "out"
        run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(out)))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        config = AnalysisConfig(model_path=model, methods=("spectral", "motifs"), output_dir=str(out))
        with pytest.raises(TooLarge, match=r"motifs method .* work bound for n=48 is .* cap of 256 MiB"):
            run(config)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "methods, node",
        [(("attention",), 8), (("attention",), 1.5), (("nstc",), -1), (("nstc",), 99), (("nstc",), True)],
    )
    def test_perturb_node_outside_the_graph_refused_before_any_file(self, tmp_path, methods, node):
        out = tmp_path / "out"
        config = AnalysisConfig(methods=methods, output_dir=str(out), perturb_node=node)
        with pytest.raises(BadParameter, match="perturb_node must be an integer from 0 to 7"):
            run(config)
        assert not out.exists()

    def test_model_without_labels_refused_before_any_file(self, tmp_path, capsys):
        model = write_model(tmp_path / "nolab.json", [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "out"
        assert main(["analyze", "--model", model, "--method", "attention,nstc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "labels" in err
        assert not out.exists()

    def test_motifs_score_a_17_node_path_zero(self, tmp_path):
        model = write_model(tmp_path / "m.json", np.eye(17, k=1))
        summary = run(AnalysisConfig(model_path=model, methods=("motifs",), output_dir=str(tmp_path)))
        rows = summary["methods"]["motifs"]["rows"]
        assert [r["node"] for r in rows] == list(range(17))
        assert all(r[key] == 0.0 for r in rows for key in ("w3", "w4", "w5", "w6", "total_cost"))

    def test_motifs_past_the_old_guard_match_the_scan_oracle(self, tmp_path):
        from conftest import random_signed_digraph_weights
        from test_motifs import certified_rows

        graph = SignedWeightedDigraph(
            weights=random_signed_digraph_weights(np.random.default_rng(24), 24, density=0.3)
        )
        model = write_model(tmp_path / "m.json", graph.weights)
        config = AnalysisConfig(model_path=model, methods=("motifs", "nstc"), output_dir=str(tmp_path))
        summary = run(config)
        assert summary["methods"]["motifs"]["rows"] == [asdict(r) for r in certified_rows(graph)]
        assert len(read_csv(tmp_path / "motif_costs.csv")[1]) == 24

    def test_summary_contains_every_csv_number(self, tmp_path):
        config = AnalysisConfig(output_dir=str(tmp_path), iterations=40)
        assert set(config.methods) == set(report.METHODS)
        summary = run(config)

        def close_to_some(x, pool):
            # CSV cells carry 6 significant digits; half an ulp is 5e-6 relative
            return any(v is not None and abs(v - x) <= 6e-6 * max(1, abs(x)) for v in pool)

        m = summary["methods"]
        attention = m["attention"]
        losses = attention["seeds"][str(attention["representative_seed"])]["loss_history"]
        nodes = [float(k) for k in range(summary["n"])]  # a row's node is its list index
        pools = {
            "loss_history.csv": losses + [float(i) for i in range(len(losses))],  # iteration = index
            "alpha.csv": [v for row in attention["alpha"] for v in row],
            "attention_scores.csv": attention["scores"]
            + [float(v) for v in attention["ranks"]]
            + nodes,
            "nstc.csv": [r["nstc"] for r in m["nstc"]["rows"]]
            + [float(r["n_paths"]) for r in m["nstc"]["rows"]]
            + [float(r["node"]) for r in m["nstc"]["rows"]]
            + [float(v) for v in m["nstc"]["ranks"]],
            "motif_costs.csv": [
                r[k] for r in m["motifs"]["rows"] for k in ("w3", "w4", "w5", "w6", "total_cost")
            ]
            + [float(r["node"]) for r in m["motifs"]["rows"]],
            "spectral_sweep.csv": [c["value"] for c in m["spectral"]["cells"]]
            + [c["delta"] for c in m["spectral"]["cells"]]
            + [float(c["node"]) for c in m["spectral"]["cells"]],
        }
        assert set(pools) | {"walk_tree.csv"} == {f for files in report.ARTIFACTS.values() for f in files}
        for name, pool in pools.items():
            _, rows = read_csv(tmp_path / name)
            assert rows, name
            for row in rows:
                for cell in row:
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    assert close_to_some(x, pool), (name, cell)
        # the walks are the one exception: the summary counts them per start node
        _, walk_rows = read_csv(tmp_path / "walk_tree.csv")
        assert len(walk_rows) == sum(r["n_paths"] for r in m["nstc"]["rows"])

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
            seed: sequential_train(graph, features, graph.node_labels, AgcnHyperparams(), seed)
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

    def test_summary_without_config_takes_the_default_top_k(self):
        summary = {"methods": {"motifs": {"scores": [3.0, 1.0, 2.0]}, "nstc": {"scores": [1.0, 3.0, 2.0]}}}
        assert concordance_from_summary(summary).top_k == AnalysisConfig().top_k


class TestSummaryWriter:
    def test_failed_write_keeps_every_old_file(self, tmp_path):
        run(AnalysisConfig(methods=("motifs",), output_dir=str(tmp_path)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        opened = []

        def open_fails_second(*args, **kwargs):
            opened.append(args[0])
            if len(opened) == 2:
                raise OSError("disk full")
            return open(*args, **kwargs)

        with mock.patch("netinstab.report.open", open_fails_second, create=True):
            with pytest.raises(BadParameter, match="disk full"):
                run(AnalysisConfig(methods=("nstc",), output_dir=str(tmp_path)))
        # the stale motif_costs.csv and the old summary stay, and no new or .tmp file appears
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_rename_keeps_every_old_file(self, tmp_path):
        run(AnalysisConfig(methods=("nstc",), output_dir=str(tmp_path)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with mock.patch("netinstab.report.os.replace", side_effect=OSError("disk full")):
            with pytest.raises(BadParameter, match="disk full"):  # top_k=3 changes summary.json
                run(AnalysisConfig(methods=("nstc",), top_k=3, output_dir=str(tmp_path)))
        # every temporary file, all of them written by then, is removed
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_several_default_chunks(self, tmp_path):
        # the smallest complete digraph (self-loops too, at density 1) with over four blocks
        # of walks at 72-byte rows: weights of 2 lanes ("-1.23456,"), products of 3
        n = next(n for n in itertools.count(3) if n * (n - 1) * (n - 2) > 4 * (BLOCK_BYTES // 72))
        rng = np.random.default_rng(5)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density=1.0))
        rows = oracle_walk_rows(graph.weights)
        assert walk_row_bytes(graph.weights) == 72
        assert len(list(_walk_csv(graph, []))) > 5  # the header and over four blocks
        model = write_model(tmp_path / "model.json", graph.weights)
        summary = run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(tmp_path)))
        assert (tmp_path / "walk_tree.csv").read_text() == _csv(list(WALK_COLUMNS), rows)
        expected = json.dumps(summary, indent=2, sort_keys=True)
        assert (tmp_path / "summary.json").read_text() == expected

    @given(graph=extreme_digraphs(), block_bytes=st.integers(1, 400))  # down to a row a block
    @settings(max_examples=100, deadline=None)
    def test_run_writes_the_returned_summary_and_walk_rows(self, graph, block_bytes):
        with tempfile.TemporaryDirectory() as d, mock.patch("netinstab.graph.BLOCK_BYTES", block_bytes):
            out = Path(d) / "out"
            model = write_model(Path(d) / "model.json", graph.weights)
            try:
                summary = run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(out)))
            except NumericalFailure:  # an overflowing product or mean fails the run, and its temporary files go
                assert os.listdir(out) == []
                return
            rows = oracle_walk_rows(graph.weights)
            assert (out / "walk_tree.csv").read_text() == _csv(list(WALK_COLUMNS), rows)
            expected = json.dumps(summary, indent=2, sort_keys=True).encode()
            assert (out / "summary.json").read_bytes() == expected

    @pytest.mark.parametrize("variant", ["appendix", "printed"])
    def test_row_blocks_equal_default_run_on_piezo(self, tmp_path, variant, piezo, piezo_printed):
        # a block bound of 1 byte makes every start node its own block
        default = nstc_files(tmp_path, BLOCK_BYTES, model_path="piezo", variant=variant)
        assert nstc_files(tmp_path, 1, model_path="piezo", variant=variant) == default
        weights = (piezo if variant == "appendix" else piezo_printed)[0].weights
        assert default["walk_tree.csv"].decode() == _csv(list(WALK_COLUMNS), oracle_walk_rows(weights))
        rows = json.loads(default["summary.json"])["methods"]["nstc"]["rows"]
        assert rows == [asdict(oracle_nstc(weights, k)) for k in range(len(weights))]

    @given(graph=signed_digraphs() | extreme_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_equal_default_run(self, graph):
        with tempfile.TemporaryDirectory() as d:
            model = write_model(Path(d) / "model.json", graph.weights)
            default = nstc_files(Path(d) / "out", BLOCK_BYTES, model_path=model)
            assert nstc_files(Path(d) / "out", 1, model_path=model) == default
        expected = [oracle_nstc(graph.weights, k) for k in range(graph.n)]
        bad = [row.node for row in expected if not math.isfinite(row.nstc)]
        if bad:  # the same failure, naming the first node whose products or mean overflow
            assert f"from node {bad[0]} " in default
            return
        assert default["walk_tree.csv"].decode() == _csv(list(WALK_COLUMNS), oracle_walk_rows(graph.weights))
        assert json.loads(default["summary.json"])["methods"]["nstc"]["rows"] == [asdict(r) for r in expected]

    def test_overflow_in_a_late_block_keeps_old_out(self, tmp_path):
        # node 7's edges weigh 1e308 and go to nodes whose edges weigh +-2, so its
        # products are +-2e308, which overflow; no edge enters node 7, so no other node's do
        rng = np.random.default_rng(7)
        weights = np.where(rng.random((8, 8)) < 0.5, 2.0, -2.0)
        weights[7], weights[:, 7] = 1.0, 0.0
        out = tmp_path / "out"
        run(AnalysisConfig(model_path=write_model(tmp_path / "old.json", weights), methods=("nstc",), output_dir=str(out)))
        weights[7] = 1e308
        model = write_model(tmp_path / "model.json", weights)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        pieces = []

        def walk_csv(graph, rows):  # the pieces handed to the writer
            for piece in _walk_csv(graph, rows):
                pieces.append(piece)
                yield piece

        with mock.patch("netinstab.graph.BLOCK_BYTES", 1), mock.patch("netinstab.report._walk_csv", walk_csv):
            with pytest.raises(NumericalFailure, match="from node 7 "):
                run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(out)))
        assert len(pieces) == 8  # the header and the blocks of nodes 0-6 were written
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # and no .tmp file is left

    def test_walk_memory_follows_the_block_not_the_graph(self, tmp_path):
        # n = 64 at density 1: 249,984 walks, whose 72-byte rows fill about 34 blocks
        n = 64
        weights = random_signed_digraph_weights(np.random.default_rng(64), n, density=1.0)
        assert n * (n - 1) * (n - 2) * walk_row_bytes(weights) > 10 * BLOCK_BYTES
        config = AnalysisConfig(model_path=write_model(tmp_path / "model.json", weights), methods=("nstc",), output_dir=str(tmp_path))
        run(config)  # the `%.6g` tables are made once per process
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's walks, lanes and text, plus the tables and the model, which go by edge
        assert peak < 3 * BLOCK_BYTES + 128 * n * n

    def test_n256_nstc_run_peaks_below_80_mb(self, tmp_path):
        # the 1.5 million walks of an n = 256, density-0.3 model, held a block of start nodes
        # at a time: about 37 MB of RSS, where holding every walk at once took 103 MB. The
        # child reports the peak of its own address space, Linux's VmHWM in KiB. Its
        # ru_maxrss would not do: exec keeps the peak of the address space it replaces,
        # here this process's (226 MB late in the suite), and RUSAGE_CHILDREN
        # here is the largest of every child this process has waited for
        rng = np.random.default_rng(256)
        weights = np.where(rng.random((256, 256)) < 0.3, rng.uniform(-2, 2, (256, 256)), 0.0)
        model = write_model(tmp_path / "n256.json", weights)
        child = (
            "import sys\n"
            "from netinstab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
            "sys.exit(code)"
        )
        src = str(Path(netinstab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["analyze", "--model", model, "--method", "nstc", "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, check=True)
        peak_mb = int(done.stdout.split()[-2]) / 1024  # "VmHWM: <KiB> kB"
        assert peak_mb < 80, peak_mb

    def test_summary_holds_no_walk_rows(self, tmp_path):
        summary = run(AnalysisConfig(methods=("nstc",), output_dir=str(tmp_path)))
        assert "walks" not in summary["methods"]["nstc"]
        assert "walks" not in json.loads((tmp_path / "summary.json").read_text())["methods"]["nstc"]

    @pytest.mark.parametrize("scale", [1e-3, 1e150])
    def test_exponent_notation_walk_tree(self, tmp_path, scale):
        # every product, and at 1e150 every weight, is written in exponent notation
        rng = np.random.default_rng(40)
        weights = scale * random_signed_digraph_weights(rng, 64, density=0.5)
        rows = oracle_walk_rows(weights)
        assert len(list(_walk_csv(SignedWeightedDigraph(weights=weights), []))) > 4  # over three blocks
        assert all("e" in "%.6g" % row[-1] for row in rows)
        model = write_model(tmp_path / "model.json", weights)
        run(AnalysisConfig(model_path=model, methods=("nstc",), output_dir=str(tmp_path)))
        assert (tmp_path / "walk_tree.csv").read_text() == _csv(list(WALK_COLUMNS), rows)


def g6_texts(values):
    """The lines `_g6_lines` writes for `values`, its NULs dropped."""
    lanes = _g6_lines(np.array(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in lanes]


# a rounding tie of the sixth digit, or a switch of notation or of exponent, at or near each
G6_EDGES = [0.0001, 9.999995e-05, 9.99999e-05, 99999.95, 999999.5, 123456.5, 1e-05, 1e06, 5e-324]


class TestG6Lines:
    """`_g6_lines` against Python's own `"%.6g"`, which the walk rows must match byte for byte."""

    @given(values=st.lists(st.floats(), min_size=1, max_size=64))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308])
    @example(values=[-1.7976931348623157e308, float("inf"), float("-inf"), float("nan")])
    @settings(max_examples=300, deadline=None)
    def test_equals_python_format(self, values):
        assert g6_texts(values) == ["%.6g\n" % v for v in values]

    @pytest.mark.parametrize("value", G6_EDGES)
    def test_edges_and_their_neighbours(self, value):
        x = np.array([value, -value])
        values = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]).tolist()
        assert g6_texts(values) == ["%.6g\n" % v for v in values]

    @pytest.mark.parametrize("digits", ["1.234565", "9.999995", "9.99999", "1.000005", "1"])
    def test_every_exponent(self, digits):
        x = np.array([float(f"{digits}e{k}") for k in range(-323, 309)])
        values = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0.0), -x]).tolist()
        assert g6_texts(values) == ["%.6g\n" % v for v in values]

    def test_every_table_entry(self):
        # every high word with a zero and with a nonzero low word, and every low word,
        # at each place of the point in fixed notation and in exponent notation on both
        # sides, each with a value that carries into the next power of 10
        high = np.arange(100, 1000)
        digits = np.concatenate([high * 1000, high * 1000 + 1000 - high, 123000 + np.arange(1000)])
        values = [float(f"{d}e{e - 5}") for e in range(-5, 7) for d in [*digits.tolist(), "999999.7"]]
        values += [-v for v in values]
        assert len(values) > 50_000
        assert g6_texts(values) == ["%.6g\n" % v for v in values]


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

    def test_deltas_below_1e_12_are_kept(self, tmp_path):
        out = tmp_path / "out"
        argv = ["analyze", "--model", "piezo", "--method", "spectral", "--out", str(out)]
        assert main([*argv, "--delta-min", "1e-13", "--delta-max", "5e-13", "--delta-step", "1e-13"]) == 0
        deltas = json.loads((out / "summary.json").read_text())["methods"]["spectral"]["deltas"]
        assert deltas == [0.0, 1e-13, 2e-13, 3e-13, 4e-13, 5e-13]

    def test_variant_of_a_model_file_fails_before_out(self, tmp_path, capsys):
        model = write_model(tmp_path / "n1.json", [[0.5]])
        argv = ["analyze", "--model", model, "--variant", "printed", "--method", "nstc"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: variant 'printed'") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_perturb_factor_without_perturb_node_fails_before_out(self, tmp_path, capsys):
        argv = ["analyze", "--model", "piezo", "--method", "nstc", "--perturb-factor", "3"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perturb_factor=3.0") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    # a directory, with a file in it, where nstc's CSV or the summary goes, or
    # where the run removes the stale CSV of a method it does not run
    @pytest.mark.parametrize("blocked", ["nstc.csv", "summary.json", "motif_costs.csv"])
    def test_artifact_that_cannot_be_written_fails_with_diagnostic(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        (out / blocked / "kept").write_text("kept")
        names = ("summary.json", "nstc.csv", "walk_tree.csv", "motif_costs.csv")
        old = {name: b"old" for name in names if name != blocked}
        for name, data in old.items():
            (out / name).write_bytes(data)
        assert main(["analyze", "--model", "piezo", "--method", "nstc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir {str(out)!r}: ") and blocked in err
        assert (out / blocked / "kept").read_text() == "kept"
        # every old file is as it was, and no new or .tmp file appears
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == old

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

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_summary_fails_with_diagnostic(self, tmp_path, capsys, kind):
        path = tmp_path / "summary.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"methods": "\xff"}')
        assert main(["concordance", "--summary", str(path)]) == 1
        assert f"summary file {str(path)!r} cannot be read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            "5",
            '{"n": 1, "adjacency": [["x"]], "features": [[1.0]]}',
            '{"n": true, "adjacency": [[0.5]], "features": [[1]]}',
            '{"n": 1, "adjacency": [[true]], "features": [[1]]}',
            "[" * 200_000,
        ],
        ids=["not an object", "non-numeric adjacency", "n is true", "boolean adjacency", "deeply nested"],
    )
    def test_malformed_model_fails_with_diagnostic(self, tmp_path, capsys, doc):
        model = tmp_path / "model.json"
        model.write_text(doc)
        out = tmp_path / "out"
        assert main(["analyze", "--model", str(model), "--method", "nstc", "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_summary_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        for text in ("{not json", "[" * 200_000):
            path.write_text(text)
            assert main(["concordance", "--summary", str(path)]) == 1
            assert "error: summary file is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1, 2], "document"),
            ({"methods": [1]}, "'methods'"),
            ({"methods": {"nstc": {"scores": 3}, "motifs": {"scores": [1.0]}}}, "'methods.nstc.scores'"),
            (
                {"methods": {"nstc": {"scores": [True, False, 0.5]}, "motifs": {"scores": [1.0] * 3}}},
                "'methods.nstc.scores'",
            ),
            (
                {"methods": {"nstc": {"scores": [NAN, 1.0]}, "motifs": {"scores": [1.0] * 2}}},
                "'methods.nstc.scores'",
            ),
            (
                {"methods": {"nstc": {"scores": "12"}, "motifs": {"scores": [1.0] * 2}}},
                "'methods.nstc.scores'",
            ),
            (
                {"methods": {"nstc": {"scores": [10**400, 1]}, "motifs": {"scores": [1.0] * 2}}},
                "'methods.nstc.scores'",
            ),
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
