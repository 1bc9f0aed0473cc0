"""Tests for the benchmark's own code: python3 -m pytest perfbench"""
import json
import math
import types

import numpy as np
import pytest

import check
import run
import spans
from workloads import POOL, WORKLOADS

report = run.import_package().report


def test_generator_is_deterministic_per_seed():
    w = WORKLOADS["cycles-n16"]
    assert w.model(3) == w.model(3)
    assert w.model(3) == w.model(3 + POOL)
    a, b = np.array(w.model(3)["adjacency"]), np.array(w.model(4)["adjacency"])
    assert not np.array_equal(a, b)
    assert np.array_equal(a != 0, b != 0)  # only the weights follow the seed
    assert a.shape == (16, 16) and np.abs(a).max() <= 2.0


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_nested_children_once():
    tree = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 5.0, 9.0, "b"),
        _span(3, 2, 6.0, 7.0, "c"),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    overlapping = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0)]
    assert spans.self_times(overlapping)[0] == 5.0


def test_wrapped_caller_is_not_charged_for_wrapped_callee(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    mod = types.SimpleNamespace()
    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer() == 2
    tracer.restore()
    inclusive, own = spans.summarize(tracer.spans, 0)
    assert inclusive == {"outer": 5.0, "inner": 2.0}
    assert own == {"outer": 3.0, "inner": 2.0}
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert mod.inner() == 1 and len(tracer.spans) == 3  # restored


@pytest.fixture(scope="module")
def synthetic_summary(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthetic")
    path = tmp / "model.json"
    doc = WORKLOADS["cycles-n16"].model(5)
    doc["n"] = 8
    doc["adjacency"] = [row[:8] for row in doc["adjacency"][:8]]
    doc["features"] = doc["features"][:8]
    path.write_text(json.dumps(doc))
    config = report.AnalysisConfig(
        model_path=str(path), methods=("spectral", "nstc"), output_dir=str(tmp / "out")
    )
    return report.run(config)


def _perturbed(summary, method, node, factor):
    out = json.loads(json.dumps(summary))
    out["methods"][method]["scores"][node] *= factor
    return out


def test_recorded_check_accepts_rounding_and_rejects_a_perturbed_score(synthetic_summary):
    expected = json.loads(json.dumps(check.record(synthetic_summary)))
    assert check.check_recorded(synthetic_summary, expected) == []
    assert check.check_recorded(_perturbed(synthetic_summary, "nstc", 3, 1 + 1e-9), expected) == []
    problems = check.check_recorded(_perturbed(synthetic_summary, "nstc", 3, 1 + 1e-5), expected)
    assert problems and "node 3" in problems[0]
    swapped = json.loads(json.dumps(synthetic_summary))
    ranks = swapped["methods"]["spectral"]["ranks"]
    ranks[0], ranks[1] = ranks[1], ranks[0]
    assert check.check_recorded(swapped, expected)
    flipped = json.loads(json.dumps(synthetic_summary))
    flipped["methods"]["spectral"]["cells"][0]["status"] = "failed"
    assert check.check_recorded(flipped, expected)


def test_piezo_check_rejects_a_drifted_trajectory(tmp_path):
    summary = report.run(report.AnalysisConfig(output_dir=str(tmp_path)))
    reference = json.loads(run.PIEZO_SPECTRAL.read_text())
    assert check.check_piezo(summary, reference) == []
    summary["methods"]["spectral"]["cells"][9]["value"] += 1e-8
    assert check.check_piezo(summary, reference)


def test_reference_holds_every_synthetic_draw():
    reference = json.loads(check.REFERENCE.read_text())
    for w in WORKLOADS.values():
        if w.synthetic:
            assert sorted(map(int, reference[w.name])) == list(range(POOL))
            assert sorted(reference[w.name]["0"]) == sorted(w.methods)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_its_mode(trace, capsys):
    status = run.main(["--workload", "piezo-paper", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert sorted(result["metrics"]) == sorted(run.metric_names(bool(trace)))
    for m in result["metrics"].values():
        assert m["unit"] and math.isfinite(m["value"])
