#!/usr/bin/env python3
"""netinstab benchmark: back-to-back `report.run` calls on one workload.

    python3 perfbench/run.py --workload sweep-n48 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

A closed loop with one client: one process makes `report.run` calls one after
another, each waiting for the previous, the way an analyst runs
`netinstab analyze` over a batch. It imports the package from `src/` of the
checkout it sits in, writes the workload's model once during set-up, and
checks every analysis's output (see check.py). The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from a run that alternates untraced
analyses with analyses traced through wrappers at the package's module
boundaries (layers.py). The line before it records the run's environment.
The exit status is 1 when any analysis failed or its output was wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import check
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PIEZO_SPECTRAL = ROOT / "tests" / "data" / "spectral_piezo_reference.json"
SETUP_REPEATS = 11  # set-up samples per run, spread over its length
SETUP_SNIPPET = "import sys, netinstab; netinstab.load_model(sys.argv[1], sys.argv[2])"
MIN_TIMED = 3  # analyses timed in a run, however long each takes
MIN_TRACED = 4  # two untraced and two traced


def import_package():
    """Import netinstab from this checkout's src/, or exit nonzero."""
    if not (SRC / "netinstab" / "__init__.py").is_file():
        sys.exit(f"no netinstab sources under {SRC}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import netinstab
    from netinstab import agcn, motifs, report, spectral, walks

    if Path(netinstab.__file__).resolve().parent != SRC / "netinstab":
        sys.exit(f"imported netinstab from {netinstab.__file__}, not from {SRC}")
    return SimpleNamespace(report=report, agcn=agcn, spectral=spectral, motifs=motifs, walks=walks)


def setup_timer(model_path: str):
    """A callable timing one fresh interpreter that imports netinstab and loads the model."""
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    cmd = [sys.executable, "-c", SETUP_SNIPPET, model_path, "appendix"]

    def once() -> float:
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    once()  # compiles bytecode and warms the page cache, as a user's second start would
    return once


class Bench:
    """Runs one analysis at a time and counts the ones that fail or are wrong."""

    def __init__(self, report, config, check_summary):
        self.report = report
        self.config = config
        self.output_dir = Path(config.output_dir)
        self.check_summary = check_summary
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.timed: list[float] = []  # wall seconds behind the metrics; traced ones under --trace 1

    def analyse(self) -> tuple[float, float, bool]:
        """(wall seconds, process CPU seconds, output correct) of one `report.run`."""
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            summary = self.report.run(self.config)  # looked up per call: tracing patches it
        except Exception:  # a raising analysis is a failed one; the run goes on
            problems = [traceback.format_exc()]
            summary = None
        else:
            problems = []
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if summary is not None:
            problems = self.check_summary(summary)
            del summary
            digest = check.artifact_digest(self.output_dir)
            self.digest = self.digest or digest
            if digest != self.digest:
                problems.append("artifacts differ from the run's first analysis")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print("\n".join(problems), file=sys.stderr)
        return wall, cpu, not problems

    def artifact_bytes(self) -> tuple[int, int]:
        files = [p for p in self.output_dir.iterdir() if p.is_file()]
        return sum(p.stat().st_size for p in files), (self.output_dir / "summary.json").stat().st_size


def loop(seconds: float, minimum: int, step) -> None:
    """Call step(i) until `seconds` would be exceeded by one more typical step."""
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while i < minimum or time.perf_counter() - start + median(durations) <= seconds:
        durations.append(step(i))
        i += 1


def end_to_end(bench: Bench, seconds: float, setup_once) -> dict[str, float]:
    walls, cpus, setups = [], [], []
    start = time.perf_counter()

    def step(i: int) -> float:
        # set-up samples are spread over the run, so that a few seconds of load
        # from other processes on the machine cannot cover all of them
        while len(setups) < SETUP_REPEATS and (
            len(setups) * seconds <= SETUP_REPEATS * (time.perf_counter() - start)
        ):
            setups.append(setup_once())
        wall, cpu, ok = bench.analyse()
        if ok:
            walls.append(wall)
            cpus.append(cpu)
        return wall

    loop(seconds, MIN_TIMED, step)
    bench.timed = walls
    return {
        "analysis_s": median(walls) if walls else 0.0,
        "analysis_cpu_s": median(cpus) if cpus else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(setups),
    }


def per_layer(bench: Bench, modules, seconds: float) -> dict[str, float]:
    bounds = layers.Boundaries(modules)
    plain, traced, samples = [], [], []

    def step(i: int) -> float:
        if i % 2 == 0:
            wall, _, ok = bench.analyse()
            if ok:
                plain.append(wall)
            return wall
        bounds.tracer.analysis = i
        bounds.capture = not bounds.matrices
        bounds.install()
        try:
            wall, _, ok = bench.analyse()
        finally:
            bounds.remove()
            bounds.capture = False
        if ok:
            traced.append(wall)
            values = bounds.metrics(i)
            values["report.artifact_bytes"], values["report.summary_bytes"] = bench.artifact_bytes()
            samples.append(values)
        return wall

    loop(seconds, MIN_TRACED, step)
    bench.timed = traced
    if not samples:
        return {name: 0.0 for name in metric_names(trace=True)}
    out = {key: float(median(s[key] for s in samples)) for key in samples[0]}
    floor = bounds.eigvals_floor()
    eigen = out["spectral.eigenvalues_s"]
    out["spectral.eigvals_floor_s"] = floor
    out["spectral.verify_frac"] = 1.0 - floor / eigen if eigen else 0.0
    out["trace.overhead_frac"] = median(traced) / median(plain) - 1.0 if plain else 0.0
    return out


def metric_names(trace: bool) -> list[str]:
    return [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]


def summary_check(workload, seed: int):
    if workload.synthetic:
        expected = check.load_reference(workload.name, workload.instance(seed))
        return lambda summary: check.check_recorded(summary, expected)
    reference = json.loads(PIEZO_SPECTRAL.read_text())
    return lambda summary: check.check_piezo(summary, reference)


def tail(values: list[float]) -> dict | None:
    """Highest percentile that has at least ten samples beyond it, if any."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    return {
        "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
        "value": ordered[-11],
        "samples": len(ordered),
    }


def environment() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "default")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    modules = import_package()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        model_path = workload.write_model(seed, work)
        config = modules.report.AnalysisConfig(**workload.config(model_path, work / "out"))
        bench = Bench(modules.report, config, summary_check(workload, seed))
        setup_once = None if trace else setup_timer(model_path)
        bench.analyse()  # untimed warm-up; its output is checked like the rest
        if trace:
            metrics = per_layer(bench, modules, seconds)
        else:
            metrics = end_to_end(bench, seconds, setup_once)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert sorted(metrics) == sorted(metric_names(trace)), "metrics differ from BENCHMARK.json"
    detail = {
        "workload": name,
        "seed": seed,
        "instance": workload.instance(seed),
        "trace": int(trace),
        "environment": environment(),
        "timed_analyses": len(bench.timed),
        "timed_analysis_s": median(bench.timed) if bench.timed else None,
        "failed_frac": bench.failed / bench.attempted,
        "analysis_s_tail": tail(bench.timed),
        "problems": bench.problems[:5],
    }
    print(json.dumps(detail))
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS only grows); print metric, value, unit."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(proc.stderr)
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<30} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
