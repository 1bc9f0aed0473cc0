#!/usr/bin/env python3
"""Record what each synthetic workload's analyses return, for check.py.

    python3 perfbench/record_reference.py [workload ...]

Runs `report.run` once on every weight draw of the pool and rewrites
reference.json with the ranks, scores and spectral cell statuses. Run it only
when the benchmark is defined or deliberately re-baselined: a change that
must keep the package's answers is checked against this file.
"""
import json
import sys
import tempfile
from pathlib import Path

import check
from run import import_package
from workloads import POOL, WORKLOADS


def main(names) -> None:
    report = import_package().report
    reference = json.loads(check.REFERENCE.read_text()) if check.REFERENCE.exists() else {}
    for name in names or [w.name for w in WORKLOADS.values() if w.synthetic]:
        workload = WORKLOADS[name]
        entries = {}
        with tempfile.TemporaryDirectory() as tmp:
            for instance in range(POOL):
                model_path = workload.write_model(instance, Path(tmp))
                config = report.AnalysisConfig(**workload.config(model_path, Path(tmp) / "out"))
                entries[str(instance)] = check.record(report.run(config))
                print(name, instance, flush=True)
        reference[name] = entries
    check.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
