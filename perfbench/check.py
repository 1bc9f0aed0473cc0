"""Output checks: an analysis whose summary or artifacts are wrong counts as failed.

* piezo-paper: nodes 2 and 6 are the top 2 of every method, and the spectral
  trajectories match `tests/data/spectral_piezo_reference.json` within 1e-9.
* synthetic workloads: per-method ranks and the spectral cell statuses equal
  the ones recorded in `reference.json`, and scores agree within rtol 1e-6.
* every workload: each analysis of a run writes byte-identical artifacts.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PIEZO_TOP = {2, 6}
PIEZO_TOL = 1e-9
SCORE_RTOL = 1e-6
SCORE_ATOL = 1e-12  # scores that are zero up to rounding
REFERENCE = Path(__file__).with_name("reference.json")


def record(summary: dict) -> dict:
    """What the check compares for a synthetic workload, per method."""
    out = {}
    for method, data in summary["methods"].items():
        out[method] = {"ranks": data["ranks"], "scores": data["scores"]}
        if method == "spectral":
            out[method]["statuses"] = [cell["status"] for cell in data["cells"]]
    return out


def load_reference(workload: str, instance: int) -> dict:
    return json.loads(REFERENCE.read_text())[workload][str(instance)]


def check_recorded(summary: dict, expected: dict) -> list[str]:
    """Problems found comparing a synthetic workload's summary with its record."""
    got = record(summary)
    if sorted(got) != sorted(expected):
        return [f"methods {sorted(got)} != recorded {sorted(expected)}"]
    problems = []
    for method, want in expected.items():
        have = got[method]
        if have["ranks"] != want["ranks"]:
            problems.append(f"{method}: ranks differ from the recorded ranks")
        if have.get("statuses") != want.get("statuses"):
            problems.append(f"{method}: spectral cell statuses differ from the record")
        for node, (a, b) in enumerate(zip(have["scores"], want["scores"])):
            if (a is None) != (b is None) or (
                a is not None and not math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=SCORE_ATOL)
            ):
                problems.append(f"{method}: node {node} score {a!r} != recorded {b!r}")
    return problems


def check_piezo(summary: dict, spectral_reference: dict) -> list[str]:
    """Problems found in a piezo-paper summary."""
    problems = []
    for method, data in summary["methods"].items():
        top = {node for node, rank in enumerate(data["ranks"]) if rank <= len(PIEZO_TOP)}
        if top != PIEZO_TOP:
            problems.append(f"{method}: top {len(PIEZO_TOP)} is {sorted(top)}, not {sorted(PIEZO_TOP)}")
    spectral = summary["methods"]["spectral"]
    deltas = spectral_reference["deltas"]
    if spectral["deltas"] != deltas:
        return problems + [f"spectral deltas {spectral['deltas']} != reference {deltas}"]
    for cell in spectral["cells"]:
        want = spectral_reference["trajectories"][str(cell["node"])][deltas.index(cell["delta"])]
        if cell["value"] is None or abs(cell["value"] - want) > PIEZO_TOL:
            problems.append(f"spectral cell {cell['node']},{cell['delta']}: {cell['value']} != {want}")
    return problems


def artifact_digest(output_dir: Path) -> dict[str, str]:
    """File name -> sha256 of every artifact in the output directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(output_dir.iterdir())
        if p.is_file()
    }
