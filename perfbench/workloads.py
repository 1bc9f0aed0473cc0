"""Benchmark workloads and the seeded model generator.

Each workload is one `netinstab.report.run` configuration. Three of them run
on synthetic signed digraphs drawn like `tests/conftest.py`'s
`random_signed_digraph_weights`: weights uniform in [-2, 2], each entry an
edge with probability `density`, self-loops allowed. The edge pattern is the
one that function draws from seed 1, the graphs the workloads were sized on;
only the weights and features come from the benchmark seed. The cost of cycle
enumeration, walk enumeration and the artifacts follows the edge pattern: at
n = 16 and density 0.5 the motif time varies threefold between patterns, so a
fresh pattern per seed would swamp every bound with input noise.

The seed selects one of `POOL` weight draws. Their outputs are recorded in
`reference.json`, so every run can be checked against the answer the package
gave when the benchmark was defined.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 32
STRUCTURE_SEED = 1
WEIGHT_SCALE = 2.0
FEATURES = 3


def signed_digraph_weights(rng, n: int, density: float) -> np.ndarray:
    """The draw of `tests/conftest.py::random_signed_digraph_weights`."""
    w = rng.uniform(-WEIGHT_SCALE, WEIGHT_SCALE, size=(n, n))
    return np.where(rng.random((n, n)) < density, w, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple[str, ...]
    n: int | None = None  # None: the bundled piezo fixture
    density: float = 0.0
    training_seeds: tuple[int, ...] = (0,)

    @property
    def synthetic(self) -> bool:
        return self.n is not None

    def instance(self, seed: int) -> int:
        """Index of the weight draw that `seed` selects; 0 for the fixture."""
        return seed % POOL if self.synthetic else 0

    def model(self, seed: int) -> dict:
        """The model document for `seed`; same seed, same document."""
        n = self.n
        edges = signed_digraph_weights(np.random.default_rng(STRUCTURE_SEED), n, self.density) != 0
        rng = np.random.default_rng(self.instance(seed))
        weights = rng.uniform(-WEIGHT_SCALE, WEIGHT_SCALE, size=(n, n))
        return {
            "n": n,
            "adjacency": np.where(edges, weights, 0.0).tolist(),
            "features": rng.uniform(-1.0, 1.0, size=(n, FEATURES)).tolist(),
        }

    def write_model(self, seed: int, directory: Path) -> str:
        """Write the model file once and return the path `report.run` loads."""
        if not self.synthetic:
            return "piezo"
        path = directory / "model.json"
        path.write_text(json.dumps(self.model(seed)))
        return str(path)

    def config(self, model_path: str, output_dir: Path) -> dict:
        """Keyword arguments for `netinstab.report.AnalysisConfig`."""
        return {
            "model_path": model_path,
            "variant": "appendix",
            "methods": self.methods,
            "seeds": self.training_seeds,
            "output_dir": str(output_dir),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "piezo-paper",
            "the paper's own 8-node case, all methods, training seeds 0-9; AGCN training is ~89% of the time",
            ("attention", "spectral", "motifs", "nstc"),
            training_seeds=tuple(range(10)),
        ),
        Workload(
            "sweep-n48",
            "n=48 density 0.3, spectral and nstc; the SVD-verified eigen-solves of the sweep are ~95% of the time",
            ("spectral", "nstc"),
            n=48,
            density=0.3,
        ),
        Workload(
            "cycles-n16",
            "n=16 (the motif guard) density 0.5, motifs and nstc; the only workload where cycle enumeration and scoring work",
            ("motifs", "nstc"),
            n=16,
            density=0.5,
        ),
        Workload(
            "walks-n128",
            "n=128 density 0.3, nstc only; ~180k walks enumerated three times and ~35 MB of artifacts written",
            ("nstc",),
            n=128,
            density=0.3,
        ),
    )
}
