"""Dense nonsymmetric eigenvalues and the per-node column-perturbation sweep.

The sweep adds a level delta to one node's column of the weight matrix and
tracks the largest negative eigenvalue (the negative real part closest to
zero). Nodes whose value drifts toward zero as delta grows are the ones able
to tip the network into instability.

The perturbation is dense: delta is added to every entry of the column,
structural zeros included, unlike graph.perturb_column, which only shifts
existing edges. The dense shift is the one under which the piezo fixture
shows its reference drive-to-zero signature on nodes 2 and 6, and its
trajectories are the archived reference.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadMatrix, BadParameter, NumericalFailure, number_table
from .graph import SignedWeightedDigraph

# acceptance for a computed eigenpair (v, x): the backward error
# ||m x - v x|| / ||x|| relative to max(1, ||m||_2). It bounds sigma_min(m - v I)
# from above, so every accepted v is the exact eigenvalue of a matrix within
# this distance of m
RESIDUAL_RTOL = 1e-9
# eigenvalues with |Re| below this times max(1, scale) count as zero, not
# negative; rank-deficient matrices otherwise leak +-1e-16 noise eigenvalues
# into the "largest negative" pick
ZERO_RTOL = 1e-9


@dataclass(frozen=True)
class EigenSet:
    """All n eigenvalues of a real matrix, with verification metadata."""

    values: tuple  # complex eigenvalues
    residual_bound: float = 0.0  # max eigenpair residual; an upper bound on each sigma_min(m - v I)
    zero_tol: float = 0.0  # |Re| at or below this counts as zero


def eigenvalues(matrix) -> EigenSet:
    """Eigenvalues of a square real matrix, residual-verified.

    One `np.linalg.eig` gives every eigenpair (v, x). Each must satisfy
    ||m x - v x|| / ||x|| <= 1e-9 * max(1, ||m||_2); since that residual bounds
    sigma_min(m - v I) from above, v is the exact eigenvalue of a matrix
    within that distance of m. The values must also sum to the trace. A
    solver that fails to converge, a non-finite scale, value or residual, or
    a failed check raises NumericalFailure.

    m x is taken as one real product, m @ [Re x | Im x], rather than m @ x:
    the complex product would promote m to complex and do twice the flops.
    """
    m = number_table(matrix, "matrix", BadMatrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise BadMatrix(f"expected a nonempty square matrix, got shape {m.shape}")
    n = m.shape[0]
    try:
        scale = float(np.linalg.norm(m, 2))
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    if not (np.isfinite(scale) and np.all(np.isfinite(vals))):
        raise NumericalFailure("matrix norm or eigenvalues are not finite")
    unit = max(1.0, scale)
    # the residual is divided by the scale before its norm squares it, so
    # entries past 1e154 do not overflow; one that still overflows fails below
    with np.errstate(over="ignore", invalid="ignore"):
        mv = m @ np.concatenate([vecs.real, vecs.imag], axis=1)
        residuals = np.linalg.norm((mv[:, :n] + 1j * mv[:, n:] - vecs * vals) / unit, axis=0)
    worst = float((residuals / np.linalg.norm(vecs, axis=0)).max()) * unit
    if not worst <= RESIDUAL_RTOL * unit:  # NaN-safe: a non-finite residual fails too
        raise NumericalFailure(
            f"eigenvalue residual {worst:.3e} exceeds bound {RESIDUAL_RTOL * unit:.3e}"
        )
    if not abs(vals.sum() - np.trace(m)) <= 1e-6 * unit:
        raise NumericalFailure("eigenvalue sum does not match matrix trace")
    return EigenSet(
        values=tuple(complex(v) for v in vals),
        residual_bound=worst,
        zero_tol=ZERO_RTOL * unit,
    )


def largest_negative_eigenvalue(eigen: EigenSet) -> float | None:
    """Max real part among eigenvalues with real part < -zero_tol; None if none.

    Complex pairs contribute through their real part; the reported value is
    the real part alone.
    """
    negatives = [v.real for v in eigen.values if v.real < -eigen.zero_tol]
    return max(negatives) if negatives else None


@dataclass(frozen=True)
class SweepCell:
    node: int
    delta: float
    value: float | None  # largest negative eigenvalue; None if absent
    status: str  # "ok", "no_negative", or "failed"


@dataclass(frozen=True)
class PerturbationSweepTable:
    deltas: tuple[float, ...]  # ascending, always contains 0.0
    nodes: tuple[int, ...]
    cells: dict  # (node, delta) -> SweepCell

    def value(self, node: int, delta: float) -> float | None:
        return self.cells[(node, delta)].value

    def trajectory(self, node: int) -> list[float | None]:
        return [self.cells[(node, d)].value for d in self.deltas]


def perturbation_sweep(graph: SignedWeightedDigraph, deltas) -> PerturbationSweepTable:
    """Largest negative eigenvalue per (node, delta), delta added to the node's whole column.

    Every node is swept, and the delta=0 baseline is always included. The
    delta=0 matrix is the same for every node, so it is solved once and its
    cell is shared by all nodes (a failure there marks every node's delta=0
    cell "failed"); every other cell is its own solve. A cell whose
    perturbed column overflows float64, or whose eigenvalue computation
    fails, is marked "failed" without aborting the other cells.
    """
    deltas = number_table(deltas, "deltas")
    if deltas.ndim != 1:
        raise BadParameter(f"deltas must be a list of numbers, got shape {deltas.shape}")
    nodes = tuple(range(graph.n))
    grid = sorted(set(deltas.tolist()) | {0.0})

    def cell(node: int, delta: float, w: np.ndarray) -> SweepCell:
        if not np.isfinite(w).all():  # the perturbed column overflowed float64
            return SweepCell(node, delta, None, "failed")
        try:
            value = largest_negative_eigenvalue(eigenvalues(w))
        except NumericalFailure:
            return SweepCell(node, delta, None, "failed")
        return SweepCell(node, delta, value, "ok" if value is not None else "no_negative")

    # one solve for every node's delta = 0 cell: the grid's zero (-0.0 if the caller
    # gave it) added to the whole matrix, so a + 0.0 turns every -0.0 weight into 0.0
    zero = grid[grid.index(0.0)]
    base = cell(0, zero, graph.weights + zero)
    cells = {}
    for node in nodes:
        for delta in grid:
            if delta == 0.0:
                cells[(node, delta)] = replace(base, node=node)
            else:
                w = graph.weights.copy()
                with np.errstate(over="ignore"):  # an overflowing cell is marked failed
                    w[:, node] += delta
                cells[(node, delta)] = cell(node, delta, w)
    return PerturbationSweepTable(deltas=tuple(grid), nodes=nodes, cells=cells)


def sweep_end_scores(table: PerturbationSweepTable) -> list[float | None]:
    """Per-node scalar from the sweep: the value at the largest delta.

    Orientation for ranking: closer to zero means more unstable.
    """
    end = table.deltas[-1]
    return [table.value(node, end) for node in table.nodes]
