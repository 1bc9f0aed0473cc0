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

Each sweep matrix is a rank-one change of W, so the sweep eigendecomposes W
once and solves every other cell for its eigenvalues only: the eigenvectors
that verify them are built from W's (`_resolvent_solver`), and a cell they do
not verify is solved again, with its own eigenvectors, by `eigenvalues`.
Either way every accepted value passes the same residual, trace and
finiteness test. The test scales with max(1, ||m||_2); the fast path brackets
||m||_2 between two norms that take O(n^2), and computes it by SVD only for a
cell where some check reads differently at the bracket's two ends.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

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
# the fast path widens its bracket on max(1, ||m||_2) by this much at each end,
# for rounding: see `_bracket`
NORM_MARGIN = 1e-8


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
    """
    m = number_table(matrix, "matrix", BadMatrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise BadMatrix(f"expected a nonempty square matrix, got shape {m.shape}")
    return _eigenpairs(m)[0]


def _eigenpairs(m: np.ndarray) -> tuple[EigenSet, np.ndarray]:
    """`eigenvalues` of a finite square float matrix, with the eigenvectors it verified."""
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    return _verified(m, vals, vecs.real, vecs.imag), vecs


def _unit(m: np.ndarray) -> float:
    """max(1, ||m||_2), from one SVD; NaN or inf where the norm is."""
    try:
        scale = float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    return max(scale, 1.0)  # max(1.0, scale) would read a NaN scale as 1


def _verified(
    m: np.ndarray, vals: np.ndarray, re: np.ndarray, im: np.ndarray, units: tuple[float, float] | None = None
) -> EigenSet:
    """The acceptance test for eigenpairs (vals[i], x = re[:, i] + 1j im[:, i]) of m,
    given units = (lo, hi) with lo <= max(1, ||m||_2) <= hi; None stands for
    `_unit(m)` at both ends.

    The test reads at the unit max(1, ||m||_2): each residual ||m x - v x|| / ||x||
    is at most RESIDUAL_RTOL times it, the values sum to the trace within 1e-6
    times it, and a value is negative where its real part is below -ZERO_RTOL
    times it. Each reading changes at most once as the unit grows, so one that
    reads the same at lo and at hi reads so at every unit between them. Where
    all do, the set is built at hi; where one does not, the test is run again
    at `_unit(m)`. Without units, as `eigenvalues` calls it, lo = hi = `_unit(m)`
    and this is the plain test at that unit.

    m x is taken as one real product, m @ [Re x | Im x], rather than m @ x:
    the complex product would promote m to complex and do twice the flops.
    """
    lo, hi = units or (_unit(m),) * 2
    if not (np.isfinite(hi) and np.all(np.isfinite(vals))):
        raise NumericalFailure("matrix norm or eigenvalues are not finite")
    n = m.shape[0]
    # the residual is divided by hi before its norm squares it, so
    # entries past 1e154 do not overflow; one that still overflows, or a zero
    # or non-finite vector, fails below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mv = m @ np.concatenate([re, im], axis=1)
        x = re + 1j * im
        residuals = np.linalg.norm((mv[:, :n] + 1j * mv[:, n:] - x * vals) / hi, axis=0)
        worst = float((residuals / np.linalg.norm(x, axis=0)).max()) * hi
    trace_error = abs(vals.sum() - np.trace(m))
    at_lo, at_hi = (
        (worst <= RESIDUAL_RTOL * unit, trace_error <= 1e-6 * unit, (vals.real < -ZERO_RTOL * unit).tolist())
        for unit in (lo, hi)
    )
    if at_lo != at_hi:
        return _verified(m, vals, re, im)
    if not at_hi[0]:  # NaN-safe: a non-finite residual fails too
        raise NumericalFailure(f"eigenvalue residual {worst:.3e} exceeds bound {RESIDUAL_RTOL * hi:.3e}")
    if not at_hi[1]:
        raise NumericalFailure("eigenvalue sum does not match matrix trace")
    return EigenSet(
        values=tuple(vals.astype(complex).tolist()),
        residual_bound=worst,
        zero_tol=ZERO_RTOL * hi,
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
    delta=0 matrix is the same for every node, so it is solved once, with
    eigenvectors, and its cell is shared by all nodes (a failure there marks
    every node's delta=0 cell "failed"). Every other cell is solved for its
    eigenvalues only and verified with eigenvectors built from the delta=0
    solve (see `_resolvent_solver`); a cell that this fast path declines or
    does not verify is solved again by `eigenvalues`, so every cell reads as
    `eigenvalues` alone would give it. A cell whose perturbed column overflows
    float64, or whose eigenvalue computation fails, is marked "failed" without
    aborting the other cells.
    """
    deltas = number_table(deltas, "deltas")
    if deltas.ndim != 1:
        raise BadParameter(f"deltas must be a list of numbers, got shape {deltas.shape}")
    nodes = tuple(range(graph.n))
    grid = sorted(set(deltas.tolist()) | {0.0})

    # one solve for every node's delta = 0 cell: the grid's zero (-0.0 if the caller
    # gave it) added to the whole matrix, so a + 0.0 turns every -0.0 weight into 0.0
    zero = grid[grid.index(0.0)]
    try:
        base, vecs = _eigenpairs(graph.weights + zero)
    except NumericalFailure:
        base, fast = None, None
    else:
        fast = _resolvent_solver(base, vecs)

    def solve(w: np.ndarray) -> EigenSet | None:
        if not np.isfinite(w).all():  # the perturbed column overflowed float64
            return None
        if fast is not None:
            try:
                return fast(w)
            except NumericalFailure:
                pass
        try:
            return eigenvalues(w)
        except NumericalFailure:
            return None

    cells = {}
    for node in nodes:
        for delta in grid:
            if delta == 0.0:
                eigen = base
            else:
                w = graph.weights.copy()
                with np.errstate(over="ignore"):  # an overflowing cell is marked failed
                    w[:, node] += delta
                eigen = solve(w)
            if eigen is None:
                cells[(node, delta)] = SweepCell(node, delta, None, "failed")
            else:
                value = largest_negative_eigenvalue(eigen)
                status = "ok" if value is not None else "no_negative"
                cells[(node, delta)] = SweepCell(node, delta, value, status)
    return PerturbationSweepTable(deltas=tuple(grid), nodes=nodes, cells=cells)


def _resolvent_solver(
    base: EigenSet, vecs: np.ndarray
) -> Callable[[np.ndarray], EigenSet] | None:
    """Verified eigenvalues of W + delta 1 e_j^T for any delta and j, given W's
    eigenpairs (base, vecs); None if vecs is singular or a = V^-1 1 is not
    finite or has a component that is zero to rounding.

    For an eigenvalue mu of such a matrix that is not one of W's, an
    eigenvector is the resolvent vector (W - mu I)^-1 1 = V (Lambda - mu I)^-1 a
    with a = V^-1 1 (Golub, "Some modified matrix eigenvalue problems", SIAM
    Rev. 1973). So a cell takes `np.linalg.eigvals`, which returns the same
    values as `np.linalg.eig`, and builds its vectors as V C with
    C[k, i] = a_k / (lambda_k - mu_i) at O(n^3) matrix-product cost. They then
    pass `eigenvalues`' own test. Where W and the cell share an eigenvalue
    whose eigenvector this formula cannot reach, the vector fails the test and
    the cell raises NumericalFailure. With a_k = 0, lambda_k is such an
    eigenvalue of every cell (row k of V^-1 is a left eigenvector of each), so
    no cell would pass: piezo's triple zero eigenvalue has |a_k| near 1e-15.

    A matrix with a nonzero entry below RESIDUAL_RTOL times its largest is
    declined with NumericalFailure before any solve. On such a matrix LAPACK's
    balancing can leave `np.linalg.eig` with right eigenvalues but
    eigenvectors that fail the residual test, as for a tiny delta added to a
    column's structural zeros; the resolvent vectors would pass there, and the
    cell would read "ok" where `eigenvalues` reads "failed".

    Each cell's test runs on `_bracket`'s bounds on its unit, so that the SVD
    that computes the unit runs only where a check falls between them.
    """
    try:
        a = np.linalg.solve(vecs, np.ones(len(vecs)))
    except np.linalg.LinAlgError:  # vecs is singular: W is defective
        return None
    size = np.abs(a)
    if not (np.isfinite(a).all() and size.min() > len(a) * np.finfo(float).eps * size.max()):
        return None
    a = a[:, None]
    lam = np.array(base.values)[:, None]
    vr, vi = vecs.real, vecs.imag

    def solve(m: np.ndarray) -> EigenSet:
        size = np.abs(m)
        if np.any((size > 0) & (size < RESIDUAL_RTOL * size.max())):
            raise NumericalFailure("matrix has entries too small for the fast path")
        try:
            mu = np.linalg.eigvals(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
        # mu == lambda_k divides by zero, which leaves a NaN column to fail the test
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            c = a / (lam - mu)
            c /= np.abs(c).max(axis=0)  # so that no ||x|| overflows
            # V C as real products: a complex V @ C takes a second BLAS thread for no gain
            re, im = vr @ c.real - vi @ c.imag, vr @ c.imag + vi @ c.real
        return _verified(m, mu, re, im, _bracket(m))

    return solve


def _bracket(m: np.ndarray) -> tuple[float, float] | None:
    """(lo, hi) with lo <= max(1, ||m||_2) <= hi, at O(n^2) cost; None if the
    squares of m's entries overflow.

    The largest column or row 2-norm is at most ||m||_2, and the Frobenius norm
    at least (Golub & Van Loan, Matrix Computations, 4th ed., §2.3). Both come
    from the matrix alone, not from the values under test. Each end is widened
    by NORM_MARGIN, after the max(1, .), so that the bracket holds the unit
    that `_unit`'s SVD gives, not only the exact one, and so that a reading
    `_verified` decides on the residual it takes with hi is the reading of the
    residual taken with `_unit`. With u = 2**-53 and values in float64's
    normal range, those differ by at most p(n) u for LAPACK's largest singular
    value, p a modest function of n (LAPACK Users' Guide, 3rd ed., §4.9);
    (n^2/2 + 2) u for the two norms, rounded sums of at most n^2 squares
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1 and
    §4.2); and 2(n + 4) u for the residual. Each tolerance is a constant times
    the unit, and a rounded product keeps the order of its factors, so nothing
    else needs a margin. Up to n = 10,000 the three sum below 6e-9.
    """
    with np.errstate(over="ignore"):  # an overflowing square leaves hi infinite
        squares = m * m
        lo, hi = np.sqrt([max(squares.sum(0).max(), squares.sum(1).max()), squares.sum()]).tolist()
    units = (max(lo, 1.0) * (1 - NORM_MARGIN), max(hi, 1.0) * (1 + NORM_MARGIN))
    return units if units[1] < np.inf else None


def sweep_end_scores(table: PerturbationSweepTable) -> list[float | None]:
    """Per-node scalar from the sweep: the value at the largest delta.

    Orientation for ranking: closer to zero means more unstable.
    """
    end = table.deltas[-1]
    return [table.value(node, end) for node in table.nodes]
