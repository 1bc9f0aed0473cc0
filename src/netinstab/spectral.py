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
once and solves every other cell for its eigenvalues only. Their eigenvectors
are W's resolvent vectors, and their residuals are bounded in O(n^2) from W's
eigenpairs without forming the vectors (`_resolvent_solver`); a cell whose
bound fails is solved again, with its own eigenvectors, by `eigenvalues`.
Either way every accepted value passes the same residual, trace and
finiteness test, on its explicit residual or on an upper bound of it. The
test scales with max(1, ||m||_2); the fast path brackets ||m||_2 between two
norms that take O(n^2), and computes it by SVD only for a cell where some
check reads differently at the bracket's two ends.
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
_U = np.finfo(float).eps / 2  # unit roundoff of float64


@dataclass(frozen=True)
class EigenSet:
    """All n eigenvalues of a real matrix, with verification metadata."""

    values: tuple  # complex eigenvalues
    # the largest eigenpair residual, or the sweep's fast-path upper bound on it; either is an
    # upper bound on each sigma_min(m - v I)
    residual_bound: float = 0.0
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
    unit = _unit(m)
    return _verified(m, vals, _residual(m, vals, vecs.real, vecs.imag, unit), (unit, unit)), vecs


def _unit(m: np.ndarray) -> float:
    """max(1, ||m||_2), from one SVD; NaN or inf where the norm is."""
    try:
        scale = float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    return max(scale, 1.0)  # max(1.0, scale) would read a NaN scale as 1


def _residual(m: np.ndarray, vals: np.ndarray, re: np.ndarray, im: np.ndarray, unit: float) -> float:
    """max_i ||m x_i - vals[i] x_i|| / ||x_i|| over the vectors x = re + 1j im, taken
    explicitly; NaN or inf where a residual overflows or a vector is zero or not finite.

    Each residual is divided by unit before its norm squares it, so that
    entries past 1e154 do not overflow. m x is taken as one real product,
    m @ [Re x | Im x], rather than m @ x: the complex product would promote m
    to complex and do twice the flops.
    """
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mv = m @ np.concatenate([re, im], axis=1)
        x = re + 1j * im
        residuals = np.linalg.norm((mv[:, :n] + 1j * mv[:, n:] - x * vals) / unit, axis=0)
        return float((residuals / np.linalg.norm(x, axis=0)).max()) * unit


def _verified(
    m: np.ndarray, vals: np.ndarray, residual: float, units: tuple[float, float] | None = None
) -> EigenSet:
    """The acceptance test for the values vals of m, given residual, an upper bound
    on each eigenpair residual ||m x - v x|| / ||x|| (or that residual itself), and
    units = (lo, hi) with lo <= max(1, ||m||_2) <= hi; None stands for `_unit(m)`
    at both ends.

    The test reads at the unit max(1, ||m||_2): the residual is at most
    RESIDUAL_RTOL times it, the values sum to the trace within 1e-6 times it,
    and a value is negative where its real part is below -ZERO_RTOL times it.
    Each reading changes at most once as the unit grows, so one that reads the
    same at lo and at hi reads so at every unit between them. Where all do,
    the set is built at hi; where one does not, the same residual is read
    again at `_unit(m)`. `eigenvalues` passes lo = hi = `_unit(m)` and the
    residual `_residual` takes at that unit; this is then the plain test at
    that unit.
    """
    lo, hi = units or (_unit(m),) * 2
    if not (np.isfinite(hi) and np.all(np.isfinite(vals))):
        raise NumericalFailure("matrix norm or eigenvalues are not finite")
    trace_error = abs(vals.sum() - np.trace(m))
    at_lo, at_hi = (
        (residual <= RESIDUAL_RTOL * unit, trace_error <= 1e-6 * unit, (vals.real < -ZERO_RTOL * unit).tolist())
        for unit in (lo, hi)
    )
    if at_lo != at_hi:
        return _verified(m, vals, residual)
    if not at_hi[0]:  # NaN-safe: a non-finite residual fails too
        raise NumericalFailure(f"eigenvalue residual {residual:.3e} exceeds bound {RESIDUAL_RTOL * hi:.3e}")
    if not at_hi[1]:
        raise NumericalFailure("eigenvalue sum does not match matrix trace")
    return EigenSet(
        values=tuple(vals.astype(complex).tolist()),
        residual_bound=residual,
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
    eigenvalues only and verified by a residual bound built from the delta=0
    solve's eigenpairs (see `_resolvent_solver`); a cell that this fast path
    declines or does not verify is solved again by `eigenvalues`, so every
    cell reads as `eigenvalues` alone would give it. A cell whose perturbed
    column overflows float64, or whose eigenvalue computation fails, is marked
    "failed" without aborting the other cells.
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
        fast = _resolvent_solver(graph.weights, base, vecs)

    def solve(w: np.ndarray, node: int, delta: float) -> EigenSet | None:
        if not np.isfinite(w).all():  # the perturbed column overflowed float64
            return None
        if fast is not None:
            try:
                return fast(w, node, delta)
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
                eigen = solve(w, node, delta)
            if eigen is None:
                cells[(node, delta)] = SweepCell(node, delta, None, "failed")
            else:
                value = largest_negative_eigenvalue(eigen)
                status = "ok" if value is not None else "no_negative"
                cells[(node, delta)] = SweepCell(node, delta, value, status)
    return PerturbationSweepTable(deltas=tuple(grid), nodes=nodes, cells=cells)


def _resolvent_solver(
    w: np.ndarray, base: EigenSet, vecs: np.ndarray
) -> Callable[[np.ndarray, int, float], EigenSet] | None:
    """Verified eigenvalues of the sweep's cell (m, j, delta), m = w with delta
    added to column j, given w's eigenpairs (base, vecs); None if vecs is
    singular, a = V^-1 1 is not finite or has a component that is zero to
    rounding, or V's computed inverse cannot bound its smallest singular value
    away from 0.

    For an eigenvalue mu of such a matrix that is not one of w's, an
    eigenvector is the resolvent vector (w - mu I)^-1 1 = V (Lambda - mu I)^-1 a
    (Golub, "Some modified matrix eigenvalue problems", SIAM Rev. 1973). So a
    cell takes `np.linalg.eigvals`, which returns the same values as
    `np.linalg.eig`, and for each value bounds the residual of x = V q, with q
    the computed s (Lambda - mu I)^-1 a and s = max_ik |m_ik| (so that the
    squares of q neither overflow nor underflow), at O(n^2) cost from
    quantities set up once per sweep; x itself is never formed. The bound then
    takes `eigenvalues`' own test in `_verified`, read at `_bracket`'s two
    ends. Where w and the cell share an eigenvalue whose eigenvector this
    formula cannot reach, the bound fails the test and the cell raises
    NumericalFailure. With a_k = 0, lambda_k is such an eigenvalue of every
    cell (row k of V^-1 is a left eigenvector of each), so no cell would pass:
    piezo's triple zero eigenvalue has |a_k| near 1e-15.

    The bound. With m[:, j] = w[:, j] + delta 1 + e (e the rounding of that
    sum), E = w V - V Lambda, g = V a - 1 and eta = (Lambda - mu I) q - s a,

        (m - mu I) x = (s + delta xi) 1 + xi e + s g + V eta + E q,  xi = x_j = V[j] q,

    and ||x|| >= sigma_min(V) ||q||, so each residual ||(m - mu I) x|| / ||x||
    is at most

        (sqrt(n) |s + delta xi| + |xi| ||e|| + s ||g|| + ||V|| ||eta|| + ||E|| ||q||)
        / (sigma_min(V) ||q||).

    Each term, with u = 2**-53, gamma_k = k u / (1 - k u) and values in
    float64's normal range (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1; §3.6 for complex arithmetic):
    - e: a rounded sum is within u of the sum, relative, so
      ||e|| <= u sqrt(n) max_i |m_ij|.
    - eta: s a_k is rounded once, lambda_k - mu once (within u, relative), and
      numpy divides complex numbers by Smith's algorithm, within 16u relative
      (each part is a rounded sum of two products over a denominator that
      does not cancel), so |eta_k| <= gamma_18 s |a_k|.
    - xi: the computed q @ V[j] is within sqrt(2) gamma_{n+2} |V[j]| |q| <=
      2 gamma_{n+2} ||V[j]|| ||q|| of xi, and s + delta xi is then taken
      within 3u (s + |delta xi|).
    - E and g: computed once per sweep in long double, and bounded by their
      computed norms plus the error of computing them. Each entry of a
      product of inner dimension n is within sqrt(2) gamma_{n+2} of its
      value, relative to |A| |B| (gamma here at long double's unit roundoff,
      2**-64 on x86), so the computed E is within
      2 gamma_{n+4} (|w| |V| + |V| |Lambda|) of E, and the computed g within
      2 gamma_{n+3} (|V| |a| + 1) of g. The norms of |w| |V|, |V| |Lambda| and
      |V| |a| are taken in float64, within a factor of 2, hence 4 gamma in the
      code; the Frobenius norm bounds the 2-norm. In float64 these error terms
      would be tens of times E and g themselves, and above the test's
      tolerance from n near 200 on the size ladder's graphs; where long
      double is float64 the bound is looser but holds. E is taken with w and
      Lambda scaled by a power of two, which is exact, so that its squares do
      not overflow.
    - sigma_min(V): with X the computed inverse of V and R = I - X V,
      V^-1 = (I - R)^-1 X, so where ||R|| < 1, ||V^-1|| <= ||X|| / (1 - ||R||)
      (Golub & Van Loan, Matrix Computations, 4th ed., Lemma 2.3.3) and
      sigma_min(V) = 1 / ||V^-1|| >= (1 - ||R||) / ||X||, taking Frobenius
      norms for 2-norms. R is computed as real products, within
      2 gamma_{n+2} |X| |V|, taken in float64 under a factor of 2. This is
      within a factor of 3 of sigma_min(V) on the benchmark's graphs. ||V||
      is at most its Frobenius norm, near sqrt(n) for unit columns.
    - The norms: a computed 2-norm of N entries, real or complex, is within
      gamma_{N+2} of its value, relative (a sum of squares does not cancel),
      so each norm set up once is raised by 1 + gamma_{2N+4}. Per cell, the
      bound is a sum of products and quotients of nonnegative terms, with one
      computed norm of n entries and fewer than thirty roundings, so it is
      raised by 1 + gamma_{8n+32}, which covers them with room to spare.
    On the 32 draws of the `sweep-n48` benchmark pattern the bound stays below
    1% of the test's tolerance, and at least nine times the residual of the
    explicitly built x.

    A matrix with a nonzero entry below RESIDUAL_RTOL times its largest is
    declined with NumericalFailure before any solve. On such a matrix LAPACK's
    balancing can leave `np.linalg.eig` with right eigenvalues but
    eigenvectors that fail the residual test, as for a tiny delta added to a
    column's structural zeros; the resolvent vectors would pass there, and the
    cell would read "ok" where `eigenvalues` reads "failed".
    """
    n = len(vecs)
    try:
        a = np.linalg.solve(vecs, np.ones(n))
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:  # vecs is singular: W is defective
        return None
    size, av = np.abs(a), np.abs(vecs)
    if not (np.isfinite(a).all() and size.min() > n * np.finfo(float).eps * size.max()):
        return None
    # R = I - X V as real products: a complex X @ V would run one more BLAS kernel, whose
    # code adds about 0.25 MB to a fresh process's resident memory. A nearly singular V
    # can overflow X or R, which leaves v_lo NaN
    xr, xi, vr, vi = inv.real, inv.imag, vecs.real, vecs.imag
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.eye(n) - (xr @ vr - xi @ vi) - 1j * (xr @ vi + xi @ vr)
        r_hi = _norm_hi(r) + 4 * _gamma(n + 2) * _norm_hi(np.abs(inv) @ av)
        v_lo, v_hi = (1 - r_hi) / _norm_hi(inv), _norm_hi(vecs)  # bounds on sigma_min(V) and ||V||
    if not v_lo > 0:
        return None
    lam = np.array(base.values)
    # 2**-k with 2**k above every |w_ik| and |lambda_k| (k at least -1021, so that t is
    # finite): scaling by t is exact
    t = np.ldexp(1.0, -max(int(np.frexp(max(np.abs(w).max(), np.abs(lam).max()))[1]), -1021))
    ws, ls = w * t, lam * t
    wide, wide_u = vecs.astype(np.clongdouble), float(np.finfo(np.longdouble).eps) / 2
    e_err = _norm_hi(np.abs(ws) @ av) + _norm_hi(av * abs(ls))
    e_hi = (_norm_hi(ws @ wide - wide * ls) + 4 * _gamma(n + 4, wide_u) * e_err) / t
    g_hi = _norm_hi(wide @ a - 1) + 4 * _gamma(n + 3, wide_u) * (_norm_hi(av @ size) + np.sqrt(n))
    root = np.sqrt(n)
    # the parts of the bound that do not depend on the cell: (s ||g|| + ||V|| ||eta|| + the
    # 3u s of s + delta xi) / s, and |xi - fl(xi)| / ||q|| per row j of V
    fixed = g_hi + v_hi * _gamma(18) * _norm_hi(a) + 3 * _U * root
    xi_rel = 2 * _gamma(n + 2) * np.linalg.norm(vecs, axis=1) * (1 + _gamma(2 * n + 4))
    scale = (1 + _gamma(8 * n + 32)) / v_lo

    def solve(m: np.ndarray, j: int, delta: float) -> EigenSet:
        size = np.abs(m)
        if np.any((size > 0) & (size < RESIDUAL_RTOL * size.max())):
            raise NumericalFailure("matrix has entries too small for the fast path")
        try:
            mu = np.linalg.eigvals(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
        top, e_norm, step = size.max(), _U * root * size[:, j].max(), root * abs(delta)
        # mu == lambda_k divides by zero, and an overflowing q gives an infinite norm:
        # either leaves a NaN bound, which fails the test
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = (a * top) / (lam - mu[:, None])  # row i for mu_i
            xi = q @ vecs[j]
            terms = root * np.abs(top + delta * xi) + (3 * _U * step + e_norm) * np.abs(xi) + top * fixed
            worst = float((terms / np.linalg.norm(q, axis=1)).max())
        bound = float((worst + xi_rel[j] * (step + e_norm) + e_hi) * scale)
        return _verified(m, mu, bound, _bracket(m))

    return solve


def _gamma(k: int, u: float = _U) -> float:
    """gamma_k = k u / (1 - k u): the relative error of k roundings to unit roundoff u compounded."""
    return k * u / (1 - k * u)


def _norm_hi(x: np.ndarray) -> float:
    """An upper bound on the Frobenius norm of x, from its computed norm; see `_resolvent_solver`."""
    return float(np.linalg.norm(x)) * (1 + _gamma(2 * x.size + 4))


def _bracket(m: np.ndarray) -> tuple[float, float] | None:
    """(lo, hi) with lo <= max(1, ||m||_2) <= hi, at O(n^2) cost; None if the
    squares of m's entries overflow.

    The largest column or row 2-norm is at most ||m||_2, and the Frobenius norm
    at least (Golub & Van Loan, Matrix Computations, 4th ed., §2.3). Both come
    from the matrix alone, not from the values under test. Each end is widened
    by NORM_MARGIN, after the max(1, .), so that the bracket holds the unit
    that `_unit`'s SVD gives, not only the exact one. With u = 2**-53 and
    values in float64's normal range, those differ by at most p(n) u for
    LAPACK's largest singular value, p a modest function of n (LAPACK Users'
    Guide, 3rd ed., §4.9), and (n^2/2 + 2) u for the two norms, rounded sums
    of at most n^2 squares (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1 and §4.2). `_verified` reads one residual at
    both ends, and each tolerance is a constant times the unit; a rounded
    product keeps the order of its factors, so nothing else needs a margin.
    Up to n = 10,000 the two sum below 6e-9.
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
