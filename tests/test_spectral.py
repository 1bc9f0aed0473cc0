import json
import warnings
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netinstab.spectral
from netinstab.report import AnalysisConfig, _csv, run
from netinstab.spectral import RESIDUAL_RTOL, ZERO_RTOL, SweepCell, _bracket, _residual, _verified
from netinstab import (
    BadMatrix,
    BadParameter,
    EigenSet,
    NumericalFailure,
    SignedWeightedDigraph,
    eigenvalues,
    largest_negative_eigenvalue,
    perturbation_sweep,
)
from conftest import random_signed_digraph_weights

REFERENCE = json.loads((Path(__file__).parent / "data" / "spectral_piezo_reference.json").read_text())


def charpoly_roots(matrix):
    """Independent eigenvalue oracle: exact characteristic polynomial
    (Faddeev-LeVerrier over Fractions) solved via companion-matrix roots."""
    n = matrix.shape[0]
    a = [[Fraction(matrix[i, j]) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return np.roots([float(c) for c in coeffs])


def hard_matrices():
    """Defective, companion, rank-one, zero and badly scaled matrices, by name."""
    rng = np.random.default_rng(11)
    cases = {}
    for n in (2, 3, 5, 8):
        cases[f"jordan-n{n}"] = np.eye(n, k=1)
        cases[f"shifted-jordan-n{n}"] = np.eye(n, k=1) + 2.0 * np.eye(n)
        cases[f"companion-n{n}"] = np.eye(n, k=-1)
        cases[f"companion-n{n}"][:, -1] = rng.uniform(-3, 3, n)
        cases[f"rank-one-n{n}"] = np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        cases[f"zero-n{n}"] = np.zeros((n, n))
        cases[f"triangular-1e8-n{n}"] = 1e8 * np.triu(rng.uniform(-1, 1, (n, n)))
    return cases


def assert_svd_oracle_holds(m, es):
    """Each value of es passes the singular-value test the residual check replaced."""
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    sigma = max(np.linalg.svd(m - v * np.eye(len(m)), compute_uv=False)[-1] for v in es.values)
    assert sigma <= RESIDUAL_RTOL * scale
    assert es.residual_bound >= sigma - 4 * np.finfo(float).eps * scale


def column_by_column_sweep(graph, grid):
    """Reference sweep: every (node, delta) matrix built and solved on its own. A matrix
    equal bit for bit to one already solved (delta = 0 at each node, unless a weight of
    -0.0 turns to 0.0) takes that solve's value."""
    cells, solved = {}, {}
    for node in range(graph.n):
        for delta in grid:
            w = graph.weights.copy()
            w[:, node] += delta
            key = w.tobytes()
            if key not in solved:
                try:
                    value = largest_negative_eigenvalue(eigenvalues(w))
                    solved[key] = (value, "ok" if value is not None else "no_negative")
                except NumericalFailure:
                    solved[key] = (None, "failed")
            cells[(node, delta)] = SweepCell(node, delta, *solved[key])
    return cells


def dense_graph(seed, n=8):
    """A random graph with every edge present, whose cells all verify on the fast path."""
    weights = random_signed_digraph_weights(np.random.default_rng(seed), n, density=1.0)
    return SignedWeightedDigraph(weights=weights)


def shifted(graph, node, delta):
    """The sweep's matrix for (node, delta)."""
    w = graph.weights.copy()
    w[:, node] += delta
    return w


def without(cells, keys):
    return {key: cell for key, cell in cells.items() if key not in keys}


def count_calls(monkeypatch, name):
    """Record the matrix of every call to netinstab.spectral.<name>."""
    real = getattr(netinstab.spectral, name)
    calls = []

    def counted(matrix):
        calls.append(np.array(matrix))
        return real(matrix)

    monkeypatch.setattr(netinstab.spectral, name, counted)
    return calls


def patch_fast_path(monkeypatch, fail_on=None):
    """Count the sweep's fast-path solvers, their calls and their failures; a
    call on a matrix equal to fail_on raises NumericalFailure."""
    real = netinstab.spectral._resolvent_solver
    counts = {"solvers": 0, "calls": 0, "failed": 0}

    def solver(w, base, vecs):
        inner = real(w, base, vecs)
        if inner is None:
            return None
        counts["solvers"] += 1

        def solve(m, node, delta):
            counts["calls"] += 1
            try:
                if fail_on is not None and np.array_equal(m, fail_on):
                    raise NumericalFailure("synthetic fast-path failure")
                return inner(m, node, delta)
            except NumericalFailure:
                counts["failed"] += 1
                raise

        return solve

    monkeypatch.setattr(netinstab.spectral, "_resolvent_solver", solver)
    return counts


def count_svds(monkeypatch):
    """Record the matrix of every 2-norm SVD, np.linalg.norm(m, 2) of a matrix."""
    real = np.linalg.norm
    calls = []

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(np.array(x))
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def pattern_weights(n, seed, density=0.3):
    """perfbench's model at size n: the edge pattern drawn from seed 1, with weights drawn
    from `seed`. n = 48 and seeds 0-31 are the sweep-n48 workload's draws, n = 16 at
    density 0.5 the cycles-n16 workload's, and seed 0 at n = 128 and 256 the size ladder's
    graphs."""
    edges = random_signed_digraph_weights(np.random.default_rng(1), n, density) != 0
    return np.where(edges, np.random.default_rng(seed).uniform(-2, 2, (n, n)), 0.0)


def acceptance(m, vals, vecs, units):
    """`_verified`'s EigenSet for the pairs (vals, vecs) of m, or its failure message. The
    explicit residual is taken at unit 1, so that every call on one m reads the same residual."""
    try:
        return _verified(m, vals, _residual(m, vals, vecs.real, vecs.imag, 1.0), units)
    except NumericalFailure as exc:
        return str(exc)


def assert_multisets_close(got, expected, tol):
    remaining = list(expected)
    for value in got:
        dists = [abs(value - r) for r in remaining]
        idx = int(np.argmin(dists))
        assert dists[idx] <= tol, (value, remaining)
        remaining.pop(idx)


class TestEigenvalues:
    def test_diagonal(self):
        es = eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert_multisets_close(es.values, [1, 2, 3], 1e-12)

    def test_rotation_matrix(self):
        es = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert_multisets_close(es.values, [1j, -1j], 1e-12)

    def test_piezo_against_charpoly_oracle(self, piezo):
        w = piezo[0].weights
        es = eigenvalues(w)
        assert_multisets_close(es.values, charpoly_roots(w), 1e-6)

    def test_nonfinite_rejected(self):
        with pytest.raises(BadMatrix):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(BadMatrix):
            eigenvalues(np.zeros((2, 3)))

    def test_residual_bound_recorded(self, piezo):
        es = eigenvalues(piezo[0].weights)
        assert 0 <= es.residual_bound <= 1e-9 * np.linalg.norm(piezo[0].weights, 2)

    def test_overflowing_matrix_fails_numerically(self):
        with pytest.raises(NumericalFailure):
            eigenvalues(np.full((2, 2), 1e308))

    def test_huge_finite_matrix_accepted(self):
        # squaring the residual of a 1e200-scale matrix would overflow
        es = eigenvalues(np.array([[1e200, 1e200], [0.0, -1e200]]))
        assert_multisets_close(es.values, [1e200, -1e200], 1e188)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_svd_oracle_random(self, seed, n):
        m = random_signed_digraph_weights(np.random.default_rng(seed), n)
        assert_svd_oracle_holds(m, eigenvalues(m))

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(16, 64),
        density=st.sampled_from([0.02, 0.1, 0.4, 1.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_svd_oracle_random_at_size(self, seed, n, density):
        # sparse draws have many exactly zero and repeated eigenvalues
        m = random_signed_digraph_weights(np.random.default_rng(seed), n, density)
        assert_svd_oracle_holds(m, eigenvalues(m))

    @pytest.mark.parametrize("name", list(hard_matrices()))
    def test_svd_oracle_hard_cases(self, name):
        m = hard_matrices()[name]
        assert_svd_oracle_holds(m, eigenvalues(m))

    @pytest.mark.parametrize("name", list(hard_matrices()))
    def test_real_residual_matches_complex_residual(self, name):
        # the companion cases have complex pairs, whose residual needs Im x
        m = hard_matrices()[name]
        n = len(m)
        vals, vecs = np.linalg.eig(m)
        unit = max(1.0, float(np.linalg.norm(m, 2)))
        residuals = np.linalg.norm((m @ vecs - vecs * vals) / unit, axis=0)  # m promoted to complex
        worst = float((residuals / np.linalg.norm(vecs, axis=0)).max()) * unit
        # either product's entry i is within n * eps * (|m| |x|)_i of the exact one, and ||x|| = 1
        tol = 4 * n * np.finfo(float).eps * float(np.linalg.norm(np.abs(m), 2))
        assert abs(eigenvalues(m).residual_bound - worst) <= tol

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_similarity_invariance_under_permutation(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-3, 3, size=(n, n))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        assert_multisets_close(
            eigenvalues(p @ m @ p.T).values, list(eigenvalues(m).values), 1e-6 * max(1, np.abs(m).max())
        )

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-3, 3, size=(n, n))
        es = eigenvalues(m)
        conjugates = [v.conjugate() for v in es.values]
        assert_multisets_close(es.values, conjugates, 1e-9 * max(1.0, float(np.linalg.norm(m, 2))))

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 128),
        density=st.sampled_from([0.1, 0.3, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_eigvals_equals_eig_bitwise(self, seed, n, density):
        # the sweep takes its values from eigvals and verifies them with vectors of its own;
        # its cells equal eigenvalues()' only while eigvals returns eig's values bit for bit
        m = random_signed_digraph_weights(np.random.default_rng(seed), n, density)
        values, with_vectors = np.linalg.eigvals(m), np.linalg.eig(m)[0]
        assert values.dtype == with_vectors.dtype
        assert values.tobytes() == with_vectors.tobytes()

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 16),
        density=st.sampled_from([0.3, 0.6, 1.0]),
        delta=st.floats(-3, 3).filter(lambda d: d != 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_svd_oracle_fast_path(self, seed, n, density, delta):
        rng = np.random.default_rng(seed)
        w = random_signed_digraph_weights(rng, n, density)
        node = int(rng.integers(n))
        m = w.copy()
        m[:, node] += delta
        solve = netinstab.spectral._resolvent_solver(w, *netinstab.spectral._eigenpairs(w))
        assume(solve is not None)
        try:
            es = solve(m, node, delta)
        except NumericalFailure:  # the sweep would solve this cell with eigenvalues()
            assume(False)
        assert_svd_oracle_holds(m, es)
        assert es.values == tuple(complex(v) for v in np.linalg.eig(m)[0])  # eig's vectors may fail


class TestLargestNegative:
    def test_definition(self):
        es = EigenSet(values=(-1 + 0j, -2 + 0j, 3 + 0j))
        assert largest_negative_eigenvalue(es) == -1

    def test_absent(self):
        assert largest_negative_eigenvalue(EigenSet(values=(1 + 0j, 2 + 0j))) is None

    def test_complex_real_part_rule(self):
        es = EigenSet(values=(-0.5 + 2j, -0.5 - 2j, -3 + 0j))
        assert largest_negative_eigenvalue(es) == -0.5

    def test_zero_tolerance_excludes_noise(self):
        es = EigenSet(values=(-1e-15 + 0j, -2.0 + 0j), zero_tol=1e-9)
        assert largest_negative_eigenvalue(es) == -2.0


class TestSweep:
    def test_zero_delta_matches_unperturbed(self, piezo):
        graph = piezo[0]
        base = largest_negative_eigenvalue(eigenvalues(graph.weights))
        table = perturbation_sweep(graph, [0.0])
        for node in range(graph.n):
            assert table.value(node, 0.0) == pytest.approx(base, rel=1e-12)

    def test_single_node_self_loop(self):
        graph = SignedWeightedDigraph(weights=np.array([[-1.0]]))
        table = perturbation_sweep(graph, [0.5])
        assert table.value(0, 0.5) == pytest.approx(-0.5)

    def test_modes_differ_on_structural_zeros(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = SignedWeightedDigraph(weights=w)
        dense = perturbation_sweep(graph, [1.0])
        # the sweep perturbs structural zero (0,0) too; shifting only the
        # nonzero entries would give the spectrum of [[0, 1], [2, 0]]
        dense_expected = np.linalg.eigvals(np.array([[1.0, 1.0], [2.0, 0.0]]))
        tol = 1e-9

        def largest_neg(vals):
            neg = [v.real for v in vals if v.real < -tol]
            return max(neg) if neg else None

        assert dense.value(0, 1.0) == pytest.approx(largest_neg(dense_expected))

    def test_nonfinite_delta(self, piezo):
        with pytest.raises(BadParameter):
            perturbation_sweep(piezo[0], [np.inf])

    def test_failed_zero_delta_solve_fails_every_node_once(self, monkeypatch):
        # the delta = 0 solve is the first; with it failed there is no fast path,
        # so every other cell is one eigenvalues() solve
        real = netinstab.spectral._eigenpairs
        calls = []

        def fails_first(matrix):
            calls.append(matrix)
            if len(calls) == 1:
                raise NumericalFailure("synthetic failure of the delta=0 solve")
            return real(matrix)

        monkeypatch.setattr(netinstab.spectral, "_eigenpairs", fails_first)
        graph = dense_graph(3)
        table = perturbation_sweep(graph, [0.5, 1.0])
        assert len(calls) == 1 + graph.n * (len(table.deltas) - 1)
        failed = {key for key, cell in table.cells.items() if cell.status == "failed"}
        assert failed == {(node, 0.0) for node in range(graph.n)}
        assert all(table.cells[(node, 0.0)].node == node for node in range(graph.n))
        oracle = column_by_column_sweep(graph, table.deltas)
        assert without(table.cells, failed) == without(oracle, failed)

    def test_cell_failure_does_not_abort_run(self, monkeypatch):
        graph = dense_graph(4)
        bad = shifted(graph, 3, 0.5)
        fast = patch_fast_path(monkeypatch, fail_on=bad)
        real = netinstab.spectral.eigenvalues

        def fails_on_bad(matrix):
            if np.array_equal(matrix, bad):
                raise NumericalFailure("synthetic per-cell failure")
            return real(matrix)

        monkeypatch.setattr(netinstab.spectral, "eigenvalues", fails_on_bad)
        table = perturbation_sweep(graph, [0.5, 1.0])
        assert fast["calls"] > 0
        assert table.cells[(3, 0.5)] == SweepCell(3, 0.5, None, "failed")
        oracle = column_by_column_sweep(graph, table.deltas)
        assert without(table.cells, {(3, 0.5)}) == without(oracle, {(3, 0.5)})

    def test_fast_path_failure_falls_back_for_that_cell_only(self, monkeypatch):
        graph = dense_graph(5)
        bad = shifted(graph, 3, 0.5)
        fast = patch_fast_path(monkeypatch, fail_on=bad)
        solved = count_calls(monkeypatch, "eigenvalues")
        table = perturbation_sweep(graph, [-1.0, 0.5, 1.0])
        assert table.cells == column_by_column_sweep(graph, table.deltas)
        assert fast == {"solvers": 1, "calls": graph.n * 3, "failed": 1}
        assert len(solved) == 1 and np.array_equal(solved[0], bad)

    def test_tiny_entries_go_to_eigenvalues(self, monkeypatch):
        # 4e-249 added to a column's structural zeros: for column 3, eig's eigenvectors
        # fail the residual test although its values are right, and the resolvent vectors
        # would pass, so the fast path declines every cell and (3, delta) stays "failed"
        w = random_signed_digraph_weights(np.random.default_rng(1678), 8)
        graph = SignedWeightedDigraph(weights=w)
        delta = 4.0669023406652847e-249
        fast = patch_fast_path(monkeypatch)
        solved = count_calls(monkeypatch, "eigenvalues")
        table = perturbation_sweep(graph, [delta])
        assert table.cells[(3, delta)] == SweepCell(3, delta, None, "failed")
        assert table.cells == column_by_column_sweep(graph, table.deltas)
        assert fast["solvers"] == 1 and fast["failed"] == graph.n
        assert len(solved) == graph.n

    def test_piezo_takes_no_fast_path(self, piezo, piezo_printed):
        # W's triple zero eigenvalue has a_k near 0, so no piezo cell would verify on the
        # fast path, and every cell is one eigenvalues() solve
        deltas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for graph in (piezo[0], piezo_printed[0]):
            with pytest.MonkeyPatch.context() as mp:
                fast = patch_fast_path(mp)
                solved = count_calls(mp, "eigenvalues")
                table = perturbation_sweep(graph, deltas)
            assert fast == {"solvers": 0, "calls": 0, "failed": 0}
            assert len(solved) == graph.n * len(deltas)
            assert table.cells == column_by_column_sweep(graph, table.deltas)

    def test_singular_eigenvectors_take_no_fast_path(self, monkeypatch):
        # a Jordan block's eigenvectors are parallel
        graph = SignedWeightedDigraph(weights=np.eye(4, k=1))
        fast = patch_fast_path(monkeypatch)
        table = perturbation_sweep(graph, [0.5])
        assert fast == {"solvers": 0, "calls": 0, "failed": 0}
        assert table.cells == column_by_column_sweep(graph, table.deltas)

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 24),
        deltas=st.lists(st.floats(-3, 3), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_column_by_column_oracle(self, seed, n, deltas):
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(np.random.default_rng(seed), n))
        table = perturbation_sweep(graph, deltas)
        assert table.deltas == tuple(sorted(set(deltas) | {0.0}))
        assert table.cells == column_by_column_sweep(graph, table.deltas)

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(16, 64),
        density=st.sampled_from([0.02, 0.1, 0.3, 0.6, 1.0]),
        deltas=st.lists(st.floats(-3, 3), min_size=1, max_size=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_sweep_matches_column_by_column_oracle_at_size(self, seed, n, density, deltas):
        # density 0.02 leaves most columns empty: W is defective, and its eigenvectors
        # are most often singular, which leaves the sweep no fast path
        rng = np.random.default_rng(seed)
        graph = SignedWeightedDigraph(weights=random_signed_digraph_weights(rng, n, density))
        table = perturbation_sweep(graph, deltas)
        assert table.cells == column_by_column_sweep(graph, table.deltas)

    def test_negative_zero_weights_give_every_node_one_baseline(self):
        # adding 0.0 to one column turns only that column's -0.0 weights into 0.0, which
        # moved the baseline's last bits from node to node; all nodes share the whole-matrix one
        w = random_signed_digraph_weights(np.random.default_rng(0), 12)
        graph = SignedWeightedDigraph(weights=np.where(w == 0, -0.0, w))
        table = perturbation_sweep(graph, [0.5])
        expected = largest_negative_eigenvalue(eigenvalues(w))
        assert [table.value(node, 0.0) for node in range(12)] == [expected] * 12

    def test_overflowing_cells_fail_without_aborting(self):
        graph = SignedWeightedDigraph(weights=np.full((2, 2), 1e308))
        table = perturbation_sweep(graph, [0.5])
        assert {cell.status for cell in table.cells.values()} == {"failed"}

    def test_overflowing_column_is_a_failed_cell(self):
        graph = SignedWeightedDigraph(weights=[[0.0, 1.5e308], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            table = perturbation_sweep(graph, [1.0, 1e308])
        # node 1's column overflows (1.5e308 + 1e308); node 0's matrix is finite, but its 2-norm is not
        assert [table.cells[(node, 1e308)].status for node in (0, 1)] == ["failed", "failed"]
        without = perturbation_sweep(graph, [1.0]).cells
        assert {key: cell for key, cell in table.cells.items() if key[1] != 1e308} == without

    def test_reference_trajectories(self, piezo):
        table = perturbation_sweep(piezo[0], REFERENCE["deltas"])
        for node_str, expected in REFERENCE["trajectories"].items():
            got = table.trajectory(int(node_str))
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, abs=1e-8)

    def test_drive_to_zero_signature(self, piezo):
        """Only nodes 2 and 6 drift toward zero; they end closest to zero."""
        table = perturbation_sweep(piezo[0], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        for node in (2, 6):
            traj = table.trajectory(node)[1:]  # skip the delta=0 baseline
            assert all(b > a for a, b in zip(traj, traj[1:]))
        end = {node: table.value(node, 3.0) for node in range(8)}
        closest = sorted(end, key=lambda v: -end[v])[:2]
        assert set(closest) == {2, 6}


class TestNormBracket:
    """The fast path runs each check at both ends of `_bracket`'s bounds on
    max(1, ||m||_2), and takes the SVD only where a check reads differently at the two."""

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 64),
        density=st.floats(0.02, 1.0),
        exponent=st.floats(-6, 6),
        deltas=st.lists(st.floats(-3, 3), min_size=1, max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_sweep_matches_column_by_column_oracle_at_any_scale(self, seed, n, density, exponent, deltas):
        # weights from 1e-6 to 1e6 put max(1, ||m||_2) at 1 at both ends, at neither, or between
        scale = 10.0**exponent
        weights = scale * random_signed_digraph_weights(np.random.default_rng(seed), n, density)
        graph = SignedWeightedDigraph(weights=weights)
        table = perturbation_sweep(graph, [scale * d for d in deltas])
        assert table.cells == column_by_column_sweep(graph, table.deltas)

    def test_sweep_n48_draws_take_only_the_baseline_svd(self, monkeypatch):
        # and the residual bound verifies every nonzero-delta cell: none goes to eigenvalues()
        grid = AnalysisConfig().delta_grid()
        svds, fast = count_svds(monkeypatch), patch_fast_path(monkeypatch)
        for seed in range(32):
            weights = pattern_weights(48, seed)
            svds.clear()
            fast.update(solvers=0, calls=0, failed=0)
            perturbation_sweep(SignedWeightedDigraph(weights=weights), grid)
            assert len(svds) == 1 and np.array_equal(svds[0], weights), seed  # the delta = 0 solve
            assert fast == {"solvers": 1, "calls": 48 * len(grid), "failed": 0}, seed

    def test_ladder_n128_cells_verify_by_the_bound(self, monkeypatch):
        # 8 nodes of the size ladder's n = 128 graph on the default grid, where the bound's
        # terms are larger than at n = 48
        grid = AnalysisConfig().delta_grid()
        w = pattern_weights(128, 0)
        fast = patch_fast_path(monkeypatch)
        svds = count_svds(monkeypatch)
        solve = netinstab.spectral._resolvent_solver(w, *netinstab.spectral._eigenpairs(w))
        for node in range(0, 128, 16):
            for delta in grid:
                es = solve(shifted(SignedWeightedDigraph(weights=w), node, delta), node, delta)
                unit = es.zero_tol / ZERO_RTOL  # the upper end of the bracket the test read at
                assert es.residual_bound < 0.1 * RESIDUAL_RTOL * unit
        assert fast == {"solvers": 1, "calls": 8 * len(grid), "failed": 0}
        assert len(svds) == 1  # the delta = 0 solve's

    def test_n128_sweep_csv_equals_the_oracle(self, tmp_path, monkeypatch):
        # a density-0.3 model whose edges and weights come from one generator, on the grid
        # delta = 1, 2, 3: 512 cells, each of the 384 off delta = 0 verified by the bound
        rng = np.random.default_rng(128)
        w = np.where(rng.random((128, 128)) < 0.3, rng.uniform(-2, 2, (128, 128)), 0.0)
        model = tmp_path / "n128.json"
        model.write_text(json.dumps({"n": 128, "adjacency": w.tolist(), "features": [[1.0]] * 128}))
        config = AnalysisConfig(
            model_path=str(model), methods=("spectral",), output_dir=str(tmp_path / "out"),
            delta_min=1, delta_max=3, delta_step=1,
        )
        fast = patch_fast_path(monkeypatch)
        run(config)
        assert fast == {"solvers": 1, "calls": 128 * 3, "failed": 0}
        cells = column_by_column_sweep(SignedWeightedDigraph(weights=w), [0.0, *config.delta_grid()])
        rows = [list(astuple(cells[key])) for key in sorted(cells)]
        assert len(rows) == 512
        expected = _csv(["node", "delta", "largest_negative_eigenvalue", "status"], rows)
        assert (tmp_path / "out" / "spectral_sweep.csv").read_text() == expected

    def test_piezo_takes_an_svd_per_cell(self, piezo, monkeypatch):
        # every cell but the shared delta = 0 one is an eigenvalues() solve, which takes its own
        grid = AnalysisConfig().delta_grid()
        svds = count_svds(monkeypatch)
        perturbation_sweep(piezo[0], grid)
        assert len(svds) == 1 + piezo[0].n * len(grid)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_value_at_the_zero_tolerance_takes_the_svd(self, monkeypatch, seed):
        # W + alpha I moves cell (3, 0.5)'s eigenvalue of largest real part to about
        # -ZERO_RTOL * ||m||_2, where whether it counts as negative depends on the last bits
        w = 5.0 * dense_graph(seed).weights
        m = shifted(SignedWeightedDigraph(weights=w), 3, 0.5)
        top, alpha = np.linalg.eigvals(m).real.max(), 0.0
        for _ in range(3):
            alpha = -ZERO_RTOL * max(1.0, np.linalg.norm(m + alpha * np.eye(8), 2)) - top
        graph = SignedWeightedDigraph(weights=w + alpha * np.eye(8))
        cell = shifted(graph, 3, 0.5)
        exact = eigenvalues(cell)
        assert max(v.real for v in exact.values) == pytest.approx(-exact.zero_tol, rel=1e-5)
        fast = patch_fast_path(monkeypatch)
        svds = count_svds(monkeypatch)
        table = perturbation_sweep(graph, [0.5])
        assert len(svds) == 2 and np.array_equal(svds[1], cell)
        assert fast["failed"] == 0
        assert table.cells == column_by_column_sweep(graph, table.deltas)

    @pytest.mark.parametrize("real_part", [-(ZERO_RTOL * 3.0), np.nextafter(-(ZERO_RTOL * 3.0), -1.0)])
    def test_value_exactly_at_the_zero_tolerance_takes_the_svd(self, monkeypatch, real_part):
        # ||m||_2 = 3, so zero_tol is ZERO_RTOL * 3.0: the first value is not negative, the second is
        m = np.diag([3.0, real_part, 1.0])
        vals, vecs = np.linalg.eig(m)
        svds = count_svds(monkeypatch)
        got = acceptance(m, vals, vecs, _bracket(m))
        assert len(svds) == 1
        assert got == eigenvalues(m)
        assert largest_negative_eigenvalue(got) == (None if real_part == -(ZERO_RTOL * 3.0) else real_part)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_residual_at_its_bound_takes_the_svd(self, monkeypatch, factor):
        # a real eigenvalue moved by t leaves its eigenpair a residual of about t
        m = 3.0 * random_signed_digraph_weights(np.random.default_rng(4), 8, density=1.0)
        vals, vecs = np.linalg.eig(m)
        k = int(np.flatnonzero(vals.imag == 0)[0])
        vals[k] += factor * RESIDUAL_RTOL * max(1.0, np.linalg.norm(m, 2))
        svds = count_svds(monkeypatch)
        got = acceptance(m, vals, vecs, _bracket(m))
        assert len(svds) == 1
        assert got == acceptance(m, vals, vecs, None)
        assert isinstance(got, EigenSet) == (factor < 1)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_trace_error_at_its_bound_takes_the_svd(self, monkeypatch, factor):
        # m = Q D Q^T with ||m||_2 = 10, its eigenpair (10 - 1e-5 * factor, q_1) given as a
        # second copy of (10, q_0): every residual is near 0, and the sum misses the trace
        # by about 1e-6 * ||m||_2, between 1e-6 times the two ends of the bracket
        q = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))[0]
        m = q @ np.diag([10.0, 10.0 - 1e-5 * factor, 1.0, 2.0]) @ q.T
        vals, vecs = np.array([10.0, 10.0, 1.0, 2.0]), q[:, [0, 0, 2, 3]]
        svds = count_svds(monkeypatch)
        got = acceptance(m, vals, vecs, _bracket(m))
        assert len(svds) == 1
        assert got == acceptance(m, vals, vecs, None)
        assert isinstance(got, EigenSet) == (factor < 1)

    def test_overflowing_bracket_takes_the_svd(self, monkeypatch):
        # entries near 1e200 overflow the squares of the Frobenius norm, though not ||m||_2
        graph = SignedWeightedDigraph(weights=1e200 * dense_graph(5).weights)
        assert _bracket(shifted(graph, 0, 0.5e200)) is None
        fast = patch_fast_path(monkeypatch)
        svds = count_svds(monkeypatch)
        table = perturbation_sweep(graph, [0.5e200])
        assert len(svds) == 1 + graph.n and fast["failed"] == 0
        assert {cell.status for cell in table.cells.values()} == {"ok"}
        assert table.cells == column_by_column_sweep(graph, table.deltas)


def built_residual(w, base, vecs, m, mu):
    """The explicit residual of the resolvent vectors V (Lambda - mu I)^-1 a of m's values mu,
    built and checked as the fast path did before it bounded them: each column scaled to
    a largest entry of 1, x = V C formed, and m x - mu x taken."""
    a = np.linalg.solve(vecs, np.ones(len(w)))[:, None]
    c = a / (np.array(base.values)[:, None] - mu)
    c /= np.abs(c).max(axis=0)
    x = vecs @ c
    return _residual(m, mu, x.real, x.imag, max(1.0, float(np.linalg.norm(m, 2))))


class TestResidualBound:
    """The fast path accepts a cell on an O(n^2) upper bound of its eigenpair residuals,
    never on the residuals themselves."""

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 64),
        density=st.floats(0.02, 1.0),
        exponent=st.floats(-6, 6),
        delta=st.floats(-3, 3).filter(lambda d: d != 0.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_against_the_svd_oracle(self, seed, n, density, exponent, delta):
        scale = 10.0**exponent
        rng = np.random.default_rng(seed)
        w = scale * random_signed_digraph_weights(rng, n, density)
        node, delta = int(rng.integers(n)), scale * delta
        base, vecs = netinstab.spectral._eigenpairs(w)
        solve = netinstab.spectral._resolvent_solver(w, base, vecs)
        assume(solve is not None)
        m = shifted(SignedWeightedDigraph(weights=w), node, delta)
        try:
            es = solve(m, node, delta)
        except NumericalFailure:  # the sweep would solve this cell with eigenvalues()
            assume(False)
        # sigma_min(m - mu I) <= residual_bound for every mu, with the slack of 4 eps ||m||_2
        assert_svd_oracle_holds(m, es)
        # and the bound is at least the residual of the built vectors, less that residual's
        # rounding: x = fl(V C) is within n eps sqrt(n) ||c|| of V c, where
        # ||V c|| >= sigma_min(V) ||c||, and m x - mu x is within (n + 2) eps (||m||_F + |mu|) ||x||
        mu = np.array(es.values)
        eps, sigma = np.finfo(float).eps, np.linalg.svd(vecs, compute_uv=False)[-1]
        slack = 2 * (n + 2) * eps * (np.linalg.norm(m) + np.abs(mu).max()) * (1 + np.sqrt(n) / sigma)
        assert es.residual_bound >= built_residual(w, base, vecs, m, mu) - slack

    @pytest.mark.parametrize("inexact", ["values", "vectors", "coefficients"])
    def test_bound_covers_each_inexact_input(self, monkeypatch, inexact):
        # one input moved far past its rounding, so that one term of the bound carries the
        # residual of the built vectors, though the cell still passes: the values mu (the
        # secular term s + delta xi), W's eigenvectors V (E = W V - V Lambda) or a = V^-1 1
        # (g = V a - 1). The values are taken from the matrix the moved input is exact for,
        # so that only the one term grows: with V' and a' in place of V and a, the resolvent
        # vectors are eigenvectors of V' Lambda V'^-1 + delta 1 e_j^T and of W + delta V a' e_j^T
        w, (node, delta) = pattern_weights(48, 0), (5, 1.5)
        base, vecs = netinstab.spectral._eigenpairs(w)
        m = shifted(SignedWeightedDigraph(weights=w), node, delta)
        exact = built_residual(w, base, vecs, m, np.linalg.eigvals(m))
        noise, column = np.random.default_rng(0).normal(size=(2, 48, 48)), np.eye(48)[node]
        eigvals, inv = np.linalg.eigvals, np.linalg.inv
        if inexact == "values":
            values = eigvals(m) + 1e-12 * (1 + 1j)
        elif inexact == "vectors":
            vecs = vecs + 1e-12 * (noise[0] + 1j * noise[1])
            moved = (vecs * np.array(base.values)) @ np.linalg.inv(vecs)
            values = eigvals(moved + delta * np.outer(np.ones(48), column))
        else:
            # a = X 1 is moved through column 0 of the inverse X, which the sigma_min(V) bound
            # also reads; that bound holds for any X, and moves by about 1e-11
            x = inv(vecs)
            x[:, 0] += x.sum(axis=1) * 1e-11 * noise[0, 0]
            a = x.sum(axis=1)
            monkeypatch.setattr(np.linalg, "inv", lambda _: x)
            values = eigvals(w + delta * np.outer(vecs @ a, column))
        monkeypatch.setattr(np.linalg, "eigvals", lambda _: values)
        es = netinstab.spectral._resolvent_solver(w, base, vecs)(m, node, delta)
        built = built_residual(w, base, vecs, m, values)
        assert built > 10 * exact
        assert es.residual_bound >= built

    def test_near_defective_eigenvectors_decline_every_cell(self, monkeypatch):
        # J_4 - I/2 with 1e-8 in its corner has eigenvalues 1e-2 apart and near-parallel
        # eigenvectors (kappa(V) near 1e6): the built vectors pass the residual test, but
        # sigma_min(V) leaves the bound above it, so every cell goes to eigenvalues()
        w = np.zeros((6, 6))
        w[:4, :4] = np.eye(4, k=1) - 0.5 * np.eye(4)
        w[3, 0], w[4, 0], w[0, 5] = 1e-8, 0.7, 0.4
        w[4:, 4:] = [[-1.0, 0.3], [0.2, -2.0]]
        graph = SignedWeightedDigraph(weights=w)
        deltas = [0.5, 1.0]
        base, vecs = netinstab.spectral._eigenpairs(w)
        for node in range(6):
            for delta in deltas:
                m = shifted(graph, node, delta)
                built = built_residual(w, base, vecs, m, np.linalg.eigvals(m))
                assert built <= RESIDUAL_RTOL * np.linalg.norm(m, 2)
        fast = patch_fast_path(monkeypatch)
        table = perturbation_sweep(graph, deltas)
        assert fast == {"solvers": 1, "calls": 12, "failed": 12}
        assert table.cells == column_by_column_sweep(graph, table.deltas)
