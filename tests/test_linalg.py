import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.fem import assemble_stiffness, partition_dofs
from biharm.linalg import (DimensionMismatchError, SingularError, build_csr,
                           dense_solve_oracle, export_matrix_market,
                           factor_spd, nested_dissection)
from biharm.surfaces import gen_cap_mesh

from conftest import grid_mesh


def poisson_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def factor_solve(matrix, b):
    """Solve through factor_spd, ordered by 1D points along the index."""
    points = np.arange(matrix.shape[0], dtype=float)[:, None]
    return factor_spd(matrix, points).solve(b)


class TestSolveSpd:
    """Small SPD systems solved through factor_spd, the package's one
    sparse solver."""

    def test_diagonal(self):
        a = sp.diags(np.array([2.0, 3.0])).tocsr()
        x = factor_solve(a, np.array([2.0, 6.0]))
        assert x == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_poisson_hand_solution(self):
        a = poisson_1d(5)
        b = np.zeros(5)
        b[2] = 1.0
        x = factor_solve(a, b)
        assert x == pytest.approx([0.5, 1.0, 1.5, 1.0, 0.5], abs=1e-10)

    def test_zero_rhs(self):
        x = factor_solve(poisson_1d(5), np.zeros(5))
        assert np.all(x == 0.0)

    def test_interior_stiffness_vs_oracle(self):
        mesh = grid_mesh(3)
        s = assemble_stiffness(mesh)
        part = partition_dofs(mesh)
        a = s[np.ix_(part.interior, part.interior)].tocsr()
        b = np.ones(len(part.interior))
        x = factor_spd(a, mesh.vertices[part.interior]).solve(b)
        y = dense_solve_oracle(a, b)
        assert x == pytest.approx(y, abs=1e-9)


def interior_stiffness(mesh):
    s = assemble_stiffness(mesh)
    interior = partition_dofs(mesh).interior
    return s[interior, :][:, interior], mesh.vertices[interior]


class TestFactorSpd:
    def test_matches_dense_solve(self, rng):
        s_ii, points = interior_stiffness(grid_mesh(4))
        b = rng.normal(size=s_ii.shape[0])
        x = factor_spd(s_ii, points).solve(b)
        assert x == pytest.approx(dense_solve_oracle(s_ii, b), abs=1e-12)

    def test_points_change_fill_not_solution(self, rng):
        s_ii, points = interior_stiffness(gen_cap_mesh(np.pi / 3.0, 16))
        b = rng.normal(size=(s_ii.shape[0], 2))
        x = factor_spd(s_ii, points).solve(b)
        for other in (rng.normal(size=points.shape),
                      np.zeros_like(points), points[:, :1]):
            y = factor_spd(s_ii, other).solve(b)
            assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))

    def test_nested_dissection_fill_below_colamd(self):
        s_ii, points = interior_stiffness(gen_cap_mesh(np.pi / 3.0, 64))
        factor = factor_spd(s_ii, points)
        colamd = spla.splu(s_ii.tocsc(), diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        fill = factor.lu.L.nnz + factor.lu.U.nnz
        assert fill <= 0.8 * (colamd.L.nnz + colamd.U.nnz)

    def test_singular_raises(self):
        with pytest.raises(SingularError):
            factor_spd(sp.csr_matrix(np.diag([2.0, 0.0, 1.0])),
                       np.zeros((3, 3)))

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatchError):
            factor_spd(sp.csr_matrix(np.ones((2, 3))), np.zeros((2, 3)))


class TestNestedDissection:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 600), dim=st.integers(1, 3),
           levels=st.integers(1, 5), degree=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_is_permutation(self, n, dim, levels, degree, seed):
        # Few distinct coordinate values give repeated points, and a
        # sparse random graph is disconnected in general.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, levels, size=(n, dim)).astype(float)
        rows = rng.integers(0, max(n, 1), size=degree * n)
        cols = rng.integers(0, max(n, 1), size=degree * n)
        graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(n, n))
        perm = nested_dissection(graph + graph.T, points)
        assert np.array_equal(np.sort(perm), np.arange(n))

    def test_small_matrix_keeps_order(self):
        s_ii, points = interior_stiffness(grid_mesh(4))
        assert np.array_equal(nested_dissection(s_ii, points),
                              np.arange(s_ii.shape[0]))

    def test_separator_splits_grid(self):
        # On a 32 x 32 grid the median splits the columns 16 / 16, the
        # last low column is the separator and is ordered last, and no
        # edge joins the low part (15 columns) to the high part.
        s_ii, points = interior_stiffness(grid_mesh(33))
        perm = nested_dissection(s_ii, points)
        a = s_ii[perm][:, perm].tocsr()
        low, high = 15 * 32, 16 * 32
        assert np.all(points[perm[low + high:], 0] == points[perm[-1], 0])
        assert a[:low, low:low + high].nnz == 0

    def test_points_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nested_dissection(sp.eye(4, format="csr"), np.zeros((3, 2)))


class TestDenseOracle:
    def test_identity(self):
        a = sp.eye(3, format="csr")
        b = np.array([3.0, -1.0, 2.0])
        assert dense_solve_oracle(a, b) == pytest.approx(b)

    def test_hilbert(self):
        n = 4
        h = np.array([[1.0 / (i + j + 1) for j in range(n)]
                      for i in range(n)])
        x_true = np.ones(n)
        x = dense_solve_oracle(sp.csr_matrix(h), h @ x_true)
        assert x == pytest.approx(x_true, abs=1e-9)

    def test_singular(self):
        a = sp.csr_matrix(np.zeros((2, 2)))
        with pytest.raises(SingularError):
            dense_solve_oracle(a, np.ones(2))

    def test_size_cap(self):
        a = sp.eye(2001, format="csr")
        with pytest.raises(ValueError):
            dense_solve_oracle(a, np.ones(2001))


class TestSparseHelpers:
    def test_build_csr_sums_duplicates(self):
        rows = np.array([0, 0, 1])
        cols = np.array([0, 0, 1])
        vals = np.array([1.0, 2.0, 5.0])
        a = build_csr(rows, cols, vals, (2, 2))
        assert a[0, 0] == 3.0
        assert a[1, 1] == 5.0
        assert a.nnz == 2

    def test_build_csr_drops_zeros(self):
        a = build_csr(np.array([0, 1]), np.array([0, 1]),
                      np.array([1.0, 0.0]), (2, 2))
        assert a.nnz == 1

    def test_matrix_market_symmetric_header(self, tmp_path):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        path = tmp_path / "a.mtx"
        export_matrix_market(a, path, symmetric=True)
        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"

    def test_matrix_market_general_header(self, tmp_path):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        path = tmp_path / "a.mtx"
        export_matrix_market(a, path, symmetric=False)
        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real general"
