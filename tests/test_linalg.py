import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.fem import MeshOperators
from biharm.linalg import (NotConvergedError, SingularError,
                           check_residual, factor_spd, nested_dissection, pcg)
from biharm.surfaces import gen_cap_mesh, gen_icosphere, gen_schwarz_lantern

from conftest import grid_mesh
from helpers import dense_solve_oracle, lexsort_nested_dissection


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
        ops = MeshOperators(mesh)
        a = ops.stiffness[np.ix_(ops.interior, ops.interior)].tocsr()
        b = np.ones(len(ops.interior))
        x = ops.solve(np.ones(mesh.n_vertices))[ops.interior]
        y = dense_solve_oracle(a, b)
        assert x == pytest.approx(y, abs=1e-9)


def interior_stiffness(mesh):
    ops = MeshOperators(mesh)
    return (ops.stiffness[ops.interior, :][:, ops.interior],
            mesh.vertices[ops.interior])


class TestCheckResidual:
    def test_relative_to_larger_side(self):
        lhs, rhs = np.array([3.0, 4.0]), np.array([3.0, 4.0 + 1e-12])
        assert check_residual(lhs, rhs, 1e-10, "x") == pytest.approx(
            1e-12 / np.linalg.norm(rhs), rel=1e-3)
        assert check_residual(2.0 * rhs, rhs, 1.0, "x") == pytest.approx(0.5)

    def test_independent_of_scale(self):
        lhs, rhs = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.1])
        res = check_residual(lhs, rhs, 1.0, "x")
        for scale in (1e-100, 1e-3, 1e3, 1e100):
            assert check_residual(scale * lhs, scale * rhs, 1.0,
                                  "x") == pytest.approx(res, rel=1e-14)

    def test_zero_sides(self):
        assert check_residual(np.zeros(3), np.zeros(3), 0.0, "x") == 0.0
        assert check_residual(np.zeros(0), np.zeros(0), 0.0, "x") == 0.0

    def test_above_tolerance_names_equation(self):
        with pytest.raises(NotConvergedError,
                           match=r"mass solve on 3 vertices has relative "
                                 r"residual 5\.000e-01 \(tol 1\.0e-10\)"):
            check_residual(np.ones(3), 2.0 * np.ones(3), 1e-10,
                           "mass solve on 3 vertices")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        lhs = np.array([1.0, bad])
        with pytest.raises(NotConvergedError, match="nan"):
            check_residual(lhs, np.ones(2), 1e300, "x")
        with pytest.raises(NotConvergedError, match="nan"):
            check_residual(np.ones(2), lhs, 1e300, "x")


def test_pcg_breakdown_names_step():
    # p.Ap of a zero operator is zero, so the first step cannot divide.
    with pytest.raises(NotConvergedError,
                       match=r"^x broke down at iteration 0: r\.z or p\.Ap "
                             r"is zero$"):
        pcg(np.zeros_like, np.ones(3), lambda r: r, 1e-10, np.ones(3), "x")


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
        with pytest.raises(ValueError, match=r"cannot order a \(2, 3\) "
                                             r"matrix by points of shape"):
            factor_spd(sp.csr_matrix(np.ones((2, 3))), np.zeros((2, 3)))


@st.composite
def point_clouds(draw, max_n):
    """A graph and points to dissect: few distinct coordinate values give
    repeated points, and a sparse random graph is disconnected in
    general."""
    n = draw(st.integers(0, max_n))
    dim = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(0, levels, size=(n, dim)).astype(float)
    rows = rng.integers(0, max(n, 1), size=degree * n)
    cols = rng.integers(0, max(n, 1), size=degree * n)
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return graph + graph.T, points


class TestNestedDissection:
    @settings(max_examples=60, deadline=None)
    @given(cloud=point_clouds(600))
    def test_is_permutation(self, cloud):
        perm = nested_dissection(*cloud)
        assert np.array_equal(np.sort(perm), np.arange(cloud[1].shape[0]))

    @settings(max_examples=60, deadline=None)
    @given(cloud=point_clouds(2000))
    def test_matches_lexsort_reference(self, cloud):
        assert np.array_equal(nested_dissection(*cloud),
                              lexsort_nested_dissection(*cloud))

    @pytest.mark.parametrize("mesh", [
        gen_cap_mesh(np.pi / 3.0, 64), gen_icosphere(4),
        gen_schwarz_lantern(16, 64)], ids=["cap64", "ico4", "lantern"])
    def test_mesh_matches_lexsort_reference(self, mesh):
        s_ii, points = interior_stiffness(mesh)
        assert np.array_equal(nested_dissection(s_ii, points),
                              lexsort_nested_dissection(s_ii, points))

    def test_factor_fill_at_cap_rings_64(self):
        # The fill of the lexsort reference's order.
        s_ii, points = interior_stiffness(gen_cap_mesh(np.pi / 3.0, 64))
        factor = factor_spd(s_ii, points)
        assert (factor.lu.L.nnz, factor.lu.U.nnz) == (441931, 441931)

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
        with pytest.raises(ValueError, match=r"cannot order a \(4, 4\) matrix "
                                             r"by points of shape \(3, 2\)"):
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
        with pytest.raises(ValueError, match="limited to n <= 2000, got 2001"):
            dense_solve_oracle(a, np.ones(2001))
