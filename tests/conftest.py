import numpy as np
import pytest

from biharm.mesh import build_mesh
from biharm.surfaces import SurfaceCase


def grid_mesh(n, lx=1.0, ly=1.0, shear=0.0):
    """Flat triangulated rectangle in the z = 0 plane.

    n x n cells, two triangles each, counterclockwise seen from +z.
    A nonzero shear skews the x coordinate with y, producing obtuse
    triangles.
    """
    xs = np.linspace(0.0, lx, n + 1)
    ys = np.linspace(0.0, ly, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel() + shear * gy.ravel(), gy.ravel(),
                      np.zeros(gx.size)], axis=1)

    def vid(i, j):
        return i * (n + 1) + j

    faces = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            faces.append([v00, v10, v11])
            faces.append([v00, v11, v01])
    return build_mesh(verts, np.asarray(faces))


def single_triangle(p0=(0.0, 0.0, 0.0), p1=(1.0, 0.0, 0.0),
                    p2=(0.0, 1.0, 0.0)):
    return build_mesh(np.array([p0, p1, p2], dtype=float),
                      np.array([[0, 1, 2]]))


def tetrahedron():
    """Smallest closed mesh, consistently outward oriented."""
    verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return build_mesh(verts, faces)


def flat_case(u, grad_u, lap_u, f):
    """SurfaceCase for the z = 0 plane with prescribed fields."""

    def distance(p):
        pts = np.asarray(p, dtype=float)
        return pts[..., 2], np.broadcast_to([0.0, 0.0, 1.0], pts.shape)

    def solution(p):
        return u(p), grad_u(p), lap_u(p)

    return SurfaceCase(distance, solution, f)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
