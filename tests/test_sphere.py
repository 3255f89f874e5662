"""Angular meshes and level-set nodes against their whole-grid formulas.

The meshes keep coordinate tables on the 1-D angle axes and hand out their
rows one block at a time, and the surface nodes fill their Jacobian over row
blocks; each oracle below is the formula on the full meshgrid or the whole
batch, and the results must agree bit for bit.
"""

import numpy as np
import pytest

from hsconvex import domain as dom
from hsconvex import sphere
from hsconvex.pipeline import projection_resolution


def _meshgrid_directions(a, p1, p2):
    A, P1, P2 = np.meshgrid(a, p1, p2, indexing="ij")
    dirs = np.stack([np.cos(A) * np.exp(1j * P1), np.sin(A) * np.exp(1j * P2)],
                    axis=-1)
    return A, dirs.reshape(-1, 2)


def _angular_oracle(resolution):
    if np.isscalar(resolution):
        resolution = sphere.split_resolution(resolution)
    na, np1, np2 = resolution
    xa, wa = np.polynomial.legendre.leggauss(na)
    a = 0.25 * np.pi * (xa + 1.0)
    wa = 0.25 * np.pi * wa * np.cos(a) * np.sin(a)
    p1 = 2.0 * np.pi * np.arange(np1) / np1
    p2 = 2.0 * np.pi * np.arange(np2) / np2
    A, dirs = _meshgrid_directions(a, p1, p2)
    W = np.broadcast_to(wa[:, None, None] * (2.0 * np.pi / np1)
                        * (2.0 * np.pi / np2), A.shape)
    return dirs, W.reshape(-1)


def _graded_oracle(n_phi2=12, alpha_floor=3e-3, phi_floor=1e-4, q=(7, 6),
                   deg_hint=32):
    n_uniform = (max(5, int(np.ceil(deg_hint / 8))),
                 max(6, int(np.ceil(deg_hint / 4))))
    a, a_w = sphere.gauss_legendre_segments(sphere._graded_segments(
        alpha_floor, 0.12, 0.5 * np.pi, n_uniform[0]), q[0])
    ph, ph_w = sphere.gauss_legendre_segments(sphere._graded_segments(
        phi_floor, 0.3, np.pi, n_uniform[1]), q[1])
    p1 = np.concatenate([-ph[::-1], ph])
    p1_w = np.concatenate([ph_w[::-1], ph_w])
    p2 = 2.0 * np.pi * np.arange(n_phi2) / n_phi2
    A, dirs = _meshgrid_directions(a, p1, p2)
    W = (a_w[:, None, None] * np.cos(A) * np.sin(A) * p1_w[None, :, None]
         * (2.0 * np.pi / n_phi2))
    return dirs, W.reshape(-1)


def _reduced_settings(k, eps=0.1):
    # the pole-graded mesh of pipeline.project_direct_reduced at level k
    t_off = 2.0 ** (-k) * eps
    return dict(n_phi2=12, alpha_floor=max(5e-4, 0.2 * np.sqrt(t_off)),
                phi_floor=max(5e-6, 0.2 * t_off),
                deg_hint=2 * int(np.ceil(2 ** k / 2)))


def _whole(mesh):
    return mesh.rows(slice(0, mesh.size))


def _same_mesh(mesh, oracle):
    dirs, weights = _whole(mesh)
    return (np.array_equal(dirs, oracle[0])
            and np.array_equal(weights, oracle[1]))


# diagnose's evaluation mesh, and a small graded mesh of 3-node phi_2 orbits
_GRADED = [dict(n_phi2=12),
           dict(n_phi2=3, alpha_floor=0.06, phi_floor=0.15, deg_hint=8)]


class TestMeshes:
    @pytest.mark.parametrize("resolution", [
        *(projection_resolution(2 ** k) for k in range(1, 6)), 3000, 10000])
    def test_angular_equals_meshgrid(self, resolution):
        assert _same_mesh(sphere.angular_mesh(resolution),
                          _angular_oracle(resolution))

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 4, 5])
    def test_graded_equals_meshgrid(self, k):
        # k = None: diagnose's evaluation mesh; k: the reduced projector's
        settings = dict(n_phi2=12) if k is None else _reduced_settings(k)
        mesh = sphere.graded_angular_mesh(**settings)
        assert _same_mesh(mesh, _graded_oracle(**settings))
        if k is None:
            assert mesh.size == 221760

    @pytest.mark.parametrize("settings", _GRADED,
                             ids=["evaluation", "small"])
    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    def test_graded_blocks_equal_meshgrid(self, settings, block):
        # 1000 rows is no multiple of either phi_2 orbit, so blocks start
        # and stop inside orbits and, past the first, inside a-slabs
        mesh = sphere.graded_angular_mesh(**settings)
        dirs, weights = _graded_oracle(**settings)
        block = block or mesh.size
        for sl in dom.row_blocks(mesh.size, block):
            d, w = mesh.rows(sl)
            assert d.shape == (sl.stop - sl.start, 2)
            assert np.array_equal(d, dirs[sl])
            assert np.array_equal(w, weights[sl])


class TestSurfaceNodes:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("t", [0.0, 0.0125])
    def test_blocked_equals_whole_batch(self, name, t):
        d = dom.from_catalog(name)
        mesh = sphere.angular_mesh(projection_resolution(16))
        assert mesh.size > dom._ROW_BLOCK
        dirs, weights = _whole(mesh)
        r = dom.radial_level(d, dirs, t)
        nodes = r[:, None] * dirs
        g = np.asarray(d.grad(nodes))
        w_sigma = weights * sphere.radial_graph_jacobian(r, dirs, g)
        got = sphere.surface_nodes(d, mesh, t)
        for have, want in zip(got, (nodes, w_sigma, g)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("rows", [1000, None])
    def test_mesh_radii_equal_whole_array(self, name, rows, monkeypatch):
        # radial_level reading the mesh's row blocks against one call on
        # the whole direction array, at the default and an odd block size
        d = dom.from_catalog(name)
        mesh = sphere.graded_angular_mesh(**_GRADED[1])
        whole = dom.radial_level(d, _whole(mesh)[0], 0.0125)
        if rows:
            monkeypatch.setattr(dom, "_ROW_BLOCK", rows)
        assert np.array_equal(dom.radial_level(d, mesh, 0.0125), whole)

    def test_peak_memory(self, ball, traced_peak_mib):
        # diagnose's 221,760-node evaluation mesh: 49.1 MiB with the
        # whole mesh's Jacobian temporaries alive at once, 18.3 in row blocks
        mesh = sphere.graded_angular_mesh(n_phi2=12)
        peak = traced_peak_mib(lambda: sphere.surface_nodes(ball, mesh))
        assert peak <= 24.0
