"""Exterior algebra over the covector basis dz_1..dz_n, dzbar_1..dzbar_n.

Forms are stored as dictionaries mapping strictly increasing index tuples to
coefficients; coefficients may be scalars or arrays (one value per grid node),
so a whole grid of forms is wedged and evaluated at once.  Index j < n means
dz_{j+1}; index j >= n means dzbar_{j-n+1}.

Real tangent vectors are written in complex notation: the vector
(a_1, b_1, ..., a_n, b_n) of R^{2n} is the complex n-vector (a_1 + i b_1, ...),
on which dz_j evaluates to the j-th component and dzbar_j to its conjugate.

The Leray-Levy measure is computed from its definition, the Leray form on
oriented frames: :func:`grid_leray_density` (boundary grids and the offset
projector) and :func:`volume_density` (the collar's dbar pairing) both run
through :func:`evaluate`.  Tests check the engine against a brute-force
alternating sum and the ball's closed form 1/(2 pi^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import row_blocks, unit_frame

__all__ = [
    "FormValue",
    "dz_form",
    "dzbar_form",
    "ddbar_form",
    "wedge",
    "evaluate",
    "leray_form",
    "grid_leray_density",
    "volume_density",
]


@dataclass
class FormValue:
    """Alternating form of fixed degree with (possibly batched) coefficients."""

    n: int
    degree: int
    terms: dict   # tuple of increasing indices -> coefficient (scalar or array)

    def map_coeffs(self, fn):
        return FormValue(self.n, self.degree,
                         {k: fn(v) for k, v in self.terms.items()})


def dz_form(coeffs):
    """1-form sum_j c_j dz_j from coefficients of shape (..., n)."""
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[-1]
    terms = {(j,): coeffs[..., j] for j in range(n)}
    return FormValue(n, 1, terms)


def dzbar_form(coeffs):
    """1-form sum_j c_j dzbar_j."""
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[-1]
    terms = {(n + j,): coeffs[..., j] for j in range(n)}
    return FormValue(n, 1, terms)


def ddbar_form(a):
    """The 2-form dbar(d rho) = sum_{j,k} A_jk dzbar_k ^ dz_j.

    ``a`` has shape (..., n, n) with A_jk = d2 rho / (dz_j dzbar_k).
    """
    a = np.asarray(a)
    n = a.shape[-1]
    form = FormValue(n, 2, {})
    for j in range(n):
        for k in range(n):
            # dzbar_k ^ dz_j: indices (n+k, j) -> sorted (j, n+k) with sign -1
            _accumulate(form, (j, n + k), -a[..., j, k])
    return form


def _accumulate(form, idx, coeff):
    key = tuple(idx)
    if key in form.terms:
        form.terms[key] = form.terms[key] + coeff
    else:
        form.terms[key] = coeff


def wedge(f1, f2):
    """Wedge product; coefficients multiply with the shuffle sign."""
    if f1.n != f2.n:
        raise ValueError("mixed dimensions")
    out = FormValue(f1.n, f1.degree + f2.degree, {})
    if out.degree > 2 * f1.n:
        return out
    for i1, c1 in f1.terms.items():
        for i2, c2 in f2.terms.items():
            if set(i1) & set(i2):
                continue
            merged = i1 + i2
            sign, sorted_idx = _sort_sign(merged)
            _accumulate(out, sorted_idx, sign * (c1 * c2))
    return out


def _sort_sign(idx):
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


def _covector_values(idx, vectors, n):
    """Matrix of covector values; vectors has shape (..., k, n)."""
    cols = []
    for i in idx:
        if i < n:
            cols.append(vectors[..., :, i])
        else:
            cols.append(np.conj(vectors[..., :, i - n]))
    return np.stack(cols, axis=-1)   # (..., k, k): row = vector, col = covector


def evaluate(form, vectors):
    """Evaluate on ``degree`` tangent vectors, batched over leading axes.

    ``vectors`` has shape (..., degree, n); coefficients broadcast against the
    batch.  Each basis term contributes coeff * det(covector values).
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.shape[-2] != form.degree:
        raise ValueError(f"form of degree {form.degree} applied to "
                         f"{vectors.shape[-2]} vectors")
    total = 0.0 + 0.0j
    for idx, coeff in form.terms.items():
        m = _covector_values(idx, vectors, form.n)
        total = total + coeff * np.linalg.det(m)
    return total


# ---------------------------------------------------------------------------
# the Leray form and its densities
# ---------------------------------------------------------------------------

def leray_form(g, a):
    """(2 pi i)^(-n) d(rho) ^ (dbar d rho)^(n-1) from grad and mixed Hessian.

    ``g``: (..., n) holomorphic gradient; ``a``: (..., n, n) mixed Hessian.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    form = dz_form(g)
    dd = ddbar_form(a)
    for _ in range(n - 1):
        form = wedge(form, dd)
    scale = (2.0 * np.pi * 1j) ** (-n)
    return form.map_coeffs(lambda c: scale * c)


def grid_leray_density(domain, nodes, g):
    """Per-node Leray density on a level-set grid; a non-positive one raises.

    :func:`evaluate` applies the Leray form to the tangent frame
    (i nu, u, i u) over row blocks (:func:`hsconvex.domain.row_blocks`),
    so the form coefficients and frame determinants of only one block are
    alive at once (about 2.5 MiB at 4096 rows); each node's value does not
    depend on its block.  The Leray and surface measures are
    equivalent, so a density <= 0 means the frame's orientation is broken.
    """
    nodes, g = np.asarray(nodes), np.asarray(g)
    out = np.empty(g.shape[0])
    for sl in row_blocks(g.shape[0]):
        _, nu, u = unit_frame(g[sl])
        form = leray_form(g[sl], np.asarray(domain.hess_mixed(nodes[sl])))
        out[sl] = np.real(evaluate(form, np.stack([1j * nu, u, 1j * u],
                                                  axis=1)))
    if np.any(out <= 0):
        raise ValueError("non-positive Leray density; orientation broken")
    return out


def volume_density(dbar_coeffs, g, a):
    """Density of (sum_j c_j dzbar_j) ^ leray_form against Lebesgue measure.

    Evaluates the 2n-form on the standard real basis (e_x1, e_y1, ..., e_xn,
    e_yn), whose Lebesgue volume is 1.  All arguments are batched: dbar
    coefficients (..., n), gradient (..., n), mixed Hessian (..., n, n).
    """
    g = np.asarray(g)
    n = g.shape[-1]
    form = wedge(dzbar_form(dbar_coeffs), leray_form(g, a))
    basis = np.zeros((2 * n, n), dtype=complex)
    for j in range(n):
        basis[2 * j, j] = 1.0
        basis[2 * j + 1, j] = 1j
    # the top-degree determinant per basis term is a constant; evaluate() is
    # cheap since there is a single term shape (0,1,...,2n-1)
    return evaluate(form, basis)
