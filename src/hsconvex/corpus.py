"""Labeled test functions with closed-form derivatives and norm oracles.

Families: polynomials, entire exponentials, boundary power singularities
(1 - <z, a>)^s, the logarithm log(1 - <z, a>), and a product of a power
singularity with a polynomial factor.  Powers and logs use the principal
branch; with the singular direction a on the boundary those functions are
holomorphic inside (the pairing stays in the right half plane 1 - <z, a>).

Oracle labels classify Hardy-Sobolev membership per (l, p) by the trend of
the top-derivative level norms on a geometric inner ladder, computed by a
graded two-angle quadrature that resolves the boundary singularity scale by
scale.  Borderline (logarithmically divergent) cases read "unknown" and are
excluded from acceptance counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forms import HoloFunction, multi_indices
from .sphere import hopf_mesh, surface_nodes

__all__ = [
    "CorpusEntry",
    "build_corpus",
    "corpus_entries",
    "oracle_labels",
    "power_function",
    "log_function",
    "exp_function",
    "monomial",
    "falling",
]


@dataclass
class CorpusEntry:
    f: HoloFunction
    family: str
    params: dict
    oracle_label: dict = field(default_factory=dict)   # (l, p) -> label

    def smoothness_rank(self):
        """Coarse smoothness ordering key (larger = smoother)."""
        if self.family in ("polynomial", "entire"):
            return np.inf
        if self.family == "log_singularity":
            return 0.0
        return float(self.params.get("s", 0.0))


def falling(s, m):
    out = 1.0
    for i in range(m):
        out *= (s - i)
    return out


def monomial(alpha, label=None):
    alpha = tuple(int(a) for a in alpha)

    def ev(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape[:-1], dtype=complex)
        for j, a in enumerate(alpha):
            out = out * z[..., j] ** a
        return out

    def deriv(beta, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape[:-1], dtype=complex)
        for j, (a, b) in enumerate(zip(alpha, beta)):
            if b > a:
                return np.zeros(z.shape[:-1], dtype=complex)
            out = out * falling(a, b) * z[..., j] ** (a - b)
        return out

    return HoloFunction(eval=ev, deriv=deriv, validity=np.inf,
                        label=label or "z^" + str(alpha))


def exp_function(a, label=None):
    a = np.asarray(a, dtype=complex)

    def ev(z):
        return np.exp(np.asarray(z, dtype=complex) @ a)

    def deriv(beta, z):
        fac = np.prod(a ** np.asarray(beta))
        return fac * ev(z)

    return HoloFunction(eval=ev, deriv=deriv, validity=np.inf,
                        label=label or "exp")


def power_function(s, a=(1.0, 0.0), label=None):
    """(1 - <z, a>)^s with the principal branch, singular where <z, a> = 1."""
    a = np.asarray(a, dtype=complex)
    s = float(s)

    def u(z):
        return 1.0 - np.asarray(z, dtype=complex) @ a

    def ev(z):
        return u(z) ** s

    def deriv(beta, z):
        m = sum(beta)
        fac = falling(s, m) * np.prod((-a) ** np.asarray(beta))
        return fac * u(z) ** (s - m)

    return HoloFunction(eval=ev, deriv=deriv, validity=0.0,
                        label=label or f"(1-z.a)^{s}")


def log_function(a=(1.0, 0.0), label=None):
    a = np.asarray(a, dtype=complex)

    def u(z):
        return 1.0 - np.asarray(z, dtype=complex) @ a

    def ev(z):
        return np.log(u(z))

    def deriv(beta, z):
        m = sum(beta)
        if m == 0:
            return ev(z)
        fac = np.prod((-a) ** np.asarray(beta)) * (-1.0) ** (m - 1) * \
            math.factorial(m - 1)
        return fac * u(z) ** (-m)

    return HoloFunction(eval=ev, deriv=deriv, validity=0.0,
                        label=label or "log(1-z.a)")


def product_power(s, a=(1.0, 0.0), label=None):
    """(1 - <z, a>)^s * z_2 via the Leibniz rule on the second factor."""
    base = power_function(s, a)

    def ev(z):
        z = np.asarray(z, dtype=complex)
        return base.eval(z) * z[..., 1]

    def deriv(beta, z):
        z = np.asarray(z, dtype=complex)
        b2 = beta[1]
        out = base.deriv(beta, z) * z[..., 1]
        if b2 >= 1:
            out = out + b2 * base.deriv((beta[0], b2 - 1), z)
        return out

    return HoloFunction(eval=ev, deriv=deriv, validity=0.0,
                        label=label or f"(1-z.a)^{s} z2")


# ---------------------------------------------------------------------------
# the norm-trend oracle
# ---------------------------------------------------------------------------

# the (l, p) pairs every corpus entry is labelled at
L_PROBE = (0, 1, 2, 3)
P_PROBE = (2.0, 4.0)


def _level_quadrature(domain, t):
    """Points (alpha, phi, 2) and Jacobian of the two-angle mesh on rho = t.

    The corpus integrands factor as h(z_1) |z_2|^(m2 p) with all angular
    dependence in one phase, so the level integral reduces to two angles.
    The (alpha, phi) mesh, 64 uniform plus 64 geometric points per angle, is
    graded toward the singular point (alpha, phi) = (0, 0), resolving the
    peak scale by scale down to the angles 1e-6 and 1e-7.  Every corpus
    derivative factors as h(z_1) z_2^kappa, so its modulus only sees |z_2|;
    the points carry the real value |z_2|, which keeps the measure factor of
    the second coordinate (it damps the singular ray, which shifts
    borderline classifications).
    """
    a_reg = np.linspace(0.12, 0.5 * np.pi, 64)
    a_sing = np.geomspace(1e-6, 0.12, 64)
    alph = np.unique(np.concatenate([a_sing, a_reg]))
    p_reg = np.linspace(0.35, np.pi, 64)
    p_sing = np.geomspace(1e-7, 0.35, 64)
    phi = np.unique(np.concatenate([p_sing, p_reg]))
    phi = np.concatenate([-phi[::-1], phi])

    # the phi_2 = 0 slice of the Hopf grid, weighted by the S^3 density
    mesh = hopf_mesh(alph, phi, np.zeros(1),
                     np.repeat((np.cos(alph) * np.sin(alph))[:, None],
                               phi.size, axis=1))
    pts, jac, _ = surface_nodes(domain, mesh, t)
    shape = (alph.size, phi.size)
    z = np.stack([pts[:, 0], np.abs(pts[:, 1]).astype(complex)], axis=-1)
    return alph, phi, z.reshape(shape + (2,)), jac.reshape(shape)


def oracle_labels(domain, f):
    """finite / infinite / unknown for every probed (l, p) by level trends.

    For each |alpha| = l the derivative norm is integrated on the deepest
    levels t = -eps 4^-i, i = 3, 4, 5, of the geometric inner ladder;
    power-type divergences show ratios bounded away from 1 (both ratios
    >= 1.4), stable norms converge to 1 quickly (both <= 1.05), and
    logarithmic borderline growth lands in between and is reported
    unknown.  The worst alpha sets the label.  Divergence at order l forces
    divergence at every higher order, which is written without integrating.
    Each level is built once, and each |d^alpha f| is evaluated once per
    level for both exponents.
    """
    eps = domain.eps_shell
    levels = [_level_quadrature(domain, -eps * 4.0 ** (-i))
              for i in (3, 4, 5)]
    labels = {}
    for l in L_PROBE:
        worst = {p: "infinite" if labels.get((l - 1, p)) == "infinite"
                 else "finite" for p in P_PROBE}
        for alpha in multi_indices(domain.n, l):
            open_p = [p for p in P_PROBE if worst[p] != "infinite"]
            if sum(alpha) != l or not open_p:
                continue
            mods = [np.abs(f.d(alpha, z)) for _, _, z, _ in levels]
            for p in open_p:
                vals = [2.0 * np.pi * float(np.trapezoid(
                    np.trapezoid(m ** p * jac, alph, axis=0), phi))
                    for (alph, phi, _, jac), m in zip(levels, mods)]
                r1 = vals[2] / max(vals[1], 1e-300)
                r2 = vals[1] / max(vals[0], 1e-300)
                if min(r1, r2) >= 1.4:
                    worst[p] = "infinite"
                elif max(r1, r2) > 1.05:
                    worst[p] = "unknown"
        labels.update(((l, p), worst[p]) for p in P_PROBE)
    return labels


def corpus_entries():
    """The nine corpus entries, without labels."""
    return [
        CorpusEntry(monomial((0, 0), label="1"), "polynomial", {"deg": 0}),
        CorpusEntry(monomial((1, 0), label="z1"), "polynomial", {"deg": 1}),
        CorpusEntry(monomial((2, 1), label="z1^2 z2"), "polynomial",
                    {"deg": 3}),
        CorpusEntry(exp_function((1.0, 2.0), label="exp(z1+2z2)"), "entire",
                    {"a": [1.0, 2.0]}),
        CorpusEntry(power_function(0.6, label="(1-z1)^0.6"),
                    "power_singularity", {"s": 0.6}),
        CorpusEntry(power_function(1.5, label="(1-z1)^1.5"),
                    "power_singularity", {"s": 1.5}),
        CorpusEntry(power_function(2.5, label="(1-z1)^2.5"),
                    "power_singularity", {"s": 2.5}),
        CorpusEntry(log_function(label="log(1-z1)"), "log_singularity",
                    {"s": 0.0}),
        CorpusEntry(product_power(1.5, label="(1-z1)^1.5 z2"), "product",
                    {"s": 1.5}),
    ]


def build_corpus(domain):
    """The corpus with oracle labels; smooth families are finite everywhere."""
    entries = corpus_entries()
    for e in entries:
        if e.family in ("polynomial", "entire"):
            e.oracle_label = {(l, p): "finite"
                              for l in L_PROBE for p in P_PROBE}
        else:
            e.oracle_label = oracle_labels(domain, e.f)
    return entries
