import numpy as np
import pytest

from hsconvex import corpus, domain as dom, forms, sphere


@pytest.fixture(scope="module")
def entries(ball):
    return corpus.build_corpus(ball)


def fd_dbar_check(f, z, h=1e-6):
    """Cauchy-Riemann residual of eval by central differences."""
    out = []
    for j in range(2):
        ex = np.zeros(2, complex)
        ex[j] = h
        ey = np.zeros(2, complex)
        ey[j] = 1j * h
        db = ((f(z + ex) - f(z - ex)) / (2 * h)
              + 1j * (f(z + ey) - f(z - ey)) / (2 * h)) / 2
        out.append(abs(db))
    return max(out)


class TestEntries:
    def test_count_and_families(self, entries):
        assert len(entries) >= 8
        fams = {e.family for e in entries}
        assert {"polynomial", "entire", "power_singularity",
                "log_singularity", "product"} <= fams

    def test_cauchy_riemann(self, entries):
        z = np.array([0.4 + 0.1j, -0.3 + 0.2j])
        for e in entries:
            scale = max(1.0, abs(complex(e.f(z))))
            assert fd_dbar_check(e.f, z) <= 1e-6 * scale

    def test_derivatives_match_fd(self, entries):
        z = np.array([0.35 - 0.2j, 0.1 + 0.4j])
        h = 1e-5
        for e in entries:
            for alpha in ((1, 0), (0, 1), (2, 0)):
                j = 0 if alpha == (1, 0) or alpha == (2, 0) else 1
                lower = tuple(a - (1 if i == j else 0)
                              for i, a in enumerate(alpha))
                if min(lower) < 0:
                    continue
                ex = np.zeros(2, complex)
                ex[j] = h
                fd = (e.f.d(lower, z + ex) - e.f.d(lower, z - ex)) / (2 * h)
                exact = e.f.d(alpha, z)
                assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


class TestOracleLabels:
    def test_polynomials_always_finite(self, entries):
        for e in entries:
            if e.family in ("polynomial", "entire"):
                assert all(v == "finite" for v in e.oracle_label.values())

    def test_power_06_pattern(self, entries):
        e = next(x for x in entries if x.params.get("s") == 0.6
                 and x.family == "power_singularity")
        assert e.oracle_label[(1, 2.0)] == "finite"
        assert e.oracle_label[(2, 2.0)] == "infinite"
        assert e.oracle_label[(1, 4.0)] == "finite"
        assert e.oracle_label[(2, 4.0)] == "infinite"

    def test_log_pattern(self, entries):
        e = next(x for x in entries if x.family == "log_singularity")
        assert e.oracle_label[(0, 2.0)] == "finite"
        assert e.oracle_label[(2, 2.0)] == "infinite"
        # order one at p = 2 is exactly logarithmically divergent
        assert e.oracle_label[(1, 2.0)] == "unknown"

    def test_monotone_in_l(self, entries):
        for e in entries:
            for p in (2.0, 4.0):
                seen_inf = False
                for l in (0, 1, 2, 3):
                    lab = e.oracle_label[(l, p)]
                    if seen_inf:
                        assert lab == "infinite"
                    if lab == "infinite":
                        seen_inf = True

    def test_product_z2_damping(self, entries):
        # the z2 factor vanishes on the singular ray and damps the top
        # derivative: the bare power diverges at order 3 while the product
        # sits exactly on the logarithmic borderline
        base = next(x for x in entries if x.params.get("s") == 1.5
                    and x.family == "power_singularity")
        prod = next(x for x in entries if x.family == "product")
        assert base.oracle_label[(3, 2.0)] == "infinite"
        assert prod.oracle_label[(3, 2.0)] == "unknown"

    def test_smoothness_rank_order(self, entries):
        ranks = {e.f.label: e.smoothness_rank() for e in entries}
        assert ranks["(1-z1)^2.5"] > ranks["(1-z1)^1.5"] > \
            ranks["(1-z1)^0.6"] > ranks["log(1-z1)"]
        assert ranks["exp(z1+2z2)"] == np.inf


# Oracle labels per entry over (l, p) = (0,2) (0,4) (1,2) (1,4) (2,2) (2,4)
# (3,2) (3,4): f = finite, u = unknown, i = infinite; unlisted entries are
# finite everywhere.  The corpus places its singularities at z = e1, a
# boundary point only of the ball: it lies outside the ellipsoid (rho = 1)
# and the perturbed ball (rho = 0.1), and the curved-domain tables pin that.
# Placing each singularity on the domain's own boundary (ROADMAP item 7,
# criteria 7 and 8 beyond the ball) moves it on purpose and re-pins the
# ellipsoid and perturbed-ball tables.
PINNED_LABELS = {
    "ball": {"(1-z1)^0.6": "ffffiiii", "(1-z1)^1.5": "fffffuii",
             "(1-z1)^1.5 z2": "ffffffui", "(1-z1)^2.5": "fffffffu",
             "log(1-z1)": "ffuiiiii"},
    "ellipsoid": {},
    "perturbed_ball": {"(1-z1)^0.6": "fffffffu", "log(1-z1)": "fffffufu"},
}


@pytest.mark.parametrize("name", sorted(PINNED_LABELS))
def test_pinned_oracle_labels(name, request):
    entries = (request.getfixturevalue("entries") if name == "ball"
               else corpus.build_corpus(getattr(dom, name)()))
    got = {e.f.label: "".join(e.oracle_label[(l, p)][0]
                              for l in corpus.L_PROBE
                              for p in corpus.P_PROBE)
           for e in entries}
    want = {label: PINNED_LABELS[name].get(label, "ffffffff")
            for label in got}
    assert len(got) == 9
    assert got == want
    assert all(len(e.oracle_label) == 8 for e in entries)


def test_corpus_entries_are_unlabelled():
    entries = corpus.corpus_entries()
    assert [e.f.label for e in entries] == [
        "1", "z1", "z1^2 z2", "exp(z1+2z2)", "(1-z1)^0.6", "(1-z1)^1.5",
        "(1-z1)^2.5", "log(1-z1)", "(1-z1)^1.5 z2"]
    assert all(e.oracle_label == {} for e in entries)


def test_divergence_carries_to_higher_orders(ball):
    # a derivative table that diverges at order 1 only: orders 2 and 3 read
    # infinite without being integrated
    seen = []

    def deriv(alpha, z):
        seen.append(sum(alpha))
        if sum(alpha) == 1:
            return (1.0 - z[..., 0]) ** -1.5
        return np.ones(z.shape[:-1], dtype=complex)

    f = forms.HoloFunction(eval=lambda z: np.ones(z.shape[:-1], complex),
                           deriv=deriv, validity=0.0, label="table")
    labels = corpus.oracle_labels(ball, f)
    for p in corpus.P_PROBE:
        assert [labels[(l, p)] for l in corpus.L_PROBE] == \
            ["finite", "infinite", "infinite", "infinite"]
    assert max(seen) == 1


def test_each_level_solved_once_per_call(ball, monkeypatch):
    solves = []

    def counted(domain, dirs, t):
        solves.append(t)
        return dom.radial_level(domain, dirs, t)

    # the level quadrature's nodes come from sphere.surface_nodes
    monkeypatch.setattr(sphere, "radial_level", counted)
    labels = corpus.oracle_labels(ball, corpus.log_function())
    assert len(labels) == 8
    assert solves == [-ball.eps_shell * 4.0 ** -i for i in (3, 4, 5)]
