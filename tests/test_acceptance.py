"""Acceptance gate: each test is one numbered criterion at its tolerance.

Every test prints one PASS/FAIL line (pytest -s shows them; the assertion
carries the same numbers).  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from hsconvex import cli, continuation as cn, corpus, domain as dom, \
    dzyadyk, forms, homtype, koranyi, pipeline as pl
from hsconvex.sphere import graded_angular_mesh


def report(num, passed, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def ball():
    return dom.ball()


@pytest.fixture(scope="module")
def grid10k(ball):
    return homtype.build_boundary_grid(ball, 0.0, 10000)


@pytest.fixture(scope="module")
def labeled_corpus(ball):
    return corpus.build_corpus(ball)


def _clf_shape(domain, grid):
    """Criterion 1's reproductions: (passed, detail).

    The points sit at 0.6 r(u) u U(0.2, 1) for random unit directions u, with
    r(u) the boundary radius along u, so they keep their depth off the ball;
    an evaluation that ``clf_reproduce`` flags as degraded fails the shape.
    """
    polys = [corpus.monomial((0, 0)), corpus.monomial((1, 0)),
             corpus.monomial((0, 2)), corpus.monomial((2, 1)),
             corpus.monomial((1, 3))]
    rng = np.random.default_rng(7)
    u = dom.random_unit_directions(rng, 20, 2)
    zs = 0.6 * dom.radial_level(domain, u, 0.0)[:, None] * u * \
        rng.uniform(0.2, 1.0, (20, 1))
    t0 = time.time()
    worst, degraded = 0.0, 0
    for f in polys:
        for z in zs:
            val = forms.clf_reproduce(grid, f, z)
            truth = complex(f(z))
            worst = max(worst, abs(val.value - truth) / (1.0 + abs(truth)))
            degraded += val.degraded
    elapsed = time.time() - t0
    return (worst <= 1e-5 and elapsed <= 60.0 and not degraded,
            f"reproduction err {worst:.2e} (tol 1e-5) over 5 polys x 20 pts "
            f"at {grid.size} nodes in {elapsed:.1f}s (limit 60s)"
            + (f"; {degraded} evaluations degraded" if degraded else ""))


def test_criterion_1_clf_exactness(ball, grid10k):
    report(1, *_clf_shape(ball, grid10k))


def test_criterion_2_ball_kernel_closed_form(ball):
    rng = np.random.default_rng(11)
    xi = dom.random_unit_directions(rng, 1000, 2)
    z = 0.95 * dom.random_unit_directions(rng, 1000, 2) * \
        rng.uniform(0, 1, (1000, 1))
    k1 = forms.clf_kernel(ball, xi, z)
    k2 = (1.0 - np.sum(z * np.conj(xi), axis=-1)) ** (-2.0)
    err = float(np.abs(k1 - k2).max() / np.abs(k2).max())
    report(2, err <= 1e-12,
           f"closed-form identity rel err {err:.2e} over 1000 pairs")


def test_criterion_3_homogeneous_type(ball, ellipsoid):
    results = {}
    for name, domain in (("ball", ball), ("ellipsoid", ellipsoid)):
        grid = homtype.build_boundary_grid(domain, 0.0, 12000,
                                           kind="random", seed=1)
        rep = homtype.check_homogeneous(grid, seed=3)
        results[name] = rep
    ok = all(abs(r["fitted_dimension"] - 2.0) <= 0.15
             and r["quasi_triangle_constant"] <= 50.0
             for r in results.values())
    report(3, ok,
           "fitted dimension "
           + ", ".join(f"{k}={v['fitted_dimension']:.3f}"
                       for k, v in results.items())
           + " (target 2 +- 0.15); quasi-triangle "
           + ", ".join(f"{v['quasi_triangle_constant']:.2f}"
                       for v in results.values()) + " (limit 50)")


def _quasimetric_shape(domain):
    """Criterion 4's shell and region comparisons: (passed, detail).

    Off the ball, pr(w) in the shell comparison is the Newton projection.
    """
    envs = {"shell_comparison": [], "region_comparison": []}
    in_range = True
    for res, seed in ((9000, 2), (16000, 5)):
        grid = homtype.build_boundary_grid(domain, 0.0, res, kind="random",
                                           seed=seed)
        rng = np.random.default_rng(seed)
        w = dom.random_shell_points(domain, rng, 10000, (1e-4, 0.1))
        idx = rng.choice(grid.size, 10000)
        rep = homtype.qm_exterior_check(domain, w, grid.nodes[idx])
        tau, cent, w2 = koranyi.region_comparison_samples(
            domain, n_centers=60, eta=0.25, eps=0.1, grid=grid, seed=seed,
            per_region=170)
        rep.update(homtype.qm_exterior_check(domain, tau=tau,
                                             tau_center=cent, w2=w2))
        for key in envs:
            env = rep[key]
            envs[key].append(max(env["hi"], 1.0 / env["lo"]))
        in_range &= all(rep[k]["min"] >= 1 / 50 and rep[k]["max"] <= 50
                        for k in envs)
    stable = all(abs(v[1] - v[0]) / v[0] <= 0.30 for v in envs.values())
    return (in_range and stable,
            "envelopes "
            + ", ".join(f"{k.split('_')[0]}: {v[0]:.2f}->{v[1]:.2f}"
                        for k, v in envs.items())
            + " within [1/50, 50], drift <= 30%")


def test_criterion_4_quasimetric_lemmas(ball):
    report(4, *_quasimetric_shape(ball))


def _kernel_shape(domain):
    """Criterion 5's certificates and exact-kernel oracle: (passed, detail)."""
    ks = (8, 16, 32, 64)
    c_far, c_near = [], []
    for k in ks:
        kg = dzyadyk.build_Kglob(domain, k, r=0.5)
        rep = dzyadyk.validate_Kglob(domain, kg, n_xi=400, n_z=40, seed=11)
        c_far.append(rep["C_far"])
        c_near.append(rep["C_near"])
    slope_far = float(np.polyfit(np.log(ks), np.log(c_far), 1)[0])
    slope_near = float(np.polyfit(np.log(ks), np.log(c_near), 1)[0])
    kg = dzyadyk.build_Kglob(domain, 16, r=0.5)
    oracle = dzyadyk.validate_Kglob(
        domain, kg, seed=11,
        exact=lambda xi, z: forms.clf_kernel(domain, xi, z))
    ok = (all(np.isfinite(c_far)) and all(np.isfinite(c_near))
          and slope_far <= 0.1 and slope_near <= 0.1
          and oracle["C_far"] == 0.0)
    return (ok,
            f"C_far={['%.3f' % c for c in c_far]} slope {slope_far:+.3f}, "
            f"C_near slope {slope_near:+.3f} (limits 0.1); "
            f"exact-kernel oracle C_far={oracle['C_far']}")


def test_criterion_5_kernel_certificates(ball):
    report(5, *_kernel_shape(ball))


def _pac_shape(domain):
    """Criterion 6's reconstructions and doubling ratio: (passed, detail).

    Off the ball, every collar node is projected by the Newton iteration.
    """
    t0 = time.time()
    rng = np.random.default_rng(3)
    zs = 0.55 * dom.random_unit_directions(rng, 12, 2) * \
        rng.uniform(0.1, 1.0, (12, 1))
    shell_fine = forms.build_shell_grid(domain, 0.1, 6000, n_bands=8,
                                        nodes_per_band=3)
    assert shell_fine.size >= 1e5
    worst = 0.0
    for f in (corpus.monomial((0, 0)), corpus.monomial((1, 0)),
              corpus.monomial((2, 1))):
        cont = cn.extend_by_symmetry(domain, f, m=3, eps=0.1)
        rep = cn.verify_pac(cont, shell_fine, zs, f)
        worst = max(worst, rep["max_rel_err"])
    # resolution-doubling ratio on the inexact-jet entry
    f = corpus.monomial((2, 1))
    cont = cn.extend_by_symmetry(domain, f, m=3, eps=0.1)
    shell_coarse = forms.build_shell_grid(domain, 0.1, 3000, n_bands=8,
                                          nodes_per_band=2)
    e_coarse = cn.verify_pac(cont, shell_coarse, zs, f)["max_rel_err"]
    e_fine = cn.verify_pac(cont, shell_fine, zs, f)["max_rel_err"]
    ratio = e_coarse / max(e_fine, 1e-300)
    elapsed = time.time() - t0
    return (worst <= 1e-2 and ratio >= 1.4 and elapsed <= 300.0,
            f"corpus-poly rel err {worst:.2e} (tol 1e-2) at "
            f"{shell_fine.size} shell nodes; doubling ratio {ratio:.1f} "
            f"(>=1.4); {elapsed:.0f}s (limit 300)")


def test_criterion_6_pac_reconstruction(ball):
    report(6, *_pac_shape(ball))


def test_criterion_7_sobolev_consistency(ball, labeled_corpus):
    mesh = graded_angular_mesh(n_phi2=6, alpha_floor=5e-4, phi_floor=1e-6,
                               q=(4, 3), deg_hint=8)
    src = homtype.build_boundary_grid(ball, 0.0, mesh=mesh)
    stages = [(6, (10, 2, 6, 6, 6)), (8, (12, 2, 6, 6, 6)),
              (10, (14, 2, 6, 6, 6))]
    decided = matched = 0
    rows = []
    for entry in labeled_corpus:
        for l in (1, 2):
            label = entry.oracle_label[(l, 2.0)]
            if label == "unknown":
                continue
            cont = cn.extend_by_symmetry(ball, entry.f, m=l + 1, eps=0.1)
            vals = []
            for ann, res in stages:
                centers = homtype.stratified_centers(
                    src, n_bulk=10, n_per_annulus=2, n_annuli=ann, seed=7)
                vals.append(cn.sobolev_functional(
                    cont, l, 2.0, eta=0.25, eps=0.025, centers=centers,
                    resolution=res))
            verdict = cn.sobolev_verdict(vals)
            decided += 1
            hit = verdict == label
            matched += hit
            rows.append(f"{entry.f.label}@l={l}:{label[0]}/{verdict[0]}")
    rate = matched / decided
    report(7, rate >= 0.9,
           f"functional vs oracle matched {matched}/{decided} "
           f"({100 * rate:.0f}%, need >= 90%) [" + " ".join(rows) + "]")


def _kendall_tau(pairs):
    conc = disc = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (r1, s1), (r2, s2) = pairs[i], pairs[j]
            if r1 == r2:
                continue
            prod = (r1 - r2) * (s1 - s2)
            if prod > 0:
                conc += 1
            elif prod < 0:
                disc += 1
    total = conc + disc
    return 1.0 if total == 0 else (conc - disc) / total


def test_criterion_8_smoothness_diagnosis(ball, labeled_corpus):
    probe = (1, 2, 3)
    reports = {}
    for entry in labeled_corpus:
        reports[entry.f.label] = pl.diagnose(
            ball, entry.f, p=2.0, k_range=range(1, 6), l_probe=probe)
    # entire/polynomial entries converge at all probed l
    smooth_ok = all(
        all(v == "converging" for v in reports[e.f.label].verdicts.values())
        for e in labeled_corpus if e.family in ("polynomial", "entire"))
    # threshold match within +-1 for entries with a fully decided oracle
    thr_rows = []
    thr_ok = True
    for e in labeled_corpus:
        labels = {l: e.oracle_label[(l, 2.0)] for l in probe}
        if any(v == "unknown" for v in labels.values()):
            continue
        oracle_thr = next((l for l in probe if labels[l] == "infinite"),
                          max(probe) + 1)
        verd = reports[e.f.label].verdicts
        diag_thr = next((l for l in probe if verd[l] != "converging"),
                        max(probe) + 1)
        thr_rows.append(f"{e.f.label}:{oracle_thr}/{diag_thr}")
        if abs(oracle_thr - diag_thr) > 1:
            thr_ok = False
    # ranking: smoothness rank against fitted decay slope (steeper slope =
    # smoother); oracle-tied pairs are excluded
    pairs = [(e.smoothness_rank(),
              -reports[e.f.label].slope if np.isfinite(
                  reports[e.f.label].slope) else np.inf)
             for e in labeled_corpus]
    pairs = [(r if np.isfinite(r) else 1e9,
              s if np.isfinite(s) else 1e9) for r, s in pairs]
    tau = _kendall_tau(pairs)
    ok = smooth_ok and thr_ok and tau == 1.0
    report(8, ok,
           f"thresholds oracle/diagnosis {' '.join(thr_rows)} (within 1); "
           f"smooth entries all-converging: {smooth_ok}; kendall tau "
           f"{tau:.2f} (need 1.0)")


def _bk_lemma_shape(wide):
    """Criterion 9 on a domain whose shell reaches eps = 1: (passed, detail)."""
    grid = homtype.build_boundary_grid(wide, 0.0, 4000, kind="random",
                                       seed=3)
    rng = np.random.default_rng(0)
    cidx = rng.choice(grid.size, 48, replace=False)
    # two-term experiment
    p2, p4 = pl.PolynomialCn({}), pl.PolynomialCn({(0, 0): 1.0})
    cont = cn.extend_by_global(wide, [p2, p4], eps=1.0)
    a, b = pl.ab_fields(grid, [p2, p4], cont, 1, cidx, eta=0.25, eps=1.0,
                        resolution=(10, 2, 6, 6, 6))
    two = pl.check_bk_lemma(grid, a, b, cidx)
    two_ok = 0.05 <= two["per_k"][1]["p99"] <= 10.0

    # corpus-driven experiment: boundary-singular dyadic sections
    def bc(s, m):
        out = 1.0
        for i in range(m):
            out *= (s - i) / (i + 1)
        return out
    root2 = np.sqrt(2.0)
    p_seq = pl.taylor_sections(
        lambda al: 0.0 if al[1] else bc(0.6, al[0]) * (-1 / root2) ** al[0],
        [2, 4, 8, 16, 32, 64])
    cont2 = cn.extend_by_global(wide, p_seq, eps=1.0)
    a2, b2 = pl.ab_fields(grid, p_seq, cont2, 1, cidx, eta=0.25, eps=1.0,
                          resolution=(10, 2, 6, 6, 6))
    rep2 = pl.check_bk_lemma(grid, a2, b2, cidx, exclude_k=(1,))
    spread = rep2["spread"]
    return (two_ok and spread <= 3.0,
            f"two-term p99 {two['per_k'][1]['p99']:.2f}; corpus-driven "
            f"p99 per k "
            + str({k: round(v['p99'], 2) for k, v in rep2['per_k'].items()
                   if not v['floored'] and k != 1})
            + f" spread {spread:.2f} (limit 3; cutoff band excluded)")


def test_criterion_9_bk_lemma(ball):
    report(9, *_bk_lemma_shape(dom.ball(eps_shell=1.0)))


def _area_shape(domain, pole, a):
    """Criterion 10 with indicators and centres around ``pole`` and the
    internal family (1 - <z, a>)^-s: (passed, detail)."""
    grid = homtype.build_boundary_grid(domain, 0.0, 8000)
    src = homtype.build_boundary_grid(domain, 0.0, 12000, kind="random",
                                      seed=2)
    # the small-radius indicators concentrate their area-functional mass
    # near the spike, so the outer integral uses pole-stratified centers
    centers = homtype.stratified_centers(src, pole, n_bulk=10,
                                         n_per_annulus=2, n_annuli=8, seed=7)
    fam = []
    for delta in (0.4, 0.2, 0.1, 0.05):   # coarse-to-fine
        mask, _ = homtype.quasiball(grid, pole, delta)
        fam.append(mask.astype(float))
    fam.append(np.abs(np.sin(3 * np.angle(grid.nodes[:, 0] + 0.2))
                      * grid.nodes[:, 1].real ** 2) + 0.2)
    out = koranyi.check_area_inequality(domain, fam, 1, 2.0, grid, centers,
                                        eta=0.25, eps=0.1,
                                        resolution=(8, 1, 4, 4, 4))
    ext_ok = out["spread"] <= 50 and not out["monotone_blowup"]
    rnd_centers = homtype.build_boundary_grid(domain, 0.0, 12, kind="random",
                                              seed=3)
    ratios = []
    for s in (0.1, 0.2, 0.3):
        f = corpus.power_function(-s, a)
        rep = koranyi.area_internal(domain, f, 2.0, eta=0.25, eps=0.1,
                                    centers=rnd_centers,
                                    resolution=(8, 1, 4, 4, 4))
        ratios.append(rep["ratio"])
    int_ok = max(ratios) / min(ratios) <= 20.0
    return (ext_ok and int_ok,
            f"external spread {out['spread']:.1f} (limit 50), no blow-up: "
            f"{not out['monotone_blowup']}; internal family max/min "
            f"{max(ratios) / min(ratios):.2f} (limit 20)")


def test_criterion_10_area_inequality(ball):
    report(10, *_area_shape(ball, np.array([1.0, 0.0], complex), (1.0, 0.0)))


CURVED = {"ellipsoid": dom.ellipsoid, "perturbed_ball": dom.perturbed_ball}


def _boundary_pole(domain):
    """xi0 = r(e1) e1 on the boundary and a = d rho(xi0) / <xi0, d rho(xi0)>.

    With this a the singular set <z, a> = 1 touches the closure of the
    domain at xi0 only, so (1 - <z, a>)^-s blows up at the pole; with a = e1
    the ellipsoid's singular set would sit outside and probe nothing.
    """
    e1 = np.array([1.0, 0.0], complex)
    xi0 = dom.radial_level(domain, e1[None, :], 0.0)[0] * e1
    g = domain.grad(xi0)
    return xi0, g / dom.pairing(xi0, g)


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_1_clf_exactness_curved(name):
    domain = CURVED[name]()
    grid = homtype.build_boundary_grid(domain, 0.0, 10000)
    report(f"1 [{name}]", *_clf_shape(domain, grid))


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_4_quasimetric_lemmas_curved(name):
    report(f"4 [{name}]", *_quasimetric_shape(CURVED[name]()))


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_5_kernel_certificates_curved(name):
    report(f"5 [{name}]", *_kernel_shape(CURVED[name]()))


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_6_pac_reconstruction_curved(name):
    report(f"6 [{name}]", *_pac_shape(CURVED[name]()))


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_9_bk_lemma_curved(name):
    report(f"9 [{name}]", *_bk_lemma_shape(CURVED[name](eps_shell=1.0)))


@pytest.mark.parametrize("name", sorted(CURVED))
def test_criterion_10_area_inequality_curved(name):
    domain = CURVED[name]()
    report(f"10 [{name}]", *_area_shape(domain, *_boundary_pole(domain)))


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nname = ball\neps = 0.1\n\n[resolution]\n"
                   "boundary_nodes = 4000\n\n[params]\nseed = 3\n"
                   "l_probe = 1 2\nk_range = 1 2 3 4\n\n[output]\ndir = "
                   + str(tmp_path / "out") + "\n")
    blobs = []
    for tag in ("a", "b"):
        assert cli.main(["diagnose", str(cfg), "(1-z1)^0.6",
                         "--out", str(tmp_path / tag)]) == 0
        blobs.append(((tmp_path / tag / "report.json").read_bytes(),
                      (tmp_path / tag / "ek_table.csv").read_bytes()))
    same = blobs[0] == blobs[1]
    vals = []
    for tag in ("v1", "v2"):
        assert cli.main(["validate", str(cfg),
                         "--out", str(tmp_path / tag)]) == 0
        vals.append((tmp_path / tag / "report.json").read_bytes())
    same_val = vals[0] == vals[1]
    report(11, same and same_val,
           "diagnose and validate reports byte-identical across reruns")
