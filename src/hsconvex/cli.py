"""Batch front-end: config-driven checks and diagnoses with file reports.

Config files are INI-style (key = value under sections); every command
writes a JSON report (deterministic: sorted keys, no timestamps) plus
CSV tables where applicable, and appends one JSON line per step to an
event log.  Exit codes: 0 ok, 1 check failure, 2 usage error, 3 numerical
failure.  The thread count honored by the BLAS backing numpy can be pinned
with HSCONVEX_THREADS (set before numpy is first imported).
"""

# the env var must reach the BLAS before numpy loads anywhere in-process
import os as _os

if _os.environ.get("HSCONVEX_THREADS"):
    for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_v, _os.environ["HSCONVEX_THREADS"])

import argparse
import configparser
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import domain as domain_mod
from . import dzyadyk, forms, homtype, io as io_mod, koranyi, pipeline
from .continuation import extend_by_symmetry, verify_pac

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated run parameters; see docs for the file format."""

    def __init__(self, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        try:
            dom = parser["domain"]
            self.domain_name = dom.get("name", "ball").strip()
            self.domain_params = tuple(
                float(x) for x in dom.get("params", "").split()) \
                if dom.get("params", "").strip() else ()
            self.eps = dom.getfloat("eps", 0.1)
            res = parser["resolution"] if parser.has_section("resolution") \
                else {}
            self.boundary_nodes = int(res.get("boundary_nodes", 10000))
            self.shell_bands = int(res.get("shell_bands", 8))
            self.shell_nodes_per_band = int(res.get("nodes_per_band", 2))
            self.shell_angular = int(res.get("shell_angular", 4000))
            par = parser["params"] if parser.has_section("params") else {}
            self.eta = float(par.get("eta", koranyi.DEFAULT_ETA))
            self.p = float(par.get("p", 2.0))
            self.l_probe = tuple(int(x) for x in
                                 str(par.get("l_probe", "1 2 3")).split())
            self.k_range = tuple(int(x) for x in
                                 str(par.get("k_range", "1 2 3 4 5")).split())
            self.r = float(par.get("r", 2.0 * max(self.l_probe)))
            self.seed = int(par.get("seed", 0))
            out = parser["output"] if parser.has_section("output") else {}
            self.output_dir = Path(out.get("dir", "hsconvex_out"))
            self.cache_dir = out.get("cache_dir", "")
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if not self.k_range:
            raise ConfigError("k_range must be nonempty")
        if any(v <= 0 for v in (self.boundary_nodes, self.shell_bands,
                                self.shell_nodes_per_band, self.eta,
                                self.p)):
            raise ConfigError("numeric resolution/params must be positive")

    def make_domain(self, validate=True):
        return domain_mod.from_catalog(self.domain_name, self.domain_params,
                                       eps_shell=self.eps, validate=validate)


class Reporter:
    """Deterministic JSON/CSV writers plus a JSON-lines event log."""

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self._events = []

    def event(self, **kv):
        self._events.append({"step": len(self._events), **kv})
        with open(self.out / "events.jsonl", "w") as fh:
            for e in self._events:
                fh.write(json.dumps(e, sort_keys=True) + "\n")

    def write_json(self, name, payload):
        with open(self.out / name, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, name, header, rows):
        with open(self.out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in np.asarray(x).tolist()] \
            if isinstance(x, np.ndarray) else [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, rep):
    """Domain/grid/quasimetric invariant suite; exit 1 on any failure."""
    checks = []

    def record(name, passed, **extra):
        checks.append({"check": name, "passed": bool(passed),
                       **_jsonable(extra)})
        rep.event(check=name, passed=bool(passed))

    try:
        report = None
        dom = cfg.make_domain(validate=False)
        try:
            report = domain_mod.validate_domain(dom, seed=cfg.seed)
            record("domain_convexity", True, **report)
        except domain_mod.DomainValidationError as exc:
            record("domain_convexity", False, witness=str(exc))
            dom = None
        if dom is not None:
            if cfg.cache_dir:
                grid = io_mod.cached_boundary_grid(dom, 0.0,
                                                   cfg.boundary_nodes,
                                                   cfg.cache_dir)
            else:
                grid = homtype.build_boundary_grid(dom, 0.0,
                                                   cfg.boundary_nodes)
            record("grid_weights_positive",
                   bool(np.all(grid.w_sigma > 0) and np.all(grid.w_S > 0)))
            coarse = homtype.build_boundary_grid(dom, 0.0,
                                                 cfg.boundary_nodes // 4)
            drift = abs(grid.sigma_total - coarse.sigma_total) / \
                grid.sigma_total
            record("surface_measure_converged", drift <= 0.01, drift=drift)
            mc = homtype.build_boundary_grid(dom, 0.0,
                                             max(cfg.boundary_nodes, 10000),
                                             kind="random", seed=cfg.seed)
            hom = homtype.check_homogeneous(mc, seed=cfg.seed)
            record("homogeneous_dimension",
                   abs(hom["fitted_dimension"] - dom.n) <= 0.15, **hom)
            record("quasi_triangle",
                   hom["quasi_triangle_constant"] <= 50.0)
            rng = np.random.default_rng(cfg.seed)
            w_ext = domain_mod.random_shell_points(
                dom, rng, 2000, (1e-4 * cfg.eps, cfg.eps))
            idx = rng.choice(grid.size, 2000)
            qm = homtype.qm_exterior_check(dom, w_ext, grid.nodes[idx])
            env = qm["shell_comparison"]
            ok = env["lo"] >= 1.0 / 50 and env["hi"] <= 50
            record("qm_exterior_envelope", ok, **env)
            f1 = corpus_mod.monomial((1, 0))
            val = forms.clf_reproduce(grid, f1,
                                      np.array([0.3, 0.0], complex))
            record("clf_reproduction",
                   abs(val.value - 0.3) <= 1e-5, err=abs(val.value - 0.3))
    except Exception as exc:   # numerical failure, not a check failure
        rep.write_json("report.json", {"command": "validate",
                                       "error": str(exc),
                                       "checks": checks})
        return EXIT_NUMERIC
    payload = {"command": "validate", "domain": cfg.domain_name,
               "params": list(cfg.domain_params), "checks": checks,
               "passed": all(c["passed"] for c in checks)}
    rep.write_json("report.json", payload)
    return EXIT_OK if payload["passed"] else EXIT_CHECK


def cmd_diagnose(cfg, rep, fname):
    entries = {e.f.label: e for e in
               corpus_mod.build_corpus(cfg.make_domain(), with_labels=False)}
    if fname not in entries:
        print(f"unknown function {fname!r}; corpus: {sorted(entries)}",
              file=sys.stderr)
        return EXIT_USAGE
    dom = cfg.make_domain()
    entry = entries[fname]
    rep.event(command="diagnose", function=fname)
    try:
        report = pipeline.diagnose(dom, entry.f, p=cfg.p,
                                   k_range=cfg.k_range,
                                   l_probe=cfg.l_probe, r=cfg.r)
    except Exception as exc:
        rep.write_json("report.json", {"command": "diagnose",
                                       "error": str(exc)})
        return EXIT_NUMERIC
    payload = report.to_jsonable()
    payload["command"] = "diagnose"
    floor_flag = report.slope_points < len(report.k_list)
    payload["quadrature_floor"] = bool(floor_flag)
    rep.write_json("report.json", payload)
    rows = []
    for k in report.k_list:
        rows.append([k, repr(report.sup_errors[k]), repr(report.lp_errors[k])]
                    + [repr(float(report.partial_sums[l][report.k_list.index(k)]))
                       for l in cfg.l_probe])
    rep.write_csv("ek_table.csv",
                  ["k", "sup_error", "lp_error"]
                  + [f"partial_sum_l{l}" for l in cfg.l_probe], rows)
    return EXIT_OK


def cmd_kernel(cfg, rep, k_values=(8, 16, 32, 64)):
    dom = cfg.make_domain()
    rows = []
    certs = {}
    for k in k_values:
        kg = dzyadyk.build_Kglob(dom, int(k), r=0.5, eps=cfg.eps)
        out = dzyadyk.validate_Kglob(dom, kg, seed=cfg.seed, eps=cfg.eps)
        rows.append([int(k), repr(out.get("C_far", float("nan"))),
                     repr(out.get("C_near", float("nan"))),
                     out["n_far"], out["n_near"]])
        certs[str(k)] = _jsonable(
            {str(kk): vv for kk, vv in kg.certificates().items()})
        rep.event(command="kernel", k=int(k))
    cfar = [float(r[1]) for r in rows]
    slope = float(np.polyfit(np.log(list(k_values)), np.log(cfar), 1)[0])
    payload = {"command": "kernel", "k_values": list(map(int, k_values)),
               "rows": [[r[0], float(r[1]), float(r[2]), r[3], r[4]]
                        for r in rows],
               "c_far_log_slope": slope, "certificates": certs}
    rep.write_json("report.json", payload)
    rep.write_csv("c_far_trend.csv",
                  ["k", "C_far", "C_near", "n_far", "n_near"], rows)
    return EXIT_OK if slope <= 0.1 else EXIT_CHECK


def cmd_continuation(cfg, rep):
    dom = cfg.make_domain()
    f = corpus_mod.monomial((2, 1))
    cont = extend_by_symmetry(dom, f, m=3, eps=cfg.eps)
    shell = forms.build_shell_grid(dom, cfg.eps, cfg.shell_angular,
                                   n_bands=cfg.shell_bands,
                                   nodes_per_band=cfg.shell_nodes_per_band)
    rng = np.random.default_rng(cfg.seed)
    zs = 0.5 * domain_mod.random_unit_directions(rng, 8, dom.n)
    out = verify_pac(cont, shell, zs, f)
    rep.event(command="continuation", nodes=shell.size)
    payload = {"command": "continuation", "function": f.label,
               "shell_nodes": shell.size,
               "max_rel_err": out["max_rel_err"],
               "rel_err": _jsonable(out["rel_err"])}
    rep.write_json("report.json", payload)
    return EXIT_OK if out["max_rel_err"] <= 1e-2 else EXIT_CHECK


def cmd_area(cfg, rep):
    dom = cfg.make_domain()
    grid = homtype.build_boundary_grid(dom, 0.0, 3000)
    # the small quasiball indicators concentrate their area-functional mass
    # near the spike, so the outer integral uses pole-stratified centers
    pole = grid.nodes[17]
    centers = homtype.stratified_centers(grid, pole=pole, seed=cfg.seed)
    g_const = np.ones(grid.size)
    fam = [g_const]
    for delta in (0.4, 0.2, 0.1):   # coarse-to-fine, as the blow-up test reads
        mask, _ = homtype.quasiball(grid, pole, delta)
        fam.append(mask.astype(float))
    out = koranyi.check_area_inequality(dom, fam, l=1, p=cfg.p, grid=grid,
                                        centers=centers, eta=cfg.eta,
                                        eps=cfg.eps)
    rep.event(command="area", members=len(fam))
    payload = {"command": "area", "ratios": out["ratios"],
               "spread": out["spread"],
               "monotone_blowup": out["monotone_blowup"]}
    rep.write_json("report.json", payload)
    i1, i2 = koranyi.area_Il(dom, np.stack([g_const, 2.0 * g_const]), 1,
                             centers.nodes[0], grid, eta=cfg.eta, eps=cfg.eps)
    homog_ok = abs(i2 - 2.0 * i1) <= 1e-10 * max(i2, 1.0)
    ok = out["spread"] <= 50 and not out["monotone_blowup"] and homog_ok
    return EXIT_OK if ok else EXIT_CHECK


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hsconvex",
        description="batch checks for the convex-domain Hardy-Sobolev kit")
    ap.add_argument("command",
                    choices=["validate", "diagnose", "kernel",
                             "continuation", "area"])
    ap.add_argument("config", help="INI-style config file")
    ap.add_argument("function", nargs="?",
                    help="corpus function label (diagnose)")
    ap.add_argument("--out", help="override output directory")
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out) if args.out else cfg.output_dir
    rep = Reporter(out_dir)
    if args.command == "validate":
        return cmd_validate(cfg, rep)
    if args.command == "diagnose":
        if not args.function:
            print("diagnose needs a corpus function label", file=sys.stderr)
            return EXIT_USAGE
        return cmd_diagnose(cfg, rep, args.function)
    if args.command == "kernel":
        return cmd_kernel(cfg, rep)
    if args.command == "continuation":
        return cmd_continuation(cfg, rep)
    if args.command == "area":
        return cmd_area(cfg, rep)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
