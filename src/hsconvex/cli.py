"""Batch front-end: config-driven checks and diagnoses with file reports.

Config files are INI-style (key = value under sections).  Every command
runs through :func:`main`, which holds one contract for all of them:

* exit 0 or 1: the command ran, and its checks passed (0) or one failed
  (1).  ``report.json`` holds the result (deterministic: sorted keys, no
  timestamps), next to any CSV tables the command writes.
* exit 2, usage error: a bad command line, an unreadable or invalid config,
  or a missing or unknown corpus label.  The message goes to stderr and no
  report is written.
* exit 3, numerical failure: any other exception, such as a domain that
  fails validation or a projection that does not converge.
  ``report.json`` is ``{"command": ..., "error": ...}``.

Each run that gets past the config starts a new event log,
``events.jsonl``, whose first line records the thread variables in effect,
the thread count the BLAS itself reports, numpy's version and the BLAS,
and appends one JSON line per step to it; it first deletes an earlier
run's ``report.json`` and CSV tables, so no report in the output directory
is older than the log.  The thread count honored by
the BLAS backing numpy can be pinned with HSCONVEX_THREADS, which the
``hsconvex`` package reads on import, before any of its modules loads
numpy.
"""

import argparse
import configparser
import csv
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import _BLAS_VARS
from . import corpus as corpus_mod
from . import domain as domain_mod
from . import continuation, dzyadyk, forms, homtype, koranyi, pipeline
from .sphere import split_resolution

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    """A command line the commands cannot run: exit 2, message on stderr."""


class ConfigError(UsageError):
    pass


def _numbers(kind):
    return lambda text: tuple(kind(x) for x in text.split())


def _positive(v, cfg):
    return 0 < v < math.inf    # false for NaN too


def _distinct(low):
    return lambda v, cfg: bool(v) and len(set(v)) == len(v) and min(v) >= low


# positional parameters of each catalog constructor: the names before
# eps_shell, which code objects list first
_ARITY = {name: make.__code__.co_varnames.index("eps_shell")
          for name, make in domain_mod._CATALOG.items()}

# one row per key: section, key, attribute, parse, default, the rule a given
# value must meet (called with the config read so far), and the values the
# rule accepts.  A key left out takes its default; unknown keys are ignored.
KEYS = (
    ("domain", "name", "domain_name", str, "ball", lambda v, cfg: v in _ARITY,
     f"one of {sorted(_ARITY)}"),
    ("domain", "params", "domain_params", _numbers(float), (),
     lambda v, cfg: len(v) <= _ARITY[cfg.domain_name]
     and all(map(math.isfinite, v)),
     f"finite numbers, at most this many per domain: {_ARITY}"),
    ("domain", "eps", "eps", float, 0.1, _positive, "a finite number > 0"),
    # validate's coarse grid has boundary_nodes // 4 nodes, at least 16
    ("resolution", "boundary_nodes", "boundary_nodes", int, 10000,
     lambda v, cfg: v >= 64, "an integer >= 64"),
    ("resolution", "shell_bands", "shell_bands", int, 8,
     lambda v, cfg: v >= 1, "an integer >= 1"),
    ("resolution", "nodes_per_band", "shell_nodes_per_band", int, 2,
     lambda v, cfg: v >= 1, "an integer >= 1"),
    ("resolution", "shell_angular", "shell_angular", int, 4000,
     lambda v, cfg: bool(split_resolution(v)), "an integer >= 16"),
    ("params", "eta", "eta", float, koranyi.DEFAULT_ETA, _positive,
     "a finite number > 0"),
    ("params", "p", "p", float, 2.0, _positive, "a finite number > 0"),
    ("params", "l_probe", "l_probe", _numbers(int), (1, 2, 3), _distinct(0),
     "one or more distinct integers >= 0"),
    ("params", "k_range", "k_range", _numbers(int), (1, 2, 3, 4, 5),
     _distinct(1), "one or more distinct integers >= 1"),
    # a missing r is derived from l_probe by pipeline.diagnose
    ("params", "r", "r", float, None, lambda v, cfg: 0 <= v < math.inf,
     "a finite number >= 0"),
    ("params", "seed", "seed", int, 0, lambda v, cfg: v >= 0,
     "an integer >= 0"),
    ("output", "dir", "output_dir", Path, Path("hsconvex_out"),
     lambda v, cfg: True, "a path"),
)


class RunConfig:
    """Validated run parameters, one attribute per row of :data:`KEYS`."""

    def __init__(self, path):
        # % is literal: no config interpolates
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
        except (configparser.Error, UnicodeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        if not parser.has_section("domain"):
            raise ConfigError("missing [domain] section")
        for section, key, attr, parse, default, rule, accepted in KEYS:
            raw = parser.get(section, key, fallback=None)
            try:
                value = default if raw is None else parse(raw)
                ok = raw is None or rule(value, self)
            except (ValueError, OverflowError):
                ok = False
            if not ok:
                raise ConfigError(f"{key} must be {accepted}, not {raw!r}")
            setattr(self, attr, value)

    def make_domain(self, validate=True):
        return domain_mod.from_catalog(self.domain_name, self.domain_params,
                                       eps_shell=self.eps, validate=validate)


def blas_threads():
    """The thread count that the BLAS backing numpy reports, or "unknown".

    Asked of the OpenBLAS that numpy's wheel ships (``numpy.libs``), through
    its own getter ``scipy_openblas_get_num_threads64_``: the variables say
    what was asked for, and the BLAS reads them only when numpy loads.  A
    BLAS without that library or getter reads "unknown".
    """
    libs = sorted((Path(np.__file__).resolve().parent.parent
                   / "numpy.libs").glob("libscipy_openblas*"))
    # a foreign function returns a C int unless told otherwise
    getter = getattr(ctypes.CDLL(str(libs[0])) if libs else None,
                     "scipy_openblas_get_num_threads64_", None)
    return "unknown" if getter is None else getter()


def environment():
    """Thread variables in effect, BLAS thread count, numpy and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"threads": {v: os.environ.get(v)
                        for v in ("HSCONVEX_THREADS",) + _BLAS_VARS},
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Reporter:
    """Deterministic JSON/CSV writers plus a JSON-lines event log.

    The log's first line records the run's environment (:func:`environment`),
    which the report bytes may depend on but do not hold.
    """

    # the report files the commands write, besides the event log
    OUTPUTS = ("report.json", "ek_table.csv", "c_far_trend.csv")

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        for name in self.OUTPUTS:
            (self.out / name).unlink(missing_ok=True)
        self._log = self.out / "events.jsonl"
        self._log.write_text("")
        self._steps = 0
        self.event(environment=environment())

    def event(self, **kv):
        with open(self._log, "a") as fh:
            fh.write(json.dumps({"step": self._steps, **kv},
                                sort_keys=True) + "\n")
        self._steps += 1

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
    return x


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, rep, function):
    """Domain/grid/quasimetric invariant suite; fails on any failed check."""
    checks = []

    def record(name, passed, **extra):
        checks.append({"check": name, "passed": bool(passed),
                       **_jsonable(extra)})
        rep.event(check=name, passed=bool(passed))

    dom = cfg.make_domain(validate=False)
    try:
        report = domain_mod.validate_domain(dom, seed=cfg.seed)
    except domain_mod.DomainValidationError as exc:
        record("domain_convexity", False, witness=str(exc))
    else:
        record("domain_convexity", True, **report)
        grid = homtype.build_boundary_grid(dom, 0.0, cfg.boundary_nodes)
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
        record("quasi_triangle", hom["quasi_triangle_constant"] <= 50.0)
        rng = np.random.default_rng(cfg.seed)
        w_ext = domain_mod.random_shell_points(
            dom, rng, 2000, (1e-4 * cfg.eps, cfg.eps))
        idx = rng.choice(grid.size, 2000)
        qm = homtype.qm_exterior_check(dom, w_ext, grid.nodes[idx])
        env = qm["shell_comparison"]
        ok = env["lo"] >= 1.0 / 50 and env["hi"] <= 50
        record("qm_exterior_envelope", ok, **env)
        f1 = corpus_mod.monomial((1, 0))
        val = forms.clf_reproduce(grid, f1, np.array([0.3, 0.0], complex))
        record("clf_reproduction",
               abs(val.value - 0.3) <= 1e-5, err=abs(val.value - 0.3))
    passed = all(c["passed"] for c in checks)
    return {"command": "validate", "domain": cfg.domain_name,
            "params": list(cfg.domain_params), "checks": checks,
            "passed": passed}, passed


def cmd_diagnose(cfg, rep, function):
    """Smoothness diagnosis of one corpus function; has no check of its own."""
    if not function:
        raise UsageError("diagnose needs a corpus function label")
    entries = {e.f.label: e for e in corpus_mod.corpus_entries()}
    if function not in entries:
        raise UsageError(f"unknown function {function!r}; "
                         f"corpus: {sorted(entries)}")
    if len(cfg.k_range) < pipeline._TAIL:
        raise UsageError(f"k_range: diagnose needs at least "
                         f"{pipeline._TAIL} levels")
    dom = cfg.make_domain()
    rep.event(command="diagnose", function=function)
    report = pipeline.diagnose(dom, entries[function].f, p=cfg.p,
                               k_range=cfg.k_range, l_probe=cfg.l_probe,
                               r=cfg.r)
    payload = _jsonable(dataclasses.asdict(report))
    # the sweep's sizes and the phase timings go to the event log only
    rep.event(command="diagnose", **payload.pop("log"))
    payload["command"] = "diagnose"
    payload["quadrature_floor"] = report.slope_points < len(report.k_list)
    rows = []
    for k in report.k_list:
        rows.append([k, repr(report.sup_errors[k]), repr(report.lp_errors[k])]
                    + [repr(float(report.partial_sums[l][report.k_list.index(k)]))
                       for l in cfg.l_probe])
    rep.write_csv("ek_table.csv",
                  ["k", "sup_error", "lp_error"]
                  + [f"partial_sum_l{l}" for l in cfg.l_probe], rows)
    return payload, True


# kernel approximant degrees whose certificates `kernel` reports
KERNEL_DEGREES = (8, 16, 32, 64)


def cmd_kernel(cfg, rep, function):
    dom = cfg.make_domain()
    rows = []
    certs = {}
    for k in KERNEL_DEGREES:
        kg = dzyadyk.build_Kglob(dom, int(k), r=0.5)
        out = dzyadyk.validate_Kglob(dom, kg, seed=cfg.seed)
        rows.append([int(k), out.get("C_far", float("nan")),
                     out.get("C_near", float("nan")), out["n_far"],
                     out["n_near"]])
        certs[str(k)] = _jsonable(
            {str(kk): vv for kk, vv in kg.certificates().items()})
        rep.event(command="kernel", k=int(k))
    cfar = [r[1] for r in rows]
    slope = float(np.polyfit(np.log(KERNEL_DEGREES), np.log(cfar), 1)[0])
    rep.write_csv("c_far_trend.csv",
                  ["k", "C_far", "C_near", "n_far", "n_near"], rows)
    return {"command": "kernel", "k_values": list(KERNEL_DEGREES),
            "rows": rows,
            "c_far_log_slope": slope, "certificates": certs}, slope <= 0.1


def cmd_continuation(cfg, rep, function):
    dom = cfg.make_domain()
    f = corpus_mod.monomial((2, 1))
    cont = continuation.extend_by_symmetry(dom, f, m=3, eps=cfg.eps)
    t0 = time.perf_counter()
    shell = forms.build_shell_grid(dom, cfg.eps, cfg.shell_angular,
                                   n_bands=cfg.shell_bands,
                                   nodes_per_band=cfg.shell_nodes_per_band)
    t1 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    zs = 0.5 * domain_mod.random_unit_directions(rng, 8, dom.n)
    out = continuation.verify_pac(cont, shell, zs, f)
    # the collar streams in projection blocks; sizes and phase timings go
    # to the event log only
    rows = domain_mod._PROJECT_ROWS
    rep.event(command="continuation", shell_nodes=shell.size,
              block_rows=rows, blocks=math.ceil(shell.size / rows),
              shell_s=t1 - t0, reconstruct_s=time.perf_counter() - t1)
    return {"command": "continuation", "function": f.label,
            "shell_nodes": shell.size,
            "max_rel_err": out["max_rel_err"],
            "rel_err": _jsonable(out["rel_err"])}, \
        out["max_rel_err"] <= 1e-2


def cmd_area(cfg, rep, function):
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
    i1, i2 = koranyi.area_Il(dom, np.stack([g_const, 2.0 * g_const]), 1,
                             centers.nodes[0], grid, eta=cfg.eta, eps=cfg.eps)
    # area_Il samples the bank's first region again (same centre and
    # arguments), so its kernel takes that region's points times the grid
    points = out["region_points"]
    rep.event(command="area", members=len(fam), rays=out["rays"],
              points=sum(points), kernel_evals=sum(points) * grid.size,
              homogeneity_kernel_evals=points[0] * grid.size)
    homog_ok = abs(i2 - 2.0 * i1) <= 1e-10 * max(i2, 1.0)
    ok = out["spread"] <= 50 and not out["monotone_blowup"] and homog_ok
    return {"command": "area", "ratios": out["ratios"],
            "spread": out["spread"],
            "monotone_blowup": out["monotone_blowup"]}, ok


COMMANDS = {"validate": cmd_validate, "diagnose": cmd_diagnose,
            "kernel": cmd_kernel, "continuation": cmd_continuation,
            "area": cmd_area}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hsconvex",
        description="batch checks for the convex-domain Hardy-Sobolev kit")
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("config", help="INI-style config file")
    ap.add_argument("function", nargs="?",
                    help="corpus function label (diagnose)")
    ap.add_argument("--out", help="override output directory")
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig(args.config)
        rep = Reporter(Path(args.out) if args.out else cfg.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload, passed = COMMANDS[args.command](cfg, rep, args.function)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # numerical failure, not a check failure
        rep.write_json("report.json", {"command": args.command,
                                       "error": str(exc)})
        return EXIT_NUMERIC
    rep.write_json("report.json", payload)
    return EXIT_OK if passed else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
