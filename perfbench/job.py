"""Run one benchmark job in a fresh interpreter, as a CLI user's command does.

Usage: python3 perfbench/job.py SPEC.json RESULT.json

SPEC.json holds the job id, its kind (``cli``, ``bk`` or ``setup``), the
config file, the CLI command and corpus label where they apply, the output
directory and whether to trace.  The job imports ``hsconvex.cli`` (numpy and
every layer module with it), parses the config, takes the ``ready`` time,
then runs the command.  RESULT.json records the ready and end times, the
command's exit code, the SHA-256 of ``report.json``, the peak RSS and, for
a traced job, its spans.  The parent measures the spawn time itself; both
read the same monotonic clock.
"""

import json
import sys
import time
from pathlib import Path


def bk_shape(cfg, out_dir):
    """Criterion 9's shape: two ``ab_fields`` and two ``check_bk_lemma``.

    The grid and the 48 centres come from ``cfg.seed``; the pinned limits
    are the criterion's (two-term p99 in [0.05, 10], spread <= 3).
    """
    import numpy as np
    from hsconvex import continuation as cn, homtype, pipeline as pl

    wide = cfg.make_domain()
    grid = homtype.build_boundary_grid(wide, 0.0, cfg.boundary_nodes,
                                       kind="random", seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    cidx = rng.choice(grid.size, 48, replace=False)
    res = (10, 2, 6, 6, 6)
    p2, p4 = pl.PolynomialCn({}), pl.PolynomialCn({(0, 0): 1.0})
    cont = cn.extend_by_global(wide, [p2, p4], eps=cfg.eps)
    a, b = pl.ab_fields(grid, [p2, p4], cont, 1, cidx, eta=cfg.eta,
                        eps=cfg.eps, resolution=res)
    two = pl.check_bk_lemma(grid, a, b, cidx)

    def bc(s, m):
        val = 1.0
        for i in range(m):
            val *= (s - i) / (i + 1)
        return val
    root2 = np.sqrt(2.0)
    p_seq = pl.taylor_sections(
        lambda al: 0.0 if al[1] else bc(0.6, al[0]) * (-1 / root2) ** al[0],
        [2, 4, 8, 16, 32, 64])
    cont2 = cn.extend_by_global(wide, p_seq, eps=cfg.eps)
    a2, b2 = pl.ab_fields(grid, p_seq, cont2, 1, cidx, eta=cfg.eta,
                          eps=cfg.eps, resolution=res)
    corp = pl.check_bk_lemma(grid, a2, b2, cidx, exclude_k=(1,))
    p99 = two["per_k"][1]["p99"]
    spread = corp["spread"]
    passed = 0.05 <= p99 <= 10.0 and spread <= 3.0
    payload = {"command": "bk_lemma", "two_term_p99": p99,
               "spread": spread, "passed": passed,
               "per_k": {str(k): v for k, v in corp["per_k"].items()}}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0 if passed else 1


def environment():
    """Library versions the timings depend on."""
    import os
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in (
                "HSCONVEX_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    from hsconvex import cli
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"hsconvex imported from {cli.__file__}, "
                         f"not from {src}")
    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder(spec["id"])
        spans.install(recorder)
    cfg = cli.RunConfig(spec["config"])
    ready = time.perf_counter()
    result = {"ready": ready}
    out_dir = Path(spec["out"])
    if spec["kind"] == "setup":
        result["env"] = environment()
        code = None
    elif spec["kind"] == "bk":
        code = bk_shape(cfg, out_dir)
    else:
        argv = [spec["command"], spec["config"]]
        if spec.get("function"):
            argv.append(spec["function"])
        code = cli.main(argv + ["--out", str(out_dir)])
    result["end"] = time.perf_counter()
    result["exit"] = code
    if code is not None:
        import hashlib
        report = out_dir / "report.json"
        result["report_sha256"] = hashlib.sha256(
            report.read_bytes()).hexdigest() if report.exists() else None
    import resource
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["spans"] = recorder.spans
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.splitlines()[2])
    main(sys.argv[1], sys.argv[2])
