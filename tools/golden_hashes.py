#!/usr/bin/env python3
"""SHA-256 of every golden output file of the CLI at one seed.

Usage (from any directory):

    python3 tools/golden_hashes.py SEED > hashes.txt

Runs, in this process with ``HSCONVEX_THREADS=1`` and the checkout's own
``src/``, the 34-file golden set:

* ``validate`` and ``continuation`` on the 3 catalog domains, with the
  collar resolution of the benchmark's ``collar`` workload;
* ``area`` and ``kernel`` on the 3 domains (``kernel`` also writes
  ``c_far_trend.csv``);
* ``diagnose`` on the 9 corpus labels (each also writes ``ek_table.csv``);
* criterion 9's bk shape (``perfbench/job.py``'s ``bk_shape``).

Configs and the bk shape are read from ``perfbench/`` and not changed.
Prints one ``<sha256>  <job>/<file>`` line per file, sorted, so checking
that two trees write the same bytes is one ``diff`` of their outputs.  The
event logs carry no report data and are not hashed.
A job that exits 2 (usage) or 3 (numerical failure) stops the tool with
a non-zero exit status that names the job, and nothing is printed.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ["HSCONVEX_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import job  # noqa: E402  (perfbench: the bk shape)
import run  # noqa: E402  (perfbench: job lists and config files)
from hsconvex import cli  # noqa: E402


def golden_jobs(seed):
    """(id, kind, command, function, config text) of every golden job."""
    collar = run.workload_jobs("collar", seed)
    smooth = run.workload_jobs("smoothness", seed)
    areas = [(f"area/{d}", "cli", "area", None, run.config(d, seed))
             for d in run.DOMAINS]
    bk = [j for j in run.workload_jobs("regions", seed) if j[1] == "bk"]
    return collar + smooth + areas + bk


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__.splitlines()[4].strip())
    seed = int(argv[0])
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"hsconvex imported from {cli.__file__}, "
                         f"not from {src}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for job_id, kind, command, function, text in golden_jobs(seed):
            slug = job_id.replace("/", "_").replace(" ", "_")
            cfg = Path(tmp) / f"{slug}.cfg"
            cfg.write_text(text)
            out = Path(tmp) / slug
            if kind == "bk":
                code = job.bk_shape(cli.RunConfig(str(cfg)), out)
            else:
                code = cli.main([command, str(cfg)]
                                + ([function] if function else [])
                                + ["--out", str(out)])
            if code in (cli.EXIT_USAGE, cli.EXIT_NUMERIC):
                raise SystemExit(f"{job_id}: exit {code}")
            for path in sorted(out.iterdir()):
                if path.suffix in (".json", ".csv"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {job_id}/{path.name}")
    print("\n".join(sorted(lines, key=lambda s: s.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
