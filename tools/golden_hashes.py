#!/usr/bin/env python3
"""SHA-256 of every golden output file of the CLI at one seed.

Usage (from any directory):

    python3 tools/golden_hashes.py SEED > tools/golden/seedSEED.sha256
    python3 tools/golden_hashes.py --check SEED

Runs, in this process at one BLAS thread (``HSCONVEX_THREADS`` and the
BLAS thread variables all set to 1) and with the checkout's own ``src/``,
the 34-file golden set:

* ``validate`` and ``continuation`` on the 3 catalog domains, with the
  collar resolution of the benchmark's ``collar`` workload;
* ``area`` and ``kernel`` on the 3 domains (``kernel`` also writes
  ``c_far_trend.csv``);
* ``diagnose`` on the 9 corpus labels (each also writes ``ek_table.csv``);
* criterion 9's bk shape (``perfbench/job.py``'s ``bk_shape``).

Configs and the bk shape are read from ``perfbench/`` and not changed.
Prints a header line with the python, numpy and BLAS versions, then one
``<sha256>  <job>/<file>`` line per file, sorted.  The event logs carry no
report data and are not hashed.

``--check SEED`` compares the files with ``tools/golden/seedSEED.sha256``
and exits 1 naming every file whose hash differs, is missing or is new.
The stored bytes hold for the interpreter, numpy and BLAS of its header;
when the running ones differ, it says so and exits 3 without running the
jobs, since a byte change there says nothing about the code.

A job that exits 2 (usage) or 3 (numerical failure) stops the tool with
a non-zero exit status that names the job, and nothing is printed.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "golden"
for _v in ("HSCONVEX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
           "MKL_NUM_THREADS"):
    os.environ[_v] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import job  # noqa: E402  (perfbench: the bk shape and the environment)
import run  # noqa: E402  (perfbench: job lists and config files)
from hsconvex import cli  # noqa: E402

EXIT_DIFFERS = 1
EXIT_ENVIRONMENT = 3


def golden_jobs(seed):
    """(id, kind, command, function, config text) of every golden job."""
    collar = run.workload_jobs("collar", seed)
    smooth = run.workload_jobs("smoothness", seed)
    areas = [(f"area/{d}", "cli", "area", None, run.config(d, seed))
             for d in run.DOMAINS]
    bk = [j for j in run.workload_jobs("regions", seed) if j[1] == "bk"]
    return collar + smooth + areas + bk


def header():
    """The header line: the library versions the bytes depend on."""
    env = job.environment()
    return "# " + json.dumps({k: env[k] for k in ("python", "numpy", "blas")},
                             sort_keys=True)


def hash_lines(seed):
    """``<sha256>  <job>/<file>`` of every golden file, sorted by file."""
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
    return sorted(lines, key=lambda s: s.split("  ", 1)[1])


def _by_file(lines):
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in lines)}


def check(seed):
    """Exit status of comparing this tree's files with the stored hashes."""
    stored = (GOLDEN / f"seed{seed}.sha256").read_text().splitlines()
    if stored[0] != header():
        print(f"environment differs from the stored hashes: stored "
              f"{stored[0][2:]}, running {header()[2:]}; bytes not compared")
        return EXIT_ENVIRONMENT
    want, have = _by_file(stored[1:]), _by_file(hash_lines(seed))
    bad = sorted(name for name in want.keys() | have.keys()
                 if want.get(name) != have.get(name))
    for name in bad:
        state = ("missing" if name not in have else
                 "new" if name not in want else "differs")
        print(f"{state}: {name}")
    if bad:
        return EXIT_DIFFERS
    print(f"seed {seed}: all {len(want)} files match")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--check":
        mode, seed = "check", argv[1]
    elif len(argv) == 1:
        mode, seed = "print", argv[0]
    else:
        raise SystemExit("usage: golden_hashes.py [--check] SEED")
    seed = int(seed)
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"hsconvex imported from {cli.__file__}, "
                         f"not from {src}")
    if mode == "check":
        return check(seed)
    print("\n".join([header()] + hash_lines(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
