#!/usr/bin/env python3
"""End-to-end benchmark of the hsconvex CLI and acceptance-gate shapes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload regions --seed 0 --seconds 36 --trace 0

Load model: one client in a closed loop.  A workload is a fixed list of jobs
that run one after another; each job is a fresh interpreter (perfbench/job.py)
so nothing cached in-process carries from one job to the next, exactly as
for a user who runs the ``hsconvex`` command.  Children get
``HSCONVEX_THREADS=1`` and the BLAS thread variables it implies, so on a
2-core machine at most this driver and one child run at once and no job ever
waits in a queue.  The seed reaches the program only through the generated
config files (the ``seed`` key), which decide random centres, grids and
probe points.

``--trace 0`` runs the setup probes, then the job list in order, and keeps
cycling through it while the next job's measured time still fits in
``--seconds`` (the first full pass always runs).  It prints the end-to-end
metrics: ``setup_s`` (median over probes and jobs of spawn-to-ready time,
ready being after imports and config parsing), ``wall_s`` (one pass: the sum
over jobs of each job's median time) and ``peak_rss_mb``.

``--trace 1`` runs every job twice in a row, untraced then traced, one pass
whatever ``--seconds`` says.  The traced run wraps the public functions of
the layer modules (perfbench/spans.py) and gives the per-layer metrics; the
untraced twin gives the per-command times, and the difference is the
tracing overhead.  The two reports of each job must be byte-identical.

Every job's report is checked against pinned limits; a job that exits
non-zero or misses a limit counts in ``failed``.  ``correct`` is false when
a job crashes, writes no report, returns an exit code its report
contradicts, or writes different report bytes for the same inputs.
The last line of stdout is the JSON result; the lines before it are a
human-readable table, and the full record goes to .perfbench/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREAD_ENV = {v: "1" for v in ("HSCONVEX_THREADS", "OMP_NUM_THREADS",
                               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 5
JOB_TIMEOUT_S = 150

DOMAINS = ("ball", "ellipsoid", "perturbed_ball")
CORPUS = ("1", "z1", "z1^2 z2", "exp(z1+2z2)", "(1-z1)^0.6", "(1-z1)^1.5",
          "(1-z1)^2.5", "log(1-z1)", "(1-z1)^1.5 z2")
SMOOTH = ("1", "z1", "z1^2 z2", "exp(z1+2z2)")   # polynomial or entire

WHY = {
    "regions": "approach-region sampler, external kernel contraction and "
               "maximal function: hsconvex area plus the criterion-9 bk "
               "shape, with many repeated regions",
    "collar": "Newton projection and finite-difference reflection on the "
              "127,776-node collar of two curved domains, with the ball's "
              "closed form as a no-change control",
    "smoothness": "level-set solves, Leray density, moment assembly and "
                  "Lawson fits: diagnose on all 9 corpus labels and kernel "
                  "on 3 domains",
}


def config(domain, seed, eps=0.1, **resolution):
    res = "".join(f"{k} = {v}\n" for k, v in resolution.items())
    return (f"[domain]\nname = {domain}\neps = {eps}\n\n[resolution]\n{res}\n"
            f"[params]\neta = 0.25\np = 2\nl_probe = 1 2 3\n"
            f"k_range = 1 2 3 4 5\nseed = {seed}\n")


def workload_jobs(name, seed):
    """The workload's job list: (id, kind, command, function, config)."""
    if name == "regions":
        return [("area/ball", "cli", "area", None, config("ball", seed)),
                ("bk_lemma/ball", "bk", "bk_lemma", None,
                 config("ball", seed, eps=1.0, boundary_nodes=4000))]
    if name == "collar":
        shell = dict(boundary_nodes=10000, shell_bands=8, nodes_per_band=3,
                     shell_angular=6000)
        return ([(f"continuation/{d}", "cli", "continuation", None,
                  config(d, seed, **shell)) for d in DOMAINS]
                + [(f"validate/{d}", "cli", "validate", None,
                    config(d, seed, **shell)) for d in DOMAINS])
    if name == "smoothness":
        return ([(f"diagnose/{f}", "cli", "diagnose", f, config("ball", seed))
                 for f in CORPUS]
                + [(f"kernel/{d}", "cli", "kernel", None, config(d, seed))
                   for d in DOMAINS])
    raise ValueError(name)


# --- pinned limits ---------------------------------------------------------

def _limits(command, report, function):
    if command == "area":
        return report["spread"] <= 50 and not report["monotone_blowup"]
    if command == "bk_lemma":
        return 0.05 <= report["two_term_p99"] <= 10 and report["spread"] <= 3
    if command == "continuation":
        return report["max_rel_err"] <= 1e-2
    if command == "validate":
        return report["passed"] and all(c["passed"] for c in report["checks"])
    if command == "kernel":
        return report["c_far_log_slope"] <= 0.1
    if command == "diagnose":
        finite = all(v == v and v != float("inf")
                     for v in report["sup_errors"].values())
        smooth_ok = function not in SMOOTH or all(
            v == "converging" for v in report["verdicts"].values())
        return finite and smooth_ok
    raise ValueError(command)


# exit 0 iff the limits hold (the command's own verdict reads the report);
# area's exit also needs a homogeneity check the report does not carry, so
# there exit 0 only implies the limits; diagnose has no verdict of its own
EXIT_IFF = {"bk_lemma", "continuation", "validate", "kernel"}


def judge(command, function, code, report):
    """(passed, consistent) for one job's exit code and report."""
    if code not in (0, 1) or report is None or "error" in report:
        return False, False
    ok = _limits(command, report, function)
    if command in EXIT_IFF:
        consistent = (code == 0) == ok
    elif command == "area":
        consistent = code != 0 or ok
    else:
        consistent = code == 0
    return code == 0 and ok, consistent


ACCURACY = {
    "area_spread": ("area", lambda r: r["spread"]),
    "bk_spread": ("bk_lemma", lambda r: r["spread"]),
    "pac_max_rel_err": ("continuation", lambda r: r["max_rel_err"]),
    "clf_err": ("validate", lambda r: next(
        c["err"] for c in r["checks"] if c["check"] == "clf_reproduction")),
    "c_far_max": ("kernel", lambda r: max(row[1] for row in r["rows"])),
    "diag_max_sup_err": ("diagnose", lambda r: r["sup_errors"][
        str(max(r["k_list"]))]),
}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
COMMAND_TIMES = {"area_s": "area", "bk_lemma_s": "bk_lemma",
                 "continuation_s": "continuation", "diagnose_s": "diagnose",
                 "validate_s": "validate", "kernel_s": "kernel"}


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    return (spans.metric_names()
            + [(n, "s") for n in COMMAND_TIMES]
            + [(n, "1") for n in ACCURACY]
            + [("fail_rate", "1"), ("trace_overhead_s", "s")])


# --- running jobs ----------------------------------------------------------

class Runner:
    def __init__(self, workload):
        self.dir = WORK / "work" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))

    def run(self, job_id, kind, command, function, cfg_text, trace):
        slug = job_id.replace("/", "_").replace(" ", "_")
        base = self.dir / f"{slug}.{'traced' if trace else 'plain'}"
        cfg = self.dir / f"{slug}.cfg"
        cfg.write_text(cfg_text)
        out = base.with_suffix(base.suffix + ".out")
        spec = {"id": job_id, "kind": kind, "command": command,
                "function": function, "config": str(cfg), "out": str(out),
                "trace": bool(trace), "src": str(SRC)}
        spec_path = base.with_suffix(base.suffix + ".spec.json")
        result_path = base.with_suffix(base.suffix + ".result.json")
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        with open(base.with_suffix(base.suffix + ".log"), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "job.py"), str(spec_path),
                 str(result_path)], cwd=ROOT, env=self.env,
                stdout=log, stderr=subprocess.STDOUT)
            # a blocking wait, since Popen.wait(timeout) polls in steps of
            # up to 50 ms and would quantize the job times; wait4 also
            # gives the child's CPU time
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, wstatus, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
            proc.returncode = status = os.waitstatus_to_exitcode(wstatus)
        rec = {"id": job_id, "command": command, "traced": bool(trace),
               "seconds": t1 - t0, "status": status,
               "cpu_s": usage.ru_utime + usage.ru_stime}
        if status != 0 or not result_path.exists():
            rec.update(passed=False, consistent=False)
            return rec
        res = json.loads(result_path.read_text())
        rec.update(setup_s=res["ready"] - t0, exit=res["exit"],
                   peak_rss_mb=res["peak_rss_kb"] / 1024.0,
                   sha256=res.get("report_sha256"), env=res.get("env"),
                   spans=res.get("spans"))
        if kind == "setup":
            rec.update(passed=True, consistent=True)
            return rec
        report_path = out / "report.json"
        report = json.loads(report_path.read_text()) \
            if report_path.exists() else None
        rec["passed"], rec["consistent"] = judge(command, function,
                                                 res["exit"], report)
        rec["report"] = report
        return rec


def measure(workload, seed, seconds, trace):
    jobs = workload_jobs(workload, seed)
    runner = Runner(workload)
    probe_cfg = config("ball", seed)
    t_start = time.perf_counter()
    probes = [runner.run("setup/ball", "setup", None, None, probe_cfg, False)
              for _ in range(SETUP_PROBES)]
    records = []
    if trace:
        for job in jobs:
            records.append(runner.run(*job, trace=False))
            records.append(runner.run(*job, trace=True))
    else:
        deadline = t_start + seconds
        i = 0
        while True:
            job = jobs[i % len(jobs)]
            if i >= len(jobs):
                est = statistics.median(r["seconds"] for r in records
                                        if r["id"] == job[0])
                if time.perf_counter() + est > deadline:
                    break
            records.append(runner.run(*job, trace=False))
            i += 1
    return jobs, probes, records


def summarize(workload, seed, trace, jobs, probes, records):
    by_id = {}
    for r in records:
        by_id.setdefault(r["id"], []).append(r)
    plain = [r for r in records if not r["traced"]]
    shas_agree = all(len({r.get("sha256") for r in rs}) == 1
                     for rs in by_id.values())
    correct = (shas_agree and all(r["consistent"] for r in records)
               and all(p["consistent"] for p in probes))
    # a job counts once per run of it, traced or not
    attempted = len(records)
    failed = sum(not r["passed"] for r in records)
    med = {j[0]: statistics.median(r["seconds"] for r in by_id[j[0]]
                                   if not r["traced"]) for j in jobs}
    # per-command times, accuracy and failures: printed by every run, and
    # per-layer metrics of the traced run
    info = {name: (sum(v for k, v in med.items()
                       if k.split("/")[0] == command), "s")
            for name, command in COMMAND_TIMES.items()}
    for name, (command, pick) in ACCURACY.items():
        vals = [pick(r["report"]) for r in plain
                if r["command"] == command and r.get("report")]
        info[name] = (max(vals) if vals else 0.0, "1")
    info["fail_rate"] = (failed / attempted, "1")
    if not trace:
        setups = [r["setup_s"] for r in probes + plain if "setup_s" in r]
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (sum(med.values()), "s"),
                   "peak_rss_mb": (max(r.get("peak_rss_mb", 0.0)
                                       for r in plain), "MB")}
    else:
        traced = [r for r in records if r["traced"]]
        metrics = spans.layer_metrics(
            [r["spans"] for r in traced if r.get("spans") is not None])
        metrics.update(info)
        metrics["trace_overhead_s"] = (
            sum(r["seconds"] for r in traced)
            - sum(r["seconds"] for r in plain), "s")
    env = next((p["env"] for p in probes if p.get("env")), {})
    env.update(seed=seed, workload=workload, trace=int(trace),
               nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)),
               setup_samples=len(probes) + len(plain),
               job_samples={k: len([r for r in v if not r["traced"]])
                            for k, v in by_id.items()})
    return correct, attempted, failed, metrics, info, med, by_id, env


def print_table(workload, env, med, by_id, metrics, info):
    print(f"# workload {workload}: {WHY[workload]}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {'job':34s} {'n':>2s} {'median_s':>9s} exit pass sha256")
    for job_id, t in med.items():
        rs = by_id[job_id]
        r = rs[0]
        print(f"# {job_id:34s} {len(rs):2d} {t:9.3f} {r.get('exit')!s:>4s} "
              f"{'yes' if all(x['passed'] for x in rs) else 'NO':>4s} "
              f"{(r.get('sha256') or '-')[:16]}")
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"# {name} = {value:.6g} {unit}")


def run_workload(workload, seed, seconds, trace):
    jobs, probes, records = measure(workload, seed, seconds, trace)
    correct, attempted, failed, metrics, info, med, by_id, env = summarize(
        workload, seed, trace, jobs, probes, records)
    print_table(workload, env, med, by_id, metrics, info)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{workload}-seed{seed}-trace{int(trace)}"
    with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
        for r in records:
            for s in r.pop("spans", None) or ():
                fh.write(json.dumps(s) + "\n")
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "correct": correct, "attempted": attempted,
         "failed": failed, "metrics": metrics, "jobs": records,
         "probes": probes}, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WHY) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hsconvex" / "__init__.py").is_file():
        print(f"no hsconvex sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WHY) if args.workload == "all" else [args.workload]
    outs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
            for w in names}
    if len(outs) == 1:
        print(json.dumps(outs[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outs.items()
                        for k, v in o["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
