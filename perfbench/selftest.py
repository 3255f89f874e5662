#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks, one PASS/FAIL line each, exit 1 on any failure:
- self-time arithmetic on a toy nested call, and that a wrapped function
  returns its result and raises its exception unchanged;
- the exact counts the layer map cites: ``points_per_shell_node == 10.0``
  for ``continuation`` on both curved domains (a small shell: the ratio does
  not depend on its size) and 48 distinct regions in 194 ``sample_region``
  calls for ``hsconvex area`` on the ball;
- that per-layer counts repeat exactly when a traced job runs again;
- that BENCHMARK.json names exactly the metrics run.py prints.
"""

import json
import sys
import time

import run
import spans

FAILURES = []


def check(name, ok, detail=""):
    print(f"SELFTEST {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    if not ok:
        FAILURES.append(name)


def toy_self_time():
    # a(0..10) holds b(1..4) and b(5..7); the first b holds c(2..3)
    toy = [{"name": "a", "start": 0.0, "end": 10.0, "parent": None},
           {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
           {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
           {"name": "b", "start": 5.0, "end": 7.0, "parent": 0}]
    own = spans.self_times(toy)
    check("self_time_arithmetic", own == [5.0, 2.0, 1.0, 2.0], str(own))

    rec = spans.Recorder("toy")

    def inner(x):
        time.sleep(0.01)
        return x + 1

    def boom():
        raise KeyError("boom")

    inner_w = rec.wrap("toy.inner", inner)
    boom_w = rec.wrap("toy.boom", boom)

    def outer():
        time.sleep(0.01)
        try:
            boom_w()
        except KeyError:
            pass
        return inner_w(1) + inner_w(2)

    outer_w = rec.wrap("toy.outer", outer)
    value = outer_w()
    parents = [s["parent"] for s in rec.spans]
    own = spans.self_times(rec.spans)
    dur = [s["end"] - s["start"] for s in rec.spans]
    ok = (value == 5 and [s["name"] for s in rec.spans]
          == ["toy.outer", "toy.boom", "toy.inner", "toy.inner"]
          and parents == [None, 0, 0, 0]
          and abs(own[0] - (dur[0] - dur[1] - dur[2] - dur[3])) < 1e-12
          and own[0] >= 0.01)
    check("self_time_wrapped_nested", ok,
          f"value {value} parents {parents} outer self {own[0]:.4f}s")


def traced(runner, job_id, command, cfg):
    rec = runner.run(job_id, "cli", command, None, cfg, trace=True)
    if not rec.get("spans"):
        return rec, None
    return rec, spans.layer_metrics([rec["spans"]])


def exact_counts():
    runner = run.Runner("selftest")
    small = dict(shell_bands=2, nodes_per_band=1, shell_angular=500)
    for dom in ("ellipsoid", "perturbed_ball"):
        cfg = run.config(dom, 0, **small)
        _, m1 = traced(runner, f"continuation/{dom}", "continuation", cfg)
        _, m2 = traced(runner, f"continuation/{dom}", "continuation", cfg)
        if m1 is None or m2 is None:
            check(f"points_per_shell_node_{dom}", False, "job crashed")
            continue
        ratio = m1["domain.project_boundary.points_per_shell_node"][0]
        check(f"points_per_shell_node_{dom}", ratio == 10.0,
              f"{ratio} (expect 10.0)")
        counts = {k: v for k, (v, u) in m1.items() if u == "count"}
        again = {k: v for k, (v, u) in m2.items() if u == "count"}
        check(f"counts_repeat_{dom}", counts == again)
    _, m = traced(runner, "area/ball", "area", run.config("ball", 0))
    if m is None:
        check("sample_region_distinct_area", False, "job crashed")
        return
    calls = m["koranyi.sample_region.calls"][0]
    ratio = m["koranyi.sample_region.distinct_ratio"][0]
    distinct = round(ratio * calls)
    check("sample_region_distinct_area", (distinct, calls) == (48, 194),
          f"{distinct} distinct of {calls} calls (expect 48 of 194)")


def benchmark_file():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {(m["name"], m["unit"]) for m in bench["end_to_end"]}
    layer = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    check("benchmark_json_end_to_end", e2e == set(run.END_TO_END),
          str(sorted(e2e ^ set(run.END_TO_END))))
    check("benchmark_json_per_layer", layer == set(run.per_layer_names()),
          str(sorted(layer ^ set(run.per_layer_names()))))
    check("benchmark_json_workloads",
          [w["name"] for w in bench["workloads"]] == sorted(run.WHY)
          and all(w["why"] == run.WHY[w["name"]]
                  for w in bench["workloads"]))


if __name__ == "__main__":
    toy_self_time()
    benchmark_file()
    exact_counts()
    sys.exit(1 if FAILURES else 0)
