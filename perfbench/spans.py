"""In-memory spans around the public functions of the hsconvex layer modules.

A traced job calls :func:`install` once, after importing ``hsconvex.cli``
and before its first call into the package.  Every function in ``LAYERS`` is
replaced by a wrapper that records one span per call: its name, start, end,
the index of the enclosing traced span, the job id and a few sizes read from
the arguments or the result.  Several modules bind these functions through
``from .x import y``, so the wrapper replaces every binding of the original
function object in every loaded ``hsconvex`` module, not only the defining
one.  The wrappers return the original results untouched, so a traced job
writes the same report bytes as an untraced one.

The aggregation helpers (:func:`self_times`, :func:`layer_metrics`) only
read span dictionaries, so the parent process can use them without numpy.
"""

import functools
import hashlib
import inspect
import sys
import time

# module -> public functions wrapped in that module
LAYERS = {
    "domain": ("project_boundary", "radial_level", "validate_domain"),
    "sphere": ("surface_nodes",),
    "exterior": ("grid_leray_density",),
    "homtype": ("build_boundary_grid", "check_homogeneous",
                "qm_exterior_check", "maximal_function"),
    "forms": ("build_shell_grid", "clf_reproduce"),
    "koranyi": ("sample_region", "area_Il", "check_area_inequality"),
    "continuation": ("extend_by_symmetry", "extend_by_global",
                     "pac_reconstruct", "verify_pac"),
    "dzyadyk": ("build_T", "build_Kglob", "validate_Kglob"),
    "pipeline": ("project_direct", "project_direct_reduced", "diagnose",
                 "ab_fields", "check_bk_lemma"),
}

# bytes of one complex128 kernel value; area_Il.bytes_computed is computed
# from array sizes, not measured
COMPLEX_BYTES = 16


def _rows(z):
    """Number of points in a point or a batch of points."""
    import numpy as np
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _region_key(a):
    """Everything that determines a region sample, as a short digest."""
    parts = []
    for name, value in a.items():
        if name == "domain":
            value = value.key()
        elif hasattr(value, "tobytes"):
            value = value.tobytes()
        parts.append((name, value))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# name -> f(bound arguments, result) -> (counts, key or None)
COUNTS = {
    "domain.project_boundary": lambda a, r: ({"points": _rows(a["z"])}, None),
    "domain.radial_level": lambda a, r: ({"dirs": _rows(a["dirs"])}, None),
    "sphere.surface_nodes": lambda a, r: ({"nodes": len(r[0])}, None),
    "exterior.grid_leray_density":
        lambda a, r: ({"nodes": _rows(a["nodes"])}, None),
    "homtype.maximal_function":
        lambda a, r: ({"pair_evals": a["grid"].size ** 2 * a["n_levels"]},
                      None),
    "forms.build_shell_grid": lambda a, r: ({"nodes": r.size}, None),
    "koranyi.sample_region":
        lambda a, r: ({"points": r.size}, _region_key(a)),
    "koranyi.area_Il": lambda a, r: ({"grid_nodes": a["grid"].size}, None),
    "continuation.pac_reconstruct":
        lambda a, r: ({"shell_nodes": a["shell"].size}, None),
    "dzyadyk.build_T":
        lambda a, r: ({"flagged": int(bool(r.cert["flagged"]))}, None),
}


class Recorder:
    """Spans of one job, kept in memory until the job writes them out."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "job": self.job_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"], key = count(bound.arguments, result)
                if key is not None:
                    span["key"] = key
            return result

        return wrapper


def install(recorder):
    """Wrap every ``LAYERS`` function and patch all its bindings."""
    import importlib
    wrappers = {}
    for mod_name, funcs in LAYERS.items():
        mod = importlib.import_module(f"hsconvex.{mod_name}")
        for func in funcs:
            orig = getattr(mod, func)
            wrappers[id(orig)] = (orig, recorder.wrap(f"{mod_name}.{func}",
                                                      orig))
    for name, mod in list(sys.modules.items()):
        if name != "hsconvex" and not name.startswith("hsconvex."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


# derived counts reported beside calls and self_s
EXTRA = {
    "domain.project_boundary": (("points", "count"),
                                ("points_per_shell_node", "ratio")),
    "domain.radial_level": (("dirs", "count"),),
    "sphere.surface_nodes": (("nodes", "count"),),
    "exterior.grid_leray_density": (("nodes", "count"),),
    "homtype.maximal_function": (("pair_evals", "count"),),
    "forms.build_shell_grid": (("nodes", "count"),),
    "koranyi.sample_region": (("points", "count"),
                              ("distinct_ratio", "ratio")),
    "koranyi.area_Il": (("kernel_evals", "count"),
                        ("bytes_computed", "bytes")),
    "continuation.pac_reconstruct": (("shell_nodes", "count"),),
    "dzyadyk.build_T": (("flagged", "count"),),
}


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for mod_name, funcs in LAYERS.items():
        for func in funcs:
            name = f"{mod_name}.{func}"
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
            for extra, unit in EXTRA.get(name, ()):
                out.append((f"{name}.{extra}", unit))
    return out


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` is one job's list; ``parent`` indexes into it.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(spans, i, name):
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(jobs_spans):
    """Aggregate per-layer metrics from a list of per-job span lists."""
    calls, self_s, sums = {}, {}, {}
    distinct = 0
    kernel_evals = 0
    pac_points = 0
    for spans in jobs_spans:
        keys = set()
        own = self_times(spans)
        for i, s in enumerate(spans):
            name = s["name"]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            for k, v in s.get("counts", {}).items():
                sums[(name, k)] = sums.get((name, k), 0) + v
            if "key" in s:
                keys.add(s["key"])
            if name == "koranyi.sample_region" and s["parent"] is not None:
                parent = spans[s["parent"]]
                if parent["name"] == "koranyi.area_Il" and "counts" in s:
                    kernel_evals += (s["counts"]["points"]
                                     * parent["counts"]["grid_nodes"])
            if (name == "domain.project_boundary" and "counts" in s
                    and _has_ancestor(spans, i,
                                      "continuation.pac_reconstruct")):
                pac_points += s["counts"]["points"]
        distinct += len(keys)
    out = {}
    for name, unit in metric_names():
        func, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = (calls.get(func, 0), unit)
        elif field == "self_s":
            out[name] = (self_s.get(func, 0.0), unit)
        else:
            out[name] = (sums.get((func, field), 0), unit)
    n_region = calls.get("koranyi.sample_region", 0)
    out["koranyi.sample_region.distinct_ratio"] = (
        distinct / n_region if n_region else 0.0, "ratio")
    out["koranyi.area_Il.kernel_evals"] = (kernel_evals, "count")
    out["koranyi.area_Il.bytes_computed"] = (kernel_evals * COMPLEX_BYTES,
                                             "bytes")
    shell = sums.get(("continuation.pac_reconstruct", "shell_nodes"), 0)
    out["domain.project_boundary.points_per_shell_node"] = (
        pac_points / shell if shell else 0.0, "ratio")
    return out
