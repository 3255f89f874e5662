import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hsconvex import cli, continuation
from hsconvex import domain as dom


BASE_CFG = """\
[domain]
name = ball
eps = 0.1

[resolution]
boundary_nodes = 4000

[params]
seed = 3
l_probe = 1 2
k_range = 1 2 3 4

[output]
dir = {out}
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG.format(out=tmp_path / "out"))
    return path


THREAD_VARS = ("HSCONVEX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def _events(out):
    """The lines of a run's event log after its environment line."""
    lines = (out / "events.jsonl").read_text().splitlines()
    assert sorted(json.loads(lines[0])) == ["environment", "step"]
    return lines[1:]


class TestConfig:
    def test_malformed_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[domain]\nname = ball\neps = 0\n")
        rc = cli.main(["validate", str(bad)])
        assert rc == cli.EXIT_USAGE

    def test_missing_file_is_usage_error(self):
        rc = cli.main(["validate", "/nonexistent/x.cfg"])
        assert rc == cli.EXIT_USAGE

    def test_unknown_function_lists_corpus(self, cfg_file, capsys):
        rc = cli.main(["diagnose", str(cfg_file), "nope"])
        assert rc == cli.EXIT_USAGE
        assert "corpus" in capsys.readouterr().err


    @pytest.mark.parametrize("angular", [0, 8])
    def test_too_few_shell_angles_is_usage_error(self, tmp_path, capsys,
                                                 angular):
        cfg = tmp_path / "shell.cfg"
        cfg.write_text(BASE_CFG.replace(
            "boundary_nodes = 4000",
            f"boundary_nodes = 4000\nshell_angular = {angular}")
            .format(out=tmp_path / "out"))
        assert cli.main(["continuation", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "shell_angular" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("validate", "seed", -1), ("kernel", "seed", -1),
        ("area", "seed", -1), ("validate", "boundary_nodes", 40)])
    def test_out_of_range_key_is_usage_error(self, tmp_path, capsys,
                                            command, key, value):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(re.sub(f"{key} = \\d+", f"{key} = {value}", BASE_CFG)
                       .format(out=tmp_path / "out"))
        assert cli.main([command, str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("k_range", "1 1 2 3"), ("k_range", "0 1 2"), ("k_range", "1 2"),
        ("l_probe", "1 1 2"), ("l_probe", "-1 1")])
    def test_bad_levels_or_orders_are_usage_errors(self, tmp_path, capsys,
                                                   key, value):
        # repeated levels once broke the partial-sum table (exit 3), level 0
        # and two levels failed inside the projection, and a repeated order
        # wrote two columns of the same name
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(re.sub(f"{key} = .*", f"{key} = {value}", BASE_CFG)
                       .format(out=tmp_path / "out"))
        assert cli.main(["diagnose", str(cfg), "z1"]) == cli.EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "ek_table.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("eps", "nan"), ("eps", "inf"), ("eta", "nan"), ("eta", "inf"),
        ("p", "nan"), ("p", "inf"), ("r", "nan"), ("r", "inf"),
        ("r", "-inf"), ("l_probe", "")])
    def test_non_finite_or_empty_is_usage_error(self, tmp_path, capsys,
                                                key, value):
        # nan passed every positivity check: eps and eta failed later
        # (exit 3), p = nan exited 0 with NaN lp errors, and an empty
        # l_probe failed inside the default r without naming the key
        if key in ("eps", "l_probe"):
            text = re.sub(f"{key} = .*", f"{key} = {value}", BASE_CFG)
        else:
            text = BASE_CFG.replace("[params]\n",
                                    f"[params]\n{key} = {value}\n")
        cfg = tmp_path / "finite.cfg"
        cfg.write_text(text.format(out=tmp_path / "out"))
        assert cli.main(["diagnose", str(cfg), "z1"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, old, new", [
        ("name", "name = ball", "name = foo"),
        ("params", "name = ball", "name = ellipsoid\nparams = 1 2 3"),
        ("params", "name = ball", "name = ball\nparams = x"),
        ("boundary_nodes", "= 4000", "= abc"),
        ("seed", "seed = 3", "seed = 1.5"),
        ("shell_bands", "[resolution]", "[resolution]\nshell_bands = 0"),
        ("nodes_per_band", "[resolution]", "[resolution]\nnodes_per_band = 0"),
        ("eta", "[params]", "[params]\neta = -1"),
        ("r", "[params]", "[params]\nr = -1"),
        ("eps", "eps = 0.1", "eps = 0.1\neps = 0.1"),
        ("eps", "eps = 0.1", "eps = 10%"),
        ("domain", "[output]", "[domain]\nname = ball\n\n[output]"),
        ("name", "[domain]\n", ""),
        ("[domain]", "[domain]\nname = ball\neps = 0.1\n", "")],
        ids=["unknown name", "too many params", "params text",
             "boundary_nodes text", "seed fraction", "shell_bands 0",
             "nodes_per_band 0", "eta negative", "r negative", "eps twice",
             "eps percent", "domain twice", "no header", "no domain"])
    def test_bad_key_or_file_is_usage_error(self, tmp_path, capsys, key, old,
                                            new):
        # each once exited 3, exited 0, escaped as a configparser traceback,
        # or exited 2 without naming its key
        cfg = tmp_path / "bad.cfg"
        text = BASE_CFG.format(out=tmp_path / "out")
        assert old in text
        cfg.write_text(text.replace(old, new, 1))
        assert cli.main(["diagnose", str(cfg), "z1"]) == cli.EXIT_USAGE
        # the file's path holds the test's name, so it is taken out first
        err = capsys.readouterr().err.replace(str(cfg), "")
        assert err.startswith("config error") and key in err
        assert not (tmp_path / "out").exists()

    def test_percent_is_literal(self, tmp_path):
        cfg = tmp_path / "pct.cfg"
        cfg.write_text(BASE_CFG.format(out=tmp_path / "out%x"))
        assert cli.main(["diagnose", str(cfg), "nope"]) == cli.EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["out%x", "pct.cfg"]


# every config key: its section, and a check that an accepted value lies in
# its documented range (README "Config files")
def _arity(name):
    return len([p for p in inspect.signature(dom._CATALOG[name]).parameters
                if p not in ("eps_shell", "validate")])


def _finite_positive(v):
    return math.isfinite(v) and v > 0


def _levels(v, low):
    return (len(v) > 0 and len(set(v)) == len(v)
            and all(isinstance(x, int) and x >= low for x in v))


def _integer(low):
    return lambda v: isinstance(v, int) and v >= low


CONFIG_KEYS = {
    ("domain", "name"): ("domain_name", lambda v: v in dom._CATALOG),
    ("domain", "params"): ("domain_params", None),   # checked with the name
    ("domain", "eps"): ("eps", _finite_positive),
    ("resolution", "boundary_nodes"): ("boundary_nodes", _integer(64)),
    ("resolution", "shell_bands"): ("shell_bands", _integer(1)),
    ("resolution", "nodes_per_band"): ("shell_nodes_per_band", _integer(1)),
    ("resolution", "shell_angular"): ("shell_angular", _integer(16)),
    ("params", "eta"): ("eta", _finite_positive),
    ("params", "p"): ("p", _finite_positive),
    ("params", "l_probe"): ("l_probe", lambda v: _levels(v, 0)),
    ("params", "k_range"): ("k_range", lambda v: _levels(v, 1)),
    ("params", "r"): ("r", lambda v: v is None or (math.isfinite(v)
                                                   and v >= 0)),
    ("params", "seed"): ("seed", _integer(0)),
    ("output", "dir"): ("output_dir", lambda v: isinstance(v, Path)),
}

CONTRACT_BASE = {"domain": {"name": "ball", "eps": "0.1"},
                 "resolution": {"boundary_nodes": "64"},
                 "params": {"seed": "3"}, "output": {"dir": "out"}}

_number = st.one_of(
    st.integers(-3, 70), st.sampled_from([15, 16, 63, 64, 2 ** 70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e400])).map(str)
_value = st.one_of(
    _number,
    st.lists(st.integers(-2, 6), max_size=4).map(
        lambda v: " ".join(map(str, v))),
    st.lists(st.floats(-3, 3) | st.sampled_from([math.nan, math.inf]),
             max_size=3).map(lambda v: " ".join(map(repr, v))),
    st.sampled_from(sorted(dom._CATALOG) + [
        "", "foo", "nan", "+inf", "-inf", "1_0", "0x10", "%", "10%",
        "%(eps)s", "1 %d"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126),
            max_size=8))


def _write(path, sections, header=True):
    lines = []
    for name, entries in sections.items():
        if header:
            lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries]
    path.write_text("\n".join(lines) + "\n")


def test_config_keys_cover_the_table():
    assert {(row[0], row[1]): row[2] for row in cli.KEYS} == \
        {k: attr for k, (attr, _) in CONFIG_KEYS.items()}


@given(name=st.sampled_from(sorted(dom._CATALOG)),
       key=st.sampled_from(sorted(CONFIG_KEYS)), value=_value,
       again=st.none() | _value)
@example(name="ball", key=("params", "r"), value="-1", again=None)
@example(name="ball", key=("domain", "name"), value="foo", again=None)
@example(name="ball", key=("output", "dir"), value="out%x", again=None)
@example(name="ellipsoid", key=("domain", "eps"), value="0.1", again="0.1")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_contract(tmp_path, name, key, value, again):
    # one key takes a drawn value, given twice when `again` is drawn: the
    # config is refused naming that key, or every field is in its range
    section, option = key
    entries = {s: dict(e) for s, e in CONTRACT_BASE.items()}
    entries["domain"]["name"] = name
    entries[section][option] = value
    sections = {s: list(e.items()) for s, e in entries.items()}
    if again is not None:
        sections[section].append((option, again))
    path = tmp_path / "contract.cfg"
    _write(path, sections)
    try:
        cfg = cli.RunConfig(str(path))
    except cli.ConfigError as exc:
        msg = str(exc)
        assert msg.startswith(f"{option} must be ") or \
            f"option '{option}' in section '{section}' already" in msg, msg
        return
    for attr, in_range in CONFIG_KEYS.values():
        if in_range is not None:
            assert in_range(getattr(cfg, attr)), (attr, getattr(cfg, attr))
    assert len(cfg.domain_params) <= _arity(cfg.domain_name)
    assert all(math.isfinite(v) for v in cfg.domain_params)
    cfg.make_domain(validate=False)


@given(section=st.sampled_from(sorted(CONTRACT_BASE)),
       fault=st.sampled_from(["repeated section", "no header",
                              "no [domain]"]))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_file_faults(tmp_path, section, fault):
    # whole-file faults are refused, never a configparser traceback
    sections = {s: list(e.items()) for s, e in CONTRACT_BASE.items()}
    path = tmp_path / "faulty.cfg"
    if fault == "repeated section":
        _write(path, sections)
        path.write_text(path.read_text() + f"[{section}]\n")
        named = f"section '{section}' already exists"
    elif fault == "no header":
        _write(path, sections, header=False)
        named = "(?s)no section headers.*name = ball"
    else:
        del sections["domain"]
        _write(path, sections)
        named = r"missing \[domain\] section"
    with pytest.raises(cli.ConfigError, match=named):
        cli.RunConfig(str(path))


NONCONVEX_CFG = """\
[domain]
name = perturbed_ball
params = 1.5
eps = 0.1

[output]
dir = {out}
"""


class TestExitContract:
    """Exit 1 is a failed check; every other failure is exit 3 with a report."""

    def test_nonconvex_domain(self, tmp_path, capsys):
        cfg = tmp_path / "nonconvex.cfg"
        cfg.write_text(NONCONVEX_CFG.format(out=tmp_path / "out"))
        out = tmp_path / "v"
        assert cli.main(["validate", str(cfg), "--out", str(out)]) == \
            cli.EXIT_CHECK
        rep = json.loads((out / "report.json").read_text())
        assert not rep["passed"]
        assert "Hessian" in rep["checks"][0]["witness"]
        for argv in (["diagnose", str(cfg), "z1"], ["kernel", str(cfg)],
                     ["continuation", str(cfg)], ["area", str(cfg)]):
            out = tmp_path / argv[0]
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_NUMERIC
            rep = json.loads((out / "report.json").read_text())
            assert sorted(rep) == ["command", "error"]
            assert rep["command"] == argv[0] and "Hessian" in rep["error"]
            assert _events(out) == []
        assert capsys.readouterr().err == ""

    def test_projection_error_mid_command(self, cfg_file, tmp_path,
                                          monkeypatch):
        def fail(*args, **kwargs):
            raise dom.ProjectionError("Newton did not converge")

        monkeypatch.setattr(continuation, "verify_pac", fail)
        out = tmp_path / "c"
        assert cli.main(["continuation", str(cfg_file),
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert json.loads((out / "report.json").read_text()) == {
            "command": "continuation", "error": "Newton did not converge"}

    @pytest.mark.parametrize("via", ["config", "--out"])
    def test_output_dir_under_a_file_is_usage_error(self, tmp_path, capsys,
                                                    via):
        # a directory that cannot be made: exit 2 naming it, no report
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.format(
            out=out if via == "config" else tmp_path / "unused"))
        argv = ["diagnose", str(cfg), "z1"]
        if via == "--out":
            argv += ["--out", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("cannot create output directory") \
            and str(out) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["blocker", "run.cfg"]

    def test_unknown_label_writes_no_report(self, cfg_file, tmp_path):
        out = tmp_path / "d"
        assert cli.main(["diagnose", str(cfg_file), "nope",
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert cli.main(["diagnose", str(cfg_file),
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == ["events.jsonl"]
        assert _events(out) == []


class TestValidate:
    def test_ball_passes(self, cfg_file, tmp_path):
        rc = cli.main(["validate", str(cfg_file),
                       "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "v" / "report.json").read_text())
        assert rep["passed"] and all(c["passed"] for c in rep["checks"])

    def test_nonconvex_fails_with_witness(self, tmp_path):
        cfg = tmp_path / "bad_domain.cfg"
        cfg.write_text("[domain]\nname = perturbed_ball\nparams = 1.5\n"
                       "eps = 0.1\n\n[output]\ndir = " +
                       str(tmp_path / "w") + "\n")
        rc = cli.main(["validate", str(cfg)])
        assert rc == cli.EXIT_CHECK
        rep = json.loads((tmp_path / "w" / "report.json").read_text())
        conv = [c for c in rep["checks"] if c["check"] == "domain_convexity"]
        assert conv and not conv[0]["passed"]
        assert "Hessian" in conv[0]["witness"] or "z =" in conv[0]["witness"]


class TestDiagnose:
    def test_report_files(self, cfg_file, tmp_path):
        rc = cli.main(["diagnose", str(cfg_file), "z1",
                       "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "d" / "report.json").exists()
        assert (tmp_path / "d" / "ek_table.csv").exists()
        rep = json.loads((tmp_path / "d" / "report.json").read_text())
        assert rep["verdicts"]["1"] == "converging"
        assert rep["quadrature_floor"]
        # the sweep's sizes and the phase timings are logged, not reported
        assert "log" not in rep
        start, sweep = (json.loads(e) for e in _events(tmp_path / "d"))
        assert start == {"command": "diagnose", "function": "z1", "step": 1}
        assert sweep["mesh_rows"] == rep["meta"]["grid_size"] == 221760
        assert sweep["leaves"] == 8 and sweep["leaf_rows"] == [27720] * 8
        assert [(v["k"], v["method"]) for v in sweep["levels"]] == \
            [(k, "direct") for k in (1, 2, 3, 4)]
        # every level projects from the top level's 15 x 30 x 30 mesh
        assert [v["nodes"] for v in sweep["levels"]] == [13500] * 4
        assert all(v["projection_s"] > 0 for v in sweep["levels"])
        assert sweep["sweep_s"] > 0

    def test_three_levels_read_a_verdict(self, cfg_file, tmp_path):
        # k_range = 1 2 3, the fewest levels the config accepts, gives the
        # tail ratio its three partial sums
        cfg_file.write_text(cfg_file.read_text().replace(
            "k_range = 1 2 3 4", "k_range = 1 2 3"))
        rc = cli.main(["diagnose", str(cfg_file), "z1",
                       "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "d" / "report.json").read_text())
        assert rep["k_list"] == [1, 2, 3]
        assert rep["verdicts"] == {"1": "converging", "2": "converging"}

    def test_determinism_byte_identical(self, cfg_file, tmp_path):
        for tag in ("r1", "r2"):
            rc = cli.main(["diagnose", str(cfg_file), "(1-z1)^0.6",
                           "--out", str(tmp_path / tag)])
            assert rc == cli.EXIT_OK
        a = (tmp_path / "r1" / "report.json").read_bytes()
        b = (tmp_path / "r2" / "report.json").read_bytes()
        assert a == b
        assert (tmp_path / "r1" / "ek_table.csv").read_bytes() == \
            (tmp_path / "r2" / "ek_table.csv").read_bytes()


class TestEventLog:
    def test_one_line_per_event_and_stale_log_cleared(self, cfg_file,
                                                       tmp_path):
        out = tmp_path / "e"
        assert cli.main(["kernel", str(cfg_file), "--out", str(out)]) == \
            cli.EXIT_OK
        # step 0 is the environment line
        assert _events(out) == [
            json.dumps({"command": "kernel", "k": k, "step": i})
            for i, k in enumerate((8, 16, 32, 64), start=1)]
        # a run that logs nothing leaves only its environment line, not the
        # previous log
        assert cli.main(["diagnose", str(cfg_file), "nope",
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert _events(out) == []

    def test_environment_line_reads_back(self, cfg_file, tmp_path):
        import numpy as np

        out = tmp_path / "e"
        assert cli.main(["diagnose", str(cfg_file), "nope",
                         "--out", str(out)]) == cli.EXIT_USAGE
        first = json.loads(
            (out / "events.jsonl").read_text().splitlines()[0])
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert first == {"step": 0, "environment": {
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "blas_threads": 1,
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}}

    @pytest.mark.parametrize("then", ["usage", "numeric"])
    def test_no_stale_outputs(self, cfg_file, tmp_path, then):
        # a run starts without an earlier run's report and tables: a usage
        # error leaves only its empty log, a numerical failure only its
        # error report; files the CLI does not write stay
        out = tmp_path / "o"
        assert cli.main(["kernel", str(cfg_file), "--out", str(out)]) == \
            cli.EXIT_OK
        (out / "notes.txt").write_text("kept")
        if then == "usage":
            assert cli.main(["diagnose", str(cfg_file), "nope",
                             "--out", str(out)]) == cli.EXIT_USAGE
            left = ["events.jsonl", "notes.txt"]
        else:
            bad = tmp_path / "nonconvex.cfg"
            bad.write_text(NONCONVEX_CFG.format(out=out))
            assert cli.main(["kernel", str(bad)]) == cli.EXIT_NUMERIC
            assert "error" in json.loads((out / "report.json").read_text())
            left = ["events.jsonl", "notes.txt", "report.json"]
        assert sorted(p.name for p in out.iterdir()) == left


class TestOtherCommands:
    def test_kernel_trend(self, cfg_file, tmp_path):
        rc = cli.main(["kernel", str(cfg_file),
                       "--out", str(tmp_path / "k")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "k" / "report.json").read_text())
        assert rep["c_far_log_slope"] <= 0.1
        assert (tmp_path / "k" / "c_far_trend.csv").exists()

    def test_continuation_budget(self, cfg_file, tmp_path):
        rc = cli.main(["continuation", str(cfg_file),
                       "--out", str(tmp_path / "c")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "c" / "report.json").read_text())
        assert rep["max_rel_err"] <= 1e-2

    def test_continuation_phase_event(self, cfg_file, tmp_path, monkeypatch):
        # the collar's size, its stream blocks and the two phases' seconds
        # go to the event log only; the block size leaves the report bytes
        reports = []
        for rows in (4096, 5000):
            monkeypatch.setattr(dom, "_PROJECT_ROWS", rows)
            out = tmp_path / str(rows)
            assert cli.main(["continuation", str(cfg_file),
                             "--out", str(out)]) == cli.EXIT_OK
            reports.append((out / "report.json").read_bytes())
            rep = json.loads(reports[-1])
            (event,) = (json.loads(e) for e in _events(out))
            timings = {k: event.pop(k) for k in ("shell_s", "reconstruct_s")}
            assert all(v > 0 for v in timings.values())
            assert event == {
                "command": "continuation", "shell_nodes": rep["shell_nodes"],
                "block_rows": rows,
                "blocks": math.ceil(rep["shell_nodes"] / rows), "step": 1}
            assert not {"block_rows", "blocks", "shell_s"} & set(rep)
        assert reports[0] == reports[1]

    def test_area_homogeneity_and_envelope(self, cfg_file, tmp_path):
        rc = cli.main(["area", str(cfg_file), "--out", str(tmp_path / "a")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["spread"] <= 50

    @pytest.mark.parametrize("seed", [0, 7])
    def test_area_passes_at_seed(self, tmp_path, seed):
        # uniformly random centers missed the spike at these seeds
        cfg = tmp_path / "area.cfg"
        cfg.write_text(BASE_CFG.replace("seed = 3", f"seed = {seed}")
                       .format(out=tmp_path / "out"))
        rc = cli.main(["area", str(cfg), "--out", str(tmp_path / "a")])
        assert rc == cli.EXIT_OK
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["spread"] <= 50 and not rep["monotone_blowup"]

    def test_area_event_counts(self, tmp_path):
        # the region bank of 42 centres on the ball at seed 0, its kernel
        # evaluations (points x 2,916 grid nodes), and the homogeneity
        # call's, which samples the bank's first region again
        cfg = tmp_path / "area.cfg"
        cfg.write_text(BASE_CFG.replace("seed = 3", "seed = 0")
                       .format(out=tmp_path / "out"))
        out = tmp_path / "a"
        assert cli.main(["area", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert [json.loads(e) for e in _events(out)] == [{
            "command": "area", "members": 4, "rays": 96768,
            "points": 24192, "kernel_evals": 70543872,
            "homogeneity_kernel_evals": 1679616, "step": 1}]

    def test_area_peak_memory(self, tmp_path, traced_peak_mib):
        # about 41 MiB with whole-bank region probing and 512-row kernel
        # chunks; the command's path must stay in blocks
        cfg = tmp_path / "area.cfg"
        cfg.write_text(BASE_CFG.replace("seed = 3", "seed = 0")
                       .format(out=tmp_path / "out"))
        peak = traced_peak_mib(lambda: cli.main(
            ["area", str(cfg), "--out", str(tmp_path / "a")]))
        assert peak <= 24.0

    def test_console_entry_point(self, cfg_file, tmp_path):
        import hsconvex

        env = {**os.environ,
               "PYTHONPATH": str(Path(hsconvex.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "hsconvex.cli", "validate",
             str(cfg_file), "--out", str(tmp_path / "sub")],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr


def test_threads_variable_reaches_blas_before_numpy():
    # record the BLAS thread variables when numpy is first imported, with
    # only HSCONVEX_THREADS set
    import hsconvex

    script = """
import os, sys
assert "numpy" not in sys.modules
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")])
sys.meta_path.insert(0, Spy())
import hsconvex.cli
print(seen)
"""
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["HSCONVEX_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(hsconvex.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[['1', '1', '1']]"


def test_environment_line_records_threads_in_effect(tmp_path, cfg_file):
    # with none of the thread variables set, the log records the one-thread
    # default the package put in effect, not the empty environment
    import hsconvex

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(hsconvex.__file__).parents[1])
    out = tmp_path / "sub"
    run = subprocess.run(
        [sys.executable, "-m", "hsconvex.cli", "diagnose", str(cfg_file),
         "nope", "--out", str(out)], env=env, capture_output=True,
        text=True, timeout=120)
    assert run.returncode == cli.EXIT_USAGE, run.stderr
    first = json.loads((out / "events.jsonl").read_text().splitlines()[0])
    assert first["environment"]["threads"] == {
        "HSCONVEX_THREADS": None, "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_environment_line_records_the_blas_count(tmp_path, cfg_file):
    # the BLAS reads the thread variables once, when numpy loads: with
    # HSCONVEX_THREADS=2 the package asks for two threads and the BLAS
    # itself reports them (one on a one-core machine, where OpenBLAS caps
    # the count); the report does not hold the count
    import hsconvex

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["HSCONVEX_THREADS"] = "2"
    env["PYTHONPATH"] = str(Path(hsconvex.__file__).parents[1])
    out = tmp_path / "sub"
    run = subprocess.run(
        [sys.executable, "-m", "hsconvex.cli", "kernel", str(cfg_file),
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=300)
    assert run.returncode == cli.EXIT_OK, run.stderr
    first = json.loads((out / "events.jsonl").read_text().splitlines()[0])
    assert first["environment"]["blas_threads"] == \
        min(2, len(os.sched_getaffinity(0)))
    assert "blas_threads" not in (out / "report.json").read_text()


def test_diagnose_and_kernel_leave_numpy_ma_unimported(tmp_path, cfg_file):
    # np.unique imports numpy.ma (np.ma.is_masked); validate still does,
    # through np.percentile
    import hsconvex

    script = """
import sys
from hsconvex import cli
cfg, out = sys.argv[1:]
for i, argv in enumerate((["diagnose", cfg, "z1"],
                          ["diagnose", cfg, "(1-z1)^0.6"], ["kernel", cfg])):
    assert cli.main(argv + ["--out", f"{out}/{i}"]) == cli.EXIT_OK
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(hsconvex.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, str(cfg_file),
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize("lib", [False, True])
def test_blas_without_its_getter_reads_unknown(monkeypatch, tmp_path, lib):
    # a numpy whose wheel ships no OpenBLAS library next to it, or one
    # whose library has no getter
    fake = tmp_path / "site" / "numpy" / "__init__.py"
    fake.parent.mkdir(parents=True)
    fake.touch()
    if lib:
        (tmp_path / "site" / "numpy.libs").mkdir()
        (tmp_path / "site" / "numpy.libs" / "libscipy_openblas-x.so").touch()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(cli.np, "__file__", str(fake))
    assert cli.blas_threads() == "unknown"


def test_default_threads_write_one_thread_bytes(tmp_path):
    # with none of the thread variables set, kernel writes the bytes of a
    # HSCONVEX_THREADS=1 run (the BLAS would otherwise take every core)
    import hsconvex

    cfg = tmp_path / "kernel.cfg"
    cfg.write_text(BASE_CFG.replace("name = ball", "name = ellipsoid")
                   .format(out=tmp_path / "unused"))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(hsconvex.__file__).parents[1])
    files = []
    for name, extra in (("unset", {}), ("one", {"HSCONVEX_THREADS": "1"})):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "hsconvex.cli", "kernel", str(cfg),
             "--out", str(out)], env={**env, **extra},
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        files.append([(out / f).read_bytes()
                      for f in ("report.json", "c_far_trend.csv")])
    assert files[0] == files[1]
