import json
import subprocess
import sys
from pathlib import Path

import pytest

from hsconvex import cli


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

    def test_console_entry_point(self, cfg_file, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "hsconvex.cli", "validate",
             str(cfg_file), "--out", str(tmp_path / "sub")],
            capture_output=True, text=True)
        assert out.returncode == 0
