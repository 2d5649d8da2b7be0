import json
import math
import subprocess
import sys

import numpy as np
import pytest

from affquant import HalfLineFunction, GridSpec, gaussian_pq
from affquant import io as aio
from affquant.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestOrbitCommand:
    def test_point_orbit(self, capsys):
        code, out = run_cli(capsys, "orbit", "--x", "3", "--y", "0")
        assert code == 0 and "point orbit" in out and "3" in out

    def test_trivial_action(self, capsys):
        code, out = run_cli(capsys, "orbit", "--x", "0", "--y", "1",
                            "--act", "a=1,b=0", "--json")
        rec = json.loads(out)
        assert rec["orbit"] == "upper"
        assert rec["point"] == {"x": "0", "y": "1"}

    def test_exponential_action(self, capsys):
        code, out = run_cli(capsys, "orbit", "--x", "0", "--y", "1",
                            "--act-exp", "alpha=1,beta=1", "--json")
        rec = json.loads(out)
        assert float(rec["point"]["x"]) == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert float(rec["point"]["y"]) == pytest.approx(math.exp(-1), rel=1e-12)
        assert rec["orbit"] == "upper"


class TestStarCommand:
    P = '[{"m": 1, "k": 0, "re": "1", "im": "0"}]'
    EQ = '[{"m": 0, "k": 1, "re": "1", "im": "0"}]'
    IP = '[{"m": 1, "k": 0, "re": "0", "im": "1"}]'
    IEQ = '[{"m": 0, "k": 1, "re": "0", "im": "1"}]'

    def test_product(self, capsys):
        code, out = run_cli(capsys, "star", "--u", self.P, "--v", self.EQ)
        assert code == 0
        assert json.loads(out) == [{"m": 0, "k": 1, "re": "0", "im": "-1/2"},
                                   {"m": 1, "k": 1, "re": "1", "im": "0"}]

    def test_unit(self, capsys):
        one = '[{"m": 0, "k": 0, "re": "1", "im": "0"}]'
        code, out = run_cli(capsys, "star", "--u", one, "--v", self.EQ)
        assert json.loads(out) == json.loads(self.EQ)

    def test_commutator(self, capsys):
        code, out = run_cli(capsys, "star", "--u", self.IP, "--v", self.IEQ,
                            "--commutator")
        assert json.loads(out) == [{"m": 0, "k": 1, "re": "0", "im": "1"}]

    def test_malformed_json(self, capsys):
        code = main(["star", "--u", "{oops", "--v", self.EQ])
        assert code == 2


class TestLhatCommand:
    def test_prints_both_forms(self, capsys):
        code, out = run_cli(capsys, "lhat", "--alpha", "1", "--beta", "2", "--json")
        rec = json.loads(out)
        assert "d/ds" in rec["s_form"] and "exp(q - x/2)" in rec["xq_form"]

    def test_applies_to_grid_file(self, capsys, tmp_path):
        spec = GridSpec(n_p=32, n_q=16)
        v = gaussian_pq(spec, taper=False)
        from affquant import partial_fourier
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        aio.write_grid_csv(partial_fourier(v, tail_warn=None), src)
        code, out = run_cli(capsys, "lhat", "--alpha", "0", "--beta", "1",
                            "--apply", str(src), "--out", str(dst))
        assert code == 0
        result = aio.read_grid_csv(dst)
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        expected = 1j * np.exp(q - x / 2) * partial_fourier(v, tail_warn=None).values
        assert np.allclose(result.values, expected, rtol=1e-12, atol=1e-15)

    def test_apply_without_out_rejected_before_reading(self, capsys, tmp_path):
        missing = tmp_path / "absent.csv"
        code = main(["lhat", "--alpha", "1", "--beta", "0", "--apply", str(missing)])
        assert code == 2
        assert "--out is required" in capsys.readouterr().err


class TestRepCommand:
    def test_flow_and_evolve_agree(self, capsys, tmp_path):
        f = HalfLineFunction.gaussian(sigma=1, s_max=6.0, n=512)
        src = tmp_path / "f.csv"
        aio.write_halfline_csv(f, src)
        flow_out = tmp_path / "flow.csv"
        evolve_out = tmp_path / "evolve.csv"
        assert main(["rep", "--input", str(src), "--out", str(flow_out),
                     "--flow", "alpha=1,beta=1,t=0.3"]) == 0
        assert main(["rep", "--input", str(src), "--out", str(evolve_out),
                     "--evolve", "alpha=1,beta=1,t=0.3",
                     "--backend", "characteristics", "--steps", "200"]) == 0
        a = aio.read_halfline_csv(flow_out)
        b = aio.read_halfline_csv(evolve_out)
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_apply_group_element(self, capsys, tmp_path):
        f = HalfLineFunction.gaussian(sigma=-1, s_max=6.0, n=512)
        src = tmp_path / "f.csv"
        dst = tmp_path / "g.csv"
        aio.write_halfline_csv(f, src)
        assert main(["rep", "--input", str(src), "--out", str(dst),
                     "--apply", "a=1,b=2"]) == 0
        out = aio.read_halfline_csv(dst)
        assert np.allclose(np.abs(out.values), np.abs(f.values), atol=1e-15)


class TestVerifyCommand:
    def test_reports_are_deterministic(self, capsys, tmp_path):
        r1 = tmp_path / "r1.jsonl"
        r2 = tmp_path / "r2.jsonl"
        assert main(["verify", "lie-hom", "--seed", "42", "--out", str(r1)]) == 0
        capsys.readouterr()
        assert main(["verify", "lie-hom", "--seed", "42", "--out", str(r2)]) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_record_shape(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        main(["verify", "lie-hom", "--out", str(report)])
        capsys.readouterr()
        for line in report.read_text().strip().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"test", "params", "discrepancy", "tolerance", "pass"}

    def test_exit_code_contract(self, capsys, tmp_path, monkeypatch):
        # an impossible tolerance must flip the exit code
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol_exp_group": 0.0}))
        monkeypatch.setenv("AFFQUANT_CONFIG", str(cfg))
        code = main(["verify", "lie-hom"])
        out = capsys.readouterr().out
        assert code == 1 and "FAIL" in out

    def test_csv_report(self, capsys, tmp_path):
        report = tmp_path / "r.csv"
        main(["verify", "lie-hom", "--format", "csv", "--out", str(report)])
        capsys.readouterr()
        header = report.read_text().splitlines()[0]
        assert header == "test,discrepancy,tolerance,pass"

    def test_exponentiate_suite_narrowed_to_one_case(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        code = main(["verify", "exponentiate", "--alpha", "1", "--beta", "1",
                     "--t", "0.5", "--sigma", "plus", "--out", str(report)])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 3
        rk4 = next(r for r in records if r["test"] == "exponentiate_rk4")
        assert rk4["params"]["alpha"] == 1.0 and rk4["params"]["t"] == 0.5
        assert rk4["discrepancy"] < 1e-6


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "affquant.cli",
                           "orbit", "--x", "1", "--y", "-2", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["orbit"] == "lower"
