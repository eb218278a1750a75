import contextlib
import io
import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellrand import belltest as bt
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand.cli import COMMANDS, SCENARIOS, main

PI_2 = "1.5707963267948966"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestSelftest:
    def test_single_maximal_angle(self, capsys):
        code, out = run(capsys, ["selftest", "--theta", PI_2])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == 2
        assert doc["all_pass"]
        rep = doc["reports"][0]
        for key in ("I", "J", "S"):
            assert abs(rep[key] - 2 * math.sqrt(2)) <= 1e-12

    def test_default_grid_passes_quickly(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, ["selftest", "--theta-grid", "50"])
        elapsed = time.perf_counter() - start
        doc = json.loads(out)
        assert code == 0
        assert len(doc["reports"]) == 50
        assert doc["all_pass"]
        assert elapsed < 5.0

    def test_invalid_theta_is_usage_error(self, capsys):
        code = main(["selftest", "--theta", "2.0"])
        assert code == 2

    def test_impossible_tolerance_gives_numeric_failure(self, capsys):
        code, out = run(capsys, ["selftest", "--theta", PI_2, "--tol", "bell_residual=1e-30"])
        assert code == 1
        assert not json.loads(out)["all_pass"]

    def test_unknown_tolerance_key_is_usage_error(self):
        assert main(["selftest", "--theta", PI_2, "--tol", "bogus=1"]) == 2


class TestCertify:
    def test_local_povm_two_bits(self, capsys):
        code, out = run(capsys, ["certify", "--scenario", "local_povm", "--theta", "0.4"])
        doc = json.loads(out)
        assert code == 0
        rep = doc["reports"][0]
        assert abs(rep["min_entropy_bits"] - 2.0) <= 1e-9
        assert rep["bound_type"] == "attained"

    def test_global_projective_two_bits(self, capsys):
        code, out = run(capsys, ["certify", "--scenario", "global_projective", "--theta", "1.1"])
        doc = json.loads(out)
        assert code == 0
        rep = doc["reports"][0]
        assert abs(rep["min_entropy_bits"] - 2.0) <= 1e-9

    def test_global_povm_lower_witness(self, capsys):
        code, out = run(
            capsys,
            ["certify", "--scenario", "global_povm", "--theta", PI_2, "--epsilon", "1e-4"],
        )
        doc = json.loads(out)
        assert code == 0
        rep = doc["reports"][0]
        assert rep["bound_type"] == "lower_witness"
        assert rep["epsilon"] == 1e-4
        assert rep["max_entry"] <= 1 / 12 + 10 * 1e-4
        assert rep["target_bits"] >= 3.5849
        assert rep["min_entropy_bits"] >= -math.log2(1 / 12 + 10 * 1e-4)

    def test_missing_scenario_is_usage_error(self):
        assert main(["certify", "--theta", "0.5"]) == 2

    def test_csv_format_is_usage_error(self):
        assert main(["certify", "--scenario", "local_povm", "--format", "csv"]) == 2


class TestAttack:
    def test_default_pair(self, capsys):
        code, out = run(capsys, ["attack", "--theta", PI_2])
        doc = json.loads(out)
        assert code == 0
        rep = doc["reports"][0]
        assert rep["average_vs_ideal_max_dev"] <= 1e-10
        assert rep["zero_entry_value"] <= 1e-10
        assert abs(rep["cap_bits"] - 3.9527) <= 1e-4
        assert rep["cap_bits"] < 4.0

    def test_seed_replay_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["attack", "--theta", "0.9", "--out", str(out_a)]) == 0
        assert main(["attack", "--theta", "0.9", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSweep:
    def test_csv_structure_and_monotone_beta(self, capsys):
        code, out = run(capsys, ["sweep", "--theta-grid", "20"])
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "theta" and header[1] == "beta" and header[-1] == "status"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        betas = [float(r[1]) for r in rows]
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
        assert all(r[-1] == "ok" for r in rows)
        # final row sits at the maximally entangled angle
        assert abs(float(rows[-1][0]) - math.pi / 2) <= 1e-12
        assert abs(betas[-1]) <= 1e-12

    def test_hundred_point_runtime(self, capsys):
        start = time.perf_counter()
        code, _ = run(capsys, ["sweep", "--theta-grid", "100"])
        assert code == 0
        assert time.perf_counter() - start < 30.0

    def test_json_format(self, capsys):
        code, out = run(capsys, ["sweep", "--theta-grid", "3", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert len(doc["rows"]) == 3

    def test_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--theta-grid", "10", "--out", str(out_a)]) == 0
        assert main(["sweep", "--theta-grid", "10", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=0.4\ntol.bell_residual=1e-8\n", encoding="utf-8")
        code, out = run(capsys, ["selftest", "--config", str(cfg)])
        doc = json.loads(out)
        assert code == 0
        assert doc["tolerances"]["bell_residual"] == 1e-8
        assert abs(doc["reports"][0]["theta"] - 0.4) <= 1e-15

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=0.4\n", encoding="utf-8")
        code, out = run(capsys, ["selftest", "--config", str(cfg), "--theta", "0.9"])
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["reports"][0]["theta"] - 0.9) <= 1e-15

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta 0.4\n", encoding="utf-8")
        assert main(["selftest", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_tolerance_does_not_reach_the_next_call(self, capsys, tmp_path, via_config):
        # One parser serves every call in a process; a parse leaves nothing in it.
        argv = ["selftest", "--theta", "0.8"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("tol.spectral=1e-8\n", encoding="utf-8")
            first = argv + ["--config", str(cfg)]
        else:
            first = argv + ["--tol", "spectral=1e-8"]
        _, out = run(capsys, first)
        assert json.loads(out)["tolerances"]["spectral"] == 1e-8
        _, out = run(capsys, argv)
        assert json.loads(out)["tolerances"]["spectral"] == mk.IDENTITY_TOL

    def test_reports_embed_tolerances(self, capsys):
        argv = {
            "selftest": ["selftest"],
            "certify": ["certify", "--scenario", "local_povm"],
            "attack": ["attack"],
            "sweep": ["sweep", "--format", "json"],
        }
        for name, spec in COMMANDS.items():
            _, out = run(capsys, argv[name] + ["--theta", "0.8"])
            block = json.loads(out)["tolerances"]
            assert block == spec.tolerances, name
        # The tier defaults keep the values each bound had before the tiers.
        assert {name: spec.tolerances for name, spec in COMMANDS.items()} == {
            "selftest": {"bell_residual": 1e-10, "spectral": 1e-10},
            "certify": {"uniform": 1e-12, "min_entropy": 1e-9},
            "attack": {"attack": 1e-10},
            "sweep": {},
        }


REFUSED = [
    ["selftest", "--theta-grid", "0"],
    ["selftest", "--theta-grid", "-1"],
    ["selftest", "--theta", ","],
    ["selftest", "--theta", "1", "--tol", "spectral=nan"],
    ["selftest", "--theta", "1", "--tol", "spectral=inf"],
    ["selftest", "--theta", "1", "--tol", "spectral=-1"],
    ["selftest", "--theta", "1", "--tol", "herm=1e-12"],
    ["selftest", "--tol", "attack=1e-9"],
    ["sweep", "--tol", "attack=1"],
    ["selftest", "--epsilon", "0.5"],
    ["attack", "--epsilon", "0.5"],
    ["selftest", "--config", "thetta=0.4"],
    ["selftest", "--config", "config=other.cfg"],
    ["attack", "--seed", "7"],
    ["selftest", "--config", "seed=3"],
]


class TestRefusedInput:
    @pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
    def test_refused_with_one_error_line(self, capsys, tmp_path, argv):
        if argv[-2] == "--config":  # the case holds the file's one line in place of its path
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[-1] + "\n", encoding="utf-8")
            argv = argv[:-1] + [str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_contract_violation_exits_3(self, capsys, monkeypatch):
        def broken(thetas, epsilon=None):
            raise ValueError("eigh requires a Hermitian matrix")

        monkeypatch.setattr(bt, "bell_batch", broken)
        assert main(["selftest", "--theta", "0.7"]) == 3
        assert "contract" in capsys.readouterr().err
        # A refused flag is still a usage error, found before any library call.
        assert main(["selftest", "--theta", "0.7", "--epsilon", "0.5"]) == 2


class TestAngles:
    @pytest.mark.parametrize(
        "argv", [["certify", "--scenario", "local_povm"], ["attack"]], ids=" ".join
    )
    def test_theta_grid_is_honoured(self, capsys, argv):
        code, out = run(capsys, argv + ["--theta-grid", "3"])
        assert code == 0
        thetas = [rep["theta"] for rep in json.loads(out)["reports"]]
        assert thetas == [float(t) for t in qo.theta_grid(3)]

    def test_config_supplies_scenario(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario=global_povm\ntheta=0.4\n", encoding="utf-8")
        code, out = run(capsys, ["certify", "--config", str(cfg)])
        doc = json.loads(out)
        assert code == 0
        assert doc["scenario"] == "global_povm"
        assert [rep["theta"] for rep in doc["reports"]] == [0.4]

    def test_rounded_right_angle_is_right_angle(self, capsys):
        # 3.6e-15 above pi/2: rounding of pi/2, where beta must not go negative.
        code, out = run(capsys, ["selftest", "--theta", "1.5707963267949"])
        rep = json.loads(out)["reports"][0]
        assert code == 0
        assert rep["theta"] == math.pi / 2 and rep["beta"] >= 0.0
        code, out = run(capsys, ["sweep", "--theta", "1.5707963267949", "--format", "json"])
        row = json.loads(out)["rows"][0]
        assert code == 0
        assert row["status"] == "ok" and row["beta"] >= 0.0


class TestAngleDomain:
    FORMS = (
        ["selftest"],
        ["sweep", "--format", "json"],
        *(["certify", "--scenario", sc] for sc in SCENARIOS),
        ["attack"],
    )

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=25, deadline=None)
    @given(st.floats(math.log(qo.THETA_MIN), math.log(math.pi / 2)).map(math.exp))
    @example(qo.THETA_MIN)
    @example(math.pi / 2)
    def test_every_command_runs_on_every_accepted_angle(self, theta):
        # exp may round past either end
        self.assert_accepted(min(max(theta, qo.THETA_MIN), math.pi / 2))

    # both lie below the angle where beta rounds to 2, the floor of the beta-carried model
    @pytest.mark.parametrize("theta", [1e-9, 1.05e-8], ids=repr)
    def test_every_command_accepts_angles_below_the_old_floor(self, theta):
        self.assert_accepted(theta)

    def assert_accepted(self, theta):
        docs = []
        for command in self.FORMS:
            code, out, err = self.call([*command, "--theta", repr(theta)])
            assert code == 0, (command, theta, err)
            docs.append(json.loads(out))
        assert docs[0]["reports"][0]["beta"] == docs[1]["rows"][0]["beta"]

    def assert_refused(self, theta):
        for command in self.FORMS:
            code, out, err = self.call([*command, "--theta", theta])
            assert code == 2, (command, theta)
            assert out == "" and f"{theta!r} is not an angle in [{qo.THETA_MIN!r}, pi/2]" in err

    @pytest.mark.parametrize("theta", ["0", "5e-324", repr(float(np.nextafter(qo.THETA_MIN, 0)))])
    def test_every_command_refuses_angles_below_the_floor(self, theta):
        self.assert_refused(theta)

    def test_every_command_refuses_angles_above_pi_2(self):
        self.assert_refused(repr(math.pi / 2 + 1e-9))


class TestGates:
    def test_selftest_gates_the_spectrum(self, capsys, monkeypatch):
        exact = mk.eigh

        def shifted(m):
            w, v = exact(m)
            w[..., 1] += 1e-3
            return w, v

        monkeypatch.setattr(mk, "eigh", shifted)
        code, out = run(capsys, ["selftest", "--theta", "0.7"])
        rep = json.loads(out)["reports"][0]
        assert code == 1
        assert abs(rep["eigenvalue_residual"] - 1e-3) <= 1e-12
        assert not rep["pass"]

    def test_selftest_gates_the_recovered_angle(self, capsys, monkeypatch):
        code, out = run(capsys, ["selftest", "--theta", "1e-7,0.5"])
        rep = json.loads(out)["reports"][0]
        assert code == 0
        assert abs(rep["theta_recovered"] / rep["theta"] - 1) <= 1e-15
        assert abs(rep["delta"] / (2 * 1e-7**2) - 1) <= 1e-13

        def arcsin_recovery(beta, delta):
            # the recovery through beta alone, which cancels in 4 - beta^2
            return np.arcsin(np.sqrt((4.0 - beta**2) / (4.0 + beta**2)))

        monkeypatch.setattr(bt, "_recovered_angle", arcsin_recovery)
        code, out = run(capsys, ["selftest", "--theta", "1e-7,0.5"])
        doc = json.loads(out)
        rep = doc["reports"][0]
        assert code == 1
        assert doc["failing_thetas"] == [1e-7]
        assert not rep["pass"] and doc["reports"][1]["pass"]
        assert abs(rep["theta_recovered"] / rep["theta"] - 1) > 1e-3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_error_row_keeps_its_columns(self, capsys, monkeypatch, fmt):
        def broken(thetas, epsilon=None):
            raise ValueError("dims (2, 2) and (4,\n4) differ")

        monkeypatch.setattr(bt, "bell_batch", broken)
        code, out = run(capsys, ["sweep", "--theta", "0.5,0.9", "--format", fmt])
        assert code == 3
        status = "error:ValueError:dims (2; 2) and (4; 4) differ"
        if fmt == "json":
            assert [row["status"] for row in json.loads(out)["rows"]] == [status, status]
            return
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert len(header) == 12
        assert [len(r) for r in rows] == [12, 12]
        assert [r[-1] for r in rows] == [status, status]

    def test_sweep_error_row_is_a_contract_violation(self, capsys, monkeypatch):
        def broken(thetas, epsilon=None):
            raise ValueError("eigh requires a Hermitian matrix")

        monkeypatch.setattr(bt, "bell_batch", broken)
        assert main(["sweep", "--theta", "0.5,0.9"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: library contract violated: 2 of 2 sweep rows failed")
        assert "theta=0.5" in lines[0]


def test_sweep_keeps_the_rows_that_pass(capsys, monkeypatch):
    argv = ["sweep", "--theta", "0.5,0.9,1.2", "--format", "json"]
    _, out = run(capsys, argv)
    clean = json.loads(out)["rows"]
    exact = bt._bob_weights
    failing_wp = qo.tilt(0.9)[1]

    def corrupted(wp, wm):
        w = exact(wp, wm)
        w[wp == failing_wp] *= 1.001
        return w

    monkeypatch.setattr(bt, "_bob_weights", corrupted)
    code = main(argv)
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert code == 3
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    assert rows[1]["status"].startswith("error:ValueError:observable 'B1' fails O^2 = I at theta=0.9")
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: library contract violated: 1 of 3 sweep rows failed")
    assert "theta=0.9" in lines[0]


def readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("bellrand ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_runs(capsys, tmp_path, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
