import contextlib
import io
import json
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellrand import adversary as adv
from bellrand import belltest as bt
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import cli
from bellrand.cli import COMMANDS, SCENARIOS, main

PI_2 = "1.5707963267948966"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def strict_loads(text: str):
    """RFC 8259 JSON only: refuses the NaN and Infinity tokens that `json.loads` accepts."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


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
        # the default grid: at pi/2 alone every Bell residual is exactly 0
        code, out = run(capsys, ["selftest", "--tol", "bell_residual=1e-30"])
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

    def test_default_epsilon_is_reported(self, capsys):
        code, out = run(capsys, ["certify", "--scenario", "global_povm", "--theta", "0.9"])
        assert code == 0
        assert json.loads(out)["reports"][0]["epsilon"] == bt.DEFAULT_EPSILON

    def test_global_povm_lists_the_tolerances_it_reads(self, capsys):
        # its gate reads bell_residual and uniform, as every scenario's does
        argv = ["certify", "--scenario", "global_povm", "--theta", "0.9"]
        code, out = run(capsys, argv + ["--tol", "bell_residual=1e-8", "--tol", "uniform=1e-3"])
        assert code == 0
        assert json.loads(out)["tolerances"] == {"bell_residual": 1e-8, "uniform": 1e-3}

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

    def test_degenerate_pair_fails_the_run(self, capsys, monkeypatch):
        exact = adv.attack_rows

        def degenerate_at_0_9(theta, *args):
            rows = exact(theta, *args)
            reason = list(rows.reason)
            reason[theta.tolist().index(0.9)] = "no zero entry to force"
            return rows._replace(reason=reason)

        monkeypatch.setattr(adv, "attack_rows", degenerate_at_0_9)
        code, out = run(capsys, ["attack", "--theta", "0.5,0.9"])
        doc = json.loads(out)
        assert code == 1
        assert not doc["all_pass"]
        good, bad = doc["reports"]
        assert good["pass"] and not good["degenerate"]
        assert bad == {
            "theta": 0.9,
            "degenerate": True,
            "reason": "no zero entry to force",
            "pass": False,
        }

    def test_seed_replay_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["attack", "--theta", "0.9", "--out", str(out_a)]) == 0
        assert main(["attack", "--theta", "0.9", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest"],
        ["certify", "--scenario", "global_povm"],
        ["attack"],
        ["sweep"],
        ["sweep", "--format", "json"],
    ],
    ids=" ".join,
)
def test_out_writes_the_bytes_of_stdout(capsys, tmp_path, argv):
    argv = [*argv, "--theta", "0.4,1.1"]
    code, out = run(capsys, argv)
    path = tmp_path / "doc"
    assert main([*argv, "--out", str(path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


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

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_command_line_parsed_once(self, monkeypatch, capsys, tmp_path, via_config):
        # the file is read ahead of the one parse, so each argparse type runs once
        argv = ["certify", "--scenario", "local_povm", "--theta", "0.3,0.4"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("scenario=local_povm\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        calls, check_theta = [], cli.check_theta
        monkeypatch.setattr(cli, "check_theta", lambda t: calls.append(t) or check_theta(t))
        assert run(capsys, argv)[0] == 0
        assert len(calls) == 1

    def test_a_second_config_is_refused(self, capsys, tmp_path):
        # With the second file dropped, the first one's impossible tolerance would fail the run.
        c1, c2 = tmp_path / "c1.cfg", tmp_path / "c2.cfg"
        c1.write_text("tol.bell_residual=1e-30\n", encoding="utf-8")
        c2.write_text("theta=0.6\n", encoding="utf-8")
        assert main(["selftest", "--config", str(c1), "--config", str(c2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: argument --config: given 2 times; pass one config file\n"

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
        forms = [
            ["selftest"],
            *(["certify", "--scenario", sc] for sc in SCENARIOS),
            ["attack"],
            ["sweep", "--format", "json"],
        ]
        for argv in forms:
            _, out = run(capsys, argv + ["--theta", "0.8"])
            block = json.loads(out)["tolerances"]
            assert block == COMMANDS[argv[0]].tolerances, argv
        # The tier defaults keep the values each bound had before the tiers.
        assert {name: spec.tolerances for name, spec in COMMANDS.items()} == {
            "selftest": {"bell_residual": 1e-10, "spectral": 1e-10},
            "certify": {"bell_residual": 1e-10, "uniform": 1e-12},
            "attack": {"attack": 1e-10},
            "sweep": {},
        }


REFUSED = [
    ["selftest", "--theta-grid", "0"],
    ["selftest", "--theta-grid", "-1"],
    ["selftest", "--theta", ","],
    ["certify", "--scenario", "local_povm", "--theta", "0.3,,0.4"],
    ["certify", "--scenario", "local_povm", "--theta", "0.3,"],
    ["selftest", "--theta", "0.1,2.0,0.3"],
    ["selftest", "--theta", "1", "--tol", "spectral=nan"],
    ["selftest", "--theta", "1", "--tol", "spectral=inf"],
    ["selftest", "--theta", "1", "--tol", "spectral=-1"],
    ["selftest", "--theta", "1", "--tol", "herm=1e-12"],
    ["selftest", "--tol", "attack=1e-9"],
    ["sweep", "--tol", "attack=1"],
    ["selftest", "--epsilon", "0.5"],
    ["attack", "--epsilon", "0.5"],
    ["certify", "--scenario", "local_povm", "--epsilon", "0.5"],
    ["certify", "--scenario", "global_projective", "--epsilon", "1e-4"],
    ["sweep", "--theta", "0.5", "--epsilon", "1e-12"],
    ["certify", "--scenario", "local_povm", "--config", "epsilon=0.5"],
    ["certify", "--scenario", "global_projective", "--config", "epsilon=1e-4"],
    ["certify", "--scenario", "global_povm", "--theta", "0.7", "--tol", "min_entropy=1e-300"],
    ["certify", "--scenario", "global_povm", "--theta", "0.7", "--config", "tol.min_entropy=1"],
    ["certify", "--scenario", "local_povm", "--tol", "min_entropy=1e-9"],
    ["certify", "--scenario", "local_povm", "--config", "tol.min_entropy=1"],
    ["selftest", "--format", "json"],
    ["selftest", "--config", "thetta=0.4"],
    ["selftest", "--config", "config=other.cfg"],
    ["attack", "--seed", "7"],
    ["selftest", "--config", "seed=3"],
    ["sweep", "--theta", "0.5", "--theta-grid", "3"],
    ["selftest", "--theta", "0.5", "--config="],
    ["sweep", "--theta", "0.5", "--config", "theta_grid=3"],
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

    @pytest.mark.parametrize("epsilon, code", [("1e-12", 2), ("2e-9", 2), ("1e-8", 0)])
    def test_epsilon_must_leave_the_near_y_povm_extremal(self, capsys, epsilon, code):
        # its independence margin is about epsilon/2, and extremality needs it above RANK_TOL
        argv = ["certify", "--scenario", "global_povm", "--theta", "0.5", "--epsilon", epsilon]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("independence margin > 1e-09" in err) == (code == 2)

    def test_contract_violation_exits_3(self, capsys, monkeypatch):
        def broken(thetas):
            raise ValueError("eigh requires a Hermitian matrix")

        monkeypatch.setattr(bt, "selftest_columns", broken)
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

    @pytest.mark.parametrize(
        "angles, refused", [("0.1,2.0,0.3", "2.0"), ("0.4,abc,nan", "abc"), ("0.3,,0.4,", "")]
    )
    def test_a_refused_list_names_its_first_refused_text(self, angles, refused):
        for command in self.FORMS:
            code, out, err = self.call([*command, "--theta", angles])
            assert code == 2 and out == "", (command, angles)
            assert f"{refused!r} is not an angle in [{qo.THETA_MIN!r}, pi/2]" in err


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

    def test_certify_gates_the_4x3_witness_at_its_closed_form(self, capsys, monkeypatch):
        # the largest entry is (1 + epsilon)/12 at every angle, to the last few ulps
        argv = ["certify", "--scenario", "global_povm", "--theta", f"{qo.THETA_MIN!r},1e-9,0.4,1.1"]
        code, out = run(capsys, argv + ["--tol", "uniform=1e-15", "--epsilon", "0.5"])
        assert code == 0
        # Mercedes kets rotated by 1e-4 rad move it by about 1e-5, which 1/12 + 10 epsilon admits
        exact, c, s = qo.modified_mercedes_kets, math.cos(5e-5), math.sin(5e-5)
        rotated = np.array([[c, s], [-s, c]])
        monkeypatch.setattr(qo, "modified_mercedes_kets", lambda t: exact(t) @ rotated)
        code, out = run(capsys, argv)
        reports = json.loads(out)["reports"]
        assert code == 1 and not any(rep["pass"] for rep in reports)
        assert all(1e-6 < rep["deviation_from_limit"] <= 10 * 1e-4 for rep in reports)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_certify_gates_the_bell_residuals(self, capsys, monkeypatch, scenario):
        exact = bt.bell_values

        def corrupted(stack):
            rows = exact(stack)
            return rows._replace(residuals=rows.residuals + 1e-6)

        monkeypatch.setattr(bt, "bell_values", corrupted)
        argv = ["certify", "--scenario", scenario, "--theta", "0.4,1.1"]
        code, out = run(capsys, argv)
        doc = json.loads(out)
        assert code == 1
        assert doc["all_pass"] is False
        assert not any(rep["pass"] for rep in doc["reports"])
        assert min(doc["reports"][0]["bell_residuals"].values()) >= 1e-6
        # the key takes effect: a looser bound passes the same residuals
        code, out = run(capsys, [*argv, "--tol", "bell_residual=1e-3"])
        assert code == 0 and json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("scenario", ["local_povm", "global_projective"])
    def test_certify_gates_every_two_bit_table_at_uniform(self, capsys, monkeypatch, scenario):
        exact = bt.SCHEMES[scenario]

        def tilted(stack, epsilon):
            tables = exact(stack, epsilon).copy()  # the last: global_projective's unreported one
            flat = tables.reshape(*tables.shape[:2], -1)
            flat[:, -1, 0] += 1e-6
            flat[:, -1, 1] -= 1e-6
            return tables

        monkeypatch.setitem(bt.SCHEMES, scenario, tilted)
        argv = ["certify", "--scenario", scenario, "--theta", "0.4,1.1"]
        code, out = run(capsys, argv)
        doc = json.loads(out)
        assert code == 1 and doc["all_pass"] is False
        assert not any(rep["pass"] for rep in doc["reports"])
        assert all(abs(rep["uniform_deviation"] - 1e-6) <= 1e-12 for rep in doc["reports"])
        # the key takes effect: a looser bound passes the same tables
        code, out = run(capsys, [*argv, "--tol", "uniform=1e-3"])
        assert code == 0 and json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize(
        "clause, shift",
        [
            # P+ moves off its target, so the average leaves the ideal table by 5e-7
            ("average_vs_ideal_max_dev", {"p_plus": [(1, 1, 1e-6), (1, 2, -1e-6)]}),
            # 1e-6 moves from P+ to P- at the target, so the average stays ideal
            ("zero_entry_value", {"p_plus": [(0, 0, -1e-6)], "p_minus": [(0, 0, 1e-6)]}),
        ],
        ids=("average_vs_ideal_max_dev", "zero_entry_value"),
    )
    def test_attack_gates_each_table_clause(self, capsys, monkeypatch, clause, shift):
        exact = adv.attack_rows

        def shifted(*args):
            rows = exact(*args)
            assert (rows.target == 0).all()  # the entry (0, 0) is the forced zero
            tables = {name: getattr(rows, name).copy() for name in shift}
            for name, moves in shift.items():
                for a, b, by in moves:
                    tables[name][:, a, b] += by
            return rows._replace(**tables)

        monkeypatch.setattr(adv, "attack_rows", shifted)
        argv = ["attack", "--theta", "0.5,0.9"]
        code, out = run(capsys, argv)
        doc = json.loads(out)
        assert code == 1 and doc["all_pass"] is False
        assert not any(rep["pass"] for rep in doc["reports"])
        clauses = ("average_vs_ideal_max_dev", "zero_entry_value")
        values = {key: [rep[key] for rep in doc["reports"]] for key in clauses}
        assert all(1e-7 <= value <= 1e-6 for value in values.pop(clause))
        assert all(value <= 1e-15 for others in values.values() for value in others)
        # the key takes effect: a looser bound passes the same tables
        code, out = run(capsys, [*argv, "--tol", "attack=1e-3"])
        assert code == 0 and json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("key", bt.BELL_KEYS)
    @pytest.mark.parametrize(
        "argv",
        [["selftest"], *(["certify", "--scenario", sc] for sc in SCENARIOS)],
        ids=" ".join,
    )
    def test_a_nan_bell_residual_fails(self, capsys, monkeypatch, argv, key):
        # Python's max() skips a NaN after the first entry; the gate must not
        exact = bt.bell_values

        def nan_residual(stack):
            rows = exact(stack)
            residuals = rows.residuals.copy()
            residuals[:, bt.BELL_KEYS.index(key)] = math.nan
            return rows._replace(residuals=residuals)

        monkeypatch.setattr(bt, "bell_values", nan_residual)
        code, out = run(capsys, [*argv, "--theta", "0.7"])
        doc = json.loads(out)
        assert code == 1
        assert doc["all_pass"] is False and doc["reports"][0]["pass"] is False
        assert strict_loads(out) == doc  # NaN is written as null, which a strict parser reads

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_error_row_keeps_its_columns(self, capsys, monkeypatch, fmt):
        def broken(thetas):
            raise ValueError("dims (2, 2) and (4,\n4) differ")

        monkeypatch.setattr(bt, "bell_values", broken)
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
        def broken(thetas):
            raise ValueError("eigh requires a Hermitian matrix")

        monkeypatch.setattr(bt, "bell_values", broken)
        assert main(["sweep", "--theta", "0.5,0.9"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: library contract violated: 2 of 2 sweep rows failed")
        assert "theta=0.5" in lines[0]


NAN_J_STATUS = "error:ValueError:non-finite value nan exceeds 1e-12 at column 'J' at theta=0.9"


def nan_j_at_0_9(monkeypatch):
    """Patch `bt.bell_values` to give J = NaN at theta = 0.9."""
    exact = bt.bell_values

    def patched(stack):
        rows = exact(stack)
        values = rows.values.copy()
        values[stack.theta == 0.9, bt.BELL_KEYS.index("J")] = math.nan
        return rows._replace(values=values)

    monkeypatch.setattr(bt, "bell_values", patched)


def test_sweep_refuses_a_non_finite_value(capsys, monkeypatch):
    nan_j_at_0_9(monkeypatch)
    code, out = run(capsys, ["sweep", "--theta", "0.7,0.9", "--format", "json"])
    good, bad = strict_loads(out)["rows"]
    assert code == 3
    assert good["status"] == "ok" and math.isfinite(good["J"])
    assert bad == {"theta": 0.9, "status": NAN_J_STATUS}
    code, out = run(capsys, ["sweep", "--theta", "0.7,0.9"])
    *_, good, bad = out.splitlines()
    assert code == 3 and "nan" not in good and bad == f"{0.9:.17g}{',' * 11}{NAN_J_STATUS}"


def test_sweep_keeps_the_rows_that_pass(capsys, monkeypatch):
    argv = ["sweep", "--theta", "0.5,0.9,1.2", "--format", "json"]
    _, out = run(capsys, argv)
    clean = json.loads(out)["rows"]
    nan_j_at_0_9(monkeypatch)
    code = main(argv)
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert code == 3
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    assert rows[1]["status"] == NAN_J_STATUS
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: library contract violated: 1 of 3 sweep rows failed")
    assert "theta=0.9" in lines[0]


def readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## CLI", 1)[1]


def readme_cli_lines():
    block = readme_cli_section().split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("bellrand ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_runs(capsys, tmp_path, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0


class TestUniformBoundsTheMinEntropy:
    """Entries within u of 1/4 put the min-entropy within -log2(1 - 4u) of 2 bits (up to
    the rounding of -log2 next to 2), so `certify` gates a two-bit scheme at `uniform` alone."""

    SLACK = 2 * math.ulp(2.0)

    @staticmethod
    def bound(u: float) -> float:
        return -math.log1p(-4.0 * u) / math.log(2.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(math.log(qo.THETA_MIN), math.log(math.pi / 2)).map(math.exp))
    @example(qo.THETA_MIN)
    @example(1e-9)
    @example(math.pi / 2)
    def test_two_bit_reports(self, theta):
        theta = min(max(theta, qo.THETA_MIN), math.pi / 2)  # exp may round past either end
        for scenario in ("local_povm", "global_projective"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["certify", "--scenario", scenario, "--theta", repr(theta)])
            rep = json.loads(out.getvalue())["reports"][0]
            assert code == 0
            bound = self.bound(rep["uniform_deviation"]) + self.SLACK
            assert abs(rep["min_entropy_bits"] - 2.0) <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        st.floats(math.log(1e-17), math.log(0.24)).map(math.exp),
    )
    @example([1.0, -1.0, 0.0, 0.0], 1e-16)
    def test_perturbed_distributions(self, direction, scale):
        d = np.array(direction) - np.mean(direction)  # sums to 0
        assume(np.abs(d).max() > 0.0)
        p = 0.25 + scale * d / np.abs(d).max()
        u = float(np.abs(p - 0.25).max())
        bits = adv.min_entropy(p[None])[0]
        assert abs(bits - 2.0) <= self.bound(u) + self.SLACK


def test_readme_lists_each_commands_tolerance_keys():
    lines = readme_cli_section().splitlines()
    at = next(n for n, line in enumerate(lines) if "`--tol KEY=VAL` keys" in line)
    column = [cell.strip() for cell in lines[at].split("|")].index("`--tol KEY=VAL` keys")
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[at + 2 :]]
    rows = rows[: next(n for n, row in enumerate(rows) if len(row) == 1)]  # to the blank line
    listed = {row[1].strip("`"): re.findall(r"`(\w+)`", row[column]) for row in rows}
    assert listed == {name: list(spec.tolerances) for name, spec in COMMANDS.items()}


class TestEachCommandComputesWhatItReports:
    FORMS = {
        "selftest": ["selftest"],
        "sweep": ["sweep"],
        **{f"certify {sc}": ["certify", "--scenario", sc] for sc in SCENARIOS},
    }
    KETS = ("adjusted_tetrahedral_kets", "modified_mercedes_kets", "near_y_tetrahedral_kets")

    def calls(self, monkeypatch, capsys, argv):
        """How often `argv` calls `mk.eigh`, `mk.joint_table_kets`, `qo.ket_elements` and each
        `qobjects.*_kets` family."""
        counts = dict.fromkeys(("eigh", "joint_table_kets", "ket_elements", *self.KETS), 0)

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for module, name in ((mk, "eigh"), (mk, "joint_table_kets"), (qo, "ket_elements")):
                patch.setattr(module, name, counted(name, getattr(module, name)))
            for name in self.KETS:
                patch.setattr(qo, name, counted(name, getattr(qo, name)))
            code = main([*argv, "--theta", "0.4,1.1"])
        capsys.readouterr()
        assert code == 0
        return {name: n for name, n in counts.items() if n}

    def test_kernel_calls_per_command(self, monkeypatch, capsys):
        counts = {form: self.calls(monkeypatch, capsys, argv) for form, argv in self.FORMS.items()}
        tables = {"joint_table_kets"}  # the Bell basis table, and the projective tables
        assert {form: set(called) for form, called in counts.items()} == {
            "selftest": {"eigh", "ket_elements", *tables},
            "sweep": {*self.KETS, *tables},
            "certify local_povm": {"adjusted_tetrahedral_kets", *tables},
            "certify global_projective": tables,
            "certify global_povm": {"modified_mercedes_kets", "near_y_tetrahedral_kets", *tables},
        }
        # the POVM tables are |amplitude|^2, so the one table of operators is the Bell basis
        assert counts["certify local_povm"]["joint_table_kets"] == 1
        assert counts["certify global_povm"]["joint_table_kets"] == 1


    def test_angle_checks_per_command(self, monkeypatch, capsys):
        # One library angle check per command (an angle stack, or attack's
        # theta-kets), except that selftest also checks its recovered angle (psi
        # and phi kets); one min_entropy call per table stack; one report_rows call,
        # which forms every report row.
        counts = {}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        seen, check_theta = {}, counted("check_theta", qo.check_theta)
        with monkeypatch.context() as patch:
            for module in (qo, bt):
                patch.setattr(module, "check_theta", check_theta)
            patch.setattr(qo, "angle_stack", counted("angle_stack", qo.angle_stack))
            patch.setattr(adv, "min_entropy", counted("min_entropy", adv.min_entropy))
            patch.setattr(qo, "report_rows", counted("report_rows", qo.report_rows))
            for form, argv in {**self.FORMS, "attack": ["attack"]}.items():
                counts.update(check_theta=0, angle_stack=0, min_entropy=0, report_rows=0)
                assert main([*argv, "--theta", "0.4"]) == 0, form
                seen[form] = dict(counts)
        capsys.readouterr()
        certify = {"check_theta": 1, "angle_stack": 1, "min_entropy": 1, "report_rows": 1}
        assert seen == {
            "selftest": {"check_theta": 3, "angle_stack": 1, "min_entropy": 0, "report_rows": 1},
            "sweep": {
                "check_theta": 1,
                "angle_stack": 1,
                "min_entropy": len(SCENARIOS),
                "report_rows": 1,
            },
            **{f"certify {sc}": certify for sc in SCENARIOS},
            "attack": {"check_theta": 1, "angle_stack": 0, "min_entropy": 0, "report_rows": 1},
        }


class TestCommandsAgree:
    """Every command reports the same figures for the quantities they share."""

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        return json.loads(out.getvalue())

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(math.log(qo.THETA_MIN), math.log(math.pi / 2)).map(math.exp),
            min_size=1,
            max_size=6,
        )
    )
    @example([qo.THETA_MIN, 1e-9, math.pi / 2])
    def test_shared_quantities_are_equal(self, thetas):
        thetas = [min(max(t, qo.THETA_MIN), math.pi / 2) for t in thetas]  # exp may round past
        angles = ["--theta", ",".join(map(repr, thetas))]
        selftest = self.call(["selftest", *angles])["reports"]
        sweep = self.call(["sweep", "--format", "json", *angles])["rows"]
        certify = {
            sc: self.call(["certify", "--scenario", sc, *angles])["reports"] for sc in SCENARIOS
        }
        keys = ("I", "J", "S")
        for n, (rep, row) in enumerate(zip(selftest, sweep)):
            assert row["beta"] == rep["beta"]
            assert [row[k] for k in keys] == [rep[k] for k in keys]
            residuals = [row[f"res_{k}"] for k in keys]
            assert residuals == [rep["residuals"][k] for k in keys]
            for sc in SCENARIOS:
                cert = certify[sc][n]
                assert row[f"minent_{sc}"] == cert["min_entropy_bits"]
                assert [cert["bell_residuals"][k] for k in keys] == residuals

    @settings(max_examples=15, deadline=None)
    @given(st.floats(math.log(qo.THETA_MIN), math.log(math.pi / 2)).map(math.exp))
    @example(qo.THETA_MIN)
    @example(math.pi / 2)
    def test_library_reports_are_the_command_rows(self, theta):
        theta = min(max(theta, qo.THETA_MIN), math.pi / 2)  # exp may round past either end
        angle = ["--theta", repr(theta)]
        selftest = self.call(["selftest", *angle])["reports"][0]
        del selftest["pass"]
        assert bt.bell_report(theta) == selftest
        attack = self.call(["attack", *angle])["reports"][0]
        del attack["pass"], attack["degenerate"]
        povm = qo.adjusted_tetrahedral(theta)
        assert adv.attack_report(adv.build_attack(povm, povm, theta)) == attack
