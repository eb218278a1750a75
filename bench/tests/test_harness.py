"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

PKG = workloads.load_bellrand(BENCH.parent)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def span(name, start, end, parent, run_id=0, error=None):
    return [name, start, end, parent, run_id, error]


def test_covered_length_merges_overlaps_and_clips():
    assert tr.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tr.covered_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert tr.covered_length([(0, 10)], 2, 4) == 2
    assert tr.covered_length([], 0, 1) == 0
    assert tr.covered_length([(5, 6)], 0, 1) == 0


def test_self_time_with_nested_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),
        span("c", 5.0, 9.0, 0),
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tr.self_times(spans)) == 10.0


def test_self_time_with_overlapping_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 6.0, 0),
        span("b", 4.0, 8.0, 0),
    ]
    # The children cover [1, 8]; the overlap [4, 6] is not subtracted twice.
    assert tr.self_times(spans)[0] == 3.0


def test_summarize_self_times_add_up_to_root_duration():
    spans = [
        span(tr.ROOT, 0.0, 10.0, -1, 0),
        span("matkernel.kron", 1.0, 2.0, 0, 0),
        span("belltest.eval_bell", 3.0, 8.0, 0, 0),
        span("matkernel.kron", 4.0, 6.0, 2, 0, "ValueError"),
        span(tr.ROOT, 20.0, 21.0, -1, 1),
    ]
    s = tr.summarize(spans, {"matkernel.kron.out_elems": 32})
    assert s["calls"] == {tr.ROOT: 2, "matkernel.kron": 2, "belltest.eval_bell": 1}
    assert s["self_s"]["matkernel.kron"] == 3.0
    assert s["self_s"]["belltest.eval_bell"] == 3.0
    assert s["layer_self_s"]["matkernel"] == 3.0
    assert s["root_s"] == 11.0
    assert sum(s["self_s"].values()) == s["root_s"]
    assert s["errors"] == {"matkernel.kron": {"ValueError": 1}}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_parent_run_and_errors():
    t = tr.Tracer(clock=FakeClock())
    inner = t.wrap("matkernel.kron", lambda a, b: np.kron(a, b))

    def fail():
        raise ValueError("boom")

    outer = t.wrap("belltest.eval_bell", lambda: inner(np.eye(2), np.eye(3)))
    bad = t.wrap("belltest.theta_of_beta", fail)
    with t.root(7):
        outer()
        with pytest.raises(ValueError):
            bad()
    names = [s[0] for s in t.spans]
    assert names == [tr.ROOT, "belltest.eval_bell", "matkernel.kron", "belltest.theta_of_beta"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]
    assert {s[4] for s in t.spans} == {7}
    assert t.spans[3][5] == "ValueError"
    assert t.counts["matkernel.kron.out_elems"] == 36
    s = tr.summarize(t.spans, t.counts)
    assert math.isclose(sum(s["self_s"].values()), s["root_s"])


def test_patched_covers_every_namespace_and_restores():
    bt, mk = PKG.belltest, PKG.matkernel
    originals = (PKG.theta_of_beta, bt.theta_of_beta, mk.kron, PKG.qobjects.QState.__post_init__)
    t = tr.Tracer()
    with tr.patched(t, PKG):
        assert PKG.theta_of_beta is bt.theta_of_beta is not originals[1]
        with t.root(0):
            bt.spectral_selftest(1.0)
            PKG.theta_of_beta(1.0)
    after = (PKG.theta_of_beta, bt.theta_of_beta, mk.kron, PKG.qobjects.QState.__post_init__)
    assert after == originals
    calls = tr.summarize(t.spans, t.counts)["calls"]
    assert calls["belltest.spectral_selftest"] == 1
    assert calls["belltest.theta_of_beta"] == 2
    assert calls["matkernel.eigh"] == 1
    assert calls["matkernel.kron"] == 3  # bell_operator_I builds three products
    assert calls["qobjects.QState"] == 2  # psi_theta and phi_theta
    assert t.counts["matkernel.kron.out_elems"] == 3 * 16


def test_every_traced_name_exists():
    for layer, names in tr.TRACED.items():
        for name in names:
            assert callable(getattr(getattr(PKG, layer), name)), f"{layer}.{name}"


# ---------------------------------------------------------------------------
# Percentiles, rates, failure counting
# ---------------------------------------------------------------------------


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(size=137))
    for p in (0, 12.5, 50, 90, 99, 100):
        assert math.isclose(measure.percentile(xs, p), float(np.percentile(xs, p)))


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.samples_beyond(1000, 99.0) == 10
    assert measure.samples_beyond(999, 99.0) == 9
    assert measure.tail_percentile(1000, 99.0) == 99.0
    assert measure.tail_percentile(999, 99.0) == 95.0
    assert measure.tail_percentile(200, 99.0) == 95.0
    assert measure.tail_percentile(199, 95.0) == 90.0
    assert measure.tail_percentile(100, 90.0) == 90.0
    assert measure.tail_percentile(99, 90.0) == 50.0
    assert measure.tail_percentile(10000, 95.0) == 95.0  # never above the wanted one
    assert measure.tail_percentile(3, 99.0) == 50.0


def test_windowed_rate_is_a_median_over_windows():
    units = [2] * 10
    secs = [1.0] * 9 + [100.0]  # one stalled item
    assert measure.windowed_rate(units, secs, n_windows=10) == 2.0
    assert measure.windowed_rate([3], [1.5]) == 2.0


def test_tally_counts_operations_not_problems():
    t = measure.Tally()
    t.record("a", [])
    t.record("b", ["x", "y"])
    t.record("c", iter(()))
    t.record("d", ["exit code 1"])
    assert (t.attempted, t.failed) == (4, 2)
    assert t.failed_frac == 0.5
    assert t.reasons == ["b: x; y", "d: exit code 1"]


class FakeWorkload:
    name = "fake"

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def inputs(self, k):
        return k

    def run(self, k):
        return self.behaviour(k)

    def check(self, k, out):
        return [] if out == 0 else [f"exit code {out}"]


def test_timed_item_counts_exceptions_and_exit_codes():
    def behaviour(k):
        if k == 1:
            raise RuntimeError("unexpected")
        return 0 if k == 0 else 2

    wl, tally = FakeWorkload(behaviour), measure.Tally()
    for k in range(3):
        run.timed_item(wl, k, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "RuntimeError" in tally.reasons[0]
    assert "exit code 2" in tally.reasons[1]


# ---------------------------------------------------------------------------
# Every correctness check can fail
# ---------------------------------------------------------------------------

THETAS = [0.003, 0.7, 1.5]


def cli_text(argv):
    code, out, err = workloads.call_cli(PKG.cli, argv)
    assert code == 0, err
    return out


def test_selftest_check_passes_and_catches_corruption():
    text = cli_text(["selftest", "--theta", workloads.theta_arg(THETAS)])
    assert workloads.check_selftest(text, THETAS) == []
    doc = json.loads(text)
    doc["reports"][1]["I"] += 1e-8
    assert any("I=" in p for p in workloads.check_selftest(json.dumps(doc), THETAS))
    doc = json.loads(text)
    doc["reports"][0]["spectrum"][1] = 1e-6
    assert workloads.check_selftest(json.dumps(doc), THETAS)
    doc = json.loads(text)
    doc["all_pass"] = False
    assert workloads.check_selftest(json.dumps(doc), THETAS)
    assert workloads.check_selftest(text, THETAS[:2])


def test_sweep_check_passes_and_catches_corruption():
    text = cli_text(["sweep", "--theta", workloads.theta_arg(THETAS)])
    assert workloads.check_sweep(text, THETAS) == []
    lines = text.splitlines()
    broken = lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",error:ValueError"]
    assert any("status" in p for p in workloads.check_sweep("\n".join(broken), THETAS))
    cells = lines[-1].split(",")
    cells[8] = repr(2.0 - 1e-6)  # minent_local_povm
    assert workloads.check_sweep("\n".join(lines[:-1] + [",".join(cells)]), THETAS)
    cells = lines[-1].split(",")
    cells[10] = repr(-math.log2(1 / 12 + 2e-3))  # 4x3 deviation above 10 eps
    assert workloads.check_sweep("\n".join(lines[:-1] + [",".join(cells)]), THETAS)


@pytest.mark.parametrize("scenario", workloads.SCENARIOS)
def test_certify_check_passes_and_catches_corruption(scenario):
    text = cli_text(["certify", "--scenario", scenario, "--theta", "0.7"])
    assert workloads.check_certify(text, scenario, 0.7) == []
    assert workloads.check_certify(text, scenario, 0.8)
    doc = json.loads(text)
    rep = doc["reports"][0]
    rep["distribution"][0] += 1e-3
    rep["distribution"][1] -= 1e-3
    assert workloads.check_certify(json.dumps(doc), scenario, 0.7)
    doc = json.loads(text)
    doc["reports"][0]["min_entropy_bits"] -= 1e-6
    assert workloads.check_certify(json.dumps(doc), scenario, 0.7)


def test_attack_check_passes_and_catches_corruption():
    text = cli_text(["attack", "--theta", "0.7"])
    assert workloads.check_attack(text, 0.7) == []
    doc = json.loads(text)
    doc["reports"][0]["certified_bits"] = workloads.CAP_BITS + 1e-9
    assert any("certified_bits" in p for p in workloads.check_attack(json.dumps(doc), 0.7))
    doc = json.loads(text)
    doc["reports"][0]["average_vs_ideal_max_dev"] = 1e-6
    assert workloads.check_attack(json.dumps(doc), 0.7)
    doc = json.loads(text)
    doc["reports"][0] = {"theta": 0.7, "degenerate": True, "reason": "x"}
    assert workloads.check_attack(json.dumps(doc), 0.7)


def test_random_attack_check_passes_and_catches_corruption():
    wl = workloads.RandomAttack(PKG, seed=0)
    out = wl.run(0)
    assert wl.check(0, out) == []
    bad = dict(out, closed=[c + 1e-8 for c in out["closed"]])
    assert any("closed vs brute" in p for p in wl.check(0, bad))
    alice, bob = out["povms"]
    shifted = PKG.qobjects.Povm(tuple(e + 1e-9 for e in alice.elements))
    bad = dict(out, reconstructed=[shifted, out["reconstructed"][1]])
    assert any("round trip" in p for p in wl.check(0, bad))
    red = out["reduction"]
    bad = dict(out, reduction=type(red)(red.theta, 1, 1e-6, (1e-6,), 0.0))
    assert any("reduction" in p for p in wl.check(0, bad))


def test_inputs_depend_only_on_seed_and_index():
    a = workloads.AngleGrid(PKG, seed=5)
    b = workloads.AngleGrid(PKG, seed=5)
    assert a.inputs(3) == b.inputs(3) != a.inputs(4)
    assert min(a.inputs(0)) <= 1e-2 and all(0 < t <= math.pi / 2 for t in a.inputs(0))
    s = workloads.SingleAngleCalls(PKG, seed=5)
    assert [s.inputs(k)[0] for k in range(4)] == [s.inputs(0)[0]] * 4
    assert s.inputs(4)[0] != s.inputs(0)[0]
