"""The benchmark's workloads: seeded inputs, the timed call into bellrand, checks.

Every workload is a closed loop with one client: item k is generated from
``numpy.random.default_rng([seed, k])``, run, and checked before item k + 1
starts.  ``run`` is the timed part; ``check`` runs untimed and returns a list
of problems (empty when the output is correct).  The checks use their own
copy of the seed tolerances and closed forms, so a change to the library's
defaults or formulas shows as a failure here.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

# Tolerances as shipped in bellrand 0.1.0 (cli.DEFAULT_TOLERANCES).
TOL_BELL = 1e-10
TOL_SPECTRAL = 1e-10
TOL_UNIFORM = 1e-12
TOL_ATTACK = 1e-10
TOL_MIN_ENTROPY = 1e-9
TOL_RECONSTRUCTION = 1e-10
TOL_SUM = 1e-9
EPSILON = 1e-4  # cli default tilt of the near-Y POVM
CAP_BITS = -math.log2(0.5 * (1.0 / 15.0 + 1.0 / 16.0))
LIMIT_4X3_BITS = math.log2(12.0)
SCENARIOS = ("local_povm", "global_projective", "global_povm")


def load_bellrand(root: Path):
    """Import bellrand from `root`/src and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "bellrand" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bellrand sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("bellrand")
    importlib.import_module("bellrand.cli")
    if Path(pkg.__file__).resolve().parent != src / "bellrand":
        raise ImportError(f"bellrand imported from {pkg.__file__}, not from {src}")
    return pkg


def call_cli(cli, argv):
    """One in-process `bellrand` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def theta_arg(thetas) -> str:
    return ",".join(repr(float(t)) for t in thetas)


def near_product_angle(rng) -> float:
    """Log-uniform in [1e-4, 1e-2]: the weakly entangled end of (0, pi/2]."""
    return float(10.0 ** rng.uniform(-4.0, -2.0))


def any_angle(rng) -> float:
    """Uniform in (0, pi/2]."""
    return float(math.pi / 2 * (1.0 - rng.random()))


def beta_of(theta: float) -> float:
    return 2.0 * math.cos(theta) / math.sqrt(1.0 + math.sin(theta) ** 2)


def ideal_ijs(theta: float) -> tuple[float, float, float]:
    tilted = 2.0 * math.sqrt(2.0) * math.sqrt(1.0 + beta_of(theta) ** 2 / 4.0)
    return tilted, tilted, 2.0 * math.sqrt(2.0) * math.sin(theta)


def _exit_problems(code, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code} ({err.strip()[:120]})"]
    return []


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name}={got!r} vs {want!r} (tol {tol:g})"]
    return []


def _at_most(name: str, got: float, bound: float) -> list[str]:
    if not got <= bound:
        return [f"{name}={got!r} exceeds {bound!r}"]
    return []


def check_distribution(dist, size: int) -> list[str]:
    d = np.asarray(dist, dtype=float)
    problems = []
    if d.size != size:
        problems.append(f"distribution has {d.size} entries, expected {size}")
    if d.size and d.min() < -TOL_UNIFORM:
        problems.append(f"negative probability {d.min()!r}")
    problems += _close("distribution sum", float(d.sum()), 1.0, TOL_SUM)
    return problems


def check_bell_triple(theta: float, i_value, j_value, s_value) -> list[str]:
    i_ideal, j_ideal, s_ideal = ideal_ijs(theta)
    return (
        _close("I", i_value, i_ideal, TOL_BELL)
        + _close("J", j_value, j_ideal, TOL_BELL)
        + _close("S", s_value, s_ideal, TOL_BELL)
    )


def check_selftest(text: str, thetas) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("command") != "selftest" or doc.get("all_pass") is not True:
        problems.append("selftest document does not report all_pass")
    if doc.get("failing_thetas"):
        problems.append(f"failing thetas {doc['failing_thetas']}")
    reports = doc.get("reports", [])
    if [r.get("theta") for r in reports] != list(thetas):
        return problems + ["selftest reports do not match the requested angles"]
    for rep in reports:
        t = rep["theta"]
        p = check_bell_triple(t, rep["I"], rep["J"], rep["S"])
        p += _close("beta", rep["beta"], beta_of(t), TOL_BELL)
        p += [f"residual {k}" for k, v in rep["residuals"].items() if not v <= TOL_BELL]
        energy = ideal_ijs(t)[0]
        for got, want in zip(rep["spectrum"], (energy, 0.0, 0.0, -energy)):
            p += _close("eigenvalue", got, want, TOL_SPECTRAL)
        p += _close("fidelity", rep["fidelity"], 1.0, TOL_SPECTRAL)
        p += _at_most("spectral_form_residual", rep["spectral_form_residual"], TOL_SPECTRAL)
        if rep.get("pass") is not True:
            p.append("report pass flag is false")
        problems += [f"theta={t!r}: {x}" for x in p]
    return problems


SWEEP_COLUMNS = (
    "theta", "beta", "I", "J", "S", "res_I", "res_J", "res_S",
    "minent_local_povm", "minent_global_projective", "minent_global_povm", "status",
)


def check_sweep(text: str, thetas) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != SWEEP_COLUMNS:
        return ["sweep header does not list the expected columns"]
    rows = [dict(zip(SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
    if [float(r["theta"]) for r in rows] != list(thetas):
        return ["sweep rows do not match the requested angles"]
    problems = []
    for r in rows:
        t = float(r["theta"])
        if r["status"] != "ok":
            problems.append(f"theta={t!r}: status {r['status']}")
            continue
        v = {k: float(r[k]) for k in SWEEP_COLUMNS[1:-1]}
        p = check_bell_triple(t, v["I"], v["J"], v["S"])
        p += [f"{k}={v[k]!r}" for k in ("res_I", "res_J", "res_S") if not v[k] <= TOL_BELL]
        p += _close("minent_local_povm", v["minent_local_povm"], 2.0, TOL_MIN_ENTROPY)
        p += _close("minent_global_projective", v["minent_global_projective"], 2.0, TOL_MIN_ENTROPY)
        p += check_witness_4x3(2.0 ** -v["minent_global_povm"])
        problems += [f"theta={t!r}: {x}" for x in p]
    return problems


def check_witness_4x3(max_entry: float) -> list[str]:
    """The 4x3 global-POVM table's largest entry lies in [1/12, 1/12 + 10 eps]."""
    deviation = max_entry - 1.0 / 12.0
    if not -TOL_UNIFORM <= deviation <= 10.0 * EPSILON:
        return [f"4x3 deviation from 1/12 is {deviation!r}, outside [0, {10 * EPSILON:g}]"]
    return []


def check_certify(text: str, scenario: str, theta: float) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("command") != "certify" or doc.get("scenario") != scenario:
        problems.append("not a certify document for the requested scenario")
    if doc.get("all_pass") is not True:
        problems.append("certify does not report all_pass")
    reports = doc.get("reports", [])
    if len(reports) != 1 or reports[0].get("theta") != theta:
        return problems + ["certify report does not match the requested angle"]
    rep = reports[0]
    problems += [f"bell residual {k}" for k, v in rep["bell_residuals"].items() if not v <= TOL_BELL]
    dist = np.asarray(rep["distribution"], dtype=float)
    problems += check_distribution(dist, 12 if scenario == "global_povm" else 4)
    top = float(dist.max())
    problems += _close("max_entry", rep["max_entry"], top, 0.0)
    problems += _close("min_entropy_bits", rep["min_entropy_bits"], -math.log2(top), 1e-12)
    if scenario == "global_povm":
        problems += check_witness_4x3(top)
        problems += _close("deviation_from_limit", rep["deviation_from_limit"], top - 1.0 / 12.0, 1e-15)
        problems += _close("target_bits", rep["target_bits"], LIMIT_4X3_BITS, 1e-12)
    else:
        problems += _close("min_entropy_bits", rep["min_entropy_bits"], 2.0, TOL_MIN_ENTROPY)
        problems += _close("largest entry", top, 0.25, TOL_UNIFORM)
        problems += _at_most("uniform_deviation", rep["uniform_deviation"], TOL_UNIFORM)
    if rep.get("pass") is not True:
        problems.append("report pass flag is false")
    return problems


def check_attack_tables(p_plus, p_minus, target, zero_entry, bits, avg_dev) -> list[str]:
    """Attack invariants shared by the CLI report and the library call."""
    pp, pm = np.asarray(p_plus, dtype=float), np.asarray(p_minus, dtype=float)
    problems = check_distribution(pp, 16) + check_distribution(pm, 16)
    problems += _close("zero_entry_value", zero_entry, float(pm[tuple(target)]), 0.0)
    problems += _at_most("zero_entry_value", zero_entry, TOL_ATTACK)
    problems += _at_most("average_vs_ideal_max_dev", avg_dev, TOL_ATTACK)
    guess = 0.5 * (float(pp.max()) + float(pm.max()))
    problems += _close("certified_bits", bits, -math.log2(guess), 1e-12)
    problems += _at_most("certified_bits", bits, CAP_BITS)
    return problems


def check_attack(text: str, theta: float) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("command") != "attack" or doc.get("all_pass") is not True:
        problems.append("attack does not report all_pass")
    reports = doc.get("reports", [])
    if len(reports) != 1 or reports[0].get("theta") != theta:
        return problems + ["attack report does not match the requested angle"]
    rep = reports[0]
    if rep.get("degenerate") is not False:
        return problems + [f"degenerate attack: {rep.get('reason')}"]
    problems += check_attack_tables(
        rep["P_plus"], rep["P_minus"], rep["target_pair"], rep["zero_entry_value"],
        rep["certified_bits"], rep["average_vs_ideal_max_dev"],
    )
    problems += _close("cap_bits", rep["cap_bits"], CAP_BITS, 1e-12)
    if rep.get("pass") is not True:
        problems.append("report pass flag is false")
    return problems


class AngleGrid:
    """`selftest`, then `sweep`, over a fresh seeded list of angles per item."""

    name = "angle_grid"
    unit = "angle"
    tail_wanted = 95.0
    trace_items = 2
    replay_items = 1
    n_angles = 8

    def __init__(self, pkg, seed: int):
        self.cli = pkg.cli
        self.seed = seed

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        thetas = [near_product_angle(rng)] + [any_angle(rng) for _ in range(self.n_angles - 1)]
        return sorted(thetas)

    def units(self, thetas) -> int:
        return len(thetas)

    def run(self, thetas):
        arg = theta_arg(thetas)
        selftest = call_cli(self.cli, ["selftest", "--theta", arg])
        sweep = call_cli(self.cli, ["sweep", "--theta", arg])
        return selftest, sweep

    def check(self, thetas, out) -> list[str]:
        (c1, o1, e1), (c2, o2, e2) = out
        problems = _exit_problems(c1, e1) + _exit_problems(c2, e2)
        if problems:
            return problems
        return check_selftest(o1, thetas) + check_sweep(o2, thetas)

    def digest(self, out) -> bytes:
        return "\0".join(o for _, o, _ in out).encode()

    def warmup(self) -> None:
        self.run(self.inputs(0)[:1])


class SingleAngleCalls:
    """Separate `cli.main` calls: certify per scenario, then attack, per angle."""

    name = "single_angle_calls"
    unit = "call"
    tail_wanted = 99.0
    trace_items = 40
    replay_items = 4
    commands = tuple(("certify", "--scenario", s) for s in SCENARIOS) + (("attack",),)

    def __init__(self, pkg, seed: int):
        self.cli = pkg.cli
        self.seed = seed

    def inputs(self, k: int):
        per_angle = len(self.commands)
        rng = np.random.default_rng([self.seed, k // per_angle])
        theta = near_product_angle(rng) if rng.random() < 0.125 else any_angle(rng)
        return theta, self.commands[k % per_angle]

    def units(self, inp) -> int:
        return 1

    def run(self, inp):
        theta, command = inp
        return call_cli(self.cli, [*command, "--theta", repr(theta)])

    def check(self, inp, out) -> list[str]:
        theta, command = inp
        code, text, err = out
        problems = _exit_problems(code, err)
        if problems:
            return problems
        if command[0] == "attack":
            return check_attack(text, theta)
        return check_certify(text, command[2], theta)

    def digest(self, out) -> bytes:
        return out[1].encode()

    def warmup(self) -> None:
        for k in range(len(self.commands)):
            self.run(self.inputs(k))


class RandomAttack:
    """Seeded random extremal POVM pairs through tomography and the attack."""

    name = "random_attack"
    unit = "pair"
    tail_wanted = 95.0
    trace_items = 10
    replay_items = 1
    # The linear-inversion round trip has condition number ~ 1/sin(theta)^2
    # against an absolute tolerance, so angles stay away from the product end.
    theta_min = 0.05

    def __init__(self, pkg, seed: int):
        self.tg = pkg.tomography
        self.adv = pkg.adversary
        self.seed = seed

    def inputs(self, k: int):
        return k

    def units(self, k) -> int:
        return 1

    def run(self, k: int):
        tg, adv = self.tg, self.adv
        rng = np.random.default_rng([self.seed, k])
        theta = float(rng.uniform(self.theta_min, math.pi / 2))
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)
        bob3 = tg.random_extremal_povm(3, rng)
        reconstructed = [tg.reconstruct_povm(tg.correlations_from_povm(p, theta)) for p in (alice, bob)]
        attack = adv.build_attack(alice, bob, theta)
        report = adv.attack_report(attack)
        lam, mu = attack.lambda_coeffs, attack.mu_coeffs
        closed = [adv.closed_form_joint(alice, bob, lam, mu, theta, s) for s in (1, -1)]
        brute = [adv.brute_force_joint(attack, theta, s) for s in (1, -1)]
        reduction = adv.qubit_reduction_check(alice, bob3, theta, seed=int(rng.integers(2**31)))
        return {
            "povms": (alice, bob),
            "reconstructed": reconstructed,
            "report": report,
            "closed": closed,
            "brute": brute,
            "reduction": reduction,
        }

    def check(self, k, out) -> list[str]:
        problems = []
        for p, r in zip(out["povms"], out["reconstructed"]):
            err = max(float(np.max(np.abs(a - b))) for a, b in zip(p.elements, r.elements))
            if r.n_outcomes != p.n_outcomes or not err <= TOL_RECONSTRUCTION:
                problems.append(f"reconstruction round trip error {err!r}")
        rep = out["report"]
        problems += check_attack_tables(
            rep["P_plus"], rep["P_minus"], rep["target_pair"], rep["zero_entry_value"],
            rep["certified_bits"], rep["average_vs_ideal_max_dev"],
        )
        for sign, c, b in zip((1, -1), out["closed"], out["brute"]):
            problems += _at_most(f"closed vs brute force ({sign:+d})", float(np.max(np.abs(c - b))), TOL_ATTACK)
        red = out["reduction"]
        problems += _at_most("4x3 reduction deviation", red.max_deviation, TOL_ATTACK)
        problems += _at_most("ancilla correlation defect", red.correlation_check, TOL_SUM)
        return problems

    def digest(self, out) -> bytes:
        h = hashlib.sha256(json.dumps(out["report"], sort_keys=True).encode())
        for arr in [*out["closed"], *out["brute"], np.asarray(out["reduction"].deviations)]:
            h.update(np.ascontiguousarray(arr).tobytes())
        for p in out["reconstructed"]:
            for e in p.elements:
                h.update(np.ascontiguousarray(e).tobytes())
        return h.digest()

    def warmup(self) -> None:
        self.run(self.inputs(0))


WORKLOADS = {w.name: w for w in (AngleGrid, SingleAngleCalls, RandomAttack)}
