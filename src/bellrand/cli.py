"""Command-line facade: machine-readable certification reports.

Commands
--------
selftest   Bell-value and spectral witnesses over an angle grid.
certify    Min-entropy certification for one scenario
           (local_povm | global_projective | global_povm).
attack     Build and evaluate the conjugation attack; report the cap.
sweep      Per-angle CSV of Bell values, residuals and min-entropies.

Exit codes: 0 all checks pass, 1 numeric tolerance failure, 2 usage or
config error.  Identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import adversary as adv
from . import belltest as bt
from . import matkernel as mk
from . import qobjects as qo

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "herm": 1e-12,
    "reconstruction": 1e-10,
    "nullspace": 1e-9,
    "bell_residual": 1e-10,
    "spectral": 1e-10,
    "uniform": 1e-12,
    "attack": 1e-10,
    "min_entropy": 1e-9,
}

SCENARIOS = ("local_povm", "global_projective", "global_povm")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    thetas: list[float] = field(default_factory=list)
    theta_grid: int | None = None
    epsilon: float = 1e-4
    scenario: str | None = None
    seed: int = 0
    out: str | None = None
    fmt: str | None = None  # resolved per command (sweep defaults to csv)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def resolve_thetas(self, default_grid: int) -> list[float]:
        if self.thetas:
            return list(self.thetas)
        n = self.theta_grid if self.theta_grid else default_grid
        return [float(t) for t in qo.theta_grid(n)]


def _parse_theta_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"invalid theta list {text!r}") from exc
    for t in values:
        if not (0.0 < t <= math.pi / 2 + 1e-12):
            raise UsageError(f"theta {t} outside (0, pi/2]")
    return values


def _parse_tol(entries, tolerances: dict) -> None:
    for entry in entries or []:
        if "=" not in entry:
            raise UsageError(f"--tol expects KEY=VAL, got {entry!r}")
        key, val = entry.split("=", 1)
        key = key.strip()
        if key not in tolerances:
            raise UsageError(f"unknown tolerance {key!r}; known: {sorted(tolerances)}")
        try:
            tolerances[key] = float(val)
        except ValueError as exc:
            raise UsageError(f"invalid tolerance value {val!r}") from exc


def _load_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {raw!r} is not key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = _load_config_file(args.config) if args.config else {}

    if "theta" in file_values:
        cfg.thetas = _parse_theta_list(file_values["theta"])
    if "theta_grid" in file_values:
        cfg.theta_grid = int(file_values["theta_grid"])
    if "epsilon" in file_values:
        cfg.epsilon = float(file_values["epsilon"])
    if "scenario" in file_values:
        cfg.scenario = file_values["scenario"]
    if "seed" in file_values:
        cfg.seed = int(file_values["seed"])
    if "out" in file_values:
        cfg.out = file_values["out"]
    if "format" in file_values:
        cfg.fmt = file_values["format"]
    for key, val in file_values.items():
        if key.startswith("tol."):
            _parse_tol([f"{key[4:]}={val}"], cfg.tolerances)

    if args.theta is not None:
        cfg.thetas = _parse_theta_list(args.theta)
    if args.theta_grid is not None:
        cfg.theta_grid = args.theta_grid
    if getattr(args, "epsilon", None) is not None:
        cfg.epsilon = args.epsilon
    if getattr(args, "scenario", None) is not None:
        cfg.scenario = args.scenario
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    _parse_tol(args.tol, cfg.tolerances)

    if not (0.0 < cfg.epsilon < 1.0):
        raise UsageError(f"epsilon {cfg.epsilon} outside (0, 1)")
    if cfg.scenario is not None and cfg.scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {cfg.scenario!r}; choose from {SCENARIOS}")
    return cfg


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_document(cfg: RunConfig, command: str, payload: dict) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
    }
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_selftest(cfg: RunConfig) -> int:
    if (cfg.fmt or "json") != "json":
        raise UsageError("selftest only supports --format json")
    thetas = cfg.resolve_thetas(default_grid=50)
    tol_bell = cfg.tolerances["bell_residual"]
    tol_spec = cfg.tolerances["spectral"]
    reports = []
    failing = []
    for theta in thetas:
        rep = bt.bell_report(theta)
        ok = (
            max(rep["residuals"].values()) <= tol_bell
            and rep["fidelity"] >= 1.0 - tol_spec
            and rep["spectral_form_residual"] <= tol_spec
        )
        rep["pass"] = ok
        reports.append(rep)
        if not ok:
            failing.append(theta)
    payload = {"reports": reports, "all_pass": not failing, "failing_thetas": failing}
    _emit(_json_document(cfg, "selftest", payload), cfg)
    return 0 if not failing else 1


def _uniform_tables(scenario: str, theta: float) -> list[np.ndarray]:
    """Outcome tables of a two-bit scheme that must all be uniform; the first is reported."""
    if scenario == "local_povm":
        povm = qo.adjusted_tetrahedral(theta)
        return [mk.joint_table(povm.elements, [qo.ID2], qo.psi_theta(theta).rho)[:, 0]]
    return [
        bt.projective_joint_distribution(theta, ancilla)
        for ancilla in (qo.ancilla_pure(), qo.ancilla_mixed())
    ]


def _certify_one(cfg: RunConfig, scenario: str, values: bt.BellValues) -> dict:
    theta = values.theta
    report = {
        "scenario": scenario,
        "theta": theta,
        "epsilon": None,
        "bell_residuals": dict(zip(("I", "J", "S"), values.residuals)),
    }

    if scenario == "global_povm":
        eps = cfg.epsilon
        alice = qo.near_y_tetrahedral(eps)
        bob = qo.modified_mercedes(theta)
        table = adv.ideal_joint(alice, bob, theta)
        dist = table.reshape(-1)
        deviation = float(table.max() - 1.0 / 12.0)
        report.update(
            distribution=dist.tolist(),
            min_entropy_bits=adv.min_entropy(dist),
            bound_type="lower_witness",
            epsilon=eps,
            target_bits=math.log2(12.0),
            max_entry=float(table.max()),
            deviation_from_limit=deviation,
        )
        report["pass"] = bool(deviation <= 10.0 * eps)
        return report

    tables = _uniform_tables(scenario, theta)
    dist = tables[0].reshape(-1)
    report.update(
        distribution=dist.tolist(),
        min_entropy_bits=adv.min_entropy(dist),
        bound_type="attained",
        target_bits=2.0,
        max_entry=float(dist.max()),
        uniform_deviation=max(float(np.max(np.abs(t - 0.25))) for t in tables),
    )
    report["pass"] = bool(
        report["uniform_deviation"] <= cfg.tolerances["uniform"]
        and abs(report["min_entropy_bits"] - 2.0) <= cfg.tolerances["min_entropy"]
    )
    return report


def cmd_certify(cfg: RunConfig) -> int:
    if (cfg.fmt or "json") != "json":
        raise UsageError("certify only supports --format json")
    if cfg.scenario is None:
        raise UsageError("certify requires --scenario")
    thetas = cfg.thetas if cfg.thetas else [math.pi / 2]
    reports = [_certify_one(cfg, cfg.scenario, bt.eval_bell(bt.ideal_scenario(t))) for t in thetas]
    ok = all(r["pass"] for r in reports)
    payload = {"scenario": cfg.scenario, "reports": reports, "all_pass": ok}
    _emit(_json_document(cfg, "certify", payload), cfg)
    return 0 if ok else 1


def cmd_attack(cfg: RunConfig) -> int:
    if (cfg.fmt or "json") != "json":
        raise UsageError("attack only supports --format json")
    thetas = cfg.thetas if cfg.thetas else [math.pi / 2]
    tol = cfg.tolerances["attack"]
    reports = []
    ok = True
    for theta in thetas:
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        try:
            attack = adv.build_attack(alice, bob, theta)
        except adv.DegenerateAttackError as exc:
            reports.append({"theta": theta, "degenerate": True, "reason": str(exc)})
            continue
        rep = adv.attack_report(attack)
        rep["degenerate"] = False
        rep["pass"] = bool(
            rep["average_vs_ideal_max_dev"] <= tol
            and rep["zero_entry_value"] <= tol
            and rep["certified_bits"] <= rep["cap_bits"]
        )
        ok = ok and rep["pass"]
        reports.append(rep)
    payload = {"reports": reports, "all_pass": ok}
    _emit(_json_document(cfg, "attack", payload), cfg)
    return 0 if ok else 1


def cmd_sweep(cfg: RunConfig) -> int:
    fmt = cfg.fmt or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError("sweep supports --format csv or json")
    thetas = cfg.resolve_thetas(default_grid=100)
    rows = []
    for theta in thetas:
        row = {"theta": theta}
        try:
            values = bt.eval_bell(bt.ideal_scenario(theta))
            res = values.residuals
            local, glob_proj, glob_povm = (_certify_one(cfg, sc, values) for sc in SCENARIOS)
            row.update(
                beta=values.beta,
                I=values.i_value,
                J=values.j_value,
                S=values.s_value,
                res_I=res[0],
                res_J=res[1],
                res_S=res[2],
                minent_local_povm=local["min_entropy_bits"],
                minent_global_projective=glob_proj["min_entropy_bits"],
                minent_global_povm=glob_povm["min_entropy_bits"],
                status="ok",
            )
        except Exception as exc:  # partial failures are marked per-row
            row.update(status=f"error:{exc}")
        rows.append(row)

    columns = [
        "theta",
        "beta",
        "I",
        "J",
        "S",
        "res_I",
        "res_J",
        "res_S",
        "minent_local_povm",
        "minent_global_projective",
        "minent_global_povm",
        "status",
    ]
    all_ok = all(r.get("status") == "ok" for r in rows)
    if fmt == "csv":
        lines = [
            "# bellrand sweep: Bell values/residuals and per-scenario min-entropies (bits)",
            "# tolerances: " + json.dumps(cfg.tolerances, sort_keys=True),
            ",".join(columns),
        ]
        for row in rows:
            cells = []
            for col in columns:
                val = row.get(col, "")
                cells.append(f"{val:.17g}" if isinstance(val, float) else str(val))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit(_json_document(cfg, "sweep", {"rows": rows, "all_pass": all_ok}), cfg)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellrand",
        description="Randomness certification numerics for partially entangled Bell tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("selftest", "Bell values and spectral witnesses over an angle grid"),
        ("certify", "min-entropy certification for one scenario"),
        ("attack", "build the conjugation attack and report the cap"),
        ("sweep", "per-angle CSV/JSON sweep"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--theta", help="comma-separated angles in (0, pi/2]")
        p.add_argument("--theta-grid", type=int, help="number of grid angles")
        p.add_argument("--epsilon", type=float, help="near-Y POVM tilt in (0, 1)")
        p.add_argument("--seed", type=int, help="deterministic replay seed")
        p.add_argument("--tol", action="append", metavar="KEY=VAL", help="tolerance override")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        if name == "certify":
            p.add_argument("--scenario", choices=SCENARIOS, help="certification scenario")
        else:
            p.set_defaults(scenario=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        handler = {
            "selftest": cmd_selftest,
            "certify": cmd_certify,
            "attack": cmd_attack,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
