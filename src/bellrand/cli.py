"""Command-line facade: machine-readable certification reports.

Commands
--------
selftest   Bell-value and spectral witnesses over an angle grid.
certify    Min-entropy certification for one scenario
           (local_povm | global_projective | global_povm).
attack     Build and evaluate the conjugation attack; report the cap.
sweep      Per-angle CSV of Bell values, residuals and min-entropies.

Every command takes Schmidt angles in [THETA_MIN, pi/2], checked by the one
angle gate ``qobjects.check_theta``; THETA_MIN = sqrt(float_info.min / 2),
about 1.05e-154, is the smallest angle whose tilt defect 2 - beta is a normal
double.  ``selftest`` passes an angle when the Bell residuals, the fidelity,
the spectral-form and eigenvalue residuals and the relative error of the
recovered angle are all within their tolerances.

Each command registers only the options it reads (see ``COMMANDS``).  A
``--config`` file of ``key=value`` lines is read as the flags
``--key=value`` (``tol.KEY=VAL`` as ``--tol=KEY=VAL``) placed ahead of the
command line, so both go through one parser and explicit flags win.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error
(including an unreadable ``--config`` or unwritable ``--out``), 3 library
contract violated (a ``ValueError`` escaped a command, or a ``sweep`` row
holds an error).  Identical input produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import adversary as adv
from . import belltest as bt
from . import matkernel as mk
from . import qobjects as qo

SCHEMA_VERSION = 2

SCENARIOS = ("local_povm", "global_projective", "global_povm")


class Command(NamedTuple):
    help: str
    formats: tuple[str, ...]  # the first is the default
    default_grid: int | None  # angles without --theta/--theta-grid; None is pi/2 alone
    tolerances: dict[str, float]  # each --tol key its gate reads, with its tier default


COMMANDS = {
    "selftest": Command(
        "Bell values and spectral witnesses over an angle grid",
        ("json",),
        50,
        {"bell_residual": mk.IDENTITY_TOL, "spectral": mk.IDENTITY_TOL},
    ),
    "certify": Command(
        "min-entropy certification for one scenario",
        ("json",),
        None,
        {"uniform": mk.ZERO_TOL, "min_entropy": mk.RANK_TOL},
    ),
    "attack": Command(
        "build the conjugation attack and report the cap",
        ("json",),
        None,
        {"attack": mk.IDENTITY_TOL},
    ),
    "sweep": Command("per-angle CSV/JSON sweep", ("csv", "json"), 100, {}),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, what: str, ok=lambda value: True):
    """argparse type: `convert(text)` when it succeeds and satisfies `ok`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_angle = _checked(qo.check_theta, f"an angle in [{qo.THETA_MIN!r}, pi/2]")
_grid_size = _checked(int, "an angle count >= 1", lambda n: n >= 1)
_epsilon = _checked(float, "a tilt in (0, 1)", lambda e: 0.0 < e < 1.0)
_tol_value = _checked(float, "a finite tolerance > 0", lambda v: math.isfinite(v) and v > 0.0)


def _theta_list(text: str) -> list[float]:
    values = [_angle(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no angle in {text!r}")
    return values


def _tol_entry(keys: tuple[str, ...]):
    def parse(text: str) -> tuple[str, float]:
        key, sep, val = text.partition("=")
        if not sep or key.strip() not in keys:
            raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VAL with KEY in {list(keys)}")
        return key.strip(), _tol_value(val)

    return parse


def _config_tokens(path: str) -> list[str]:
    """The lines of a flat config file as command-line tokens."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8 text") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep or not key:
            raise UsageError(f"config line {raw!r} is not key=value")
        if key == "config":
            raise UsageError("config key 'config' is not allowed")
        if key.startswith("tol."):
            tokens.append(f"--tol={key[4:]}={val}")
        else:
            tokens.append(f"--{key.replace('_', '-')}={val}")
    return tokens


def _resolve_thetas(args: argparse.Namespace) -> list[float]:
    if args.theta:
        return args.theta
    n = args.theta_grid or COMMANDS[args.command].default_grid
    return [float(t) for t in qo.theta_grid(n)] if n else [math.pi / 2]


def _emit(text: str, cfg: argparse.Namespace) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_document(cfg: argparse.Namespace, command: str, payload: dict) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "tolerances": cfg.tolerances,
    }
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_selftest(cfg: argparse.Namespace) -> int:
    tol_bell = cfg.tolerances["bell_residual"]
    tol_spec = cfg.tolerances["spectral"]
    reports = bt.bell_batch(cfg.thetas).reports()
    failing = []
    for rep in reports:
        ok = (
            max(rep["residuals"].values()) <= tol_bell
            and rep["fidelity"] >= 1.0 - tol_spec
            and rep["spectral_form_residual"] <= tol_spec
            and rep["eigenvalue_residual"] <= tol_spec
            and abs(rep["theta_recovered"] / rep["theta"] - 1.0) <= tol_spec
        )
        rep["pass"] = ok
        if not ok:
            failing.append(rep["theta"])
    payload = {"reports": reports, "all_pass": not failing, "failing_thetas": failing}
    _emit(_json_document(cfg, "selftest", payload), cfg)
    return 0 if not failing else 1


def _scheme_tables(batch: bt.BellBatch, n: int, scenario: str) -> list[np.ndarray]:
    """A scheme's outcome tables at the batch's angle n; the first is the reported one."""
    if scenario == "global_povm":
        return [batch.global_povm[n]]
    if scenario == "local_povm":
        return [batch.local_povm[n]]
    return list(batch.projective[n])


def _certify_one(batch: bt.BellBatch, n: int, scenario: str, epsilon: float) -> dict:
    """The certify report of one scenario at the batch's angle n."""
    report = {
        "scenario": scenario,
        "theta": float(batch.theta[n]),
        "epsilon": None,
        "bell_residuals": dict(zip(("I", "J", "S"), batch.residuals[n].tolist())),
    }

    tables = _scheme_tables(batch, n, scenario)
    if scenario == "global_povm":
        table = tables[0]
        dist = table.reshape(-1)
        deviation = float(table.max() - 1.0 / 12.0)
        report.update(
            distribution=dist.tolist(),
            min_entropy_bits=adv.min_entropy(dist),
            bound_type="lower_witness",
            epsilon=epsilon,
            target_bits=math.log2(12.0),
            max_entry=float(table.max()),
            deviation_from_limit=deviation,
        )
        return report

    # Every table of a two-bit scheme must be uniform.
    dist = tables[0].reshape(-1)
    report.update(
        distribution=dist.tolist(),
        min_entropy_bits=adv.min_entropy(dist),
        bound_type="attained",
        target_bits=2.0,
        max_entry=float(dist.max()),
        uniform_deviation=max(float(np.max(np.abs(t - 0.25))) for t in tables),
    )
    return report


def _certify_passes(report: dict, tol: dict[str, float]) -> bool:
    if report["bound_type"] == "lower_witness":
        return report["deviation_from_limit"] <= 10.0 * report["epsilon"]
    return (
        report["uniform_deviation"] <= tol["uniform"]
        and abs(report["min_entropy_bits"] - 2.0) <= tol["min_entropy"]
    )


def cmd_certify(cfg: argparse.Namespace) -> int:
    if cfg.scenario is None:
        raise UsageError("certify requires --scenario")
    batch = bt.bell_batch(cfg.thetas, epsilon=cfg.epsilon)
    reports = [
        _certify_one(batch, n, cfg.scenario, cfg.epsilon) for n in range(len(cfg.thetas))
    ]
    for report in reports:
        report["pass"] = _certify_passes(report, cfg.tolerances)
    ok = all(r["pass"] for r in reports)
    payload = {"scenario": cfg.scenario, "reports": reports, "all_pass": ok}
    _emit(_json_document(cfg, "certify", payload), cfg)
    return 0 if ok else 1


def cmd_attack(cfg: argparse.Namespace) -> int:
    tol = cfg.tolerances["attack"]
    reports = []
    ok = True
    for theta in cfg.thetas:
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


def _sweep_rows(thetas: list[float], epsilon: float) -> list[dict]:
    batch = bt.bell_batch(thetas, epsilon=epsilon)
    rows = []
    for n, (theta, beta, values, res) in enumerate(
        zip(thetas, batch.beta.tolist(), batch.values.tolist(), batch.residuals.tolist())
    ):
        rows.append(
            {
                "theta": theta,
                "beta": beta,
                **dict(zip(("I", "J", "S"), values)),
                **dict(zip(("res_I", "res_J", "res_S"), res)),
                **{
                    f"minent_{sc}": adv.min_entropy(_scheme_tables(batch, n, sc)[0].reshape(-1))
                    for sc in SCENARIOS
                },
                "status": "ok",
            }
        )
    return rows


def cmd_sweep(cfg: argparse.Namespace) -> int:
    try:
        rows = _sweep_rows(cfg.thetas, cfg.epsilon)
    except ValueError:
        # Evaluate each angle alone: a passing angle keeps its values, a failing
        # one becomes an error row.
        rows = []
        for theta in cfg.thetas:
            try:
                rows += _sweep_rows([theta], cfg.epsilon)
            except ValueError as exc:
                # One CSV cell: no separator or line break from the message.
                reason = " ".join(str(exc).split()).replace(",", ";")
                rows.append({"theta": theta, "status": f"error:{type(exc).__name__}:{reason}"})

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
    errors = [r for r in rows if r["status"] != "ok"]
    if cfg.format == "csv":
        lines = [
            "# bellrand sweep: Bell values/residuals and per-scenario min-entropies (bits)",
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
        _emit(_json_document(cfg, "sweep", {"rows": rows, "all_pass": not errors}), cfg)
    if errors:
        first = errors[0]
        print(
            f"error: library contract violated: {len(errors)} of {len(rows)} sweep rows failed,"
            f" first at theta={first['theta']!r} ({first['status']})",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every parse gets a fresh namespace."""
    parser = _Parser(
        prog="bellrand",
        description="Randomness certification numerics for partially entangled Bell tests",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        p.add_argument(
            "--theta",
            type=_theta_list,
            help=f"comma-separated Schmidt angles in [THETA_MIN = {qo.THETA_MIN:.5g}, pi/2]",
        )
        p.add_argument("--theta-grid", type=_grid_size, help="number of grid angles (>= 1)")
        p.add_argument("--config", help="flat key=value file; keys are these flag names")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument(
            "--format", choices=spec.formats, default=spec.formats[0], help="output format"
        )
        p.set_defaults(tol=[])  # also for a command without --tol
        if spec.tolerances:
            p.add_argument(
                "--tol",
                type=_tol_entry(tuple(spec.tolerances)),
                action="append",
                metavar="KEY=VAL",
                help="tolerance override; KEY in " + ", ".join(spec.tolerances),
            )
        if name in ("certify", "sweep"):
            p.add_argument(
                "--epsilon",
                type=_epsilon,
                default=bt.DEFAULT_EPSILON,
                help="near-Y POVM tilt in (0, 1)",
            )
        if name == "certify":
            p.add_argument("--scenario", choices=SCENARIOS, help="certification scenario")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_tokens(args.config), *argv[at:]])
        args.thetas = _resolve_thetas(args)
        args.tolerances = {**COMMANDS[args.command].tolerances, **dict(args.tol)}
        handler = {
            "selftest": cmd_selftest,
            "certify": cmd_certify,
            "attack": cmd_attack,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: library contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
