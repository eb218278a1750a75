"""Command-line facade: machine-readable certification reports.

Commands
--------
selftest   Bell-value and spectral witnesses over an angle grid.
certify    Min-entropy certification for one scenario
           (local_povm | global_projective | global_povm).
attack     Build and evaluate the conjugation attack; report the cap.
sweep      Per-angle CSV of Bell values, residuals and min-entropies.

Each command calls only the ``belltest`` kernels whose output it reports or
gates: ``selftest`` Bell values and spectral self-tests, ``certify`` Bell
values and its scenario's tables (``belltest.SCHEMES``), ``sweep`` Bell
values and every scheme's tables.  These three build one
``qobjects.AngleStack`` of their angles and share it across their kernels,
and take a scheme's min-entropies from one stacked ``adversary.min_entropy``
call.  ``attack`` checks its angles once, builds the adjusted-tetrahedral
kets of all of them and evaluates them in one ``adversary.attack_rows``
call, the kernel that ``build_attack`` and ``attack_report`` read too.
Only the ``global_povm`` tables read ``--epsilon``, so ``certify`` refuses
it for another scenario; a tilt whose near-Y POVM is not extremal is refused.
Every command holds its report as columns over its angles, gates them as one
``pass`` column, in which a NaN fails, and forms its rows in one
``qobjects.report_rows`` call; ``all_pass``, ``failing_thetas`` and the
exit code read that column.

Every command takes Schmidt angles in [THETA_MIN, pi/2] from either
``--theta`` or ``--theta-grid``, never both, checked at parse time by the one
angle gate ``qobjects.check_theta``; THETA_MIN = sqrt(float_info.min / 2),
about 1.05e-154, is the smallest angle whose tilt defect 2 - beta is a normal
double.  ``selftest`` passes an angle when the Bell residuals, the fidelity,
the spectral-form and eigenvalue residuals and the relative error of the
recovered angle are all within their tolerances; ``certify`` passes it when
the Bell residuals and its tables' uniformity (4x3: max = (1 + epsilon)/12) are.

Each command registers only the options it reads (see ``COMMANDS``).  A
``--config`` file of ``key=value`` lines is read as the flags
``--key=value`` (``tol.KEY=VAL`` as ``--tol=KEY=VAL``) placed ahead of the
command line, so both go through one parser and explicit flags win.  A second
``--config``, and an empty ``--config`` or ``--out`` path, are usage errors.

Every JSON document is one line of compact, sorted-key, strict JSON from the
standard library's C encoder, with ``null`` for a non-finite value;
``python -m json.tool`` indents it.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error
(including an unreadable ``--config`` or unwritable ``--out``), 3 library
contract violated (a ``ValueError`` escaped a command, or a ``sweep`` row
holds an error, such as a non-finite value).  A degenerate ``attack`` pair is
a failed check.  Identical input produces byte-identical output.
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
from .qobjects import check_theta

SCHEMA_VERSION = 2

SCENARIOS = tuple(bt.SCHEMES)
SWEEP_COLUMNS = (
    "theta",
    "beta",
    *bt.BELL_KEYS,
    *(f"res_{key}" for key in bt.BELL_KEYS),
    *(f"minent_{sc}" for sc in SCENARIOS),
    "status",
)


class Command(NamedTuple):
    help: str
    default_grid: int | None  # angles without --theta/--theta-grid; None is pi/2 alone
    tolerances: dict[str, float]  # each --tol key its gate reads, with its tier default


COMMANDS = {
    "selftest": Command(
        "Bell values and spectral witnesses over an angle grid",
        50,
        {"bell_residual": mk.IDENTITY_TOL, "spectral": mk.IDENTITY_TOL},
    ),
    "certify": Command(
        "min-entropy certification for one scenario",
        None,
        {"bell_residual": mk.IDENTITY_TOL, "uniform": mk.ZERO_TOL},
    ),
    "attack": Command(
        "build the conjugation attack and report the cap",
        None,
        {"attack": mk.IDENTITY_TOL},
    ),
    "sweep": Command("per-angle CSV/JSON sweep", 100, {}),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, what: str, ok=lambda value: True):
    """argparse type: `convert(text)` when it succeeds and satisfies `ok`, neither raising."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_angle = _checked(check_theta, f"an angle in [{qo.THETA_MIN!r}, pi/2]")
_grid_size = _checked(int, "an angle count >= 1", lambda n: n >= 1)
_epsilon = _checked(
    float,
    f"a tilt in (0, 1) whose near-Y POVM is extremal (independence margin > {mk.RANK_TOL:.0e})",
    lambda e: qo.povm_extremality(qo.near_y_tetrahedral(e)).is_extremal_candidate,
)
_tol_value = _checked(float, "a finite tolerance > 0", lambda v: math.isfinite(v) and v > 0.0)
_path = _checked(str, "a non-empty path", bool)


def _theta_list(text: str) -> list[float]:
    """Comma-separated angles, converted with `float` and checked as one array.

    Only a refused list is checked text by text, so the refusal names the
    first refused text, an empty item as ''.
    """
    texts = text.split(",")
    try:
        return check_theta([float(x) for x in texts]).tolist()
    except ValueError:
        for x in texts:
            _angle(x)
        raise


def _tol_entry(keys: tuple[str, ...]):
    def parse(text: str) -> tuple[str, float]:
        key, sep, val = text.partition("=")
        if not sep or key.strip() not in keys:
            raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VAL with KEY in {list(keys)}")
        return key.strip(), _tol_value(val)

    return parse


_CONFIG = _Parser(add_help=False, allow_abbrev=False)
_CONFIG.add_argument("--config", type=_path, action="append")


def _with_config(argv: list[str]) -> list[str]:
    """`argv` with the lines of its flat ``--config`` file, if any, as tokens after the command.

    Only ``--config`` is looked up first, so the full parser reads the command line once;
    without a ``--config`` token not even that lookup runs.  A second ``--config`` is
    refused: its file would replace the first one's, not add to it.
    """
    given = any(token.startswith("--config") for token in argv)
    paths = _CONFIG.parse_known_args(argv)[0].config if given else None
    if not paths:
        return argv
    if len(paths) > 1:
        raise UsageError(f"argument --config: given {len(paths)} times; pass one config file")
    path = paths[0]
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
    at = next((i + 1 for i, token in enumerate(argv) if token in COMMANDS), 0)
    return [*argv[:at], *tokens, *argv[at:]]


def _emit(text: str, cfg: argparse.Namespace) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_document(cfg: argparse.Namespace, payload: dict) -> str:
    doc = {"schema": SCHEMA_VERSION, "command": cfg.command, "tolerances": cfg.tolerances}
    doc.update(payload)
    try:
        return _JSON.encode(doc) + "\n"
    except ValueError:  # strict JSON has no NaN or Infinity: write each as null
        return _JSON.encode(json.loads(json.dumps(doc), parse_constant=lambda _: None)) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit_gated(cfg: argparse.Namespace, reports: list[dict], passed: np.ndarray, **payload) -> int:
    """Emit the command's reports and `all_pass` from the per-angle gate; exit 1 if one fails."""
    ok = bool(passed.all())
    _emit(_json_document(cfg, {"reports": reports, "all_pass": ok, **payload}), cfg)
    return 0 if ok else 1


def cmd_selftest(cfg: argparse.Namespace) -> int:
    tol_spec = cfg.tolerances["spectral"]
    columns = bt.selftest_columns(qo.angle_stack(cfg.thetas))
    passed = (
        (np.maximum.reduce(list(columns["residuals"].values())) <= cfg.tolerances["bell_residual"])
        & (columns["fidelity"] >= 1.0 - tol_spec)
        & (columns["spectral_form_residual"] <= tol_spec)
        & (columns["eigenvalue_residual"] <= tol_spec)
        & (np.abs(columns["theta_recovered"] / columns["theta"] - 1.0) <= tol_spec)
    )
    reports = qo.report_rows({**columns, "pass": passed})
    return _emit_gated(cfg, reports, passed, failing_thetas=columns["theta"][~passed].tolist())


def cmd_certify(cfg: argparse.Namespace) -> int:
    if cfg.epsilon is None:
        cfg.epsilon = bt.DEFAULT_EPSILON
    elif cfg.scenario != "global_povm":
        raise UsageError(f"--epsilon applies to --scenario global_povm only, not {cfg.scenario}")
    tol = cfg.tolerances
    stack = qo.angle_stack(cfg.thetas)
    residuals = bt.bell_values(stack).residuals
    tables = bt.SCHEMES[cfg.scenario](stack, cfg.epsilon)  # the reported table first
    dist = tables[:, 0].reshape(len(tables), -1)
    columns = {
        "theta": stack.theta,
        "bell_residuals": dict(zip(bt.BELL_KEYS, residuals.T)),
        "distribution": dist,
        "min_entropy_bits": adv.min_entropy(tables[:, 0]),
        "max_entry": dist.max(axis=1),
    }
    passed = residuals.max(axis=1) <= tol["bell_residual"]
    if cfg.scenario == "global_povm":
        constants = dict(bound_type="lower_witness", epsilon=cfg.epsilon, target_bits=math.log2(12))
        columns["deviation_from_limit"] = columns["max_entry"] - 1.0 / 12.0
        passed &= np.abs(columns["max_entry"] - (1.0 + cfg.epsilon) / 12.0) <= tol["uniform"]
    else:
        # Every table of a two-bit scheme must be uniform, which bounds
        # |min_entropy_bits - 2| by -log2(1 - 4 uniform_deviation).
        constants = dict(bound_type="attained", epsilon=None, target_bits=2.0)
        columns["uniform_deviation"] = np.abs(tables - 0.25).reshape(len(tables), -1).max(axis=1)
        passed &= columns["uniform_deviation"] <= tol["uniform"]
    reports = qo.report_rows({**columns, "pass": passed}, scenario=cfg.scenario, **constants)
    return _emit_gated(cfg, reports, passed, scenario=cfg.scenario)


def cmd_attack(cfg: argparse.Namespace) -> int:
    tol = cfg.tolerances["attack"]
    theta, psi = qo.theta_ket(np.asarray(cfg.thetas))
    kets = qo.adjusted_tetrahedral_kets(theta)  # Alice and Bob measure the same POVM
    rows = adv.attack_rows(theta, psi, kets, kets)
    columns = adv.attack_columns(rows)
    degenerate = np.array([reason is not None for reason in rows.reason])
    passed = (
        ~degenerate
        & (columns["average_vs_ideal_max_dev"] <= tol)
        & (columns["zero_entry_value"] <= tol)
        & (columns["certified_bits"] <= adv.CAP_BITS)
    )
    reports = qo.report_rows({**columns, "degenerate": degenerate, "pass": passed})
    reports = [  # a degenerate row says why it fails, not its tables
        rep
        if why is None
        else {"theta": rep["theta"], "degenerate": True, "reason": why, "pass": False}
        for rep, why in zip(reports, rows.reason)
    ]
    return _emit_gated(cfg, reports, passed)


def _sweep_rows(thetas: list[float], epsilon: float) -> list[dict]:
    stack = qo.angle_stack(thetas)
    rows = bt.bell_values(stack)
    minent = [adv.min_entropy(scheme(stack, epsilon)[:, 0]) for scheme in bt.SCHEMES.values()]
    columns = (stack.theta, stack.beta, *rows.values.T, *rows.residuals.T, *minent)
    mk.refuse_beyond(
        np.where(np.isfinite(np.column_stack(columns)), 0.0, np.nan),
        mk.ZERO_TOL,
        "non-finite value",
        lambda n, c: f"column {SWEEP_COLUMNS[c]!r} at theta={thetas[n]!r}",
    )
    return qo.report_rows(dict(zip(SWEEP_COLUMNS[:-1], columns, strict=True)), status="ok")


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

    errors = [r for r in rows if r["status"] != "ok"]
    if cfg.format == "csv":
        lines = [
            "# bellrand sweep: Bell values/residuals and per-scenario min-entropies (bits)",
            ",".join(SWEEP_COLUMNS),
        ]
        for row in rows:
            cells = (row.get(col, "") for col in SWEEP_COLUMNS)
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells))
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit(_json_document(cfg, {"rows": rows, "all_pass": not errors}), cfg)
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
        angles = p.add_mutually_exclusive_group()  # also when one of them comes from --config
        angles.add_argument(
            "--theta",
            type=_theta_list,
            help=f"comma-separated Schmidt angles in [THETA_MIN = {qo.THETA_MIN:.5g}, pi/2]",
        )
        angles.add_argument("--theta-grid", type=_grid_size, help="number of grid angles (>= 1)")
        p.add_argument(
            "--config", type=_path, help="flat key=value file; keys are these flag names"
        )
        p.add_argument("--out", type=_path, help="output path (default stdout)")
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
            # certify refuses an explicit --epsilon outside global_povm, so it must see one given
            p.add_argument(
                "--epsilon",
                type=_epsilon,
                default=None if name == "certify" else bt.DEFAULT_EPSILON,
                help=f"near-Y POVM tilt in (0, 1), default {bt.DEFAULT_EPSILON:g}",
            )
        if name == "certify":
            p.add_argument(
                "--scenario", choices=SCENARIOS, required=True, help="certification scenario"
            )
        if name == "sweep":
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        n = args.theta_grid or COMMANDS[args.command].default_grid  # None: pi/2 alone
        args.thetas = args.theta or ([float(t) for t in qo.theta_grid(n)] if n else [math.pi / 2])
        args.tolerances = {**COMMANDS[args.command].tolerances, **dict(args.tol)}
        # by module attribute, so a patched or traced cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: library contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
