"""Golden CLI documents: every command's output, exit code and stderr as a checked-in file.

``cli_documents.json`` next to this file holds, per command line in `FORMS`,
the stdout, the exit code and the stderr of ``bellrand.cli.main``, and the
numpy and Python versions it was taken under.  Under the same versions the
test compares bytes.  Under other versions it compares the exit codes, the
non-float content exactly and every parsed float within `REL` relative
(`FLOOR` absolute for rounding residue of unit-scale quantities); it never
skips.  A mismatch names the worst move per field path: a JSON path with the
list indices dropped, a CSV column, or ``text`` for free text.

``PYTHONPATH=src python3 tests/test_cli_documents.py`` prints that report
for the current code against the file; with ``--write`` it also rewrites the
file.  A change that moves output bytes rewrites the file and names the moves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import re
import shlex
import sys
from pathlib import Path

import numpy as np

from bellrand import cli, qobjects as qo

TABLE = Path(__file__).with_name("cli_documents.json")
REL = 1e-13
FLOOR = 1e-15

COMMAND_FORMS = (
    "selftest",
    *(f"certify --scenario {sc}" for sc in cli.SCENARIOS),
    "attack",
    "sweep",
    "sweep --format json",
)
ANGLE_FORMS = (
    "--theta-grid 3",
    f"--theta {qo.THETA_MIN!r}",
    "--theta 1e-9",
    f"--theta {math.pi / 2!r}",
)
REFUSAL_FORMS = (
    "selftest --theta 0",
    "selftest --theta 1.6",
    "selftest --theta nan",
    "sweep --theta 0.5,",
    "selftest --theta 0.5 --theta-grid 3",
    "selftest --theta-grid 0",
    "certify --theta 0.5",
    "certify --scenario local_povm --epsilon 0.1 --theta 0.5",
    "certify --scenario global_povm --epsilon 1 --theta 0.5",
    "certify --scenario global_povm --tol uniform=1e-3 --theta 0.5",
    "selftest --tol spectral=0 --theta 0.5",
    "attack --tol spectral=1e-3 --theta 0.5",
    "attack --epsilon 0.1 --theta 0.5",
    "sweep --format xml --theta 0.5",
    "selftest --theta 0.5 --out=",
)
FORMS = (*(f"{c} {a}" for c in COMMAND_FORMS for a in ANGLE_FORMS), *REFUSAL_FORMS)

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_CSV_HEADER = ",".join(cli.SWEEP_COLUMNS)


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def run_form(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(line))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def documents() -> dict:
    return {**versions(), "forms": {line: run_form(line) for line in FORMS}}


def _json_leaves(obj, path: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _text_leaves(text: str):
    columns = None
    for line in text.splitlines():
        cells = line.split(",")
        if line == _CSV_HEADER:
            columns = cells
        elif columns is not None and len(cells) == len(columns):
            yield from zip(columns, map(_cell, cells))
            continue
        for k, part in enumerate(_NUMBER.split(line)):
            yield "text", float(part) if k % 2 else part


def leaves(text: str) -> list:
    """(field path, value) of each leaf of a JSON document, a CSV table or free text."""
    try:
        doc = json.loads(text)
    except ValueError:
        return list(_text_leaves(text))
    return [(re.sub(r"\[\d+\]", "[]", path), value) for path, value in _json_leaves(doc, "")]


def _is_float(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moves(old: str, new: str) -> tuple[dict, list]:
    """The worst float move per field path, {path: (rel, abs)}, and the non-float differences."""
    a, b = leaves(old), leaves(new)
    worst, other = {}, []
    if [p for p, _ in a] != [p for p, _ in b]:
        return worst, ["field paths differ"]
    for (path, x), (_, y) in zip(a, b):
        if _is_float(x) and _is_float(y):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            move = abs(x - y)
            rel = move / max(abs(x), abs(y)) if math.isfinite(move) else math.inf
            if rel > worst.get(path, (0.0, 0.0))[0]:
                worst[path] = (rel, move)
        elif x != y:
            other.append(f"{path}: {x!r} -> {y!r}")
    return worst, other


def report(table: dict, fresh: dict, rel: float = 0.0, floor: float = 0.0) -> list[str]:
    """One line per changed exit code or non-float content, and per field path of a form
    whose worst float move exceeds `rel` relative and `floor` absolute (any move by default)."""
    lines = []
    for line, got in fresh["forms"].items():
        want = table["forms"].get(line)
        if want is None:
            lines.append(f"{line}: not in the file")
            continue
        if got["exit"] != want["exit"]:
            lines.append(f"{line}: exit {want['exit']} -> {got['exit']}")
        for stream in ("stdout", "stderr"):
            if got[stream] == want[stream]:
                continue
            worst, other = moves(want[stream], got[stream])
            if not (worst or other or rel):
                other = ["bytes differ"]  # e.g. 1.0 written as 1
            lines += [f"{line} {stream}: {diff}" for diff in other]
            lines += [
                f"{line} {stream} {path}: {move:.2e} abs, {r:.2e} rel"
                for path, (r, move) in sorted(worst.items())
                if r > rel and move > floor
            ]
    return lines


def test_every_form_is_in_the_file():
    assert tuple(json.loads(TABLE.read_text(encoding="utf-8"))["forms"]) == FORMS


def test_documents_match_the_file():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    fresh = documents()
    same = {k: table[k] for k in versions()} == versions()
    moved = report(table, fresh) if same else report(table, fresh, REL, FLOOR)
    assert not moved, "moved against cli_documents.json:\n" + "\n".join(moved)


def test_every_json_document_is_one_compact_sorted_line():
    for line in (f"{c} {a}" for c in COMMAND_FORMS if c != "sweep" for a in ANGLE_FORMS):
        out = run_form(line)["stdout"]
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def test_a_moved_float_is_named_by_its_path():
    old = json.dumps({"reports": [{"x": 0.25, "name": "a"}, {"x": 1.0, "name": "a"}]})
    new = json.dumps({"reports": [{"x": 0.25, "name": "a"}, {"x": 1.0 + 2e-16, "name": "a"}]})
    worst, other = moves(old, new)
    assert other == [] and list(worst) == ["reports[].x"]
    assert moves("a,b\n", "a,c\n")[1] == ["text: 'a,b' -> 'a,c'"]
    table = {"forms": {"f": {"exit": 0, "stdout": old, "stderr": ""}}}
    fresh = {"forms": {"f": {"exit": 0, "stdout": new, "stderr": ""}}}
    assert report(table, fresh) == ["f stdout reports[].x: 2.22e-16 abs, 2.22e-16 rel"]
    assert report(table, fresh, REL, FLOOR) == []
    fresh["forms"]["f"]["stdout"] = new.replace("1.0000000000000002", "1.0001")
    assert report(table, fresh, REL, FLOOR) == ["f stdout reports[].x: 1.00e-04 abs, 1.00e-04 rel"]


if __name__ == "__main__":
    fresh = documents()
    if TABLE.exists():
        print("\n".join(report(json.loads(TABLE.read_text(encoding="utf-8")), fresh)) or "no moves")
    if "--write" in sys.argv[1:]:
        TABLE.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
