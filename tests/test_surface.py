"""The library's public surface is what something reaches."""

import ast
from collections import Counter
from pathlib import Path

import bellrand

SRC = Path(bellrand.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

# The public names with no reference in src/ or bench/, kept for the claim
# tests that call them.
CLAIM_ENTRY_POINTS = [
    "belltest.verify_b7_extraction",  # TestB7Extraction: only B7 = X x I saturates sin(t)
    "qobjects.conjugate_povm",  # TestConjugatePovm: the conjugation ambiguity of the attack
    "qobjects.kets_from_elements",  # test_reconstructed_povm_feeds_offdiag_analysis
    "qobjects.povm_extremality",  # TestPovmExtremality, TestRandomExtremal
    "qobjects.povm_validity",  # test_corrupted_correlations_detected, dilated POVMs valid
    "tomography.eta_matrix",  # test_06_tomography_round_trip: det eta = -sin(t)^4
]


def _references(tree: ast.AST) -> set[str]:
    """Names a syntax tree refers to: loads, attributes, imports and exact-name strings."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)  # bench/tracer.py names traced functions as strings
    return refs


def test_every_public_definition_is_reached():
    # One unit per top-level statement; a name is reached when a unit other
    # than its own definition refers to it.
    units = {
        path: [(node, _references(node)) for node in ast.parse(path.read_text("utf-8")).body]
        for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    }
    uses = Counter(name for unit in units.values() for _, refs in unit for name in refs)
    unreached = [
        f"{path.stem}.{node.name}"
        for path, unit in units.items()
        if path.parent == SRC
        for node, refs in unit
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and uses[node.name] - (node.name in refs) == 0
    ]
    assert sorted(unreached) == CLAIM_ENTRY_POINTS


def test_modules_keep_their_layers():
    # No module reads another module's _-prefixed name, and the attack layer
    # (adversary, tomography) does not import the Bell-test kernels.
    stems = {path.stem for path in SRC.glob("*.py")}
    problems = []
    for path in sorted(SRC.glob("*.py")):
        aliases = {}  # local name -> package module
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [(a.name, a.asname) for a in node.names]
                if node.module is None:  # from . import module as alias
                    aliases.update({asname or name: name for name, asname in names})
                    imported = [name for name, _ in names]
                else:  # from .module import name
                    imported = [node.module]
                    private = [name for name, _ in names if name.startswith("_")]
                    problems += [f"{path.stem} imports {node.module}.{name}" for name in private]
                if path.stem in ("adversary", "tomography") and "belltest" in imported:
                    problems.append(f"{path.stem} imports belltest")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id) in stems
                and node.attr.startswith("_")
            ):
                problems.append(f"{path.stem} reads {aliases[node.value.id]}.{node.attr}")
    assert problems == []


TIERS = {"ZERO_TOL", "IDENTITY_TOL", "RANK_TOL"}


def _raises_value_error(statements) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "ValueError"
        for statement in statements
        for node in ast.walk(statement)
    )


def test_only_the_gate_refuses_on_a_tier():
    # A contract check hands its residual and tier to matkernel.refuse_beyond,
    # which alone decides and words a refusal: outside it, no `if` whose test
    # reads a tier raises ValueError.  (DegenerateAttackError is a check outcome.)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {}  # node -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.If)
            and owner.get(node) != "refuse_beyond"
            and TIERS & _references(node.test)
            and _raises_value_error(node.body + node.orelse)
        ]
    assert found == []
