"""The library's public surface is what something reaches, and every gate can fire."""

import ast
import math
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bellrand
from bellrand import adversary as adv
from bellrand import belltest as bt
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg

SRC = Path(bellrand.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

# The public names with no reference in src/ or bench/, kept for the claim
# tests that call them.
CLAIM_ENTRY_POINTS = [
    "belltest.verify_b7_extraction",  # TestB7Extraction: only B7 = X x I saturates sin(t)
    "qobjects.conjugate_povm",  # TestConjugatePovm: the conjugation ambiguity of the attack
    "qobjects.kets_from_elements",  # test_reconstructed_povm_feeds_offdiag_analysis
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


# Every gate call in src/ and a public call, with nothing patched, that makes it
# raise: a gate on a value that the library builds from checked input cannot
# fire, and a call to it does not belong in the library.  A site is keyed by
# module.function, the gate and its ordinal among that function's calls to it.
GATES = (
    "refuse_beyond",
    "check_dichotomic_stack",
    "check_state_stack",
    "check_dilation",
    "rank_one_kets",
)
# Constructions that run a gate: `QState` and `Dichotomic` validate in
# __post_init__, and `qstate_from_kets` builds a `QState`.
CONSTRUCTORS = ("QState", "Dichotomic", "qstate_from_kets")

TETRA = qo.adjusted_tetrahedral(0.7)
BARE = qo.Povm(TETRA.elements)  # no kets
# finite kets whose dilation residual, rounding scaled by 1e10, is far past RANK_TOL
SCALED = qo.povm_from_kets(TETRA.kets * 1e5)
MERCEDES = qo.modified_mercedes(0.7)
NAN_KETS = qo.Povm(TETRA.elements, np.full((4, 2), math.nan))
PSI = qo.theta_ket(0.7)[1]
TWICE_PURE = 2 * qo.ANCILLA_PURE  # an ancilla ket of norm 2: a state of trace 4

FIRING_CALLS = {
    ("matkernel.eigh", "refuse_beyond", 1): lambda: mk.eigh([[0.0, 1.0], [0.0, 0.0]]),
    ("qobjects.QState.__post_init__", "check_state_stack", 1): lambda: qo.QState(
        np.diag([0.7, 0.7]), (2,)
    ),
    ("qobjects.Dichotomic.__post_init__", "check_dichotomic_stack", 1): lambda: qo.Dichotomic(
        2 * qo.PAULI_Z
    ),
    ("qobjects.check_dichotomic_stack", "refuse_beyond", 1): lambda: qo.Dichotomic(
        [[0.0, 1.0], [0.0, 0.0]]
    ),
    ("qobjects.check_dichotomic_stack", "refuse_beyond", 2): lambda: qo.Dichotomic(2 * qo.PAULI_Z),
    ("qobjects.check_state_stack", "refuse_beyond", 1): lambda: qo.QState(
        [[0.5, 1.0], [0.0, 0.5]], (2,)
    ),
    ("qobjects.check_state_stack", "refuse_beyond", 2): lambda: qo.QState(
        np.diag([1.5, -0.5]), (2,)
    ),
    ("qobjects.check_state_stack", "refuse_beyond", 3): lambda: qo.QState(
        np.diag([0.7, 0.7]), (2,)
    ),
    ("qobjects.kets_from_elements", "refuse_beyond", 1): lambda: qo.kets_from_elements(
        qo.Povm([np.eye(2)])
    ),
    ("tomography.rank_one_kets", "refuse_beyond", 1): lambda: tg.rank_one_kets(NAN_KETS),
    ("tomography.offdiag_set", "rank_one_kets", 1): lambda: tg.offdiag_set(BARE),
    ("tomography.check_dilation", "refuse_beyond", 1): lambda: tg.build_dilated_povm(
        TETRA, [0, 2, 0, 0]
    ),
    ("tomography.check_dilation", "refuse_beyond", 2): lambda: tg.build_dilated_povm(
        TETRA, [1, 0, 0, 0]
    ),
    ("tomography.build_dilated_povm", "rank_one_kets", 1): lambda: tg.build_dilated_povm(
        BARE, np.zeros(4)
    ),
    ("tomography.build_dilated_povm", "check_dilation", 1): lambda: tg.build_dilated_povm(
        TETRA, [1, 0, 0, 0]
    ),
    ("adversary.joint_amplitudes", "rank_one_kets", 1): lambda: adv.joint_amplitudes(
        BARE, TETRA, PSI
    ),
    ("adversary.joint_amplitudes", "rank_one_kets", 2): lambda: adv.joint_amplitudes(
        TETRA, BARE, PSI
    ),
    ("adversary.attack_rows", "check_dilation", 1): lambda: adv.attack_rows(
        np.array([0.7]), PSI[None], SCALED.kets[None], TETRA.kets[None]
    ),
    ("adversary.build_attack", "rank_one_kets", 1): lambda: adv.build_attack(BARE, TETRA, 0.7),
    ("adversary.min_entropy", "refuse_beyond", 1): lambda: adv.min_entropy([[0.5, 0.6]]),
    ("adversary.min_entropy", "refuse_beyond", 2): lambda: adv.min_entropy([[1.5, -0.5]]),
    ("adversary.qubit_reduction_check", "rank_one_kets", 1): lambda: adv.qubit_reduction_check(
        BARE, MERCEDES, 0.7
    ),
    ("adversary.qubit_reduction_check", "check_dilation", 1): lambda: adv.qubit_reduction_check(
        SCALED, MERCEDES, 0.7
    ),
    ("adversary.qubit_reduction_check", "check_dilation", 2): lambda: adv.qubit_reduction_check(
        TETRA, SCALED, 0.7
    ),
    ("qobjects.qstate_from_kets", "QState", 1): lambda: qo.qstate_from_kets(TWICE_PURE),
    ("belltest.ideal_scenario", "qstate_from_kets", 1): lambda: bt.ideal_scenario(0.7, TWICE_PURE),
    (
        "belltest.projective_joint_distribution",
        "qstate_from_kets",
        1,
    ): lambda: bt.projective_joint_distribution(0.7, TWICE_PURE),
}
EXEMPT = {
    ("cli._sweep_rows", "refuse_beyond", 1): "a report gate on sweep's own kernels' output",
}
# Constructions that no input can make fail, because they validate values the
# library built in closed form; each is a per-angle oracle that leaves src/ with
# the numpy oracle layer.
ORACLE_SITES = {
    ("qobjects.psi_theta", "qstate_from_kets", 1): "the theta-ket, a unit ket in closed form",
    ("qobjects.phi_theta", "qstate_from_kets", 1): "its spectral partner, a unit ket too",
    ("qobjects.compose_with_ancilla", "QState", 1): "the product of two validated states",
    **{
        ("qobjects.ideal_measurements", "Dichotomic", k): "Pauli products, and sums of two"
        " anticommuting ones with weights whose squares sum to 1"
        for k in range(1, 10)
    },
}


def _gate_sites() -> dict:
    """(module.function, gate, ordinal) -> (path, first line, last line) of every gate call.

    A call to one of the `CONSTRUCTORS` counts as a gate call.
    """
    sites = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}")
                continue
            func = getattr(child, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(child, ast.Call) and name in GATES + CONSTRUCTORS:
                ordinal = 1 + sum(key[:2] == (scope, name) for key in sites)
                sites[scope, name, ordinal] = (path, child.lineno, child.end_lineno)
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), str(path), path.stem)
    return sites


SITES = _gate_sites()


def test_every_gate_call_is_listed():
    assert sorted(SITES) == sorted([*FIRING_CALLS, *EXEMPT, *ORACLE_SITES])


@pytest.mark.parametrize("site", sorted(FIRING_CALLS), ids=lambda k: f"{k[0]}:{k[1]}#{k[2]}")
def test_every_gate_call_can_fire(site):
    # the ValueError must pass through the listed call, not another gate on the way
    path, first, last = SITES[site]
    with pytest.raises(ValueError) as refusal:
        FIRING_CALLS[site]()
    frames = [(f.f_code.co_filename, n) for f, n in traceback.walk_tb(refusal.value.__traceback__)]
    assert any(file == path and first <= line <= last for file, line in frames), frames


def _import_time_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every call a module makes on import: every call outside a function body.

    Class bodies, decorators and default values run on import; function and
    lambda bodies do not.
    """
    calls, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo += [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            todo += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call):
            calls.append((getattr(node.func, "attr", getattr(node.func, "id", None)), node.lineno))
        todo += ast.iter_child_nodes(node)
    return calls


def test_no_gate_runs_at_import():
    # a gate on constants has nothing to refuse, and it costs every process an
    # eigendecomposition; `eigh` covers `mk.eigh`, whose gate is its Hermiticity check
    gates = {*GATES, *CONSTRUCTORS, "eigh"}
    found = [
        f"{path.stem}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _import_time_calls(ast.parse(path.read_text("utf-8")))
        if name in gates
    ]
    assert found == []


def test_only_validating_records_are_dataclasses():
    # One record idiom: a record is a NamedTuple, and @dataclass is kept for the
    # classes whose construction validates, in their own __post_init__.
    has_post_init = {
        f"{path.stem}.{node.name}": any(
            isinstance(s, ast.FunctionDef) and s.name == "__post_init__" for s in node.body
        )
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in _references(d) for d in node.decorator_list)
    }
    validating = ("belltest.BellScenario", "qobjects.Dichotomic", "qobjects.Povm", "qobjects.QState")
    assert has_post_init == dict.fromkeys(validating, True)
