"""In-memory span tracing of bellrand's public functions, from outside the library.

A :class:`Tracer` records one span per call of a wrapped function: its name,
start, end, the index of the enclosing span (-1 for a root) and the run id
shared by every span of one benchmark item.  :func:`patched` swaps each
traced function for a recording wrapper in every ``bellrand`` module
namespace that binds it (``mk.kron`` lookups and by-name imports such as
``belltest.beta_of_theta`` alike) and restores the originals on exit.
Class construction (the validation cost of ``QState`` and ``Dichotomic``) is
traced through the class's ``__post_init__``.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# Traced names per layer, in bellrand's own module names.  Each entry is a
# module-level function, or a dataclass whose __post_init__ is traced.
TRACED = {
    "matkernel": (
        "kron",
        "expval",
        "partial_trace",
        "permute_subsystems",
        "eigh",
        "null_space",
        "haar_unitary",
    ),
    "qobjects": (
        "QState",
        "Dichotomic",
        "psi_theta",
        "compose_with_ancilla",
        "ideal_measurements",
        "adjusted_tetrahedral",
        "modified_mercedes",
        "near_y_tetrahedral",
    ),
    "belltest": (
        "ideal_scenario",
        "eval_bell",
        "spectral_selftest",
        "theta_of_beta",
        "projective_joint_distribution",
        "bell_report",
    ),
    "tomography": (
        "correlations_from_povm",
        "reconstruct_povm",
        "offdiag_set",
        "build_dilated_povm",
        "random_extremal_povm",
    ),
    "adversary": (
        "build_attack",
        "evaluate_attack",
        "ideal_joint",
        "joint_amplitudes",
        "closed_form_joint",
        "brute_force_joint",
        "qubit_reduction_check",
        "attack_report",
    ),
    "cli": ("main", "build_parser", "cmd_selftest", "cmd_sweep", "cmd_certify", "cmd_attack"),
}

# Work counts taken from argument shapes at the call boundary.
SHAPE_COUNTERS = {
    "matkernel.kron": ("out_elems", lambda a, b: _size(a) * _size(b)),
    "matkernel.expval": ("elems", lambda op, rho: _size(op)),
}

ROOT = "bench.item"


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is None:
        import numpy as np

        size = np.size(x)
    return int(size)


class Tracer:
    """Span recorder.  Spans are lists ``[name, start, end, parent, run, error]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def _open(self, name: str, run: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, run, None])
        self._stack.append(idx)
        self.spans[idx][1] = self.clock() - self.origin
        return idx

    def _close(self, idx: int, error: BaseException | None) -> None:
        end = self.clock() - self.origin
        span = self.spans[idx]
        span[2] = end
        if error is not None:
            span[5] = type(error).__name__
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, run: int):
        """Root span of one benchmark item; every span inside shares `run`."""
        idx = self._open(ROOT, run)
        error = None
        try:
            yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._close(idx, error)

    def wrap(self, name: str, fn):
        counter = SHAPE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            run = self.spans[self._stack[-1]][4] if self._stack else -1
            if counter is not None:
                key, measure = counter
                self.counts[f"{name}.{key}"] += measure(*args, **kwargs)
            idx = self._open(name, run)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(idx, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _bellrand_modules():
    return [m for key, m in list(sys.modules.items()) if key == "bellrand" or key.startswith("bellrand.")]


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Route every traced function through `tracer` until the block exits."""
    restore = []
    namespaces = _bellrand_modules()
    try:
        for layer, names in TRACED.items():
            home = getattr(package, layer)
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                obj = getattr(home, fn_name)
                if isinstance(obj, type):
                    init = obj.__dict__["__post_init__"]
                    restore.append((obj, "__post_init__", init))
                    setattr(obj, "__post_init__", tracer.wrap(name, init))
                    continue
                wrapper = tracer.wrap(name, obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            restore.append((ns, attr, obj))
                            setattr(ns, attr, wrapper)
        yield
    finally:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered_length(children.get(i, ()), span[1], span[2])
        for i, span in enumerate(spans)
    ]


def summarize(spans, counts) -> dict:
    """Aggregate one traced pass: calls and self time per name and per layer.

    Also returns the root duration, so callers can check that the self times
    of a pass add up to the time its root spans cover.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    errors: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    root_s = 0.0
    for span, st in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        self_s[name] += st
        if span[5] is not None:
            errors[name][span[5]] += 1
        if span[3] < 0:
            root_s += span[2] - span[1]
    layer_s: dict[str, float] = defaultdict(float)
    for name, st in self_s.items():
        layer_s[name.split(".", 1)[0]] += st
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_self_s": dict(layer_s),
        "errors": {k: dict(v) for k, v in errors.items()},
        "counts": dict(counts),
        "root_s": root_s,
        "n_spans": len(spans),
    }
