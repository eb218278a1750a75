"""bellrand benchmark: one command, seeded closed-loop workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload angle_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes over the workload's first few items
and reports per-layer calls and self times plus the tracing overhead; the
spans of the first traced pass are written to ``.bench_out/``.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="bellrand benchmark")
    p.add_argument("--workload", required=True, choices=("angle_grid", "single_angle_calls", "random_attack"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process set-up: import bellrand (numpy included) and warm the workload up."""
    t0 = time.perf_counter()
    import workloads

    pkg = workloads.load_bellrand(ROOT)
    workloads.WORKLOADS[workload](pkg, seed).warmup()
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_item(wl, k: int, tally: measure.Tally, root_span=None):
    """Run and check item k; returns (seconds, input, output or None)."""
    inp = wl.inputs(k)
    out, error = None, None
    t0 = time.perf_counter()
    try:
        if root_span is None:
            out = wl.run(inp)
        else:
            with root_span(k):
                out = wl.run(inp)
    except Exception as exc:  # an unexpected exception is a failed operation
        error = exc
    dt = time.perf_counter() - t0
    if error is not None:
        problems = [f"{type(error).__name__}: {error}"]
    else:
        try:
            problems = wl.check(inp, out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:  # malformed output
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    tally.record(f"{wl.name}[{k}]", problems)
    return dt, inp, out


def replay(wl, outputs: dict, tally: measure.Tally) -> None:
    """Same input, same bytes: rerun kept items untimed and compare digests."""
    for k, first in outputs.items():
        try:
            again = wl.digest(wl.run(wl.inputs(k)))
            problems = [] if again == first else ["replay output differs from the first run"]
        except Exception as exc:  # a replay that raises is a failed operation
            problems = [f"replay raised {type(exc).__name__}: {exc}"]
        tally.record(f"{wl.name}[{k}] replay", problems)


def run_end_to_end(wl, seconds: float, tally: measure.Tally) -> dict:
    wl.warmup()
    keep = {}
    secs, units = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        dt, inp, out = timed_item(wl, k, tally)
        secs.append(dt)
        units.append(wl.units(inp))
        if k < wl.replay_items and out is not None:
            keep[k] = wl.digest(out)
        k += 1
    replay(wl, keep, tally)
    per_unit_ms = [1000.0 * s / u for s, u in zip(secs, units)]
    tail = measure.tail_percentile(len(secs), wl.tail_wanted)
    return {
        "items": len(secs),
        "units": sum(units),
        "items_per_s": measure.windowed_rate(units, secs),
        "item_p50_ms": measure.percentile(per_unit_ms, 50.0),
        "item_tail_ms": measure.percentile(per_unit_ms, tail),
        "tail_percentile": tail,
        "replays": len(keep),
    }


def run_traced(wl, pkg, seconds: float, tally: measure.Tally) -> dict:
    """Alternate untraced and traced passes over the first `trace_items` items."""
    wl.warmup()
    tracer = tr.Tracer()
    untraced_s, traced_s, passes = [], [], []
    first_spans = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        untraced_s.append(sum(timed_item(wl, k, tally)[0] for k in range(wl.trace_items)))
        tracer.reset()
        with tr.patched(tracer, pkg):
            traced_s.append(sum(timed_item(wl, k, tally, tracer.root)[0] for k in range(wl.trace_items)))
        summary = tr.summarize(tracer.spans, tracer.counts)
        summary["residual_s"] = sum(summary["self_s"].values()) - summary["root_s"]
        if abs(summary["residual_s"]) > 1e-9 * (summary["n_spans"] + 1):
            tally.record("trace self-time sum", [f"self times miss the root duration by {summary['residual_s']!r} s"])
        passes.append(summary)
        if first_spans is None:
            first_spans = tracer.spans
    return {
        "passes": passes,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "first_spans": first_spans,
    }


def layer_metrics(traced: dict) -> dict:
    passes = traced["passes"]

    def med(get):
        return statistics.median(get(s) for s in passes)

    m = {}
    for layer, names in tr.TRACED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            m[f"{name}.calls"] = (int(med(lambda s: s["calls"].get(name, 0))), "count")
            m[f"{name}.self_s"] = (med(lambda s: s["self_s"].get(name, 0.0)), "s")
        m[f"{layer}.self_s"] = (med(lambda s: s["layer_self_s"].get(layer, 0.0)), "s")
    m["bench.self_s"] = (med(lambda s: s["self_s"].get(tr.ROOT, 0.0)), "s")
    for counter in ("matkernel.kron.out_elems", "matkernel.expval.elems"):
        m[counter] = (int(med(lambda s: s["counts"].get(counter, 0))), "count")

    def degenerate(s):
        calls = s["calls"].get("adversary.build_attack", 0)
        bad = s["errors"].get("adversary.build_attack", {}).get("DegenerateAttackError", 0)
        return bad / calls if calls else 0.0

    m["adversary.build_attack.degenerate_frac"] = (med(degenerate), "ratio")
    overhead = statistics.median(traced["traced_s"]) / statistics.median(traced["untraced_s"]) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for name, start, end, parent, run, error in spans:
            rec = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
            if error is not None:
                rec["error"] = error
            f.write(json.dumps(rec) + "\n")


def provenance(args, wl_info: dict) -> dict:
    import numpy

    import bellrand

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bellrand": getattr(bellrand, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **wl_info,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not (ROOT / "src" / "bellrand" / "__init__.py").is_file():
        print(f"error: bellrand sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    pkg = workloads.load_bellrand(ROOT)
    wl = workloads.WORKLOADS[args.workload](pkg, args.seed)
    tally = measure.Tally()
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"bench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]

    if args.trace == 0:
        setup = measure_setup(wl.name, args.seed)
        res = run_end_to_end(wl, args.seconds, tally)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (res["items_per_s"], "1/s"),
            "item_p50_ms": (res["item_p50_ms"], "ms"),
            "item_tail_ms": (res["item_tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        lines.append(f"  items: {res['items']} timed ({res['units']} {wl.unit}s), {res['replays']} replayed")
        tail = f"p{res['tail_percentile']:g}"
        lines.append(f"  item = one {wl.unit}: items_per_s is {wl.unit}s_per_s, item_p50_ms is {wl.unit}_p50_ms, "
                     f"item_tail_ms is {wl.unit}_{tail}_ms ({tail} of {res['items']} samples)")
        lines.append(f"  setup_s over {len(setup)} fresh processes: {', '.join(f'{t:.4f}' for t in setup)}")
        info = {"items": res["items"], "units": res["units"], "unit": wl.unit,
                "tail_percentile": res["tail_percentile"], "setup_probes": len(setup),
                "replays": res["replays"]}
    else:
        res = run_traced(wl, pkg, args.seconds, tally)
        metrics = layer_metrics(res)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        write_spans(res["first_spans"], path)
        first = res["passes"][0]
        lines.append(f"  {len(res['passes'])} traced passes of {wl.trace_items} items; "
                     f"spans of the first ({first['n_spans']}) in {path.relative_to(ROOT)}")
        lines.append(f"  tracing overhead: traced pass median {statistics.median(res['traced_s']):.4f} s "
                     f"vs untraced {statistics.median(res['untraced_s']):.4f} s")
        worst = max(abs(p["residual_s"]) for p in res["passes"])
        lines.append(f"  self times add up to the root spans' duration within {worst:.3g} s in every pass")
        info = {"trace_passes": len(res["passes"]), "items_per_pass": wl.trace_items, "unit": wl.unit}

    info["attempted"] = tally.attempted
    info["failed"] = tally.failed
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  failed_frac = {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    lines += [f"  FAILED {r}" for r in tally.reasons]
    print("\n".join(lines))
    print("provenance: " + json.dumps(provenance(args, info), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
