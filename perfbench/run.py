"""Benchmark of infoot, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload specs --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics: set-up is repeated and its
median reported, then passes over the workload repeat, closed loop, for
``--seconds`` (at least five passes), and the median pass is reported;
ops that run once a run (the retrieval fit) run before the passes.
``--trace 1`` runs one untraced pass and then one traced pass, each with
the once-a-run ops, and reports
the per-layer metrics of the traced pass (see spans.py) with the tracing
overhead.

Every op's outputs are checked: repeats within a run must agree exactly,
and outputs that the committed reference covers must match it. Exceptions,
nonzero exit codes and mismatches count as failed ops. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that BENCHMARK.json lists; every metric is also
printed by name and unit, and the whole result, stamped with the backend,
thread count, versions, revision and seed, is written under
``perfbench/out/``. ``--smoke`` runs every workload at toy size, traced
and untraced, and checks that each metric is emitted with its unit, that
the trace file parses and that no self time is negative.

The benchmark sets neither ``INFOOT_THREADS`` nor ``INFOOT_BACKEND``: it
measures what a user gets by default, and records both settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 7
# Five passes at least, so that the reported pass is a median of several
# and every run checks repeats against each other.
MIN_PASSES = 5
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import infoot; "
                  "print(time.perf_counter() - t)")
# The solver's outer loop stops once the plan moves by less than 1e-6, so
# results are defined to about that; these tolerances leave room for a
# solver that stops a step earlier or later, and nothing more.
REL_TOL = 1e-4
ABS_TOL = 1e-6
# Solver effort, not a result: the per-layer metrics count it instead.
_EFFORT_KEYS = {"outer_iterations"}


def _import_library():
    sys.path.insert(0, str(SRC))
    try:
        import infoot
    except ImportError as err:
        sys.exit(f"perfbench: cannot import infoot from {SRC}: {err}")
    if Path(infoot.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported infoot from {infoot.__file__}, "
                 f"not from {SRC}")
    return infoot


infoot = _import_library()
import infoot._parallel  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, trace: int, smoke: bool) -> dict:
    """What must match for two results to be comparable, plus the revision
    and source digest that identify the code being compared."""
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "backend": infoot.BACKEND,
        "threads": infoot._parallel.thread_count(),
        "INFOOT_THREADS": os.environ.get("INFOOT_THREADS"),
        "INFOOT_BACKEND": os.environ.get("INFOOT_BACKEND"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": _revision(),
        "source_sha256": _source_digest(),
    }


def _time_import() -> float:
    """Seconds to import infoot in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) - _EFFORT_KEYS
        return keys == set(b) - _EFFORT_KEYS and all(
            _close(a[k], b[k]) for k in keys)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)
    return a == b


class Gate:
    """Correctness gate: repeats agree exactly, the reference within
    tolerance."""

    def __init__(self, workload, reference: dict | None, seed: int):
        self.workload = workload
        self.reference = reference
        self.seed = seed
        self.first: dict = {}

    def problem(self, op: str, outputs) -> str | None:
        first = self.first.setdefault(op, outputs)
        if outputs != first:
            return f"{op}: differs from the first repeat in this run"
        if self.reference is None or not (
                self.seed == DEFAULT_SEED or self.workload.seed_free(op)):
            return None
        if op not in self.reference:
            return f"{op}: missing from the reference"
        if not _close(outputs, self.reference[op]):
            return f"{op}: differs from the reference"
        return None


class Tally:
    """Attempted and failed ops, and each op's timed library call."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.op_times: dict[str, list[float]] = {}

    def run_ops(self, ops) -> float:
        """Run ``(name, fn)`` ops in order; returns the seconds taken."""
        start = time.perf_counter()
        for op, fn in ops:
            self.attempted += 1
            try:
                elapsed, outputs = fn()
            except Exception:  # one failed op must not end the run
                self.failed += 1
                print(f"perfbench: op {op} raised", file=sys.stderr)
                traceback.print_exc()
                continue
            problem = self.gate.problem(op, outputs)
            if problem:
                self.failed += 1
                print(f"perfbench: {problem}", file=sys.stderr)
                continue
            self.op_times.setdefault(op, []).append(elapsed)
        return time.perf_counter() - start


def _load_reference(name: str) -> dict:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if name not in table:
        raise SystemExit(f"perfbench: {REFERENCE} has no outputs for {name}")
    return table[name]


def _run_once_and_pass(workload, tally: Tally, counters: dict) -> float:
    """Build the inputs, run the once-a-run ops and one pass; returns the
    seconds taken."""
    start = time.perf_counter()
    inputs = workload.build()
    tally.run_ops(workload.once(inputs, counters))
    tally.run_ops(workload.ops(inputs, counters))
    return time.perf_counter() - start


def _untraced(workload, tally: Tally, seconds: float) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _time_import()
        start = time.perf_counter()
        inputs = workload.build()
        setups.append(import_s + time.perf_counter() - start)
    walls = []
    deadline = time.perf_counter() + seconds
    tally.run_ops(workload.once(inputs, {}))
    # A pass starts only if a pass of median length still ends in time.
    while len(walls) < MIN_PASSES or (
            time.perf_counter() + statistics.median(walls) <= deadline):
        walls.append(tally.run_ops(workload.ops(inputs, {})))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    metrics.update(workload.extras(tally.op_times))
    return metrics, walls


def _traced(workload, tally: Tally, trace_path: Path) -> tuple[dict, list]:
    untraced_s = _run_once_and_pass(workload, tally, {})
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        start = time.perf_counter()
        traced_s = _run_once_and_pass(workload, tally, tracer.counters)
    finally:
        spans.uninstall(saved)
    tracer.write(trace_path)
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.coverage"] = (
        spans.coverage(tracer.spans, start, start + traced_s), "ratio")
    return metrics, [untraced_s, traced_s]


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool,
        write_reference: bool = False) -> dict:
    """Run one workload and write its result file; returns the result."""
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, workdir)
    reference = None if smoke or write_reference else _load_reference(name)
    tally = Tally(Gate(workload, reference, seed))
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    if trace:
        metrics, walls = _traced(workload, tally, OUT / f"{tag}.trace.jsonl")
    else:
        metrics, walls = _untraced(workload, tally, seconds)
    result = {
        "stamp": stamp(name, seed, trace, smoke),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "pass_walls": walls,
        "outputs": tally.gate.first,
    }
    (OUT / f"{tag}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    if write_reference:
        if smoke or seed != DEFAULT_SEED or tally.failed:
            raise SystemExit("perfbench: a reference is written only from a "
                             "full-size run at the default seed with no "
                             "failed op")
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
            else {}
        table[name] = tally.gate.first
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n")
    return result


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(seconds: float) -> int:
    """Toy-size run of every workload; returns the number of problems."""
    declared = _declared()
    problems = []
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, DEFAULT_SEED, seconds, trace, smoke=True)
            got = result["metrics"]
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: failed ops")
            for metric in declared[group]:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing or "
                                    f"not in {metric['unit']}")
            for metric, entry in got.items():
                if not entry["unit"] or math.isnan(entry["value"]):
                    problems.append(f"{name}: {metric} has no unit or no "
                                    "value")
            if trace:
                path = OUT / f"{name}-seed{DEFAULT_SEED}-smoke.trace.jsonl"
                records = [spans.Span(**json.loads(line))
                           for line in path.read_text().splitlines()]
                if not records:
                    problems.append(f"{name}: empty trace")
                own = spans.self_times(records)
                negative = [s.name for s in records if own[s.id] < 0]
                if negative:
                    problems.append(f"{name}: negative self time in "
                                    f"{sorted(set(negative))}")
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'ok' if not problems else 'FAILED'}")
    return len(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check "
                             "the emitted metrics and trace")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "(full size, default seed)")
    args = parser.parse_args(argv)
    if args.smoke:
        return 1 if _smoke(min(args.seconds, 1.0)) else 0
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    declared = _declared()
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 smoke=False, write_reference=args.write_reference)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {result['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in declared[group]:
        entry = result["metrics"][metric["name"]]
        if entry["unit"] != metric["unit"]:
            raise SystemExit(f"perfbench: {metric['name']} is in "
                             f"{entry['unit']}, BENCHMARK.json says "
                             f"{metric['unit']}")
        metrics[metric["name"]] = entry
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
