"""Guards for code that lives outside the library but runs against it.

``perfbench/spans.py`` replaces functions under the module attributes their
callers look up. A rename or removal in the library would otherwise surface
only when the traced benchmark runs; these checks catch it in the unit tests.
README's Quick start block is run as written and its printed values checked
against the values its comments promise.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans(monkeypatch) -> types.ModuleType:
    # Executed from its source text, so nothing (no bytecode cache) is
    # written next to the benchmark's files. Dataclasses look their module
    # up in sys.modules while the class body is processed.
    module = types.ModuleType("perfbench_spans")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_names_exist(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in spans._TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
    for mod in spans._PARALLEL_USERS:
        assert hasattr(importlib.import_module(mod), "parallel_map"), mod
    assert callable(importlib.import_module("infoot._parallel").thread_count)


def test_kernel_span_carries_what_the_layer_metrics_read(monkeypatch):
    # The benchmark's core.kernel.* metrics read the kernel's arguments
    # (the shape of S) and its result (iterations, convergence flag). A
    # solve is one kernel call, its Newton steps included, so the kernel
    # spans say what the solves' reports say: a cap hit is a solve that
    # ran out of budget.
    import infoot.cli  # noqa: F401  (install patches the CLI's names too)
    from infoot import sinkhorn

    spans = _load_spans(monkeypatch)
    rng = np.random.default_rng(7)
    C = rng.uniform(0, 1, (6, 11))
    p = rng.uniform(0.5, 1.5, 6)
    q = rng.uniform(0.5, 1.5, 11)
    p, q = p / p.sum(), q / q.sum()
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        reports = [sinkhorn(C, p, q, eps=0.02, max_iter=max_iter,
                            tol=1e-12)[1] for max_iter in (20000, 3, 8)]
        reports.append(sinkhorn(C.T, q, p, eps=0.02, max_iter=20000,
                                tol=1e-12,
                                init=reports[0].potential_source)[1])
    finally:
        spans.uninstall(saved)
    assert reports[0].converged and reports[0].newton_steps > 0
    assert not reports[1].converged and not reports[2].converged
    assert reports[2].newton_steps > 0
    kernel = [s for s in tracer.spans if s.name == "_core.kernel"]
    assert [s.attrs for s in kernel] == [
        {"n": n, "m": m, "iters": r.iterations, "converged": r.converged}
        for (n, m), r in zip([(6, 11)] * 3 + [(11, 6)], reports)]


def test_cli_looks_up_traced_names_when_a_command_runs(monkeypatch,
                                                      tmp_path):
    import infoot.cli

    spans = _load_spans(monkeypatch)
    commands = {"load_spec": "solve", "solve_pipeline": "solve",
                "project_pipeline": "project",
                "adaptation_pipeline": "adapt",
                "retrieval_pipeline": "retrieve"}
    traced = {attr for mod, attr, *_ in spans._TARGETS
              if mod == "infoot.cli" and attr != "main"}
    assert traced and traced <= set(commands)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": {"sizes": [8, 8], "seed": 3},
        "solver": {"lam": 10.0, "outer_iters": 20, "inner_max_iter": 2000,
                   "inner_tol": 1e-8}}))
    for attr in sorted(traced):
        calls = []

        def wrapper(*args, original=getattr(infoot.cli, attr), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(infoot.cli, attr, wrapper)
            code = infoot.cli.main([commands[attr], str(spec),
                                    "--out", str(tmp_path / attr)])
        assert code == 0, attr
        assert len(calls) == 1, attr


def test_readme_quick_start_prints_what_it_promises():
    readme = (ROOT / "README.md").read_text()
    assert len(re.findall(r"^```python\n", readme, re.M)) == 1
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    promised = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert promised == ["True", "1.0", "(50, 2)"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == promised
