"""Command-line entry point: ``infoot <command> <spec> [options]``.

Every command reads an experiment spec (JSON), applies flag overrides
and writes its artifacts into the output directory: ``report.json``
always, plus ``coupling.csv``, ``projection.csv``, ``scores.csv`` and
``plot_points.csv`` where the command produces them. Every CSV goes
through :func:`infoot.points.write_csv`. Exit codes: 0 on success, 1 on
validation errors, 2 when a solve did not converge (the artifacts are
still written so the run can be inspected, and one ``warning:`` line on
stderr says how the fit stopped).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .datasets import ClusterSample, gen_clusters
from .pipelines import (EvalReport, ExperimentSpec, _report,
                        adaptation_pipeline, load_spec, project_pipeline,
                        retrieval_pipeline, solve_pipeline,
                        validate_bandwidth_pipeline)
from .points import save_points_csv, write_csv
from .projection import _MODES, ScoreMatrix

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoot", usage="%(prog)s <command> <spec> [options]",
        description="Mutual-information regularized transport between "
                    "sampled domains",
        epilog="commands:\n" + "\n".join(
            f"  {name:<20}{text}" for name, (text, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("spec", help="path to the experiment spec JSON")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="override the mutual-information weight")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the entropic strength")
    parser.add_argument("--bandwidth", type=float, default=None,
                        help="override the kernel bandwidth")
    parser.add_argument("--seed", type=int, default=None,
                        help="override generator and solver seeds")
    parser.add_argument("--mode", choices=_MODES,
                        default=None, help="override the projection mode")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the spec)")
    return parser


def _given(**flags) -> dict:
    """The flags among ``flags`` that were given on the command line."""
    return {name: value for name, value in flags.items() if value is not None}


def _apply_overrides(spec: ExperimentSpec,
                     args: argparse.Namespace) -> ExperimentSpec:
    # The solver goes first, so its flags are checked before a bad --seed.
    seed = _given(seed=args.seed)
    solver = replace(spec.solver, **seed, **_given(
        lam=args.lam, eps=args.epsilon, bandwidth=args.bandwidth))
    return replace(spec, solver=solver, **_given(out=args.out),
                   generator=replace(spec.generator, **seed),
                   projection=replace(spec.projection, **_given(mode=args.mode)))


def _write_report(outdir: Path, report: EvalReport) -> None:
    (outdir / "report.json").write_text(report.to_json() + "\n")


def _write_plot_points(path: Path, sample: ClusterSample,
                       projected=None) -> None:
    """One row per sample: domain, index, cluster id, coordinates and (for
    source rows, when available) the projected coordinates."""
    d = sample.source.d
    blank = [""] * d
    proj = [] if projected is None else projected.tolist()
    rows = [["source", i, cid, *row, *(proj[i] if i < len(proj) else blank)]
            for i, (row, cid) in enumerate(zip(sample.source.points.tolist(),
                                               sample.source_ids.tolist()))]
    rows += [["target", j, cid, *row, *blank]
             for j, (row, cid) in enumerate(zip(sample.target.points.tolist(),
                                                sample.target_ids.tolist()))]
    write_csv(path, rows, ["domain", "index", "cluster"]
              + [f"x{i}" for i in range(d)] + [f"proj_x{i}" for i in range(d)])


def _cmd_generate(spec: ExperimentSpec, outdir: Path) -> int:
    start = time.perf_counter()
    sample = gen_clusters(spec.generator)
    save_points_csv(outdir / "points_source.csv", sample.source)
    save_points_csv(outdir / "points_target.csv", sample.target)
    _write_plot_points(outdir / "plot_points.csv", sample)
    _write_report(outdir, _report(spec, {}, start))
    return 0


def _write_fit(outdir: Path, report: EvalReport, fit, sample: ClusterSample,
               artifact=None) -> int:
    """Write a fit's report, coupling and plot points, plus the projection
    or the retrieval scores its pipeline returned after them.

    Returns the exit code: 2, with one warning line on stderr, when the
    solve did not converge.
    """
    _write_report(outdir, report)
    write_csv(outdir / "coupling.csv", fit.result.coupling.values)
    projected = None
    if isinstance(artifact, ScoreMatrix):
        write_csv(outdir / "scores.csv", artifact.values)
    elif artifact is not None:
        projected = np.atleast_2d(artifact)
        write_csv(outdir / "projection.csv",
                  [[i, *row] for i, row in enumerate(projected.tolist())],
                  ["query_id"] + [f"x{i}" for i in range(projected.shape[1])])
    _write_plot_points(outdir / "plot_points.csv", sample, projected)
    if fit.result.converged:
        return 0
    diag = fit.result.diagnostics
    inner = ("all converged" if diag["inner_converged"]
             else "did not all converge")
    print(f"warning: fit did not converge: {fit.result.iterations} outer "
          f"steps, final plan delta {diag['final_plan_delta']:.3g}, inner "
          f"solves {inner}", file=sys.stderr)
    return 2


def _cmd_validate(spec: ExperimentSpec, outdir: Path) -> int:
    report, _, _ = validate_bandwidth_pipeline(spec)
    _write_report(outdir, report)
    return 0


# Each command's help text and handler. The pipelines are looked up when a
# command runs, so a caller that replaces one of these module names (as the
# benchmark's tracer does) is seen.
_COMMANDS = {
    "generate": ("sample the scenario data and write it out", _cmd_generate),
    "solve": ("solve the alignment and write the coupling",
              lambda spec, out: _write_fit(out, *solve_pipeline(spec))),
    "project": ("solve, then map source points into the target domain",
                lambda spec, out: _write_fit(out, *project_pipeline(spec))),
    "adapt": ("label-transfer run scored on held-out targets",
              lambda spec, out: _write_fit(out, *adaptation_pipeline(spec))),
    "retrieve": ("cross-domain retrieval scored by precision at k",
                 lambda spec, out: _write_fit(out, *retrieval_pipeline(spec))),
    "validate-bandwidth": ("pick the kernel bandwidth by circular validation",
                           _cmd_validate),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _apply_overrides(load_spec(args.spec), args)
        if spec.out is None:
            raise ValueError("no output directory: set --out or the spec's "
                             "'out' key")
        outdir = Path(spec.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _, handler = _COMMANDS[args.command]
        return handler(spec, outdir)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
