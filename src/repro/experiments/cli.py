"""Command-line driver: regenerate any paper table/figure.

Usage::

    python -m repro.experiments table1 --runs 100 --paper-scale --jobs 8
    python -m repro.experiments all --runs 10 --out results/

Each experiment prints its markdown table or ASCII chart and, with ``--out``,
also writes it to ``<out>/<name>.md``.  ``--jobs`` fans the simulation runs
out across worker processes (results are bit-for-bit identical to serial);
repeated invocations are served from the content-addressed result cache
unless ``--no-result-cache`` is given.

Observability (:mod:`repro.obs`): ``--metrics-out metrics.jsonl`` collects
the structured event stream plus a final metrics snapshot and writes them
as JSONL; ``--manifest-out manifest.json`` records the run manifest
(command, git SHA, versions, per-cell config fingerprints and timings).
``python -m repro.obs.report metrics.jsonl --manifest manifest.json``
validates and summarizes both.  ``--smoke`` shrinks runs and the table1
grid to CI size.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from repro.obs.events import write_jsonl
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.report import summarize
from repro.obs.scope import Observation, observe

from repro.experiments.ablations import (
    AblationCaptureConfig,
    AblationChurnConfig,
    AblationEnergyConfig,
    AblationNoiseConfig,
    AblationPrestepConfig,
    AblationSnrConfig,
    CrdsaComparisonConfig,
    run_ablation_capture,
    run_ablation_churn,
    run_ablation_energy,
    run_ablation_noise,
    run_ablation_prestep,
    run_ablation_snr,
    run_crdsa_comparison,
)
from repro.experiments.executor import ExecutionPlan, default_jobs
from repro.experiments.planner import PlannerConfig
from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig5 import Fig5Config, run_fig5
from repro.experiments.fig6 import Fig6Config, run_fig6
from repro.experiments.result_cache import ResultCache
from repro.experiments.table1 import Table1Config, run_table1
from repro.experiments.table2 import Table2Config, run_table2
from repro.experiments.table3 import Table3Config, run_table3
from repro.experiments.table4 import Table4Config, run_table4


def _render_table1(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    if args.paper_scale:
        config = Table1Config.paper_scale(runs=args.runs)
    elif args.smoke:
        config = Table1Config(n_values=[500, 1000], runs=args.runs)
    else:
        config = Table1Config(runs=args.runs)
    return run_table1(config, plan).table.render()


def _render_table2(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    return run_table2(Table2Config(runs=args.runs), plan).table.render()


def _render_table3(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    return run_table3(Table3Config(runs=args.runs), plan).table.render()


def _render_table4(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    return run_table4(Table4Config(runs=max(args.runs // 3, 1)),
                      plan).table.render()


def _render_fig3(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    result = run_fig3(Fig3Config(simulate=True))
    lines = [result.chart.render(), ""]
    for lam, bias in result.empirical.items():
        lines.append(f"empirical bias (lambda={lam}, N={result.config.n_max}):"
                     f" {bias:+.4f}")
    return "\n".join(lines)


def _render_fig4(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    result = run_fig4(Fig4Config(simulate=True))
    lines = [result.chart.render(), "",
             f"singleton count peaks at N ~ {result.singleton_peak_n:.0f}"]
    if result.empirical is not None:
        lines.append(f"Monte-Carlo at N={result.config.n_max}: "
                     f"empty/singleton/collision = "
                     + "/".join(f"{v:.2f}" for v in result.empirical))
    return "\n".join(lines)


def _render_fig5(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    result = run_fig5(Fig5Config(runs=max(args.runs // 5, 1)), plan)
    lines = [result.chart.render(), ""]
    for lam in result.config.lams:
        lines.append(f"FCAT-{lam} peaks at omega ~ {result.peak_omega(lam)}")
    return "\n".join(lines)


def _render_fig6(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    result = run_fig6(Fig6Config(runs=max(args.runs // 5, 1)), plan)
    lines = [result.chart.render(), ""]
    for lam in result.config.lams:
        lines.append(f"FCAT-{lam} plateau spread (f >= 10): "
                     f"{result.plateau_spread(lam):.1%}")
    return "\n".join(lines)


def _render_ablation_snr(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    return run_ablation_snr(AblationSnrConfig()).chart.render()


def _render_ablation_noise(args: argparse.Namespace,
                           plan: ExecutionPlan) -> str:
    return run_ablation_noise(
        AblationNoiseConfig(runs=max(args.runs // 3, 1)), plan).table.render()


def _render_crdsa(args: argparse.Namespace, plan: ExecutionPlan) -> str:
    return run_crdsa_comparison(
        CrdsaComparisonConfig(runs=max(args.runs // 3, 1)), plan
    ).table.render()


def _render_ablation_capture(args: argparse.Namespace,
                             plan: ExecutionPlan) -> str:
    return run_ablation_capture(
        AblationCaptureConfig(runs=max(args.runs // 3, 1)),
        plan).table.render()


def _render_ablation_prestep(args: argparse.Namespace,
                             plan: ExecutionPlan) -> str:
    return run_ablation_prestep(
        AblationPrestepConfig(runs=max(args.runs // 3, 1)),
        plan).table.render()


def _render_ablation_churn(args: argparse.Namespace,
                           plan: ExecutionPlan) -> str:
    return run_ablation_churn(AblationChurnConfig()).table.render()


def _render_ablation_energy(args: argparse.Namespace,
                            plan: ExecutionPlan) -> str:
    return run_ablation_energy(
        AblationEnergyConfig(runs=max(args.runs // 3, 1))).table.render()


EXPERIMENTS = {
    "table1": _render_table1,
    "table2": _render_table2,
    "table3": _render_table3,
    "table4": _render_table4,
    "fig3": _render_fig3,
    "fig4": _render_fig4,
    "fig5": _render_fig5,
    "fig6": _render_fig6,
    "ablation-snr": _render_ablation_snr,
    "ablation-noise": _render_ablation_noise,
    "ablation-crdsa": _render_crdsa,
    "ablation-capture": _render_ablation_capture,
    "ablation-prestep": _render_ablation_prestep,
    "ablation-churn": _render_ablation_churn,
    "ablation-energy": _render_ablation_energy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures")
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which experiments to run")
    parser.add_argument("--runs", type=int, default=10,
                        help="simulation runs per data point (paper: 100)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full N grid for table1")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write <experiment>.md files into")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep executor "
                             f"(0 = all cores, here {default_jobs()}); "
                             "results are identical to --jobs 1")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="recompute every cell instead of serving "
                             "previously computed ones from "
                             ".repro-results-cache.json")
    parser.add_argument("--result-cache", type=Path, default=None,
                        help="path of the result-cache file (default: "
                             "./.repro-results-cache.json)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="write the repro.obs event stream (plus a "
                             "final metrics snapshot) to this JSONL file")
    parser.add_argument("--manifest-out", type=Path, default=None,
                        help="write the run manifest (command, git SHA, "
                             "versions, per-cell timings) to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: caps --runs at 2 and shrinks "
                             "the table1 grid to N in {500, 1000} (with "
                             "--precision, --runs floors at 20 instead so "
                             "the planner has a budget to save)")
    parser.add_argument("--precision", type=float, default=None,
                        help="adaptive mode: stop each cell once the "
                             "throughput CI half-width reaches this "
                             "relative precision; --runs becomes the "
                             "nominal budget per cell")
    parser.add_argument("--min-runs", type=int, default=8,
                        help="adaptive mode: floor of runs per cell before "
                             "a stopping decision (default 8)")
    parser.add_argument("--max-runs", type=int, default=None,
                        help="adaptive mode: ceiling of runs per cell "
                             "(default: 2x the nominal budget)")
    return parser


def build_plan(args: argparse.Namespace) -> ExecutionPlan:
    """The execution plan the parsed CLI flags describe."""
    jobs = default_jobs() if args.jobs == 0 else args.jobs
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 0, got {args.jobs}")
    cache = None
    if not args.no_result_cache:
        cache = ResultCache(args.result_cache) if args.result_cache \
            else ResultCache()
    planner = None
    if args.precision is not None:
        try:
            planner = PlannerConfig(precision=args.precision,
                                    min_runs=args.min_runs,
                                    max_runs=args.max_runs)
        except ValueError as error:
            raise SystemExit(f"--precision: {error}") from None
    return ExecutionPlan(jobs=jobs, cache=cache, planner=planner)


def _write_observability(args: argparse.Namespace, plan: ExecutionPlan,
                         observation: Observation, command: list[str],
                         started_unix: float, wall_time_s: float) -> None:
    """Write ``--metrics-out`` / ``--manifest-out`` and print the summary."""
    observation.emit("metrics_snapshot",
                     metrics=observation.metrics.snapshot())
    manifest = build_manifest(
        observation, command=command,
        started_unix=started_unix, jobs=plan.jobs, wall_time_s=wall_time_s)
    if args.metrics_out is not None:
        write_jsonl(args.metrics_out, observation.events)
        print(f"[metrics: {len(observation.events)} events -> "
              f"{args.metrics_out}]", file=sys.stderr)
    if args.manifest_out is not None:
        write_manifest(args.manifest_out, manifest)
        print(f"[manifest: {len(manifest.cells)} cells -> "
              f"{args.manifest_out}]", file=sys.stderr)
    print(summarize(observation.events.events, manifest), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    command = ["repro-experiments",
               *(argv if argv is not None else sys.argv[1:])]
    args = build_parser().parse_args(argv)
    if args.smoke:
        # Adaptive smoke needs a budget worth saving: a 2-run nominal
        # leaves the planner nothing to stop early.
        args.runs = max(args.runs, 20) if args.precision is not None \
            else min(args.runs, 2)
    plan = build_plan(args)
    names = sorted(EXPERIMENTS) if "all" in args.experiments \
        else list(dict.fromkeys(args.experiments))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    observing = args.metrics_out is not None or args.manifest_out is not None
    observation = Observation() if observing else None
    started_unix = time.time()
    run_started = time.perf_counter()
    with observe(observation) if observing else nullcontext():
        for name in names:
            started = time.perf_counter()
            output = EXPERIMENTS[name](args, plan)
            elapsed = time.perf_counter() - started
            print(output)
            print(f"[{name} finished in {elapsed:.1f}s]", file=sys.stderr)
            if args.out is not None:
                (args.out / f"{name}.md").write_text(output + "\n")
    if observation is not None:
        _write_observability(args, plan, observation, command, started_unix,
                             wall_time_s=time.perf_counter() - run_started)
    if plan.planner is not None:
        print(f"[{plan.planner.stats.summary()}]", file=sys.stderr)
    if plan.cache is not None:
        print(f"[{plan.cache.stats()}]", file=sys.stderr)
    return 0


# `replace` is re-exported for tools that tweak configs programmatically.
__all__ = ["main", "build_parser", "build_plan", "EXPERIMENTS", "replace"]
