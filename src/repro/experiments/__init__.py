"""Experiment runners: one module per paper table/figure plus ablations.

Every runner is a pure function from an explicit config to a result object
carrying both raw numbers (for tests and benchmarks) and rendered markdown /
ASCII output (for reports).  ``python -m repro.experiments`` drives them from
the command line; EXPERIMENTS.md records paper-vs-measured for each.
"""

from repro.experiments.executor import (
    CellSpec,
    ExecutionPlan,
    RunBatch,
    default_jobs,
    execute_cells,
    execute_run_metrics,
)
from repro.experiments.planner import (
    PlannerConfig,
    PlannerStats,
    Welford,
    plan_cells,
)
from repro.experiments.result_cache import ResultCache
from repro.experiments.runner import (
    rng_from_seed,
    run_cell,
    run_single,
    spawn_run_seeds,
    sweep,
)
from repro.experiments.table1 import Table1Config, run_table1
from repro.experiments.table2 import Table2Config, run_table2
from repro.experiments.table3 import Table3Config, run_table3
from repro.experiments.table4 import Table4Config, run_table4
from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig5 import Fig5Config, run_fig5
from repro.experiments.fig6 import Fig6Config, run_fig6
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

__all__ = [
    "CellSpec",
    "ExecutionPlan",
    "PlannerConfig",
    "PlannerStats",
    "ResultCache",
    "RunBatch",
    "Welford",
    "default_jobs",
    "execute_cells",
    "execute_run_metrics",
    "plan_cells",
    "rng_from_seed",
    "run_cell",
    "run_single",
    "spawn_run_seeds",
    "sweep",
    "Table1Config",
    "run_table1",
    "Table2Config",
    "run_table2",
    "Table3Config",
    "run_table3",
    "Table4Config",
    "run_table4",
    "Fig3Config",
    "run_fig3",
    "Fig4Config",
    "run_fig4",
    "Fig5Config",
    "run_fig5",
    "Fig6Config",
    "run_fig6",
    "AblationCaptureConfig",
    "AblationChurnConfig",
    "AblationEnergyConfig",
    "AblationNoiseConfig",
    "AblationPrestepConfig",
    "AblationSnrConfig",
    "CrdsaComparisonConfig",
    "run_ablation_capture",
    "run_ablation_churn",
    "run_ablation_energy",
    "run_ablation_noise",
    "run_ablation_prestep",
    "run_ablation_snr",
    "run_crdsa_comparison",
]
