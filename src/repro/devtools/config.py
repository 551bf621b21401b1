"""Per-rule configuration for the repro lint engine.

Everything path-like is matched against POSIX-style paths relative to the
scan root (for ``src`` scans that means paths such as
``repro/experiments/runner.py``), so the same config drives both the real
tree and the small fixture trees the rule tests build under ``tmp_path``.
"""

from __future__ import annotations

from dataclasses import dataclass


def path_has_dir(relpath: str, directory: str) -> bool:
    """True when ``directory`` names one of ``relpath``'s parent segments."""
    return directory.strip("/") in relpath.split("/")[:-1]


def path_matches(relpath: str, suffix: str) -> bool:
    """Suffix match on whole path segments (``sim/base.py`` style)."""
    return relpath == suffix or relpath.endswith("/" + suffix)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for the repo-specific rules (see docs/static_analysis.md)."""

    # --- R1: determinism -------------------------------------------------
    #: Files allowed to construct Generators/SeedSequences.  Everything else
    #: must take randomness as an explicit ``rng: np.random.Generator``.
    rng_entry_points: tuple[str, ...] = (
        "sim/base.py",
        "experiments/runner.py",
        "repro/__init__.py",
    )
    #: numpy.random constructors that mint fresh random state.
    rng_factories: tuple[str, ...] = ("default_rng", "SeedSequence")
    #: ``np.random.<name>`` attributes that are *not* the legacy global-state
    #: API and therefore stay legal everywhere (types, not draw functions).
    rng_benign_attrs: tuple[str, ...] = (
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    )
    #: Accepted annotations for parameters named ``rng``.
    rng_annotations: tuple[str, ...] = (
        "np.random.Generator",
        "numpy.random.Generator",
        "Generator",
    )

    # --- R2: protocol conformance ---------------------------------------
    #: Simple name of the shared ABC every reading protocol subclasses.
    protocol_base: str = "TagReadingProtocol"
    #: Directories whose protocol classes must honour the contract.
    protocol_dirs: tuple[str, ...] = ("baselines", "core")
    #: The shared read-session entry point.
    protocol_method: str = "read_all"
    #: Leading positional parameters, in order.
    protocol_required_params: tuple[str, ...] = ("self", "population", "rng")
    #: Extra parameters a protocol may add, all of which need defaults.
    protocol_optional_params: tuple[str, ...] = ("channel", "timing", "trace")

    # --- R3: numeric hygiene --------------------------------------------
    #: Directories where ``== <float literal>`` comparisons are banned.
    float_equality_dirs: tuple[str, ...] = ("phy", "analysis", "core")

    # --- R4: public-API consistency -------------------------------------
    #: Test module (relative to the repo root) whose ``PACKAGES`` list must
    #: agree with the packages that actually exist.
    api_packages_test: str = "tests/test_public_api.py"
    #: Docs (relative to the repo root) whose ``from repro... import`` lines
    #: must only name exported symbols.
    api_doc_paths: tuple[str, ...] = ("docs/api_reference.md", "README.md")
    #: Dotted-name depth up to which packages must appear in ``PACKAGES``
    #: (``repro.core`` is depth 1; ``repro.devtools.rules`` is depth 2 and
    #: only gets the per-module ``__all__`` checks).
    api_packages_max_depth: int = 1
    #: Plain modules (not package ``__init__``s) that are public API
    #: surfaces in their own right: their ``__all__`` gets the same checks
    #: and they may be listed in the ``PACKAGES`` manifest.
    api_export_modules: tuple[str, ...] = (
        "repro/experiments/executor.py",
        "repro/experiments/planner.py",
        "repro/obs/events.py",
        "repro/obs/manifest.py",
        "repro/obs/metrics.py",
        "repro/obs/report.py",
        "repro/obs/scope.py",
        "repro/service/client.py",
        "repro/service/core.py",
        "repro/service/frontend.py",
        "repro/service/interference.py",
        "repro/service/requests.py",
        "repro/service/sharding.py",
    )

    # --- R7: whole-program RNG reachability ------------------------------
    #: Helper functions that mint Generators from seeds; a function calling
    #: one of these (or a raw factory) roots the rng-flow reachability walk.
    rng_mint_helpers: tuple[str, ...] = ("rng_from_seed",)
    #: Additional reachability roots (``module.dotted:qualname``): public
    #: stochastic APIs that outside callers (tests, notebooks, downstream
    #: code) drive with their own Generator.
    rng_public_roots: tuple[str, ...] = (
        # The sweep executor's worker entry point: in a pool worker process
        # this is the outermost frame above the seeded simulation path.
        "repro.experiments.executor:run_chunk",
        # The adaptive planner's loop: outside callers drive it directly
        # (the CLI's --precision path, the service) and every batch it
        # schedules flows into the seeded executor fan-out.
        "repro.experiments.planner:plan_cells",
        "repro.analysis.link_budget:simulated_ber",
        "repro.analysis.link_budget:channel_model_from_snr",
        "repro.baselines.abs_protocol:AdaptiveBinarySplitting.reread",
        "repro.baselines.aqs:AdaptiveQuerySplitting.reread",
        "repro.inventory.manager:run_inventory_round",
        "repro.inventory.scheduling:run_parallel_round",
        "repro.inventory.zones:Warehouse.random_layout",
        "repro.phy.anc:alice_bob_exchange",
        # The inventory service's request entry point: every request flows
        # into the seeded executor fan-out (cell seeds derive from the
        # request seed by SERVICE_CELL_STRIDE).
        "repro.service.core:InventoryService.handle",
    )

    # --- R8: experiment-registry completeness ----------------------------
    #: Module filename stems (under ``experiments/``) that must be wired in.
    experiment_stem_prefixes: tuple[str, ...] = ("fig", "table")
    #: The CLI module holding the experiment registry dict.
    experiment_cli: str = "experiments/cli.py"
    #: Name of the registry dict in the CLI module.
    experiment_registry: str = "EXPERIMENTS"
    #: Document (relative to the repo root) that must mention every
    #: experiment by its registry name.
    experiment_doc: str = "EXPERIMENTS.md"

    # --- R9: event-schema conformance ------------------------------------
    #: Module holding the observability event schema.
    event_schema_module: str = "obs/events.py"
    #: Name of the schema dict (event name -> spec) in that module.
    event_schema_registry: str = "EVENT_SCHEMA"

    # --- R10: rng order-sensitivity ---------------------------------------
    #: Call tails (beyond ``rng_factories``/``rng_mint_helpers``) whose
    #: result carries draw-order state.
    rng_value_sources: tuple[str, ...] = ("spawn_run_seeds", "spawn")

    # --- R11: fork-safety -------------------------------------------------
    #: Functions (``module.dotted:qualname``) that run inside pool workers;
    #: everything reachable from them crosses the fork boundary.
    worker_roots: tuple[str, ...] = (
        "repro.experiments.executor:run_chunk",
        # The planner loop: pool workers fork from the parent mid-round,
        # so everything its frame reaches crosses the fork boundary too.
        "repro.experiments.planner:plan_cells",
        # The service computes under an installed observe() scope and a
        # held compute lock; its executor fan-out forks from that frame.
        "repro.service.core:InventoryService._compute",
    )
    #: Module globals (``module.dotted:name``) audited as fork-safe: either
    #: re-initialized per worker or merged back through ChunkOutcome.
    #: None today: the ambient Observation slot is a ContextVar, whose
    #: ``set``/``reset`` never write the module global.
    fork_safe_globals: tuple[str, ...] = ()

    # --- R15: kernel-equivalence registry ---------------------------------
    #: Name markers identifying vectorized kernels: a leading-underscore-
    #: free marker ending in ``_`` is a prefix, otherwise a suffix.
    kernel_name_markers: tuple[str, ...] = ("batched_", "_kernel")


DEFAULT_CONFIG = LintConfig()
