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

    # --- R3: numeric hygiene --------------------------------------------
    #: Directories where ``== <float literal>`` comparisons are banned.
    float_equality_dirs: tuple[str, ...] = ("phy", "analysis", "core")

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
    #: (The ambient Observation slot needs no entry: it is a ContextVar,
    #: whose ``set``/``reset`` never write the module global.)
    fork_safe_globals: tuple[str, ...] = (
        # The native FCAT loop's build/load memo: every process that
        # loads the library gets the same one, so no worker's copy of
        # the memo needs to reach the parent.
        "repro.kernels.native:_library",
        "repro.kernels.native:_tried",
        # Why the load failed, if it did: the same reason in any process.
        "repro.kernels.native:failure",
        # Held only while library() loads, by the thread that later forks
        # the pool, so no fork copies it held.
        "repro.kernels.native:_lock",
    )

    # --- R15: kernel-equivalence registry ---------------------------------
    #: Name markers identifying vectorized kernels: a leading-underscore-
    #: free marker ending in ``_`` is a prefix, otherwise a suffix.
    kernel_name_markers: tuple[str, ...] = ("batched_", "_kernel")


DEFAULT_CONFIG = LintConfig()
