"""Public API integrity: every advertised name resolves and round-trips."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.air",
    "repro.phy",
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.estimate",
    "repro.inventory",
    "repro.dynamics",
    "repro.experiments",
    "repro.kernels",
    "repro.service",
    # Standalone modules that are public API surfaces in their own right.
    "repro.experiments.executor",
    "repro.obs",
    "repro.obs.events",
    "repro.obs.manifest",
    "repro.obs.metrics",
    "repro.obs.report",
    "repro.obs.scope",
    "repro.report",
    "repro.devtools",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    """Each package's __all__ names an attribute that actually exists."""
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_string():
    import repro
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_readme_quickstart_runs():
    """The README's quickstart snippet, executed verbatim in spirit."""
    import numpy as np

    from repro import Dfsa, Fcat, TagPopulation

    rng = np.random.default_rng(7)
    population = TagPopulation.random(300, rng)
    fcat = Fcat(lam=2).read_all(population, np.random.default_rng(1))
    dfsa = Dfsa().read_all(population, np.random.default_rng(1))
    assert fcat.complete and dfsa.complete
    assert fcat.throughput > dfsa.throughput


def test_protocols_share_the_abc():
    from repro import (
        AdaptiveBinarySplitting,
        AdaptiveQuerySplitting,
        BinaryTree,
        Crdsa,
        Dfsa,
        Edfsa,
        Fcat,
        FramedSlottedAloha,
        Gen2Q,
        QueryTree,
        Scat,
        SlottedAloha,
        TagReadingProtocol,
    )

    protocols = [Fcat(), Scat(), Dfsa(), Edfsa(), AdaptiveBinarySplitting(),
                 AdaptiveQuerySplitting(), BinaryTree(), QueryTree(),
                 SlottedAloha(), FramedSlottedAloha(), Gen2Q(), Crdsa()]
    assert all(isinstance(protocol, TagReadingProtocol)
               for protocol in protocols)
    names = [protocol.name for protocol in protocols]
    assert len(set(names)) == len(names)  # distinct display names
