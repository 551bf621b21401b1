"""Fixture-driven tests: each rule fires on a known-bad snippet and stays
silent on a known-good one."""

from __future__ import annotations


# -- R1: no-import-random ---------------------------------------------------

def test_import_random_fires(tree):
    tree.write("repro/sim/thing.py", """\
        import random

        def draw():
            return random.random()
        """)
    assert tree.rule_findings("no-import-random") == [
        "repro/sim/thing.py:1 no-import-random"]


def test_from_random_import_fires(tree):
    tree.write("repro/sim/thing.py", "from random import shuffle\n")
    assert tree.rule_findings("no-import-random")


def test_unrelated_random_names_ok(tree):
    tree.write("repro/sim/thing.py", """\
        from repro.baselines.splitting import random_bit_splitter

        def use(rng):
            return random_bit_splitter
        """)
    assert tree.rule_findings("no-import-random") == []


# -- R1: no-global-np-random ------------------------------------------------

def test_legacy_global_draw_fires(tree):
    tree.write("repro/core/thing.py", """\
        import numpy as np

        def draw():
            return np.random.uniform(0.0, 1.0)
        """)
    assert tree.rule_findings("no-global-np-random") == [
        "repro/core/thing.py:4 no-global-np-random"]


def test_generator_methods_ok(tree):
    tree.write("repro/core/thing.py", """\
        import numpy as np

        def draw(rng: np.random.Generator):
            return rng.uniform(0.0, 1.0)
        """)
    assert tree.rule_findings("no-global-np-random") == []


# -- R1: rng-construction ---------------------------------------------------

def test_default_rng_outside_entry_point_fires(tree):
    tree.write("repro/phy/thing.py", """\
        import numpy as np

        def simulate(seed):
            rng = np.random.default_rng(seed)
            return rng
        """)
    assert tree.rule_findings("rng-construction") == [
        "repro/phy/thing.py:4 rng-construction"]


def test_bare_imported_default_rng_fires(tree):
    tree.write("repro/phy/thing.py", """\
        from numpy.random import default_rng

        def simulate(seed):
            return default_rng(seed)
        """)
    assert tree.rule_findings("rng-construction")


def test_seed_sequence_in_entry_point_ok(tree):
    tree.write("repro/sim/base.py", """\
        import numpy as np

        def run_many(seed, runs):
            return [np.random.default_rng(child)
                    for child in np.random.SeedSequence(seed).spawn(runs)]
        """)
    assert tree.rule_findings("rng-construction") == []


# -- R3: float-equality -----------------------------------------------------

def test_float_equality_in_core_fires(tree):
    tree.write("repro/core/thing.py", """\
        def check(p):
            return p == 1.0
        """)
    assert tree.rule_findings("float-equality") == [
        "repro/core/thing.py:2 float-equality"]


def test_float_inequality_and_other_dirs_ok(tree):
    tree.write("repro/core/thing.py", """\
        def check(p):
            return p >= 1.0 and p != 1
        """)
    tree.write("repro/report/thing.py", """\
        def check(p):
            return p == 1.0
        """)
    assert tree.rule_findings("float-equality") == []
