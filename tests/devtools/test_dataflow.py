"""Unit tests for the data-flow layer: tag map, globals."""

from __future__ import annotations

import ast
import textwrap

from repro.devtools.dataflow import (
    TAG_RNG,
    TAG_UNORDERED,
    global_access,
    seed_param_tags,
    tag_map,
    tags_of_expr,
)


def _func(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in fixture")


# ---------------------------------------------------------------------------
# which bindings reach a name's entry (observed through the tag lattice)

def test_branch_defs_both_reach_the_join():
    func = _func("""\
        def f(p, seed):
            if p:
                a = default_rng(seed)
            else:
                a = set(p)
            return a
        """)
    assert tag_map(func)["a"] == frozenset([TAG_RNG, TAG_UNORDERED])


def test_loop_carried_def_reaches_header():
    func = _func("""\
        def f(n, seed):
            total = 0
            while total < n:
                total = default_rng(seed)
            return total
        """)
    # The loop-body def reaches the header test and the return.
    assert TAG_RNG in tag_map(func)["total"]


def test_break_bypasses_loop_else():
    # break skips the else body, so the pre-loop def still reaches the
    # post-loop use alongside the else-body def.
    func = _func("""\
        def f(items, seed):
            x = default_rng(seed)
            for item in items:
                if item:
                    break
            else:
                x = set(items)
            return x
        """)
    assert tag_map(func)["x"] == frozenset([TAG_RNG, TAG_UNORDERED])


def test_for_else_def_reaches_after_loop():
    func = _func("""\
        def f(items, seed):
            for item in items:
                pass
            else:
                y = default_rng(seed)
            return y
        """)
    assert TAG_RNG in tag_map(func)["y"]


def test_nested_def_bindings_stay_out_of_the_map():
    # A nested def is its own scope and gets its own map.
    func = _func("""\
        def f(seed):
            def inner():
                a = default_rng(seed)
                return a
            return inner
        """)
    assert "a" not in tag_map(func)


def test_comp_bound_name_is_not_an_outer_use():
    # The X bound by the comprehension shadows the module global X, so
    # the comprehension reads no global.
    func = _func("""\
        def f(items):
            values = [X + 1 for X in items]
            return values
        """)
    reads, writes = global_access(func, {"X"})
    assert reads == [] and writes == []


# ---------------------------------------------------------------------------
# tag lattice

def test_rng_tag_from_factory_and_through_assignment():
    func = _func("""\
        def f(seed):
            gen = default_rng(seed)
            alias = gen
            return alias
        """)
    env = tag_map(func)
    assert TAG_RNG in env["gen"]
    assert TAG_RNG in env["alias"]


def test_rng_param_seeds_the_environment():
    func = _func("""\
        def f(rng):
            return rng
        """)
    assert TAG_RNG in seed_param_tags(func)["rng"]


def test_generator_annotation_seeds_the_environment():
    func = _func("""\
        def f(source: np.random.Generator):
            return source
        """)
    assert TAG_RNG in seed_param_tags(func)["source"]


def test_unordered_tag_sources_and_laundering():
    env = {"s": frozenset([TAG_UNORDERED])}
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("set(x)", mode="eval").body, {})
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("d.keys()", mode="eval").body, {})
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("{a for a in xs}", mode="eval").body, {})
    # list()/tuple() materialize but do not order; sorted() launders.
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("list(s)", mode="eval").body, env)
    assert TAG_UNORDERED not in tags_of_expr(
        ast.parse("sorted(s)", mode="eval").body, env)


def test_set_algebra_keeps_the_unordered_tag():
    env = {"a": frozenset([TAG_UNORDERED]), "b": frozenset([TAG_UNORDERED])}
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("a | b", mode="eval").body, env)
    assert TAG_UNORDERED in tags_of_expr(
        ast.parse("a - b", mode="eval").body, env)


def test_branch_join_unions_tags():
    func = _func("""\
        def f(p, seed):
            if p:
                value = default_rng(seed)
            else:
                value = 0
            use = value
            return use
        """)
    assert TAG_RNG in tag_map(func)["value"]  # either branch counts


# ---------------------------------------------------------------------------
# module-global access

def test_global_reads_writes_and_mutations():
    func = _func("""\
        def f(x):
            total = REGISTRY["a"]
            REGISTRY["b"] = x
            ITEMS.append(x)
            global COUNT
            COUNT = COUNT + 1
            return total
        """)
    reads, writes = global_access(
        func, {"REGISTRY", "ITEMS", "COUNT"})
    read_names = {name for name, _ in reads}
    # The mutated/stored receivers also surface as Load-context reads.
    assert read_names >= {"REGISTRY", "COUNT"}
    hows = {(name, how) for name, _, how in writes}
    assert hows == {("REGISTRY", "store"), ("ITEMS", "mutate"),
                    ("COUNT", "rebind")}


def test_local_shadowing_is_not_a_global_access():
    func = _func("""\
        def f():
            ITEMS = []
            ITEMS.append(1)
            return ITEMS
        """)
    reads, writes = global_access(func, {"ITEMS"})
    assert reads == [] and writes == []


def test_nested_closure_folds_into_parent():
    func = _func("""\
        def f():
            def inner():
                ITEMS.append(1)
            return inner
        """)
    _, writes = global_access(func, {"ITEMS"})
    assert [(name, how) for name, _, how in writes] == [("ITEMS", "mutate")]
