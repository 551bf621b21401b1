"""Unit tests for the data-flow layer: CFG, tags, globals."""

from __future__ import annotations

import ast
import textwrap

from repro.devtools.dataflow import (
    TAG_RNG,
    TAG_UNORDERED,
    TagFlow,
    build_cfg,
    global_access,
    seed_param_tags,
    tags_of_expr,
)


def _func(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in fixture")


# ---------------------------------------------------------------------------
# CFG construction

def test_straight_line_is_one_block():
    func = _func("""\
        def f():
            a = 1
            b = a + 1
            return b
        """)
    cfg = build_cfg(func.body)
    assert len(cfg.stmts) == 3
    populated = [block for block in cfg.blocks if block.stmts]
    assert len(populated) == 1


def test_if_else_branches_rejoin():
    func = _func("""\
        def f(p):
            if p:
                a = 1
            else:
                a = 2
            return a
        """)
    cfg = build_cfg(func.body)
    # The return's block must have two predecessors (then/else exits).
    return_block = next(block for block in cfg.blocks
                        if any(isinstance(cfg.stmts[s], ast.Return)
                               for s in block.stmts))
    preds = cfg.preds()[return_block.id]
    assert len(preds) == 2


def test_loop_has_back_edge():
    func = _func("""\
        def f(n):
            total = 0
            while n:
                total = total + n
            return total
        """)
    cfg = build_cfg(func.body)
    header = next(block for block in cfg.blocks
                  if any(isinstance(cfg.stmts[s], ast.While)
                         for s in block.stmts))
    preds = cfg.preds()[header.id]
    assert len(preds) >= 2  # entry edge plus the back edge


def test_break_jumps_to_loop_exit():
    func = _func("""\
        def f(items):
            for item in items:
                if item:
                    break
            return 1
        """)
    cfg = build_cfg(func.body)  # must not raise; break resolves to exit
    assert any(isinstance(stmt, ast.Break) for stmt in cfg.stmts)


# ---------------------------------------------------------------------------
# which definitions reach a use (observed through the tag lattice)

def test_redefinition_kills_earlier_def():
    func = _func("""\
        def f(seed):
            a = default_rng(seed)
            a = 2
            return a
        """)
    flow = TagFlow(func)
    assert TAG_RNG in flow.at(func.body[1])["a"]
    assert TAG_RNG not in flow.at(func.body[2]).get("a", frozenset())


def test_branch_defs_both_reach_the_join():
    func = _func("""\
        def f(p, seed):
            if p:
                a = default_rng(seed)
            else:
                a = set(p)
            return a
        """)
    env = TagFlow(func).at(func.body[-1])
    assert env["a"] == frozenset([TAG_RNG, TAG_UNORDERED])


def test_loop_carried_def_reaches_header():
    func = _func("""\
        def f(n, seed):
            total = 0
            while total < n:
                total = default_rng(seed)
            return total
        """)
    flow = TagFlow(func)
    # The loop-body def flows around the back edge into the header test
    # and on to the return.
    assert TAG_RNG in flow.at(func.body[1])["total"]
    assert TAG_RNG in flow.at(func.body[2])["total"]


def test_loop_else_runs_on_normal_exit_only():
    # The else body is the *only* normal exit: a def inside it must kill
    # the pre-loop def at the post-loop use.
    func = _func("""\
        def f(n, seed):
            x = default_rng(seed)
            while n:
                n = n - 1
            else:
                x = 1
            return x
        """)
    env = TagFlow(func).at(func.body[-1])
    assert TAG_RNG not in env.get("x", frozenset())


def test_break_bypasses_loop_else():
    # break edges straight to the loop exit, so the pre-loop def still
    # reaches the post-loop use alongside the else-body def.
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
    env = TagFlow(func).at(func.body[-1])
    assert env["x"] == frozenset([TAG_RNG, TAG_UNORDERED])


def test_for_else_def_reaches_after_loop():
    func = _func("""\
        def f(items, seed):
            for item in items:
                pass
            else:
                y = default_rng(seed)
            return y
        """)
    env = TagFlow(func).at(func.body[-1])
    assert TAG_RNG in env["y"]


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
    flow = TagFlow(func)
    return_stmt = func.body[-1]
    env = flow.at(return_stmt)
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
    flow = TagFlow(func)
    env = flow.at(func.body[-1])
    assert TAG_RNG in env["value"]  # may-analysis: either branch counts


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
