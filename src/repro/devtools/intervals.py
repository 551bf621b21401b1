"""Conservative interval evaluation of AST expressions.

``interval_of_expr`` maps an expression to a ``(low, high)`` pair when its
value range is statically provable, or ``None`` when it is not.  Only
constructs whose bounds are certain are evaluated -- numeric literals,
unary minus, ``+ - * / // %`` on evaluable operands, ``min``/``max``
(partial knowledge is kept: ``min(x, 0.5)`` is ``(-inf, 0.5)``), ``abs``,
and names bound to evaluable module constants or single-assignment locals.
Everything else is unknown, so a check built on
:func:`provably_outside_unit` only ever fires on values that are
*provably* outside ``[0, 1]``.

No rule calls this module: it is a standalone library, kept with its
edge-case tests.  Intervals are plain tuples so results stay trivially
serializable.
"""

from __future__ import annotations

import ast
import math
from typing import Mapping

Interval = tuple[float, float]

_INF = math.inf


def _mul(a: Interval, b: Interval) -> Interval | None:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    # ``0 * inf`` is NaN: the true corner value depends on how each factor
    # approaches its bound, so no corner product is trustworthy.  Strict
    # soundness: any NaN corner makes the whole product unknown (the old
    # code dropped NaNs and crashed on ``min([])`` when all four were).
    if any(math.isnan(p) for p in products):
        return None
    return (min(products), max(products))


def _div(a: Interval, b: Interval) -> Interval | None:
    if b[0] <= 0.0 <= b[1]:
        return None  # denominator may be zero: no provable bounds
    if math.isinf(b[0]) and math.isinf(b[1]):
        return None  # 1/inf collapses to (0, 0); NaN via _mul otherwise
    inverted = (1.0 / b[1], 1.0 / b[0])
    return _mul(a, inverted)


def _binop(op: ast.operator, left: Interval,
           right: Interval) -> Interval | None:
    if isinstance(op, ast.Add):
        return (left[0] + right[0], left[1] + right[1])
    if isinstance(op, ast.Sub):
        return (left[0] - right[1], left[1] - right[0])
    if isinstance(op, ast.Mult):
        return _mul(left, right)
    if isinstance(op, ast.Div):
        return _div(left, right)
    if isinstance(op, ast.FloorDiv):
        divided = _div(left, right)
        if divided is None:
            return None
        return (math.floor(divided[0]), math.floor(divided[1]))
    if isinstance(op, ast.Mod):
        # x % m for m > 0 lies in [0, m); for m < 0 in (m, 0].
        if right[0] > 0:
            return (0.0, right[1])
        if right[1] < 0:
            return (right[0], 0.0)
        return None
    if isinstance(op, ast.Pow):
        # Only the easy, certain case: non-negative base, constant exponent.
        if left[0] >= 0 and right[0] == right[1] and right[0] >= 0:
            return (left[0] ** right[0], left[1] ** right[0])
        return None
    return None


def interval_of_expr(node: ast.expr,
                     env: Mapping[str, Interval] | None = None
                     ) -> Interval | None:
    """Provable value range of ``node``, or None when unprovable.

    ``env`` maps names (module constants, single-assignment locals) to
    already-proved intervals.
    """
    env = env or {}
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return (float(node.value), float(node.value))
        if isinstance(node.value, (int, float)) \
                and not isinstance(node.value, complex):
            value = float(node.value)
            return (value, value)
        return None
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.UnaryOp):
        operand = interval_of_expr(node.operand, env)
        if operand is None:
            return None
        if isinstance(node.op, ast.USub):
            return (-operand[1], -operand[0])
        if isinstance(node.op, ast.UAdd):
            return operand
        return None
    if isinstance(node, ast.BinOp):
        left = interval_of_expr(node.left, env)
        right = interval_of_expr(node.right, env)
        if left is None or right is None:
            return None
        return _binop(node.op, left, right)
    if isinstance(node, ast.IfExp):
        body = interval_of_expr(node.body, env)
        orelse = interval_of_expr(node.orelse, env)
        if body is None or orelse is None:
            return None
        return (min(body[0], orelse[0]), max(body[1], orelse[1]))
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "clip" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy"):
            # np.clip(x, lo, hi) narrows like the builtin.  The method form
            # (arr.clip(lo, hi)) is NOT matched: its first positional is a
            # bound, not the value, and conflating the two would narrow
            # unsoundly.
            name = "clip"
        else:
            return None
        if name == "clip":
            args = _clip_call_args(node, env)
            return None if args is None else _call_interval(name, args)
        if node.keywords:
            return None
        return _call_interval(name,
                              [interval_of_expr(arg, env)
                               for arg in node.args])
    return None


#: ``np.clip`` bound-keyword spellings (classic ``a_min``/``a_max`` plus
#: the array-API aliases ``min``/``max``) -> positional slot.
_CLIP_KEYWORD_SLOTS = {"a_min": 1, "min": 1, "a_max": 2, "max": 2}


def _clip_call_args(node: ast.Call, env: dict[str, Interval]
                    ) -> list[Interval | None] | None:
    """``[x, lo, hi]`` intervals for a clip call, honouring keyword forms.

    An omitted bound clips nothing on its side and becomes the matching
    infinite constant; unknown keywords, ``**kwargs`` and double-filled
    slots bail to None (no narrowing).
    """
    if not node.args or len(node.args) + len(node.keywords) > 3:
        return None
    slots: list[Interval | None] = [None, None, None]
    filled = set(range(len(node.args)))
    for position, arg in enumerate(node.args[:3]):
        slots[position] = interval_of_expr(arg, env)
    for keyword in node.keywords:
        slot = _CLIP_KEYWORD_SLOTS.get(keyword.arg or "")
        if slot is None or slot in filled:
            return None
        filled.add(slot)
        slots[slot] = interval_of_expr(keyword.value, env)
    if 1 not in filled:
        slots[1] = (-_INF, -_INF)
    if 2 not in filled:
        slots[2] = (_INF, _INF)
    return slots


def _call_interval(name: str,
                   args: list[Interval | None]) -> Interval | None:
    if not args:
        return None
    if name == "abs" and len(args) == 1 and args[0] is not None:
        low, high = args[0]
        if low >= 0:
            return (low, high)
        if high <= 0:
            return (-high, -low)
        return (0.0, max(-low, high))
    if name in ("float", "int") and len(args) == 1:
        return args[0]
    if name == "min":
        # Every known argument caps the result from above; the floor is
        # only known when every argument is known.
        known = [arg for arg in args if arg is not None]
        if not known:
            return None
        high = min(arg[1] for arg in known)
        low = min(arg[0] for arg in known) if len(known) == len(args) \
            else -_INF
        return (low, high)
    if name == "max":
        known = [arg for arg in args if arg is not None]
        if not known:
            return None
        low = max(arg[0] for arg in known)
        high = max(arg[1] for arg in known) if len(known) == len(args) \
            else _INF
        return (low, high)
    if name == "clip" and len(args) == 3:
        # clip(x, lo, hi) narrows to [lo, hi] even when x is unknown.
        x, lo, hi = args
        if lo is None or hi is None:
            return None
        x = x if x is not None else (-_INF, _INF)
        return (min(max(x[0], lo[0]), hi[0]),
                min(max(x[1], lo[1]), hi[1]))
    return None


def provably_outside_unit(interval: Interval) -> bool:
    """True when every value in ``interval`` is outside ``[0, 1]``."""
    return interval[0] > 1.0 or interval[1] < 0.0
