"""Edge-case tests for the interval domain (``repro.devtools.intervals``).

The old ``_mul`` crashed on ``(0, 0) * (inf, inf)`` (every corner product
is NaN, so ``min([])`` raised) and ``_div`` happily inverted ``(-inf,
inf)`` denominators.  These tests pin the strict behaviour: NaN anywhere
makes the result unknown (``None``), never a wrong bound.
"""

from __future__ import annotations

import ast
import math

from repro.devtools.intervals import (
    interval_of_expr,
    provably_outside_unit,
)

INF = math.inf


def _eval(source: str, env=None):
    return interval_of_expr(ast.parse(source, mode="eval").body, env or {})


# ---------------------------------------------------------------------------
# degenerate and infinite endpoints

def test_point_intervals():
    assert _eval("0") == (0.0, 0.0)
    assert _eval("1.5") == (1.5, 1.5)
    assert _eval("-2") == (-2.0, -2.0)
    assert _eval("True") == (1.0, 1.0)


def test_unknown_names_are_unknown():
    assert _eval("x") is None
    assert _eval("x + 1") is None


def test_degenerate_zero_times_anything_finite():
    env = {"z": (0.0, 0.0), "a": (-3.0, 7.0)}
    assert _eval("z * a", env) == (0.0, 0.0)


def test_infinite_endpoint_arithmetic():
    env = {"pos": (1.0, INF)}
    assert _eval("pos + 1", env) == (2.0, INF)
    assert _eval("-pos", env) == (-INF, -1.0)
    assert _eval("pos * pos", env) == (1.0, INF)


# ---------------------------------------------------------------------------
# NaN propagation: 0 * inf corners make the result unknown

def test_zero_times_inf_is_unknown_not_a_crash():
    env = {"z": (0.0, 0.0), "w": (INF, INF)}
    assert _eval("z * w", env) is None  # all four corners are NaN


def test_partial_nan_corner_is_still_unknown():
    # Only some corners are NaN: (0, 1) * (inf, inf) has 0*inf and 1*inf.
    env = {"a": (0.0, 1.0), "w": (INF, INF)}
    assert _eval("a * w", env) is None


def test_nan_free_infinite_product_is_kept():
    env = {"a": (1.0, 2.0), "w": (INF, INF)}
    assert _eval("a * w", env) == (INF, INF)


def test_division_by_double_infinite_denominator_is_unknown():
    env = {"a": (1.0, 2.0), "w": (-INF, INF)}
    assert _eval("a / w", env) is None  # denominator spans zero anyway
    env = {"a": (1.0, 2.0), "w": (INF, INF)}
    assert _eval("a / w", env) is None  # 1/inf collapse guarded explicitly


def test_division_by_interval_spanning_zero_is_unknown():
    env = {"a": (1.0, 2.0), "b": (-1.0, 1.0)}
    assert _eval("a / b", env) is None


def test_ordinary_division_still_works():
    env = {"a": (1.0, 2.0), "b": (2.0, 4.0)}
    assert _eval("a / b", env) == (0.25, 1.0)


# ---------------------------------------------------------------------------
# min/max/clip narrowing

def test_min_with_partial_knowledge_caps_from_above():
    env = {"x": None}
    assert _eval("min(unknown, 0.5)", env) == (-INF, 0.5)


def test_max_with_partial_knowledge_caps_from_below():
    assert _eval("max(unknown, 0.0)") == (0.0, INF)


def test_min_max_fully_known():
    env = {"a": (0.0, 2.0), "b": (1.0, 3.0)}
    assert _eval("min(a, b)", env) == (0.0, 2.0)
    assert _eval("max(a, b)", env) == (1.0, 3.0)


def test_clip_narrows_an_unknown_argument():
    assert _eval("clip(unknown, 0.0, 1.0)") == (0.0, 1.0)


def test_np_clip_attribute_form_narrows_too():
    assert _eval("np.clip(unknown, 0.0, 1.0)") == (0.0, 1.0)


def test_clip_narrows_a_known_argument_further():
    env = {"x": (-2.0, 0.5)}
    assert _eval("clip(x, 0.0, 1.0)", env) == (0.0, 0.5)


def test_clip_with_unknown_bounds_is_unknown():
    assert _eval("clip(x, lo, hi)") is None


def test_abs_straddling_zero():
    env = {"x": (-3.0, 2.0)}
    assert _eval("abs(x)", env) == (0.0, 3.0)


# ---------------------------------------------------------------------------
# the R6 predicate itself

def test_provably_outside_unit():
    assert provably_outside_unit((1.5, 2.0))
    assert provably_outside_unit((-2.0, -0.1))
    assert not provably_outside_unit((0.0, 1.0))
    assert not provably_outside_unit((-1.0, 0.5))  # may be inside


# ---------------------------------------------------------------------------
# np.clip keyword forms (S3)

def test_np_clip_keyword_bounds_narrow():
    assert _eval("np.clip(unknown, a_min=0.0, a_max=1.0)") == (0.0, 1.0)
    assert _eval("np.clip(unknown, min=0.0, max=1.0)") == (0.0, 1.0)


def test_np_clip_mixed_positional_and_keyword():
    assert _eval("np.clip(unknown, 0.0, a_max=1.0)") == (0.0, 1.0)


def test_np_clip_single_sided_keyword_bound():
    env = {"x": (-2.0, 3.0)}
    assert _eval("np.clip(x, a_max=1.0)", env) == (-2.0, 1.0)
    assert _eval("np.clip(x, a_min=0.0)", env) == (0.0, 3.0)


def test_np_clip_unknown_keyword_bails():
    assert _eval("np.clip(unknown, 0.0, 1.0, out=buf)") is None


def test_np_clip_double_filled_slot_bails():
    assert _eval("np.clip(unknown, 0.0, 1.0, a_max=2.0)") is None


def test_method_clip_is_not_misread_as_full_form():
    # arr.clip(0, 1)'s first positional is a *bound*; conflating it with
    # the np.clip value slot would narrow unsoundly.
    assert _eval("arr.clip(0.0, 1.0)") is None
