"""The FCAT kernel suites again, on the Python walk.

The suites these tests come from run on the native walk wherever it
builds.  Here a fixture forces the Python walk -- the reference, and the
fallback without a compiler -- so the same pins, telemetry digests and
paper oracles hold the two walks to the same bytes.
"""

from __future__ import annotations

import pytest

from repro.kernels import native
from tests.kernels.test_fcat_kernel import (  # noqa: F401
    test_batch_composition_does_not_change_a_session,
    test_observation_does_not_change_the_lean_run,
    test_observed_kernel_emits_the_scalar_telemetry,
    test_paired_runs_match_on_an_impaired_channel,
    test_paired_runs_match_the_scalar_engine,
    test_perfect_channel_results_are_pinned,
)
from tests.kernels.test_fcat_telemetry import (  # noqa: F401
    test_enabled_path_cost_does_not_grow_with_frames,
    test_frames_before_a_runaway_raise_stay_readable,
    test_observed_batches_are_pinned,
)
from tests.kernels.test_paper_oracles import (  # noqa: F401
    test_a_kernel_drawing_at_a_biased_p_fails_the_oracle,
    test_a_biased_kernel_fails_the_oracle_at_scale,
    test_frame_slot_counts_match_eq_7_9_10,
    test_session_throughput_matches_the_session_model,
    test_the_oracle_holds_at_scale,
)

pytestmark = pytest.mark.usefixtures("python_walk")


def test_the_python_walk_is_forced():
    assert native.library() is None
