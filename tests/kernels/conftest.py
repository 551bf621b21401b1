"""Fixtures shared by the kernel tests."""

from __future__ import annotations

import pytest

from repro.kernels import native


@pytest.fixture
def python_walk(monkeypatch):
    """Run FCAT sessions on the Python walk, as if no compiler existed."""
    monkeypatch.setattr(native, "library", lambda: None)
