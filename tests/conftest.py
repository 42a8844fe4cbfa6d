"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def paper_example():
    """The paper's running example: N = 15, d = 3 (Figures 2 and 3)."""
    return {"num_nodes": 15, "degree": 3}


@pytest.fixture
def protocol_builds(monkeypatch):
    """The scheme of every protocol the compiler builds, in build order."""
    import repro.exec.compiler as compiler_module

    calls: list[str] = []
    real = compiler_module.build_protocol

    def counting(scheme, *args, **kwargs):
        calls.append(scheme)
        return real(scheme, *args, **kwargs)

    monkeypatch.setattr(compiler_module, "build_protocol", counting)
    return calls
