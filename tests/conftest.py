"""Shared fixtures."""

import pytest


class StepReached(Exception):
    """A step that a capacity test replaced was called."""


@pytest.fixture
def stub_step(monkeypatch):
    """``stub_step(owner, name)`` replaces ``owner.name`` with a function that
    raises :class:`StepReached`, and returns that class.

    A capacity test stubs the dense build after a guard: an admitted input
    then reaches the stub, a refused one never does, and neither allocates.
    """
    def stub(owner, name):
        def step(*args, **kwargs):
            raise StepReached(f"{name} was called")

        monkeypatch.setattr(owner, name, step)
        return StepReached

    return stub
