"""Shared fixtures."""

import pytest

from simplexlms.errors import DivergenceError


@pytest.fixture()
def diverge_in(monkeypatch):
    """Make a recursion's step function diverge in chosen realizations.

    ``diverge_in(module, name, realizations)`` replaces ``module.name``, a
    step whose first argument carries the iteration counter ``n``, with one
    that counts realizations by their first step (``n == 0``) and raises
    :class:`DivergenceError` on every step of the listed ones.
    """

    def install(module, name, realizations):
        step = getattr(module, name)
        started = []

        def failing(state, *args):
            if state.n == 0:
                started.append(len(started))
            if started[-1] in realizations:
                raise DivergenceError(f"injected in realization {started[-1]}")
            return step(state, *args)

        monkeypatch.setattr(module, name, failing)

    return install
