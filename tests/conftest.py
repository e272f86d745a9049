"""Shared fixtures and helpers."""

from types import SimpleNamespace

import numpy as np
import pytest

from simplexlms import signals
from simplexlms.signals import generate_stream


def whole_stream(coeffs, ops, cfg, horizon, seed):
    """The blocks of ``generate_stream`` concatenated into one stream's rows.

    A namespace of the signals ``x``, masks ``d``, observations ``y`` and
    noise ``v`` (the regressors are not kept), plus ``order``. The blocks
    hold the ``horizon`` steps only, so ``d`` and ``y`` have that many rows
    and row ``n`` of the stream is their row ``n - order``. ``x`` and ``v``
    are drawn again with the stream's seed and row bounds and hold all
    ``order + horizon`` rows, the history rows included.
    """
    rows = [(b.d, b.y) for b in generate_stream(coeffs, ops, cfg, horizon, seed)]
    d, y = (np.concatenate(column) for column in zip(*rows))
    stops = signals._block_stops(coeffs.order, horizon)
    x, v, _ = (np.concatenate(column) for column in zip(*signals._draw(cfg, seed, stops)))
    return SimpleNamespace(x=x, d=d, y=y, v=v, order=coeffs.order)


@pytest.fixture()
def diverge_in(monkeypatch):
    """Make a recursion's step function diverge in chosen realizations.

    ``diverge_in(module, name, realizations)`` replaces ``module.name``, a
    step whose first argument is the recursion's state array, with one that
    counts realizations by their first step (every runner starts from an
    all-zero state) and hands every step of the listed ones a NaN state,
    so that each returns NaN states.
    """

    def install(module, name, realizations):
        step = getattr(module, name)
        started = []

        def failing(state, *args):
            if not np.any(state):
                started.append(len(started))
            if started[-1] in realizations:
                state = np.full_like(state, np.nan)
            return step(state, *args)

        monkeypatch.setattr(module, name, failing)

    return install
