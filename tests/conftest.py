"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import pdlab
import pdlab.grid as grid


@pytest.fixture
def fft_calls(monkeypatch):
    """Every grid.fft_forward and grid.fft_inverse call, as (name, grid),
    counted through each pdlab module's own binding of the two names; the
    call's other arguments (an `out` array) reach the real function."""
    calls = []
    for name in ("fft_forward", "fft_inverse"):
        real = getattr(grid, name)

        def spy(arg, *rest, name=name, real=real, **kw):
            calls.append((name, arg.spec))
            return real(arg, *rest, **kw)

        for info in pkgutil.iter_modules(pdlab.__path__):
            mod = importlib.import_module(f"pdlab.{info.name}")
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    return calls
