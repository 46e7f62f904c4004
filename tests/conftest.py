"""Fixtures shared by the test modules."""

import importlib
import pkgutil
import threading

import pytest

import pdlab
import pdlab._threads as _threads
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


@pytest.fixture
def pooled(monkeypatch):
    """Every pmap of two workers or more runs on a pool, whatever its grid
    (the pool gate patched to 0).  Returns the idents of the threads that
    ran a pool task, each one other than the thread that submitted it: a
    test asserts the list is not empty to show that a pool really ran."""
    ran = []

    class Recording(_threads.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            caller = threading.get_ident()

            def task(*a, **kw):
                if threading.get_ident() != caller:
                    ran.append(threading.get_ident())
                return fn(*a, **kw)

            return super().submit(task, *args, **kwargs)

    monkeypatch.setattr(_threads, "POOL_GUARD", 0)
    monkeypatch.setattr(_threads, "ThreadPoolExecutor", Recording)
    return ran
