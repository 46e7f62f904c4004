"""The pool policy: pmap runs small-grid tasks inline, pools the rest, and
never nests a pool."""
import ast
import threading
from pathlib import Path

import pytest

import pdlab
import pdlab._threads as _threads
from pdlab._threads import POOL_GUARD, pmap
from pdlab.grid import GridSpec
from pdlab.pointwise import MaximalParams, moment_decay_check
from pdlab.symbols import TabulatedSymbol, ching_for_grid, sigma_order_estimate


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools pmap builds."""
    built = []

    class Spy(_threads.ThreadPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            built.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", Spy)
    monkeypatch.setenv("PDLAB_THREADS", "2")
    return built


def ran_on(points: int) -> list[int]:
    return pmap(lambda _: threading.get_ident(), range(6), points=points)


@pytest.mark.parametrize("points", [0, 1, POOL_GUARD - 1])
def test_below_the_gate_every_task_runs_on_the_caller(pools, points):
    assert ran_on(points) == [threading.get_ident()] * 6
    assert pools == []


@pytest.mark.parametrize("points", [POOL_GUARD, 4 * POOL_GUARD])
def test_at_the_gate_the_tasks_run_on_pool_threads(pools, points):
    assert threading.get_ident() not in ran_on(points)
    assert pools == [2]


def test_the_thread_cap_still_holds_above_the_gate(pools, monkeypatch):
    monkeypatch.setenv("PDLAB_THREADS", "1")
    assert ran_on(POOL_GUARD) == [threading.get_ident()] * 6
    assert pools == []


def test_a_nested_pmap_runs_inline(pools):
    def outer(i):
        inner = pmap(lambda _: threading.get_ident(), range(3), points=POOL_GUARD)
        return threading.get_ident(), inner

    got = pmap(outer, range(4), points=POOL_GUARD)
    assert all(inner == [ident] * 3 and ident != threading.get_ident() for ident, inner in got)
    assert pools == [2]  # one pool: the inner calls built none


def moment_decay(spec):
    params = MaximalParams(2.0, spec.N / 8.0)
    moment_decay_check(ching_for_grid(spec), params, (2.0, 4.0), 2, spec=spec)


def sigma_dense(spec):
    b = ching_for_grid(spec)
    sigma_order_estimate(TabulatedSymbol(spec, b.table(spec), d=b.d), (0,), spec=spec)


def sigma_gram(spec):
    sigma_order_estimate(ching_for_grid(spec), (0,), spec=spec)


# sites whose tasks do other than N^n work pass their own: each pools from
# the smallest 1-d grid where tools/pool_sweep.py saw the pool stop losing
@pytest.mark.parametrize("site, N, pool", [
    (moment_decay, 256, False), (moment_decay, 512, True),
    (sigma_dense, 64, False), (sigma_dense, 128, True),
    (sigma_gram, 256, False), (sigma_gram, 512, True),
])
def test_table_sites_pool_from_their_crossover(pools, site, N, pool):
    site(GridSpec(1, N))
    assert pools == ([2] if pool else [])


def test_points_is_required():
    with pytest.raises(TypeError):
        pmap(abs, [1, 2])


def pmap_calls(src: Path) -> list[tuple[str, ast.Call]]:
    return [(f"{path.name}:{node.lineno}", node)
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pmap"]


def test_every_pmap_call_passes_its_points():
    calls = pmap_calls(Path(pdlab.__file__).parent)
    assert len(calls) == 11  # the split's three series, vfm, continuity, the sigma
    # probes, the counterexample, embedding, maximal ratio, moment decay, sigma order
    assert [at for at, call in calls if "points" not in {k.arg for k in call.keywords}] == []
