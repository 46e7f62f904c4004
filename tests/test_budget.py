"""One memory budget: grid.MEMORY_BUDGET, patched here in one place, bounds
every dense N^n x N^n array, every row chunk and a shift symbol's rows.
The block cache's eviction by bytes is tested with the frame
(tests/test_frame.py)."""
import tracemalloc

import numpy as np
import pytest

import pdlab.cli as cli
import pdlab.grid as grid
import pdlab.operators as ops
import pdlab.symbols as symbols
from pdlab.frame import DEFAULT_FRAME
from pdlab.grid import GridSpec, random_band_limited, random_band_spectrum, row_chunks
from pdlab.pointwise import MaximalParams, mihlin_rhs, symbol_factor
from pdlab.symbols import (
    ConstantSymbol,
    TabulatedSymbol,
    check_twisted_diagonal,
    ching_for_grid,
    localize_symbol,
    mask_twisted_diagonal,
    random_elementary,
    read_pdsy,
    symbol_partial_ft,
    write_pdsy,
)

SPEC = GridSpec(1, 256)  # one N^n x N^n complex array: 65536 entries, 1 MiB
DENSE_BYTES = 16 * SPEC.npoints**2


def table(tmp_path):
    a = ching_for_grid(SPEC)
    return lambda: a.table(SPEC)


def spectral_table(tmp_path):
    a = ching_for_grid(SPEC)
    return lambda: symbol_partial_ft(a, SPEC)


def spectral_rows(tmp_path):
    # a table has no terms: the split takes its a_hat's rows as shift terms
    rng = np.random.default_rng(3)
    shape = SPEC.shape + SPEC.shape
    a = TabulatedSymbol(SPEC, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u = random_band_limited(SPEC, 20, rng)
    return lambda: ops.paradiff_split(a, u)


def dense_matrix(tmp_path):
    return lambda: ops.kernel(ConstantSymbol(), SPEC)


def twisted_diagonal_mask(tmp_path):
    # a symbol without shift terms: a shift symbol's mask is read from its rows
    a = random_elementary(SPEC, DEFAULT_FRAME, J=4, seed=2)
    return lambda: mask_twisted_diagonal(a, 2.0, SPEC)


def pdsy_file(tmp_path):
    path = tmp_path / "sym.pdsy"
    write_pdsy(ConstantSymbol(2.0), SPEC, path)
    return lambda: read_pdsy(path)


GUARDS = {  # the array each guard names -> its call, set up under the real budget
    "symbol table": table,
    "spectral table": spectral_table,
    "spectral rows": spectral_rows,
    "dense operator matrix": dense_matrix,
    "twisted-diagonal mask": twisted_diagonal_mask,
    "sym.pdsy: symbol table": pdsy_file,
}


@pytest.mark.parametrize("what", sorted(GUARDS))
def test_each_guard_raises_before_it_allocates(monkeypatch, tmp_path, what):
    run = GUARDS[what](tmp_path)
    monkeypatch.setattr(grid, "MEMORY_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).endswith(
        f"{what} would hold 65536 table entries (1 MiB > 0.000953674 MiB memory budget); "
        "use the structured paths")
    assert peak < DENSE_BYTES / 4


@pytest.mark.parametrize("what", sorted(GUARDS))
def test_each_guard_passes_at_the_budget(monkeypatch, tmp_path, what):
    run = GUARDS[what](tmp_path)
    monkeypatch.setattr(grid, "MEMORY_BUDGET", DENSE_BYTES)
    run()


def test_the_chunks_are_the_old_literals():
    # apply chunks rows by 2^21 entries (a row block and its phases), and
    # symbol_factor chunked them by 2^22: 1 << 26 bytes at 32 and at 16 bytes
    # an entry
    assert grid.MEMORY_BUDGET == 1 << 26
    for npoints in [2**k for k in range(21)] + [3, 1000, 4095]:
        for row_bytes, entries in ((2 * 16 * npoints, 1 << 21), (16 * npoints, 1 << 22)):
            step = max(1, entries // npoints)
            chunks = row_chunks(npoints, row_bytes)
            assert next(chunks) == slice(0, min(step, npoints))
            assert next(chunks, slice(step, None)).start == step


@pytest.mark.parametrize("module, run, rows", [
    (ops, lambda a, u: ops.apply(a, u).values, 7),
    # symbol_factor's rows come from symbols._kernel_rows, which chunks them
    (symbols, lambda a, u: symbol_factor(a, MaximalParams(2.0, 8.0), spec=u.spec).values, 9),
], ids=["apply", "symbol_factor"])
def test_a_small_budget_chunks_the_rows(monkeypatch, module, run, rows):
    spec = GridSpec(1, 64)
    a = ching_for_grid(spec, d=0.5)
    u = random_band_limited(spec, 20, np.random.default_rng(5))
    whole = run(a, u)
    real, chunks = module.row_chunks, []

    def spy(count, row_bytes):
        chunks.extend(real(count, row_bytes))
        return chunks

    monkeypatch.setattr(module, "row_chunks", spy)
    monkeypatch.setattr(grid, "MEMORY_BUDGET", 7 * 2 * 16 * spec.npoints)
    chunked = run(a, u)
    assert [c.stop - c.start for c in chunks] == [rows] * (64 // rows) + [64 % rows]
    assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_symbol_factor_holds_one_budget_of_rows(monkeypatch):
    # a chunk's complex rows and then their moduli, 24 bytes an entry, fit
    # the budget: the peak over a one-row budget grows by the budget alone
    spec = GridSpec(1, 1024)
    a, p = ching_for_grid(spec, d=0.5), MaximalParams(2.0, 8.0)
    symbol_factor(a, p, spec=spec)  # caches filled outside the measurement
    peaks = []
    for rows in (1, 64):
        monkeypatch.setattr(grid, "MEMORY_BUDGET", rows * 24 * spec.npoints)
        tracemalloc.start()
        try:
            symbol_factor(a, p, spec=spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 24 * spec.npoints


def test_symbol_factor_table_route_holds_one_budget_of_rows(monkeypatch):
    # a table symbol's chunk is its rows times chi, written in ifftshift's
    # order, transformed and scaled in place, and then their moduli: 24 bytes
    # an entry, so the peak grows by about one budget (1.06 at 1-d 256; 1.55
    # when each step made a new array)
    spec = GridSpec(1, 256)
    a = TabulatedSymbol(spec, random_elementary(spec, DEFAULT_FRAME, J=4, seed=3).table(spec))
    p = MaximalParams(2.0, 64.0)
    symbol_factor(a, p, spec=spec)  # caches filled outside the measurement
    peaks = []
    for rows in (1, 128):
        monkeypatch.setattr(grid, "MEMORY_BUDGET", rows * 24 * spec.npoints)
        tracemalloc.start()
        try:
            symbol_factor(a, p, spec=spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1.2 * 128 * 24 * spec.npoints


def test_the_operator_matrix_takes_the_place_of_its_transform():
    # K[x, y] = k(x, x - y) is gathered within each row of the copied kernel
    # rows and written back over them: the peak is K, the gathered rows and
    # their int64 indices, 2.5 tables (3.5 when M was a fourth array)
    spec = GridSpec(1, 1024)
    a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=3)
    tracemalloc.start()
    try:
        K = ops.kernel(a, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == spec.shape + spec.shape
    assert peak <= 2.6 * 16 * spec.npoints**2


def test_the_spatial_rule_holds_one_budget_at_4096():
    # the rule streams the kernel rows, about 48 bytes an entry; the dense
    # kernel at 1-d 4096 would be 256 MiB, four budgets
    spec = GridSpec(1, 4096)
    a = ching_for_grid(spec)
    u = random_band_limited(spec, 0.2 * spec.N / 2, np.random.default_rng(1))
    tracemalloc.start()
    try:
        report = ops.support_rule_check(a, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.allowed_support == spec.npoints
    assert peak <= grid.MEMORY_BUDGET


def test_the_spectral_rule_holds_half_a_budget_at_2_18():
    # a shift symbol's sumset is the targets of its packed entries: no N^n
    # delta or g table per term, and no FFT
    spec = GridSpec(1, 2**18)
    a = ching_for_grid(spec)
    c = random_band_spectrum(spec, 0.5 * spec.N / 2, np.random.default_rng(1))
    tracemalloc.start()
    try:
        report = ops.spectral_support_rule_check(a, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.allowed_support > 0
    assert peak <= 0.5 * grid.MEMORY_BUDGET


SHIFT_ROW_TOOLS = {  # a tool reading a shift symbol's rows -> their name, bytes an entry, call
    "mask": ("twisted-diagonal mask", 24, lambda a, spec: mask_twisted_diagonal(a, 2.0, spec)),
    "check": ("spectral table", 24, lambda a, spec: check_twisted_diagonal(a, 2.0, spec=spec)),
    "localize": ("spectral table", 24, lambda a, spec: localize_symbol(a, 0.5, spec)),
    "mihlin": ("derivative-sum rows", 68,
               lambda a, spec: mihlin_rhs(a, MaximalParams(2.0, spec.N / 8), spec=spec)),
}


@pytest.mark.parametrize("tool", sorted(SHIFT_ROW_TOOLS))
def test_a_shift_symbols_rows_are_checked_before_they_are_made(monkeypatch, tool):
    # Ching at theta = 2 has 15 distinct xi-rows at 1-d 2^16: its rows and
    # their radius mesh, 24 bytes an entry, are 22.5 MiB, the rows alone
    # 15 MiB; the derivative sum's rows, differences, phases and masked
    # copies, 68 bytes an entry, 63.75 MiB; its terms' own build peaks near
    # 7 MiB
    what, entry_bytes, run = SHIFT_ROW_TOOLS[tool]
    spec = GridSpec(1, 2**16)
    a = ching_for_grid(spec, theta=2)
    rows = len({t.xi for t in a.shift_terms(spec)})
    nbytes = entry_bytes * rows * spec.npoints
    monkeypatch.setattr(grid, "MEMORY_BUDGET", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            run(a, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(f"{what} would hold {rows * spec.npoints} table entries (")
    assert peak < nbytes / 2
    monkeypatch.setattr(grid, "MEMORY_BUDGET", nbytes)
    run(a, spec)


def test_the_mihlin_rows_are_refused_within_one_budget(capsys):
    # 16 rows of 2^17 entries at 68 bytes an entry are 136 MiB: the check
    # refuses them before they are made, and before F_a's kernel sums start
    argv = ["pointwise", "mihlin", "--symbol", "ching:d=0,theta=+1,jmax=auto",
            "--grid", str(2**17), "--R", "16384"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: derivative-sum rows would hold 2097152 table entries (136 MiB > 64 MiB")
    assert peak < grid.MEMORY_BUDGET


def test_the_mihlin_table_is_checked_at_its_peak(monkeypatch):
    # a symbol without shift terms sums its table's eta differences: the
    # table, a difference and its moduli, checked at 48 bytes an entry
    # before the table is built (elementary J=6 at 1-d 256 peaks at 40)
    spec = GridSpec(1, 256)
    a, p = random_elementary(spec, DEFAULT_FRAME, J=6, seed=1), MaximalParams(2.0, spec.N / 8)
    mihlin_rhs(a, p, spec=spec)  # caches filled outside the measurement
    nbytes = 48 * spec.npoints**2
    monkeypatch.setattr(grid, "MEMORY_BUDGET", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            mihlin_rhs(a, p, spec=spec)
        refused = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.setattr(grid, "MEMORY_BUDGET", nbytes)
        mihlin_rhs(a, p, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith("derivative-sum table would hold 65536 table entries (3 MiB")
    assert refused < DENSE_BYTES / 4
    assert peak <= nbytes


def test_the_mihlin_table_is_refused_from_the_cli(capsys):
    # 2^22 entries at 48 bytes are 192 MiB: refused before the table is built
    argv = ["pointwise", "mihlin", "--symbol", "elementary:seed=1", "--grid", "2048"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: derivative-sum table would hold 4194304 table entries (192 MiB > 64 MiB")
    assert peak < grid.MEMORY_BUDGET / 4
