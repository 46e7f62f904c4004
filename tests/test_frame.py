import inspect
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import Annotated, Literal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdlab.grid
from pdlab.frame import (
    _QUAD_CHUNK,
    DEFAULT_FRAME,
    LPFrame,
    ModulationFunction,
    decode,
    frame_from_options,
    keyword_options,
    on_distinct,
    parse_spec,
    smoothstep,
    split_options,
)
from pdlab.grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    fft_forward,
    fft_inverse,
    random_band_limited,
)


def test_modulation_plateaus():
    psi = ModulationFunction(1.0, 2.0)
    assert psi.radial(0.5) == 1.0
    assert psi.radial(1.0) == 1.0
    assert psi.radial(3.0) == 0.0
    assert psi.radial(2.0) == 0.0
    mid = psi.radial(1.5)
    assert 0.0 < mid < 1.0


def test_modulation_validation():
    with pytest.raises(ValueError):
        ModulationFunction(2.0, 1.0)
    with pytest.raises(ValueError):
        ModulationFunction(0.3, 0.9)  # R < 1


def test_the_frame_has_no_profile_option():
    # smoothstep is the one profile, so it is no option
    with pytest.raises(ValueError, match="unknown frame option 'profile'; allowed: R, h, r"):
        parse_spec("profile=smoothstep", frame_from_options, "frame")


def min_separation(psi):
    """Least integer h >= 2 with 2R < r*2^h."""
    h = 2
    while 2.0 * psi.R >= psi.r * 2.0**h:
        h += 1
    return h


def test_min_separation_default_frame():
    # 2R = 4 < r*2^h = 2^h forces h >= 3
    psi = ModulationFunction(1.0, 2.0)
    assert min_separation(psi) == 3
    with pytest.raises(ValueError):
        LPFrame(psi=psi, h=2)
    LPFrame(psi=psi, h=3)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-3.0, max_value=4.0), st.floats(min_value=0.0, max_value=2.0))
@example(t=0.9296875, dt=1e-13)  # decreased when the quadrature ran above 1/2
def test_smoothstep_monotone(t, dt):
    a, b = smoothstep(np.array([t])), smoothstep(np.array([t + dt]))
    assert b[0] >= a[0]
    assert 0.0 <= a[0] <= 1.0


@pytest.mark.parametrize(
    "size", [_QUAD_CHUNK - 1, _QUAD_CHUNK, _QUAD_CHUNK + 1, 3 * _QUAD_CHUNK + 5]
)
def test_smoothstep_chunks_match_entrywise_evaluation(size):
    rng = np.random.default_rng(size)
    plateaus = [-2.0, -0.0, 0.0, 1.0, 1.5, 7.0] * 5
    t = rng.permutation(np.concatenate([rng.uniform(0.0, 1.0, size), plateaus]))
    assert np.count_nonzero((t > 0.0) & (t < 1.0)) == size
    got = smoothstep(t)
    assert np.array_equal(got, np.concatenate([smoothstep(t[i : i + 1]) for i in range(t.size)]))
    assert np.all(got[t <= 0.0] == 0.0) and np.all(got[t >= 1.0] == 1.0)


def test_smoothstep_accuracy():
    t = np.linspace(0.0, 1.0, 4097)[1:-1]
    s = smoothstep(t)
    # the bump is symmetric about 1/2, so S(t) + S(1-t) = 1
    assert np.max(np.abs(s + smoothstep(1.0 - t) - 1.0)) <= 1e-14
    nodes, weights = np.polynomial.legendre.leggauss(256)

    def integral(x):
        tau = 0.5 * x[:, None] * (nodes + 1.0)
        return np.sum(np.exp(-1.0 / (tau * (1.0 - tau))) * weights, axis=-1) * 0.5 * x

    ref = integral(t) / integral(np.array([1.0]))[0]
    assert np.max(np.abs(s - ref)) <= 1e-14


def test_nan_in_gives_nan_out():
    got = smoothstep(np.array([np.nan, 0.5, np.nan]))
    assert np.isnan(got[0]) and np.isnan(got[2])
    assert got[1] == smoothstep(np.array([0.5]))[0]
    rad = ModulationFunction(1.0, 2.0).radial(np.array([np.nan, 0.5, 1.5]))
    assert np.isnan(rad[0]) and rad[1] == 1.0 and 0.0 < rad[2] < 1.0


def test_corona_nonnegative_everywhere():
    psi = ModulationFunction(1.0, 2.0)
    t = np.linspace(0.0, 5.0, 4001)
    assert np.all(psi.radial(t) - psi.radial(2 * t) >= 0.0)


def test_corona_support_bounds():
    # supp phi(2^{-k} .) inside {r 2^{k-1} <= |xi| <= R 2^k}
    frame = DEFAULT_FRAME
    for k in [1, 2, 5]:
        t = np.linspace(0, frame.R * 2.0**k + 8, 3000)
        vals = frame.block_radial(k, t)
        outside = (t < frame.r * 2.0 ** (k - 1)) | (t > frame.R * 2.0**k)
        assert np.max(np.abs(vals[outside])) == 0.0


def test_telescoping_pointwise():
    psi = ModulationFunction(1.0, 2.0)
    t = np.linspace(0.0, 40.0, 1500)
    for m in [1, 3, 5]:
        total = psi.radial(t).copy()
        for k in range(1, m + 1):
            total += psi.corona(t * 2.0**-k)
        assert np.max(np.abs(total - psi.radial(t * 2.0**-m))) < 1e-12


def test_lattice_blocks_partition_of_unity():
    spec = GridSpec(1, 64)
    blocks = DEFAULT_FRAME.lattice_blocks(spec)
    total = sum(blocks)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    spec2 = GridSpec(2, 16)
    total2 = sum(DEFAULT_FRAME.lattice_blocks(spec2))
    assert np.max(np.abs(total2 - 1.0)) < 1e-12


def test_blocks_at_origin_and_shells():
    spec = GridSpec(1, 64)
    blocks = DEFAULT_FRAME.lattice_blocks(spec)
    half = spec.N // 2
    assert blocks[0][half] == 1.0
    for j in range(1, len(blocks)):
        assert blocks[j][half] == 0.0
    # |eta| = 3 can only touch shells 1 and 2 for (r,R) = (1,2)
    idx = half + 3
    for j, b in enumerate(blocks):
        if j not in (1, 2):
            assert b[idx] == 0.0
    assert abs(blocks[1][idx] + blocks[2][idx] - 1.0) < 1e-12


def test_partition_at_random_radii():
    rng = np.random.default_rng(4)
    psi = ModulationFunction(1.0, 2.0)
    t = rng.uniform(0.0, 30.0, size=50)
    m = 6
    total = psi.radial(t).copy()
    for k in range(1, m + 1):
        total += psi.corona(t * 2.0**-k)
    assert np.max(np.abs(total - 1.0)) < 1e-12  # psi(2^-6 * 30) on plateau


def test_blocks_of_a_constant():
    spec = GridSpec(1, 32)
    u = GridFunction(spec, np.ones(32))
    c = fft_forward(u).coeffs
    blocks = DEFAULT_FRAME.lattice_blocks(spec)
    u0 = fft_inverse(SpectralFunction(spec, c * blocks[0]))
    assert np.max(np.abs(u0.values - 1.0)) < 1e-13
    for j in [1, 2, 3]:
        uj = fft_inverse(SpectralFunction(spec, c * blocks[j]))
        assert np.max(np.abs(uj.values)) < 1e-14


def test_reconstruction_and_ball_telescoping():
    rng = np.random.default_rng(17)
    spec = GridSpec(1, 128)
    u = GridFunction(spec, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    frame = DEFAULT_FRAME
    c = fft_forward(u).coeffs
    parts = [fft_inverse(SpectralFunction(spec, c * m)) for m in frame.lattice_blocks(spec)]
    total = sum(p.values for p in parts)
    assert np.max(np.abs(total - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    # u^m = u_0 + ... + u_m
    for m in [2, 4]:
        ball = fft_inverse(SpectralFunction(spec, c * frame.ball_radial(m, spec.freq_radius())))
        acc = sum(p.values for p in parts[: m + 1])
        assert np.max(np.abs(ball.values - acc)) <= 1e-12 * np.max(np.abs(u.values))


def test_corona_hard_zero_mass():
    rng = np.random.default_rng(23)
    spec = GridSpec(1, 128)
    u = random_band_limited(spec, 50.0, rng)
    frame = DEFAULT_FRAME
    rad = spec.freq_radius()
    cu = fft_forward(u).coeffs
    for k in [1, 3, 5]:
        outside = (rad < frame.r * 2.0 ** (k - 1)) | (rad > frame.R * 2.0**k)
        # the constructed spectrum is coeffs * multiplier: hard zeros outside
        mult = frame.block_radial(k, rad)
        assert np.max(np.abs((cu * mult)[outside])) == 0.0
        # re-measuring through the inverse/forward pair only adds rounding noise
        ck = fft_forward(fft_inverse(SpectralFunction(spec, cu * mult))).coeffs
        assert np.max(np.abs(ck[outside])) < 1e-13 * np.max(np.abs(cu))


def test_frame_equivalence_two_psis():
    # Besov-style block l2 sums from two admissible frames stay comparable
    rng = np.random.default_rng(31)
    spec = GridSpec(1, 128)
    frame_a = DEFAULT_FRAME
    frame_b = LPFrame(psi=ModulationFunction(0.8, 1.6), h=3)
    ratios = []
    for _ in range(50):
        u = random_band_limited(spec, 40.0, rng)
        norms = []
        c = fft_forward(u).coeffs
        for fr in (frame_a, frame_b):
            total = 0.0
            for j, m in enumerate(fr.lattice_blocks(spec)):
                w = fft_inverse(SpectralFunction(spec, c * m))
                total += (2.0 ** (0.5 * j) * np.sqrt(np.mean(np.abs(w.values) ** 2))) ** 2
            norms.append(np.sqrt(total))
        ratios.append(norms[0] / norms[1])
    spread = max(ratios) / min(ratios)
    assert np.isfinite(spread)
    assert spread < 4.0


@pytest.mark.parametrize("n, N", [(1, 2**14), (2, 256)])
@pytest.mark.parametrize(
    "frame", [DEFAULT_FRAME, LPFrame(ModulationFunction(0.8, 1.6), h=4)], ids=["default", "alt"]
)
def test_lattice_blocks_match_full_grid_evaluation(n, N, frame):
    spec = GridSpec(n, N)
    rad = spec.freq_radius()
    blocks = LPFrame(frame.psi, frame.h).lattice_blocks(spec)  # fresh cache
    assert len(blocks) == frame.j_saturation(spec) + 1
    for j, b in enumerate(blocks):
        assert np.array_equal(b, frame.block_radial(j, rad))
        if j > 0:  # the ball difference is phi(2^-j .), bit for bit
            assert np.array_equal(b, frame.psi.corona(rad * 2.0**-j))


@pytest.mark.parametrize("n, N", [(1, 2**18), (1, 2**11), (2, 256), (2, 64)])
@pytest.mark.parametrize(
    "frame", [DEFAULT_FRAME, LPFrame(ModulationFunction(0.8, 1.6), h=4)], ids=["default", "alt"]
)
def test_balls_from_one_pooled_quadrature_are_the_per_ball_bits(n, N, frame):
    spec = GridSpec(n, N)
    radii = np.unique(spec.freq_radius())
    j_max = frame.j_saturation(spec)
    balls = list(frame.balls_on(radii, j_max))
    assert len(balls) == j_max + 1
    for m, ball in enumerate(balls):
        assert np.array_equal(ball, frame.ball_radial(m, radii))


@pytest.mark.parametrize("n, N", [(1, 2**11), (2, 64), (1, 2**15), (2, 256)])
def test_block_supports_hold_each_block_where_it_is_nonzero(n, N):
    # the second frame's transitions overlap (R > 2r): a block's support
    # then reaches past the next ball's plateau, and its ends hold exact zeros
    spec = GridSpec(n, N)
    rad = spec.freq_radius().reshape(-1)
    for psi in (DEFAULT_FRAME.psi, frame_from_options(r=0.7, R=2.5).psi):
        frame = LPFrame(psi, DEFAULT_FRAME.h)  # an empty block cache
        j_max = frame.j_saturation(spec)
        supports = frame.block_supports(spec)
        assert frame.block_supports(spec) is supports  # cached
        past = frame.block_supports(spec, j_max + 2)  # two blocks past the lattice
        assert len(supports) == j_max + 1 and len(past) == j_max + 3
        for j, (idx, vals) in enumerate(past):
            want = frame.block_radial(j, rad)
            assert idx.dtype == np.intp and vals.dtype == float
            assert np.array_equal(idx, np.flatnonzero(want))
            assert np.array_equal(vals, want[idx])
            if j <= j_max:
                assert np.array_equal(supports[j][0], idx)
                assert np.array_equal(supports[j][1], vals)


def test_a_cold_block_build_peaks_within_its_old_multiple_of_the_supports():
    # a build holds the lattice's int32 radius classes, the distinct radii,
    # two balls and one block's comparison mask beside the supports it keeps:
    # 3.84 times the supports' bytes here (7.57 MiB against 1.97 MiB); the
    # ball-by-ball sweep of the grid it replaced peaked at 4.22 times (8.30 MiB)
    spec = GridSpec(1, 2**16)
    frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
    tracemalloc.start()
    try:
        supports = frame.block_supports(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(i.nbytes + v.nbytes for i, v in supports)
    assert peak <= 4.2 * held


def test_lattice_blocks_memory_stays_table_sized():
    spec = GridSpec(1, 2**16)
    frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
    tracemalloc.start()
    try:
        blocks = frame.lattice_blocks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(b.nbytes for b in blocks)


def test_on_distinct_is_bit_identical_and_keeps_shape():
    rng = np.random.default_rng(5)
    t = rng.choice(rng.uniform(-0.5, 1.5, 40), size=(7, 9))
    assert np.array_equal(on_distinct(smoothstep, t), smoothstep(t))
    stacked = on_distinct(lambda v: np.stack([smoothstep(v), smoothstep(2 * v)]), t)
    assert stacked.shape == (2, 7, 9)
    assert np.array_equal(stacked[1], smoothstep(2 * t))
    assert on_distinct(smoothstep, np.empty(0)).shape == (0,)


def cached_bytes(frame: LPFrame) -> int:
    return sum(i.nbytes + v.nbytes for held in frame._block_cache.values() for i, v in held)


def supports_bytes(spec: GridSpec) -> int:
    frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
    frame.block_supports(spec)
    return cached_bytes(frame)


def test_block_cache_keeps_only_the_recent_grids(monkeypatch):
    specs = [GridSpec(n, 2**k) for k in range(3, 9) for n in (1, 2)]
    # the budget holds the last three grids' supports, not the last four
    monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", sum(map(supports_bytes, specs[-3:])))
    frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
    first = {spec: [b.copy() for b in frame.lattice_blocks(spec)] for spec in specs}
    assert [(n, N) for n, N, _ in frame._block_cache] == [(s.n, s.N) for s in specs[-3:]]
    assert cached_bytes(frame) == pdlab.grid.MEMORY_BUDGET
    for spec in specs:  # the early grids were evicted and are rebuilt
        rebuilt = frame.lattice_blocks(spec)
        assert len(rebuilt) == len(first[spec])
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, first[spec]))
    assert [(n, N) for n, N, _ in frame._block_cache] == [(s.n, s.N) for s in specs[-3:]]
    # a grid past the whole budget evicts every older one and stays
    monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", 1)
    frame.lattice_blocks(GridSpec(1, 512))
    assert [(n, N) for n, N, _ in frame._block_cache] == [(1, 512)]


def test_block_cache_under_racing_threads(monkeypatch):
    frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
    specs = [GridSpec(n, 2**k) for k in range(3, 10) for n in (1, 2)] * 4
    want = {spec: LPFrame(frame.psi, frame.h).lattice_blocks(spec) for spec in set(specs)}
    # half of what the grids' supports hold: the threads evict as they build
    monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", sum(map(supports_bytes, set(specs))) // 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(frame.lattice_blocks, specs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for spec, blocks in zip(specs, got):
        assert all(np.array_equal(a, b) for a, b in zip(blocks, want[spec]))
    assert cached_bytes(frame) <= pdlab.grid.MEMORY_BUDGET or len(frame._block_cache) == 1


# ---------------------------------------------------------------------------
# the option grammar


class TestDecode:
    def test_text_is_converted_by_the_annotation(self):
        assert decode("3", int, "k", text=True) == 3
        assert decode("inf", float, "k", text=True) == float("inf")
        assert decode("1+2j", complex, "k", text=True) == 1 + 2j
        assert decode("auto", int | Literal["auto"], "k", text=True) == "auto"
        assert decode("7", int | Literal["auto"], "k", text=True) == 7
        assert decode("3x-4", Annotated[tuple, lambda t: t.split("x")], "k", text=True) == ["3", "-4"]
        with pytest.raises(ValueError, match="bad value for k in 'x:k=deep'"):
            decode("deep", int | Literal["auto"], "k in 'x:k=deep'", text=True)
        with pytest.raises(ValueError, match="bad value for k"):
            decode("2.5", int | None, "k", text=True)

    def test_json_values_must_have_the_type(self):
        assert decode(2, float, "k") == 2.0 and type(decode(2, float, "k")) is float
        assert decode([1, 2.5], tuple[int, float], "k") == (1, 2.5)
        with pytest.raises(ValueError, match="k must be an integer"):
            decode("3", int, "k")

    def test_a_hint_the_grammar_cannot_read_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot read"):
            decode("1", list[int], "k", text=True)


class TestParseSpec:
    @staticmethod
    def build(spec, *, n: int, x: float = 0.5):
        return spec, n, x

    def test_binds_the_builders_keywords(self):
        kinds = {"k": self.build}
        assert parse_spec("k:n=2", kinds, "thing")("grid") == ("grid", 2, 0.5)
        assert parse_spec(" k : n = 2 , x = 1e3 ", kinds, "thing")("grid") == ("grid", 2, 1000.0)

    def test_rejects_what_the_builder_does_not_take(self):
        kinds = {"k": self.build}
        with pytest.raises(ValueError, match="unknown thing kind 'j' in 'j:n=2'"):
            parse_spec("j:n=2", kinds, "thing")
        with pytest.raises(ValueError, match="bad thing option 'n'"):
            parse_spec("k:n", kinds, "thing")
        with pytest.raises(ValueError, match="unknown thing option 'y'; allowed: n, x"):
            parse_spec("k:n=2,y=1", kinds, "thing")
        with pytest.raises(ValueError, match="thing 'k:x=1' is missing n"):
            parse_spec("k:x=1", kinds, "thing")

    def test_the_frame_spec_has_no_kind(self):
        assert split_options(" r = 0.5 ,R=1.5,h=4", "frame") == {"r": "0.5", "R": "1.5", "h": "4"}
        assert split_options("", "frame") == {}
        assert frame_from_options(r=0.5, R=1.5, h=4) == LPFrame(ModulationFunction(0.5, 1.5), h=4)
        assert frame_from_options() == DEFAULT_FRAME
        assert keyword_options(frame_from_options) == (
            {"r": float, "R": float, "h": int}, ())


def _kind_tables():
    """(table name, table, positional arguments of its builders) for every
    spec family; the grid is the smallest that holds ching's default jmax=8."""
    from pdlab.cli import INPUT_KINDS
    from pdlab.experiments import NORM_KINDS
    from pdlab.symbols import SYMBOL_KINDS

    spec = GridSpec(1, 1024)
    return spec, [("input", INPUT_KINDS, (spec, 0)), ("symbol", SYMBOL_KINDS, (spec, DEFAULT_FRAME)),
                  ("norm", NORM_KINDS, (DEFAULT_FRAME,)), ("frame", {"": frame_from_options}, ())]


def test_every_option_has_an_annotation_the_grammar_reads():
    for what, table, _ in _kind_tables()[1]:
        for kind, builder in table.items():
            for key, hint in keyword_options(builder)[0].items():
                assert hint is not inspect.Parameter.empty, (what, kind, key)
                try:  # a bad value is fine; a TypeError means the hint is unreadable
                    decode("1", hint, f"{key} in {kind!r}", text=True)
                except ValueError:
                    pass


def test_every_kind_builds_from_its_required_keys(tmp_path):
    from pdlab.symbols import ConstantSymbol, write_pdsy

    spec, tables = _kind_tables()
    table_file = tmp_path / "t.pdsy"
    write_pdsy(ConstantSymbol(2.0), spec, table_file)
    samples = {"eta": "3", "N": "2", "file": str(table_file), "s": "0", "p": "2", "q": "2"}
    for what, table, args in tables:
        for kind, builder in table.items():
            _, required = keyword_options(builder)
            body = ",".join(f"{k}={samples[k]}" for k in required)
            text = f"{kind}:{body}" if body else kind
            assert parse_spec(text, table, what)(*args) is not None, (what, text)
