"""Dyadic smoothness-space checks: block-level norm oracles, scale identities,
the B-F sandwich and Sobolev embedding constants, and the summation lemma."""
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdlab.frame as frame_mod
import pdlab.spaces as spaces
from pdlab.experiments import lacunary_coeffs, parse_norm
from pdlab.frame import DEFAULT_FRAME, LPFrame, ModulationFunction
from pdlab.grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    fft_forward,
    fft_inverse,
    lp_norm,
    random_band_limited,
    random_band_spectrum,
    single_mode,
    sobolev_norm,
    spectrum_from_coeffs,
)
from pdlab.spaces import (
    BESOV,
    TRIEBEL_LIZORKIN,
    SpaceParams,
    embedding_report,
    format_space,
    holder_norm,
    lp_block_moduli,
    space_norms,
    summation_lemma_check,
)

TWO_PI = 2.0 * math.pi


def rand_u(spec: GridSpec, band: float, seed: int) -> GridFunction:
    return random_band_limited(spec, band, np.random.default_rng(seed))


class TestSpaceParams:
    def test_triebel_rejects_p_inf(self):
        with pytest.raises(ValueError, match="inf"):
            SpaceParams(0.0, math.inf, 2.0, TRIEBEL_LIZORKIN)

    def test_besov_allows_p_inf(self):
        sp = SpaceParams(0.0, math.inf, math.inf, BESOV)
        assert math.isinf(sp.p)

    def test_exponents_must_be_positive(self):
        with pytest.raises(ValueError, match="p"):
            SpaceParams(0.0, 0.0, 2.0, BESOV)
        with pytest.raises(ValueError, match="q"):
            SpaceParams(0.0, 2.0, -1.0, BESOV)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            SpaceParams(0.0, 2.0, 2.0, "X")

    def test_parse_norm_gives_the_space(self):
        sp = parse_norm("F:s=0.5,p=2,q=1")[2]
        assert sp == SpaceParams(0.5, 2.0, 1.0, TRIEBEL_LIZORKIN)
        sp = parse_norm("B:s=-1,p=inf,q=inf")[2]
        assert sp.scale == BESOV and math.isinf(sp.p) and math.isinf(sp.q)

    def test_format_space_round_trips(self):
        sp = SpaceParams(-0.25, 2.0, math.inf, TRIEBEL_LIZORKIN)
        assert parse_norm(format_space(sp))[2] == sp


class TestBesovNorm:
    def test_constant_function_uses_only_the_ball_block(self):
        spec = GridSpec(1, 64)
        u = GridFunction(spec, np.ones(64))
        for p in (1.0, 2.0, math.inf):
            got = space_norms(u, [SpaceParams(0.7, p, 1.5, BESOV)])[0]
            want = TWO_PI ** (0.0 if math.isinf(p) else 1.0 / p)
            assert got == pytest.approx(want, rel=1e-13)

    def test_mode4_lands_in_a_single_shell(self):
        # at |eta| = 4 the corona weights vanish exactly except at j = 2,
        # where the profile sits on its plateau
        w = [float(DEFAULT_FRAME.block_radial(j, np.array([4.0]))[0]) for j in range(6)]
        assert w[2] == 1.0
        assert all(w[j] == 0.0 for j in (0, 1, 3, 4, 5))
        spec = GridSpec(1, 64)
        u = single_mode(spec, 4)
        for q in (1.0, 3.0, math.inf):
            got = space_norms(u, [SpaceParams(0.5, 2.0, q, BESOV)])[0]
            assert got == pytest.approx(2.0 ** (0.5 * 2) * TWO_PI**0.5, rel=1e-12)

    def test_single_mode_matches_block_weight_oracle(self):
        spec = GridSpec(1, 64)
        u = single_mode(spec, 3)
        s, p = 0.5, 2.0
        weights = [
            float(DEFAULT_FRAME.block_radial(j, np.array([3.0]))[0])
            for j in range(DEFAULT_FRAME.j_saturation(spec) + 1)
        ]
        for q in (1.0, 2.5, math.inf):
            if math.isinf(q):
                combined = max(2.0 ** (s * j) * w for j, w in enumerate(weights))
            else:
                combined = sum(
                    (2.0 ** (s * j) * w) ** q for j, w in enumerate(weights)
                ) ** (1.0 / q)
            got = space_norms(u, [SpaceParams(s, p, q, BESOV)])[0]
            assert got == pytest.approx(combined * TWO_PI ** (1.0 / p), rel=1e-12)

    def test_smoothness_reweighting_is_algebraic(self):
        spec = GridSpec(1, 64)
        u = rand_u(spec, 20.0, 3)
        s, s2, p, q = 0.25, -1.0, 2.0, 1.5
        terms = np.array([
            lp_norm(GridFunction(spec, f), p) for f in lp_block_moduli(u, DEFAULT_FRAME)
        ])
        j = np.arange(len(terms), dtype=float)
        hand = float(np.sum((2.0 ** ((s2 - s) * j) * 2.0 ** (s * j) * terms) ** q) ** (1.0 / q))
        got = space_norms(u, [SpaceParams(s2, p, q, BESOV)])[0]
        assert got == pytest.approx(hand, rel=1e-13)

    def test_q_inf_is_the_sup_over_shells(self):
        spec = GridSpec(1, 64)
        u = rand_u(spec, 20.0, 4)
        s, p = -0.5, 2.0
        terms = [
            lp_norm(GridFunction(spec, f), p) for f in lp_block_moduli(u, DEFAULT_FRAME)
        ]
        hand = max(2.0 ** (s * j) * t for j, t in enumerate(terms))
        assert space_norms(u, [SpaceParams(s, p, math.inf, BESOV)])[0] == hand


class TestTriebelNorm:
    def test_matches_besov_at_p_eq_q(self):
        spec = GridSpec(1, 64)
        u = rand_u(spec, 20.0, 1)
        for pq in (0.7, 1.0, 2.0, 3.5):
            b = space_norms(u, [SpaceParams(0.3, pq, pq, BESOV)])[0]
            f = space_norms(u, [SpaceParams(0.3, pq, pq, TRIEBEL_LIZORKIN)])[0]
            assert f == pytest.approx(b, rel=1e-12)

    def test_agrees_with_parseval_norm_up_to_partition_overlap(self):
        # s=0, p=q=2: the only gap to the exact H^0 norm is sum_j Phi_j^2,
        # which lies in [1/2, 1] because at most two shells overlap
        spec = GridSpec(1, 64)
        sp = SpaceParams(0.0, 2.0, 2.0, TRIEBEL_LIZORKIN)
        lo, hi = 1.0 / math.sqrt(2.0), math.sqrt(2.0)
        for seed in range(50):
            u = rand_u(spec, 24.0, seed)
            ratio = space_norms(u, [sp])[0] / sobolev_norm(fft_forward(u), 0.0)
            assert lo <= ratio <= hi

    def test_single_mode_matches_block_weight_oracle(self):
        spec = GridSpec(1, 64)
        u = single_mode(spec, 3)
        s, p = 0.5, 2.0
        weights = [
            float(DEFAULT_FRAME.block_radial(j, np.array([3.0]))[0])
            for j in range(DEFAULT_FRAME.j_saturation(spec) + 1)
        ]
        for q in (1.5, math.inf):
            if math.isinf(q):
                combined = max(2.0 ** (s * j) * w for j, w in enumerate(weights))
            else:
                combined = sum(
                    (2.0 ** (s * j) * w) ** q for j, w in enumerate(weights)
                ) ** (1.0 / q)
            got = space_norms(u, [SpaceParams(s, p, q, TRIEBEL_LIZORKIN)])[0]
            assert got == pytest.approx(combined * TWO_PI ** (1.0 / p), rel=1e-12)

    def test_constant_function(self):
        spec = GridSpec(1, 64)
        u = GridFunction(spec, np.ones(64))
        got = space_norms(u, [SpaceParams(-0.3, 2.0, 1.0, TRIEBEL_LIZORKIN)])[0]
        assert got == pytest.approx(TWO_PI**0.5, rel=1e-13)

    def test_two_dimensional_grid(self):
        spec = GridSpec(2, 16)
        u = rand_u(spec, 6.0, 5)
        b = space_norms(u, [SpaceParams(0.5, 2.0, 2.0, BESOV)])[0]
        f = space_norms(u, [SpaceParams(0.5, 2.0, 2.0, TRIEBEL_LIZORKIN)])[0]
        assert f == pytest.approx(b, rel=1e-12)


def stacked_norm(u: GridFunction, sp: SpaceParams, fields=None) -> float:
    """The quasi-norm from all J+1 block fields held at once: the reference
    the one-pass norms must reproduce bit for bit.  A block of zeros (None)
    is a field of zeros.  B with p = 2 reads each block's Parseval sum over
    its gathered coefficients.  `fields`: u's lp_block_moduli, if made."""
    if fields is None:
        fields = list(lp_block_moduli(u, sp.frame))
    fields = [np.zeros(u.spec.shape) if f is None else f for f in fields]
    w = 2.0 ** (sp.s * np.arange(len(fields), dtype=float))
    if sp.scale == BESOV and sp.p == 2:
        coeffs = [b for _, b in spaces.lp_block_coeffs(u, sp.frame)]
        terms = w * np.array([np.sqrt(TWO_PI**u.spec.n * np.sum(np.abs(b) ** 2)) for b in coeffs])
        return float(terms.max() if math.isinf(sp.q) else np.sum(terms**sp.q) ** (1.0 / sp.q))
    if sp.scale == BESOV:
        terms = w * np.array([lp_norm(GridFunction(u.spec, f), sp.p) for f in fields])
        return float(terms.max() if math.isinf(sp.q) else np.sum(terms**sp.q) ** (1.0 / sp.q))
    vals = w.reshape((-1,) + (1,) * u.spec.n) * np.abs(np.stack(fields))
    g = vals.max(axis=0) if math.isinf(sp.q) else np.sum(vals**sp.q, axis=0) ** (1.0 / sp.q)
    return lp_norm(GridFunction(u.spec, g), sp.p)


class TestOnePass:
    CASES = [
        SpaceParams(s, p, q, scale)
        for scale, ps in ((BESOV, (1.5, 2.0, math.inf)), (TRIEBEL_LIZORKIN, (1.5, 2.0)))
        for p in ps
        for q in (0.7, 1.0, 2.0, math.inf)
        for s in (-0.5, 0.5)
    ]

    @pytest.mark.parametrize("n, N", [(1, 2**12), (2, 64)])
    def test_every_case_equals_its_own_call_and_the_stacked_sum(self, n, N):
        u = rand_u(GridSpec(n, N), 0.4 * N / 2, 40 + n)
        together = space_norms(u, self.CASES)
        for sp, got in zip(self.CASES, together):
            assert got == space_norms(u, [sp])[0] == stacked_norm(u, sp), format_space(sp)

    def test_one_block_pass_per_frame(self, monkeypatch):
        passes = []
        real = spaces.lp_block_coeffs

        def spy(u, frame, j_max=None):
            passes.append(frame)
            return real(u, frame, j_max)

        monkeypatch.setattr(spaces, "lp_block_coeffs", spy)
        u = rand_u(GridSpec(1, 256), 50.0, 7)
        alt = LPFrame(ModulationFunction(0.8, 1.6), h=4)
        space_norms(u, self.CASES)
        assert passes == [DEFAULT_FRAME]
        cases = [self.CASES[0], SpaceParams(0.5, 2.0, 1.0, TRIEBEL_LIZORKIN, alt), self.CASES[-1]]
        got = space_norms(u, cases)
        assert passes == [DEFAULT_FRAME, DEFAULT_FRAME, alt]
        assert space_norms(u, []) == [] and len(passes) == 3
        assert got == [space_norms(u, [sp])[0] for sp in cases]

    def test_a_skipped_block_gives_the_bits_of_a_zero_field(self):
        spec = GridSpec(1, 256)
        fields = list(lp_block_moduli(rand_u(spec, 20.0, 9), DEFAULT_FRAME))
        for j in (1, 4, len(fields) - 1):
            fields[j] = None
        zeros = [np.zeros(spec.shape) if f is None else f for f in fields]
        for sp in self.CASES:
            skipped = spaces._block_norms(spec, iter(fields), len(fields), [sp])
            assert skipped == spaces._block_norms(spec, iter(zeros), len(fields), [sp]), sp

    def test_lp_block_fields_insufficient_jmax_flagged(self):
        spec = GridSpec(1, 64)
        with pytest.raises(ValueError):
            lp_block_moduli(rand_u(spec, 8.0, 0), DEFAULT_FRAME, j_max=3)

    @pytest.mark.parametrize("n, N, j_max", [(1, 2**12, None), (2, 64, None), (1, 256, 9)])
    def test_block_fields_are_fresh_inverse_transforms(self, n, N, j_max):
        # the moduli of the fields: of fresh inverse transforms, one per block
        # holding several modes, bit for bit those of the dense tables
        spec = GridSpec(n, N)
        u = rand_u(spec, 0.4 * N / 2, 30 + n)
        c = fft_forward(u).coeffs
        blocks = DEFAULT_FRAME.lattice_blocks(spec, j_max)
        moduli = list(lp_block_moduli(u, DEFAULT_FRAME, j_max))
        assert len(moduli) == len(blocks)
        # a block the spectrum misses (past the lattice at j_max=9) is None
        assert [a is None for a in moduli] == [not (c * m).any() for m in blocks]
        moduli = [a for a in moduli if a is not None]
        assert len({id(a) for a in moduli}) == len(moduli)
        assert not any(np.shares_memory(a, b) for a in moduli for b in moduli if a is not b)
        live = [m for m in blocks if (c * m).any()]
        assert all(np.count_nonzero(c * m) > 1 for m in live)
        for a, m in zip(moduli, live):
            assert np.array_equal(a, np.abs(fft_inverse(SpectralFunction(spec, c * m)).values))

    @pytest.mark.parametrize("n, N", [(1, 2**11), (2, 64)])
    def test_one_mode_blocks_are_constant_moduli(self, n, N, fft_calls):
        # v_3 at 1-d, and a 2-d input with one mode per block: a mode at
        # |eta| = 2^j lies in block j alone
        spec = GridSpec(n, N)
        if n == 1:
            modes = lacunary_coeffs(3)
        else:
            modes = {(0, 0): 0.5, (-2, 0): 1.0 - 2.0j, (0, 4): -0.25j, (0, -8): 3.0, (16, 0): 0.1}
        c = spectrum_from_coeffs(spec, modes)
        moduli = list(lp_block_moduli(c, DEFAULT_FRAME))
        assert fft_calls == []
        held = [a for a in moduli if a is not None]  # independent, writeable arrays
        assert all(a.flags.owndata and a.flags.writeable for a in held)
        assert not any(np.shares_memory(a, b) for a in held for b in held if a is not b)
        blocks = DEFAULT_FRAME.lattice_blocks(spec)
        assert len(moduli) == len(blocks)
        for a, m in zip(moduli, blocks):
            masked = c.coeffs * m
            assert np.count_nonzero(masked) <= 1
            if a is None:
                assert not masked.any()
                continue
            want = np.abs(fft_inverse(SpectralFunction(spec, masked)).values)
            assert np.all(a == np.abs(masked).max())
            assert np.max(np.abs(a - want)) <= 1e-15 * np.max(want)

    @pytest.mark.parametrize("n, N, count", [(1, 2**12, 11), (2, 64, 5)])
    def test_an_f_pass_transforms_each_block_holding_two_modes_once(self, n, N, count, fft_calls):
        spec = GridSpec(n, N)
        u = random_band_spectrum(spec, 0.4 * N / 2, np.random.default_rng(5))
        live = [m for m in DEFAULT_FRAME.lattice_blocks(spec) if np.count_nonzero(u.coeffs * m) > 1]
        space_norms(u, [SpaceParams(0.0, 2.0, 1.0, TRIEBEL_LIZORKIN)])
        assert fft_calls == [("fft_inverse", spec)] * len(live) == [("fft_inverse", spec)] * count
        fft_calls.clear()
        list(lp_block_moduli(u, DEFAULT_FRAME))
        assert len(fft_calls) == count

    SCALAR_CASES = [
        SpaceParams(s, p, q, TRIEBEL_LIZORKIN)
        for s in (0.0, 0.5) for q in (0.7, 1.0, 2.0, math.inf) for p in (1.5, 2.0)
    ] + [SpaceParams(0.5, 1.5, 2.0, BESOV)]

    def scalar_cases_match_the_stack(self, u: SpectralFunction) -> list:
        got = space_norms(u, self.SCALAR_CASES)
        fields = list(lp_block_moduli(u, DEFAULT_FRAME))
        assert all(f is None or f.shape == u.spec.shape for f in fields)  # grid arrays still
        for sp, g in zip(self.SCALAR_CASES, got):
            assert g == stacked_norm(u, sp, fields), format_space(sp)
        return fields

    @pytest.mark.parametrize("member, N", [(2, 2**7), (3, 2**11), (4, 2**18)])
    def test_a_lacunary_member_is_scalars_bit_for_bit(self, member, N, fft_calls):
        # v_N's mode 2^j lies in block j alone: every block holds one mode or none
        u = spectrum_from_coeffs(GridSpec(1, N), lacunary_coeffs(member))
        fields = self.scalar_cases_match_the_stack(u)
        assert fft_calls == []
        assert sum(f is not None for f in fields) == member * member - member + 1

    @pytest.mark.parametrize("n, N, singles", [(1, 2**12, [3, 7, 8, 9]), (2, 256, [3, 7])])
    def test_scalar_blocks_around_grid_blocks_are_bit_for_bit(self, n, N, singles, fft_calls):
        # v_3 (along -eta_1 in 2-d, up to the lattice's edge) plus a probe at
        # radii 20..40: blocks 4-6 hold many modes, the others one or none,
        # so the running sums start as scalars, are spread over the grid at
        # block 4 and take scalars again from block 7
        spec = GridSpec(n, N)
        rad = spec.freq_radius()
        if n == 1:
            modes = lacunary_coeffs(3)
        else:
            modes = {(-eta, 0): c for eta, c in lacunary_coeffs(3).items() if eta <= N // 2}
        rng = np.random.default_rng(n)
        for at in zip(*np.nonzero((rad >= 20) & (rad <= 40))):
            eta = tuple(int(i) - N // 2 for i in at)
            modes[eta[0] if n == 1 else eta] = complex(*rng.standard_normal(2))
        u = spectrum_from_coeffs(spec, modes)
        fields = self.scalar_cases_match_the_stack(u)
        held = [np.count_nonzero(u.coeffs * m) for m in DEFAULT_FRAME.lattice_blocks(spec)]
        assert [j for j, k in enumerate(held) if k > 1] == [4, 5, 6]
        assert [j for j, k in enumerate(held) if k == 1] == singles
        assert fft_calls == [("fft_inverse", spec)] * 6  # blocks 4-6, for the norms and the moduli
        assert all(np.all(fields[j] == fields[j].flat[0]) for j in singles)

    def test_a_pass_that_overflows_raises(self):
        # finite values whose transform overflows: the coefficients' check
        # still stops the pass before any norm is taken
        u = GridFunction(GridSpec(1, 64), np.full(64, 1e308, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                space_norms(u, [SpaceParams(0.0, 2.0, 1.0, TRIEBEL_LIZORKIN)])
            with pytest.raises(ValueError, match="non-finite"):
                next(lp_block_moduli(u, DEFAULT_FRAME))

    def test_racing_passes_build_the_block_table_once(self, monkeypatch):
        frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)  # an empty block cache
        builds = []
        real = frame_mod.LPFrame.balls_on

        def slow_build(self, radii, j_max):
            builds.append(spec.shape)
            time.sleep(0.05)  # hold the build open while the other thread arrives
            return real(self, radii, j_max)

        monkeypatch.setattr(frame_mod.LPFrame, "balls_on", slow_build)
        spec = GridSpec(1, 2**12)
        sp = SpaceParams(0.0, 2.0, 1.0, TRIEBEL_LIZORKIN, frame)
        us = [rand_u(spec, 0.4 * spec.N / 2, seed) for seed in (11, 12)]
        start = threading.Barrier(len(us))

        def norm(u):
            start.wait(timeout=30)
            return space_norms(u, [sp])[0]

        with ThreadPoolExecutor(len(us)) as pool:
            got = list(pool.map(norm, us, timeout=60))
        assert builds == [spec.shape]
        assert got == [space_norms(u, [sp])[0] for u in us]

    def test_f_norm_memory_stays_grid_sized(self):
        spec = GridSpec(1, 2**16)
        u = rand_u(spec, 0.4 * spec.N / 2, 8)
        sp = SpaceParams(0.0, 2.0, 1.0, TRIEBEL_LIZORKIN)
        space_norms(u, [sp])  # the frame's block tables are built outside the measurement
        tracemalloc.start()
        try:
            space_norms(u, [sp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 17 blocks at this grid: a stack of the fields alone would be 17 arrays
        assert peak < 6 * 16 * spec.npoints


class TestParsevalBlocks:
    """B with p = 2 reads each block's L2 norm from its coefficients."""

    CASES = [SpaceParams(s, 2.0, q, BESOV) for s in (-0.5, 0.5) for q in (0.7, 2.0, math.inf)]

    @staticmethod
    def moduli_route(u, sp: SpaceParams) -> float:
        fields = list(lp_block_moduli(u, sp.frame))
        w = 2.0 ** (sp.s * np.arange(len(fields), dtype=float))
        terms = w * np.array(
            [0.0 if f is None else lp_norm(GridFunction(u.spec, f), 2.0) for f in fields]
        )
        return float(terms.max() if math.isinf(sp.q) else np.sum(terms**sp.q) ** (1.0 / sp.q))

    @pytest.mark.parametrize("n, N", [(1, 2**12), (2, 64), (2, 256)])
    def test_b_only_pass_runs_no_fft_and_matches_the_moduli(self, n, N, fft_calls):
        spec = GridSpec(n, N)
        c = random_band_spectrum(spec, 0.4 * N / 2, np.random.default_rng(60 + n))
        got = space_norms(c, self.CASES)
        assert fft_calls == []
        for sp, g in zip(self.CASES, got):
            assert g == pytest.approx(self.moduli_route(c, sp), rel=1e-13), format_space(sp)

    def test_an_f_case_still_takes_the_moduli(self, fft_calls):
        spec = GridSpec(1, 2**10)
        c = random_band_spectrum(spec, 200.0, np.random.default_rng(3))
        f_case = SpaceParams(0.5, 2.0, 2.0, TRIEBEL_LIZORKIN)
        alone = space_norms(c, [f_case])
        inverse = len(fft_calls)
        assert inverse > 0 and all(name == "fft_inverse" for name, _ in fft_calls)
        fft_calls.clear()
        both = space_norms(c, [self.CASES[1], f_case])
        assert len(fft_calls) == inverse and both[1] == alone[0]
        assert both[0] == space_norms(c, [self.CASES[1]])[0]


class TestNormInvariants:
    def test_power_of_two_scaling_is_bitwise(self):
        u = rand_u(GridSpec(1, 64), 20.0, 2)
        spb = SpaceParams(0.5, 2.0, 2.0, BESOV)
        spf = SpaceParams(0.5, 2.0, 2.0, TRIEBEL_LIZORKIN)
        assert space_norms(u * 2.0, [spb])[0] == 2.0 * space_norms(u, [spb])[0]
        assert space_norms(u * 2.0, [spf])[0] == 2.0 * space_norms(u, [spf])[0]

    def test_general_homogeneity(self):
        u = rand_u(GridSpec(1, 64), 20.0, 2)
        lam = 1.7 - 0.3j
        mod = abs(lam)
        spb = SpaceParams(-0.4, 2.5, 1.2, BESOV)
        spf = SpaceParams(-0.4, 2.5, 1.2, TRIEBEL_LIZORKIN)
        for sp in (spb, spf):
            got = space_norms(u * lam, [sp])[0]
            assert got == pytest.approx(mod * space_norms(u, [sp])[0], rel=1e-12)

    def test_lambda_subadditivity(self):
        spec = GridSpec(1, 64)
        for p, q in ((2.0, 2.0), (1.0, 0.5), (0.7, 3.0)):
            lam = min(1.0, p, q)
            for seed in range(10):
                u = rand_u(spec, 20.0, seed)
                v = rand_u(spec, 20.0, 100 + seed)
                for scale in (BESOV, TRIEBEL_LIZORKIN):
                    sp = SpaceParams(0.3, p, q, scale)
                    n_uv, n_u, n_v = (space_norms(w, [sp])[0] for w in (u + v, u, v))
                    lhs = n_uv**lam
                    rhs = n_u**lam + n_v**lam
                    assert lhs <= rhs * (1.0 + 1e-12)

    def test_sum_exponent_monotonicity(self):
        # ell_q shrinks as q grows, so the norm is non-increasing in q
        u = rand_u(GridSpec(1, 64), 20.0, 6)
        for scale in (BESOV, TRIEBEL_LIZORKIN):
            vals = space_norms(u, [SpaceParams(0.4, 2.0, q, scale) for q in (1.0, 2.5, math.inf)])
            assert vals[0] >= vals[1] * (1.0 - 1e-12)
            assert vals[1] >= vals[2] * (1.0 - 1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        s=st.floats(min_value=-2.0, max_value=2.0),
        pq=st.sampled_from([0.7, 1.0, 2.0, 3.5]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_scales_agree_at_p_eq_q(self, s, pq, seed):
        u = rand_u(GridSpec(1, 32), 10.0, seed)
        b = space_norms(u, [SpaceParams(s, pq, pq, BESOV)])[0]
        f = space_norms(u, [SpaceParams(s, pq, pq, TRIEBEL_LIZORKIN)])[0]
        assert f == pytest.approx(b, rel=1e-12)


class TestEmbeddingReport:
    def test_one_block_pass_per_member(self, monkeypatch):
        seen = []
        real = spaces.lp_block_coeffs

        def spy(u, frame, j_max=None):
            seen.append(u)
            return real(u, frame, j_max)

        monkeypatch.setattr(spaces, "lp_block_coeffs", spy)
        corpus = [rand_u(GridSpec(1, 64), 16.0, s) for s in range(5)]
        rep = embedding_report(corpus, s=0.5, p=2.0, q=1.0, p_target=4.0)
        assert rep.holder_band is not None
        assert sorted(map(id, seen)) == sorted(map(id, corpus))

    def test_p_eq_q_sandwich_is_an_equality(self):
        corpus = [rand_u(GridSpec(1, 64), 16.0, s) for s in range(8)]
        rep = embedding_report(corpus, s=0.5, p=2.0, q=2.0, p_target=4.0)
        assert rep.sandwich_inner == pytest.approx(1.0, abs=1e-12)
        assert rep.sandwich_outer == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_constants_stay_below_one(self):
        corpus = [rand_u(GridSpec(1, 64), 16.0, s) for s in range(12)]
        rep = embedding_report(corpus, s=0.5, p=2.0, q=1.0, p_target=4.0)
        assert rep.holds
        assert 0.0 < rep.sandwich_inner <= 1.0 + 1e-9
        assert 0.0 < rep.sandwich_outer <= 1.0 + 1e-9
        assert math.isfinite(rep.sobolev_constant)
        assert rep.s_target == pytest.approx(0.5 - 1.0 / 2.0 + 1.0 / 4.0)

    def test_fitted_constants_stable_under_grid_doubling(self):
        c64 = [rand_u(GridSpec(1, 64), 16.0, s) for s in range(12)]
        c128 = [rand_u(GridSpec(1, 128), 16.0, s) for s in range(12)]
        r64 = embedding_report(c64, s=0.5, p=2.0, q=1.0, p_target=4.0)
        r128 = embedding_report(c128, s=0.5, p=2.0, q=1.0, p_target=4.0)
        for a, b in (
            (r64.sandwich_inner, r128.sandwich_inner),
            (r64.sandwich_outer, r128.sandwich_outer),
            (r64.sobolev_constant, r128.sobolev_constant),
            (r64.holder_band[1], r128.holder_band[1]),
        ):
            assert 1.0 / 1.3 <= b / a <= 1.3

    def test_single_modes_give_exact_equalities(self):
        spec = GridSpec(1, 64)
        corpus = [single_mode(spec, 4), single_mode(spec, 0)]
        rep = embedding_report(corpus, s=0.5, p=2.0, q=1.0, p_target=4.0)
        assert abs(rep.sandwich_inner - 1.0) <= 1e-14
        assert abs(rep.sandwich_outer - 1.0) <= 1e-14

    def test_sobolev_line_needs_larger_target_exponent(self):
        corpus = [rand_u(GridSpec(1, 32), 8.0, 0)]
        with pytest.raises(ValueError, match="p_target"):
            embedding_report(corpus, s=0.5, p=2.0, q=1.0, p_target=2.0)

    def test_holder_band_only_inside_unit_interval(self):
        corpus = [rand_u(GridSpec(1, 32), 8.0, s) for s in range(3)]
        rep = embedding_report(corpus, s=1.5, p=2.0, q=1.0, p_target=4.0)
        assert rep.holder_band is None
        assert rep.holds

    @pytest.mark.parametrize("n, N", [(1, 64), (1, 4096), (2, 32)])
    def test_holder_norm_equals_the_full_scan(self, monkeypatch, n, N):
        spec = GridSpec(n, N)
        rng = np.random.default_rng(7)
        noise = GridFunction(spec, rng.standard_normal(spec.shape) + 0j)
        axis = (((np.arange(N) + N // 2) % N) - N // 2) * spec.spacing
        rad = np.abs(axis) if n == 1 else np.hypot(axis[:, None], axis[None, :])
        real_roll, rolls = np.roll, []
        monkeypatch.setattr(np, "roll", lambda *a, **k: rolls.append(1) or real_roll(*a, **k))
        for u in (rand_u(spec, 0.25 * (N // 2), 7), noise):
            for s in (0.3, 0.9):
                full = max(float(np.max(np.abs(real_roll(u.values, idx, axis=tuple(range(n)))
                                               - u.values))) / rad[idx] ** s
                           for idx in np.ndindex(spec.shape) if rad[idx] > 0.0)
                rolls.clear()
                assert holder_norm(u, s) == float(np.max(np.abs(u.values))) + full
                assert len(rolls) < spec.npoints // 2  # the scan stopped early

    def test_holder_norm_validates_smoothness(self):
        u = rand_u(GridSpec(1, 32), 8.0, 0)
        with pytest.raises(ValueError, match="0 < s < 1"):
            holder_norm(u, 1.2)


class TestSummationLemma:
    def test_delta_sequence_ratio_is_two(self):
        delta = np.zeros(64)
        delta[0] = 1.0
        c = summation_lemma_check(-1.0, 1.0, b=[delta])
        assert c == pytest.approx(2.0, abs=1e-12)

    def test_zero_corpus_gives_zero(self):
        assert summation_lemma_check(-1.0, 1.0, b=[np.zeros(64)]) == 0.0

    def test_s_must_be_negative(self):
        with pytest.raises(ValueError, match="s < 0"):
            summation_lemma_check(0.0, 1.0)
        with pytest.raises(ValueError, match="s < 0"):
            summation_lemma_check(0.3, 2.0)

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError, match="q"):
            summation_lemma_check(-1.0, 0.0)

    def test_q1_constant_is_the_geometric_sum(self):
        # at q = 1 the two sides relate by an exact resummation, so the
        # fitted constant is (1 - 2^s)^{-1} up to the length-64 tail
        c = summation_lemma_check(-0.5, 1.0)
        assert c == pytest.approx(1.0 / (1.0 - 2.0**-0.5), abs=1e-6)

    def test_q2_geometric_member_approaches_sharp_constant(self):
        rng = np.random.default_rng(0)
        geometric = 2.0 ** (0.5 * np.arange(64))
        corpus = [rng.random(64) for _ in range(1000)] + [geometric]
        c = summation_lemma_check(-0.5, 2.0, b=corpus)
        sharp = (1.0 - 2.0**-0.5) ** -2
        assert 0.85 * sharp <= c <= sharp * (1.0 + 1e-12)

    def test_q_inf_geometric_member_pins_the_constant(self):
        rng = np.random.default_rng(0)
        geometric = 2.0 ** (1.0 * np.arange(64))
        corpus = [rng.random(64) for _ in range(200)] + [geometric]
        c = summation_lemma_check(-1.0, math.inf, b=corpus)
        assert c == pytest.approx(2.0, abs=1e-12)
        c_random = summation_lemma_check(-1.0, math.inf, b=corpus[:-1])
        assert c_random <= 2.0 + 1e-12

    def test_signs_are_ignored(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(64)
        assert summation_lemma_check(-0.7, 1.5, b=[b]) == summation_lemma_check(
            -0.7, 1.5, b=[np.abs(b)]
        )
