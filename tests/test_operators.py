"""Application paths, modulation limits, the three-series splitting,
corona geometry, kernels, and both support rules."""
import gc
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdlab.grid
import pdlab.operators as ops
import pdlab.symbols
from pdlab.frame import DEFAULT_FRAME, LPFrame, ModulationFunction
from pdlab.grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    as_values,
    fft_forward,
    fft_inverse,
    from_coeffs,
    lp_norm,
    random_band_limited,
    single_mode,
)
from pdlab.operators import (
    DEFAULT_PSI_FAMILY,
    CoronaReport,
    apply,
    apply_auto,
    corona_ball_report,
    kernel,
    modulation_saturation,
    paradiff_split,
    plan,
    spectral_support_rule_check,
    support_rule_check,
    vfm_apply,
    vfm_limit,
    vfm_refinement,
)
from pdlab.experiments import ching_for_grid
from pdlab.symbols import (
    ChingSymbol,
    ConstantSymbol,
    ElementarySymbol,
    RadialBump,
    SeparableSymbol,
    ShiftSymbol,
    ShiftTerm,
    Symbol,
    TabulatedSymbol,
    ching_symbol,
    filter_symbol,
    localize_symbol,
    mask_twisted_diagonal,
    modulate_symbol,
    nyquist_mask,
    partial_ift,
    random_elementary,
    symbol_partial_ft,
)


def kernel_sum(K, u):
    """(2pi/N)^n sum_y K[x,y] u(y): the operator read off its kernel."""
    spec = u.spec
    flat = K.reshape(spec.npoints, spec.npoints) @ u.values.reshape(-1)
    return GridFunction(spec, (spec.spacing**spec.n) * flat.reshape(spec.shape))


def kernel_form(K, v, u):
    """<K, v (x) conj(u)> with the product measure: equals <a(x,D)u, v>."""
    spec = u.spec
    w = spec.spacing ** (2 * spec.n)
    outer = np.multiply.outer(np.conj(v.values).reshape(-1), u.values.reshape(-1))
    return complex(w * np.sum(K.reshape(spec.npoints, spec.npoints) * outer))


def random_table_symbol(spec, seed=0, d=0.0):
    rng = np.random.default_rng(seed)
    shape = spec.shape + spec.shape
    tab = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TabulatedSymbol(spec, tab, d=d)


def x_independent_symbol(spec, weights):
    """Multiplier symbol with an exact delta x-spectrum at xi = 0."""
    ahat = np.zeros(spec.shape + spec.shape, dtype=complex)
    zero = (spec.N // 2,) * spec.n
    ahat[zero] = weights
    table = partial_ift(ahat, spec)
    return TabulatedSymbol(spec, table, ahat=ahat)


class EvalOnly(Symbol):
    """A symbol known only through another symbol's continuum evaluator."""

    def __init__(self, inner):
        self.inner = inner

    def eval(self, x, eta):
        return self.inner.eval(x, eta)


def rel_sup(y, ref):
    return float(np.max(np.abs(y.values - ref.values)) / np.max(np.abs(ref.values)))


class TestApply:
    def test_identity_symbol(self):
        spec = GridSpec(1, 64)
        u = random_band_limited(spec, 20, np.random.default_rng(0))
        y = apply(ConstantSymbol(1.0), u)
        assert rel_sup(y, u) < 1e-12

    def test_multiplication_operator(self):
        spec = GridSpec(1, 64)
        m = np.exp(np.sin(spec.axis_coords())).astype(complex)
        a = SeparableSymbol(spec, [(m, np.ones(spec.shape))])
        u = random_band_limited(spec, 16, np.random.default_rng(1))
        y = apply(a, u)
        assert np.allclose(y.values, m * u.values, rtol=0, atol=1e-12 * np.abs(m * u.values).max())

    def test_derivative_multiplier(self):
        # a(x,eta) = i*eta sends e^{i3x} to 3i e^{i3x}
        spec = GridSpec(1, 32)
        eta = spec.axis_freqs().astype(float)
        tab = np.multiply.outer(np.ones(spec.N), 1j * eta)
        a = TabulatedSymbol(spec, tab, d=1.0)
        u = single_mode(spec, 3)
        y = apply(a, u)
        assert np.allclose(y.values, 3j * u.values, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_linearity(self, seed):
        spec = GridSpec(1, 32)
        rng = np.random.default_rng(seed)
        a = random_table_symbol(spec, seed)
        u = random_band_limited(spec, 12, rng)
        v = random_band_limited(spec, 12, rng)
        lhs = apply(a, u + 2.0 * v)
        rhs = apply(a, u) + 2.0 * apply(a, v)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * max(
            1.0, np.max(np.abs(rhs.values))
        )

    def test_direct_guard(self):
        spec = GridSpec(1, 32768)
        u = GridFunction(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="direct apply"):
            apply(ConstantSymbol(1.0), u)

    def test_eval_branch_matches_table_branch(self):
        spec = GridSpec(1, 64)
        a = ching_symbol(0.5, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 24, np.random.default_rng(2))
        via_table = apply(a, u)
        evaluated = EvalOnly(a)  # its rows come from eval on the lattice
        assert np.max(np.abs(evaluated.table(spec) - a.table(spec))) < 1e-12
        via_eval = apply(evaluated, u)
        assert np.max(np.abs(via_eval.values - via_table.values)) < 1e-10 * lp_norm(u, np.inf)

    @pytest.mark.parametrize("n,N,J", [(1, 64, 5), (2, 16, 3)])
    def test_elementary_eval_cuts_the_nyquist_rows(self, n, N, J):
        spec = GridSpec(n, N)
        a = random_elementary(spec, DEFAULT_FRAME, J=J, seed=1)
        assert np.all(EvalOnly(a).table(spec) == a.table(spec))

    def test_two_dimensional(self):
        spec = GridSpec(2, 16)
        a = ching_symbol(0.0, (1, 0), j_max=2, spec=spec)
        u = random_band_limited(spec, 6, np.random.default_rng(3))
        direct = apply(a, u)
        fast = apply_auto(a, u)
        assert np.max(np.abs(direct.values - fast.values)) < 1e-10 * lp_norm(u, np.inf)


class TestFastPath:
    def test_matches_direct(self):
        spec = GridSpec(1, 128)
        a = random_elementary(spec, DEFAULT_FRAME, J=6, seed=7)
        u = random_band_limited(spec, 50, np.random.default_rng(4))
        direct = apply(a, u)
        fast = apply_auto(a, u)
        assert np.max(np.abs(direct.values - fast.values)) < 1e-10 * lp_norm(u, np.inf)

    def test_single_block_is_frame_projection(self):
        spec = GridSpec(1, 64)
        ones = GridFunction(spec, np.ones(spec.shape))
        from pdlab.symbols import ElementarySymbol

        a = ElementarySymbol([ones], DEFAULT_FRAME)
        u = random_band_limited(spec, 30, np.random.default_rng(5))
        y = apply_auto(a, u)
        block0 = DEFAULT_FRAME.lattice_blocks(spec)[0]
        proj = fft_inverse(SpectralFunction(spec, fft_forward(u).coeffs * block0))
        assert np.max(np.abs(y.values - proj.values)) < 1e-12

    def test_speedup_over_direct(self):
        spec = GridSpec(1, 512)
        a = random_elementary(spec, DEFAULT_FRAME, J=8, seed=11)
        u = random_band_limited(spec, 200, np.random.default_rng(6))

        def best_of(fn, reps=3):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        apply_auto(a, u)  # warm caches before timing
        t_direct = best_of(lambda: apply(a, u))
        t_fast = best_of(lambda: apply_auto(a, u))
        assert t_direct / t_fast >= 10.0


class TestVfm:
    def test_saturation_is_bitwise_exact(self):
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 24, np.random.default_rng(8))
        psi = ModulationFunction(r=1.0, R=2.0)
        m_sat = modulation_saturation(psi, spec)
        y_mod = vfm_apply(a, u, psi, m_sat)
        y = apply_auto(a, u)
        assert np.array_equal(y_mod.values, y.values)

    def test_low_m_removes_high_modes(self):
        # the eta-side cutoff is exactly zero at |eta| = 5, so all that can
        # survive is the fft roundoff of the input realization
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=3, spec=spec)
        u = single_mode(spec, 5)
        y = vfm_apply(a, u, ModulationFunction(1.0, 2.0), 0)
        assert np.max(np.abs(y.values)) < 1e-14

    def test_band_limited_input_reaches_limit_early(self):
        spec = GridSpec(1, 64)
        w = np.exp(-((spec.axis_freqs() / 6.0) ** 2))
        a = x_independent_symbol(spec, w.astype(complex))
        u = random_band_limited(spec, 8, np.random.default_rng(9))
        y3 = vfm_apply(a, u, ModulationFunction(1.0, 2.0), 3)
        y = apply(a, u)
        assert np.max(np.abs(y3.values - y.values)) < 1e-12 * lp_norm(y, np.inf)

    def test_limit_trace(self):
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 24, np.random.default_rng(10))
        trace = vfm_limit(a, u)
        assert trace.cross_dev <= 1e-10
        assert trace.cross_dev == 0.0  # saturated outputs agree bitwise
        for tag in trace.tags:
            sat = trace.m_sat[tag]
            tail = trace.l2_norms[tag][sat:]
            assert all(v == tail[0] for v in tail)

    def test_limit_needs_two_profiles(self):
        spec = GridSpec(1, 32)
        u = random_band_limited(spec, 8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            vfm_limit(ConstantSymbol(1.0), u, psis=(ModulationFunction(1.0, 2.0),))

    def test_dyadic_sum_gives_constant(self):
        # sum_j w_j e^{i 2^j x} is an eigenvector-like input: each series
        # term hits exactly one mode, so the output is the constant sum w_j
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        weights = {2**j: 1.0 / (j * np.log(2.0)) for j in (2, 3, 4)}
        u = from_coeffs(spec, weights)
        trace = vfm_limit(a, u)
        expected = sum(weights.values())
        y = trace.saturated[trace.tags[0]]
        assert np.allclose(y.values, expected, rtol=1e-12)

    def test_refinement_flags(self):
        specs = [GridSpec(1, 16), GridSpec(1, 32), GridSpec(1, 64)]

        def sample(spec):
            coeffs = {}
            for eta in range(1, spec.N // 4 + 1):
                coeffs[eta] = (1.0 + eta) ** -0.5
            return from_coeffs(spec, coeffs)

        def smooth_symbol(spec):
            m = (2.0 + np.sin(spec.axis_coords())).astype(complex)
            g = np.exp(-((spec.freq_radius() / 8.0) ** 2)) * nyquist_mask(spec)
            return SeparableSymbol(spec, [(m, g)])

        def growing_symbol(spec):
            eta = spec.freq_radius()
            tab = np.multiply.outer(np.ones(spec.shape), (eta**2).astype(complex))
            return TabulatedSymbol(spec, tab, d=2.0)

        good = vfm_refinement(smooth_symbol, sample, specs)
        assert good.cauchy and not good.diverging
        bad = vfm_refinement(growing_symbol, sample, specs)
        assert bad.diverging
        assert all(g > 2.0 for g in bad.growth_factors)

    def test_refinement_needs_two_grids(self):
        with pytest.raises(ValueError):
            vfm_refinement(lambda s: ConstantSymbol(1.0), lambda s: single_mode(s, 1), [GridSpec(1, 16)])


class TestParadiff:
    def test_identity_random_elementary(self):
        spec = GridSpec(1, 256)
        for seed in (0, 1):
            a = random_elementary(spec, DEFAULT_FRAME, J=6, seed=seed)
            u = random_band_limited(spec, 100, np.random.default_rng(seed + 20))
            terms = paradiff_split(a, u)
            ref = apply(a, u)
            err = np.max(np.abs(terms.total().values - ref.values))
            assert err < 1e-10 * np.max(np.abs(ref.values))

    def test_identity_random_table(self):
        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=3)
        u = random_band_limited(spec, 24, np.random.default_rng(30))
        terms = paradiff_split(a, u)
        ref = apply(a, u)
        assert np.max(np.abs(terms.total().values - ref.values)) < 1e-10 * np.max(
            np.abs(ref.values)
        )

    def test_identity_ching(self):
        spec = GridSpec(1, 128)
        a = ching_symbol(0.5, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 48, np.random.default_rng(31))
        terms = paradiff_split(a, u)
        ref = apply(a, u)
        assert np.max(np.abs(terms.total().values - ref.values)) < 1e-10 * np.max(
            np.abs(ref.values)
        )

    def test_summand_index_ranges(self):
        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=5)
        u = random_band_limited(spec, 24, np.random.default_rng(32))
        terms = paradiff_split(a, u)
        K, h = terms.K, terms.frame.h
        assert K == DEFAULT_FRAME.j_saturation(spec)
        assert sorted(terms.t1_summands) == list(range(h, K + 1))
        assert sorted(terms.t2_summands) == list(range(0, K + 1))
        assert sorted(terms.t3_summands) == list(range(h, K + 1))

    def test_x_independent_symbol_has_no_t3(self):
        # multiplier symbols put all x-mass at xi = 0, so every high block
        # of the symbol vanishes identically and t3 collapses to zero
        spec = GridSpec(1, 64)
        w = ((1.0 + spec.freq_radius()) ** -0.5).astype(complex)
        a = x_independent_symbol(spec, w)
        u = random_band_limited(spec, 24, np.random.default_rng(33))
        terms = paradiff_split(a, u)
        assert np.max(np.abs(terms.t3.values)) == 0.0
        ref = apply(a, u)
        assert np.max(np.abs(terms.total().values - ref.values)) < 1e-10 * np.max(
            np.abs(ref.values)
        )

    def test_ching_on_dyadic_modes_is_pure_t2(self):
        # every series term pairs block j of the symbol with block j of the
        # input; the h-separated series t1 and t3 are filtered to hard zeros
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = from_coeffs(spec, {2**j: 1.0 / j for j in (2, 3, 4)})
        terms = paradiff_split(a, u)
        assert np.max(np.abs(terms.t1.values)) == 0.0
        assert np.max(np.abs(terms.t3.values)) == 0.0
        ref = apply(a, u)
        assert np.max(np.abs(terms.t2.values - ref.values)) < 1e-12 * np.max(
            np.abs(ref.values)
        )


class TestCorona:
    def test_containment_elementary(self):
        spec = GridSpec(1, 128)
        a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=2)
        u = random_band_limited(spec, 50, np.random.default_rng(40))
        report = corona_ball_report(paradiff_split(a, u))
        assert report.max_outside <= 1e-10
        assert report.tdc_B is None and report.eventual_tdc_ok is None

    def test_containment_ching(self):
        spec = GridSpec(1, 128)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 48, np.random.default_rng(41))
        report = corona_ball_report(paradiff_split(a, u))
        assert report.max_outside <= 1e-10

    def test_containment_dense_table(self):
        # a dense random table has x-mass in every block, so all three
        # series carry active summands, folds at the top block included
        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=4)
        u = random_band_limited(spec, 24, np.random.default_rng(46))
        report = corona_ball_report(paradiff_split(a, u))
        assert report.max_outside <= 1e-10
        active = {r.series for r in report.active_rows()}
        assert active == {"t1", "t2", "t3"}

    def test_default_frame_bounds(self):
        spec = GridSpec(1, 128)
        a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=3)
        u = random_band_limited(spec, 50, np.random.default_rng(42))
        report = corona_ball_report(paradiff_split(a, u))
        rows = {(r.series, r.k): r for r in report.rows}
        # (r, R, h) = (1, 2, 3): corona [2^{k-2}, 5 2^{k-1}], ball 2^{k+2}
        assert rows[("t1", 4)].lo == pytest.approx(4.0)
        assert rows[("t1", 4)].hi == pytest.approx(40.0)
        assert rows[("t3", 4)].lo == pytest.approx(4.0)
        assert rows[("t2", 4)].hi == pytest.approx(64.0)

    def test_x_independent_t2_stays_in_block_corona(self):
        # for a multiplier the k-th t2 summand is w(D) applied to u_k, so
        # its spectrum sits inside the block corona, not just the ball
        spec = GridSpec(1, 64)
        w = np.exp(-((spec.freq_radius() / 10.0) ** 2)).astype(complex)
        a = x_independent_symbol(spec, w)
        u = random_band_limited(spec, 24, np.random.default_rng(43))
        terms = paradiff_split(a, u)
        rad = spec.freq_radius()
        frame = terms.frame
        for k, y in terms.t2_summands.items():
            if k == 0:
                continue
            power = np.abs(fft_forward(y).coeffs) ** 2
            total = power.sum()
            if total == 0.0:
                continue
            inside = (rad >= frame.r * 2.0 ** (k - 1)) & (rad <= frame.R * 2.0**k)
            assert power[~inside].sum() / total < 1e-20

    def test_tdc_eventual_lower_bound(self):
        # the condition constrains the true output frequency xi + eta, so the
        # witness symbol is windowed to |xi + eta| <= N/2: otherwise mass
        # allowed at large sums folds back under the bound at the top block
        spec = GridSpec(1, 128)
        masked = mask_twisted_diagonal(random_table_symbol(spec, seed=6), B=1.0)
        f = spec.axis_freqs().astype(float)
        window = np.abs(f[:, None] + f[None, :]) <= spec.N // 2
        ahat = masked.ahat * window
        a = TabulatedSymbol(spec, partial_ift(ahat, spec), tdc_B=1.0, ahat=ahat)
        u = random_band_limited(spec, 63, np.random.default_rng(44))
        report = corona_ball_report(paradiff_split(a, u), B=1.0)
        assert report.eventual_tdc_ok is True
        rows = [r for r in report.rows if r.series == "t2" and r.active]
        for row in rows:
            assert row.tdc_lo == pytest.approx(2.0**row.k / 16.0)
        assert all(r.below_tdc_mass <= 1e-10 for r in rows if r.k >= 4)

    def test_frequency_annihilation_defeats_lower_bound(self):
        # theta inside the bump support: output mass lands near frequency
        # zero in every active block, so no suffix of blocks clears the
        # bound; band 16 ends the input on a solid block edge
        spec = GridSpec(1, 128)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = random_band_limited(spec, 16, np.random.default_rng(45))
        report = corona_ball_report(paradiff_split(a, u), B=1.0)
        assert report.eventual_tdc_ok is False
        top = max(r.k for r in report.rows if r.series == "t2" and r.active)
        row = next(r for r in report.rows if r.series == "t2" and r.k == top)
        assert row.below_tdc_mass > 1e-3


def all_at_once_rows(terms, B=None, floor=ops.MASS_FLOOR):
    """corona_ball_report's rows from every summand's spectrum held at once:
    the reference the one-summand-at-a-time report must reproduce."""
    r, R, h = terms.frame.r, terms.frame.R, terms.frame.h
    R_h = r / 2.0 - R * 2.0**-h
    rad = terms.spec.freq_radius()
    entries = [("t1", k, R_h * 2.0**k, 1.25 * R * 2.0**k, y)
               for k, y in sorted(terms.t1_summands.items())]
    entries += [("t3", k, R_h * 2.0**k, 1.25 * R * 2.0**k, y)
                for k, y in sorted(terms.t3_summands.items())]
    entries += [("t2", k, 0.0, 2.0 * R * 2.0**k, y) for k, y in sorted(terms.t2_summands.items())]
    powers = [np.abs(fft_forward(y).coeffs) ** 2 for *_, y in entries]
    totals = [float(p.sum()) for p in powers]
    mass_floor = floor * max(totals, default=0.0)
    rows = []
    for (series, k, lo, hi, _), power, total in zip(entries, powers, totals):
        active = total > mass_floor
        inside = (rad >= lo) & (rad <= hi)
        out = 0.0 if total == 0.0 else float(power[~inside].sum()) / total
        tdc_lo = below = None
        if B is not None and series == "t2":
            tdc_lo = r * 2.0**k / (2.0 ** (h + 1) * B)
            if active:
                below = float(power[rad < tdc_lo].sum()) / total
        rows.append(ops.CoronaRow(series, k, lo, hi, total, out, active, tdc_lo, below))
    return rows, mass_floor


class TestCoronaOneSummandAtATime:
    @pytest.mark.parametrize("B", [None, 1.0])
    @pytest.mark.parametrize("which", ["elementary-1024", "ching-2048"])
    def test_rows_equal_the_all_at_once_reference(self, which, B):
        if which == "elementary-1024":
            spec = GridSpec(1, 1024)
            a = random_elementary(spec, DEFAULT_FRAME, J=6, seed=8)
        else:
            spec = GridSpec(1, 2048)
            a = ching_for_grid(spec)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(48))
        terms = paradiff_split(a, u)
        report = corona_ball_report(terms, B=B)
        rows, mass_floor = all_at_once_rows(terms, B=B)
        assert report.rows == rows and report.mass_floor == mass_floor
        assert any(not r.active for r in rows) and any(r.active for r in rows)
        if B is not None:
            assert any(r.below_tdc_mass is not None for r in rows)

    def test_peak_memory_above_the_split_stays_grid_sized(self):
        spec = GridSpec(1, 2**14)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(49))
        terms = paradiff_split(ching_for_grid(spec), u)
        tracemalloc.start()
        try:
            report = corona_ball_report(terms, B=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) > 30
        # all at once this held every summand's spectrum and power (55 arrays)
        assert peak <= 3 * 16 * spec.npoints


class TestSpectralParadiff:
    """The split on 2-d grids and its reruns; the row route's guard and the
    memory it takes."""

    def test_identity_and_corona_2d(self):
        spec = GridSpec(2, 32)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=11)
        u = random_band_limited(spec, 12, np.random.default_rng(90))
        terms = paradiff_split(a, u)
        assert rel_sup(terms.total(), apply(a, u)) <= 1e-10
        assert corona_ball_report(terms).max_outside <= 1e-10

    def test_threaded_reruns_are_bit_identical_2d(self, monkeypatch, pooled):
        monkeypatch.setenv("PDLAB_THREADS", "2")
        spec = GridSpec(2, 32)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=12)
        u = random_band_limited(spec, 12, np.random.default_rng(91))
        first, second = paradiff_split(a, u), paradiff_split(a, u)
        for name in ("t1_summands", "t2_summands", "t3_summands"):
            one, two = getattr(first, name), getattr(second, name)
            assert sorted(one) == sorted(two)
            assert all(np.array_equal(one[k].values, two[k].values) for k in one)
        assert pooled

    def test_guard_raises_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a_hat built before the guard")

        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=7)  # no structure: the row route
        monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", 1000)
        monkeypatch.setattr(pdlab.symbols, "symbol_partial_ft", no_table)
        u = random_band_limited(spec, 20, np.random.default_rng(92))
        for run in (lambda: paradiff_split(a, u), lambda: plan(a, spec)):
            with pytest.raises(ValueError, match="spectral rows would hold 4096 table entries"):
                run()

    def test_structured_symbols_split_without_a_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built on a structured route")

        monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", 1000)
        monkeypatch.setattr(ops, "symbol_partial_ft", no_table)
        monkeypatch.setattr(Symbol, "table", no_table)
        spec = GridSpec(1, 64)
        u = random_band_limited(spec, 20, np.random.default_rng(92))
        for a in (ConstantSymbol(1.0), random_elementary(spec, DEFAULT_FRAME, J=4, seed=7),
                  ching_for_grid(spec)):
            terms = paradiff_split(a, u)
            assert rel_sup(terms.total(), apply_auto(a, u)) <= 1e-12

    def test_peak_memory_under_eight_tables(self, monkeypatch, pooled):
        monkeypatch.setenv("PDLAB_THREADS", "2")
        spec = GridSpec(1, 1024)
        a = random_table_symbol(spec, seed=13)  # no structure: the row route
        u = random_band_limited(spec, 400, np.random.default_rng(93))
        tracemalloc.start()
        try:
            paradiff_split(a, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.npoints**2 * 16
        assert pooled

    def test_row_route_memory_is_flat_in_thread_count(self, monkeypatch):
        # the budget admits a table's rows only up to N^n = 2048 points,
        # below the pool gate, so a summand's temporaries over all the rows'
        # entries, up to N^n x N^n, are never held once per worker
        spec = GridSpec(1, 1024)
        a = random_table_symbol(spec, seed=13)
        u = random_band_limited(spec, 400, np.random.default_rng(93))
        paradiff_split(a, u)  # the frame's block tables are cached from here on
        peaks = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("PDLAB_THREADS", threads)
            # a full collection empties CPython's free lists, whose objects
            # tracemalloc counts only when they are first allocated: each
            # call starts from them empty, and no collection runs inside it
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                paradiff_split(a, u)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()
        # equal but for a few interpreter objects; a second worker's
        # temporary would add one N^n x N^n table, 16 MiB
        assert abs(peaks["4"] - peaks["1"]) < 1024


def sheared_route(a, spec):
    """The split's summand route through the sheared table, the oracle for
    every route of the split: sheared[xi, zeta] = a_hat(xi, zeta - xi), with
    zeta - xi folded mod N, so on the lattice e^{ix.(xi+eta)} = e^{ix.zeta}
    and a summand is a w-weighted sum of the table's rows and one inverse
    FFT."""
    idx = np.unravel_index(np.arange(spec.npoints), spec.shape)
    shear = np.ravel_multi_index(
        tuple(i[None, :] - i[:, None] + spec.N // 2 for i in idx), spec.shape, mode="wrap")
    sheared = np.take_along_axis(
        symbol_partial_ft(a, spec).reshape(spec.npoints, spec.npoints), shear, axis=1)
    return lambda w, v: fft_inverse(SpectralFunction(
        spec, np.einsum("k,kz", w, v[shear] * sheared).reshape(spec.shape)))


def split_by(route, a, u):
    """paradiff_split's summands with each one run by route(a, spec): its
    run(w, v) stands in for the plan's cut call."""
    def route_plan(a, spec):
        run = route(a, spec)
        return lambda u, w: run(w, u.coeffs.reshape(-1))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "plan", route_plan)
        return summands(paradiff_split(a, u))


def summands(terms):
    return [y.values for part in (terms.t1_summands, terms.t2_summands, terms.t3_summands)
            for _, y in sorted(part.items())]


def split_gap(a, u):
    """max |structured - sheared| over all summands, relative to the largest
    summand sup."""
    ours = summands(paradiff_split(a, u))
    ref = split_by(sheared_route, a, u)
    assert len(ours) == len(ref)
    scale = max(np.max(np.abs(y)) for y in ref)
    return max(np.max(np.abs(x - y)) for x, y in zip(ours, ref)) / scale


class TestStructuredParadiff:
    """The split routed by symbol structure: shift and separable summands
    with no N^n x N^n table, checked against the sheared table built in the
    test."""

    @pytest.mark.parametrize(
        "n, N, kind",
        [(1, 1024, "elementary"), (2, 32, "elementary"), (1, 2048, "ching"),
         (1, 512, "modulated-shift"), (1, 256, "constant"), (1, 1024, "table"),
         (2, 32, "table")],
    )
    def test_matches_the_sheared_table(self, monkeypatch, n, N, kind):
        monkeypatch.setenv("PDLAB_THREADS", "1")  # one sheared temporary at a time
        spec = GridSpec(n, N)
        a = {
            "elementary": lambda: random_elementary(spec, DEFAULT_FRAME, J=5, seed=15),
            "ching": lambda: ching_for_grid(spec, d=0.5),
            # |xi_j| = 3 2^j sits inside the transition band of a ball cut
            "modulated-shift": lambda: modulate_symbol(
                ching_for_grid(spec, d=0.5, theta=-3), 6, DEFAULT_PSI_FAMILY[0], spec),
            "constant": lambda: ConstantSymbol(2.0 - 0.5j),
            "table": lambda: random_table_symbol(spec, seed=15),  # the rows of its a_hat
        }[kind]()
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(94))
        assert split_gap(a, u) <= 1e-13

    def test_complex_g_agrees_on_every_route(self):
        spec = GridSpec(1, 256)
        terms = [t._replace(g=t.g * np.exp(1j * (0.3 * t.idx + t.j)))
                 for t in ching_for_grid(spec, d=0.5).shift_terms(spec)]
        a = ShiftSymbol(spec, terms, d=0.5)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(95))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = apply(a, u)
            separable = SeparableSymbol(spec, a.separable_terms(spec))
            for y in (as_values(plan(a, spec)(u)), apply_auto(separable, u),
                      paradiff_split(a, u).total()):
                assert rel_sup(y, ref) <= 1e-13
            assert split_gap(a, u) <= 1e-13

    def test_elementary_2d_256(self):
        spec = GridSpec(2, 256)
        a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=16)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(96))
        terms = paradiff_split(a, u)
        assert rel_sup(terms.total(), apply_auto(a, u)) <= 1e-10
        assert corona_ball_report(terms).max_outside <= 1e-10

    def test_threaded_reruns_are_bit_identical(self, monkeypatch, pooled):
        monkeypatch.setenv("PDLAB_THREADS", "2")
        spec = GridSpec(1, 1024)
        u = random_band_limited(spec, 400, np.random.default_rng(97))
        for a in (random_elementary(spec, DEFAULT_FRAME, J=5, seed=17), ching_for_grid(spec)):
            first, second = summands(paradiff_split(a, u)), summands(paradiff_split(a, u))
            assert all(np.array_equal(x, y) for x, y in zip(first, second))
        assert pooled

    @pytest.mark.parametrize("n, N, inverse", [(1, 1024, 176), (2, 32, 100)])
    def test_the_split_runs_a_fixed_count_of_ffts(self, fft_calls, n, N, inverse):
        # one forward FFT of u; per kept term of a summand, one inverse FFT for
        # its cut F^{-1}[w mhat_j] and one for F^{-1}[g_j v]; the terms v misses
        # and the exactly zero cuts run none
        from pdlab.cli import make_input, symbol_factory

        spec = GridSpec(n, N)
        a = symbol_factory("elementary:seed=1", DEFAULT_FRAME)(spec)
        u = as_values(make_input("random:band=0.4,seed=1", spec, 1))
        fft_calls.clear()
        paradiff_split(a, u)
        assert [c for c, _ in fft_calls].count("fft_forward") == 1
        assert [c for c, _ in fft_calls].count("fft_inverse") == inverse

    def test_a_ching_split_realizes_its_shift_terms_once(self, monkeypatch):
        spec = GridSpec(1, 2**14)
        a = ching_for_grid(spec)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(99))
        calls = []
        real = ChingSymbol.shift_terms

        def spy(self, spec):
            calls.append(spec)
            return real(self, spec)

        monkeypatch.setattr(ChingSymbol, "shift_terms", spy)
        terms = paradiff_split(a, u)
        assert calls == [spec]
        assert rel_sup(terms.total(), apply_auto(a, u)) <= 1e-10

    def test_peak_memory_flat_in_thread_count(self, monkeypatch, pooled):
        spec = GridSpec(1, 1024)
        a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=18)
        u = random_band_limited(spec, 400, np.random.default_rng(98))
        paradiff_split(a, u)  # the frame's block tables are cached from here on
        peaks = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("PDLAB_THREADS", threads)
            tracemalloc.start()
            try:
                paradiff_split(a, u)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["1"] < spec.npoints**2 * 16  # below one N^n x N^n table
        assert peaks["4"] <= 1.1 * peaks["1"]
        assert pooled


class TestKernel:
    def test_identity_kernel(self):
        spec = GridSpec(1, 32)
        K = kernel(ConstantSymbol(1.0), spec)
        u = random_band_limited(spec, 12, np.random.default_rng(50))
        y = kernel_sum(K, u)
        assert np.max(np.abs(y.values - u.values)) < 1e-10 * lp_norm(u, np.inf)

    def test_multiplication_kernel(self):
        spec = GridSpec(1, 32)
        m = np.exp(1j * spec.axis_coords())
        a = SeparableSymbol(spec, [(m, np.ones(spec.shape))])
        K = kernel(a, spec)
        u = random_band_limited(spec, 12, np.random.default_rng(51))
        y = kernel_sum(K, u)
        assert np.max(np.abs(y.values - m * u.values)) < 1e-10 * lp_norm(u, np.inf)

    def test_matches_apply(self):
        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=9)
        u = random_band_limited(spec, 24, np.random.default_rng(52))
        y_kernel = kernel_sum(kernel(a, spec), u)
        y_direct = apply(a, u)
        assert np.max(np.abs(y_kernel.values - y_direct.values)) < 1e-10 * np.max(
            np.abs(y_direct.values)
        )

    def test_bilinear_form(self):
        spec = GridSpec(1, 32)
        a = random_table_symbol(spec, seed=10)
        rng = np.random.default_rng(53)
        u = random_band_limited(spec, 12, rng)
        v = random_band_limited(spec, 12, rng)
        lhs = kernel_form(kernel(a, spec), v, u)
        y = apply(a, u)
        rhs = spec.spacing**spec.n * np.sum(y.values * np.conj(v.values))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_size_guard(self):
        spec = GridSpec(1, 8192)
        with pytest.raises(ValueError):
            kernel(ConstantSymbol(1.0), spec)


def banded_kernel_symbol(spec: GridSpec, uniform: float = 0.0) -> SeparableSymbol:
    """The x-independent symbol of the kernel K(x_i, x_k) = prod over the axes
    of [|i_a - k_a| <= 2], + uniform (indices mod N): the product of sum_{|k|<=2}
    e^{ik h eta_a} with h the grid spacing, plus N^n uniform at eta = 0."""
    h = spec.spacing
    g = np.ones(spec.shape)
    for eta in spec.freq_mesh():
        g = g * (1.0 + 2.0 * np.cos(h * eta) + 2.0 * np.cos(2.0 * h * eta))
    g = g + spec.npoints * uniform * np.all([eta == 0 for eta in spec.freq_mesh()], axis=0)
    return SeparableSymbol(spec, [(np.ones(spec.shape), g.astype(complex))])


class TestSupportRule:
    def test_identity_preserves_support(self):
        spec = GridSpec(1, 64)
        x = spec.axis_coords()
        u = GridFunction(spec, np.exp(-10.0 * (1.0 - np.cos(x - np.pi))))
        report = support_rule_check(ConstantSymbol(1.0), u)
        assert report.holds
        assert report.violation_mass <= 1e-8

    def test_banded_kernel_dilates_support(self):
        spec = GridSpec(1, 64)
        a = banded_kernel_symbol(spec)
        vals = np.zeros(spec.N, dtype=complex)
        vals[10:21] = 1.0 + 0.5j
        report = support_rule_check(a, GridFunction(spec, vals))
        assert report.holds
        assert report.violation_mass < 1e-20
        assert report.allowed_support == 15  # 11 points dilated by the band

    def test_global_leak_is_detected(self):
        # per-entry power of the uniform part falls below tau, but its
        # aggregate contribution to the output does not: rule must fail
        spec = GridSpec(1, 64)
        a = banded_kernel_symbol(spec, uniform=0.001)
        vals = np.zeros(spec.N, dtype=complex)
        vals[10:21] = 1.0
        report = support_rule_check(a, GridFunction(spec, vals))
        assert not report.holds
        assert report.violation_mass > 1e-8


    @pytest.mark.parametrize("n, N", [(1, 256), (2, 16)])
    @pytest.mark.parametrize("kind", ["elementary", "ching", "banded"])
    def test_the_streamed_reach_is_the_dense_kernels(self, monkeypatch, kind, n, N):
        # the rule reads the kernel rows in chunks of 7 rows; the oracle
        # thresholds the whole dense kernel().  A compactly supported u (and
        # tau = 1e-4 for the smooth symbols' tails) keeps the reach off the
        # whole grid
        spec = GridSpec(n, N)
        a, tau = {
            "elementary": (random_elementary(spec, DEFAULT_FRAME, J=3, seed=1), 1e-4),
            "ching": (ching_for_grid(spec, theta=(1,) * n), 1e-4),
            "banded": (banded_kernel_symbol(spec, uniform=0.001), 1e-8),
        }[kind]
        r2 = sum((x - np.pi) ** 2 for x in spec.coord_mesh())
        u = GridFunction(spec, (r2 < 0.25).astype(complex))
        power = np.abs(kernel(a, spec).reshape(spec.npoints, spec.npoints)) ** 2
        u_supp = np.abs(u.values.reshape(-1)) ** 2 > tau * np.sum(np.abs(u.values) ** 2)
        dense = ((power > tau * power.sum()) & u_supp).any(axis=1)
        assert 0 < dense.sum() < spec.npoints

        seen, report = [], ops._support_report
        monkeypatch.setattr(ops, "_support_report",
                            lambda y, allowed, t: seen.append(allowed) or report(y, allowed, t))
        monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", 7 * 48 * spec.npoints)
        support_rule_check(a, u, tau)
        assert np.array_equal(seen[0], dense)


class TestSpectralSupportRule:
    def test_identity(self):
        spec = GridSpec(1, 64)
        u = random_band_limited(spec, 10, np.random.default_rng(60))
        report = spectral_support_rule_check(ConstantSymbol(1.0), u)
        assert report.holds

    def test_one_forward_fft_at_most(self, fft_calls):
        # the input once, the output from the shift route's coefficients
        spec = GridSpec(1, 4096)
        a = ching_for_grid(spec)
        u = random_band_limited(spec, 0.4 * 2048, np.random.default_rng(1))
        fft_calls.clear()
        on_values = spectral_support_rule_check(a, u)
        assert [name for name, _ in fft_calls] == ["fft_forward"]
        fft_calls.clear()
        on_coeffs = spectral_support_rule_check(a, fft_forward(u))
        assert fft_calls == [] and on_coeffs == on_values and on_values.holds

    def test_modulation_shifts_sumset(self):
        spec = GridSpec(1, 64)
        m = np.exp(1j * 5.0 * spec.axis_coords())
        a = SeparableSymbol(spec, [(m, np.ones(spec.shape) * nyquist_mask(spec))])
        report = spectral_support_rule_check(a, single_mode(spec, 8))
        assert report.holds
        assert report.allowed_support == 1  # {5 + 8}

    def test_ching_annihilates_to_zero_frequency(self):
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = single_mode(spec, 8)
        report = spectral_support_rule_check(a, u)
        assert report.holds
        assert report.allowed_support == 1
        y = apply_auto(a, u)
        assert np.allclose(y.values, 1.0, atol=1e-12)  # A(1) e^{-i8x} e^{i8x}

    def test_folding_wraps_sumset(self):
        spec = GridSpec(1, 64)
        m = np.exp(1j * 20.0 * spec.axis_coords())
        a = SeparableSymbol(spec, [(m, np.ones(spec.shape) * nyquist_mask(spec))])
        report = spectral_support_rule_check(a, single_mode(spec, 20))
        # 20 + 20 = 40 folds to -24 on the N=64 lattice
        assert report.holds
        y = fft_forward(apply_auto(a, single_mode(spec, 20)))
        power = np.abs(y.coeffs) ** 2
        assert power[np.argmax(power)] / power.sum() > 1.0 - 1e-12
        assert spec.axis_freqs()[np.argmax(power)] == -24

    def test_ching_holds_from_its_shift_terms(self):
        # the bump's small nonzero values fall below tau in a thresholded
        # a_hat table (a false 1.5e-8 violation); the rule reads supp g_j
        spec = GridSpec(1, 2048)
        a = ching_for_grid(spec)
        u = random_band_limited(spec, 0.5 * spec.N / 2, np.random.default_rng(1))
        report = spectral_support_rule_check(a, u, tau=1e-8)
        assert report.holds
        assert report.violation_mass < 1e-20

    @pytest.mark.parametrize("n, N, seed", [(1, 256, 1), (1, 1024, 1), (2, 32, 4)])
    @pytest.mark.parametrize("tau", [1e-8, 1e-10])
    def test_term_sumset_contains_the_table_sumset(self, n, N, seed, tau):
        spec = GridSpec(n, N)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=seed)
        u = random_band_limited(spec, 0.2 * N / 2, np.random.default_rng(seed))
        u_supp = ops._tau_support(np.abs(fft_forward(u).coeffs) ** 2, tau)
        terms = ops._allowed_sumset(a, spec, u_supp, tau)
        as_table = TabulatedSymbol(spec, a.table(spec), ahat=symbol_partial_ft(a, spec))
        table = ops._allowed_sumset(as_table, spec, u_supp, tau)
        assert np.all(terms | ~table)
        report = spectral_support_rule_check(a, u, tau)
        assert report.holds and report.allowed_support == terms.sum()

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 32)])
    @pytest.mark.parametrize(
        "kind", ["ching", "modulated", "masked", "localized", "constant", "zero"])
    def test_a_shift_sumset_is_its_rolled_term_supports(self, n, N, kind):
        spec = GridSpec(n, N)
        ching = ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1))
        a = {
            "ching": lambda: ching,
            "modulated": lambda: modulate_symbol(ching, 3, DEFAULT_PSI_FAMILY[0], spec),
            "masked": lambda: mask_twisted_diagonal(ching, 2.0, spec),
            "localized": lambda: localize_symbol(ching, 0.5, spec),
            "constant": lambda: ConstantSymbol(2.0 - 0.5j),
            "zero": lambda: ConstantSymbol(0.0),
        }[kind]()
        c = fft_forward(random_band_limited(spec, 0.5 * N / 2, np.random.default_rng(25)))
        for tau in (1e-8, 1e-10):
            u_supp = ops._tau_support(np.abs(c.coeffs) ** 2, tau)
            allowed = ops._allowed_sumset(a, spec, u_supp, tau)
            assert np.array_equal(allowed, rolled_sumset(a, spec, u_supp))
            assert spectral_support_rule_check(a, c, tau).allowed_support == allowed.sum()

    def test_a_shift_sumset_takes_no_fft(self, monkeypatch):
        spec = GridSpec(1, 2048)
        a = ching_for_grid(spec)
        c = fft_forward(random_band_limited(spec, 0.5 * spec.N / 2, np.random.default_rng(26)))

        def refuse(*args, **kwargs):
            raise AssertionError("the rule took an FFT")

        for name in ("fft", "ifft", "fftn", "ifftn"):  # operators' np.fft is numpy's
            monkeypatch.setattr(ops.np.fft, name, refuse)
        report = spectral_support_rule_check(a, c)
        assert report.holds and report.allowed_support > 0


def rolled_sumset(a, spec, u_supp):
    """The spectral rule's allowed set of a shift symbol, term by term: the
    indicator of supp g_j & u_supp rolled by xi_j, for each nonzero weight."""
    allowed = np.zeros(spec.shape, dtype=bool)
    for t in a.shift_terms(spec):
        if t.weight != 0:
            allowed |= np.roll((t.g_table(spec) != 0) & u_supp, t.xi, axis=tuple(range(spec.n)))
    return allowed


class TestConcurrency:
    def test_thread_count_does_not_change_results(self, monkeypatch, pooled):
        spec = GridSpec(1, 64)
        a = random_table_symbol(spec, seed=12)
        u = random_band_limited(spec, 24, np.random.default_rng(70))
        monkeypatch.setenv("PDLAB_THREADS", "1")
        serial = paradiff_split(a, u).total()
        monkeypatch.setenv("PDLAB_THREADS", "4")
        threaded = paradiff_split(a, u).total()
        assert np.array_equal(serial.values, threaded.values)
        assert pooled


class TestShiftPath:
    """apply_auto's spectral-shift strategy for one-delta-per-level symbols."""

    @pytest.mark.parametrize(
        "n, N, theta, d",
        [(1, 2048, 1, 0.0), (1, 2048, 1, 1.5), (1, 2048, -3, 0.0), (1, 2048, -3, 1.5),
         (2, 64, (1, 1), 0.0), (2, 64, (-2, 1), 1.5)],
    )
    def test_matches_reference(self, n, N, theta, d):
        spec = GridSpec(n, N)
        a = ching_for_grid(spec, d=d, theta=theta)
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(80))
        ref = apply(a, u).values
        err = np.max(np.abs(apply_auto(a, u).values - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10

    def test_fold_below_minus_nyquist(self):
        # level 4 shifts eta = -18 by -16 to -34, which folds to +30 on N=64;
        # no other level sees |eta| = 18
        spec = GridSpec(1, 64)
        a = ching_symbol(0.0, 1, j_max=4, spec=spec)
        u = single_mode(spec, -18)
        y = apply_auto(a, u)
        c = fft_forward(y).coeffs
        top = spec.N // 2 + 30
        assert abs(c[top] - a.A(18.0 / 16.0)) < 1e-14
        c[top] = 0.0
        assert np.max(np.abs(c)) < 1e-14
        assert np.max(np.abs(y.values - apply(a, u).values)) < 1e-12

    def test_level_with_empty_annulus(self):
        # (0.3, 0.45) 2^j holds no integer radius for j = 0, 1, 2
        bump = RadialBump(a0=0.3, b0=0.35, b1=0.4, a1=0.45)
        spec = GridSpec(1, 128)
        a = ching_symbol(0.5, 1, A=bump, j_max=6, spec=spec)
        levels = [t.j for t in a.shift_terms(spec)]
        assert levels == [3, 4, 5, 6]
        assert len(a.separable_terms(spec)) == len(levels)
        u = random_band_limited(spec, 60, np.random.default_rng(81))
        ref = apply(a, u).values
        assert np.max(np.abs(apply_auto(a, u).values - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_separable_terms_called_once_or_never(self, monkeypatch):
        calls = []

        def spy(cls):
            real = cls.separable_terms

            def counted(self, spec):
                calls.append(cls.__name__)
                return real(self, spec)

            monkeypatch.setattr(cls, "separable_terms", counted)

        spy(ElementarySymbol)
        spy(ChingSymbol)
        spec = GridSpec(1, 256)
        u = random_band_limited(spec, 100, np.random.default_rng(82))
        apply_auto(random_elementary(spec, DEFAULT_FRAME, J=5, seed=1), u)
        assert calls == ["ElementarySymbol"]
        apply_auto(ching_for_grid(spec), u)
        assert calls == ["ElementarySymbol"]

    @pytest.mark.parametrize("n, N", [(1, 2048), (2, 64)])
    def test_reference_apply_agrees_to_rounding(self, n, N):
        # apply's phases are exact roots of unity, so the oracle is as exact
        # as the structured strategies
        spec = GridSpec(n, N)
        a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=4)
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(83))
        ref = apply(a, u).values
        assert np.max(np.abs(apply_auto(a, u).values - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, N, theta", [(1, 1024, 1), (2, 32, (1, 1))])
    def test_modulation_keeps_shift_terms(self, n, N, theta):
        spec = GridSpec(n, N)
        a = ching_for_grid(spec, d=0.5, theta=theta)
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(84))
        psi = DEFAULT_PSI_FAMILY[0]
        for m in range(modulation_saturation(psi, spec) + 1):
            b = modulate_symbol(a, m, psi, spec)
            assert b.shift_terms(spec) is not None
            ref = apply(b, u).values
            assert np.max(np.abs(apply_auto(b, u).values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_reference_reads_modulated_shift_rows_past_the_table_cap(self):
        # a modulated ShiftSymbol has no continuum evaluator, and 2-d N=64 is
        # past the memory budget's table: apply reads its rows from the shift terms
        spec = GridSpec(2, 64)
        ching = ching_for_grid(spec, d=0.5, theta=(1, 1))
        a = modulate_symbol(ching, 3, DEFAULT_PSI_FAMILY[0], spec)
        assert isinstance(a, ShiftSymbol) and not a.has_eval
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(89))
        ref = as_values(plan(a, spec)(u)).values
        assert np.max(np.abs(apply(a, u).values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_vfm_limit_never_tabulates(self, monkeypatch):
        calls = []
        for cls in (Symbol, ChingSymbol):
            for name in ("separable_terms", "table"):
                if name in vars(cls):
                    real = vars(cls)[name]

                    def counted(self, spec, _real=real, _name=name):
                        calls.append(_name)
                        return _real(self, spec)

                    monkeypatch.setattr(cls, name, counted)
        spec = GridSpec(1, 1024)
        u = random_band_limited(spec, 400, np.random.default_rng(85))
        trace = vfm_limit(ching_for_grid(spec), u)
        assert calls == []
        assert trace.cross_dev == 0.0


def ahat_rows(a, spec):
    """The nonzero xi-rows of a's exact a_hat as shift terms of weight 1, in
    order of |xi|."""
    ahat = symbol_partial_ft(a, spec).reshape(spec.npoints, spec.npoints)
    terms = []
    for r in sorted(np.flatnonzero(np.any(ahat != 0, axis=1)),
                    key=lambda r: spec.freq_radius().flat[r]):
        idx = np.flatnonzero(ahat[r])
        xi = tuple(int(k) - spec.N // 2 for k in np.unravel_index(r, spec.shape))
        terms.append(ShiftTerm(int(r), 1.0, xi, idx, ahat[r, idx]))
    return terms


def parent_route(a, u):
    """apply_auto as it was before plans: the strategy picked and its terms
    built on every call, term by term; plans must reproduce it bit for bit.
    A symbol with neither shift nor separable terms runs the shift loop on
    its a_hat rows, the route plan takes for it in place of the reference
    apply (TestOneRowRoute checks it against apply)."""
    spec = u.spec
    shifts = a.shift_terms(spec)
    if shifts is None and a.separable_terms(spec) is None:
        shifts = ahat_rows(a, spec)
    if shifts is not None:
        c = fft_forward(u).coeffs.reshape(-1)
        out = np.zeros(spec.npoints, dtype=complex)
        for t in shifts:
            src = np.unravel_index(t.idx, spec.shape)
            dst = np.ravel_multi_index(
                tuple(i + x for i, x in zip(src, t.xi)), spec.shape, mode="wrap"
            )
            out[dst] += t.weight * t.g * c[t.idx]
        return fft_inverse(SpectralFunction(spec, out.reshape(spec.shape))).values
    terms = a.separable_terms(spec)
    if terms is not None:
        c = fft_forward(u).coeffs
        out = np.zeros(spec.shape, dtype=complex)
        for m, g in terms:
            out += m * fft_inverse(SpectralFunction(spec, c * g)).values
        return out


class TestPlan:
    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 32)])
    @pytest.mark.parametrize(
        "kind", ["ching", "elementary", "constant", "tabulated", "modulated-shift"]
    )
    def test_matches_the_per_call_route(self, n, N, kind):
        spec = GridSpec(n, N)
        ching = ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1))
        a = {
            "ching": ching,
            "elementary": random_elementary(spec, DEFAULT_FRAME, J=4, seed=6),
            "constant": ConstantSymbol(2.0 - 0.5j),
            "tabulated": random_table_symbol(spec, seed=6),
            "modulated-shift": modulate_symbol(ching, 2, DEFAULT_PSI_FAMILY[1], spec),
        }[kind]
        op = plan(a, spec)
        for seed in (86, 87):
            u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(seed))
            assert np.array_equal(as_values(op(u)).values, parent_route(a, u))
            assert np.array_equal(apply_auto(a, u).values, parent_route(a, u))

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 32)])
    def test_shift_route_returns_the_coefficients_of_apply_auto(self, n, N):
        spec = GridSpec(n, N)
        ching = ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1))
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(88))
        modulated = modulate_symbol(ching, 2, DEFAULT_PSI_FAMILY[1], spec)
        for a in (ching, ConstantSymbol(2.0 - 0.5j), modulated):
            y = plan(a, spec)(u)
            assert isinstance(y, SpectralFunction)
            assert np.array_equal(fft_inverse(y).values, apply_auto(a, u).values)
        y = plan(random_elementary(spec, DEFAULT_FRAME, J=4, seed=6), spec)(u)
        assert isinstance(y, GridFunction)

    @pytest.mark.parametrize("c", [1.0, 2.0 - 0.5j])
    def test_constant_symbol_is_the_zero_shift(self, c, fft_calls):
        spec = GridSpec(1, 256)
        [term] = ConstantSymbol(c).shift_terms(spec)
        assert term.xi == (0,) and term.weight == c and np.all(term.g == 1.0)
        u = fft_forward(random_band_limited(spec, 50, np.random.default_rng(89)))
        fft_calls.clear()
        y = plan(ConstantSymbol(c), spec)(u)
        assert fft_calls == []
        assert np.array_equal(y.coeffs, c * u.coeffs)

    @pytest.mark.parametrize("n, N", [(1, 256), (2, 32)])
    @pytest.mark.parametrize("kind", ["elementary", "ching", "constant", "table"])
    def test_a_cut_call_is_the_plan_of_the_cut_symbol(self, n, N, kind):
        spec = GridSpec(n, N)
        a = {
            "elementary": lambda: random_elementary(spec, DEFAULT_FRAME, J=4, seed=23),
            "ching": lambda: ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1)),
            "constant": lambda: ConstantSymbol(2.0 - 0.5j),
            "table": lambda: random_table_symbol(spec, seed=23),
        }[kind]()
        u = fft_forward(random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(23)))
        rad = spec.freq_radius().reshape(-1)
        op = plan(a, spec)
        for k, m in ((2, 1), (3, 3)):  # a block of u: its support drops terms
            v = SpectralFunction(spec, u.coeffs * DEFAULT_FRAME.lattice_blocks(spec, k)[k])
            w = DEFAULT_FRAME.ball_radial(m, rad)
            cut = filter_symbol(filter_symbol(a, spec), spec, w, v.coeffs != 0)
            assert np.array_equal(as_values(op(v, w)).values, as_values(plan(cut, spec)(v)).values)

    def test_a_split_realizes_a_separable_symbol_once(self, monkeypatch, pooled):
        monkeypatch.setenv("PDLAB_THREADS", "2")
        spec = GridSpec(1, 256)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=24)
        u = random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(24))
        realized, real = [], ops.filter_symbol

        def spy(b, spec, x=None, eta=None):
            if x is None and eta is None:
                realized.append(b)
            return real(b, spec, x, eta)

        monkeypatch.setattr(ops, "filter_symbol", spy)
        terms = paradiff_split(a, u)
        assert realized == [a] and pooled
        assert rel_sup(terms.total(), apply(a, u)) <= 1e-10

    def test_first_cuts_made_at_once_give_the_serial_result(self):
        # the realized terms are made on the first cut; workers that make it
        # together, on a fresh plan each round, must each get equal terms
        spec = GridSpec(1, 256)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=27)
        u = fft_forward(random_band_limited(spec, 0.4 * spec.N / 2, np.random.default_rng(27)))
        w = DEFAULT_FRAME.ball_radial(3, spec.freq_radius().reshape(-1))
        serial = as_values(plan(a, spec)(u, w)).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:  # more workers than cores
                for _ in range(5):
                    op = plan(a, spec)
                    futures = [pool.submit(op, u, w) for _ in range(8)]
                    outs = [f.result(timeout=60) for f in futures]
                    assert all(np.array_equal(as_values(y).values, serial) for y in outs)
        finally:
            sys.setswitchinterval(interval)

    def test_rejects_an_input_on_another_grid(self):
        op = plan(ching_for_grid(GridSpec(1, 256)), GridSpec(1, 256))
        for spec in (GridSpec(1, 128), GridSpec(2, 256)):
            with pytest.raises(ValueError, match="planned for"):
                op(single_mode(spec, (1,) * spec.n))

    def test_vfm_limit_transforms_each_multiplier_forward_once(self, monkeypatch):
        # vfm_limit realizes the symbol once: every modulation reads the
        # carried x-spectra of the m_j instead of transforming them again
        spec = GridSpec(1, 256)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=9)
        inputs, real = [], np.fft.fftn

        def spy(x, *args, **kwargs):
            inputs.append(np.array(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", spy)
        trace = vfm_limit(a, random_band_limited(spec, 50, np.random.default_rng(90)))
        assert len(trace.m_values) > 4 and trace.cross_dev <= 1e-12
        for m in a.multipliers:
            assert sum(np.array_equal(x, m.values) for x in inputs) == 1

    def test_vfm_limit_tabulates_the_shift_terms_once(self, monkeypatch):
        calls = []
        real = ChingSymbol.shift_terms

        def counted(self, spec):
            calls.append(spec)
            return real(self, spec)

        monkeypatch.setattr(ChingSymbol, "shift_terms", counted)
        spec = GridSpec(1, 1024)
        u = random_band_limited(spec, 400, np.random.default_rng(88))
        trace = vfm_limit(ching_for_grid(spec), u)
        assert calls == [spec]
        assert len(trace.m_values) > 10 and trace.cross_dev == 0.0


def term_loop_route(a, spec):
    """The split's summand route as a loop over a's shift terms, term after
    term: c[eta + xi_j] += ((weight_j w(xi_j)) g_j) v[eta]."""
    terms = a.shift_terms(spec)
    at = [np.ravel_multi_index(tuple(x + spec.N // 2 for x in t.xi), spec.shape) for t in terms]
    dst = [np.ravel_multi_index(tuple(i + x for i, x in zip(np.unravel_index(t.idx, spec.shape),
                                                            t.xi)), spec.shape, mode="wrap")
           for t in terms]

    def run(w, v):
        out = np.zeros(spec.npoints, dtype=complex)
        for t, xi, to in zip(terms, at, dst):
            out[to] += t.weight * w[xi] * t.g * v[t.idx]
        return fft_inverse(SpectralFunction(spec, out.reshape(spec.shape)))

    return run


class TestOneRowRoute:
    """plan and the split have two strategies, shift and separable; a symbol
    with neither kind of term takes the shift route on its a_hat rows, and
    the reference apply is reached only as the oracle."""

    @pytest.mark.parametrize("n, N", [(1, 256), (2, 16)])
    def test_plan_and_the_split_never_reach_apply(self, monkeypatch, n, N):
        def no_apply(*args):
            raise AssertionError("the reference apply was reached")

        spec = GridSpec(n, N)
        ching = ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1))
        table = random_table_symbol(spec, seed=21)
        symbols = {
            "const": ConstantSymbol(2.0 - 0.5j),
            "ching": ching,
            "elementary": random_elementary(spec, DEFAULT_FRAME, J=4, seed=21),
            "table": table,
            "ahat only": TabulatedSymbol(spec, None, ahat=symbol_partial_ft(table, spec)),
            "eval only": EvalOnly(ching),
        }
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(21))
        refs = {name: apply(table if name == "ahat only" else a, u)
                for name, a in symbols.items()}
        monkeypatch.setattr(ops, "apply", no_apply)
        for name, a in symbols.items():
            assert rel_sup(apply_auto(a, u), refs[name]) <= 1e-13, name
            assert rel_sup(paradiff_split(a, u).total(), refs[name]) <= 1e-13, name

    @pytest.mark.parametrize("n, N", [(1, 2**14), (2, 64)])
    @pytest.mark.parametrize("kind", ["ching", "constant", "modulated-shift"])
    def test_shift_symbols_equal_a_per_term_loop(self, n, N, kind):
        spec = GridSpec(n, N)
        ching = ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1))
        a = {
            "ching": ching,
            "constant": ConstantSymbol(2.0 - 0.5j),
            "modulated-shift": modulate_symbol(ching, 3, DEFAULT_PSI_FAMILY[0], spec),
        }[kind]
        u = random_band_limited(spec, 0.4 * N / 2, np.random.default_rng(22))
        assert np.array_equal(as_values(plan(a, spec)(u)).values, parent_route(a, u))
        ours, ref = summands(paradiff_split(a, u)), split_by(term_loop_route, a, u)
        assert len(ours) == len(ref)
        assert all(np.array_equal(x, y) for x, y in zip(ours, ref))
