"""Maximal functions, symbol factors, the pointwise factorization gate,
integrability constants, the derivative-sum bound, and the decay sweeps."""
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlab._threads import pmap
from pdlab.frame import DEFAULT_FRAME
from pdlab.grid import (
    GridFunction,
    GridSpec,
    from_coeffs,
    random_band_limited,
    single_mode,
)
from pdlab.pointwise import (
    CHI,
    MaximalParams,
    default_maximal_params,
    derivative_order,
    factorization_check,
    maximal_lp_constant,
    maximal_ratio,
    mihlin_bound_check,
    mihlin_rhs,
    moment_decay_check,
    peetre_maximal,
    spectral_radius,
    symbol_factor,
)
from pdlab.symbols import (
    ConstantSymbol,
    Symbol,
    TabulatedSymbol,
    ching_for_grid,
    ching_symbol,
    partial_ift,
    random_elementary,
    symbol_partial_ft,
)


def random_table_symbol(spec, seed=0):
    rng = np.random.default_rng(seed)
    shape = spec.shape + spec.shape
    tab = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TabulatedSymbol(spec, tab)


def x_independent_symbol(spec, weights):
    ahat = np.zeros(spec.shape + spec.shape, dtype=complex)
    ahat[(spec.N // 2,) * spec.n] = weights
    return TabulatedSymbol(spec, partial_ift(ahat, spec), ahat=ahat)


def power_tail_symbol(spec, s, eta_scale):
    """x-spectrum (1+|xi|)^{-s} on every column: polynomial x-moments,
    the regime where the Q-decay is a genuine fitted exponent."""
    xr = spec.freq_radius().reshape(spec.shape + (1,) * spec.n)
    er = spec.freq_radius()[(np.newaxis,) * spec.n]
    ahat = (1.0 + xr) ** (-s) * np.exp(-((er / eta_scale) ** 2)) + 0j
    return TabulatedSymbol(spec, partial_ift(ahat, spec), ahat=ahat)


def brute_peetre(u, p):
    """Independent O(npoints^2) oracle with explicit loops."""
    spec = u.spec
    N = spec.N
    absu = np.abs(u.values)
    out = np.zeros(spec.shape)
    if spec.n == 1:
        for i in range(N):
            best = 0.0
            for d in range(N):
                y = (((d + N // 2) % N) - N // 2) * spec.spacing
                best = max(best, absu[(i - d) % N] / (1 + p.R_spec * abs(y)) ** p.N_exp)
            out[i] = best
    else:
        for i0 in range(N):
            for i1 in range(N):
                best = 0.0
                for d0 in range(N):
                    y0 = (((d0 + N // 2) % N) - N // 2) * spec.spacing
                    for d1 in range(N):
                        y1 = (((d1 + N // 2) % N) - N // 2) * spec.spacing
                        w = (1 + p.R_spec * np.hypot(y0, y1)) ** (-p.N_exp)
                        best = max(best, absu[(i0 - d0) % N, (i1 - d1) % N] * w)
                out[i0, i1] = best
    return out


def exhaustive_peetre(u, p):
    """Maximum over every offset with the weight (1 + R|y|)^{-N}, no early
    stop: the pruned scan must reproduce it bit for bit."""
    spec = u.spec
    N = spec.N
    ax = (((np.arange(N) + N // 2) % N) - N // 2) * spec.spacing
    if spec.n == 1:
        radius = np.abs(ax)
    else:
        radius = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    w = (1.0 + p.R_spec * radius) ** (-p.N_exp)
    absu = np.abs(u.values)
    axes = tuple(range(spec.n))
    return np.max(
        [np.roll(absu, y, axis=axes) * w[y] for y in np.ndindex(spec.shape)], axis=0
    )


class TestMaximalParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="N_exp"):
            MaximalParams(0.0, 1.0)
        with pytest.raises(ValueError, match="R_spec"):
            MaximalParams(1.0, -2.0)

    def test_defaults_from_input(self):
        spec = GridSpec(1, 64)
        p = default_maximal_params(single_mode(spec, 9))
        assert p.N_exp == 1 and p.R_spec == 9.0

    def test_default_radius_floor_on_zero_input(self):
        spec = GridSpec(1, 32)
        z = GridFunction(spec, np.zeros(spec.shape, dtype=complex))
        assert default_maximal_params(z).R_spec == 1.0

    def test_2d_default_exponent(self):
        spec = GridSpec(2, 16)
        p = default_maximal_params(single_mode(spec, (3, 0)))
        assert p.N_exp == 2 and p.R_spec == 3.0


class TestPeetreMaximal:
    def test_brute_force_oracle_1d(self):
        spec = GridSpec(1, 16)
        u = random_band_limited(spec, 5, np.random.default_rng(3))
        p = MaximalParams(1.5, 4.0)
        got = peetre_maximal(u, p).values.real
        assert np.allclose(got, brute_peetre(u, p), rtol=1e-13, atol=0)

    def test_brute_force_oracle_2d(self):
        spec = GridSpec(2, 8)
        u = random_band_limited(spec, 3, np.random.default_rng(4))
        p = MaximalParams(2.0, 2.0)
        got = peetre_maximal(u, p).values.real
        assert np.allclose(got, brute_peetre(u, p), rtol=1e-13, atol=0)

    def test_dominates_absolute_value_exactly(self):
        spec = GridSpec(1, 64)
        u = random_band_limited(spec, 20, np.random.default_rng(5))
        ustar = peetre_maximal(u, MaximalParams(1.0, 20.0)).values.real
        assert np.all(ustar >= np.abs(u.values))

    def test_constant_function_fixed_point(self):
        spec = GridSpec(1, 32)
        u = GridFunction(spec, np.ones(spec.shape, dtype=complex))
        ustar = peetre_maximal(u, MaximalParams(1.0, 1.0)).values.real
        assert np.array_equal(ustar, np.ones(spec.shape))

    def test_single_mode_attained_at_zero_offset(self):
        # |e^{i3x}| is constant to the last ulp; every other offset is
        # damped by a weight gap far above fp noise, so the max is the
        # y=0 term bitwise
        spec = GridSpec(1, 64)
        u = single_mode(spec, 3)
        ustar = peetre_maximal(u, MaximalParams(1.0, 3.0)).values.real
        assert np.array_equal(ustar, np.abs(u.values))

    def test_translation_equivariance(self):
        spec = GridSpec(1, 32)
        u = random_band_limited(spec, 10, np.random.default_rng(6))
        p = MaximalParams(1.0, 8.0)
        base = peetre_maximal(u, p).values
        for s in (1, 7, 16):
            shifted = GridFunction(spec, np.roll(u.values, s))
            assert np.array_equal(
                peetre_maximal(shifted, p).values, np.roll(base, s)
            )

    def test_monotone_in_exponent_and_radius(self):
        spec = GridSpec(1, 64)
        u = random_band_limited(spec, 16, np.random.default_rng(7))
        a = peetre_maximal(u, MaximalParams(1.0, 8.0)).values.real
        b = peetre_maximal(u, MaximalParams(2.0, 8.0)).values.real
        c = peetre_maximal(u, MaximalParams(1.0, 16.0)).values.real
        assert np.all(b <= a)
        assert np.all(c <= a)


class TestPeetrePrunedScan:
    """The offset scan stops early; it must still equal the full maximum."""

    @pytest.mark.parametrize("n, N, band", [(1, 64, 20), (1, 16, 5), (2, 16, 6), (2, 8, 3)])
    @pytest.mark.parametrize("p", [MaximalParams(1.5, 4.0), MaximalParams(0.1, 3.0)])
    def test_equals_exhaustive_scan(self, n, N, band, p):
        spec = GridSpec(n, N)
        u = random_band_limited(spec, band, np.random.default_rng(17 + N + n))
        got = peetre_maximal(u, p).values.real
        assert np.array_equal(got, exhaustive_peetre(u, p))
        assert np.allclose(got, brute_peetre(u, p), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    def test_single_spike_scans_every_offset(self, n, N):
        # each point gets a nonzero value only from its own offset to the
        # spike, so min(best) stays 0 and the scan visits every offset
        spec = GridSpec(n, N)
        spike = np.zeros(spec.shape, dtype=complex)
        spike[(3,) * n] = 2.5
        u = GridFunction(spec, spike)
        p = MaximalParams(1.0, 4.0)
        got = peetre_maximal(u, p).values.real
        assert np.array_equal(got, exhaustive_peetre(u, p))
        assert np.allclose(got, brute_peetre(u, p), rtol=1e-13, atol=0)
        assert got.min() > 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_input(self, n):
        spec = GridSpec(n, 16)
        u = GridFunction(spec, np.zeros(spec.shape, dtype=complex))
        got = peetre_maximal(u, MaximalParams(1.0, 2.0)).values
        assert np.array_equal(got, brute_peetre(u, MaximalParams(1.0, 2.0)))
        assert not got.any()

    def test_peak_memory_2d_64(self):
        spec = GridSpec(2, 64)
        u = random_band_limited(spec, 20, np.random.default_rng(18))
        tracemalloc.start()
        try:
            peetre_maximal(u, MaximalParams(2.0, 20.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSymbolFactor:
    def test_constant_symbol_direct_sum_oracle(self):
        spec = GridSpec(1, 32)
        p = MaximalParams(1.0, 4.0)
        got = symbol_factor(ConstantSymbol(2.5), p, spec).values.real
        chiv = CHI.radial(spec.freq_radius() / p.R_spec)
        etas = spec.axis_freqs()
        N = spec.N
        expected = 0.0
        for d in range(N):
            yc = (((d + N // 2) % N) - N // 2) * spec.spacing
            k = np.sum(2.5 * chiv * np.exp(1j * d * spec.spacing * etas)) / (2 * np.pi)
            expected += (2 * np.pi / N) * (1 + p.R_spec * abs(yc)) ** p.N_exp * abs(k)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_nonnegative(self):
        spec = GridSpec(1, 32)
        F = symbol_factor(
            random_table_symbol(spec, 1), MaximalParams(1.0, 8.0), spec=spec
        ).values.real
        assert F.min() >= 0.0

    def test_x_independent_symbol_gives_constant_factor(self):
        spec = GridSpec(1, 64)
        a = x_independent_symbol(spec, np.exp(-spec.freq_radius() / 3.0))
        F = symbol_factor(a, MaximalParams(1.0, 8.0), spec=spec).values.real
        assert np.array_equal(F, np.full(spec.shape, F.flat[0]))

    def test_subadditive(self):
        spec = GridSpec(1, 32)
        a = random_table_symbol(spec, 2)
        b = random_table_symbol(spec, 3)
        ab = TabulatedSymbol(spec, a._table + b._table)
        p = MaximalParams(1.0, 8.0)
        Fa = symbol_factor(a, p, spec=spec).values.real
        Fb = symbol_factor(b, p, spec=spec).values.real
        Fab = symbol_factor(ab, p, spec=spec).values.real
        assert np.all(Fab <= (Fa + Fb) * (1 + 1e-12))

    def test_dyadic_scaling_exact(self):
        spec = GridSpec(1, 32)
        a = random_table_symbol(spec, 4)
        doubled = TabulatedSymbol(spec, 2.0 * a._table)
        p = MaximalParams(1.0, 8.0)
        assert np.array_equal(
            symbol_factor(doubled, p, spec=spec).values,
            2.0 * symbol_factor(a, p, spec=spec).values,
        )

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 32)])
    def test_structured_route_matches_the_table(self, n, N):
        # separable terms (elementary) and shift terms (Ching) never build
        # a table; the tabulated twin of each symbol takes the table route
        spec = GridSpec(n, N)
        ching = ching_symbol(0.5, (1,) * n, j_max=3 if n == 2 else 7, spec=spec)
        p = MaximalParams(1.0 + n / 2, N / 8)
        for a in (random_elementary(spec, DEFAULT_FRAME, 4, seed=21), ching):
            got = symbol_factor(a, p, spec=spec).values.real
            ref = symbol_factor(TabulatedSymbol(spec, a.table(spec)), p, spec=spec).values.real
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


class TestFactorizationGate:
    def test_twenty_random_pairs(self):
        spec = GridSpec(1, 128)
        p = MaximalParams(1.0, 32.0)
        for seed in range(20):
            a = random_elementary(spec, DEFAULT_FRAME, 5, seed=seed)
            u = random_band_limited(spec, 32, np.random.default_rng(100 + seed))
            rep = factorization_check(a, u, p)
            assert rep.holds, f"seed {seed}: ratio {rep.max_ratio}"

    def test_identity_on_single_mode(self):
        spec = GridSpec(1, 64)
        rep = factorization_check(ConstantSymbol(1.0), single_mode(spec, 5))
        assert rep.holds
        assert rep.factor_sup >= 1.0  # plateau cutoff keeps the zero mode

    def test_default_params_from_input(self):
        spec = GridSpec(1, 64)
        a = random_elementary(spec, DEFAULT_FRAME, 3, seed=7)
        u = random_band_limited(spec, 10, np.random.default_rng(7))
        rep = factorization_check(a, u)
        assert rep.holds
        assert rep.params.N_exp == 1
        assert rep.params.R_spec == spectral_radius(u)

    def test_escaping_spectrum_is_an_error(self):
        spec = GridSpec(1, 128)
        u = random_band_limited(spec, 40, np.random.default_rng(8))
        with pytest.raises(ValueError, match="not identically 1"):
            factorization_check(ConstantSymbol(1.0), u, MaximalParams(1.0, 16.0))

    def test_ching_pair_holds_with_large_factor(self):
        # the inequality itself is never the obstruction for the type 1,1
        # counterexample; the size of F_a is where the growth hides
        spec = GridSpec(1, 256)
        a = ching_symbol(0.5, 1, j_max=5, spec=spec)
        u = random_band_limited(spec, 32, np.random.default_rng(9))
        rep = factorization_check(a, u, MaximalParams(1.0, 32.0))
        assert rep.holds
        assert rep.factor_sup > 10.0

    def test_zero_symbol_zero_ratio(self):
        spec = GridSpec(1, 32)
        a = TabulatedSymbol(spec, np.zeros(spec.shape + spec.shape, dtype=complex))
        rep = factorization_check(a, single_mode(spec, 2), MaximalParams(1.0, 4.0))
        assert rep.max_ratio == 0.0 and rep.holds

    def test_2d_pair(self):
        spec = GridSpec(2, 16)
        u = random_band_limited(spec, 4, np.random.default_rng(12))
        rep = factorization_check(ConstantSymbol(1.0), u)
        assert rep.holds and rep.params.N_exp == 2

    def test_2d_elementary_past_the_table_cap(self):
        # F_a of a separable symbol needs no N^n x N^n table, so 2-d N=64
        # (16.8e6 table entries, past the memory budget) runs
        spec = GridSpec(2, 64)
        a = random_elementary(spec, DEFAULT_FRAME, 4, seed=22)
        u = random_band_limited(spec, 12, np.random.default_rng(23))
        assert factorization_check(a, u).holds

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gate_property_random_tables(self, seed):
        spec = GridSpec(1, 32)
        rng = np.random.default_rng(seed)
        shape = spec.shape + spec.shape
        a = TabulatedSymbol(
            spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        u = random_band_limited(spec, 8, rng)
        assert factorization_check(a, u, MaximalParams(1.0, 8.0)).holds


class TestMaximalLpConstant:
    def test_integrability_line_enforced(self):
        spec = GridSpec(1, 32)
        corpus = [single_mode(spec, 1)]
        with pytest.raises(ValueError, match="n/p"):
            maximal_lp_constant(corpus, 2.0, 0.5)
        with pytest.raises(ValueError, match="n/p"):
            maximal_lp_constant(corpus, 0.5, 2.0)
        assert maximal_lp_constant(corpus, 0.5, 2.5) >= 1.0

    def test_sup_norm_single_mode_constant_is_one(self):
        spec = GridSpec(1, 64)
        assert maximal_lp_constant([single_mode(spec, 5)], np.inf, 1.0) == 1.0

    def test_monotone_nonincreasing_in_exponent(self):
        spec = GridSpec(1, 64)
        rng = np.random.default_rng(11)
        corpus = [random_band_limited(spec, 16, rng) for _ in range(5)]
        c1 = maximal_ratio(corpus, 2.0, 1.0)
        c2 = maximal_ratio(corpus, 2.0, 2.0)
        c3 = maximal_ratio(corpus, 2.0, 3.0)
        assert c3 <= c2 <= c1

    def test_two_grid_stability_above_the_line(self):
        consts = {}
        for N in (64, 128):
            spec = GridSpec(1, N)
            corpus = [
                random_band_limited(spec, N // 4, np.random.default_rng(s))
                for s in range(50)
            ]
            consts[N] = maximal_lp_constant(corpus, 2.0, 1.0)
        r = consts[128] / consts[64]
        assert max(r, 1 / r) <= 1.5

    def test_negative_control_grows_below_the_line(self):
        # Dirichlet-kernel corpus: a bump of width ~1/K with unit-size
        # coefficients; with N_exp = 0.1 < n/p = 0.5 the weighted tails
        # carry ever more mass as the grid (and K) doubles
        vals = {}
        for N in (64, 128):
            spec = GridSpec(1, N)
            K = N // 4
            u = from_coeffs(spec, {eta: 1.0 for eta in range(-K, K + 1)})
            vals[N] = maximal_ratio([u], 2.0, 0.1)
        assert vals[128] / vals[64] >= 1.2


class TestMihlinBound:
    def test_derivative_order(self):
        assert derivative_order(MaximalParams(1.0, 1.0), 1) == 2
        assert derivative_order(MaximalParams(1.5, 1.0), 1) == 3
        assert derivative_order(MaximalParams(2.0, 1.0), 2) == 4

    def test_budget_refused(self):
        spec = GridSpec(1, 64)
        with pytest.raises(ValueError, match="budget"):
            mihlin_rhs(ConstantSymbol(1.0), MaximalParams(4.0, 4.0), spec=spec)

    def test_cutoff_must_clear_the_band(self):
        spec = GridSpec(1, 64)
        with pytest.raises(ValueError, match="band"):
            mihlin_rhs(ConstantSymbol(1.0), MaximalParams(1.0, 16.0), spec=spec)

    def test_constant_symbol_closed_form(self):
        # differences of a constant table vanish exactly, so only the
        # order-zero term survives: |a| sqrt(#modes / R)
        spec = GridSpec(1, 64)
        p = MaximalParams(1.0, 8.0)
        rhs = mihlin_rhs(ConstantSymbol(3.0), p, spec=spec)
        count = int((spec.freq_radius() <= 16.0).sum())
        assert np.allclose(rhs, 3.0 * np.sqrt(count / 8.0), rtol=1e-12)

    def test_fit_on_one_corpus_verify_on_another(self):
        spec = GridSpec(1, 128)
        p = MaximalParams(1.0, 16.0)
        fit = [
            mihlin_bound_check(
                random_elementary(spec, DEFAULT_FRAME, 4, seed=s), p, None, spec=spec
            ).worst_ratio
            for s in range(6)
        ]
        c = max(fit)
        for s in range(20, 26):
            a = random_elementary(spec, DEFAULT_FRAME, 4, seed=s)
            rep = mihlin_bound_check(a, p, c, spec=spec)
            assert rep.holds and rep.k == 2

    def test_constant_stable_across_grids(self):
        vals = {}
        for N in (64, 128):
            spec = GridSpec(1, N)
            a = random_elementary(spec, DEFAULT_FRAME, 3, seed=2)
            vals[N] = mihlin_bound_check(a, MaximalParams(1.0, 8.0), None, spec=spec).worst_ratio
        r = vals[128] / vals[64]
        assert max(r, 1 / r) <= 1.5

class TestMomentDecay:
    def test_x_independent_symbol_dies_entirely(self):
        spec = GridSpec(1, 64)
        a = x_independent_symbol(spec, np.exp(-spec.freq_radius() / 4.0))
        rep = moment_decay_check(a, MaximalParams(1.0, 8.0), (2.0, 4.0, 8.0), 3)
        assert rep.holds
        assert rep.fit.values == (0.0, 0.0, 0.0)
        assert rep.fit.slope == float("-inf")

    def test_ching_exact_zero_cliff(self):
        # x-shells land on exact dyadic frequencies; once Q pushes the
        # surviving shells past the chi support the factor is exactly 0,
        # a drop faster than any polynomial rate
        spec = GridSpec(1, 256)
        a = ching_symbol(0.0, 1, j_max=5, spec=spec)
        rep = moment_decay_check(
            a, MaximalParams(1.0, 8.0), (2.0, 4.0, 8.0, 16.0, 32.0, 64.0), 2, spec=spec
        )
        assert rep.holds and rep.fit.cliff
        assert rep.fit.values[0] > 1.0
        assert rep.fit.values[-1] == 0.0
        assert rep.step_drops[-1] == float("inf")

    def test_power_tail_fitted_decay(self):
        spec = GridSpec(1, 256)
        a = power_tail_symbol(spec, s=3.0, eta_scale=4.0)
        rep = moment_decay_check(a, MaximalParams(1.0, 4.0), (4.0, 8.0, 16.0, 32.0), 2)
        assert rep.holds
        assert not rep.fit.cliff
        assert rep.fit.fit_points == 4
        assert rep.fit.slope <= -1.5


class TestMomentDecayStructured:
    """A shift or separable symbol keeps its terms through the x-high-pass:
    F over each a_Q matches the dense route of its tabulated twin."""

    @pytest.mark.parametrize("n, N, kind", [
        (1, 256, "ching"), (1, 1024, "ching"), (2, 32, "ching"),
        (1, 256, "elementary"), (1, 1024, "elementary"), (2, 32, "elementary"),
    ])
    def test_matches_the_dense_twin(self, n, N, kind):
        spec = GridSpec(n, N)
        theta = 1 if n == 1 else (1, 1)
        a = (ching_for_grid(spec, d=0.5, theta=theta) if kind == "ching"
             else random_elementary(spec, DEFAULT_FRAME, J=4, seed=8))
        twin = TabulatedSymbol(spec, a.table(spec), d=a.d, ahat=symbol_partial_ft(a, spec))
        # past Q = N/4 the high-pass leaves no Ching level inside chi's support
        p, qs = MaximalParams(1.0, N / 32), [2.0**k for k in range(1, N.bit_length() - 2)]
        got = moment_decay_check(a, p, qs, 2, spec=spec).fit.values
        want = moment_decay_check(twin, p, qs, 2, spec=spec).fit.values
        assert [v == 0.0 for v in got] == [v == 0.0 for v in want]
        assert any(v > 0.0 for v in got)
        assert kind != "ching" or got[-1] == 0.0
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-13 * max(want)

    def test_ching_runs_at_4096_with_no_table(self, monkeypatch, capsys):
        from pdlab import cli, symbols

        def refuse(*args):
            raise AssertionError("a dense table was built")

        monkeypatch.setattr(Symbol, "table", refuse)
        monkeypatch.setattr(symbols, "symbol_partial_ft", refuse)
        monkeypatch.setenv("PDLAB_THREADS", "1")  # one 64 MiB kernel chunk at a time
        argv = ["pointwise", "moment-decay", "--symbol", "ching:d=0,theta=+1,jmax=9",
                "--grid", "4096"]
        assert cli.main(argv) == 0
        assert '"slope": ' in capsys.readouterr().err  # the summary line


class TestNestedPools:
    """A pmap called from a pool worker runs inline: one live pool at most."""

    def test_inner_pmap_runs_inline(self, monkeypatch, pooled):
        monkeypatch.setenv("PDLAB_THREADS", "2")
        base = threading.active_count()
        live = []

        def inner(x):
            live.append(threading.active_count())
            return x * x

        got = pmap(lambda i: pmap(inner, range(3 * i, 3 * i + 3), points=1), range(4), points=1)
        assert got == [[x * x for x in range(3 * i, 3 * i + 3)] for i in range(4)]
        assert max(live) <= base + 2
        assert pooled

    def test_nested_sites_match_serial(self, monkeypatch, pooled):
        spec = GridSpec(1, 64)
        a = random_elementary(spec, DEFAULT_FRAME, 4, seed=5)
        p = MaximalParams(1.0, 8.0)

        def run():
            return moment_decay_check(a, p, [2.0, 4.0, 8.0], M=1, spec=spec).fit.values

        monkeypatch.setenv("PDLAB_THREADS", "1")
        serial = run()
        monkeypatch.setenv("PDLAB_THREADS", "2")
        assert np.array_equal(run(), serial)
        assert pooled
