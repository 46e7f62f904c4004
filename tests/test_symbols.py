"""Symbol construction, modulation, localization, the twisted-diagonal order,
the dense operator matrix and the table format."""
import json

import numpy as np
import pytest

import pdlab.grid
import pdlab.symbols as symbols
from pdlab.experiments import run_sigma_estimate
from pdlab.frame import DEFAULT_FRAME, ModulationFunction
from pdlab.grid import GridFunction, GridSpec, random_band_limited
from pdlab.operators import DEFAULT_PSI_FAMILY, kernel
from pdlab.pointwise import MaximalParams, _multiindices, derivative_order, mihlin_rhs
from pdlab.symbols import (
    DEFAULT_BUMP,
    ChiCutoff,
    ChingSymbol,
    ConstantSymbol,
    RadialBump,
    SeparableSymbol,
    ShiftSymbol,
    Symbol,
    TabulatedSymbol,
    TdcReport,
    _parse_theta,
    as_multiindex,
    check_twisted_diagonal,
    ching_for_grid,
    ching_symbol,
    filter_symbol,
    localize_symbol,
    mask_twisted_diagonal,
    nyquist_mask,
    parse_symbol_spec,
    partial_ft,
    random_elementary,
    read_pdsy,
    sigma_order_estimate,
    symbol_partial_ft,
    write_pdsy,
)


def shift_spectra(sym, spec):
    """(mhat_j, g_j) of a shift symbol's terms: mhat_j the delta of weight_j
    at xi_j over the shifted xi-lattice, built here from the terms."""
    out = []
    for t in sym.shift_terms(spec):
        mhat = np.zeros(spec.shape, dtype=complex)
        mhat[tuple(x + spec.N // 2 for x in t.xi)] = t.weight
        out.append((mhat, t.g_table(spec)))
    return out


def modulated(a: Symbol, m: int, psi: ModulationFunction, spec: GridSpec) -> Symbol:
    """b_m(x,eta) = [psi(2^{-m}D_x)a](x,eta) psi(2^{-m}eta): filter_symbol
    with psi(2^{-m}.) on both sides."""
    mult = psi.radial(spec.freq_radius() * 2.0**-m)
    return filter_symbol(a, spec, mult, mult)


def random_table_symbol(spec, seed=0, d=0.0):
    rng = np.random.default_rng(seed)
    shape = spec.shape + spec.shape
    tab = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TabulatedSymbol(spec, tab, d=d)


def eval_only(a: Symbol) -> Symbol:
    """a seen through its continuum evaluator alone: its table is eval on the lattice."""

    class EvalOnly(Symbol):
        def eval(self, x, eta):
            return a.eval(x, eta)

    return EvalOnly()


class TestRadialBump:
    def test_plateau_and_support(self):
        A = DEFAULT_BUMP
        assert A(1.0) == 1.0
        assert A(0.9) == 1.0 and A(1.1) == 1.0
        assert A(0.75) == 0.0 and A(1.25) == 0.0
        assert A(0.5) == 0.0 and A(2.0) == 0.0
        t = np.linspace(0, 2, 4001)
        v = A(t)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialBump(a0=0.0, a1=1.25, b0=0.9, b1=1.1)
        with pytest.raises(ValueError):
            RadialBump(a0=0.75, a1=1.0, b0=0.9, b1=1.1)
        with pytest.raises(ValueError):
            RadialBump(zero_order=1, zero_at=2.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_zero_factor(self, r):
        A = RadialBump(zero_order=r)
        assert A(1.0) == 0.0
        # at half the window width inside the plateau the base profile is 1
        assert A(1.05) == pytest.approx(0.5**r, abs=1e-15)
        assert A(0.95) == pytest.approx(0.5**r, abs=1e-15)
        # outside the window the bump is unchanged
        assert A(1.1) == 1.0

    def test_overlap_count_default(self):
        # ceil(log2(5/3)) + 1
        assert DEFAULT_BUMP.overlap_count == 2


class TestChingSymbol:
    def test_single_active_term(self):
        # at |eta| = 2^j exactly only scale j fires and A = 1 there
        spec = GridSpec(n=1, N=64)
        a = ching_symbol(d=0.0, theta=1, j_max=4, spec=spec)
        x = spec.axis_coords().reshape(-1, 1)
        eta = np.full((spec.N, 1), 8.0)
        got = a.eval(x, eta)
        assert np.allclose(got, np.exp(-1j * 8 * x[:, 0]), atol=1e-14)

    def test_zero_frequency(self):
        a = ching_symbol(d=0.0, theta=1, j_max=4)
        assert a.eval(np.array([[0.3]]), np.array([[0.0]]))[0] == 0.0

    def test_term_sparsity(self):
        # default corona [3/4, 5/4] meets at most 2 dyadic scales per radius
        a = ching_symbol(d=0.0, theta=1, j_max=10)
        radii = np.linspace(0.1, 1500.0, 3000)
        active = np.zeros_like(radii)
        for j in range(a.j_max + 1):
            active += (a.A(radii * 2.0**-j) > 0.0).astype(float)
        assert active.max() <= 2

    def test_table_matches_eval_on_lattice(self):
        spec = GridSpec(n=1, N=64)
        a = ching_symbol(d=0.5, theta=1, j_max=4, spec=spec)
        assert np.allclose(a.table(spec), eval_only(a).table(spec), atol=1e-12)

    def test_table_matches_eval_2d(self):
        spec = GridSpec(n=2, N=16)
        a = ching_symbol(d=0.0, theta=(1, 0), j_max=2, spec=spec)
        assert np.allclose(a.table(spec), eval_only(a).table(spec), atol=1e-12)

    def test_truncation_overflow_rejected(self):
        spec = GridSpec(n=1, N=64)
        with pytest.raises(ValueError, match="Nyquist"):
            ching_symbol(d=0.0, theta=1, j_max=6, spec=spec)

    def test_tdc_flag(self):
        assert ching_symbol(d=0.0, theta=1).tdc_B is None
        a2 = ching_symbol(d=0.0, theta=2)
        assert a2.tdc_B == pytest.approx(1.25 / 0.75)

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ChingSymbol(d=0.0, theta=(0, 0))

    @pytest.mark.parametrize(
        "n, N, theta, A",
        [(1, 2**18, 1, DEFAULT_BUMP), (1, 2048, -3, DEFAULT_BUMP), (2, 256, (1, 1), DEFAULT_BUMP),
         (2, 64, (-2, 1), RadialBump(zero_order=1, zero_width=0.25))],
    )
    def test_level_bumps_match_full_grid_evaluation(self, n, N, theta, A):
        spec = GridSpec(n=n, N=N)
        tnorm = float(np.linalg.norm(np.atleast_1d(theta)))
        j_max = int(np.floor(np.log2(N / 2 / max(A.a1, tnorm))))
        a = ching_symbol(d=1.5, theta=theta, A=A, j_max=j_max, spec=spec)
        rad, nyq = spec.freq_radius(), nyquist_mask(spec)
        full = {j: A(rad * 2.0**-j) * nyq for j in range(j_max + 1)}
        terms = a.shift_terms(spec)
        assert [t.j for t in terms] == [j for j, g in full.items() if np.any(g)]
        for t, (mhat, g) in zip(terms, shift_spectra(a, spec)):
            assert np.array_equal(t.g_table(spec), full[t.j])
            assert np.array_equal(g, full[t.j])
            assert t.weight == 2.0 ** (1.5 * t.j)
            want = np.atleast_1d(-(2**t.j) * np.asarray(theta))
            assert all((x - w) % N == 0 and -N // 2 <= x < N // 2 for x, w in zip(t.xi, want))
            assert mhat[tuple(x + N // 2 for x in t.xi)] == t.weight


class TestNyquistMask:
    def test_masked_rows(self):
        spec = GridSpec(n=2, N=16)
        mask = nyquist_mask(spec)
        freqs = spec.freq_mesh()
        on_row = (freqs[0] == -8) | (freqs[1] == -8)
        assert np.all(mask[on_row] == 0.0)
        assert np.all(mask[~on_row] == 1.0)

    def test_elementary_terms_masked(self):
        spec = GridSpec(n=1, N=32)
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=1)
        for _, g in a.separable_terms(spec):
            assert g[0] == 0.0  # index 0 is eta = -N/2


class TestModulation:
    def test_x_independent_symbol(self):
        spec = GridSpec(n=1, N=32)
        g = np.exp(-0.1 * spec.axis_freqs().astype(float) ** 2)
        a = SeparableSymbol(spec, [(np.ones(spec.shape, dtype=complex), g)])
        psi = ModulationFunction(1.0, 2.0)
        m = 2
        b = modulated(a, m, psi, spec)
        want = np.multiply.outer(np.ones(spec.N), g * psi.radial(np.abs(spec.axis_freqs()) / 2.0**m))
        assert np.allclose(b.table(spec), want, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ching_keeps_twisted_diagonal_zeros(self, m):
        # |theta| = 2 > a1 puts the symbol in the twisted-diagonal class
        spec = GridSpec(n=1, N=128)
        a = ching_symbol(0.0, theta=2, j_max=5, spec=spec)
        b = modulated(a, m, ModulationFunction(1.0, 2.0), spec)
        assert b.shift_terms(spec) is not None
        assert check_twisted_diagonal(b, a.tdc_B, spec=spec).violation_mass == 0.0

    @pytest.mark.parametrize("kind, n, N", [
        *((kind, 1, N) for kind in (1, 3, "const", "modulated") for N in (256, 1024)),
        *((kind, 2, 16) for kind in ((1, 1), (3, -2), "const", "modulated")),
    ])
    def test_shift_views_are_the_packed_sums_bit_for_bit(self, kind, n, N):
        # the table (separable rows) and a_hat (spectral terms, one delta a
        # term) against each term added only on its own eta indices, and
        # a_hat's rows placed at their xi: the same bits, sign bits included
        spec = GridSpec(n=n, N=N)
        if kind == "const":
            a = parse_symbol_spec("const:c=2-0.5j", spec)
        elif kind == "modulated":
            a = modulated(ching_for_grid(spec, d=0.5, theta=1 if n == 1 else (1, 1)), 2,
                          ModulationFunction(1.0, 2.0), spec)
        else:  # a Ching theta
            a = ching_for_grid(spec, d=0.5, theta=kind)
        terms = a.shift_terms(spec)
        kx = np.moveaxis(np.indices(spec.shape), 0, -1).reshape(-1, n)
        table = np.zeros((spec.npoints, spec.npoints), dtype=complex)
        for t in terms:
            phase = t.weight * pdlab.grid.lattice_phase(spec, kx, t.xi)
            table[:, t.idx] += np.multiply.outer(phase, t.g)
        xis, rows = symbols._shift_rows(terms, spec)
        ahat = np.zeros((spec.npoints,) + spec.shape, dtype=complex)
        ahat[np.ravel_multi_index(tuple((xis + N // 2).T), spec.shape)] = rows
        for got, want in ((a.table(spec), table), (symbol_partial_ft(a, spec), ahat)):
            assert got.tobytes() == want.reshape(spec.shape + spec.shape).tobytes()

    @pytest.mark.parametrize("n, N, theta", [(1, 2048, 1), (2, 32, (1, 1))])
    def test_shift_table_equals_the_full_outer_products(self, n, N, theta):
        # the table adds each level only on its annulus' columns, and the
        # spectral table only on the one row of its x-frequency; off them the
        # full-grid outer products of the separable and spectral terms add zeros
        spec = GridSpec(n=n, N=N)
        a = ching_symbol(0.5, theta=theta, j_max=int(np.log2(N)) - 2, spec=spec)
        for sym in (a, modulated(a, 3, ModulationFunction(1.0, 2.0), spec)):
            full = np.zeros(spec.shape + spec.shape, dtype=complex)
            for m, g in sym.separable_terms(spec):
                full += np.multiply.outer(m, g)
            assert np.array_equal(sym.table(spec), full)
            full = np.zeros(spec.shape + spec.shape, dtype=complex)
            for mhat, g in shift_spectra(sym, spec):
                full += np.multiply.outer(mhat, g)
            got = symbol_partial_ft(sym, spec)
            assert np.array_equal(got, full)
            assert np.array_equal(np.signbit(got.real), np.signbit(full.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(full.imag))

    def test_dense_route_keeps_exact_spectral_zeros(self):
        spec = GridSpec(n=1, N=128)
        a = mask_twisted_diagonal(random_elementary(spec, DEFAULT_FRAME, J=5, seed=3), B=2.0)
        assert check_twisted_diagonal(a, 2.0, spec=spec).violation_mass == 0.0
        b = modulated(a, 4, ModulationFunction(1.0, 2.0), spec)
        assert check_twisted_diagonal(b, 2.0, spec=spec).violation_mass == 0.0

    def test_x_spectrum_hard_zeros(self):
        spec = GridSpec(n=1, N=32)
        a = random_table_symbol(spec, seed=3)
        psi = ModulationFunction(1.0, 2.0)
        b = modulated(a, 1, psi, spec)
        bhat = partial_ft(b.table(spec), spec)
        dead = psi.radial(np.abs(spec.axis_freqs()) / 2.0) == 0.0
        assert np.max(np.abs(bhat[dead, :])) < 1e-13 * np.max(np.abs(bhat))


def structured_symbol(kind: str, spec: GridSpec) -> Symbol:
    theta = 1 if spec.n == 1 else (1, 1)
    return {
        "ching": lambda: ching_for_grid(spec, d=0.5, theta=theta),
        # |xi_j| = 3 2^j sits inside the transition band of a ball cut
        "modulated-shift": lambda: modulated(
            ching_for_grid(spec, d=0.5, theta=-3), 6, ModulationFunction(1.0, 2.0), spec),
        "constant": lambda: ConstantSymbol(2.0 - 0.5j),
        "elementary": lambda: random_elementary(spec, DEFAULT_FRAME, J=5, seed=7),
        "table": lambda: random_table_symbol(spec, seed=7),
    }[kind]()


class TestFilterSymbol:
    """filter_symbol in each structure against the multipliers applied to the
    exact a_hat of a tabulated twin."""

    CASES = [(1, 256, "ching"), (1, 2048, "ching"), (2, 32, "ching"),
             (1, 512, "modulated-shift"), (1, 256, "constant"), (1, 1024, "elementary"),
             (2, 32, "elementary"), (1, 256, "table"), (2, 32, "table")]

    @pytest.mark.parametrize("n, N, kind", CASES)
    @pytest.mark.parametrize("sides", ["x", "eta", "both", "none"])
    def test_matches_the_filtered_twin(self, n, N, kind, sides):
        spec = GridSpec(n, N)
        a = structured_symbol(kind, spec)
        rad = spec.freq_radius()
        # a ball cut whose zeros drop the high shift levels and x-spectra, and
        # a block indicator that drops the terms off its annulus
        x = DEFAULT_FRAME.ball_radial(3, rad) if sides in ("x", "both") else None
        eta = DEFAULT_FRAME.block_radial(4, rad) != 0 if sides in ("eta", "both") else None
        ahat = symbol_partial_ft(a, spec)
        ones = (1,) * n
        want = ahat * (1.0 if x is None else x.reshape(spec.shape + ones))
        want = want * (1.0 if eta is None else eta.reshape(ones + spec.shape))
        b = filter_symbol(a, spec, x, eta)
        scale = np.max(np.abs(ahat))
        assert np.max(np.abs(symbol_partial_ft(b, spec) - want)) <= 1e-13 * scale
        assert np.max(np.abs(b.table(spec) - symbols.partial_ift(want, spec))) <= 1e-13 * scale
        xo = np.ones(spec.shape) if x is None else x
        eo = np.ones(spec.shape) if eta is None else eta
        if kind == "table":
            assert isinstance(b, TabulatedSymbol)
        elif kind == "elementary":
            assert isinstance(b, SeparableSymbol)
            assert all(np.any(g) and np.any(mhat) for mhat, g in b.spectral_terms(spec))
            kept = [np.any(g * eo) and np.any(mhat * xo) for mhat, g in a.spectral_terms(spec)]
            assert len(b.separable_terms(spec)) == sum(kept)
        else:
            assert isinstance(b, ShiftSymbol)
            assert all(t.weight != 0.0 and np.any(t.g) for t in b.shift_terms(spec))
            kept = [xo[tuple(k + N // 2 for k in t.xi)] != 0.0 and np.any(t.g * eo.flat[t.idx])
                    for t in a.shift_terms(spec)]
            assert len(b.shift_terms(spec)) == sum(kept)
            if kind == "ching" and n == 1 and x is not None:
                assert sum(kept) < len(kept)  # the levels past the cut are gone

    @pytest.mark.parametrize("n, N", [(1, 1024), (2, 32)])
    def test_realizing_keeps_the_table_bits(self, n, N):
        spec = GridSpec(n, N)
        for kind in ("ching", "elementary", "table"):
            a = structured_symbol(kind, spec)
            assert np.array_equal(filter_symbol(a, spec).table(spec), a.table(spec))

    def test_a_g_that_eta_leaves_unchanged_is_shared(self):
        spec = GridSpec(1, 256)
        a = filter_symbol(random_elementary(spec, DEFAULT_FRAME, J=5, seed=7), spec)
        eta = np.ones(spec.npoints, dtype=bool)
        b = filter_symbol(a, spec, DEFAULT_FRAME.ball_radial(6, spec.freq_radius()), eta)
        assert len(b.separable_terms(spec)) == len(a.separable_terms(spec)) == 6
        assert all(gb is ga for (_, gb), (_, ga) in zip(b.separable_terms(spec),
                                                        a.separable_terms(spec)))
        assert all(mb is ma for mb, ma in zip(b.mhats, a.mhats))  # shared, not copied


class TestChiCutoff:
    def test_plateau_point(self):
        chi = ChiCutoff()
        assert chi(np.array([1.0, 0.0]), np.array([4.0, 0.0])) == 1.0

    def test_vanishing_regions(self):
        chi = ChiCutoff()
        # |xi| >= |eta| dead
        assert chi.from_radii(5.0, 5.0) == 0.0
        assert chi.from_radii(7.0, 5.0) == 0.0
        # |eta| <= 1 dead
        assert chi.from_radii(0.1, 1.0) == 0.0
        assert chi.from_radii(0.0, 0.5) == 0.0

    def test_scale_invariance(self):
        chi = ChiCutoff()
        rng = np.random.default_rng(0)
        xi = rng.uniform(0.0, 6.0, 200)
        eta = rng.uniform(2.0, 8.0, 200)
        for t in (1.0, 1.5, 3.0):
            assert np.allclose(chi.from_radii(t * xi, t * eta), chi.from_radii(xi, eta), atol=1e-12)


class TestLocalization:
    def test_support_rule_exact(self):
        spec = GridSpec(n=1, N=32)
        a = random_table_symbol(spec, seed=4)
        eps = 0.5
        loc = localize_symbol(a, eps, spec)
        ahat = partial_ft(loc.table(spec), spec)
        f = spec.axis_freqs().astype(float)
        s = np.abs(f[:, None] + f[None, :])
        forbidden = 1.0 + s > 2.0 * eps * np.abs(f)[None, :]
        total = np.sum(np.abs(ahat) ** 2)
        assert np.sum(np.abs(ahat[forbidden]) ** 2) < 1e-25 * total

    def test_strict_tdc_annihilates(self):
        spec = GridSpec(n=1, N=32)
        a = mask_twisted_diagonal(random_table_symbol(spec, seed=5), B=2.0)
        for eps in (0.25, 0.125):
            assert np.all(localize_symbol(a, eps, spec).table(spec) == 0.0)
        assert np.any(localize_symbol(a, 0.9, spec).table(spec) != 0.0)

    def test_ching_two_theta_annihilates(self):
        spec = GridSpec(n=1, N=64)
        a = ching_symbol(d=0.0, theta=2, j_max=4, spec=spec)
        # flagged B = 5/3, so eps <= 3/10 kills the localization
        assert a.tdc_B is not None
        eps = 1.0 / (2.0 * a.tdc_B)
        assert np.all(localize_symbol(a, eps, spec).table(spec) == 0.0)

    def test_antidiagonal_preserved_at_eps_one(self):
        spec = GridSpec(n=1, N=32)
        ahat = np.zeros((spec.N, spec.N), dtype=complex)
        i8 = spec.N // 2 + 8
        im8 = spec.N // 2 - 8
        ahat[im8, i8] = 1.0  # xi = -eta, |eta| = 8
        from pdlab.symbols import partial_ift

        a = TabulatedSymbol(spec, partial_ift(ahat, spec))
        loc = localize_symbol(a, 1.0, spec)
        got = partial_ft(loc.table(spec), spec)
        assert got[im8, i8] == pytest.approx(1.0, abs=1e-12)
        got[im8, i8] = 0.0
        assert np.max(np.abs(got)) < 1e-13

    def test_eps_range_validated(self):
        spec = GridSpec(n=1, N=32)
        a = random_table_symbol(spec)
        with pytest.raises(ValueError):
            localize_symbol(a, 0.0, spec)
        with pytest.raises(ValueError):
            localize_symbol(a, 1.5, spec)


class TestMultiIndex:
    def test_multiindex_validation(self):
        assert as_multiindex(2, 1) == (2,)
        assert as_multiindex((1, 0), 2) == (1, 0)
        with pytest.raises(ValueError):
            as_multiindex((1,), 2)
        with pytest.raises(ValueError):
            as_multiindex(-1, 1)


class TestTwistedDiagonalCheck:
    def test_x_independent_always_holds(self):
        spec = GridSpec(n=1, N=32)
        g = np.exp(-0.05 * spec.axis_freqs().astype(float) ** 2)
        a = SeparableSymbol(spec, [(np.ones(spec.shape, dtype=complex), g)])
        rep = check_twisted_diagonal(a, B=1.0)
        assert rep.holds and rep.violation_mass == 0.0

    def test_a_zero_symbol_holds_with_no_mass(self):
        rep = check_twisted_diagonal(ConstantSymbol(0.0), B=1.0, spec=GridSpec(n=1, N=32))
        assert rep == TdcReport(True, 0.0, 1.0, 1e-10)

    def test_plain_ching_fails_every_B(self):
        spec = GridSpec(n=1, N=128)
        a = ching_symbol(d=0.0, theta=1, j_max=5, spec=spec)
        for B in (1.0, 2.0, 4.0):
            rep = check_twisted_diagonal(a, B=B, spec=spec)
            assert not rep.holds
            assert rep.violation_mass > 1e-3

    def test_two_theta_variant_holds(self):
        spec = GridSpec(n=1, N=128)
        a = ching_symbol(d=0.0, theta=2, j_max=5, spec=spec)
        rep = check_twisted_diagonal(a, B=2.0, spec=spec)
        assert rep.holds and rep.violation_mass == 0.0

    def test_masked_symbol_holds(self):
        spec = GridSpec(n=1, N=32)
        a = mask_twisted_diagonal(random_table_symbol(spec, seed=6), B=2.0)
        rep = check_twisted_diagonal(a, B=2.0)
        assert rep.holds
        assert a.tdc_B == 2.0


class TestSigmaEstimate:
    def test_strict_tdc_reports_infinity(self):
        spec = GridSpec(n=1, N=64)
        a = mask_twisted_diagonal(random_table_symbol(spec, seed=7), B=2.0)
        (fit,) = sigma_order_estimate(a, [0], eps_grid=(0.25, 0.125, 0.0625))
        assert fit.sigma_hat == float("inf")
        assert fit.values == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("r,tol", [(0, 0.75), (1, 0.75)])
    def test_ching_zero_order(self, r, tol):
        spec = GridSpec(n=1, N=256)
        A = RadialBump(zero_order=r)
        a = ching_symbol(d=0.0, theta=1, A=A, j_max=6, spec=spec)
        tab = TabulatedSymbol(spec, a.table(spec), d=0.0)
        (fit,) = sigma_order_estimate(tab, [0])
        assert abs(fit.sigma_hat - r) <= tol

    def test_annulus_bound_stable_across_grids(self):
        # shell L2 values stay under C R^d (eps R)^{n/2 - |alpha|} with one C
        alpha = 0
        cs = []
        for N in (128, 256):
            spec = GridSpec(n=1, N=N)
            a = ching_symbol(d=0.0, theta=1, j_max=4, spec=spec)
            tab = TabulatedSymbol(spec, a.table(spec), d=0.0)
            (fit,) = sigma_order_estimate(tab, [alpha])
            best = 0.0
            for eps, shells in zip(fit.eps, fit.shell_values):
                for R, raw in shells.items():
                    bound = R**tab.d * (eps * R) ** (spec.n / 2.0 - alpha)
                    best = max(best, raw / bound)
            cs.append(best)
        assert abs(cs[1] - cs[0]) <= 0.2 * cs[0]

    def test_eps_validation(self):
        spec = GridSpec(n=1, N=32)
        with pytest.raises(ValueError):
            sigma_order_estimate(random_table_symbol(spec), [0], eps_grid=(1.0,))

    @pytest.mark.parametrize(
        "n,N,alphas",
        [(1, 512, [0, 1]), (2, 16, [(0, 0), (1, 0)])],
    )
    def test_all_alphas_in_one_call_equal_one_call_each(self, n, N, alphas):
        spec = GridSpec(n=n, N=N)
        if n == 1:
            A = RadialBump(zero_order=1, zero_width=0.25)
            a = ching_symbol(d=0.0, theta=1, A=A, j_max=7, spec=spec)
        else:
            a = random_elementary(spec, DEFAULT_FRAME, J=3, seed=2)
        together = sigma_order_estimate(a, alphas, (0.25, 0.125, 0.0625), spec)
        apart = [
            sigma_order_estimate(a, [alpha], (0.25, 0.125, 0.0625), spec)[0]
            for alpha in alphas
        ]
        assert together == apart

    @pytest.mark.parametrize("alphas", [[0], [0, 1], [0, 1, 2]])
    def test_one_localization_per_eps_for_every_alpha(self, monkeypatch, alphas):
        built = []
        real = symbols._localization

        def counted(eps):
            built.append(eps)
            return real(eps)

        monkeypatch.setattr(symbols, "_localization", counted)
        eps_grid = (0.25, 0.125, 0.0625)
        fits = sigma_order_estimate(random_table_symbol(GridSpec(n=1, N=64)), alphas, eps_grid)
        assert len(fits) == len(alphas)
        assert sorted(built) == sorted(eps_grid)


def shell_values(fits) -> list[float]:
    return [v for fit in fits for shells in fit.shell_values for v in shells.values()]


class TestSigmaGramRoute:
    """The shift-term route of sigma_order_estimate against the dense route
    on the same symbol's table and exact a_hat."""

    @pytest.mark.parametrize(
        "n,N,r,j_max,theta,alphas",
        [(1, 256, r, 6, 1, [0, 1, 2]) for r in (0, 1, 2)]
        + [(1, 512, r, 7, 1, [0, 1, 2]) for r in (0, 1, 2)]
        + [(2, 32, 1, 3, (1, 0), [(0, 0), (1, 0), (0, 1)])],
    )
    def test_matches_the_dense_route(self, n, N, r, j_max, theta, alphas):
        spec = GridSpec(n, N)
        A = RadialBump(zero_order=r, zero_width=0.25) if r else RadialBump()
        a = ching_symbol(0.0, theta=theta, A=A, j_max=j_max, spec=spec)
        dense = TabulatedSymbol(spec, a.table(spec), d=a.d, ahat=symbol_partial_ft(a, spec))
        gram, want = (shell_values(sigma_order_estimate(sym, alphas, spec=spec))
                      for sym in (a, dense))
        assert max(want) > 0.0
        assert np.max(np.abs(np.subtract(gram, want))) <= 1e-13 * max(want)

    def test_terms_sharing_a_row_add_up(self):
        # two copies of every level: each row of a_hat doubles, and so does
        # every shell value, against the dense route on the doubled table
        spec = GridSpec(1, 256)
        a = ching_symbol(0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=6,
                         spec=spec)
        twice = symbols.ShiftSymbol(spec, a.shift_terms(spec) * 2, d=0.0)
        dense = TabulatedSymbol(spec, twice.table(spec), d=0.0)
        gram, want = (shell_values(sigma_order_estimate(sym, [0, 1], spec=spec))
                      for sym in (twice, dense))
        assert np.max(np.abs(np.subtract(gram, want))) <= 1e-13 * max(want)
        single = shell_values(sigma_order_estimate(a, [0, 1], spec=spec))
        assert np.allclose(gram, 2.0 * np.array(single), rtol=1e-13, atol=0.0)

    def test_builds_no_table_and_runs_no_transform(self, monkeypatch, fft_calls):
        called = []

        def refuse(name):
            def spy(*args, **kwargs):
                called.append(name)
                raise AssertionError(f"{name} called on the shift route")
            return spy

        for name in ("symbol_partial_ft", "partial_ft", "partial_ift"):
            monkeypatch.setattr(symbols, name, refuse(name))
        monkeypatch.setattr(Symbol, "table", refuse("Symbol.table"))
        spec = GridSpec(1, 512)
        a = ching_symbol(0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=7,
                         spec=spec)
        (fit,) = sigma_order_estimate(a, [0], spec=spec)
        assert np.isfinite(fit.sigma_hat)
        assert called == [] and fft_calls == []

    def test_runs_past_the_table_guard(self):
        spec = GridSpec(1, 2**12)
        assert 16 * spec.npoints**2 > pdlab.grid.MEMORY_BUDGET
        a = ching_symbol(0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=10,
                         spec=spec)
        with pytest.raises(ValueError, match="table"):
            a.table(spec)
        rep = run_sigma_estimate(a, spec, r_expected=1.0)
        assert rep.verdicts["sigma_matches"] is True
        assert rep.verdicts["onset_matches"] is True


ZERO_BUMP = RadialBump(zero_order=1, zero_width=0.25)


def shift_symbol(kind: str, spec: GridSpec) -> Symbol:
    """A symbol with shift terms on spec's grid."""
    e1 = 1 if spec.n == 1 else (1, 0)
    if kind == "ching theta=1":
        return ching_for_grid(spec, theta=e1, A=ZERO_BUMP)
    if kind == "ching theta=2":
        return ching_for_grid(spec, theta=2 if spec.n == 1 else (2, 0), A=ZERO_BUMP)
    if kind == "modulated ching":
        return modulated(ching_for_grid(spec, d=0.5, theta=e1), 3, DEFAULT_PSI_FAMILY[0], spec)
    return ConstantSymbol(2.0)


def full_radius_mesh(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(|xi+eta|, |eta|) over the whole (xi, eta) product lattice."""
    f = [m.astype(float) for m in spec.freq_mesh()]
    s = [x.reshape(x.shape + (1,) * spec.n) + e for x, e in zip(f, f)]
    if spec.n == 1:
        return np.abs(s[0]), np.abs(f[0])
    return np.sqrt(s[0] ** 2 + s[1] ** 2), np.sqrt(f[0] ** 2 + f[1] ** 2)


def dense_shell_values(a, alphas, eps_grid, spec) -> list[float]:
    """sigma_order_estimate's shell values, in its order, from the whole
    a_hat: localized on the full mesh, inverse-transformed, squared moduli
    summed over each shell."""
    ahat = symbol_partial_ft(a, spec)
    sum_rad, eta_rad = full_radius_mesh(spec)
    tabs = [symbols.partial_ift(ahat * ChiCutoff().from_radii(sum_rad, eps * eta_rad), spec)
            for eps in eps_grid]
    e_axes, out = tuple(range(spec.n, 2 * spec.n)), []
    for alpha in (as_multiindex(al, spec.n) for al in alphas):
        for tab in tabs:
            sq = np.abs(symbols._eta_difference(tab, alpha, spec) if sum(alpha) else tab) ** 2
            out += [float(np.sqrt(np.max(np.sum(sq * mask, axis=e_axes))))
                    for _, mask in symbols._dyadic_shells(spec, alpha)]
    return out


def dense_mihlin(a, p, spec) -> np.ndarray:
    """mihlin_rhs over the cutoff's support |eta| <= 2R, summed over a's whole table."""
    rad, R = spec.freq_radius(), p.R_spec
    tab, mask = a.table(spec), rad <= 2.0 * R
    out = np.zeros(spec.shape)
    for total in range(derivative_order(p, spec.n) + 1):
        for alpha in _multiindices(spec.n, total):
            sq = np.abs(symbols._eta_difference(tab, alpha, spec) if total else tab) ** 2
            out += R**total * np.sqrt(np.sum(sq * mask, axis=tuple(range(spec.n, 2 * spec.n)))
                                      / R**spec.n)
    return out


TWISTED_TOOLS = {  # each of the five tools on (a, spec), as numbers
    "mask": lambda a, spec: mask_twisted_diagonal(a, 2.0, spec).table(spec),
    "localize": lambda a, spec: localize_symbol(a, 0.5, spec).table(spec),
    "check": lambda a, spec: [check_twisted_diagonal(a, B, spec=spec).violation_mass
                              for B in (1.0, 4.0)],
    "sigma": lambda a, spec: shell_values(sigma_order_estimate(
        a, [0, 1] if spec.n == 1 else [(0, 0), (1, 0)], (0.25,), spec)),
    "mihlin": lambda a, spec: mihlin_rhs(a, MaximalParams(0.5, spec.N / 8), spec=spec),
}


class TestTwistedDiagonalRows:
    """mask, localize, check, sigma and Mihlin read a_hat's rows in the
    symbol's own form: a shift symbol's R rows, any other symbol's whole
    a_hat (or, for Mihlin, its table)."""

    @pytest.mark.parametrize("kind, n, N", [
        (kind, n, N) for kind in ("ching theta=1", "ching theta=2", "modulated ching", "const")
        for n, N in ((1, 256), (2, 32))
    ] + [("ching theta=1", 1, 1024), ("ching theta=2", 1, 2048)])
    def test_shift_rows_match_the_dense_twin(self, monkeypatch, kind, n, N):
        spec = GridSpec(n, N)
        # the twin's derivative sum is checked at 48 bytes an entry, 192 MiB
        # at 1-d 2048: the oracle gets the budget it needs
        budget = max(pdlab.grid.MEMORY_BUDGET, 48 * spec.npoints**2)
        monkeypatch.setattr(pdlab.grid, "MEMORY_BUDGET", budget)
        a = shift_symbol(kind, spec)
        twin = TabulatedSymbol(spec, a.table(spec), ahat=symbol_partial_ft(a, spec))
        for name, tool in TWISTED_TOOLS.items():  # one pair of outputs held at a time
            got, want = tool(a, spec), tool(twin, spec)
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13 * scale, name

    @pytest.mark.parametrize("n, N", [(1, 256), (2, 32)])
    def test_every_lattice_xi_gives_the_full_mesh(self, n, N):
        spec = GridSpec(n, N)
        every = np.stack(np.unravel_index(np.arange(spec.npoints), spec.shape), -1) - N // 2
        got, want = symbols._sum_radius_mesh(spec, every), full_radius_mesh(spec)
        assert np.array_equal(got[0], want[0].reshape(got[0].shape))
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind", ["elementary", "table"])
    @pytest.mark.parametrize("n, N", [(1, 256), (2, 32)])
    def test_dense_symbols_match_the_full_mesh_bit_for_bit(self, kind, n, N):
        spec = GridSpec(n, N)
        a = (random_elementary(spec, DEFAULT_FRAME, J=4, seed=3) if kind == "elementary"
             else random_table_symbol(spec, seed=5))
        ahat, (sum_rad, eta_rad) = symbol_partial_ft(a, spec), full_radius_mesh(spec)
        for got, weight in (
            (mask_twisted_diagonal(a, 2.0, spec), 2.0 * (1.0 + sum_rad) >= eta_rad),
            (localize_symbol(a, 0.5, spec), ChiCutoff().from_radii(sum_rad, 0.5 * eta_rad)),
        ):
            assert isinstance(got, TabulatedSymbol)
            assert np.array_equal(got.ahat, ahat * weight)
            assert np.array_equal(got.table(spec), symbols.partial_ift(ahat * weight, spec))
        bad = np.sum(np.abs(ahat[2.0 * (sum_rad + 1.0) < eta_rad]) ** 2)
        assert (check_twisted_diagonal(a, 2.0, spec=spec).violation_mass
                == float(bad) / float(np.sum(np.abs(ahat) ** 2)))
        alphas = [0, 1] if n == 1 else [(0, 0), (1, 0)]
        fits = sigma_order_estimate(a, alphas, (0.25,), spec)
        assert shell_values(fits) == dense_shell_values(a, alphas, (0.25,), spec)
        p = MaximalParams(0.5, N / 8)
        assert np.array_equal(mihlin_rhs(a, p, spec=spec), dense_mihlin(a, p, spec))

    @pytest.mark.parametrize("kind", ["ching theta=1", "modulated ching", "const"])
    def test_a_masked_or_localized_shift_symbol_is_a_shift_symbol(self, kind):
        spec = GridSpec(1, 128)
        a = shift_symbol(kind, spec)
        # const localizes to zero: chi(eta, eps eta) vanishes for eps < 1
        for b in (mask_twisted_diagonal(a, 2.0, spec), localize_symbol(a, 0.5, spec)):
            assert isinstance(b, ShiftSymbol) and b.d == a.d
            assert all(t.g.size and np.all(t.g != 0) for t in b.terms)
        masked = mask_twisted_diagonal(a, 2.0, spec)
        assert masked.tdc_B == 2.0 and masked.terms

    def test_strict_sigma_and_mihlin_build_no_table(self, monkeypatch):
        def refuse(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} called on the shift route")
            return spy

        for name in ("symbol_partial_ft", "partial_ft", "partial_ift"):
            monkeypatch.setattr(symbols, name, refuse(name))
        monkeypatch.setattr(Symbol, "table", refuse("Symbol.table"))
        spec = GridSpec(1, 4096)
        assert 16 * spec.npoints**2 > pdlab.grid.MEMORY_BUDGET
        rep = run_sigma_estimate(ching_symbol(0.0, theta=2, j_max=9), spec, strict=True)
        assert rep.verdicts["sigma_infinite"] is True and rep.verdicts["class_membership"]
        spec = GridSpec(1, 8192)
        a = ching_symbol(0.0, theta=1, j_max=9, spec=spec)
        rhs = mihlin_rhs(a, MaximalParams(2.0, 64.0), spec=spec)
        assert rhs.shape == spec.shape and np.all(np.isfinite(rhs)) and rhs.max() > 0.0


class TestOperatorMatrix:
    def test_size_guard(self):
        spec = GridSpec(n=2, N=128)
        with pytest.raises(ValueError, match="dense"):
            kernel(ConstantSymbol(), spec)


class TestSerialization:
    def test_pdsy_round_trip(self, tmp_path):
        spec = GridSpec(n=1, N=16)
        a = random_table_symbol(spec, seed=12, d=0.75)
        path = tmp_path / "sym.pdsy"
        write_pdsy(a, spec, path)
        back = read_pdsy(path)
        assert back.spec == spec
        assert back.d == 0.75
        assert np.array_equal(back.table(spec), a.table(spec))

    def test_pdsy_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pdsy"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="PDSY"):
            read_pdsy(path)

    def test_pdsy_truncated(self, tmp_path):
        spec = GridSpec(n=1, N=16)
        path = tmp_path / "sym.pdsy"
        write_pdsy(random_table_symbol(spec), spec, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_pdsy(path)


class TestParseSymbolSpec:
    def test_theta_forms(self):
        assert _parse_theta("+1") == (1,)
        assert _parse_theta("-1") == (-1,)
        assert _parse_theta("2") == (2,)
        assert _parse_theta("e1") == (1, 0)
        assert _parse_theta("-e2") == (0, -1)
        assert _parse_theta("2e1") == (2, 0)
        assert _parse_theta("e1-e2") == (1, -1)

    def test_ching_string(self):
        spec = GridSpec(n=1, N=64)
        a = parse_symbol_spec("ching:d=0,theta=+1,jmax=4", spec)
        assert isinstance(a, ChingSymbol)
        assert a.j_max == 4 and a.theta == (1,)

    def test_ching_with_zero_order(self):
        spec = GridSpec(n=1, N=128)
        a = parse_symbol_spec("ching:d=0,theta=+1,jmax=5,zr=2,zw=0.05", spec)
        assert a.A.zero_order == 2 and a.A.zero_width == 0.05

    def test_const(self):
        spec = GridSpec(n=1, N=16)
        a = parse_symbol_spec("const:c=2", spec)
        assert isinstance(a, ConstantSymbol) and a.c == 2.0

    def test_elementary_random(self):
        spec = GridSpec(n=1, N=32)
        a = parse_symbol_spec("elementary:seed=3,J=4", spec)
        assert len(a.multipliers) == 5

    def test_elementary_manifest(self, tmp_path):
        from pdlab.grid import write_pdgf

        spec = GridSpec(n=1, N=16)
        rng = np.random.default_rng(1)
        names = []
        for j in range(3):
            m = random_band_limited(spec, 2.0**j, rng)
            write_pdgf(m, tmp_path / f"m{j}.pdgf")
            names.append(f"m{j}.pdgf")
        manifest = tmp_path / "sym.json"
        manifest.write_text(json.dumps({"d": 0.0, "multipliers": names}))
        a = parse_symbol_spec(f"elementary:file={manifest}", spec)
        assert len(a.multipliers) == 3

    def test_table_file(self, tmp_path):
        spec = GridSpec(n=1, N=16)
        path = tmp_path / "sym.pdsy"
        write_pdsy(random_table_symbol(spec, seed=13), spec, path)
        a = parse_symbol_spec(f"table:file={path}", spec)
        assert a.spec == spec
        with pytest.raises(ValueError, match="expected"):
            parse_symbol_spec(f"table:file={path}", GridSpec(n=1, N=32))

    def test_bad_inputs(self):
        spec = GridSpec(n=1, N=16)
        with pytest.raises(ValueError, match="unknown symbol kind"):
            parse_symbol_spec("mystery:x=1", spec)
        with pytest.raises(ValueError, match="bad symbol option"):
            parse_symbol_spec("ching:d", spec)

    @pytest.mark.parametrize("N", [64, 2048])
    def test_jmax_auto_is_the_deepest_truncation(self, N):
        spec = GridSpec(n=1, N=N)
        got = parse_symbol_spec("ching:jmax=auto", spec).shift_terms(spec)
        want = ching_for_grid(spec).shift_terms(spec)
        assert [(t.j, t.weight, t.xi) for t in got] == [(t.j, t.weight, t.xi) for t in want]
        assert all(np.array_equal(a.g_table(spec), b.g_table(spec)) for a, b in zip(got, want))

    def test_manifest_takes_no_generator_keys(self, tmp_path):
        manifest = tmp_path / "sym.json"
        manifest.write_text(json.dumps({"d": 0.0, "multipliers": []}))
        with pytest.raises(ValueError, match="takes no J, seed"):
            parse_symbol_spec(f"elementary:file={manifest},J=9,seed=5", GridSpec(n=1, N=16))

    def test_bad_values_name_key_and_spec(self):
        spec = GridSpec(n=1, N=16)
        for text, key in [("ching:d=abc", "d"), ("ching:jmax=deep", "jmax"),
                          ("ching:theta=e3", "theta"), ("const:c=x", "c")]:
            with pytest.raises(ValueError, match=f"bad value for {key} in '{text}'"):
                parse_symbol_spec(text, spec)
