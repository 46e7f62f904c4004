"""Experiment drivers: exact identities, verdict rules, and report plumbing."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import pdlab.spaces as spaces
import pdlab.symbols as symbols
from pdlab import (
    BLOW_UP,
    BOUNDED,
    INCONCLUSIVE,
    ConstantSymbol,
    DEFAULT_FRAME,
    ExperimentReport,
    GridSpec,
    ReportRow,
    SpaceParams,
    amplification_factor,
    ching_for_grid,
    ching_symbol,
    dyadic_increments,
    family_indices,
    fft_forward,
    lp_norm,
    mask_twisted_diagonal,
    parse_norm,
    random_elementary,
    run_continuity_table,
    run_counterexample,
    run_sigma_estimate,
    run_wavefront,
    single_mode,
    sobolev_norm,
)
from pdlab.frame import LPFrame
from pdlab.experiments import lacunary_coeffs, lacunary_spectrum
from pdlab.grid import (
    as_spectral, as_values, fft_inverse, random_band_spectrum, spectrum_from_coeffs,
)
from pdlab.operators import plan
from pdlab.spaces import space_norms
from pdlab.symbols import ChingSymbol, RadialBump


def family_ratio_oracle(N: int) -> float:
    # closed form of ||a v_N||_L2 / ||v_N||_H0 on the lattice: the operator
    # returns c_N times the constant mode while the input mass is the
    # orthogonal sum over the modulated copies
    mass = math.fsum(1.0 / (j * j) for j in range(N, N * N + 1))
    return amplification_factor(N) * math.log(N) / math.sqrt(mass)


class TestReportContainers:
    def test_row_validates(self):
        with pytest.raises(ValueError):
            ReportRow(0, "", 1.0, "f")
        with pytest.raises(ValueError):
            ReportRow(0, "q", 1.0, "")
        assert ReportRow(0, "q", 2, "f").value == 2.0

    def test_value_and_series(self):
        rows = (
            ReportRow(0, "x[a]", 1.0, "f"),
            ReportRow(1, "x[b]", 2.0, "f"),
            ReportRow(2, "y", 3.0, "f"),
        )
        rep = ExperimentReport("t", {}, rows, {}, {})
        assert rep.series("x") == {"a": 1.0, "b": 2.0}
        assert rep.value("y") == 3.0
        assert rep.values("x[a]") == [1.0]
        with pytest.raises(KeyError):
            rep.value("x[missing]")


class TestAmplificationFactor:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_matches_exact_rational_sum(self, N):
        harm = sum((Fraction(1, j) for j in range(N, N * N + 1)), Fraction(0))
        assert amplification_factor(N) == pytest.approx(
            float(harm) / math.log(N), rel=1e-14
        )

    def test_known_value(self):
        assert amplification_factor(3) == pytest.approx(1.2097, abs=5e-5)

    def test_decreases_along_family(self):
        vals = [amplification_factor(N) for N in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            amplification_factor(1)


class TestLacunaryInput:
    def test_coefficient_layout(self):
        spec = GridSpec(n=1, N=2**6)
        u = as_values(lacunary_spectrum(spec, 2))
        c = fft_forward(u).coeffs
        eta = spec.axis_freqs()
        log2 = math.log(2)
        for j in (2, 3, 4):
            (idx,) = np.nonzero(eta == 2**j)
            assert c[idx[0]] == pytest.approx(1.0 / (j * log2), rel=1e-12)
        live = np.abs(c) > 1e-13
        assert live.sum() == 3

    def test_h0_norm_oracle_and_monotone(self):
        spec = GridSpec(n=1, N=2**11)
        norms = []
        for N in (2, 3):
            u = as_values(lacunary_spectrum(spec, N))
            mass = math.fsum(
                (1.0 / (j * math.log(N))) ** 2 for j in range(N, N * N + 1)
            )
            expect = math.sqrt(2.0 * math.pi * mass)
            got = sobolev_norm(fft_forward(u), 0.0)
            assert got == pytest.approx(expect, rel=1e-12)
            norms.append(got)
        assert norms[0] > norms[1]

    def test_d_rescales_modes(self):
        spec = GridSpec(n=1, N=2**6)
        u0 = as_values(lacunary_spectrum(spec, 2, d=0.0))
        u1 = as_values(lacunary_spectrum(spec, 2, d=1.0))
        c0 = fft_forward(u0).coeffs
        c1 = fft_forward(u1).coeffs
        eta = spec.axis_freqs()
        for j in (2, 3, 4):
            (idx,) = np.nonzero(eta == 2**j)
            assert c1[idx[0]] == pytest.approx(c0[idx[0]] * 2.0 ** (-j), rel=1e-12)

    def test_guards(self):
        spec = GridSpec(n=1, N=64)
        with pytest.raises(ValueError):
            lacunary_spectrum(spec, 1)
        with pytest.raises(ValueError):
            lacunary_spectrum(spec, 2, theta=0)
        with pytest.raises(ValueError, match="inside the lattice"):
            lacunary_spectrum(spec, 3, theta=1)
        with pytest.raises(ValueError):
            lacunary_spectrum(GridSpec(n=2, N=16), 2)

    def test_family_indices(self):
        assert family_indices(GridSpec(1, 2**11)) == [2, 3]
        assert family_indices(GridSpec(1, 2**18)) == [2, 3, 4]
        assert family_indices(GridSpec(1, 64)) == [2]
        assert family_indices(GridSpec(1, 64), theta=4) == []


class TestChingForGrid:
    def test_deepest_truncation(self):
        spec = GridSpec(1, 2**18)
        a = ching_for_grid(spec)
        assert a.j_max == 16
        assert 2.0**a.j_max * 1.25 <= spec.N / 2 < 2.0 ** (a.j_max + 1) * 1.25

    def test_theta_shrinks_cap(self):
        spec = GridSpec(1, 512)
        assert ching_for_grid(spec, theta=2).j_max == 7
        assert ching_for_grid(spec, theta=1).j_max == 7
        assert ching_for_grid(GridSpec(1, 1024), theta=1).j_max == 8

    def test_too_small(self):
        with pytest.raises(ValueError):
            ching_for_grid(GridSpec(1, 8), theta=8)


class TestCounterexample:
    def test_full_family_on_default_grid(self):
        rep = run_counterexample()
        assert rep.environment["grid"] is None  # the default runs in mode space, on no grid
        assert rep.parameters["j_max"] == 16
        ratios = rep.series("ratio")
        assert list(ratios) == ["N=2", "N=3", "N=4"]
        for N in (2, 3, 4):
            assert rep.value(f"residual[N={N}]") <= 1e-10
            assert ratios[f"N={N}"] == pytest.approx(family_ratio_oracle(N), rel=1e-10)
            assert rep.value(f"control ratio[N={N}]") == pytest.approx(1.0, abs=1e-12)
            assert rep.value(f"c[N={N}]") == amplification_factor(N)
        vals = list(ratios.values())
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] / vals[0] > 1.9
        assert rep.verdicts == {
            "identity": True,
            "blow_up": True,
            "control_no_blow_up": True,
        }

    def test_identity_residuals_at_rounding_level(self):
        # the shift path moves each level's mass exactly; no phase table
        rep = run_counterexample()
        for N in (2, 3, 4):
            assert rep.value(f"residual[N={N}]") <= 1e-14

    def test_identity_holds_for_positive_order(self):
        rep = run_counterexample(d=0.5, N_list=(2, 3), spec=GridSpec(1, 2**11))
        assert rep.verdicts["identity"] is True
        assert rep.verdicts["control_no_blow_up"] is True
        # two members do not clear the growth factor; the flag stays down
        assert rep.verdicts["blow_up"] is False
        ratios = list(rep.series("ratio").values())
        assert ratios[1] > ratios[0]

    def test_deterministic(self):
        kw = dict(d=0.5, N_list=(2, 3), spec=GridSpec(1, 2**11))
        assert run_counterexample(**kw) == run_counterexample(**kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_counterexample(N_list=())
        with pytest.raises(ValueError):
            run_counterexample(N_list=(3, 2), spec=GridSpec(1, 2**11))
        with pytest.raises(ValueError):
            run_counterexample(N_list=(2, 2), spec=GridSpec(1, 2**11))
        with pytest.raises(ValueError):
            run_counterexample(N_list=(2,), spec=GridSpec(2, 64))


class TestModeSpace:
    def test_default_run_makes_no_fft(self, fft_calls):
        rep = run_counterexample()
        assert fft_calls == []
        assert rep.verdicts == {"identity": True, "blow_up": True, "control_no_blow_up": True}

    def test_family_runs_to_N8_past_any_grid(self):
        # N = 8 reaches mode 2^64
        rep = run_counterexample(N_list=range(2, 9))
        assert rep.verdicts == {"identity": True, "blow_up": True, "control_no_blow_up": True}
        assert rep.parameters["j_max"] == 64
        for N in range(2, 9):
            assert rep.value(f"residual[N={N}]") <= 1e-15
            assert rep.value(f"ratio[N={N}]") == pytest.approx(family_ratio_oracle(N), rel=1e-13)
            assert rep.value(f"control ratio[N={N}]") == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("d", [0.0, 0.5])
    def test_rows_match_the_lattice_oracle(self, d):
        modes = run_counterexample(d=d, N_list=(2, 3))
        lattice = run_counterexample(d=d, N_list=(2, 3), spec=GridSpec(1, 2**11))
        assert modes.parameters == lattice.parameters and modes.verdicts == lattice.verdicts
        assert modes.environment == {"grid": None}
        assert lattice.environment["grid"] == {"n": 1, "N": 2**11}
        for m, g in zip(modes.rows, lattice.rows, strict=True):
            assert (m.quantity, m.formula) == (g.quantity, g.formula)
            if m.quantity.startswith("residual"):
                assert m.value <= 1e-15 and g.value <= 1e-10
            else:
                assert m.value == pytest.approx(g.value, rel=1e-13)

    def test_apply_modes_matches_the_shift_route(self):
        # positive modes, whose shifts stay inside the lattice, through every level
        spec = GridSpec(1, 2**11)
        a = ching_for_grid(spec, d=0.5)
        rng = np.random.default_rng(3)
        etas = rng.choice(np.arange(1, spec.N // 2), 60, replace=False)
        modes = {int(e): complex(*rng.standard_normal(2)) for e in etas}
        out = a.apply_modes(modes)
        lattice = as_spectral(plan(a, spec)(spectrum_from_coeffs(spec, modes))).coeffs
        exact = spectrum_from_coeffs(spec, out).coeffs
        assert np.max(np.abs(exact - lattice)) <= 1e-13 * np.max(np.abs(exact))

    def test_apply_modes_is_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            ChingSymbol(0.0, (1, 1)).apply_modes({3: 1.0})

    def test_lacunary_values_place_the_shared_coefficients(self):
        spec = GridSpec(1, 2**11)
        u = as_values(lacunary_spectrum(spec, 3, d=0.5, theta=-1))
        c = spectrum_from_coeffs(spec, lacunary_coeffs(3, 0.5, -1))
        assert np.array_equal(u.values, fft_inverse(c).values)


class TestWavefront:
    def test_default_flip(self):
        rep = run_wavefront()
        assert rep.value("flip residual") <= 1e-10
        assert rep.value("input positive fraction") >= 1.0 - 1e-10
        assert rep.value("output negative fraction") >= 1.0 - 1e-10
        assert rep.value("control negative fraction") <= 1e-10
        assert rep.value("holder slope") == pytest.approx(0.5, abs=0.02)
        assert rep.parameters["holder_rungs"] == 9
        assert rep.verdicts == {
            "flip_exact": True,
            "spectrum_flipped": True,
            "control_no_flip": True,
            "holder_consistent": True,
        }

    def test_spectra_are_exact(self, fft_calls):
        # one inverse FFT for the flip residual, one for the Hoelder ladder
        rep = run_wavefront(J=5, spec=GridSpec(1, 256))
        assert fft_calls == [("fft_inverse", GridSpec(1, 256)), ("fft_inverse", GridSpec(1, 4096))]
        assert rep.value("control negative fraction") == 0.0
        assert rep.value("input positive fraction") == rep.value("output negative fraction") == 1.0

    @pytest.mark.parametrize("d", [0.2, 0.8, 1.0])
    def test_holder_exponent_tracks_d(self, d):
        rep = run_wavefront(d=d, J=5, spec=GridSpec(1, 256))
        assert rep.value("holder slope") == pytest.approx(d, abs=0.05)
        assert rep.verdicts["holder_consistent"] is True
        assert rep.verdicts["flip_exact"] is True

    def test_order_above_one_skips_holder(self):
        rep = run_wavefront(d=1.5, J=5, spec=GridSpec(1, 256))
        assert math.isnan(rep.value("holder slope"))
        assert "holder_consistent" not in rep.verdicts
        assert rep.series("increment") == {}
        assert rep.verdicts["flip_exact"] is True

    def test_guards(self):
        with pytest.raises(ValueError):
            run_wavefront(J=0)
        with pytest.raises(ValueError, match="shifted mode"):
            run_wavefront(J=8, spec=GridSpec(1, 256))
        with pytest.raises(ValueError):
            run_wavefront(spec=GridSpec(2, 64))

    def test_deterministic(self):
        assert run_wavefront(d=0.4, J=4, spec=GridSpec(1, 128)) == run_wavefront(
            d=0.4, J=4, spec=GridSpec(1, 128)
        )


class TestDyadicIncrements:
    def test_single_mode_oracle(self):
        # second difference of e^{ikx} has modulus 4 sin^2(k h / 2), any x
        spec = GridSpec(1, 256)
        u = single_mode(spec, 4)
        got = dyadic_increments(u, [2, 3, 4])
        for m, val in zip([2, 3, 4], got):
            h = 2**m * spec.spacing
            assert val == pytest.approx(4.0 * math.sin(4 * h / 2.0) ** 2, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            dyadic_increments(single_mode(GridSpec(2, 16), (0, 0)), [1])
        with pytest.raises(ValueError):
            dyadic_increments(single_mode(GridSpec(1, 16), 1), [4])


class TestParseNorm:
    def test_lebesgue_and_sobolev(self):
        spec = GridSpec(1, 64)
        u = as_values(lacunary_spectrum(spec, 2))
        label, fn, framed = parse_norm("L:p=2")
        assert label == "L:p=2" and framed is None
        assert fn(u) == lp_norm(u, 2)
        _, fn_h, framed_h = parse_norm("H:s=1")
        assert framed_h is None
        assert fn_h(u) == sobolev_norm(fft_forward(u), 1.0)

    def test_dyadic_scales(self):
        spec = GridSpec(1, 64)
        u = as_values(lacunary_spectrum(spec, 2))
        label, fn, framed = parse_norm("F:s=0.5,p=2,q=1")
        sp = SpaceParams(0.5, 2.0, 1.0, "F")
        assert framed == sp
        assert fn(u) == pytest.approx(space_norms(u, [sp])[0], rel=1e-13)
        label_b, fn_b, _ = parse_norm(sp)
        assert label_b.startswith("F:")
        assert fn_b(u) == fn(u)

    def test_lowercase_heads(self):
        spec = GridSpec(1, 64)
        u = single_mode(spec, 3)
        _, fn, _ = parse_norm("l:p=inf")
        assert fn(u) == lp_norm(u, math.inf)

    def test_one_case_rule_for_every_kind(self):
        for text in ("b:s=0,p=2,q=2", "f:s=0.5,p=2,q=1", "h:s=1", "l:p=2"):
            label, _, framed = parse_norm(text)
            assert label == text
            assert framed == parse_norm(text[0].upper() + text[1:])[2]
        with pytest.raises(ValueError, match="bad value for p in 'l:p=two'"):
            parse_norm("l:p=two")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_norm("L:q=2")
        with pytest.raises(ValueError):
            parse_norm("H:p=1")
        with pytest.raises(ValueError):
            parse_norm("L:p=")
        with pytest.raises(ValueError):
            parse_norm("Z:s=1,p=2,q=2")

    def test_lebesgue_and_sobolev_use_the_option_grammar(self):
        with pytest.raises(ValueError, match="unknown .* option 'q'"):
            parse_norm("L:p=2,q=3")
        with pytest.raises(ValueError, match="unknown .* option 'p'"):
            parse_norm("h:s=1,p=2")


@pytest.fixture
def shift_term_calls(monkeypatch):
    """(symbol, grid) of every ChingSymbol.shift_terms call; the symbols are
    kept alive, so their ids stay distinct."""
    calls = []
    real = ChingSymbol.shift_terms

    def counted(self, spec):
        calls.append((self, spec))
        return real(self, spec)

    monkeypatch.setattr(ChingSymbol, "shift_terms", counted)
    return calls


class TestPlansAndPasses:
    def test_counterexample_plans_its_symbol_once(self, shift_term_calls):
        rep = run_counterexample(N_list=(2, 3), spec=GridSpec(1, 2**11))
        assert rep.verdicts["identity"]
        assert len(shift_term_calls) == 1
        # mode space builds no lattice terms at all
        assert run_counterexample(N_list=(2, 3)).verdicts["identity"]
        assert len(shift_term_calls) == 1

    def test_continuity_plans_once_per_grid(self, shift_term_calls):
        run_continuity_table(
            lambda spec: ching_for_grid(spec), cases=[("F:s=0,p=2,q=1", "L:p=2")],
            grids=(64, 128, 2048), trials=3,
        )
        keys = [(id(a), spec) for a, spec in shift_term_calls]
        assert len(keys) == 3 and len(set(keys)) == 3

    def test_one_block_pass_per_framed_function(self, monkeypatch):
        seen = []
        real = spaces.lp_block_coeffs

        def spy(u, frame, j_max=None):
            seen.append(u)
            return real(u, frame, j_max)

        monkeypatch.setattr(spaces, "lp_block_coeffs", spy)
        grids, trials = (64, 128), 3
        rep = run_continuity_table(
            lambda spec: ching_for_grid(spec),
            cases=[("F:s=0,p=2,q=1", "B:s=0,p=2,q=2"), ("B:s=0,p=2,q=2", "F:s=0.5,p=2,q=1"),
                   ("L:p=2", "B:s=0,p=2,q=2")],
            grids=grids, trials=trials,
        )
        # every input once for its sources, every output and control output
        # once for its targets
        inputs = sum(trials + len(family_indices(GridSpec(1, g))) for g in grids)
        assert len(seen) == 3 * inputs
        assert len(set(map(id, seen))) == len(seen)
        assert len(rep.series("est")) == 3 * len(grids)


class TestCoefficientInputs:
    """Continuity inputs as exact coefficients: every consumer skips its
    forward FFT, and a block pass skips the blocks the spectrum misses."""

    SPEC = GridSpec(1, 2**11)

    def inputs(self):
        spec = self.SPEC
        probes = [random_band_spectrum(spec, 0.4 * (spec.N // 2), np.random.default_rng([0, 1, t]))
                  for t in range(2)]
        return probes + [spectrum_from_coeffs(spec, lacunary_coeffs(N, 0.5))
                         for N in family_indices(spec)]

    def test_consumers_give_the_values_of_grid_inputs(self):
        a = ching_for_grid(self.SPEC, d=0.5)
        op = plan(a, self.SPEC)
        # q >= 1: with q < 1 the grid route's transform dust, ~1e-16 in every
        # mode its forward FFT makes, is raised to the power q and shows
        spaces_ = [SpaceParams(0.0, 2.0, 1.0, "F"), SpaceParams(0.0, 2.0, 2.0, "B"),
                   SpaceParams(0.5, 1.5, math.inf, "B"), SpaceParams(-0.5, 1.0, 1.5, "F")]
        _, h_norm, _ = parse_norm("H:s=0.5")
        for c in self.inputs():
            u = fft_inverse(c)
            for got, want in zip(space_norms(c, spaces_), space_norms(u, spaces_), strict=True):
                assert got == pytest.approx(want, rel=1e-13)
            assert h_norm(c) == pytest.approx(h_norm(u), rel=1e-13)
            y, y_grid = as_values(op(c)).values, as_values(op(u)).values
            assert np.max(np.abs(y - y_grid)) <= 1e-13 * np.max(np.abs(y_grid))

    def test_block_pass_on_v2_runs_no_fft(self, fft_calls):
        c = spectrum_from_coeffs(self.SPEC, lacunary_coeffs(2))
        moduli = list(spaces.lp_block_moduli(c, DEFAULT_FRAME))
        # modes 4, 8 and 16 each sit alone in one block: a constant modulus
        assert [j for j, a in enumerate(moduli) if a is not None] == [2, 3, 4]
        assert fft_calls == []
        space_norms(c, [SpaceParams(0.0, 2.0, 1.0, "F"), SpaceParams(0.0, 2.0, 2.0, "B")])
        assert fft_calls == []

    def test_table_transforms_no_input_forward(self, fft_calls):
        grids = (64, 128)
        inputs = sum(2 + len(family_indices(GridSpec(1, g))) for g in grids)
        # the L sources: one inverse FFT per input, for p = inf (L2 is a
        # Parseval sum); the plan outputs stay coefficients for both targets
        run_continuity_table(ching_for_grid, cases=[("L:p=2", "L:p=2"), ("L:p=inf", "H:s=0")],
                             grids=grids, trials=2)
        names = [name for name, _ in fft_calls]
        assert names.count("fft_inverse") == inputs
        assert names.count("fft_forward") == 0
        fft_calls.clear()
        run_continuity_table(ching_for_grid, cases=[("F:s=0,p=2,q=1", "L:p=2"),
                                                    ("H:s=0", "L:p=2")], grids=grids, trials=2)
        assert [name for name, _ in fft_calls].count("fft_forward") == 0


def serial_continuity(symbol_for, cases, grids, trials, seed=0, band_fraction=0.4):
    """est and control est of every case on every grid, and the last grid's
    family ratios, input by input: each probe or family member as
    coefficients, its plans' outputs and their norms, with each framed norm
    from its own space_norms."""
    def norm(fn, sp, u):
        return fn(u) if sp is None else space_norms(u, [sp])[0]

    est, control, family = {}, {}, {}
    for gi, g in enumerate(grids):
        spec = GridSpec(1, g)
        sym = symbol_for(spec)
        op, control_op = plan(sym, spec), plan(ConstantSymbol(1.0), spec)
        inputs = [
            (None, random_band_spectrum(spec, band_fraction * (g // 2),
                                        np.random.default_rng([seed, gi, t])))
            for t in range(trials)
        ] + [(N, spectrum_from_coeffs(spec, lacunary_coeffs(N, sym.d)))
             for N in family_indices(spec)]
        outs = [(op(u), control_op(u)) for _, u in inputs]
        for src, tgt in cases:
            (src_lab, src_fn, src_sp), (tgt_lab, tgt_fn, tgt_sp) = parse_norm(src), parse_norm(tgt)
            lab = f"{src_lab} -> {tgt_lab}"
            ratios = [
                (N, norm(tgt_fn, tgt_sp, y) / sn, norm(tgt_fn, tgt_sp, y0) / sn)
                for (N, u), (y, y0) in zip(inputs, outs)
                if (sn := norm(src_fn, src_sp, u)) > 0.0
            ]
            est[f"{lab} @N={g}"] = max(r for _, r, _ in ratios)
            control[f"{lab} @N={g}"] = max(r for _, _, r in ratios)
            if gi == len(grids) - 1:
                family.update({f"{lab} N={N}": r for N, r, _ in ratios if N is not None})
    return est, control, family


class TestOneTaskPerInput:
    CASES = [("F:s=0,p=2,q=1", "L:p=2"), ("B:s=0,p=2,q=2", "H:s=0"),
             ("L:p=2", "B:s=0,p=2,q=2"), ("H:s=0.5", "F:s=0.5,p=2,q=1")]

    def test_rows_equal_across_thread_counts_and_the_serial_reference(self, monkeypatch, pooled):
        kw = dict(cases=self.CASES, grids=(64, 2**12), trials=3, seed=5)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PDLAB_THREADS", threads)
            reports.append(run_continuity_table(ching_for_grid, **kw))
        one, two = reports
        assert one.rows == two.rows and one.verdicts == two.verdicts
        assert pooled
        est, control, family = serial_continuity(
            ching_for_grid, self.CASES, (64, 2**12), trials=3, seed=5
        )
        assert two.series("est") == est
        assert two.series("control est") == control
        assert two.series("family") == family and len(family) == 2 * len(self.CASES)

    def test_memory_holds_only_the_workers_inputs(self, monkeypatch, pooled):
        # the stage-by-stage table held every input, output and control
        # output of a grid at once: on this call its tracemalloc peak was
        # 26.28-27.05 MiB (1-d 2^16, two threads, a fresh frame so the block
        # table is built inside the measurement); one task per input peaks
        # near 22 MiB
        monkeypatch.setenv("PDLAB_THREADS", "2")
        frame = LPFrame(DEFAULT_FRAME.psi, DEFAULT_FRAME.h)
        tracemalloc.start()
        try:
            run_continuity_table(
                ching_for_grid, cases=[("F:s=0,p=2,q=1", "L:p=2"), ("B:s=0,p=2,q=2", "L:p=2")],
                grids=(64, 2**16), trials=2, frame=frame,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26.28 * 2**20
        assert pooled


class TestContinuityTable:
    def test_identity_all_ratios_one(self):
        rep = run_continuity_table(
            ConstantSymbol(1.0), cases=[("L:p=2", "L:p=2")], grids=(64, 128), trials=3
        )
        for v in rep.series("est").values():
            assert v == 1.0
        for v in rep.series("control est").values():
            assert v == 1.0
        for v in rep.series("family").values():
            assert v == 1.0
        assert rep.verdicts["L:p=2 -> L:p=2"] == BOUNDED
        assert rep.verdicts["L:p=2 -> L:p=2 [control]"] == "clean"

    def test_lacunary_symbol_borderline_cases(self):
        # the same operator is stable from the q=1 scale and blows up on
        # the q=2 scale, where the family certifies unboundedness
        rep = run_continuity_table(
            lambda spec: ching_for_grid(spec, d=0.0),
            cases=[("F:s=0,p=2,q=1", "L:p=2"), ("B:s=0,p=2,q=2", "L:p=2")],
            grids=(2**7, 2**11, 2**18),
            trials=2,
        )
        f_lab = "F:s=0,p=2,q=1 -> L:p=2"
        b_lab = "B:s=0,p=2,q=2 -> L:p=2"
        assert rep.verdicts[f_lab] == BOUNDED
        assert rep.verdicts[b_lab] == BLOW_UP
        assert rep.verdicts[f_lab + " [control]"] == "clean"
        assert rep.verdicts[b_lab + " [control]"] == "clean"
        fam = rep.series("family")
        for N in (2, 3, 4):
            assert fam[f"{f_lab} N={N}"] == pytest.approx(1.0, abs=1e-12)
            assert fam[f"{b_lab} N={N}"] == pytest.approx(
                family_ratio_oracle(N), rel=1e-6
            )
        for g in (2**7, 2**11, 2**18):
            assert rep.series("est")[f"{f_lab} @N={g}"] <= 1.0 + 1e-12

    def test_doubling_rule_fires_without_sourcing(self):
        rep = run_continuity_table(
            lambda spec: ching_for_grid(spec, d=1.5),
            cases=[("L:p=2", "L:p=2"), ("H:s=1.5", "H:s=0")],
            grids=(64, 128, 256),
            trials=4,
            band_fraction=0.9,
        )
        assert rep.verdicts["L:p=2 -> L:p=2"] == BLOW_UP
        assert rep.verdicts["H:s=1.5 -> H:s=0"] == BOUNDED
        est = [rep.series("est")[f"L:p=2 -> L:p=2 @N={g}"] for g in (64, 128, 256)]
        assert est[1] / est[0] >= 2.0 and est[2] / est[1] >= 2.0

    def test_growth_below_both_blow_up_rules_is_inconclusive(self):
        # the estimates grow past the stability band, 1.5, but below the
        # doubling rule's factor, and the family stays below its own
        rep = run_continuity_table(
            lambda spec: ching_for_grid(spec, d=1.5),
            cases=[("L:p=2", "L:p=2")],
            grids=(64, 128),
            trials=2,
            band_fraction=0.9,
            growth_factor=100.0,
            family_factor=100.0,
        )
        est = [rep.series("est")[f"L:p=2 -> L:p=2 @N={g}"] for g in (64, 128)]
        assert 1.5 < est[1] / est[0] < 100.0
        assert rep.verdicts["L:p=2 -> L:p=2"] == INCONCLUSIVE
        assert rep.verdicts["L:p=2 -> L:p=2 [control]"] == "clean"

    def test_masked_symbol_stable_all_orders(self):
        def factory(spec):
            return mask_twisted_diagonal(
                random_elementary(spec, DEFAULT_FRAME, J=4, seed=11), B=2.0, spec=spec
            )

        rep = run_continuity_table(
            factory,
            cases=[("H:s=-1", "H:s=-1"), ("H:s=0", "H:s=0"), ("H:s=1", "H:s=1")],
            grids=(128, 256, 512),
            trials=4,
        )
        for s in (-1, 0, 1):
            lab = f"H:s={s} -> H:s={s}"
            assert rep.verdicts[lab] == BOUNDED
            assert rep.verdicts[lab + " [control]"] == "clean"

    def test_family_rows_only_when_feasible(self):
        rep = run_continuity_table(
            ConstantSymbol(1.0), cases=[("L:p=2", "L:p=2")], grids=(16, 32), trials=2
        )
        assert rep.series("family") == {}
        assert rep.verdicts["L:p=2 -> L:p=2"] == BOUNDED

    def test_deterministic(self):
        kw = dict(cases=[("L:p=2", "L:p=1")], grids=(64, 128), trials=3, seed=7)
        assert run_continuity_table(ConstantSymbol(1.0), **kw) == run_continuity_table(
            ConstantSymbol(1.0), **kw
        )

    def test_environment_records_sweep_and_frame(self):
        rep = run_continuity_table(
            ConstantSymbol(1.0),
            cases=[("B:s=0,p=2,q=2", "L:p=2")],
            grids=(32, 64),
            trials=2,
        )
        assert rep.environment["grids"] == [32, 64]
        assert rep.environment["frame"] == {"r": 1.0, "R": 2.0, "h": 3}
        rep_plain = run_continuity_table(
            ConstantSymbol(1.0), cases=[("L:p=2", "L:p=2")], grids=(32, 64), trials=2
        )
        assert "frame" not in rep_plain.environment

    def test_validation(self):
        a = ConstantSymbol(1.0)
        with pytest.raises(ValueError):
            run_continuity_table(a, cases=[("L:p=2", "L:p=2")], grids=(64,))
        with pytest.raises(ValueError):
            run_continuity_table(a, cases=[("L:p=2", "L:p=2")], grids=(128, 64))
        with pytest.raises(ValueError):
            run_continuity_table(a, cases=[], grids=(64, 128))
        with pytest.raises(ValueError):
            run_continuity_table(a, cases=[("L:p=2", "L:p=2")], grids=(64, 128), trials=0)


class TestSigmaEstimate:
    @pytest.mark.parametrize(
        "r,sigma_expect",
        [(0, -0.009), (1, 0.966), (2, 1.928)],
    )
    def test_zero_order_recovered(self, r, sigma_expect):
        spec = GridSpec(1, 512)
        A = RadialBump(zero_order=r, zero_width=0.25) if r else RadialBump()
        a = ching_symbol(0.0, theta=1, A=A, j_max=7, spec=spec)
        rep = run_sigma_estimate(a, spec, r_expected=float(r))
        assert rep.series("sigma_hat")["alpha=0"] == pytest.approx(sigma_expect, abs=0.05)
        assert rep.value("onset") == -float(r)
        assert rep.verdicts["sigma_matches"] is True
        assert rep.verdicts["onset_matches"] is True
        assert rep.verdicts["control_regular"] is True

    def test_one_partial_ft_per_run(self, monkeypatch):
        calls = []
        real = symbols.partial_ft

        def counted(table, spec):
            calls.append(spec)
            return real(table, spec)

        monkeypatch.setattr(symbols, "partial_ft", counted)
        spec = GridSpec(1, 512)
        a = ching_symbol(
            0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=7, spec=spec
        )
        run_sigma_estimate(a, spec, r_expected=1.0)
        # a shift symbol takes the Gram route, which transforms nothing
        assert calls == []

    def test_growth_slopes_track_order(self):
        spec = GridSpec(1, 512)
        a = ching_symbol(
            0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=7, spec=spec
        )
        rep = run_sigma_estimate(a, spec, r_expected=1.0)
        slopes = rep.series("growth slope")
        assert slopes["s=-2.0"] == pytest.approx(1.0, abs=0.1)
        assert slopes["s=0.0"] == pytest.approx(-1.0, abs=0.1)

    def test_estimate_stable_across_grids(self):
        vals = []
        for N, jmax in ((512, 7), (1024, 8)):
            spec = GridSpec(1, N)
            a = ching_symbol(
                0.0,
                theta=1,
                A=RadialBump(zero_order=1, zero_width=0.25),
                j_max=jmax,
                spec=spec,
            )
            rep = run_sigma_estimate(a, spec, r_expected=1.0)
            vals.append(rep.series("sigma_hat")["alpha=0"])
        assert abs(vals[1] - vals[0]) <= 0.06

    def test_strict_class_reports_infinity(self):
        spec = GridSpec(1, 512)
        a = ching_symbol(0.0, theta=2, j_max=7, spec=spec)
        rep = run_sigma_estimate(a, spec, strict=True)
        assert rep.series("sigma_hat") == {"alpha=0": math.inf, "alpha=1": math.inf}
        assert rep.value("tdc violation mass") == 0.0
        assert rep.verdicts["sigma_infinite"] is True
        assert rep.verdicts["no_onset_anywhere"] is True
        assert rep.verdicts["class_membership"] is True
        assert rep.parameters["tdc_B"] == pytest.approx(1.25 / 0.75)

    def test_strict_masked_table(self):
        spec = GridSpec(1, 256)
        masked = mask_twisted_diagonal(
            random_elementary(spec, DEFAULT_FRAME, J=4, seed=11), B=2.0, spec=spec
        )
        rep = run_sigma_estimate(masked, spec, j_range=(2, 3, 4), strict=True)
        assert rep.verdicts["sigma_infinite"] is True
        assert rep.verdicts["no_onset_anywhere"] is True
        assert rep.verdicts["class_membership"] is True

    def test_probe_annihilation_detected(self):
        spec = GridSpec(1, 256)
        a = random_elementary(spec, DEFAULT_FRAME, J=2, seed=0)
        with pytest.raises(ValueError, match="annihilated"):
            run_sigma_estimate(a, spec, j_range=(5, 6))

    def test_validation(self):
        spec = GridSpec(1, 512)
        a = ching_symbol(0.0, theta=1, j_max=7, spec=spec)
        with pytest.raises(ValueError):
            run_sigma_estimate(a, spec, r_expected=1.0, strict=True)
        with pytest.raises(ValueError):
            run_sigma_estimate(a, spec, s_grid=(0.0, -1.0))
        with pytest.raises(ValueError):
            run_sigma_estimate(a, spec, s_grid=(0.0,))
        with pytest.raises(ValueError):
            run_sigma_estimate(a, GridSpec(1, 64))
        with pytest.raises(ValueError):
            run_sigma_estimate(a, spec, j_range=(3, 9))
        with pytest.raises(ValueError):
            run_sigma_estimate(a, GridSpec(2, 32))
