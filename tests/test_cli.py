"""Command-line front end: every subcommand on small grids, the experiment
reports against direct runner calls, and the exit-code contract."""

import argparse
import functools
import inspect
import json
import math
import time
import tracemalloc
import typing
import warnings

import numpy as np
import pytest

from pdlab import cli, experiments, grid, pointwise, spaces
from pdlab import (
    GridSpec,
    ching_for_grid,
    ching_symbol,
    random_band_limited,
    run_continuity_table,
    run_counterexample,
    run_sigma_estimate,
    run_wavefront,
    write_pdgf,
)
from pdlab.cli import main
from pdlab.frame import frame_from_options, keyword_options
from pdlab.reporting import report_to_dict
from pdlab.symbols import SYMBOL_KINDS, RadialBump

SYMBOL = ["--symbol", "elementary:seed=1,J=3"]
SMALL = ["--grid", "32", "--mode", "random:band=0.4,seed=2"]


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def pdgf(tmp_path):
    path = tmp_path / "u.pdgf"
    write_pdgf(random_band_limited(GridSpec(1, 32), 8, np.random.default_rng(0)), path)
    return path


# ---------------------------------------------------------------------------
# subcommands


class TestSubcommands:
    def test_apply(self, capsys, tmp_path):
        out, csv = tmp_path / "y.pdgf", tmp_path / "spec.csv"
        argv = ["apply", "--symbol", "ching:d=0,theta=+1,jmax=auto", *SMALL,
                "--out", str(out), "--spectrum-csv", str(csv)]
        obj = run_json(capsys, argv)
        assert set(obj) == {"grid", "symbol", "in_l2", "out_l2", "dominant_modes", "out"}
        assert obj["grid"] == {"n": 1, "N": 32} and obj["out_l2"] > 0.0
        assert out.stat().st_size > 0
        assert len(csv.read_text().splitlines()) == 33

    def test_spectrum_csv_cells_are_plain_floats(self, capsys, tmp_path):
        # every mode but eta = 1 holds transform dust, written as a bare float
        csv = tmp_path / "s.csv"
        run_json(capsys, ["apply", "--symbol", "const", "--grid", "8", "--mode", "single:eta=1",
                          "--spectrum-csv", str(csv)])
        header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert header == ["eta1", "re", "im"] and len(rows) == 8
        cells = {int(eta): (float(re), float(im)) for eta, re, im in rows}
        assert list(cells) == list(range(-4, 4))
        assert cells[1][0] == pytest.approx(1.0, abs=1e-15)
        assert all(abs(re) + abs(im) < 1e-15 for eta, (re, im) in cells.items() if eta != 1)

    @pytest.mark.parametrize("argv, counts", [
        (["--symbol", "ching:d=0,theta=+1,jmax=auto", "--grid", "4096"], (0, 0)),
        (["--symbol", "ching:d=0,theta=1e1+1e2,jmax=auto", "--grid", "256", "--n", "2"],
         (0, 0)),
        # one inverse per separable term, one forward of the output
        (["--symbol", "elementary:seed=1", "--grid", "4096"], (1, 14)),
    ])
    def test_apply_works_on_coefficients(self, capsys, fft_calls, argv, counts):
        # the generator's coefficients go in as they are, the plan's come out
        run_json(capsys, ["apply", *argv, "--mode", "random:band=0.4,seed=1"])
        names = [name for name, _ in fft_calls]
        assert (names.count("fft_forward"), names.count("fft_inverse")) == counts

    def test_apply_out_takes_one_inverse_fft(self, capsys, tmp_path, fft_calls):
        out = tmp_path / "y.pdgf"
        run_json(capsys, ["apply", "--symbol", "ching:d=0,theta=+1,jmax=auto", "--grid", "4096",
                          "--mode", "random:band=0.4,seed=1", "--out", str(out)])
        assert [name for name, _ in fft_calls] == ["fft_inverse"]
        assert out.stat().st_size > 0

    def test_apply_reads_pdgf(self, capsys, pdgf):
        obj = run_json(capsys, ["apply", *SYMBOL, "--input", str(pdgf)])
        assert obj["grid"] == {"n": 1, "N": 32}
        obj = run_json(capsys, ["apply", *SYMBOL, "--input", str(pdgf), "--grid", "32"])
        assert obj["grid"] == {"n": 1, "N": 32}

    def test_apply_2d(self, capsys):
        argv = ["apply", "--symbol", "ching:d=0,theta=1e1+1e2,jmax=auto", "--grid", "16",
                "--n", "2", "--mode", "single:eta=3x-4"]
        obj = run_json(capsys, argv)
        assert obj["grid"] == {"n": 2, "N": 16}

    def test_norms_single(self, capsys):
        assert main(["norms", "--space", "L:p=2", "--mode", "single:eta=3", "--grid", "32"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_norms_json(self, capsys, pdgf):
        obj = run_json(capsys, ["norms", "--space", "F:s=0.5,p=2,q=1", "--mode",
                                "lacunary:N=2", "--grid", "64", "--frame", "r=1,R=2,h=3",
                                "--json"])
        assert set(obj) == {"space", "value", "grid"} and obj["value"] > 0.0
        obj = run_json(capsys, ["norms", "--space", "H:s=1", "--input", str(pdgf), "--json"])
        assert obj["grid"] == {"n": 1, "N": 32}

    def test_norms_read_generator_coefficients(self, capsys, fft_calls):
        # a B case with p = 2 of a generator's exact coefficients: no FFT
        for mode in ("random:band=0.4,seed=2", "ladder:J=3,d=0.5", "lacunary:N=2"):
            obj = run_json(capsys, ["norms", "--space", "B:s=0.5,p=2,q=2", "--mode", mode,
                                    "--grid", "64", "--json"])
            assert obj["value"] > 0.0
        assert fft_calls == []

    def test_norms_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(["single:eta=2", "ladder:J=3,d=0.5", "random:band=0.5"]))
        assert main(["norms", "--space", "B:s=0,p=2,q=2", "--corpus", str(corpus),
                     "--grid", "32"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,mode,space,norm" and len(lines) == 4
        out = tmp_path / "norms.csv"
        assert main(["norms", "--space", "L:p=2", "--corpus", str(corpus), "--grid", "32",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_vfm_refine(self, capsys, tmp_path):
        obj = run_json(capsys, ["vfm", *SYMBOL, *SMALL, "--refine", "2",
                                "--out", str(tmp_path / "vfm.json")])
        assert {"tags", "m_values", "l2_norms", "m_sat", "cross_profile_deviation",
                "refinement"} <= set(obj)
        assert obj["refinement"]["grid_sizes"] == [32, 64]
        assert obj["cross_profile_deviation"] <= 1e-12

    @pytest.mark.parametrize("report", ["identity", "corona"])
    def test_paradiff(self, capsys, report):
        obj = run_json(capsys, ["paradiff", *SYMBOL, *SMALL, "--report", report])
        assert obj["residual_rel"] <= 1e-10
        assert ("corona" in obj) == (report == "corona")

    def test_paradiff_corona_2d_past_the_table_cap(self, capsys):
        # an elementary symbol is split from its separable terms, with no
        # N^n x N^n table, so 2-d N=128 runs
        obj = run_json(capsys, ["paradiff", *SYMBOL, "--grid", "128", "--n", "2", "--mode",
                                "random:band=0.4,seed=2", "--report", "corona"])
        assert obj["grid"] == {"n": 2, "N": 128} and obj["residual_rel"] <= 1e-10
        assert obj["corona"]["max_outside"] <= 1e-10

    @pytest.mark.parametrize("kind", ["spatial", "spectral"])
    def test_support_rule(self, capsys, kind):
        obj = run_json(capsys, ["support-rule", *SYMBOL, *SMALL, "--kind", kind])
        assert obj["kind"] == kind and obj["holds"] is True

    def test_pointwise_factorize(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        obj = run_json(capsys, ["pointwise", "factorize", *SYMBOL, *SMALL, "--out", str(out)])
        assert set(obj) == {"max_ratio", "holds", "N_exp", "R"} and obj["holds"] is True
        rows = out.read_text().splitlines()
        assert rows[0] == "x,lhs,rhs,ratio" and len(rows) == 33

    def test_pointwise_factorize_2d_past_the_table_cap(self, capsys, tmp_path):
        argv = ["pointwise", "factorize", *SYMBOL, "--grid", "64", "--n", "2", "--mode",
                "random:band=0.4,seed=2", "--out", str(tmp_path / "f.csv")]
        assert run_json(capsys, argv)["holds"] is True

    @pytest.mark.parametrize("argv", [
        ["factorize", *SYMBOL, *SMALL],
        ["mihlin", *SYMBOL, "--grid", "32", "--R", "6"],
        ["mihlin", *SYMBOL, "--grid", "32", "--R", "6", "--c", "2"],
    ])
    def test_pointwise_computes_the_factor_once(self, capsys, monkeypatch, tmp_path, argv):
        calls = []
        real = pointwise.symbol_factor

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pointwise, "symbol_factor", spy)
        monkeypatch.setattr(cli, "symbol_factor", spy, raising=False)  # a direct call counts too
        run_json(capsys, ["pointwise", *argv, "--out", str(tmp_path / "p.csv")])
        assert len(calls) == 1

    def test_pointwise_maximal_constant(self, capsys):
        assert main(["pointwise", "maximal-constant", "--p", "2", "--grid", "32",
                     "--trials", "2"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "x,lhs,rhs,ratio" and len(out.splitlines()) == 3
        assert set(json.loads(err)) == {"C_p", "p", "N_exp", "trials"}

    @pytest.mark.parametrize("p", ["1e-308", "1e308"])
    def test_pointwise_maximal_constant_refuses_a_constant_not_finite(self, capsys, p):
        # ||u||_p overflows to inf, and C_p = ||u*||_p / ||u||_p reads nan
        assert main(["pointwise", "maximal-constant", "--p", p, "--grid", "64"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: C_p is nan at --p ")
        assert err.count("\n") == 1

    def test_pointwise_mihlin(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        obj = run_json(capsys, ["pointwise", "mihlin", *SYMBOL, "--grid", "32",
                                "--R", "6", "--out", str(out)])
        assert set(obj) == {"k", "c_used", "worst_ratio", "holds"}
        assert len(out.read_text().splitlines()) == 33

    def test_pointwise_mihlin_default_R_leaves_room_for_the_differences(self, capsys):
        # --R defaults to N/8: chi's support |eta| <= 2R = N/4 clears the band
        assert main(["pointwise", "mihlin", "--symbol", "ching:d=0,theta=+1,jmax=auto"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 257 and json.loads(err)["k"] == 3

    def test_pointwise_moment_decay(self, capsys):
        assert main(["pointwise", "moment-decay", *SYMBOL, "--grid", "32",
                     "--q-grid", "2,4"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 3
        assert set(json.loads(err)) == {"M", "slope", "cliff", "step_drops", "holds"}

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--quick"]) == 0
        assert capsys.readouterr().out.strip().endswith("10 gates passed")

    def test_selftest_a_gate_that_raises_fails_naming_it(self, capsys, monkeypatch):
        def broken():
            raise ValueError("no room")

        monkeypatch.setattr(cli, "QUICK_GATES", [("broken", broken)])
        assert main(["selftest", "--quick"]) == 1
        assert capsys.readouterr().out == "FAIL broken: raised ValueError('no room')\n"

    def test_selftest_builds_the_three_series_pair_once(self, capsys, monkeypatch):
        calls = []
        real = cli.paradiff_split

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "paradiff_split", counted)
        cli._gate_paradiff_pair.cache_clear()
        try:
            assert main(["selftest"]) == 0
        finally:
            cli._gate_paradiff_pair.cache_clear()
        assert capsys.readouterr().out.strip().endswith("14 gates passed")
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# experiment reports equal direct runner calls


SIGMA_SYMBOL = "ching:d=0,theta=1,jmax=6,zr=1,zw=0.25"

EXPERIMENTS = {
    "counterexample": (
        {"grid": {"n": 1, "N": 2048}, "params": {"d": 0.0, "N_list": [2, 3]},
         "thresholds": {"family_factor": 1.25}},
        lambda: run_counterexample(d=0.0, N_list=(2, 3), spec=GridSpec(1, 2048),
                                   family_factor=1.25),
    ),
    "wavefront": (
        {"params": {"d": 0.5, "J": 4, "m_range": [2, 3, 4], "holder_grid": 256},
         "thresholds": {"slope_tol": 0.3}},
        lambda: run_wavefront(d=0.5, J=4, m_range=[2, 3, 4], holder_grid=256,
                              slope_tol=0.3),
    ),
    "continuity": (
        {"symbol": "ching:d=1.5,theta=+1,jmax=auto", "seed": 3,
         "frame": {"r": 1.0, "R": 2.0, "h": 3},
         "params": {"cases": [["L:p=2", "L:p=2"], ["H:s=1.5", "H:s=0"]],
                    "grids": [32, 64], "trials": 2, "band_fraction": 0.9},
         "thresholds": {"stability": 1.6}},
        lambda: run_continuity_table(
            lambda spec: ching_for_grid(spec, d=1.5),
            [("L:p=2", "L:p=2"), ("H:s=1.5", "H:s=0")],
            grids=[32, 64], trials=2, band_fraction=0.9, seed=3, stability=1.6,
        ),
    ),
    "sigma": (
        {"symbol": SIGMA_SYMBOL, "grid": {"n": 1, "N": 256},
         "params": {"r_expected": 1.0, "s_grid": [-1.5, -1.0, -0.5, 0.0],
                    "eps_grid": [0.125, 0.0625]},
         "thresholds": {"sigma_tol": 0.5}},
        lambda: run_sigma_estimate(
            ching_symbol(0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25),
                         j_max=6, spec=GridSpec(1, 256)),
            GridSpec(1, 256), r_expected=1.0, s_grid=[-1.5, -1.0, -0.5, 0.0],
            eps_grid=[0.125, 0.0625], sigma_tol=0.5,
        ),
    ),
}


def run_experiment(tmp_path, runner: str, config, *extra: str) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["experiment", runner, "--config", str(path),
                 "--out", str(tmp_path / "report.json"), *extra])


@pytest.mark.parametrize("runner", sorted(EXPERIMENTS))
def test_experiment_report_matches_runner(capsys, tmp_path, runner):
    config, direct = EXPERIMENTS[runner]
    assert run_experiment(tmp_path, runner, config, "--svg", str(tmp_path / "r.svg")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("wrote ") and len(out[-1].split()) == 5
    assert all(line.startswith("verdict ") for line in out[:-1])
    got = json.loads((tmp_path / "report.json").read_text())
    want = json.loads(json.dumps(report_to_dict(direct(), config=config)))
    assert got == want
    for suffix in (".csv", ".dat"):
        assert (tmp_path / "report").with_suffix(suffix).stat().st_size > 0


def test_experiment_accepts_null_where_the_annotation_admits_none(capsys, tmp_path):
    config = {"symbol": SIGMA_SYMBOL, "grid": {"n": 1, "N": 256},
              "params": {"r_expected": None, "j_range": None, "s_grid": [-1.0, 0.0]}}
    assert run_experiment(tmp_path, "sigma", config) == 0
    direct = run_sigma_estimate(
        ching_symbol(0.0, theta=1, A=RadialBump(zero_order=1, zero_width=0.25), j_max=6,
                     spec=GridSpec(1, 256)),
        GridSpec(1, 256), s_grid=[-1.0, 0.0],
    )
    got = json.loads((tmp_path / "report.json").read_text())
    assert got == json.loads(json.dumps(report_to_dict(direct, config=config)))


def test_integer_thresholds_are_reported_as_floats(capsys, tmp_path):
    config = {"grid": {"n": 1, "N": 2048}, "params": {"N_list": [2, 3]},
              "thresholds": {"family_factor": 2}}
    assert run_experiment(tmp_path, "counterexample", config) == 0
    assert '"family_factor": 2.0,' in (tmp_path / "report.json").read_text()


def test_continuity_files_are_byte_identical_across_thread_counts(capsys, tmp_path, monkeypatch,
                                                                 pooled):
    config = {"symbol": "ching:d=0,theta=+1,jmax=auto", "seed": 3,
              "params": {"cases": [["F:s=0,p=2,q=1", "L:p=2"], ["B:s=0,p=2,q=2", "H:s=0"]],
                         "grids": [128, 2048], "trials": 3}}
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PDLAB_THREADS", threads)
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        assert run_experiment(run_dir, "continuity", config) == 0
        written.append([(run_dir / "report").with_suffix(s).read_bytes() for s in (".json", ".csv")])
    assert written[0] == written[1]
    assert b"family[" in written[0][1]
    assert pooled


def test_runner_is_looked_up_at_call_time(capsys, tmp_path, monkeypatch):
    # a wrapper bound into pdlab.experiments after import (as a tracer does)
    # must be the function that runs, with its wrapped signature decoded
    calls = []
    real = experiments.run_wavefront

    @functools.wraps(real)
    def spy(**kw):
        calls.append(kw)
        return real(**kw)

    monkeypatch.setattr(experiments, "run_wavefront", spy)
    assert run_experiment(tmp_path, "wavefront", {"params": {"J": 4, "holder_grid": 256}}) == 0
    assert calls == [{"J": 4, "holder_grid": 256, "spec": None}]


# ---------------------------------------------------------------------------
# exit-code contract: malformed input exits 2 with a one-line error


CASE = [["L:p=2", "L:p=2"]]

BAD_CONFIGS = {
    "scalar cases": ("continuity", {"symbol": "const", "params": {"cases": 5}}),
    "scalar grids": ("continuity", {"symbol": "const", "params": {"cases": CASE, "grids": 5}}),
    "case of three": ("continuity", {"symbol": "const", "params": {"cases": [CASE[0] * 2]}}),
    "missing cases": ("continuity", {"symbol": "const"}),
    "grid for continuity": ("continuity", {"symbol": "const", "grid": {"N": 64},
                                           "params": {"cases": CASE}}),
    "seed in params": ("continuity", {"symbol": "const", "params": {"cases": CASE, "seed": 1}}),
    "scalar N_list": ("counterexample", {"params": {"N_list": 3}}),
    "list d": ("counterexample", {"params": {"d": [1]}}),
    "string d": ("counterexample", {"params": {"d": "0.5"}}),
    "unknown param": ("counterexample", {"params": {"dd": 1}}),
    "symbol for counterexample": ("counterexample", {"symbol": "const"}),
    "scalar grid": ("counterexample", {"grid": 5}),
    "float grid N": ("counterexample", {"grid": {"N": 2048.0}, "params": {"N_list": [2, 3]}}),
    "scalar frame": ("wavefront", {"frame": 5}),
    "float frame h": ("wavefront", {"frame": {"h": 3.5}}),
    "float J": ("wavefront", {"params": {"J": 2.5}}),
    "key in params and thresholds": ("wavefront", {"params": {"J": 4},
                                                   "thresholds": {"J": 4}}),
    "string strict": ("sigma", {"symbol": SIGMA_SYMBOL, "grid": {"N": 256},
                                "params": {"strict": "no"}}),
    "sigma without grid": ("sigma", {"symbol": "const"}),
    "scalar out": ("sigma", {"symbol": "const", "grid": {"N": 64}, "out": 5}),
    "seed for counterexample": ("counterexample", {"seed": 7}),
    "frame for counterexample": ("counterexample", {"frame": {"h": 4}}),
    "seed and frame for counterexample": ("counterexample", {"seed": 7, "frame": {"h": 4}}),
    "seed for wavefront": ("wavefront", {"seed": 1}),
    "frame for wavefront": ("wavefront", {"frame": {"h": 4}}),
    "seed for sigma": ("sigma", {"symbol": SIGMA_SYMBOL, "grid": {"N": 256}, "seed": 1}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_malformed_config_exits_2(capsys, tmp_path, name):
    runner, config = BAD_CONFIGS[name]
    assert run_experiment(tmp_path, runner, config) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("seed, error", [
    (-1, "bad value for config.seed: -1"),
    ("1", 'config.seed must be an integer, got "1"'),
])
def test_a_bad_config_seed_is_named_by_the_seed_rule(capsys, tmp_path, seed, error):
    # the config's seed is decoded by --seed's rule, and the error names it
    config = {"symbol": "const", "seed": seed, "params": {"cases": CASE}}
    assert run_experiment(tmp_path, "continuity", config) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_config_frame_reaches_a_runner_through_its_symbol(capsys, tmp_path):
    config = {"symbol": SIGMA_SYMBOL, "grid": {"N": 256}, "frame": {"h": 4},
              "params": {"s_grid": [-1.0, 0.0], "eps_grid": [0.125, 0.0625]}}
    assert run_experiment(tmp_path, "sigma", config) == 0


def test_file_mode_defines_the_grid(capsys, tmp_path, pdgf):
    obj = run_json(capsys, ["norms", "--space", "L:p=2", "--mode", f"file:{pdgf}", "--json"])
    assert obj["grid"] == {"n": 1, "N": 32}
    obj = run_json(capsys, ["apply", *SYMBOL, "--mode", f"file:{pdgf}", "--grid", "32"])
    assert obj["grid"] == {"n": 1, "N": 32}
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([f"file:{pdgf}", "single:eta=2"]))
    assert main(["norms", "--space", "L:p=2", "--corpus", str(corpus)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["norms", "--space", "L:p=2", "--corpus", str(corpus), "--grid", "64"]) == 2
    assert_one_line_error(capsys)


def write_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"d": 0.0}))
    return f"elementary:file={path}"


def write_oversized_header(tmp_path):
    path = tmp_path / "huge.pdgf"
    path.write_bytes(b"PDGF" + np.array([2, 2**31, 0], dtype="<u4").tobytes())
    return str(path)


BAD_ARGV = {
    "input is a directory": lambda t, u: ["apply", *SYMBOL, "--input", str(t)],
    "negative m-max": lambda t, u: ["vfm", *SYMBOL, *SMALL, "--m-max", "-1"],
    "manifest without multipliers": lambda t, u: ["apply", "--symbol", write_manifest(t),
                                                  *SMALL],
    "ching key typo": lambda t, u: ["apply", "--symbol", "ching:d=0,theta=1,jmx=3",
                                    "--grid", "1024", "--mode", "single:eta=3"],
    "random key typo": lambda t, u: ["apply", *SYMBOL, "--grid", "32",
                                     "--mode", "random:band=0.4,sede=5"],
    "frame key typo": lambda t, u: ["apply", *SYMBOL, *SMALL, "--frame", "r=1,RR=2"],
    "space key typo": lambda t, u: ["norms", "--space", "B:s=0,p=2,qq=2", *SMALL],
    "apply --grid disagrees with input": lambda t, u: ["apply", *SYMBOL, "--input", u,
                                                       "--grid", "256"],
    "apply --n disagrees with input": lambda t, u: ["apply", *SYMBOL, "--input", u,
                                                    "--n", "2"],
    "norms --grid disagrees with input": lambda t, u: ["norms", "--space", "L:p=2",
                                                       "--input", u, "--grid", "64"],
    "norms --n disagrees with input": lambda t, u: ["norms", "--space", "L:p=2",
                                                    "--input", u, "--n", "2"],
    "pdgf header larger than file": lambda t, u: ["norms", "--space", "L:p=2", "--input",
                                                  write_oversized_header(t)],
    "norms --grid disagrees with file mode": lambda t, u: ["norms", "--space", "L:p=2",
                                                           "--mode", f"file:{u}", "--grid", "64"],
    "norms --grid, --n disagree with file mode": lambda t, u: [
        "norms", "--space", "L:p=2", "--mode", f"file:{u}", "--grid", "256", "--n", "2"],
    "apply --grid disagrees with file mode": lambda t, u: ["apply", *SYMBOL, "--mode",
                                                           f"file:{u}", "--grid", "256"],
    "vfm --n disagrees with file mode": lambda t, u: ["vfm", *SYMBOL, "--mode", f"file:{u}",
                                                      "--n", "2"],
    "vfm --refine with file mode": lambda t, u: ["vfm", *SYMBOL, "--mode", f"file:{u}",
                                                 "--refine", "2"],
    "vfm --refine with file mode, ching": lambda t, u: [
        "vfm", "--symbol", "ching:jmax=auto", "--mode", f"file:{u}", "--refine", "2"],
    "elementary J overflows": lambda t, u: ["apply", "--symbol", "elementary:J=1100",
                                            "--grid", "64", "--mode", "random:band=0.4"],
    "ladder d overflows": lambda t, u: ["apply", "--symbol", "const", "--grid", "64",
                                        "--mode", "ladder:J=3,d=-1e308"],
    "frame h overflows": lambda t, u: ["apply", "--symbol", "const", "--grid", "64",
                                       "--frame", "h=2000", "--mode", "random:band=0.4"],
    "ching d overflows": lambda t, u: ["apply", "--symbol", "ching:d=1e308,jmax=3",
                                       "--grid", "64", "--mode", "random:band=0.4"],
    "q-grid not a number": lambda t, u: ["pointwise", "moment-decay", *SYMBOL, "--grid", "32",
                                         "--q-grid", "2,x"],
    "generator keys next to a manifest": lambda t, u: [
        "apply", "--symbol", write_manifest(t) + ",J=9,seed=5,d=2,spread=3", *SMALL],
}


@pytest.mark.parametrize("name", sorted(BAD_ARGV))
def test_malformed_argv_exits_2(capsys, tmp_path, pdgf, name):
    assert main(BAD_ARGV[name](tmp_path, str(pdgf))) == 2
    assert_one_line_error(capsys)


BAD_VALUES = {  # spec: (argv, the error line)
    "lacunary:N=x": (["apply", "--symbol", "const", "--grid", "64", "--mode", "lacunary:N=x"],
                     "bad value for N in 'lacunary:N=x'"),
    "ching:d=abc": (["apply", "--symbol", "ching:d=abc", *SMALL],
                    "bad value for d in 'ching:d=abc'"),
    "h=x": (["apply", *SYMBOL, *SMALL, "--frame", "h=x"], "bad value for h in 'h=x'"),
    "B:s=x,p=2,q=2": (["norms", "--space", "B:s=x,p=2,q=2", *SMALL],
                      "bad value for s in 'B:s=x,p=2,q=2'"),
    # values the annotation admits and the builder rejects
    "random:band=0.4,seed=-1": (["apply", "--symbol", "const", "--grid", "64",
                                 "--mode", "random:band=0.4,seed=-1"],
                                "input 'random:band=0.4,seed=-1': expected non-negative integer"),
    "elementary:seed=-3": (["apply", "--symbol", "elementary:seed=-3", *SMALL],
                           "symbol 'elementary:seed=-3': expected non-negative integer"),
}


@pytest.mark.parametrize("spec", sorted(BAD_VALUES))
def test_malformed_value_names_key_and_spec(capsys, spec):
    argv, message = BAD_VALUES[spec]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


OVERFLOWS = {  # argv: the error line
    "ching:d=1e308,jmax=3": (["apply", "--symbol", "ching:d=1e308,jmax=3", "--grid", "64",
                              "--mode", "random:band=0.4"],
                             "d = 1e+308 gives a level weight 2^(jd), j <= 3, that is not finite"),
    "elementary:J=1100": (["apply", "--symbol", "elementary:J=1100", "--grid", "64",
                           "--mode", "random:band=0.4"],
                          "symbol 'elementary:J=1100': Numerical result out of range"),
    "ladder:J=3,d=-1e308": (["apply", "--symbol", "const", "--grid", "64",
                             "--mode", "ladder:J=3,d=-1e308"],
                            "input 'ladder:J=3,d=-1e308': Numerical result out of range"),
    "h=2000": (["apply", "--symbol", "const", "--grid", "64", "--frame", "h=2000",
                "--mode", "random:band=0.4"],
               "frame 'h=2000': Numerical result out of range"),
}


@pytest.mark.parametrize("spec", sorted(OVERFLOWS))
def test_an_overflowing_value_names_its_spec(capsys, spec):
    argv, message = OVERFLOWS[spec]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


SPEC_TABLES = {  # spec family: (its kinds, the argv that feeds a spec of it to the CLI)
    "input": (cli.INPUT_KINDS, lambda spec: ["apply", "--symbol", "const", "--grid", "256",
                                             "--mode", spec]),
    "symbol": (SYMBOL_KINDS, lambda spec: ["apply", "--symbol", spec, "--grid", "256",
                                           "--mode", "single:eta=1"]),
    "norm": (experiments.NORM_KINDS, lambda spec: ["norms", "--space", spec, "--grid", "64",
                                                   "--mode", "single:eta=1"]),
    "frame": ({"": frame_from_options}, lambda spec: ["apply", "--symbol", "const", "--grid",
                                                      "64", "--frame", spec, "--mode",
                                                      "single:eta=1"]),
}
SPEC_REQUIRED = {"single": {"eta": "1"}, "lacunary": {"N": "2"}, "L": {"p": "2"},
                 "H": {"s": "0"}, "B": {"s": "0", "p": "2", "q": "2"},
                 "F": {"s": "0", "p": "2", "q": "2"}}  # valid values of each kind's required keys


def spec_text(kind: str, options: dict) -> str:
    text = ",".join(f"{k}={v}" for k, v in options.items())
    return f"{kind}:{text}" if kind else text


def takes_a_float(hint) -> bool:
    """A float or complex annotation, alone or as a member of a union."""
    return bool({float, complex} & {hint, *typing.get_args(hint)})


def spec_cases():
    """(id, argv, texts one of which the error line must hold): every key of
    every spec kind given x and an empty value, every float or complex key
    given nan, and one unknown key per kind."""
    for family, (kinds, argv) in SPEC_TABLES.items():
        for kind, build in kinds.items():
            keys, _ = keyword_options(build)
            bad = [(k, v) for k in keys for v in ("x", "")]
            bad += [(k, "nan") for k, hint in keys.items() if takes_a_float(hint)]
            for key, value in bad + [("bogus", "1")]:
                spec = spec_text(kind, {**SPEC_REQUIRED.get(kind, {}), key: value})
                yield f"{family} {spec}", argv(spec), (repr(spec), repr(key))


def config_argv(tmp_path, runner: str, params: dict) -> list[str]:
    (tmp_path / "run.json").write_text(json.dumps({"params": params}))
    return ["experiment", runner, "--config", str(tmp_path / "run.json"),
            "--out", str(tmp_path / "out.json")]


ARITHMETIC_CASES = [  # a d whose weights overflow or vanish: the line opens with the key
    # or names the runner's params
    *((f"input lacunary:N=2,d={d}",
       ["apply", "--symbol", "const", "--grid", "64", "--mode", f"lacunary:N=2,d={d}"],
       ("error: d = ",)) for d in ("-1e308", "1e308")),
    ("input ladder:d=1e308",  # every weight 2^(-jd) underflows to 0
     ["apply", "--symbol", "const", "--grid", "256", "--mode", "ladder:d=1e308"], ("error: d = ",)),
    *((f"experiment {runner} d={d}", (runner, {"d": d}), ("error: d = ", f'params {{"d": {d:g}'))
      for runner in ("counterexample", "wavefront") for d in (-1e308, 1e308)),
    ("symbol ching:d=-1e308",  # every level weight 2^(jd) past j = 0 underflows to 0
     ["apply", "--symbol", "ching:d=-1e308,theta=+1,jmax=3", "--grid", "64", "--mode",
      "single:eta=8"], ("error: d = -1e+308 gives a level weight 2^(jd), j <= 3, that is 0\n",)),
    # a quasi-norm whose weights 2^(sj) or powers overflow: the line quotes its space
    *((f"norm {spec}", ["norms", "--space", spec, "--grid", "64", "--mode", "single:eta=1"],
       (f"'{spec.replace('1e308', '1e+308')}'",))
      for spec in ("B:s=1e308,p=2,q=2", "B:s=0,p=1e308,q=2", "F:s=0,p=1e308,q=1",
                   "F:s=1e308,p=2,q=2")),
    # an output whose L2 norm or whose entries overflow: the line names out_l2 and the symbol
    ("symbol const:c=1e308", ["apply", "--symbol", "const:c=1e308", "--grid", "64", "--mode",
                              "single:eta=1"], ("error: out_l2 of symbol 'const:c=1e308' ",)),
    *((f"symbol const:c=1e308 on {mode}", ["apply", "--symbol", "const:c=1e308", "--grid", "64",
                                           "--mode", mode],
       ("error: out_l2 of symbol 'const:c=1e308' ",))
      for mode in ("random:band=0.4", "lacunary:N=2")),
    # a key that cannot be infinite: its builder names the key and the spec
    *((f"symbol {spec}", ["apply", "--symbol", spec, "--grid", "64", "--mode", "single:eta=1"],
       (f"error: symbol '{spec}': expected a finite {key}, got ",))
      for spec, key in (("const:c=inf", "c"), ("const:c=-inf", "c"),
                        ("ching:d=inf,theta=+1,jmax=3", "d"),
                        ("ching:d=-inf,theta=+1,jmax=3", "d"))),
    # a threshold outside [0, 1) would give a verdict that means nothing
    *((f"support-rule {kind} tau={tau}",
       ["support-rule", "--symbol", "const", "--grid", "64", "--mode", "single:eta=1",
        "--kind", kind, "--tau", tau], ("error: tau must lie in [0, 1), got ",))
      for kind in ("spatial", "spectral") for tau in ("5", "1", "inf", "-1")),
    # maximal-function parameters: finite, and a derivative order within the budget
    *((f"pointwise mihlin {flag} {value}",
       ["pointwise", "mihlin", "--symbol", "const", "--grid", "64", flag, value], (error,))
      for flag, value, error in (
          ("--N-exp", "inf", "error: N_exp must be positive and finite, got inf"),
          ("--R", "inf", "error: R_spec must be positive and finite, got inf"),
          ("--N-exp", "1e308", "error: order 1e+308 differences exceed the budget 4"))),
]
CONTRACT_CASES = [*spec_cases(), *ARITHMETIC_CASES]


def test_the_spec_cases_cover_every_kind():
    kinds = sum(len(k) for k, _ in SPEC_TABLES.values())
    assert kinds == 4 + 4 + 4 + 1  # input, symbol and norm kinds, the frame
    hints = [h for k, _ in SPEC_TABLES.values() for b in k.values()
             for h in keyword_options(b)[0].values()]
    floats = sum(map(takes_a_float, hints))
    assert floats == 23  # d, c, band, s, p, q, the frame's r and R, ching's levels
    assert len(CONTRACT_CASES) == 2 * len(hints) + floats + kinds + 30


@pytest.mark.parametrize("argv, names", [c[1:] for c in CONTRACT_CASES],
                         ids=[c[0] for c in CONTRACT_CASES])
def test_a_malformed_spec_value_exits_2_naming_it(capsys, tmp_path, argv, names):
    if isinstance(argv, tuple):  # an experiment runner and its params
        argv = config_argv(tmp_path, *argv)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert any(name in err for name in names), err


@pytest.mark.parametrize("argv", [
    ["norms", "--space", "L:p=inf", "--grid", "64", "--mode", "single:eta=1"],
    ["norms", "--space", "B:s=0,p=2,q=inf", "--grid", "64", "--mode", "single:eta=1"],
    ["apply", "--symbol", "elementary:J=3,spread=inf", "--grid", "64", "--mode", "single:eta=1"],
    ["support-rule", "--symbol", "const", "--grid", "64", "--mode", "single:eta=1", "--tau", "0"],
])
def test_a_key_that_may_be_infinite_or_zero_still_runs(capsys, argv):
    assert main(argv) == 0


@pytest.mark.parametrize("space, value", [("H:s=1e308", "nan"), ("L:p=1e308", "inf")])
def test_a_norm_that_is_not_finite_exits_2_naming_its_space(capsys, space, value):
    argv = ["norms", "--space", space, "--mode", "random:band=0.4", "--grid", "64", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        assert main(argv) == 2
    label = space.replace("1e308", "1e+308")
    assert capsys.readouterr() == ("", f"error: norm '{label}' is not finite: {value}\n")


@pytest.mark.parametrize("argv, quantity", [
    (["pointwise", "moment-decay", "--symbol", "const", "--grid", "64", "--N-exp", "1e308"],
     "N_exp = 1e+308"),
    (["pointwise", "moment-decay", "--symbol", "const", "--grid", "64", "--R", "1e308"],
     "R = 1e+308"),
    (["pointwise", "mihlin", "--symbol", "const", "--grid", "64", "--R", "1e308"], "R = 1e+308"),
])
def test_a_factor_weight_that_is_not_finite_exits_2_naming_it(capsys, argv, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: the weight (1 + R|y|)^N_exp is not finite") and quantity in err


def test_a_lacunary_index_past_the_grid_exits_2_before_its_top_mode_is_built(capsys):
    # 2^(N^2) at N = 10^6 has 10^12 bits: the exponents refuse it first
    start = time.perf_counter()
    assert main(["apply", "--symbol", "const", "--grid", "64", "--mode", "lacunary:N=1000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: input 'lacunary:N=1000000': family index 1000000 needs "
                                 "mode 2^1000000000000*|theta| inside the lattice; grid holds "
                                 "|eta| < 32\n")


@pytest.mark.parametrize("N_list", [[2, 23], [2, 1000]])
def test_a_family_index_past_a_float_exits_2_before_its_modes_are_built(capsys, tmp_path, N_list):
    # (1 + eta^2)^d of the top mode 2^(N^2) needs 2 N^2 max(1, d) < 1024; at
    # N = 1000 the family would hold about 10^6 modes of up to 10^6 bits
    start = time.perf_counter()
    assert main(config_argv(tmp_path, "counterexample", {"N_list": N_list})) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith(f"error: d = 0.0 with N_list {N_list}: the top mode 2^{N_list[-1] ** 2} ")


def test_the_largest_family_index_a_float_holds_still_runs(capsys, tmp_path):
    assert main(config_argv(tmp_path, "counterexample", {"N_list": [2, 22]})) == 0


def test_a_missing_input_file_exits_2_naming_it(capsys, tmp_path):
    path = tmp_path / "missing.pdgf"
    assert main(["norms", "--space", "L:p=2", "--mode", f"file:{path}", "--json"]) == 2
    assert capsys.readouterr() == ("", f"error: input file not found: {path}\n")


GRID_PAST_THE_BUDGET = {  # one complex grid array: 16 GiB, 64 GiB, 128 MiB, 128 TiB
    "apply 1-d 2^30": (["apply", "--symbol", "const", "--mode", "single:eta=1",
                        "--grid", str(2**30)], "--grid 1073741824 (n=1) would hold 1073741824"),
    "norms 2-d 65536": (["norms", "--space", "L:p=2", "--mode", "single:eta=1x1", "--n", "2",
                         "--grid", "65536"], "--grid 65536 (n=2) would hold 4294967296"),
    # grids that --grid does not give: vfm's doubled grids, a config's grid, a
    # runner's grid list, and the grids a runner sizes from its params
    "vfm --refine 30": (["vfm", "--symbol", "const", "--grid", "64", "--mode", "single:eta=1",
                         "--refine", "30"], "--refine 30: grid 8388608 (n=1) would hold 8388608"),
    "config grid": (("sigma", {"symbol": "const", "grid": {"N": 2**30}}),
                    "config grid N=1073741824 (n=1) would hold 1073741824"),
    "continuity grids": (("continuity", {"symbol": "const", "params": {
        "cases": [["L:p=2", "L:p=2"]], "grids": [64, 2**30]}}),
        "grids entry 1073741824 would hold 1073741824"),
    "wavefront holder_grid": (("wavefront", {"params": {"holder_grid": 2**30}}),
                              "holder_grid 1073741824 would hold 1073741824"),
    "wavefront J": (("wavefront", {"params": {"J": 40}}),
                    "J=40: grid 8796093022208 would hold 8796093022208"),
}


@pytest.mark.parametrize("name", sorted(GRID_PAST_THE_BUDGET))
def test_a_grid_past_the_budget_exits_2_before_it_is_allocated(capsys, tmp_path, name):
    argv, opening = GRID_PAST_THE_BUDGET[name]
    if isinstance(argv, tuple):  # an experiment runner and its config
        (tmp_path / "run.json").write_text(json.dumps(argv[1]))
        argv = ["experiment", argv[0], "--config", str(tmp_path / "run.json"),
                "--out", str(tmp_path / "out.json")]
    cli.build_parser()  # the parser is built once, outside the measurement
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {opening} points in one complex grid array "
                                        "(16 bytes a point: ")
    assert err.endswith(" MiB > 64 MiB memory budget)\n") and err.count("\n") == 1


def test_a_grid_array_may_fill_the_budget(capsys, monkeypatch):
    # 2^20 points (16 MiB) run under the real budget; under a budget of
    # exactly one 64-point array, 64 points run and 128 do not
    assert main(["norms", "--space", "L:p=2", "--mode", "single:eta=1", "--grid", str(2**20)]) == 0
    monkeypatch.setattr(grid, "MEMORY_BUDGET", 16 * 64)
    assert main(["norms", "--space", "L:p=2", "--mode", "single:eta=1", "--grid", "64"]) == 0
    assert main(["norms", "--space", "L:p=2", "--mode", "single:eta=1", "--grid", "128"]) == 2
    assert capsys.readouterr().err.startswith("error: --grid 128 (n=1) would hold 128 points")


def test_q_grid_error_names_the_flag_and_its_text(capsys):
    argv = ["pointwise", "moment-decay", *SYMBOL, "--grid", "32", "--q-grid", "2,x"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad value for --q-grid '2,x'\n"


def test_a_nan_in_the_q_grid_names_the_flag(capsys):
    argv = ["pointwise", "moment-decay", *SYMBOL, "--grid", "32", "--q-grid", "2,nan"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad value for --q-grid '2,nan'\n"


def test_eta_names_the_grid_dimension(capsys):
    assert main(["apply", "--symbol", "const", "--grid", "32", "--n", "2",
                 "--mode", "single:eta=3"]) == 2
    assert capsys.readouterr().err == "error: eta '3' has 1 components, grid has n=2\n"


def recording_gates(ran: list, name: str, gate) -> tuple[list, int]:
    """QUICK_GATES with `gate` in `name`'s place; the others return no
    checks and only record that they ran."""
    gates = [(n, lambda n=n: ran.append(n) or []) for n, _ in cli.QUICK_GATES]
    at = [n for n, _ in gates].index(name)
    gates[at] = (name, gate)
    return gates, at


def fail_lines(out: str, name: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(f"FAIL {name}: ")]


def test_failed_gate_exits_1_and_stops(capsys, monkeypatch):
    # the frequency-shift gate runs for real on a symbol that shifts nothing
    from pdlab.symbols import ConstantSymbol

    ran, name = [], "frequency-shift bookkeeping"
    gates, at = recording_gates(ran, name, cli.gate_frequency_shift)
    monkeypatch.setattr(cli, "QUICK_GATES", gates)
    monkeypatch.setattr(cli, "parse_symbol_spec", lambda text, spec: ConstantSymbol(1.0))
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert fail_lines(out, name) == [
        f"FAIL {name}: mass fraction off frequency 0 1.0 outside (-inf, 1e-12]"]
    assert "    output mass 1.0 in (0.0, inf)" in out.splitlines()
    assert ran == [n for n, _ in gates[:at]]
    assert sum(line.startswith("ok ") for line in out.splitlines()) == at


@pytest.mark.parametrize("q, quantity, bound", [  # ids: the embedding each case breaks
    pytest.param(2.0, "F/B at p=q=2", "(0.999999999999, 1.000000000001)",
                 id="2.0-B and F norms differ at p=q"),
    pytest.param(1.0, "F/B at p=2, q=1", "(-inf, 1.000000001]",
                 id="1.0-B^s_(p,min(p,q)) -> F^s_(p,q) -> B^s_(p,max(p,q)) fails at q=1"),
])
def test_failed_sandwich_gate_exits_1_and_stops(capsys, monkeypatch, q, quantity, bound):
    # the sandwich gate runs for real with its F norms at this q raised by a
    # fifth, so F/B exceeds 1
    ran, name = [], "B-F sandwich embedding"
    gates, at = recording_gates(ran, name, cli.gate_scale_sandwich)
    monkeypatch.setattr(cli, "QUICK_GATES", gates)
    real = spaces.space_norms

    def raised(u, sps):
        return [v * 1.2 if sp.scale == "F" and sp.q == q else v
                for v, sp in zip(real(u, sps), sps, strict=True)]

    monkeypatch.setattr(spaces, "space_norms", raised)
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in fail_lines(out, name) if f": {quantity} " in line]
    assert len(failed) == 1 and failed[0].endswith(f" outside {bound}")
    assert float(failed[0].removeprefix(f"FAIL {name}: {quantity} ").split()[0]) > 1.0 + 1e-9
    assert ran == [n for n, _ in gates[:at]]


@pytest.mark.parametrize("name, gate", cli.FULL_GATES, ids=[n for n, _ in cli.FULL_GATES])
def test_every_gate_returns_checks_within_their_bounds(name, gate):
    checks = list(gate())
    assert checks
    for check in checks:
        ok, line = cli._checked(*check)
        assert ok, line


def test_a_nan_check_fails_its_gate(capsys, monkeypatch):
    ran, name = [], "wavefront flip"
    gates, at = recording_gates(ran, name, lambda: [("flip residual", float("nan"), 1e-10)])
    monkeypatch.setattr(cli, "QUICK_GATES", gates)
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == f"FAIL {name}: flip residual nan outside (-inf, 1e-10]"
    assert ran == [n for n, _ in gates[:at]]


@pytest.mark.parametrize("value, bound, ok", [
    (1e-10, 1e-10, True),  # an upper bound is closed
    (0.0, (0.0, 1.0), False),  # an interval is open: strict conditions stay strict
    (1.0, (0.0, 1.0), False),
    (math.inf, (0.0, math.inf), False),
    (0.5, (0.0, 1.0), True),
    (math.nan, 1.0, False),
    (math.nan, (-math.inf, math.inf), False),
    ("clean", "clean", True),
    ("suspect", "clean", False),
    (False, True, False),
])
def test_a_check_is_within_its_bound(value, bound, ok):
    assert cli._checked("q", value, bound)[0] is ok


NORMS_SOURCES = {
    "--input and --mode": lambda c, u: ["--input", u, "--mode", "single:eta=3"],
    "--input and --corpus": lambda c, u: ["--input", u, "--corpus", c],
    "--mode and --corpus": lambda c, u: ["--mode", "single:eta=3", "--corpus", c],
    "none of them": lambda c, u: ["--grid", "32"],
}


@pytest.mark.parametrize("name", sorted(NORMS_SOURCES))
def test_norms_takes_exactly_one_input_source(capsys, tmp_path, pdgf, name):
    corpus = tmp_path / "c.json"
    corpus.write_text(json.dumps(["single:eta=1"]))
    argv = ["norms", "--space", "L:p=2", *NORMS_SOURCES[name](str(corpus), str(pdgf))]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_vfm_refine_names_the_generator_mode(capsys, pdgf):
    assert main(["vfm", *SYMBOL, "--mode", f"file:{pdgf}", "--refine", "2"]) == 2
    assert "--refine needs a generator --mode" in capsys.readouterr().err


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# flags derived from the handlers' signatures


OPTIONS = {  # subcommand: its option strings besides -h/--help, and positionals
    "apply": ("--frame --grid --input --mode --n --out --seed --spectrum-csv --symbol", []),
    "norms": ("--corpus --frame --grid --input --json --mode --n --out --seed --space", []),
    "vfm": ("--frame --grid --input --m-max --mode --n --out --psi-count --refine --seed "
            "--symbol", []),
    "paradiff": ("--B --frame --grid --input --mode --n --out --report --seed --symbol", []),
    "support-rule": ("--frame --grid --input --kind --mode --n --out --seed --symbol --tau", []),
    "pointwise factorize": ("--frame --grid --input --mode --n --out --seed --symbol --tau", []),
    "pointwise maximal-constant": ("--N-exp --band --grid --n --out --p --seed --trials", []),
    "pointwise mihlin": ("--N-exp --R --c --frame --grid --n --out --slack --symbol", []),
    "pointwise moment-decay": ("--M --N-exp --R --frame --grid --n --out --q-grid --symbol", []),
    "experiment": ("--config --csv --dat --out --svg", ["runner"]),
    "selftest": ("--quick", []),
}


def subparsers(parser, prefix=()):
    """(subcommand name, its parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subparsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def test_every_subcommand_has_its_flags():
    got = {}
    for name, p in subparsers(cli.build_parser()):
        options = {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        got[name] = (" ".join(sorted(options)), [a.dest for a in p._actions if not a.option_strings])
    assert got == {k: (" ".join(sorted(o.split())), pos) for k, (o, pos) in OPTIONS.items()}


def scalar_types(hint) -> set:
    if typing.get_origin(hint) is typing.Annotated:
        return scalar_types(typing.get_args(hint)[0])
    return {hint} if typing.get_origin(hint) is None else set(typing.get_args(hint)) - {type(None)}


def decoded_flags(wanted):
    """(subcommand, flag) for every flag or argument whose annotation
    `wanted` accepts, read from the handler signatures and the flags their
    supplied names bring; an argument is named without --."""
    for name, handler in cli.COMMANDS.items():
        params = inspect.signature(getattr(cli, handler), eval_str=True).parameters
        hints = {k: q.annotation for k, q in params.items() if k not in cli._BRINGS}
        hints |= {f: cli._FLAGS[f][0] for k in params if k in cli._BRINGS for f in cli._BRINGS[k]}
        for flag, hint in hints.items():
            if wanted(hint):
                yield name, cli._shown(flag, params)


NUMERIC_FLAGS = sorted(decoded_flags(lambda hint: scalar_types(hint) <= {int, float}))
CHOICE_FLAGS = sorted(decoded_flags(lambda hint: typing.get_origin(hint) is typing.Literal))
VALID_ARGV = {  # each subcommand's required flags
    "apply": ["--symbol", "const", "--mode", "single:eta=1"],
    "norms": ["--space", "L:p=2", "--mode", "single:eta=1"],
    "pointwise maximal-constant": ["--p", "2"],
    "pointwise mihlin": ["--symbol", "const"],
    "pointwise moment-decay": ["--symbol", "const"],
    "experiment": ["--config", "run.json", "--out", "run-out.json"],
}


def test_the_numeric_flags_are_found():
    assert len(NUMERIC_FLAGS) == 33  # --n is a choice, not a number
    assert ("pointwise maximal-constant", "--N-exp") in NUMERIC_FLAGS
    assert ("vfm", "--seed") in NUMERIC_FLAGS and ("pointwise mihlin", "--seed") not in NUMERIC_FLAGS


def test_the_choice_flags_are_found():
    # --n wherever a grid is built, two report kinds and the runner
    assert len(CHOICE_FLAGS) == 12
    assert {("paradiff", "--report"), ("support-rule", "--kind"),
            ("experiment", "runner"), ("apply", "--n")} <= set(CHOICE_FLAGS)


@pytest.mark.parametrize("name, flag", NUMERIC_FLAGS + CHOICE_FLAGS,
                         ids=[" ".join(f) for f in NUMERIC_FLAGS + CHOICE_FLAGS])
def test_a_non_number_names_its_flag_before_any_work(capsys, monkeypatch, name, flag):
    ran = []

    def spy(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            ran.append(fn.__name__)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(cli, cli.COMMANDS[name], spy(getattr(cli, cli.COMMANDS[name])))
    monkeypatch.setattr(cli, "_cli_supplied", spy(cli._cli_supplied))
    valid = VALID_ARGV.get(name, ["--symbol", "const", "--mode", "single:eta=1"])
    given = [flag, "x"] if flag.startswith("--") else ["x"]
    assert main([*name.split(), *valid, *given]) == 2
    assert capsys.readouterr().err == f"error: bad value for {flag} 'x'\n"
    assert ran == []


@pytest.mark.parametrize("argv", [
    ["apply", "--symbol", "const", "--grid", "64", "--mode", "random:band=0.4"],
    ["norms", "--space", "L:p=2", "--grid", "64", "--mode", "random:band=0.4"],
])
def test_a_negative_seed_names_the_flag_and_its_value(capsys, argv):
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: bad value for --seed '-1'\n"


def test_the_handler_is_looked_up_at_call_time(capsys, monkeypatch):
    # a wrapper bound into pdlab.cli after import and after the parser is
    # built (as a tracer does) is the function that runs, and its wrapped
    # signature gives the flags
    parser = cli.build_parser()
    calls = []
    real = cli.cmd_selftest

    @functools.wraps(real)
    def spy(**kw):
        calls.append(kw)
        return 0

    monkeypatch.setattr(cli, "cmd_selftest", spy)
    assert main(["selftest", "--quick"]) == 0 and calls == [{"quick": True}]
    assert cli.build_parser() is parser


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_parser():
    """The next build_parser() call builds; the test's parser is dropped after."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_twenty_calls_build_the_parser_once(capsys, monkeypatch, fresh_parser):
    built, real = [], argparse.ArgumentParser.__init__

    @functools.wraps(real)
    def counted(self, *args, **kwargs):  # every parser, subparsers too
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["apply", "--symbol", "const", "--grid", "8", "--mode", "single:eta=1"]
    outs = []
    for call in range(20):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        if call == 0:
            first = len(built)
    assert first == len(built) == 1 + len(cli.COMMANDS) + len(cli._GROUPS)
    assert outs == outs[:1] * 20


def test_a_flag_does_not_carry_into_the_next_call(capsys):
    argv = ["apply", "--symbol", "const", "--grid", "16", "--mode", "random:band=0.4"]
    seeded, unseeded, zero = (run_json(capsys, argv + extra)
                              for extra in (["--seed", "5"], [], ["--seed", "0"]))
    assert unseeded == zero != seeded


def test_help_exits_0_for_every_subcommand_from_one_parser(capsys):
    parser = cli.build_parser()
    for name in cli.COMMANDS:
        with pytest.raises(SystemExit) as info:
            main([*name.split(), "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: pdlab {name} ")
    assert cli.build_parser() is parser


def test_maximal_constant_builds_each_u_star_once(capsys, monkeypatch):
    calls = []
    real = pointwise.peetre_maximal

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pointwise, "peetre_maximal", counted)
    assert main(["pointwise", "maximal-constant", "--p", "2", "--grid", "32",
                 "--trials", "3"]) == 0
    out, err = capsys.readouterr()
    assert len(calls) == 3
    ratios = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
    assert json.loads(err)["C_p"] == max(ratios) and len(ratios) == 3
