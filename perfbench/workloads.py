"""The benchmark's workloads: fixed lists of `pdlab` CLI steps built from a
seed, each step paired with the exact identity its output must satisfy.

A step's check receives the step's captured stdout and the directory the
step ran in (where its --out files land) and returns a list of problems;
an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[str, Path], list]

EXACT_TOL = 1e-10  # the lab's identity tolerance (IDENTITY_TOL, selftest gates)


@dataclass(frozen=True)
class Step:
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    steps: tuple
    configs: dict  # file name -> JSON object, written beside the pass directories


def _expect_verdicts(report: str, expected: dict) -> Check:
    def check(stdout: str, pass_dir: Path) -> list:
        got = json.loads((pass_dir / report).read_text())["verdicts"]
        return [
            f"{report}: verdict {k!r} is {got.get(k)!r}, expected {v!r}"
            for k, v in expected.items()
            if got.get(k) != v
        ]

    return check


def _expect_json(*conditions: tuple) -> Check:
    """Conditions are (description, predicate on the stdout JSON object)."""

    def check(stdout: str, pass_dir: Path) -> list:
        obj = json.loads(stdout)
        return [f"{what} fails" for what, ok in conditions if not ok(obj)]

    return check


def _selftest_passed(stdout: str, pass_dir: Path) -> list:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return [] if last.endswith("gates passed") else [f"selftest ended with {last!r}"]


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


_PARADIFF_OK = _expect_json(
    ("residual_rel <= 1e-10", lambda o: o["residual_rel"] <= EXACT_TOL),
    ("corona max_outside <= 1e-10", lambda o: o["corona"]["max_outside"] <= EXACT_TOL),
)
_FACTORIZE_OK = _expect_json(("factorization holds", lambda o: o["holds"] is True))
# u* >= |u| pointwise without rounding (offset 0 has weight exactly 1)
_MAXIMAL_OK = _expect_json(("C_p >= 1", lambda o: o["C_p"] >= 1.0))
_SUPPORT_OK = _expect_json(("support rule holds", lambda o: o["holds"] is True))
_NORM_OK = _expect_json(("norm finite and > 0", lambda o: _finite_positive(o["value"])))
_APPLY_OK = _expect_json(
    ("output L2 finite and > 0", lambda o: _finite_positive(o["out_l2"])),
    ("dominant modes listed", lambda o: len(o["dominant_modes"]) > 0),
)
_VFM_OK = _expect_json(
    # saturated modulation is an exact no-op, so profiles agree to rounding
    ("cross-profile deviation <= 1e-12", lambda o: o["cross_profile_deviation"] <= 1e-12),
)


def _borderline_verdicts(report: str) -> Check:
    f_lab = "F:s=0,p=2,q=1 -> L:p=2"
    b_lab = "B:s=0,p=2,q=2 -> L:p=2"
    return _expect_verdicts(
        report,
        {
            f_lab: "bounded-consistent",
            b_lab: "blow-up",
            f_lab + " [control]": "clean",
            b_lab + " [control]": "clean",
        },
    )


def lacunary_1d(seed: int) -> Workload:
    """Few huge 1-d calls: the Ching separable apply, smoothstep and the F/B
    norms do the work; no dense table is built."""
    configs = {
        "counterexample.json": {},
        "continuity.json": {
            "symbol": "ching:d=0,theta=+1,jmax=auto",
            "params": {
                "cases": [["F:s=0,p=2,q=1", "L:p=2"], ["B:s=0,p=2,q=2", "L:p=2"]],
                "grids": [2**7, 2**11, 2**18],
                "trials": 2,
            },
            "seed": seed,
        },
    }
    steps = (
        Step(
            ("experiment", "counterexample", "--config", "../counterexample.json",
             "--out", "counterexample.json"),
            _expect_verdicts(
                "counterexample.json",
                {"identity": True, "blow_up": True, "control_no_blow_up": True},
            ),
        ),
        Step(
            ("experiment", "continuity", "--config", "../continuity.json",
             "--out", "continuity.json"),
            _borderline_verdicts("continuity.json"),
        ),
    )
    return Workload(steps, configs)


def dense_tables(seed: int) -> Workload:
    """N^n x N^n tables, the phase matrix and the brute-force Peetre maximal
    function; the Ching path is never used.  Memory-bound."""
    steps = []
    for n, N in ((1, 1024), (2, 32)):
        common = ("--symbol", f"elementary:seed={seed}", "--grid", str(N), "--n", str(n),
                  "--mode", f"random:band=0.4,seed={seed}")
        steps.append(Step(
            ("paradiff", *common, "--report", "corona", "--out", f"paradiff-{n}d.json"),
            _PARADIFF_OK,
        ))
        steps.append(Step(
            ("pointwise", "factorize", *common, "--out", f"factorize-{n}d.csv"),
            _FACTORIZE_OK,
        ))
    steps.append(Step(
        ("pointwise", "maximal-constant", "--p", "2", "--n", "2", "--grid", "64",
         "--seed", str(seed), "--out", "maximal.csv"),
        _MAXIMAL_OK,
    ))
    return Workload(tuple(steps), {})


def small_grids(seed: int) -> Workload:
    """The same apply, split and norm layers reached through many short
    calls: per-call set-up, pool start-up, tabulation and report writing."""
    configs = {
        "wavefront.json": {},
        "sigma.json": {
            "symbol": "ching:d=0,theta=1,jmax=7,zr=1,zw=0.25",
            "grid": {"n": 1, "N": 512},
            "params": {"r_expected": 1.0},
        },
        "continuity.json": {
            "symbol": "ching:d=1.5,theta=+1,jmax=auto",
            "params": {
                "cases": [["L:p=2", "L:p=2"], ["H:s=1.5", "H:s=0"]],
                "grids": [64, 128, 256],
                "trials": 4,
                "band_fraction": 0.9,
            },
            "seed": seed,
        },
    }
    rand = f"random:band=0.4,seed={seed}"
    elem = f"elementary:seed={seed}"
    steps = [
        Step(("selftest",), _selftest_passed),
        Step(
            ("experiment", "wavefront", "--config", "../wavefront.json",
             "--out", "wavefront.json"),
            _expect_verdicts("wavefront.json", {"flip_exact": True}),
        ),
        Step(
            ("experiment", "sigma", "--config", "../sigma.json", "--out", "sigma.json"),
            _expect_verdicts("sigma.json", {"sigma_matches": True, "onset_matches": True}),
        ),
        Step(
            ("experiment", "continuity", "--config", "../continuity.json",
             "--out", "continuity.json"),
            _expect_verdicts(
                "continuity.json",
                {
                    "L:p=2 -> L:p=2": "blow-up",
                    "H:s=1.5 -> H:s=0": "bounded-consistent",
                    "L:p=2 -> L:p=2 [control]": "clean",
                    "H:s=1.5 -> H:s=0 [control]": "clean",
                },
            ),
        ),
        Step(
            ("vfm", "--symbol", f"{elem},J=4", "--grid", "64", "--mode", rand,
             "--refine", "3", "--out", "vfm.json"),
            _VFM_OK,
        ),
    ]
    for kind in ("spatial", "spectral"):
        steps.append(Step(
            ("support-rule", "--symbol", f"{elem},J=4", "--grid", "256",
             "--mode", f"random:band=0.2,seed={seed}", "--kind", kind,
             "--out", f"support-{kind}.json"),
            _SUPPORT_OK,
        ))
    steps.append(Step(
        ("norms", "--space", "F:s=0.5,p=2,q=1", "--mode", rand, "--grid", "4096", "--json"),
        _NORM_OK,
    ))
    steps.append(Step(
        ("norms", "--space", "B:s=0.5,p=2,q=2", "--mode", rand, "--grid", "256", "--n", "2",
         "--json"),
        _NORM_OK,
    ))
    for n, N, theta in ((1, 4096, "+1"), (2, 256, "1e1+1e2")):
        for symbol in (f"ching:d=0,theta={theta},jmax=auto", elem):
            steps.append(Step(
                ("apply", "--symbol", symbol, "--grid", str(N), "--n", str(n), "--mode", rand),
                _APPLY_OK,
            ))
    return Workload(tuple(steps), configs)


WORKLOADS = {
    "lacunary-1d": lacunary_1d,
    "dense-tables": dense_tables,
    "small-grids": small_grids,
}

# apply_auto against the reference quadrature `apply`, on the largest grids
# the reference admits; run once per benchmark run, outside the timed passes
REFERENCE_CASES = (
    ("ching:d=0,theta=+1,jmax=auto", 1, 2048),
    ("elementary:seed={seed}", 1, 2048),
    ("ching:d=0,theta=1e1+1e2,jmax=auto", 2, 64),
    ("elementary:seed={seed}", 2, 64),
)
REFERENCE_INPUT = "random:band=0.4,seed={seed}"
