"""Command-line front end: argparse dispatch, JSON run configs, input and
symbol construction from spec strings, and persistence of every report.

Spec strings (--mode, --symbol, --space, --frame) share one grammar,
'kind:k=v,...' (a frame has no kind): a kind's keys are its builder's keyword
arguments, those without defaults are required, and each value is decoded by
the argument's annotation.  `experiment NAME` calls the pdlab.experiments
function RUNNERS[NAME] by the same rule: "params" and "thresholds" are its
keyword arguments less those the CLI builds (spec, A, symbol, a, frame, seed).
Unknown keys are errors, as are a config grid, seed or frame the runner cannot
use and a --grid/--n that disagrees with an input file (--input or file:).

Exit codes: 0 success, 1 a selftest gate failed, 2 usage errors (unknown
flags, malformed options or configs, unreadable input files).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from . import experiments
from .experiments import ExperimentReport, parse_norm
from .frame import (
    DEFAULT_FRAME,
    LPFrame,
    ModulationFunction,
    decode,
    decode_options,
    frame_from_options,
    keyword_options,
    parse_spec,
)
from .grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    as_spectral,
    as_values,
    lp_norm,
    random_band_limited,
    random_band_spectrum,
    read_pdgf,
    single_mode,
    spectrum_from_coeffs,
    write_pdgf,
)
from .operators import (
    apply_auto,
    corona_ball_report,
    paradiff_split,
    plan,
    spectral_support_rule_check,
    support_rule_check,
    vfm_limit,
    vfm_refinement,
)
from .pointwise import (
    MaximalParams,
    factorization_check,
    maximal_lp_constant,
    maximal_ratio,
    mihlin_bound_check,
    moment_decay_check,
)
from .reporting import (
    _sanitize,
    write_csv,
    write_report_csv,
    write_report_dat,
    write_report_json,
    write_report_svg,
)
from .symbols import ching_symbol, parse_symbol_spec, symbol_factory


# ---------------------------------------------------------------------------
# spec strings


def _parse_eta(text: str) -> tuple[int, ...]:
    """'32' for n=1, '3x-4' for n=2 (comma is taken by the option list)."""
    return tuple(int(p) for p in text.split("x"))


def _single(spec: GridSpec, run_seed: int, *, eta: Annotated[tuple[int, ...], _parse_eta]):
    if len(eta) != spec.n:
        text = "x".join(map(str, eta))
        raise ValueError(f"eta {text!r} has {len(eta)} components, grid has n={spec.n}")
    return single_mode(spec, eta)


def _lacunary(spec: GridSpec, run_seed: int, *, N: int, d: float = 0.0, theta: int = 1):
    return experiments.lacunary_spectrum(spec, N, d=d, theta=theta)


def _ladder(spec: GridSpec, run_seed: int, *, J: int = 6, d: float = 0.5):
    if spec.n != 1:
        raise ValueError("ladder mode runs on 1-d grids")
    if not 1 <= J or 2**J > spec.N // 2:
        raise ValueError(f"ladder J={J} does not fit on an N={spec.N} grid")
    return spectrum_from_coeffs(spec, {2**j: 2.0 ** (-j * d) for j in range(1, J + 1)})


def _random(spec: GridSpec, run_seed: int, *, band: float = 0.4, seed: int | None = None):
    if not 0.0 < band <= 1.0:
        raise ValueError(f"random band must be in (0, 1], got {band}")
    rng = np.random.default_rng(run_seed if seed is None else seed)
    return random_band_spectrum(spec, band * (spec.N // 2), rng)


INPUT_KINDS = {"single": _single, "lacunary": _lacunary, "ladder": _ladder, "random": _random}
"""Input generator kinds; each builder takes (grid, run seed) and gives exact
coefficients (single: grid values)."""


def make_input(text: str, spec: GridSpec, seed: int = 0) -> GridFunction:
    """Build a grid function's values from a generator string.

    Forms: single:eta=32 (n=2: eta=3x-4)
           lacunary:N=3[,d=0][,theta=1]
           ladder:J=6[,d=0.5]            (modes 2^j, weights 2^{-jd})
           random:band=0.4[,seed=0]
           file:u.pdgf
    """
    if text.startswith("file:"):
        return read_pdgf(text.removeprefix("file:"))
    return as_values(parse_spec(text, INPUT_KINDS, "input")(spec, seed))


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration; `raw` keeps the file's JSON
    object verbatim for embedding into reports.  `params` and `thresholds`
    are checked against the runner when it is dispatched."""

    grid: GridSpec | None
    frame: LPFrame
    symbol: str | None
    params: dict
    seed: int
    thresholds: dict
    out: dict
    raw: dict


_CONFIG_TYPES = {
    "grid": dict | None,
    "frame": dict | None,
    "symbol": str | None,
    "params": dict,
    "seed": int,
    "thresholds": dict,
    "out": dict[str, str],
}


def config_from_dict(obj: dict) -> RunConfig:
    c = decode_options(obj, _CONFIG_TYPES, "config")
    grid = c.get("grid")
    if grid is not None:
        g = decode_options(grid, {"n": int, "N": int}, "grid", required=("N",))
        grid = GridSpec(n=g.get("n", 1), N=g["N"])
    frame = c.get("frame")
    if frame is not None:
        hints, _ = keyword_options(frame_from_options)
        frame = frame_from_options(**decode_options(frame, hints, "frame"))
    return RunConfig(
        grid=grid,
        frame=frame or DEFAULT_FRAME,
        symbol=c.get("symbol"),
        params=c.get("params", {}),
        seed=c.get("seed", 0),
        thresholds=c.get("thresholds", {}),
        out=c.get("out", {}),
        raw=obj,
    )


def load_config(path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


RUNNERS = {
    "counterexample": "run_counterexample",
    "wavefront": "run_wavefront",
    "continuity": "run_continuity_table",
    "sigma": "run_sigma_estimate",
}
"""Experiment name -> runner function name in pdlab.experiments."""

# runner arguments the CLI builds from the config itself
_SUPPLIED = ("spec", "A", "symbol", "a", "frame", "seed")


def dispatch_experiment(runner: str, cfg: RunConfig) -> ExperimentReport:
    """Call the runner with the config's params and thresholds decoded by
    the runner's own signature, plus the arguments the CLI supplies."""
    fn = getattr(experiments, RUNNERS[runner])  # at call time: it may be rebound
    params = inspect.signature(fn, eval_str=True).parameters
    settable = {k: p.annotation for k, p in params.items() if k not in _SUPPLIED}
    kw = decode_options(cfg.params, settable, "params")
    thresholds = decode_options(cfg.thresholds, settable, "thresholds")
    both = set(kw) & set(thresholds)
    if both:
        raise ValueError(f"keys {sorted(both)} are set in both params and thresholds")
    kw.update(thresholds)
    for k in settable:
        if params[k].default is inspect.Parameter.empty and k not in kw:
            raise ValueError(f"{runner} needs params.{k}")

    takes_symbol = "symbol" in params or "a" in params
    if takes_symbol and cfg.symbol is None:
        raise ValueError(f"{runner} needs a config symbol")
    if cfg.symbol is not None and not takes_symbol:
        raise ValueError(f"{runner} builds its own symbol; drop config symbol")
    if "spec" in params:
        if cfg.grid is None and params["spec"].default is inspect.Parameter.empty:
            raise ValueError(f"{runner} needs a config grid")
        kw["spec"] = cfg.grid
    elif cfg.grid is not None:
        raise ValueError(f"{runner} takes no config grid")
    if "seed" in cfg.raw and "seed" not in params:
        raise ValueError(f"{runner} takes no config seed")
    if cfg.raw.get("frame") is not None and not {"frame", "symbol", "a"} & set(params):
        raise ValueError(f"{runner} takes no config frame")
    if "symbol" in params:
        kw["symbol"] = symbol_factory(cfg.symbol, cfg.frame)
    if "a" in params:
        kw["a"] = symbol_factory(cfg.symbol, cfg.frame)(cfg.grid)
    if "frame" in params:
        kw["frame"] = cfg.frame
    if "seed" in params:
        kw["seed"] = cfg.seed
    return fn(**kw)


# ---------------------------------------------------------------------------
# per-subcommand helpers


_GRID_DEFAULT = 256


def _grid_from_args(args) -> GridSpec:
    n = 1 if args.n is None else args.n
    return GridSpec(n=n, N=_GRID_DEFAULT if args.grid is None else args.grid)


def _frame_from_args(args) -> LPFrame:
    if not args.frame:
        return DEFAULT_FRAME
    return parse_spec(args.frame, frame_from_options, "frame")()


def _read_input(args, path: str) -> GridFunction:
    """The .pdgf file at path (--input or a file: mode); explicit
    --grid/--n must match its grid."""
    u = read_pdgf(path)
    for flag, given, actual in (("--grid", args.grid, u.spec.N), ("--n", args.n, u.spec.n)):
        if given is not None and given != actual:
            raise ValueError(
                f"{path} holds an n={u.spec.n}, N={u.spec.N} function; "
                f"{flag} {given} disagrees"
            )
    return u


def _make_input(args, text: str, spec: GridSpec) -> GridFunction | SpectralFunction:
    """A file's grid values, or a generator's own output: exact coefficients
    for all but single."""
    if text.startswith("file:"):
        return _read_input(args, text.removeprefix("file:"))
    return parse_spec(text, INPUT_KINDS, "input")(spec, args.seed)


def _input(args) -> GridFunction | SpectralFunction:
    """The input function, on the grid every other object is built on.

    A .pdgf input (--input or a file: mode) defines the grid; explicit
    --grid/--n must then agree.  Generator modes realize on the --grid/--n
    lattice (_make_input).
    """
    if args.input is not None:
        return _read_input(args, args.input)
    return _make_input(args, args.mode, _grid_from_args(args))


def _resolve_io(args) -> tuple[GridFunction, GridSpec]:
    """_input as grid values, and its grid."""
    u = as_values(_input(args))
    return u, u.spec


def _emit_json(obj: dict, out_path: str | None) -> None:
    text = json.dumps(_sanitize(obj), indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


def _dominant_modes(y: SpectralFunction, limit: int = 8) -> list[dict]:
    c = y.coeffs
    flat = np.abs(c).ravel()
    top = flat.max()
    if top == 0.0:
        return []
    order = np.argsort(flat)[::-1][:limit]
    mesh = y.spec.freq_mesh()
    out = []
    for idx in order:
        if flat[idx] <= 1e-12 * top:
            break
        pos = np.unravel_index(idx, y.spec.shape)
        eta = [int(m[pos]) for m in mesh]
        val = c[pos]
        out.append(
            {
                "eta": eta[0] if y.spec.n == 1 else eta,
                "abs": float(abs(val)),
                "re": float(val.real),
                "im": float(val.imag),
            }
        )
    return out


def _add_grid_flags(p: argparse.ArgumentParser, frame: bool = True) -> None:
    p.add_argument("--grid", type=int, help=f"grid size N (default {_GRID_DEFAULT})")
    p.add_argument("--n", type=int, choices=(1, 2), help="dimension (default 1)")
    if frame:
        p.add_argument("--frame", help="frame options r=..,R=..,h=..[,profile=..]")
    p.add_argument("--seed", type=int, default=0, help="seed for random generators")


def _add_symbol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--symbol", required=True, help="symbol spec string")
    _add_grid_flags(p)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    _add_symbol_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input .pdgf file")
    src.add_argument("--mode", help="input generator string")


# ---------------------------------------------------------------------------
# subcommands


def cmd_apply(args) -> int:
    u = as_spectral(_input(args))  # a generator's coefficients as they are; a file's by FFT
    spec = u.spec
    a = symbol_factory(args.symbol, _frame_from_args(args))(spec)
    out = plan(a, spec)(u)  # coefficients on the shift route, else grid values
    y = as_spectral(out)
    if args.out:
        write_pdgf(as_values(out), args.out)
    if args.spectrum_csv:
        etas = zip(*(m.ravel().tolist() for m in spec.freq_mesh()))
        coeffs = y.coeffs.ravel().tolist()  # Python complex: plain float cells
        rows = [[*eta, repr(c.real), repr(c.imag)] for eta, c in zip(etas, coeffs)]
        write_csv(
            args.spectrum_csv,
            [f"eta{i + 1}" for i in range(spec.n)] + ["re", "im"],
            rows,
        )
    _emit_json(
        {
            "grid": {"n": spec.n, "N": spec.N},
            "symbol": args.symbol,
            "in_l2": lp_norm(u, 2),
            "out_l2": lp_norm(y, 2),
            "dominant_modes": _dominant_modes(y),
            "out": args.out,
        },
        None,
    )
    return 0


def cmd_norms(args) -> int:
    frame = _frame_from_args(args)
    spec = _grid_from_args(args)
    if args.corpus is not None:
        entries = json.loads(Path(args.corpus).read_text())
        if not isinstance(entries, list):
            raise ValueError("corpus must be a JSON list of generator strings")
        label, fn, _ = parse_norm(args.space, frame)
        rows = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, str):
                raise ValueError(f"corpus entry {i} must be a generator string")
            rows.append((i, entry, label, repr(fn(_make_input(args, entry, spec)))))
        if args.out:
            write_csv(args.out, ("index", "mode", "space", "norm"), rows)
        else:
            print("index,mode,space,norm")
            for row in rows:
                print(",".join(str(x) for x in row))
        return 0
    if args.input is not None:
        u = _read_input(args, args.input)
    else:
        u = _make_input(args, args.mode, spec)
    label, fn, _ = parse_norm(args.space, frame)
    value = fn(u)
    if args.json:
        _emit_json(
            {"space": label, "value": value, "grid": {"n": u.spec.n, "N": u.spec.N}},
            None,
        )
    else:
        print(repr(value))
    return 0


def cmd_vfm(args) -> int:
    u, spec = _resolve_io(args)
    frame = _frame_from_args(args)
    build = symbol_factory(args.symbol, frame)
    if args.psi_count < 2:
        raise ValueError("need at least two modulation profiles")
    psis = tuple(
        ModulationFunction(r=1.0 * 0.8**i, R=2.0 * 0.8**i) for i in range(args.psi_count)
    )
    if args.refine:
        if args.refine < 2:
            raise ValueError("--refine counts grids, need at least 2")
        if args.mode is None or args.mode.startswith("file:"):
            raise ValueError(
                "--refine needs a generator --mode (the input is re-sampled per grid)"
            )
    trace = vfm_limit(build(spec), u, psis, m_max=args.m_max)
    obj: dict = {
        "grid": {"n": spec.n, "N": spec.N},
        "symbol": args.symbol,
        "tags": trace.tags,
        "m_values": trace.m_values,
        "l2_norms": trace.l2_norms,
        "m_sat": trace.m_sat,
        "cross_profile_deviation": trace.cross_dev,
    }
    if args.refine:
        specs = [GridSpec(n=spec.n, N=spec.N << i) for i in range(args.refine)]
        rr = vfm_refinement(
            build, lambda s: make_input(args.mode, s, seed=args.seed), specs, psis
        )
        obj["refinement"] = {
            "grid_sizes": list(rr.grid_sizes),
            "l2_norms": list(rr.l2_norms),
            "growth_factors": list(rr.growth_factors),
            "rel_changes": list(rr.rel_changes),
            "diverging": rr.diverging,
            "cauchy": rr.cauchy,
        }
    _emit_json(obj, args.out)
    return 0


def cmd_paradiff(args) -> int:
    u, spec = _resolve_io(args)
    frame = _frame_from_args(args)
    a = symbol_factory(args.symbol, frame)(spec)
    terms = paradiff_split(a, u, frame)
    y = apply_auto(a, u)
    recon = terms.total()
    denom = max(lp_norm(y, math.inf), 1e-300)
    obj: dict = {
        "grid": {"n": spec.n, "N": spec.N},
        "symbol": args.symbol,
        "K": terms.K,
        "residual_rel": lp_norm(recon - y, math.inf) / denom,
    }
    if args.report == "corona":
        rep = corona_ball_report(terms, B=args.B)
        obj["corona"] = {
            "rows": [
                {
                    "term": row.series,
                    "k": row.k,
                    "outside_mass": row.outside_mass,
                    "bound": row.hi,
                    "lo": row.lo,
                    "mass": row.mass,
                    "active": row.active,
                }
                for row in rep.rows
            ],
            "max_outside": rep.max_outside,
            "tdc_B": rep.tdc_B,
            "eventual_tdc_ok": rep.eventual_tdc_ok,
        }
    _emit_json(obj, args.out)
    return 0


def cmd_support_rule(args) -> int:
    u, spec = _resolve_io(args)
    frame = _frame_from_args(args)
    a = symbol_factory(args.symbol, frame)(spec)
    check = spectral_support_rule_check if args.kind == "spectral" else support_rule_check
    rep = check(a, u, tau=args.tau)
    _emit_json(
        {
            "grid": {"n": spec.n, "N": spec.N},
            "symbol": args.symbol,
            "kind": args.kind,
            "holds": rep.holds,
            "violation_mass": rep.violation_mass,
            "tau": rep.tau,
            "output_support": rep.output_support,
            "allowed_support": rep.allowed_support,
        },
        args.out,
    )
    return 0


def _pointwise_csv(args, header, rows, summary: dict) -> int:
    if args.out:
        write_csv(args.out, header, rows)
        _emit_json(summary, None)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
        print(json.dumps(_sanitize(summary)), file=sys.stderr)
    return 0


def _ratio_rows(spec: GridSpec, lhs: np.ndarray, rhs: np.ndarray) -> list[tuple]:
    """(x, lhs, rhs, lhs/rhs) per grid point; x is the flat index for n=2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0.0, lhs / rhs, np.where(lhs > 0.0, np.inf, 0.0))
    xs = spec.axis_coords() if spec.n == 1 else np.arange(spec.npoints, dtype=float)
    return [
        (repr(float(x)), repr(float(a)), repr(float(b)), repr(float(r)))
        for x, a, b, r in zip(xs, lhs, rhs, ratio)
    ]


def cmd_pointwise_factorize(args) -> int:
    u, spec = _resolve_io(args)
    frame = _frame_from_args(args)
    a = symbol_factory(args.symbol, frame)(spec)
    rep = factorization_check(a, u, tau=args.tau)
    return _pointwise_csv(
        args,
        ("x", "lhs", "rhs", "ratio"),
        _ratio_rows(spec, rep.lhs.ravel(), rep.bound.ravel()),
        {
            "max_ratio": rep.max_ratio,
            "holds": rep.holds,
            "N_exp": rep.params.N_exp,
            "R": rep.params.R_spec,
        },
    )


def cmd_pointwise_maximal(args) -> int:
    spec = _grid_from_args(args)
    corpus = [
        random_band_limited(spec, args.band * (spec.N // 2), np.random.default_rng([args.seed, t]))
        for t in range(args.trials)
    ]
    n_exp = args.N_exp if args.N_exp is not None else math.floor(spec.n / args.p) + 1
    rows = []
    for t, u in enumerate(corpus):
        rhs = lp_norm(u, args.p)
        ratio = maximal_ratio([u], args.p, n_exp)
        rows.append((t, repr(ratio * rhs), repr(rhs), repr(ratio)))
    c_p = maximal_lp_constant(corpus, args.p, n_exp)
    return _pointwise_csv(
        args,
        ("x", "lhs", "rhs", "ratio"),
        rows,
        {"C_p": c_p, "p": args.p, "N_exp": n_exp, "trials": args.trials},
    )


def cmd_pointwise_mihlin(args) -> int:
    spec = _grid_from_args(args)
    frame = _frame_from_args(args)
    a = symbol_factory(args.symbol, frame)(spec)
    R = args.R if args.R is not None else spec.N / 4.0
    p = MaximalParams(N_exp=args.N_exp, R_spec=R)
    rep = mihlin_bound_check(a, p, args.c, spec=spec, slack=args.slack)
    return _pointwise_csv(
        args,
        ("x", "lhs", "rhs", "ratio"),
        _ratio_rows(spec, rep.factor.ravel(), (rep.c_used * rep.rhs).ravel()),
        {"k": rep.k, "c_used": rep.c_used, "worst_ratio": rep.worst_ratio, "holds": rep.holds},
    )


def cmd_pointwise_moment_decay(args) -> int:
    spec = _grid_from_args(args)
    frame = _frame_from_args(args)
    a = symbol_factory(args.symbol, frame)(spec)
    R = args.R if args.R is not None else spec.N / 8.0
    p = MaximalParams(N_exp=args.N_exp, R_spec=R)
    floats = Annotated[list, lambda text: [float(q) for q in text.split(",")]]
    q_grid = decode(args.q_grid, floats, f"--q-grid {args.q_grid!r}", text=True)
    rep = moment_decay_check(a, p, q_grid, args.M, spec=spec)
    base_x, base_v = rep.fit.xs[0], rep.fit.values[0]
    rows = []
    for q, v in zip(rep.fit.xs, rep.fit.values):
        fitted = base_v * (q / base_x) ** rep.fit.slope if base_v > 0.0 else 0.0
        r = v / fitted if fitted > 0.0 else (math.inf if v > 0.0 else 0.0)
        rows.append((repr(float(q)), repr(float(v)), repr(float(fitted)), repr(float(r))))
    return _pointwise_csv(
        args,
        ("x", "lhs", "rhs", "ratio"),
        rows,
        {
            "M": rep.M,
            "slope": rep.fit.slope,
            "cliff": rep.fit.cliff,
            "step_drops": list(rep.step_drops),
            "holds": rep.holds,
        },
    )


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    report = dispatch_experiment(args.runner, cfg)
    out = Path(args.out)
    write_report_json(report, out, config=cfg.raw)
    csv_path = args.csv or cfg.out.get("csv") or out.with_suffix(".csv")
    dat_path = args.dat or cfg.out.get("dat") or out.with_suffix(".dat")
    write_report_csv(report, csv_path)
    write_report_dat(report, dat_path)
    written = [str(out), str(csv_path), str(dat_path)]
    svg_path = args.svg or cfg.out.get("svg")
    if svg_path:
        write_report_svg(report, svg_path)
        written.append(str(svg_path))
    for name, verdict in report.verdicts.items():
        print(f"verdict {name}: {verdict}")
    print("wrote " + " ".join(written))
    return 0


# ---------------------------------------------------------------------------
# selftest gates


def _gate(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


@functools.cache  # a pure function of fixed constants: both paradiff gates share one build
def _gate_paradiff_pair():
    from .symbols import TabulatedSymbol, random_elementary

    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=1)
    tab = TabulatedSymbol(spec, a.table(spec), d=0.0)
    u = random_band_limited(spec, 40, np.random.default_rng(2))
    terms = paradiff_split(tab, u)
    y = apply_auto(tab, u)
    return terms, y, terms.total()


def gate_paradiff_identity():
    _, y, recon = _gate_paradiff_pair()
    rel = lp_norm(recon - y, math.inf) / max(lp_norm(y, math.inf), 1e-300)
    _gate(rel <= 1e-10, f"three-series identity residual {rel:.3e} > 1e-10")


def gate_corona_containment():
    terms, _, _ = _gate_paradiff_pair()
    rep = corona_ball_report(terms)
    _gate(
        rep.max_outside <= 1e-10,
        f"corona outside mass {rep.max_outside:.3e} > 1e-10",
    )


def gate_lacunary_amplification():
    rep, lattice = (experiments.run_counterexample(N_list=(2, 3), spec=s)
                    for s in (None, GridSpec(1, 2**11)))  # mode space, and its lattice oracle
    _gate(rep.verdicts["identity"] and lattice.verdicts["identity"],
          "lattice identity a(x,D)v_N = c_N v failed")
    ratios = list(rep.series("ratio").values())
    _gate(ratios[1] > ratios[0], "amplification ratios did not increase")
    drift = max(abs(m.value - g.value) / abs(g.value) for m, g in zip(rep.rows, lattice.rows)
                if not m.quantity.startswith("residual"))
    _gate(drift <= 1e-13, f"mode-space rows differ from the lattice route's by {drift:.3e}")


def gate_wavefront_flip():
    rep = experiments.run_wavefront(J=5, spec=GridSpec(1, 256))
    _gate(rep.verdicts["flip_exact"], "flip identity failed")
    _gate(rep.verdicts["spectrum_flipped"], "output mass not on the flipped half-axis")


def gate_frequency_shift():
    spec = GridSpec(1, 256)
    a = parse_symbol_spec("ching:d=0,theta=+1,jmax=6", spec)
    c = as_spectral(plan(a, spec)(spectrum_from_coeffs(spec, {32: 1.0}))).coeffs
    total = float(np.sum(np.abs(c) ** 2))
    _gate(total > 0.0, "shifted output vanished")
    at_zero = float(np.abs(c[spec.N // 2]) ** 2)
    _gate(
        at_zero >= (1.0 - 1e-12) * total,
        "output spectrum is not the single frequency 0",
    )


def gate_factorization():
    from .symbols import random_elementary

    spec = GridSpec(1, 128)
    for seed in (0, 1, 2):
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=seed)
        u = random_band_limited(spec, 16, np.random.default_rng(seed + 10))
        rep = factorization_check(a, u)
        _gate(
            rep.holds,
            f"pointwise factorization ratio {rep.max_ratio:.6f} > 1 (seed {seed})",
        )


def gate_strict_tdc():
    from .symbols import check_twisted_diagonal, localize_symbol, mask_twisted_diagonal

    spec = GridSpec(1, 128)
    a = ching_symbol(0.0, theta=2, j_max=5, spec=spec)
    mass = check_twisted_diagonal(a, a.tdc_B, spec=spec).violation_mass
    _gate(mass == 0.0, f"twisted-diagonal violation mass {mass:.3e} != 0")
    masked = mask_twisted_diagonal(a, a.tdc_B, spec=spec)
    loc = localize_symbol(masked, 0.25, spec)
    peak = float(np.abs(loc.table(spec)).max())
    _gate(peak == 0.0, f"localized strict-tdc symbol peaks at {peak:.3e}, not 0")


def gate_scale_sandwich():
    from .spaces import embedding_report

    u = random_band_limited(GridSpec(1, 64), 20, np.random.default_rng(3))
    eq = embedding_report([u], s=0.5, p=2.0, q=2.0, p_target=4.0)
    off = max(abs(eq.sandwich_inner - 1.0), abs(eq.sandwich_outer - 1.0))
    _gate(off <= 1e-12, f"B and F norms differ at p=q: F/B {eq.sandwich_inner!r}, "
                        f"B/F {eq.sandwich_outer!r}")
    rep = embedding_report([u], s=0.5, p=2.0, q=1.0, p_target=4.0)
    worst = max(rep.sandwich_inner, rep.sandwich_outer)
    _gate(worst <= 1.0 + 1e-9 and rep.holds,
          f"B^s_(p,min(p,q)) -> F^s_(p,q) -> B^s_(p,max(p,q)) fails at q=1: "
          f"F/B {rep.sandwich_inner!r}, B/F {rep.sandwich_outer!r}")


def gate_summation_lemma():
    from .spaces import summation_lemma_check

    c = summation_lemma_check(s=-0.5, q=2.0, count=100, length=32, seed=0)
    _gate(math.isfinite(c) and c > 0.0, f"summation lemma fit returned {c!r}")


def gate_support_rule():
    from .symbols import random_elementary

    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=5)
    u = random_band_limited(spec, 16, np.random.default_rng(6))
    rep = spectral_support_rule_check(a, u)
    _gate(rep.holds, f"spectral support rule violated, mass {rep.violation_mass:.3e}")


def gate_maximal_stability():
    vals = []
    for N in (64, 128):
        spec = GridSpec(1, N)
        corpus = [
            random_band_limited(spec, 0.25 * (N // 2), np.random.default_rng([7, t]))
            for t in range(6)
        ]
        vals.append(maximal_lp_constant(corpus, 2.0, 2.0))
    lo, hi = sorted(vals)
    _gate(hi <= 1.5 * lo, f"maximal constant drifted {vals[0]:.4f} -> {vals[1]:.4f}")


def gate_sigma_order():
    from .symbols import RadialBump, TabulatedSymbol, sigma_order_estimate

    bump = RadialBump(zero_order=1, zero_width=0.25)
    spec = GridSpec(1, 512)
    a = ching_symbol(0.0, theta=1, A=bump, j_max=7, spec=spec)
    rep = experiments.run_sigma_estimate(a, spec, r_expected=1.0)
    _gate(rep.verdicts["sigma_matches"], "sigma_hat missed the planted zero order")
    _gate(rep.verdicts["onset_matches"], "boundedness onset missed -r")
    small = GridSpec(1, 128)  # the Gram route against the dense oracle
    b = ching_symbol(0.0, theta=1, A=bump, j_max=5, spec=small)
    gram, dense = ([v for fit in sigma_order_estimate(sym, (0, 1), spec=small)
                    for shells in fit.shell_values for v in shells.values()]
                   for sym in (b, TabulatedSymbol(small, b.table(small), d=b.d)))
    gap = max(abs(g - w) for g, w in zip(gram, dense, strict=True))
    _gate(gap <= 1e-13 * max(dense), f"Gram and dense shell values differ by {gap:.3e}")


def gate_continuity_identity():
    from .symbols import ConstantSymbol

    rep = experiments.run_continuity_table(
        ConstantSymbol(1.0), cases=[("L:p=2", "L:p=2")], grids=(64, 128), trials=3
    )
    _gate(
        rep.verdicts["L:p=2 -> L:p=2"] == "bounded-consistent",
        "identity operator not flagged bounded",
    )
    _gate(rep.verdicts["L:p=2 -> L:p=2 [control]"] == "clean", "control not clean")


def gate_vfm_independence():
    from .symbols import random_elementary

    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=7)
    u = random_band_limited(spec, 16, np.random.default_rng(8))
    trace = vfm_limit(a, u)
    _gate(
        trace.cross_dev <= 1e-12,
        f"saturated modulation outputs differ across profiles by {trace.cross_dev:.3e}",
    )


QUICK_GATES = [
    ("paradifferential three-series identity", gate_paradiff_identity),
    ("corona containment", gate_corona_containment),
    ("lacunary amplification identity", gate_lacunary_amplification),
    ("wavefront flip", gate_wavefront_flip),
    ("frequency-shift bookkeeping", gate_frequency_shift),
    ("pointwise factorization", gate_factorization),
    ("strict twisted-diagonal localization", gate_strict_tdc),
    ("B-F sandwich embedding", gate_scale_sandwich),
    ("dyadic summation lemma", gate_summation_lemma),
    ("spectral support rule", gate_support_rule),
]

FULL_GATES = QUICK_GATES + [
    ("maximal constant stability", gate_maximal_stability),
    ("sigma order recovery", gate_sigma_order),
    ("continuity identity table", gate_continuity_identity),
    ("vfm profile independence", gate_vfm_independence),
]


def cmd_selftest(args) -> int:
    gates = QUICK_GATES if args.quick else FULL_GATES
    for name, fn in gates:
        t0 = time.perf_counter()
        try:
            fn()
        except (AssertionError, ValueError) as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok {name} ({time.perf_counter() - t0:.2f}s)")
    print(f"selftest: {len(gates)} gates passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlab",
        description="Type 1,1 pseudo-differential operators on the discrete torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply a symbol to an input function")
    _add_io_flags(p)
    p.add_argument("--out", help="write the output as .pdgf")
    p.add_argument("--spectrum-csv", help="write the full output spectrum as CSV")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("norms", help="evaluate a norm on inputs")
    p.add_argument("--space", required=True, help="L:p=.., H:s=.., B:s=..,p=..,q=.., F:..")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input .pdgf file")
    src.add_argument("--mode", help="input generator string")
    src.add_argument("--corpus", help="JSON list of generator strings")
    _add_grid_flags(p)
    p.add_argument("--json", action="store_true", help="print JSON instead of a bare float")
    p.add_argument("--out", help="write corpus norms as CSV")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("vfm", help="vanishing frequency modulation trace")
    _add_io_flags(p)
    p.add_argument("--psi-count", type=int, default=2, help="number of modulation profiles")
    p.add_argument("--m-max", type=int, default=None, help="cap the modulation sweep")
    p.add_argument("--refine", type=int, default=0, help="compare this many doubling grids")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_vfm)

    p = sub.add_parser("paradiff", help="three-series paradifferential split")
    _add_io_flags(p)
    p.add_argument(
        "--report", choices=("identity", "corona"), default="identity",
        help="identity residual only, or add the corona containment table",
    )
    p.add_argument("--B", type=float, default=None, help="twisted-diagonal constant")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_paradiff)

    p = sub.add_parser("support-rule", help="kernel or spectral support containment")
    _add_io_flags(p)
    p.add_argument("--tau", type=float, default=1e-8, help="relative support threshold")
    p.add_argument("--kind", choices=("spatial", "spectral"), default="spatial")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_support_rule)

    p = sub.add_parser("pointwise", help="pointwise factorization estimates")
    psub = p.add_subparsers(dest="pointwise_command", required=True)

    q = psub.add_parser("factorize", help="|a(x,D)u| <= F_a u* per grid point")
    _add_io_flags(q)
    q.add_argument("--tau", type=float, default=1e-10)
    q.add_argument("--out", help="write the CSV here (summary JSON to stdout)")
    q.set_defaults(func=cmd_pointwise_factorize)

    q = psub.add_parser("maximal-constant", help="fitted constant in ||u*||_p <= C||u||_p")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--N-exp", type=float, default=None, help="Peetre exponent (default n/p+1)")
    q.add_argument("--trials", type=int, default=8)
    q.add_argument("--band", type=float, default=0.4)
    _add_grid_flags(q, frame=False)
    q.add_argument("--out", help="write the CSV here (summary JSON to stdout)")
    q.set_defaults(func=cmd_pointwise_maximal)

    q = psub.add_parser("mihlin", help="F_a against the derivative-sum bound")
    _add_symbol_flags(q)
    q.add_argument("--N-exp", type=float, default=2.0)
    q.add_argument("--R", type=float, default=None, help="spectral radius (default N/4)")
    q.add_argument("--c", type=float, default=None, help="constant (default: fitted)")
    q.add_argument("--slack", type=float, default=0.01)
    q.add_argument("--out", help="write the CSV here (summary JSON to stdout)")
    q.set_defaults(func=cmd_pointwise_mihlin)

    q = psub.add_parser("moment-decay", help="decay of F over x-high-passed symbols")
    _add_symbol_flags(q)
    q.add_argument("--M", type=int, default=2)
    q.add_argument("--q-grid", default="2,4,8,16", help="comma-separated dyadic Q values")
    q.add_argument("--N-exp", type=float, default=2.0)
    q.add_argument("--R", type=float, default=None, help="spectral radius (default N/8)")
    q.add_argument("--out", help="write the CSV here (summary JSON to stdout)")
    q.set_defaults(func=cmd_pointwise_moment_decay)

    p = sub.add_parser("experiment", help="run a packaged experiment from a JSON config")
    p.add_argument("runner", choices=tuple(RUNNERS))
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--csv", help="flat CSV path (default: report stem .csv)")
    p.add_argument("--dat", help="gnuplot .dat path (default: report stem .dat)")
    p.add_argument("--svg", help="SVG chart path (off unless given)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("selftest", help="run the exact-identity gate suite")
    p.add_argument("--quick", action="store_true", help="core gates only")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: input file not found: {missing}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
