"""Command-line front end: argparse dispatch, JSON run configs, input and
symbol construction from spec strings, and persistence of every report.

Spec strings (--mode, --symbol, --space, --frame) share one grammar,
'kind:k=v,...' (a frame has no kind): a kind's keys are its builder's keyword
arguments, those without defaults are required, and each value is decoded by
the argument's annotation.  Subcommands follow the same rule: COMMANDS names
each one's handler, whose keyword-only parameter psi_count: int = 2 is the
flag --psi-count, decoded by the annotation, the default if absent (a bool is
a switch, a Literal's members are listed, no default makes it required); the
docstring is the help.  Positional parameters with these names are supplied:

    spec    the grid                                    --grid --n
    u       the input: values if annotated GridFunction, --input | --mode,
            coefficients if SpectralFunction            --grid --n --seed
    a       the symbol on u's grid, else on spec        --symbol --frame
    symbol  its builder; its text if annotated str      --symbol --frame
    frame, seed  the frame, the run seed                --frame, --seed
    mode    the --mode text, None with --input          as u
    corpus  (text, input) per entry of a JSON list      --corpus, in u's group

The parser is built once per process, on the first build_parser() call, from
the handler signatures of that moment; main parses every call with it and
then looks the handler up by name, so a handler rebound later (a tracer, a
spy) is the one that runs, and must keep its signature (functools.wraps).

A .pdgf input (--input or file:) defines the grid: --grid/--n must agree.
A grid whose one complex grid array (16 N^n bytes) would pass
grid.MEMORY_BUDGET is refused before anything is built: --grid/--n, a
config's grid, and each of vfm --refine's doubled grids.
`experiment NAME` calls the pdlab.experiments function RUNNERS[NAME] by the
same rule: the config's grid, frame, symbol and seed are supplied, "params"
and "thresholds" give the rest, and an unusable key is an error.

`selftest` prints every check of every gate, its measured value beside the
bound it must meet, and stops at the first gate with a check outside.

Exit codes: 0 success, 1 a selftest gate failed (and nothing else), 2 usage
errors (unknown flags, malformed options or configs, unreadable input files,
values whose arithmetic overflows or divides by zero).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin

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
    check_grid_budget,
    lp_norm,
    random_band_limited,
    random_band_spectrum,
    read_pdgf,
    single_mode,
    spectrum_from_coeffs,
    write_pdgf,
)
from .operators import (
    apply,
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
    FACTORIZATION_SLACK,
    MaximalParams,
    factorization_check,
    maximal_lp_constant,
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
from .spaces import embedding_report, summation_lemma_check
from .symbols import (
    ConstantSymbol, RadialBump, Symbol, TabulatedSymbol, check_twisted_diagonal, ching_symbol,
    localize_symbol, mask_twisted_diagonal, parse_symbol_spec, random_elementary,
    sigma_order_estimate, symbol_factory,
)


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
    return spectrum_from_coeffs(spec, experiments.ladder_coeffs(J, d))


def _band_radius(spec: GridSpec, band: float, what: str) -> float:
    # a random input's spectral radius, band * N/2; `what` names the input
    if not 0.0 < band <= 1.0:
        raise ValueError(f"{what} must be in (0, 1], got {band}")
    return band * (spec.N // 2)


def _random(spec: GridSpec, run_seed: int, *, band: float = 0.4, seed: int | None = None):
    rng = np.random.default_rng(run_seed if seed is None else seed)
    return random_band_spectrum(spec, _band_radius(spec, band, "random band"), rng)


INPUT_KINDS = {"single": _single, "lacunary": _lacunary, "ladder": _ladder, "random": _random}
"""Input generator kinds; each builder takes (grid, run seed) and gives exact
coefficients (single: grid values)."""


def make_input(text: str, spec: GridSpec, seed: int = 0) -> GridFunction:
    """Build a grid function's values from a generator string.

    Forms: single:eta=32 (n=2: eta=3x-4)
           lacunary:N=3[,d=0][,theta=1]
           ladder:J=6[,d=0.5]            (modes 2^j, weights 2^{-jd})
           random:band=0.4[,seed=0]
    """
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


def _seed(value: str | int) -> int:
    """A run seed, from --seed's text or a config's integer: not negative."""
    if int(value) < 0:
        raise ValueError("negative seed")
    return int(value)


_CONFIG_TYPES = {
    "grid": dict | None,
    "frame": dict | None,
    "symbol": str | None,
    "params": dict,
    "seed": Annotated[int, _seed],
    "thresholds": dict,
    "out": dict[str, str],
}


def config_from_dict(obj: dict) -> RunConfig:
    c = decode_options(obj, _CONFIG_TYPES, "config")
    grid = c.get("grid")
    if grid is not None:
        g = decode_options(grid, {"n": int, "N": int}, "grid", required=("N",))
        grid = GridSpec(n=g.get("n", 1), N=g["N"])
        check_grid_budget(f"config grid N={grid.N} (n={grid.n})", grid)
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


RUNNERS = {
    "counterexample": "run_counterexample",
    "wavefront": "run_wavefront",
    "continuity": "run_continuity_table",
    "sigma": "run_sigma_estimate",
}
"""Experiment name -> runner function name in pdlab.experiments."""


# ---------------------------------------------------------------------------
# supplied arguments


_GRID_DEFAULT = 256
_FLAGS = {  # flag -> (annotation, help): the flags supplied names bring
    "input": (str, "input .pdgf file"),
    "mode": (str, "input generator string"),
    "corpus": (str, "JSON list of generator strings"),
    "symbol": (str, "symbol spec string"),
    "grid": (int, f"grid size N (default {_GRID_DEFAULT})"),
    "n": (Literal[1, 2], "dimension (default 1)"),
    "frame": (str, "frame options r=..,R=..,h=.."),
    "seed": (Annotated[int, _seed], "seed for random generators (default 0)"),
}
_BRINGS = {  # supplied name -> the flags it brings
    "spec": ("grid", "n"),
    "u": ("input", "mode", "grid", "n", "seed"),
    "mode": ("input", "mode", "grid", "n", "seed"),
    "corpus": ("corpus", "input", "mode", "grid", "n", "seed"),
    "a": ("symbol", "frame", "grid", "n"),
    "symbol": ("symbol", "frame"),
    "frame": ("frame",),
    "seed": ("seed",),
}


@functools.cache  # handlers and runners are module functions: read each signature once
def _parameters(fn) -> dict[str, inspect.Parameter]:
    return inspect.signature(fn, eval_str=True).parameters


def _supply(params, spec: GridSpec | None, frame: LPFrame, symbol: str | None, seed: int) -> dict:
    """The supplied names among `params` that `experiment` also fills: spec,
    frame, seed, symbol (its text if annotated str) and `a` built on spec."""
    kw = {k: v for k, v in (("spec", spec), ("frame", frame), ("seed", seed)) if k in params}
    if "a" in params or "symbol" in params:
        build = symbol_factory(symbol, frame)
        if "a" in params:
            kw["a"] = build(spec)
        if "symbol" in params:
            kw["symbol"] = symbol if params["symbol"].annotation is str else build
    return kw


def dispatch_experiment(runner: str, cfg: RunConfig) -> ExperimentReport:
    """Call the runner with the config's params and thresholds decoded by
    the runner's own signature, plus the arguments the CLI supplies."""
    fn = getattr(experiments, RUNNERS[runner])  # at call time: it may be rebound
    params = _parameters(fn)
    settable = {k: p.annotation for k, p in params.items() if k not in _BRINGS}
    kw = decode_options(cfg.params, settable, "params")
    thresholds = decode_options(cfg.thresholds, settable, "thresholds")
    both = set(kw) & set(thresholds)
    if both:
        raise ValueError(f"keys {sorted(both)} are set in both params and thresholds")
    kw.update(thresholds)
    for k in settable:
        if params[k].default is inspect.Parameter.empty and k not in kw:
            raise ValueError(f"{runner} needs params.{k}")

    usable = {flag for k in params if k in _BRINGS for flag in _BRINGS[k]}
    for key in ("grid", "frame", "symbol", "seed"):
        if cfg.raw.get(key) is not None and key not in usable:
            raise ValueError(f"{runner} takes no config {key}")
    if cfg.symbol is None and "symbol" in usable:
        raise ValueError(f"{runner} needs a config symbol")
    if cfg.grid is None and "spec" in params and params["spec"].default is inspect.Parameter.empty:
        raise ValueError(f"{runner} needs a config grid")
    try:
        return fn(**kw, **_supply(params, cfg.grid, cfg.frame, cfg.symbol, cfg.seed))
    except ArithmeticError as exc:
        raise ValueError(f"{runner} params {json.dumps(cfg.params)}: {exc.args[-1]}") from exc


def _cli_supplied(params, flags: dict) -> dict:
    """The supplied arguments among `params`, from the decoded flags."""
    grid, n, seed = flags.get("grid"), flags.get("n"), flags.get("seed", 0)
    spec = GridSpec(n=1 if n is None else n, N=_GRID_DEFAULT if grid is None else grid)
    check_grid_budget(f"--grid {spec.N} (n={spec.n})", spec)
    frame = (parse_spec(flags["frame"], frame_from_options, "frame")() if flags.get("frame")
             else DEFAULT_FRAME)

    def realize(text: str) -> GridFunction | SpectralFunction:
        """A generator's own output on spec, or a file's grid values."""
        if not text.startswith("file:"):
            return parse_spec(text, INPUT_KINDS, "input")(spec, seed)
        u = read_pdgf(path := text.removeprefix("file:"))
        for flag, given, actual in (("--grid", grid, u.spec.N), ("--n", n, u.spec.n)):
            if given is not None and given != actual:
                raise ValueError(f"{path} holds an n={u.spec.n}, N={u.spec.N} function; "
                                 f"{flag} {given} disagrees")
        return u

    kw = {"mode": flags.get("mode"), "corpus": None, "u": None}
    if "corpus" in flags:
        entries = json.loads(Path(flags["corpus"]).read_text())
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise ValueError("corpus must be a JSON list of generator strings")
        kw["corpus"] = ((entry, realize(entry)) for entry in entries)
    elif "u" in params:
        u = realize("file:" + flags["input"] if "input" in flags else flags["mode"])
        spec = u.spec
        form = {GridFunction: as_values, SpectralFunction: as_spectral}
        kw["u"] = form.get(params["u"].annotation, lambda v: v)(u)
    kw = {k: v for k, v in kw.items() if k in params}
    return kw | _supply(params, spec, frame, flags.get("symbol"), seed)


# ---------------------------------------------------------------------------
# output


def _emit_json(obj: dict, out_path: str | None) -> None:
    text = json.dumps(_sanitize(obj), indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


def _write_rows(out: str | None, header, rows) -> None:
    """CSV rows to the file `out`, or to stdout."""
    if out:
        return write_csv(out, header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(str(x) for x in row))


def _dominant_modes(y: SpectralFunction, limit: int = 8) -> list[dict]:
    flat = np.abs(y.coeffs).ravel()
    top, mesh = flat.max(), [m.ravel() for m in y.spec.freq_mesh()]
    out = []
    for idx in np.argsort(flat)[::-1][:limit]:
        if flat[idx] <= 1e-12 * top:  # all of them when top is 0
            break
        eta, val = [int(m[idx]) for m in mesh], y.coeffs.flat[idx]
        out.append({"eta": eta[0] if y.spec.n == 1 else eta, "abs": float(abs(val)),
                    "re": float(val.real), "im": float(val.imag)})
    return out


def _floats(text: str) -> list[float]:
    values = [float(q) for q in text.split(",")]
    if any(map(math.isnan, values)):
        raise ValueError(f"nan in {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_apply(u: SpectralFunction, a: Symbol, symbol: str, *, out: str | None = None,
              spectrum_csv: str | None = None) -> int:
    """apply a symbol to an input function (--out: the output as .pdgf)"""
    spec = u.spec
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an output not finite is refused
            w = plan(a, spec)(u)  # coefficients on the shift route, else grid values
            y = as_spectral(w)
            out_l2 = lp_norm(y, 2)
    except ValueError as exc:  # an overflowing entry, refused as the output is made
        if str(exc) != "non-finite entries":
            raise
        out_l2 = math.inf
    if not math.isfinite(out_l2):
        raise ValueError(f"out_l2 of symbol {symbol!r} is not finite: {out_l2}")
    if out:
        write_pdgf(as_values(w), out)
    if spectrum_csv:
        etas = zip(*(m.ravel().tolist() for m in spec.freq_mesh()))
        coeffs = y.coeffs.ravel().tolist()  # Python complex: plain float cells
        rows = [[*eta, repr(c.real), repr(c.imag)] for eta, c in zip(etas, coeffs)]
        write_csv(spectrum_csv, [f"eta{i + 1}" for i in range(spec.n)] + ["re", "im"], rows)
    _emit_json({"grid": {"n": spec.n, "N": spec.N}, "symbol": symbol, "in_l2": lp_norm(u, 2),
                "out_l2": out_l2, "dominant_modes": _dominant_modes(y), "out": out}, None)
    return 0


def cmd_norms(u, corpus, frame: LPFrame, *, space: str, json: bool = False,
              out: str | None = None) -> int:
    """evaluate a norm --space (L:p=.., H:s=.., B:s=..,p=..,q=.., F:...) on inputs"""
    label, fn, _ = parse_norm(space, frame)
    if corpus is not None:
        rows = [(i, entry, label, repr(fn(v))) for i, (entry, v) in enumerate(corpus)]
        _write_rows(out, ("index", "mode", "space", "norm"), rows)
        return 0
    value = fn(u)
    if json:
        _emit_json(
            {"space": label, "value": value, "grid": {"n": u.spec.n, "N": u.spec.N}},
            None,
        )
    else:
        print(repr(value))
    return 0


def cmd_vfm(u: GridFunction, a: Symbol, symbol: str, frame: LPFrame, mode: str | None,
            seed: int, *, psi_count: int = 2, m_max: int | None = None, refine: int = 0,
            out: str | None = None) -> int:
    """vanishing frequency modulation trace (--refine K: on K doubling grids)"""
    spec = u.spec
    psis = tuple(
        ModulationFunction(r=1.0 * 0.8**i, R=2.0 * 0.8**i) for i in range(psi_count)
    )
    specs = []
    if refine:
        if refine < 2:
            raise ValueError("--refine counts grids, need at least 2")
        if mode is None or mode.startswith("file:"):
            raise ValueError(
                "--refine needs a generator --mode (the input is re-sampled per grid)"
            )
        for i in range(refine):  # each doubled grid is checked before anything is built
            specs.append(GridSpec(n=spec.n, N=spec.N << i))
            check_grid_budget(f"--refine {refine}: grid {specs[-1].N} (n={spec.n})", specs[-1])
    trace = vfm_limit(a, u, psis, m_max=m_max)
    obj: dict = {
        "grid": {"n": spec.n, "N": spec.N},
        "symbol": symbol,
        "tags": trace.tags,
        "m_values": trace.m_values,
        "l2_norms": trace.l2_norms,
        "m_sat": trace.m_sat,
        "cross_profile_deviation": trace.cross_dev,
    }
    if refine:
        rr = vfm_refinement(
            symbol_factory(symbol, frame), lambda s: make_input(mode, s, seed=seed), specs, psis
        )
        obj["refinement"] = asdict(rr)
    _emit_json(obj, out)
    return 0


def cmd_paradiff(u: GridFunction, a: Symbol, symbol: str, frame: LPFrame, *,
                 report: Literal["identity", "corona"] = "identity", B: float | None = None,
                 out: str | None = None) -> int:
    """three-series paradifferential split"""
    terms = paradiff_split(a, u, frame)
    y = apply_auto(a, u)
    recon = terms.total()
    denom = max(lp_norm(y, math.inf), 1e-300)
    obj: dict = {
        "grid": {"n": u.spec.n, "N": u.spec.N},
        "symbol": symbol,
        "K": terms.K,
        "residual_rel": lp_norm(recon - y, math.inf) / denom,
    }
    if report == "corona":
        rep = corona_ball_report(terms, B=B)
        keys = {"term": "series", "k": "k", "outside_mass": "outside_mass", "bound": "hi",
                "lo": "lo", "mass": "mass", "active": "active"}  # JSON key -> CoronaRow field
        obj["corona"] = {
            "rows": [{key: getattr(row, f) for key, f in keys.items()} for row in rep.rows],
            "max_outside": rep.max_outside,
            "tdc_B": rep.tdc_B,
            "eventual_tdc_ok": rep.eventual_tdc_ok,
        }
    _emit_json(obj, out)
    return 0


def cmd_support_rule(u: GridFunction, a: Symbol, symbol: str, *, tau: float = 1e-8,
                     kind: Literal["spatial", "spectral"] = "spatial",
                     out: str | None = None) -> int:
    """kernel (streamed in row chunks) or spectral support containment"""
    check = spectral_support_rule_check if kind == "spectral" else support_rule_check
    rep = check(a, u, tau=tau)
    _emit_json({"grid": {"n": u.spec.n, "N": u.spec.N}, "symbol": symbol, "kind": kind,
                **asdict(rep)}, out)
    return 0


def _pointwise_csv(out: str | None, rows, summary: dict) -> int:
    """x,lhs,rhs,ratio rows to --out and the summary to stdout, or the rows
    to stdout and the summary to stderr."""
    _write_rows(out, ("x", "lhs", "rhs", "ratio"), rows)
    if out:
        _emit_json(summary, None)
    else:
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


def cmd_pointwise_factorize(u: GridFunction, a: Symbol, *, tau: float = 1e-10,
                            out: str | None = None) -> int:
    """|a(x,D)u| <= F_a u* per grid point"""
    rep = factorization_check(a, u, tau=tau)
    return _pointwise_csv(
        out,
        _ratio_rows(u.spec, rep.lhs.ravel(), rep.bound.ravel()),
        {
            "max_ratio": rep.max_ratio,
            "holds": rep.holds,
            "N_exp": rep.params.N_exp,
            "R": rep.params.R_spec,
        },
    )


def cmd_pointwise_maximal(spec: GridSpec, seed: int, *, p: float, N_exp: float | None = None,
                          trials: int = 8, band: float = 0.4, out: str | None = None) -> int:
    """fitted constant in ||u*||_p <= C||u||_p (--N-exp default ⌊n/p⌋+1)"""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    radius = _band_radius(spec, band, "--band")
    n_exp = N_exp if N_exp is not None else math.floor(spec.n / p) + 1
    rows, ratios = [], []
    for t in range(trials):
        u = random_band_limited(spec, radius, np.random.default_rng([seed, t]))
        with np.errstate(over="ignore", invalid="ignore"):  # a C_p not finite is refused
            rhs = lp_norm(u, p)
            ratios.append(maximal_lp_constant([u], p, n_exp))  # one u* per trial
        if not math.isfinite(ratios[-1]):
            raise ValueError(f"C_p is {ratios[-1]} at --p {p!r}: ||u||_p is {rhs!r}")
        rows.append((t, repr(ratios[-1] * rhs), repr(rhs), repr(ratios[-1])))
    return _pointwise_csv(
        out,
        rows,
        {"C_p": max(ratios), "p": p, "N_exp": n_exp, "trials": trials},
    )


def cmd_pointwise_mihlin(spec: GridSpec, a: Symbol, *, N_exp: float = 2.0,
                         R: float | None = None, c: float | None = None, slack: float = 0.01,
                         out: str | None = None) -> int:
    """F_a against the derivative-sum bound (--R default N/8, --c fitted)"""
    params = MaximalParams(N_exp=N_exp, R_spec=R if R is not None else spec.N / 8.0)
    rep = mihlin_bound_check(a, params, c, spec=spec, slack=slack)
    return _pointwise_csv(
        out,
        _ratio_rows(spec, rep.factor.ravel(), (rep.c_used * rep.rhs).ravel()),
        {"k": rep.k, "c_used": rep.c_used, "worst_ratio": rep.worst_ratio, "holds": rep.holds},
    )


def cmd_pointwise_moment_decay(spec: GridSpec, a: Symbol, *, M: int = 2,
                               q_grid: Annotated[list, _floats] = (2.0, 4.0, 8.0, 16.0),
                               N_exp: float = 2.0, R: float | None = None,
                               out: str | None = None) -> int:
    """decay of F over x-high-passed symbols (--q-grid Q,Q,..; --R default N/8)"""
    params = MaximalParams(N_exp=N_exp, R_spec=R if R is not None else spec.N / 8.0)
    rep = moment_decay_check(a, params, q_grid, M, spec=spec)
    base_x, base_v = rep.fit.xs[0], rep.fit.values[0]
    rows = []
    for q, v in zip(rep.fit.xs, rep.fit.values):
        fitted = base_v * (q / base_x) ** rep.fit.slope if base_v > 0.0 else 0.0
        r = v / fitted if fitted > 0.0 else (math.inf if v > 0.0 else 0.0)
        rows.append((repr(float(q)), repr(float(v)), repr(float(fitted)), repr(float(r))))
    return _pointwise_csv(
        out,
        rows,
        {
            "M": rep.M,
            "slope": rep.fit.slope,
            "cliff": rep.fit.cliff,
            "step_drops": list(rep.step_drops),
            "holds": rep.holds,
        },
    )


def cmd_experiment(runner: Literal[tuple(RUNNERS)], *, config: str, out: str,
                   csv: str | None = None, dat: str | None = None,
                   svg: str | None = None) -> int:
    """run a packaged experiment from a JSON config"""
    cfg = config_from_dict(json.loads(Path(config).read_text()))
    report = dispatch_experiment(runner, cfg)
    path = Path(out)
    write_report_json(report, path, config=cfg.raw)
    csv_path = csv or cfg.out.get("csv") or path.with_suffix(".csv")
    dat_path = dat or cfg.out.get("dat") or path.with_suffix(".dat")
    write_report_csv(report, csv_path)
    write_report_dat(report, dat_path)
    written = [str(path), str(csv_path), str(dat_path)]
    svg_path = svg or cfg.out.get("svg")
    if svg_path:
        write_report_svg(report, svg_path)
        written.append(str(svg_path))
    for name, verdict in report.verdicts.items():
        print(f"verdict {name}: {verdict}")
    print("wrote " + " ".join(written))
    return 0


# ---------------------------------------------------------------------------
# selftest gates: each returns its checks, (quantity, measured value, bound):
# a number bounds the value above, a pair (lo, hi) is an open interval, and a
# str or bool is the verdict label the value must equal.  A largest value is
# np.max's, which keeps a NaN that max may drop.


@functools.cache  # a pure function of fixed constants: both paradiff gates share one build
def _gate_paradiff_pair():
    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=5, seed=1)
    tab = TabulatedSymbol(spec, a.table(spec), d=0.0)
    u = random_band_limited(spec, 40, np.random.default_rng(2))
    terms = paradiff_split(tab, u)
    y = apply(tab, u)  # the reference quadrature, a route apart from the split's
    return terms, y, terms.total()


def gate_paradiff_identity():
    _, y, recon = _gate_paradiff_pair()
    rel = lp_norm(recon - y, math.inf) / max(lp_norm(y, math.inf), 1e-300)
    return [("sup |t1+t2+t3 - a(x,D)u| / sup |a(x,D)u|", rel, experiments.IDENTITY_TOL)]


def gate_corona_containment():
    terms, _, _ = _gate_paradiff_pair()
    return [("max outside mass", corona_ball_report(terms).max_outside, experiments.IDENTITY_TOL)]


def gate_lacunary_amplification():
    reports = {route: experiments.run_counterexample(N_list=(2, 3), spec=s)
               for route, s in (("modes", None), ("lattice", GridSpec(1, 2**11)))}
    rep, lattice = reports.values()  # mode space, and its lattice oracle
    checks = [(f"{r.quantity} ({route})", r.value, experiments.IDENTITY_TOL)
              for route, report in reports.items() for r in report.rows
              if r.quantity.startswith("residual")]
    r2, r3 = rep.series("ratio").values()
    drift = np.max([abs(m.value - g.value) / abs(g.value) for m, g in zip(rep.rows, lattice.rows)
                    if not m.quantity.startswith("residual")])
    return checks + [("ratio[N=2] / ratio[N=3]", r2 / r3 if r3 else math.nan, (-math.inf, 1.0)),
                     ("mode-space row drift from the lattice route", drift, 1e-13)]


def gate_wavefront_flip():
    rep = experiments.run_wavefront(J=5, spec=GridSpec(1, 256))
    tol, rows = experiments.IDENTITY_TOL, {r.quantity: r.value for r in rep.rows}
    return [("flip residual", rows["flip residual"], tol),
            *((q, rows[q], (1.0 - tol, math.inf))
              for q in ("input positive fraction", "output negative fraction"))]


def gate_frequency_shift():
    spec = GridSpec(1, 256)
    a = parse_symbol_spec("ching:d=0,theta=+1,jmax=6", spec)
    c = as_spectral(plan(a, spec)(spectrum_from_coeffs(spec, {32: 1.0}))).coeffs
    total = float(np.sum(np.abs(c) ** 2))
    off = 1.0 - float(np.abs(c[spec.N // 2]) ** 2) / total if total else math.nan
    return [("output mass", total, (0.0, math.inf)), ("mass fraction off frequency 0", off, 1e-12)]


def gate_factorization():
    spec, checks = GridSpec(1, 128), []
    for seed in (0, 1, 2):
        a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=seed)
        u = random_band_limited(spec, 16, np.random.default_rng(seed + 10))
        checks.append((f"max |a(x,D)u| / F_a u* (seed {seed})",
                       factorization_check(a, u).max_ratio, 1.0 + FACTORIZATION_SLACK))
    return checks


def gate_strict_tdc():
    spec = GridSpec(1, 128)
    a = ching_symbol(0.0, theta=2, j_max=5, spec=spec)
    mass = check_twisted_diagonal(a, a.tdc_B, spec=spec).violation_mass
    loc = localize_symbol(mask_twisted_diagonal(a, a.tdc_B, spec=spec), 0.25, spec)
    return [("twisted-diagonal violation mass", mass, 0.0),
            ("localized symbol peak", float(np.abs(loc.table(spec)).max()), 0.0)]


def gate_scale_sandwich():
    u = random_band_limited(GridSpec(1, 64), 20, np.random.default_rng(3))
    eq, rep = (embedding_report([u], s=0.5, p=2.0, q=q, p_target=4.0) for q in (2.0, 1.0))
    return [("F/B at p=q=2", eq.sandwich_inner, (1.0 - 1e-12, 1.0 + 1e-12)),
            ("B/F at p=q=2", eq.sandwich_outer, (1.0 - 1e-12, 1.0 + 1e-12)),
            ("F/B at p=2, q=1", rep.sandwich_inner, 1.0 + 1e-9),
            ("B/F at p=2, q=1", rep.sandwich_outer, 1.0 + 1e-9),
            ("embedding holds at q=1", rep.holds, True)]


def gate_summation_lemma():
    c = summation_lemma_check(s=-0.5, q=2.0, count=100, length=32, seed=0)
    return [("summation lemma constant", c, (0.0, math.inf))]


def gate_support_rule():
    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=5)
    u = random_band_limited(spec, 16, np.random.default_rng(6))
    rep = spectral_support_rule_check(a, u)
    return [("spectral support violation mass", rep.violation_mass, rep.tau)]


def gate_maximal_stability():
    vals = []
    for N in (64, 128):
        rngs = (np.random.default_rng([7, t]) for t in range(6))
        corpus = [random_band_limited(GridSpec(1, N), 0.25 * (N // 2), rng) for rng in rngs]
        vals.append(maximal_lp_constant(corpus, 2.0, 2.0))
    return [("max / min maximal constant over N=64, 128", np.max(vals) / np.min(vals), 1.5)]


def gate_sigma_order():
    bump = RadialBump(zero_order=1, zero_width=0.25)
    spec = GridSpec(1, 512)
    a = ching_symbol(0.0, theta=1, A=bump, j_max=7, spec=spec)
    rep = experiments.run_sigma_estimate(a, spec, r_expected=1.0)
    small = GridSpec(1, 128)  # the Gram route against the dense oracle
    b = ching_symbol(0.0, theta=1, A=bump, j_max=5, spec=small)
    gram, dense = ([v for fit in sigma_order_estimate(sym, (0, 1), spec=small)
                    for shells in fit.shell_values for v in shells.values()]
                   for sym in (b, TabulatedSymbol(small, b.table(small), d=b.d)))
    gap = np.max([abs(g - w) for g, w in zip(gram, dense, strict=True)])
    return [*((f"verdict {k}", rep.verdicts[k], True) for k in ("sigma_matches", "onset_matches")),
            ("Gram-dense shell value gap", gap, 1e-13 * max(dense))]


def gate_continuity_identity():
    rep = experiments.run_continuity_table(
        ConstantSymbol(1.0), cases=[("L:p=2", "L:p=2")], grids=(64, 128), trials=3
    )
    return [(f"verdict {k}", rep.verdicts[k], label) for k, label in
            (("L:p=2 -> L:p=2", "bounded-consistent"), ("L:p=2 -> L:p=2 [control]", "clean"))]


def gate_vfm_independence():
    spec = GridSpec(1, 128)
    a = random_elementary(spec, DEFAULT_FRAME, J=4, seed=7)
    u = random_band_limited(spec, 16, np.random.default_rng(8))
    return [("cross-profile deviation", vfm_limit(a, u).cross_dev, 1e-12)]


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


def _checked(quantity: str, value, bound) -> tuple[bool, str]:
    """Whether value lies within bound (NaN never does), and the line that
    shows both."""
    if isinstance(bound, str | bool):
        ok, shown = value == bound, f"{{{bound!r}}}"
    elif isinstance(bound, tuple):
        value, (lo, hi) = float(value), map(float, bound)
        ok, shown = lo < value < hi, f"({lo!r}, {hi!r})"
    else:
        value, hi = float(value), float(bound)
        ok, shown = value <= hi, f"(-inf, {hi!r}]"
    return ok, f"{quantity} {value!r} {'in' if ok else 'outside'} {shown}"


def cmd_selftest(*, quick: bool = False) -> int:
    """run the exact-identity gate suite (--quick: core gates only)"""
    gates = QUICK_GATES if quick else FULL_GATES
    for name, gate in gates:
        t0 = time.perf_counter()
        try:
            lines = [_checked(*check) for check in gate()]
        except (ValueError, ArithmeticError) as exc:
            lines = [(False, f"raised {exc!r}")]
        passed = all(ok for ok, _ in lines)
        if passed:
            print(f"ok {name} ({time.perf_counter() - t0:.2f}s)")
        for ok, line in lines:
            print(f"    {line}" if ok else f"FAIL {name}: {line}")
        if not passed:
            return 1
    print(f"selftest: {len(gates)} gates passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


COMMANDS = {  # subcommand ('group name' if nested) -> handler in this module
    "apply": "cmd_apply",
    "norms": "cmd_norms",
    "vfm": "cmd_vfm",
    "paradiff": "cmd_paradiff",
    "support-rule": "cmd_support_rule",
    "pointwise factorize": "cmd_pointwise_factorize",
    "pointwise maximal-constant": "cmd_pointwise_maximal",
    "pointwise mihlin": "cmd_pointwise_mihlin",
    "pointwise moment-decay": "cmd_pointwise_moment_decay",
    "experiment": "cmd_experiment",
    "selftest": "cmd_selftest",
}

_GROUPS = {"pointwise": "pointwise factorization estimates"}


def _metavar(hint) -> dict:
    """A Literal's members, listed as argparse lists choices; main decodes
    the value, so a bad one is a one-line error like any other."""
    members = get_args(hint) if get_origin(hint) is Literal else ()
    return {"metavar": "{" + ",".join(map(str, members)) + "}"} if members else {}


def _add_flag(p, name: str, required: bool, hint, help: str | None = None) -> None:
    kw = {"action": "store_true"} if hint is bool else _metavar(hint)
    p.add_argument("--" + name.replace("_", "-"), required=required,
                   default=argparse.SUPPRESS, help=help, **kw)


def _add_flags(p: argparse.ArgumentParser, params) -> None:
    """The flags the supplied names among `params` bring, then one per
    keyword-only parameter; other positional parameters are arguments."""
    brought = dict.fromkeys(f for k in params if k in _BRINGS for f in _BRINGS[k])
    sources = p.add_mutually_exclusive_group(required=True) if "input" in brought else p
    for name in brought:
        group = sources if name in ("input", "mode", "corpus") else p  # exactly one is given
        _add_flag(group, name, name == "symbol", *_FLAGS[name])
    for name, q in params.items():
        if q.kind is q.KEYWORD_ONLY:
            shown = q.default not in (q.empty, None, False)
            _add_flag(p, name, q.default is q.empty, q.annotation,
                      f"default {q.default}" if shown else None)
        elif name not in _BRINGS:
            p.add_argument(name, **_metavar(q.annotation))


def _shown(name: str, params) -> str:
    """`name` as the command line writes it: an argument (a positional
    parameter that is not supplied) plain, a flag as --name."""
    q = params.get(name)
    plain = q is not None and q.kind is not q.KEYWORD_ONLY and name not in _BRINGS
    return name if plain else "--" + name.replace("_", "-")


@functools.cache  # one parser per process (module docstring)
def build_parser() -> argparse.ArgumentParser:
    """The pdlab parser, built on the first call; later calls return it."""
    parser = argparse.ArgumentParser(
        prog="pdlab",
        description="Type 1,1 pseudo-differential operators on the discrete torus",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for name, handler in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            p = subs[""].add_parser(group, help=_GROUPS[group])
            subs[group] = p.add_subparsers(dest=f"{group}_command", required=True)
        fn = globals()[handler]
        doc = inspect.getdoc(fn)
        p = subs[group].add_parser(leaf, help=doc, description=doc)
        p.set_defaults(handler=handler)
        _add_flags(p, _parameters(fn))
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    fn = globals()[args["handler"]]  # at call time: it may be rebound
    params = _parameters(fn)
    try:
        hints = {k: q.annotation for k, q in params.items()}
        hints |= {k: hint for k, (hint, _) in _FLAGS.items()}
        flags = {k: decode(v, hints[k], f"{_shown(k, params)} {v!r}", True)
                 if isinstance(v, str) else v for k, v in args.items() if k in hints}
        own = {k: v for k, v in flags.items() if k in params and k not in _BRINGS}
        return fn(**own, **_cli_supplied(params, flags))
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: input file not found: {missing}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
