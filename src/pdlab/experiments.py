"""Experiment drivers that package the library's headline phenomena into
reproducible reports.

Four runners, each returning an ExperimentReport: an exactly computable
family of lacunary inputs whose operator ratios grow without bound, a
frequency-flip identity that sends a one-sided spectrum to its mirror
image, empirical continuity tables across grid refinements with blow-up
and stability verdicts, and an order-of-zero exponent estimate
cross-checked against the onset of Sobolev boundedness.  Numeric rows
carry formula tags, reruns with the same seed are bit-identical, and
every runner includes a negative control so a pass is never vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._threads import pmap
from .frame import DEFAULT_FRAME, LPFrame, parse_spec
from .grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    as_spectral,
    as_values,
    check_grid_budget,
    from_coeffs,
    lp_norm,
    mode_norm,
    random_band_spectrum,
    sobolev_norm,
    spectrum_from_coeffs,
)
from .operators import plan
from .spaces import SPACE_KINDS, SpaceParams, finite_norm, format_space, space_norms
from .symbols import (
    ConstantSymbol,
    Symbol,
    check_twisted_diagonal,
    ching_for_grid,
    ching_symbol,
    mask_twisted_diagonal,
    sigma_order_estimate,
)

IDENTITY_TOL = 1e-10

CONTROL_SYMBOL = ConstantSymbol(1.0)

BLOW_UP = "blow-up"
BOUNDED = "bounded-consistent"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class ReportRow:
    """One numeric result; the formula tag states what the value computes."""

    index: int
    quantity: str
    value: float
    formula: str

    def __post_init__(self) -> None:
        if not self.quantity:
            raise ValueError("quantity label must be nonempty")
        if not self.formula:
            raise ValueError(f"row {self.quantity!r} needs a formula tag")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    rows: tuple[ReportRow, ...]
    verdicts: dict
    environment: dict

    def values(self, quantity: str) -> list[float]:
        return [r.value for r in self.rows if r.quantity == quantity]

    def value(self, quantity: str) -> float:
        vals = self.values(quantity)
        if len(vals) != 1:
            raise KeyError(f"{quantity!r} matches {len(vals)} rows, expected exactly one")
        return vals[0]

    def series(self, prefix: str) -> dict[str, float]:
        """Rows named 'prefix[key]' collected as {key: value}, in row order."""
        out: dict[str, float] = {}
        open_tag = prefix + "["
        for r in self.rows:
            if r.quantity.startswith(open_tag) and r.quantity.endswith("]"):
                out[r.quantity[len(open_tag) : -1]] = r.value
        return out


def _build_rows(entries: Sequence[tuple[str, float, str]]) -> tuple[ReportRow, ...]:
    return tuple(ReportRow(i, q, v, f) for i, (q, v, f) in enumerate(entries))


def _environment(spec: GridSpec, frame: LPFrame | None = None, seed: int | None = None) -> dict:
    env: dict = {"grid": {"n": spec.n, "N": spec.N}}
    if frame is not None:
        env["frame"] = {"r": frame.psi.r, "R": frame.psi.R, "h": frame.h}
    if seed is not None:
        env["seeds"] = {"seed": int(seed)}
    return env


def _describe_symbol(a: Symbol) -> str:
    bits = [type(a).__name__, f"d={a.d}"]
    theta = getattr(a, "theta", None)
    if theta is not None:
        bits.append(f"theta={theta}")
    j_max = getattr(a, "j_max", None)
    if j_max is not None:
        bits.append(f"j_max={j_max}")
    return " ".join(bits)


# ---------------------------------------------------------------------------
# the lacunary family and its exact amplification factor


def amplification_factor(N: int) -> float:
    """(1/log N) * sum_{j=N}^{N^2} 1/j; grows like log N along the family."""
    if N < 2:
        raise ValueError("family index must be >= 2")
    return sum(1.0 / j for j in range(N, N * N + 1)) / math.log(N)


def lacunary_coeffs(N: int, d: float = 0.0, theta: int = 1) -> dict[int, float]:
    """v_N as the modes {2^j theta: 1 / (j 2^{jd} log N)}, j = N..N^2, on no grid."""
    if N < 2:
        raise ValueError("family index must be >= 2")
    if theta == 0:
        raise ValueError("theta must be a nonzero integer")
    log_n = math.log(N)
    try:
        coeffs = {2**j * theta: 1.0 / (j * 2.0 ** (j * d) * log_n) for j in range(N, N * N + 1)}
    except ArithmeticError:
        coeffs = None
    return _checked_weights(coeffs, d, "1/(j 2^(jd) log N)")


def ladder_coeffs(J: int, d: float) -> dict[int, float]:
    """The ladder {2^j: 2^{-jd}}, j = 1..J, on no grid."""
    return _checked_weights({2**j: 2.0 ** (-j * d) for j in range(1, J + 1)}, d, "2^(-jd)")


def _checked_weights(coeffs: dict | None, d: float, weight: str) -> dict:
    """coeffs, unless it is None or holds a weight that is 0 or not finite:
    then ValueError, naming d."""
    if coeffs is None or not all(0.0 < w < math.inf for w in coeffs.values()):
        raise ValueError(f"d = {d!r} gives a weight {weight} that is 0 or not finite")
    return coeffs


def lacunary_spectrum(spec: GridSpec, N: int, d: float = 0.0, theta: int = 1) -> SpectralFunction:
    """v_N = sum_{j=N}^{N^2} e^{i 2^j theta x} / (j 2^{jd} log N) on a 1-d grid,
    as its exact coefficients (lacunary_coeffs on the lattice)."""
    if spec.n != 1:
        raise ValueError("the lacunary family lives on 1-d grids")
    # |theta| has b bits, so the top mode 2^(N^2)|theta| reaches N/2 = 2^log2(N/2)
    # exactly when N^2 + b - 1 >= log2(N/2): no 2^(N^2) is built to compare
    half = spec.N // 2
    if N * N + abs(int(theta)).bit_length() - 1 >= half.bit_length() - 1:
        raise ValueError(f"family index {N} needs mode 2^{N * N}*|theta| inside the lattice; "
                         f"grid holds |eta| < {half}")
    return spectrum_from_coeffs(spec, lacunary_coeffs(N, d, theta))


def family_indices(spec: GridSpec, theta: int = 1) -> list[int]:
    """Family indices 2 <= N <= 5 whose top mode 2^{N^2} theta fits on the grid."""
    return [N for N in range(2, 6) if 2 ** (N * N) * abs(theta) < spec.N // 2]


def _family_blow_up(ratios: Sequence[float], margin: float, factor: float) -> bool:
    if len(ratios) < 2:
        return False
    increasing = all(b > a * margin for a, b in zip(ratios, ratios[1:]))
    return increasing and ratios[-1] >= factor * ratios[0]


# ---------------------------------------------------------------------------
# unboundedness family


def run_counterexample(
    d: float = 0.0,
    N_list: Sequence[int] = (2, 3, 4),
    spec: GridSpec | None = None,
    family_margin: float = 1.05,
    family_factor: float = 1.5,
) -> ExperimentReport:
    """Drive the exactly solvable family v_N through the lacunary symbol.

    The modulating window v is the single lattice mode at 0: on the integer
    lattice the admissible spectral ball around the origin contains only
    that mode, so v = 1 realizes it exactly.  Each output must equal
    c_N * v to IDENTITY_TOL with c_N the amplification factor, while the
    ratios ||a(x,D)v_N||_L2 / ||v_N||_H^d grow along the family.  The
    identity operator runs the same inputs as the negative control.

    With no spec the rows are exact, in mode space (lacunary_coeffs,
    ChingSymbol.apply_modes, Parseval sums), so N may pass any grid: N = 8
    reaches mode 2^64.  A spec runs the lattice route, selftest's oracle.  The
    residual row is the ell-1 bound sum_eta |out_eta - c_N delta_0|, which
    bounds max_x |a(x,D)v_N - c_N v| and equals it when the output is one mode.
    """
    N_list = [int(N) for N in N_list]
    if not N_list or sorted(N_list) != N_list or len(set(N_list)) != len(N_list):
        raise ValueError("N_list must be nonempty, strictly increasing")
    if spec is not None and spec.n != 1:
        raise ValueError("the family experiment runs on 1-d grids")
    j_max = max(N_list) ** 2
    # the top mode 2^(N^2) has the H^d weight (1 + eta^2)^d ~ 2^(2 N^2 d), a float:
    # its exponent is checked before any mode or symbol is built
    if 2 * j_max * max(1.0, d) >= 1024:
        raise ValueError(f"d = {d!r} with N_list {N_list}: the top mode 2^{j_max} squared or its "
                         "H^d weight (1 + eta^2)^d overflows a float; need 2 N^2 max(1, d) < 1024")
    a = ching_symbol(d, theta=1, j_max=j_max, spec=spec)
    if spec is not None:
        ops, etas = (plan(a, spec), plan(CONTROL_SYMBOL, spec)), spec.axis_freqs().tolist()

    def one_member(N: int) -> tuple[float, float, float, float, float]:
        v_n = lacunary_coeffs(N, d)
        if spec is None:
            out, control = a.apply_modes(v_n), v_n  # the control, a = 1, returns v_N
        else:
            u = spectrum_from_coeffs(spec, v_n)
            out, control = (dict(zip(etas, as_spectral(op(u)).coeffs.tolist())) for op in ops)
        c_n = amplification_factor(N)
        deviation = {**out, 0: out.get(0, 0.0) - c_n}  # a(x,D)v_N - c_N v, mode by mode
        residual = math.fsum(map(abs, deviation.values()))
        h_d = mode_norm(v_n, d)
        return c_n, residual, h_d, mode_norm(out, 0.0) / h_d, mode_norm(control, 0.0) / h_d

    results = pmap(one_member, N_list, points=0 if spec is None else spec.npoints)

    entries: list[tuple[str, float, str]] = []
    for N, (c_n, residual, h_d, ratio, control) in zip(N_list, results):
        entries.append((f"c[N={N}]", c_n, "(1/log N) sum_{j=N}^{N^2} 1/j"))
        entries.append((f"residual[N={N}]", residual, "sum_eta |(a(x,D)v_N)_eta - c_N delta_0|"))
        entries.append((f"input norm[N={N}]", h_d, "||v_N||_{H^d}"))
        entries.append((f"ratio[N={N}]", ratio, "||a(x,D)v_N||_{L2} / ||v_N||_{H^d}"))
        entries.append(
            (f"control ratio[N={N}]", control, "||a(x,D)v_N||_{L2} / ||v_N||_{H^d}, a = 1")
        )

    ratios = [r[3] for r in results]
    controls = [r[4] for r in results]
    verdicts = {
        "identity": all(r[1] <= IDENTITY_TOL for r in results),
        "blow_up": _family_blow_up(ratios, family_margin, family_factor),
        "control_no_blow_up": not _family_blow_up(controls, family_margin, family_factor),
    }
    parameters = {
        "d": d,
        "N_list": list(N_list),
        "theta": 1,
        "j_max": j_max,
        "identity_tol": IDENTITY_TOL,
        "family_margin": family_margin,
        "family_factor": family_factor,
        "symbol": _describe_symbol(a),
    }
    return ExperimentReport(
        name="counterexample",
        parameters=parameters,
        rows=_build_rows(entries),
        verdicts=verdicts,
        environment={"grid": None} if spec is None else _environment(spec),
    )


# ---------------------------------------------------------------------------
# frequency flip


def _signed_mass_fractions(u: GridFunction | SpectralFunction) -> tuple[float, float]:
    """(positive, negative) axis-0 frequency mass fractions of |u-hat|^2."""
    c = as_spectral(u).coeffs
    eta = u.spec.freq_mesh()[0]
    power = np.abs(c) ** 2
    total = float(power.sum())
    if total == 0.0:
        raise ValueError("zero input has no spectral mass to split")
    pos = float(power[eta > 0].sum())
    neg = float(power[eta < 0].sum())
    return pos / total, neg / total


def dyadic_increments(u: GridFunction, m_range: Sequence[int]) -> list[float]:
    """sup_x |u(x+h) - 2u(x) + u(x-h)| for h = 2^m dx, dx one grid spacing.

    Second central differences: for a lacunary exponential ladder every
    term contributes a negative real coefficient times e^{i 2^j x}, so the
    sup is attained exactly at x = 0 and low rungs are damped
    quadratically.  That keeps the fitted growth exponent clean where
    one-sided differences pick up truncation-edge drift.
    """
    if u.spec.n != 1:
        raise ValueError("increment sweep runs on 1-d grids")
    vals = u.values
    out = []
    for m in m_range:
        shift = 2 ** int(m)
        if not 0 < shift < u.spec.N:
            raise ValueError(f"offset 2^{m} does not fit on an N={u.spec.N} grid")
        out.append(
            float(np.max(np.abs(np.roll(vals, -shift) - 2.0 * vals + np.roll(vals, shift))))
        )
    return out


def run_wavefront(
    d: float = 0.5,
    J: int = 6,
    spec: GridSpec | None = None,
    m_range: Sequence[int] = range(3, 8),
    slope_tol: float = 0.2,
    holder_grid: int = 4096,
) -> ExperimentReport:
    """Flip a one-sided lacunary spectrum to its mirror image, exactly.

    Input w_in = sum_{j=1}^{J} 2^{-jd} e^{i 2^j x} has spectrum on eta > 0.
    The doubled-direction symbol (theta = 2) shifts the surviving j = k term
    by -2^{j+1}, so the output is exactly sum_j e^{-i 2^j x}: same lacunary
    ladder, mirrored and with the 2^{-jd} decay stripped.  For d in (0, 1]
    the input is a Weierstrass-type series; a second-difference increment
    sweep on a deeper partial sum (grid holder_grid, rungs up to an eighth
    of it) checks the growth exponent against d.  The identity operator is
    the control.
    """
    if J < 1:
        raise ValueError("need at least one ladder rung, J >= 1")
    if spec is None:
        spec = GridSpec(n=1, N=max(512, 2 ** (J + 3)))
        check_grid_budget(f"J={J}: grid {spec.N}", spec)
    if spec.n != 1:
        raise ValueError("the flip experiment runs on 1-d grids")
    if 2 ** (J + 1) > spec.N // 2:
        raise ValueError(
            f"flip needs the shifted mode 2^{J + 1} on the lattice; grid holds |eta| <= {spec.N // 2}"
        )
    m_range = [int(m) for m in m_range]

    # exact spectra throughout; only the flip residual is read on the grid
    w_in = spectrum_from_coeffs(spec, ladder_coeffs(J, d))
    expected = spectrum_from_coeffs(spec, {-(2**j): 1.0 for j in range(1, J + 1)})
    a = ching_symbol(d, theta=2, j_max=J, spec=spec)

    out = as_spectral(plan(a, spec)(w_in))
    flip_residual = lp_norm(SpectralFunction(spec, out.coeffs - expected.coeffs), math.inf)
    in_pos, in_neg = _signed_mass_fractions(w_in)
    out_pos, out_neg = _signed_mass_fractions(out)
    control_pos, control_neg = _signed_mass_fractions(plan(CONTROL_SYMBOL, spec)(w_in))

    entries: list[tuple[str, float, str]] = [
        ("flip residual", flip_residual, "max_x |a(x,D)w_in - sum_j e^{-i 2^j x}|"),
        ("input positive fraction", in_pos, "sum_{eta>0}|c_eta|^2 / sum|c_eta|^2, c = w_in-hat"),
        ("output negative fraction", out_neg, "sum_{eta<0}|c_eta|^2 / sum|c_eta|^2, c = out-hat"),
        (
            "control negative fraction",
            control_neg,
            "sum_{eta<0}|c_eta|^2 / sum|c_eta|^2 for a = 1 output",
        ),
    ]

    holder_slope = math.nan
    J_h = 0
    if 0.0 < d <= 1.0:
        h_spec = GridSpec(n=1, N=max(int(holder_grid), spec.N))
        check_grid_budget(f"holder_grid {holder_grid}", h_spec)
        J_h = int(math.log2(h_spec.N)) - 3
        ladder = from_coeffs(h_spec, ladder_coeffs(J_h, d))
        increments = dyadic_increments(ladder, m_range)
        for m, D_m in zip(m_range, increments):
            entries.append(
                (f"increment[m={m}]", D_m, "max_x |S(x+h) - 2S(x) + S(x-h)|, h = 2^m dx")
            )
        holder_slope = float(np.polyfit(m_range, np.log2(increments), 1)[0])
    entries.append(
        ("holder slope", holder_slope, "log2-fit of increment[m] against m")
    )

    verdicts = {
        "flip_exact": flip_residual <= IDENTITY_TOL,
        "spectrum_flipped": in_pos >= 1.0 - IDENTITY_TOL and out_neg >= 1.0 - IDENTITY_TOL,
        "control_no_flip": control_neg <= IDENTITY_TOL,
    }
    if 0.0 < d <= 1.0:
        verdicts["holder_consistent"] = abs(holder_slope - d) <= slope_tol

    parameters = {
        "d": d,
        "J": J,
        "theta_in": 1,
        "theta_symbol": 2,
        "m_range": list(m_range),
        "slope_tol": slope_tol,
        "holder_grid": holder_grid,
        "holder_rungs": J_h,
        "identity_tol": IDENTITY_TOL,
        "symbol": _describe_symbol(a),
    }
    return ExperimentReport(
        name="wavefront",
        parameters=parameters,
        rows=_build_rows(entries),
        verdicts=verdicts,
        environment=_environment(spec),
    )


# ---------------------------------------------------------------------------
# continuity tables


class _Lebesgue(NamedTuple):  # the one norm kind that may read grid values
    p: float

    def __call__(self, u: GridFunction | SpectralFunction) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # a norm not finite is refused
            return finite_norm(f"L:p={self.p:g}", lp_norm(u, self.p))


def _lebesgue(frame: LPFrame, *, p: float) -> _Lebesgue:
    return _Lebesgue(p)


def _sobolev(frame: LPFrame, *, s: float) -> Callable[[GridFunction | SpectralFunction], float]:
    def norm(u: GridFunction | SpectralFunction) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # a norm not finite is refused
            return finite_norm(f"H:s={s:g}", sobolev_norm(as_spectral(u), s))
    return norm


NORM_KINDS = {"L": _lebesgue, "H": _sobolev, **SPACE_KINDS}
"""Norm kinds; a builder takes the frame and gives an evaluator, or for B, F a SpaceParams."""
_ANY_CASE_NORM_KINDS = {c: f for kind, f in NORM_KINDS.items() for c in (kind, kind.lower())}


def parse_norm(
    case: str | SpaceParams, frame: LPFrame | None = None
) -> tuple[str, Callable[[GridFunction], float], SpaceParams | None]:
    """Resolve a norm label to (label, evaluator, space), space being the
    SpaceParams of a framed (B/F) norm and None for L and H.

    Accepts 'L:p=2' (Lebesgue), 'H:s=1' (Sobolev, p = 2), the dyadic-scale
    forms 'B:s=..,p=..,q=..' / 'F:s=..,p=..,q=..', or a SpaceParams.  The
    kind's case is free: 'l:p=inf' is 'L:p=inf'.
    """
    if isinstance(case, SpaceParams):
        sp = case if frame is None else SpaceParams(case.s, case.p, case.q, case.scale, frame)
        return format_space(sp), lambda u: space_norms(u, [sp])[0], sp
    text = case.strip()
    norm = parse_spec(text, _ANY_CASE_NORM_KINDS, "norm")(frame or DEFAULT_FRAME)
    if isinstance(norm, SpaceParams):
        return text, lambda u: space_norms(u, [norm])[0], norm
    return text, norm, None


def _norm_values(norms: Sequence[tuple], u: GridFunction | SpectralFunction) -> list[float]:
    """Each parsed norm's value on u, the framed ones from one space_norms
    pass, grid values of coefficients made once if an L norm with p != 2
    asks; a continuity task calls it once per function it holds."""
    spaces = [sp for _, _, sp in norms if sp is not None]
    framed = dict(zip(spaces, space_norms(u, spaces)))
    gridded = [isinstance(fn, _Lebesgue) and fn.p != 2 for _, fn, _ in norms]
    x = as_values(u) if any(gridded) else u
    return [framed[sp] if sp is not None else fn(x if g else u)
            for (_, fn, sp), g in zip(norms, gridded)]


def _doubling_blow_up(grids: Sequence[int], est: Sequence[float], growth: float) -> bool:
    # growth rate per grid doubling between successive sweep points; the
    # flag needs two consecutive crossings
    hits = []
    for g0, e0, g1, e1 in zip(grids, est, grids[1:], est[1:]):
        doublings = math.log2(g1 / g0)
        if e0 <= 0.0:
            hits.append(e1 > 0.0)
            continue
        hits.append((e1 / e0) ** (1.0 / doublings) >= growth)
    if len(hits) == 1:
        return hits[0]
    return any(h0 and h1 for h0, h1 in zip(hits, hits[1:]))


def _stable(est: Sequence[float], stability: float) -> bool:
    if min(est) <= 0.0:
        return False
    return all(
        1.0 / stability <= e1 / e0 <= stability for e0, e1 in zip(est, est[1:])
    )


def run_continuity_table(
    symbol: Symbol | Callable[[GridSpec], Symbol],
    cases: Sequence[tuple[str | SpaceParams, str | SpaceParams]],
    grids: Sequence[int] = (64, 128, 256),
    trials: int = 8,
    seed: int = 0,
    band_fraction: float = 0.4,
    family_theta: int = 1,
    stability: float = 1.5,
    growth_factor: float = 2.0,
    family_factor: float = 1.5,
    family_margin: float = 1.05,
    frame: LPFrame | None = None,
) -> ExperimentReport:
    """Empirical operator-norm table over a sweep of grid refinements.

    For each (source, target) case the estimate at grid N is the largest
    ratio ||a(x,D)u||_target / ||u||_source over `trials` random
    band-limited probes plus every lacunary family member whose top mode
    fits.  Case verdicts: 'blow-up' when the family ratios on the finest
    grid increase past family_factor or the estimates grow by
    growth_factor per doubling on two consecutive sweep steps,
    'bounded-consistent' when successive estimates stay within the
    stability band, 'inconclusive' otherwise.  The identity operator runs
    the same inputs; its verdict must come back clean.

    `symbol` may be a factory GridSpec -> Symbol for grid-bound symbols
    (tables, masks, grid-adapted truncations).

    Each grid is one pool map with a task per input: the task makes its
    probe (seeded by (seed, grid index, trial)) or family member as exact
    coefficients (plans, block passes, H and L2 norms read them; an L norm
    with p != 2 gets grid values), takes the source norms, then applies the
    symbol's and the control's plans, built once per grid, and takes each
    output's target norms (coefficients on the shift route) before the next
    output is made.  A grid so holds only the workers' live arrays, and the
    rows are bit-identical for every thread count.
    """
    grids = [int(g) for g in grids]
    if len(grids) < 2 or sorted(grids) != grids or len(set(grids)) != len(grids):
        raise ValueError("grids must be at least two sizes, strictly increasing")
    for g in grids:
        check_grid_budget(f"grids entry {g}", GridSpec(n=1, N=g))
    if trials < 1:
        raise ValueError("need at least one probe per grid")
    if not cases:
        raise ValueError("no cases given")

    resolved = [
        (parse_norm(src, frame), parse_norm(tgt, frame)) for src, tgt in cases
    ]
    labels = [f"{s[0]} -> {t[0]}" for s, t in resolved]
    sources, targets = [s for s, _ in resolved], [t for _, t in resolved]
    uses_frame = any(s[2] or t[2] for s, t in resolved)

    est: dict[str, list[float]] = {lab: [] for lab in labels}
    control_est: dict[str, list[float]] = {lab: [] for lab in labels}
    family_rows: dict[str, list[tuple[int, float]]] = {lab: [] for lab in labels}
    control_family: dict[str, list[float]] = {lab: [] for lab in labels}
    symbol_label = ""

    for gi, g in enumerate(grids):
        spec = GridSpec(n=1, N=g)
        sym = symbol(spec) if callable(symbol) else symbol
        symbol_label = _describe_symbol(sym)
        d_sym = float(getattr(sym, "d", 0.0))

        op, control_op = plan(sym, spec), plan(CONTROL_SYMBOL, spec)
        members = [(None, t) for t in range(trials)] + [
            (N, None) for N in family_indices(spec, theta=family_theta)
        ]

        def one_input(member: tuple) -> tuple[list[float], list[float], list[float]]:
            N, t = member
            if N is None:
                rng = np.random.default_rng([seed, gi, t])
                u = random_band_spectrum(spec, band_fraction * (g // 2), rng)
            else:
                u = spectrum_from_coeffs(spec, lacunary_coeffs(N, d_sym, family_theta))
            return (
                _norm_values(sources, u),
                _norm_values(targets, op(u)),  # each output is dropped once measured
                _norm_values(targets, control_op(u)),
            )

        norms = pmap(one_input, members, points=spec.npoints)

        for i, lab in enumerate(labels):
            ratios = [(N, tgt[i] / src[i])
                      for (N, _), (src, tgt, _) in zip(members, norms) if src[i] > 0.0]
            control_ratios = [(N, ctl[i] / src[i])
                              for (N, _), (src, _, ctl) in zip(members, norms) if src[i] > 0.0]
            if not ratios:
                raise ValueError(f"all probes had zero source norm for {lab!r}")
            est[lab].append(max(r for _, r in ratios))
            control_est[lab].append(max(r for _, r in control_ratios))
            if gi == len(grids) - 1 and len(members) > trials:
                family_rows[lab] = [(N, r) for N, r in ratios if N is not None]
                control_family[lab] = [r for N, r in control_ratios if N is not None]

    entries: list[tuple[str, float, str]] = []
    verdicts: dict = {}
    for lab in labels:
        for g, e in zip(grids, est[lab]):
            entries.append(
                (
                    f"est[{lab} @N={g}]",
                    e,
                    "max_u ||a(x,D)u||_target / ||u||_source over probes and family",
                )
            )
        for g, e in zip(grids, control_est[lab]):
            entries.append(
                (f"control est[{lab} @N={g}]", e, "the same sup for a = 1")
            )
        for N, r in family_rows[lab]:
            entries.append(
                (f"family[{lab} N={N}]", r, "||a(x,D)v_N||_target / ||v_N||_source")
            )

        fam_ratios = [r for _, r in family_rows[lab]]
        blow = _family_blow_up(fam_ratios, family_margin, family_factor) or _doubling_blow_up(
            grids, est[lab], growth_factor
        )
        if blow:
            verdicts[lab] = BLOW_UP
        elif _stable(est[lab], stability):
            verdicts[lab] = BOUNDED
        else:
            verdicts[lab] = INCONCLUSIVE
        control_blow = _family_blow_up(
            control_family[lab], family_margin, family_factor
        ) or _doubling_blow_up(grids, control_est[lab], growth_factor)
        verdicts[f"{lab} [control]"] = "clean" if not control_blow else "suspect"

    parameters = {
        "cases": labels,
        "grids": list(grids),
        "trials": trials,
        "seed": seed,
        "band_fraction": band_fraction,
        "family_theta": family_theta,
        "stability": stability,
        "growth_factor": growth_factor,
        "family_factor": family_factor,
        "family_margin": family_margin,
        "symbol": symbol_label,
    }
    environment = _environment(
        GridSpec(n=1, N=grids[-1]),
        frame=(frame or DEFAULT_FRAME) if uses_frame else None,
        seed=seed,
    )
    environment["grids"] = list(grids)
    return ExperimentReport(
        name="continuity",
        parameters=parameters,
        rows=_build_rows(entries),
        verdicts=verdicts,
        environment=environment,
    )


# ---------------------------------------------------------------------------
# order-of-zero estimate and the boundedness onset


def run_sigma_estimate(
    a: Symbol,
    spec: GridSpec,
    s_grid: Sequence[float] = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0),
    alphas: Sequence[int] = (0, 1),
    offset: int = 1,
    j_range: Sequence[int] | None = None,
    eps_grid: Sequence[float] = (0.25, 0.125, 0.0625, 0.03125),
    slope_tol: float = 0.25,
    sigma_tol: float = 0.5,
    r_expected: float | None = None,
    strict: bool = False,
) -> ExperimentReport:
    """Twisted-diagonal order exponent plus the Sobolev boundedness onset.

    sigma_hat comes from the localized-symbol annulus sups for each
    derivative order in `alphas`, read from the symbol itself (the Gram
    route of sigma_order_estimate for shift terms, else its dense route on
    the most exact a_hat the symbol gives).  The eps grid must sit inside the
    marked-zero window of the symbol's frequency profile (eps at most
    half the window width), otherwise the localization saturates and the
    fitted exponent reads low.  Independently, single-mode probes
    u_j = e^{i(2^j + offset)x} drive a sweep of the ratios
    ||a(x,D)u_j||_{H^s} / ||u_j||_{H^{s+d}}: the fitted log2-growth over j
    is positive exactly where H^{s+d} -> H^s boundedness fails, and the
    onset (first s in s_grid with slope <= slope_tol) must sit at s = -r
    for a symbol whose frequency profile has a zero of order r.  With
    `strict` the symbol is asserted maximally regular instead: infinite
    sigma_hat and no growth at any tested s.  In that mode a symbol that
    declares its twisted-diagonal constant (tdc_B) is first projected
    onto that class exactly, which removes transform dust that would
    otherwise masquerade as localized mass; the discarded relative mass
    is reported and must itself be dust.  The identity symbol runs the
    same sweep as the control.
    """
    if spec.n != 1:
        raise ValueError("the onset sweep runs on 1-d grids")
    s_grid = [float(s) for s in s_grid]
    if sorted(s_grid) != s_grid or len(set(s_grid)) != len(s_grid):
        raise ValueError("s_grid must be strictly increasing")
    if len(s_grid) < 2:
        raise ValueError("need at least two s values to bracket an onset")
    if r_expected is not None and strict:
        raise ValueError("r_expected and strict are mutually exclusive")

    cap = int(math.floor(math.log2(spec.N // 2 - offset - 1)))
    cap = min(cap, int(getattr(a, "j_max", cap)))
    j_range = list(j_range) if j_range is not None else list(range(4, cap + 1))
    if len(j_range) < 2:
        raise ValueError("need at least two dyadic modes to fit a growth slope")
    if any(2**j + offset >= spec.N // 2 for j in j_range):
        raise ValueError(f"mode 2^max(j_range)+{offset} does not fit on an N={spec.N} grid")

    violation_mass = math.nan
    tdc_B = getattr(a, "tdc_B", None)
    localized: Symbol = a
    if strict and tdc_B is not None:
        violation_mass = check_twisted_diagonal(a, tdc_B, spec=spec).violation_mass
        localized = mask_twisted_diagonal(a, tdc_B, spec=spec)
    fits = sigma_order_estimate(localized, alphas, eps_grid=eps_grid, spec=spec)

    def sweep(sym: Symbol) -> list[float]:
        d_sym = float(sym.d)
        probes = [spectrum_from_coeffs(spec, {2**j + offset: 1.0}) for j in j_range]
        # one-mode applies: about a quarter of a split task's work per grid point
        outs = pmap(plan(sym, spec), probes, points=spec.npoints // 4)
        outs = [as_spectral(out) for out in outs]
        for j, u, out in zip(j_range, probes, outs):
            # an output at rounding-dust level carries no signal; a slope
            # fitted through it would measure the FFT noise floor
            if lp_norm(out, 2) <= 1e-13 * lp_norm(u, 2):
                raise ValueError(
                    f"probe at eta = 2^{j}+{offset} annihilated by the symbol; "
                    "j_range must stay inside its active band"
                )
        slopes = []
        for s in s_grid:
            ratios = [
                sobolev_norm(out, s) / sobolev_norm(u, s + d_sym) for out, u in zip(outs, probes)
            ]
            slopes.append(float(np.polyfit(j_range, np.log2(ratios), 1)[0]))
        return slopes

    slopes = sweep(a)
    control_slopes = sweep(CONTROL_SYMBOL)

    onset = math.nan
    for s, slope in zip(s_grid, slopes):
        if slope <= slope_tol:
            onset = s
            break

    entries: list[tuple[str, float, str]] = []
    for alpha, fit in zip(alphas, fits):
        entries.append(
            (
                f"sigma_hat[alpha={alpha}]",
                fit.sigma_hat,
                "power-law fit of localized annulus sups in eps, shifted by |alpha| - n/2",
            )
        )
    for s, slope in zip(s_grid, slopes):
        entries.append(
            (
                f"growth slope[s={s}]",
                slope,
                "log2-fit over j of ||a(x,D)u_j||_{H^s} / ||u_j||_{H^{s+d}}",
            )
        )
    entries.append(("onset", onset, "first s in s_grid with growth slope <= slope_tol"))
    entries.append(
        (
            "control max slope",
            max(control_slopes),
            "largest growth slope of the a = 1 sweep",
        )
    )
    if strict:
        entries.append(
            (
                "tdc violation mass",
                violation_mass,
                "relative squared mass of a-hat where B(1+|xi+eta|) < |eta|",
            )
        )

    verdicts: dict = {
        "control_regular": max(control_slopes) <= slope_tol,
    }
    if r_expected is not None:
        shell = max(b - a_ for a_, b in zip(s_grid, s_grid[1:]))
        verdicts["sigma_matches"] = abs(fits[0].sigma_hat - r_expected) <= sigma_tol
        verdicts["onset_matches"] = (not math.isnan(onset)) and abs(
            onset + r_expected
        ) <= shell + 1e-9
    if strict:
        verdicts["sigma_infinite"] = all(math.isinf(f.sigma_hat) for f in fits)
        verdicts["no_onset_anywhere"] = all(sl <= slope_tol for sl in slopes)
        if tdc_B is not None:
            verdicts["class_membership"] = violation_mass <= 1e-8

    parameters = {
        "s_grid": s_grid,
        "alphas": list(alphas),
        "offset": offset,
        "j_range": j_range,
        "eps_grid": list(eps_grid),
        "slope_tol": slope_tol,
        "sigma_tol": sigma_tol,
        "r_expected": r_expected,
        "strict": strict,
        "tdc_B": tdc_B,
        "d": float(a.d),
        "symbol": _describe_symbol(a),
    }
    return ExperimentReport(
        name="sigma",
        parameters=parameters,
        rows=_build_rows(entries),
        verdicts=verdicts,
        environment=_environment(spec),
    )
