"""Peetre-type maximal functions, weighted-L1 symbol factors, and the
pointwise factorization bound with its derivative-sum and decay controls.

The factorization |a(x,D)u| <= F_a u* holds for any auxiliary cutoff chi
that is 1 on the spectrum of u.  The lab fixes one: chi(eta) =
CHI.radial(|eta|/R), identically 1 on |eta| <= CHI.r R and 0 past
|eta| >= CHI.R R, with R the maximal function's R_spec; the x-high-pass of
the decay sweep is CHI's corona.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._threads import pmap
from .frame import ModulationFunction
from .grid import TWO_PI, GridFunction, GridSpec, check_budget, fft_forward, lp_norm
from .operators import _tau_support, apply_auto
from .symbols import Symbol, _eta_power, _kernel_rows, _resolve_spec, _shift_rows, filter_symbol

# Central differences of order k need a stencil of width k on the eta
# lattice; beyond this the stencil stops resolving anything near the
# cutoff support, so the derivative-sum bound refuses to go higher.
DERIVATIVE_BUDGET = 4

# Relative slack on the hard factorization gate; the only inexactness in
# the chain is spectral dust outside the cutoff plateau plus fp roundoff.
FACTORIZATION_SLACK = 1e-8

# the auxiliary cutoff's profile: chi(eta) = CHI.radial(|eta|/R)
CHI = ModulationFunction(1.0, 2.0)


@dataclass(frozen=True)
class MaximalParams:
    """Weight exponent and spectral radius for the maximal-function family.

    The weight is (1 + R|y|)^{-N} over torus-centered offsets y, each axis
    reduced to [-pi, pi).  N_exp and R_spec must both be positive and finite.
    """

    N_exp: float
    R_spec: float

    def __post_init__(self) -> None:
        if not 0 < self.N_exp < math.inf:
            raise ValueError(f"N_exp must be positive and finite, got {self.N_exp}")
        if not 0 < self.R_spec < math.inf:
            raise ValueError(f"R_spec must be positive and finite, got {self.R_spec}")


def spectral_radius(u: GridFunction, tau: float = 1e-10) -> float:
    """Largest |eta| whose coefficient power exceeds tau relative to the total."""
    mask = _tau_support(np.abs(fft_forward(u).coeffs) ** 2, tau)
    return float(u.spec.freq_radius()[mask].max()) if mask.any() else 0.0


def default_maximal_params(u: GridFunction, tau: float = 1e-10) -> MaximalParams:
    """N = floor(n/2) + 1 and the smallest radius covering the tau-support."""
    return MaximalParams(u.spec.n // 2 + 1, max(1.0, spectral_radius(u, tau)))


def _centered_offsets(spec: GridSpec) -> np.ndarray:
    # displacement of grid offset d along one axis, as the representative
    # ((d + N/2) mod N - N/2) * spacing in [-pi, pi)
    idx = np.arange(spec.N)
    return (((idx + spec.N // 2) % spec.N) - spec.N // 2) * spec.spacing


def _offset_radius(spec: GridSpec) -> np.ndarray:
    ax = _centered_offsets(spec)
    if spec.n == 1:
        return np.abs(ax)
    mesh = np.meshgrid(*([ax] * spec.n), indexing="ij")
    return np.sqrt(sum(m**2 for m in mesh))


def peetre_maximal(u: GridFunction, p: MaximalParams) -> GridFunction:
    """u*(x) = max over grid offsets y of |u(x-y)| / (1 + R|y|)^N.

    The offset y = 0 carries weight exactly 1, so u* >= |u| pointwise
    without rounding.  Offsets are scanned in order of decreasing weight
    w(y), taking best = max(best, w(y) |u(. - y)|), and the scan stops once
    w(y) max|u| <= min(best).  That is exact: every offset y' not yet
    visited has w(y') <= w(y), so w(y') |u(x - y')| <= w(y) max|u| <=
    best(x) for every x, and rounding is monotone, so the same holds in
    floating point.  The result is bit-identical to the maximum over all
    N^n offsets, at O(N^n) memory.
    """
    spec = u.spec
    absu = np.abs(u.values)
    wflat = (1.0 + p.R_spec * _offset_radius(spec)).reshape(-1) ** (-p.N_exp)
    top = absu.max()
    best = np.zeros(spec.shape)
    axes = tuple(range(spec.n))
    for k in np.argsort(-wflat, kind="stable"):
        if wflat[k] * top <= best.min():
            break
        shift = np.unravel_index(k, spec.shape)
        np.maximum(best, np.roll(absu, shift, axis=axes) * wflat[k], out=best)
    return GridFunction(spec, best)


def _chi(spec: GridSpec, R: float) -> np.ndarray:
    """The auxiliary cutoff chi(eta) = CHI.radial(|eta|/R) over the shifted lattice."""
    return CHI.radial(spec.freq_radius() / R)


def _factor_weights(p: MaximalParams, spec: GridSpec) -> np.ndarray:
    """(1 + R|y|)^N over the flat offsets y; ValueError if one is not finite."""
    with np.errstate(over="ignore"):
        w = ((1.0 + p.R_spec * _offset_radius(spec)) ** p.N_exp).reshape(-1)
    if not np.isfinite(w.max()):
        raise ValueError(f"the weight (1 + R|y|)^N_exp is not finite for N_exp = {p.N_exp!r} "
                         f"and R = {p.R_spec!r}")
    return w


def symbol_factor(a: Symbol, p: MaximalParams, spec: GridSpec | None = None) -> GridFunction:
    """F_a(x) = (2pi/N)^n sum_y (1 + R|y|)^N |k(x,y)| with
    k(x,y) = (2pi)^{-n} sum_eta a(x,eta) chi(eta) e^{i y.eta}, chi the fixed
    cutoff CHI.radial(|eta|/R) at R = R_spec.

    The y-sum runs over the same torus-centered offsets as peetre_maximal,
    so |a(x,D)u| <= F_a u* closes over exactly the lattice sums both
    sides are built from (Parseval on the offset sum).

    k(x, .) comes from symbols._kernel_rows, in the symbol's own form: one
    inverse FFT per separable term (every shift symbol's included) and one
    product per chunk of x-rows, or any other symbol's rows times chi,
    transformed over eta; no table.  The weights are checked finite first.
    """
    spec = _resolve_spec(a, spec)
    w = _factor_weights(p, spec)
    cell = (TWO_PI / spec.N) ** spec.n
    out = np.empty(spec.npoints)
    # a chunk's complex rows and then their moduli: 24 bytes an entry
    for rs, k in _kernel_rows(a, spec, 24 * spec.npoints, _chi(spec, p.R_spec)):
        m = np.abs(k)
        m *= w
        out[rs] = cell * np.sum(m, axis=-1)
        del m  # before the next chunk's moduli are made
    return GridFunction(spec, out.reshape(spec.shape))


def _worst_ratio(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max lhs/rhs where rhs > 0; inf if lhs > 0 anywhere rhs vanishes."""
    pos = rhs > 0.0
    if np.any(~pos & (lhs > 0.0)):
        return float("inf")
    return float(np.max(lhs[pos] / rhs[pos])) if pos.any() else 0.0


@dataclass(frozen=True)
class FactorizationReport:
    params: MaximalParams
    max_ratio: float
    holds: bool
    factor_sup: float
    maximal_sup: float
    lhs: np.ndarray = field(repr=False, compare=False)  # |a(x,D)u| per grid point
    bound: np.ndarray = field(repr=False, compare=False)  # F_a u* per grid point


def factorization_check(
    a: Symbol,
    u: GridFunction,
    p: MaximalParams | None = None,
    tau: float = 1e-10,
) -> FactorizationReport:
    """Hard gate |a(x,D)u(x)| <= F_a(x) u*(x) at every grid point.

    Precondition: the tau-support of u-hat sits where chi is exactly 1.
    A spectrum escaping the plateau is raised as an error, never silently
    absorbed into the ratio.
    """
    spec = u.spec
    p = p if p is not None else default_maximal_params(u, tau)

    supp = _tau_support(np.abs(fft_forward(u).coeffs) ** 2, tau)
    if np.any(supp & (_chi(spec, p.R_spec) != 1.0)):
        worst = float(spec.freq_radius()[supp].max())
        raise ValueError(
            f"tau-support of u reaches |eta|={worst:g} where the cutoff chi at "
            f"R={p.R_spec:g} is not identically 1"
        )

    lhs = np.abs(apply_auto(a, u).values)
    factor = symbol_factor(a, p, spec).values.real
    maximal = peetre_maximal(u, p).values.real
    bound = factor * maximal
    ratio = _worst_ratio(lhs, bound)
    return FactorizationReport(
        params=p,
        max_ratio=ratio,
        holds=ratio <= 1.0 + FACTORIZATION_SLACK,
        factor_sup=float(factor.max()),
        maximal_sup=float(maximal.max()),
        lhs=lhs,
        bound=bound,
    )


def maximal_ratio(corpus, p_exp: float, N_exp: float) -> float:
    """max over the corpus of ||u*||_p / ||u||_p, with R chosen per member
    as the smallest radius covering its tau-support at tau = 1e-10
    (spectral_radius).

    No integrability-line check here: the negative control below the line
    calls this directly to watch the ratio grow under refinement.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")

    def one(u: GridFunction) -> float:
        pr = MaximalParams(N_exp, max(1.0, spectral_radius(u)))
        return lp_norm(peetre_maximal(u, pr), p_exp) / lp_norm(u, p_exp)

    # a Peetre scan stops early: about 1/8 of a split task's work per grid point
    return float(max(pmap(one, corpus, points=corpus[0].spec.npoints // 8)))


def maximal_lp_constant(corpus, p_exp: float, N_exp: float) -> float:
    """Empirical constant in ||u*||_p <= C ||u||_p over the corpus.

    The weight exponent must clear the integrability line N > n/p, the
    regime where the constant stays bounded under grid refinement.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    line = corpus[0].spec.n / p_exp
    if not N_exp > line:
        raise ValueError(f"need N_exp > n/p = {line:g}, got {N_exp:g}")
    return maximal_ratio(corpus, p_exp, N_exp)


def _least_integer_above(x: float) -> int:
    return int(math.floor(x)) + 1


def _multiindices(n: int, total: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(total,)]
    return [(i, total - i) for i in range(total + 1)]


def derivative_order(p: MaximalParams, n: int) -> int:
    """Least integer k > N + n/2, the derivative count of the bound below;
    ValueError past DERIVATIVE_BUDGET."""
    k = _least_integer_above(p.N_exp + n / 2.0)
    if k > DERIVATIVE_BUDGET:
        raise ValueError(
            f"order {k:g} differences exceed the budget {DERIVATIVE_BUDGET}; "
            f"lower N_exp"
        )
    return k


def mihlin_rhs(a: Symbol, p: MaximalParams, spec: GridSpec | None = None) -> np.ndarray:
    """sum_{|alpha| <= k} (sum_{|eta| <= CHI.R R} |R^|alpha| D^alpha_eta a|^2
    / R^n)^{1/2} per x, over the support of the fixed cutoff chi at R =
    R_spec, with k the least integer above N + n/2 and the eta derivatives
    taken as unit-step central differences on the lattice.  A shift
    symbol's sums take its rows' Gram identity (symbols._eta_power), after
    a budget check on its R rows: they, their differences, the x-phases and
    the masked copies peak at 67.5 bytes an entry (1-d 2^15, tracemalloc).
    Any other symbol's table is checked first at 48 bytes an entry: it, a
    difference and its moduli peak at 40, plus np.roll's small arrays."""
    spec = _resolve_spec(a, spec)
    k = derivative_order(p, spec.n)
    R = p.R_spec
    hi = CHI.R * R
    if hi + k > spec.N / 2:
        raise ValueError(
            f"cutoff support |eta| <= {hi:g} leaves no room for order-{k} "
            f"differences inside the band of N={spec.N}"
        )
    mask = spec.freq_radius() <= hi
    shifts = a.shift_terms(spec)
    if shifts is None:
        check_budget("derivative-sum table", spec, entry_bytes=48)
        form = a.table(spec)
    else:
        check_budget("derivative-sum rows", spec, rows=len({t.xi for t in shifts}),
                     entry_bytes=68)
        form = _shift_rows(shifts, spec)
    out = np.zeros(spec.shape)
    for total in range(k + 1):
        for alpha in _multiindices(spec.n, total):
            (sq,) = _eta_power(form, alpha, [mask], spec)
            out += R**total * np.sqrt(sq / R**spec.n)
    return out


@dataclass(frozen=True)
class MihlinReport:
    k: int
    c_used: float
    worst_ratio: float
    holds: bool
    factor: np.ndarray = field(repr=False, compare=False)  # F_a per grid point
    rhs: np.ndarray = field(repr=False, compare=False)  # derivative sum per grid point


def mihlin_bound_check(
    a: Symbol,
    p: MaximalParams,
    c: float | None,
    spec: GridSpec | None = None,
    slack: float = 0.01,
) -> MihlinReport:
    """F_a <= c * derivative-sum at every x, with relative slack on the
    fitted constant c (fit on one corpus, verify on another); c = None
    uses a's own worst ratio.  Every check (the derivative order, F_a's
    weights, and the band and budget of the derivative sum) comes before
    F_a's O(N^{2n}) kernel sums."""
    spec = _resolve_spec(a, spec)
    k = derivative_order(p, spec.n)
    _factor_weights(p, spec)
    rhs = mihlin_rhs(a, p, spec)
    factor = symbol_factor(a, p, spec).values.real
    ratio = _worst_ratio(factor, rhs)
    c = ratio if c is None else float(c)
    return MihlinReport(
        k=k,
        c_used=c,
        worst_ratio=ratio,
        holds=ratio <= c * (1.0 + slack),
        factor=factor,
        rhs=rhs,
    )


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slope of values against xs, over the strictly positive
    values only; slope is -inf with fewer than two of them.  cliff marks
    a positive value followed by an exact zero (a drop past every
    polynomial rate, which no finite slope reports)."""

    xs: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    fit_points: int
    cliff: bool


def _fit_exponent(xs, values) -> ExponentFit:
    xs = tuple(float(x) for x in xs)
    values = tuple(float(v) for v in values)
    cliff = any(
        values[i] > 0.0 and values[i + 1] == 0.0 for i in range(len(values) - 1)
    )
    pts = [(x, v) for x, v in zip(xs, values) if v > 0.0]
    if len(pts) < 2:
        return ExponentFit(xs, values, float("-inf"), len(pts), cliff)
    lx = np.log2([q[0] for q in pts])
    lv = np.log2([q[1] for q in pts])
    slope = float(np.polyfit(lx, lv, 1)[0])
    return ExponentFit(xs, values, slope, len(pts), cliff)


@dataclass(frozen=True)
class MomentDecayReport:
    M: int
    fit: ExponentFit
    step_drops: tuple[float, ...]
    holds: bool


def moment_decay_check(
    a: Symbol,
    p: MaximalParams,
    q_grid,
    M: int,
    spec: GridSpec | None = None,
) -> MomentDecayReport:
    """Decay of sup_x F over the x-high-passed family a_Q = phi(Q^{-1}D_x)a
    on a dyadic Q sweep (filter_symbol: a shift or separable a_Q builds no
    table); phi is fixed to CHI.corona, radial and identically 0 near 0.

    Passes when the fitted exponent is <= -M + 0.5, or on an exact-zero
    cliff: with the compactly supported chi, x-shells far above R_spec die
    exactly on the lattice, which is faster than any polynomial rate.
    step_drops holds log2(F(Q)/F(Q')) per consecutive positive Q (inf when
    the successor is exactly zero).
    """
    spec = _resolve_spec(a, spec)
    a = filter_symbol(a, spec)  # realized once, filtered per Q
    xrad = spec.freq_radius()

    def one(Q: float) -> float:
        a_q = filter_symbol(a, spec, CHI.corona(xrad / float(Q)))
        return float(symbol_factor(a_q, p, spec).values.real.max())

    # symbol_factor sums N^n x N^n kernel entries, each about 1/16 of the
    # work of a grid point in a split task (tools/pool_sweep.py)
    values = pmap(one, list(q_grid), points=spec.npoints**2 // 16)
    fit = _fit_exponent(q_grid, values)
    drops = []
    for i in range(len(values) - 1):
        if values[i] > 0.0:
            drops.append(
                float("inf")
                if values[i + 1] == 0.0
                else float(np.log2(values[i] / values[i + 1]))
            )
    holds = fit.slope <= -M + 0.5 or fit.cliff
    return MomentDecayReport(
        M=int(M), fit=fit, step_drops=tuple(drops), holds=holds
    )
