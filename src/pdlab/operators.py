"""Operator application on the grid, frequency-modulation limits, the
three-series paradifferential splitting, kernels, and support rules.

apply() is the definitional reference and the one dense oracle: a row-by-row
quadrature of sum_eta a(x,eta) c_eta e^{ix.eta}, whose phases are exact
lattice roots of unity, e^{ix_k.eta} = e^{2 pi i (k.eta mod N)/N}
(grid.lattice_phase).  It reads the rows a(x_k, .) in chunks from
Symbol.rows and builds no table; only oracles call it, never plan.
plan(a, spec) is what everything else runs: like an FFTW plan it is built
once per (symbol, grid), shared read-only by pool workers, and holds the
terms of one of two strategies, each within 1e-10 of apply():
  1. separable, sum_j m_j(x) (g_j(D)u)(x), for a symbol with separable
     terms and no shift terms;
  2. spectral shift, for every other symbol: one scatter of weight * g *
     u_hat onto eta + xi for all terms' entries at once, coefficients in
     and out.  The terms are the shift terms (Ching, constants), or the
     nonzero xi-rows of the exact a_hat (symbols.row_terms): tables and
     symbols known only by eval take this one row route too.
apply_auto(a, u) is plan(a, u.spec)(u) as grid values.
paradiff_split() builds one plan and runs each summand of the three series,
the w(D_x)-cut symbol applied to block coefficients v, as its cut call
(v, w): the shift route scales the weights by w(xi_j), the separable route
runs filter_symbol(a, spec, w, v != 0), whose indicator drops the terms v
misses.
The support rules check an output against the supports it may reach.  The
spatial rule takes the output from apply_auto() and the reach from the
tau-supports of the kernel and of u, read from the kernel rows that
symbols._kernel_rows streams in budget-sized chunks: no N^n x N^n array.
kernel(), the dense oracle, copies that stream.  The spectral rule marks
the targets eta + xi_j of a shift symbol's packed entries, convolves each
spectral term's indicators, and falls back to the tau-thresholded a_hat
table only for symbols with neither kind of term.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from ._threads import pmap
from .frame import DEFAULT_FRAME, LPFrame, ModulationFunction, modulation_saturation
from .grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    as_spectral,
    as_values,
    check_budget,
    fft_forward,
    fft_inverse,
    lattice_phase,
    lp_norm,
    row_chunks,
)
from .symbols import (
    ShiftTerm,
    Symbol,
    _kernel_rows,
    filter_symbol,
    modulate_symbol,
    row_terms,
    symbol_partial_ft,
)

DIRECT_APPLY_GUARD = 16384

DEFAULT_PSI_FAMILY = (
    ModulationFunction(r=1.0, R=2.0),
    ModulationFunction(r=0.8, R=1.6),
)


def apply(a: Symbol, u: GridFunction | SpectralFunction) -> GridFunction:
    """Reference quadrature over a.rows, on u's values or coefficients; exact
    on the lattice, cost O(N^{2n})."""
    spec = u.spec
    if spec.npoints > DIRECT_APPLY_GUARD:
        raise ValueError(
            f"direct apply needs N^n <= {DIRECT_APPLY_GUARD}, got {spec.npoints}; "
            "use apply_auto or the experiment drivers"
        )
    c = as_spectral(u).coeffs.reshape(-1)
    k = np.indices(spec.shape).reshape(spec.n, -1).T  # flat grid indices
    eta = k - spec.N // 2  # the frequency lattice, same flat order
    rows = a.rows(spec)

    out = np.empty(spec.npoints, dtype=complex)
    for rs in row_chunks(spec.npoints, 2 * 16 * spec.npoints):  # rows and their phases
        block = rows(rs)  # named: the product reuses the phase temporary
        out[rs] = (block * lattice_phase(spec, k[rs], eta)) @ c
    return GridFunction(spec, out.reshape(spec.shape))


def _apply_separable(terms: list[tuple[np.ndarray, np.ndarray]], c: SpectralFunction) -> GridFunction:
    """sum_j m_j(x) F^{-1}[g_j c](x) from the coefficients c."""
    out = np.zeros(c.spec.shape, dtype=complex)
    for m, g in terms:
        out += m * fft_inverse(SpectralFunction(c.spec, c.coeffs * g)).values
    return GridFunction(c.spec, out)


def _fold(idx: np.ndarray, xis, spec: GridSpec) -> np.ndarray:
    """The flat indices of eta + xi, each axis mod N, for flat eta indices idx
    and xi given one axis at a time (xis yields arrays that broadcast against
    idx): N is a power of two, so the axis with flat stride s holds the bits
    (N - 1) s of a flat index."""
    strides = spec.N ** np.arange(spec.n - 1, -1, -1)
    return sum((idx + x * s) & ((spec.N - 1) * s) for x, s in zip(xis, strides))


def _pack(terms: list[ShiftTerm], spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The terms packed once, in term order: (n, bounds, weights, at, idx, g, dst),
    per term its entry count, its entries' bounds, its weight and the flat
    index of xi_j in the shifted lattice; per entry its eta index, g_j and
    target eta + xi_j."""
    n = np.array([t.idx.size for t in terms], dtype=np.intp)
    bounds = np.concatenate(([0], np.cumsum(n)))
    weights = np.array([t.weight for t in terms])
    xis = np.array([t.xi for t in terms], dtype=np.intp).reshape(-1, spec.n)
    at = np.ravel_multi_index(tuple((xis + spec.N // 2).T), spec.shape)
    idx, g = ((terms[0].idx, terms[0].g) if len(terms) == 1 else  # one term: no copies
              (np.concatenate([np.zeros(0, np.intp), *(t.idx for t in terms)]),
               np.concatenate([np.zeros(0), *(t.g for t in terms)])))
    dst = idx if not xis.any() else _fold(idx, (np.repeat(x, n) for x in xis.T), spec)
    return n, bounds, weights, at, idx, g, dst


def _shift_scatter(terms: list[ShiftTerm], spec: GridSpec) -> Callable[..., np.ndarray]:
    """scatter(c, w): the flat coefficients sum_j weight_j w(xi_j) shift_{xi_j}(g_j c)
    of flat coefficients c, w over the flat shifted xi-lattice (None: 1), from
    the packed terms (_pack).  An entry is ((weight_j w(xi_j)) g_j) c, and
    np.add.at adds each target's entries in term order, as a per-term loop
    does.  Only nonzero weights are read."""
    n, bounds, weights, at, idx, g, dst = _pack(terms, spec)

    def scatter(c: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        scale = weights if w is None else weights * w[at]
        kept = np.flatnonzero(scale)
        if kept.size and kept[-1] - kept[0] == kept.size - 1:  # one run of terms: views
            part = slice(bounds[kept[0]], bounds[kept[-1] + 1])
        else:
            part = np.concatenate([np.zeros(0, np.intp),
                                   *(np.arange(bounds[j], bounds[j + 1]) for j in kept)])
        entries = np.repeat(scale[kept], n[kept]) * g[part] * c[idx[part]]
        out = np.zeros(spec.npoints, dtype=complex)
        np.add.at(out, dst[part], entries)
        return out

    return scatter


def plan(
    a: Symbol, spec: GridSpec
) -> Callable[..., GridFunction | SpectralFunction]:
    """(u, w=None) -> b(x,D)u on spec, b_hat(xi,eta) = w(xi) a_hat(xi,eta), w an
    x-frequency cut over the shifted lattice (None: 1).  The strategy is picked
    and its terms built once, a separable symbol's realized terms on the first
    cut.  u is grid values or coefficients, which skip the forward FFT; the
    shift route returns coefficients, the separable route grid values."""
    shifts = a.shift_terms(spec)
    terms = a.separable_terms(spec) if shifts is None else None
    scatter = None if terms is not None else _shift_scatter(
        row_terms(a, spec) if shifts is None else shifts, spec)
    realized = cache(lambda: filter_symbol(a, spec))  # first cuts at once make equal terms

    def planned(u: GridFunction | SpectralFunction,
                w: np.ndarray | None = None) -> GridFunction | SpectralFunction:
        if u.spec != spec:
            raise ValueError(f"planned for {spec}, got an input on {u.spec}")
        c = as_spectral(u)
        if terms is None:
            return SpectralFunction(spec, scatter(c.coeffs.reshape(-1), w).reshape(spec.shape))
        if w is None:
            return _apply_separable(terms, c)
        cut = filter_symbol(realized(), spec, w, c.coeffs != 0)
        return _apply_separable(cut.separable_terms(spec), c)

    return planned


def apply_auto(a: Symbol, u: GridFunction) -> GridFunction:
    """plan(a, u.spec)(u) as grid values."""
    return as_values(plan(a, u.spec)(u))


# ---------------------------------------------------------------------------
# vanishing frequency modulation


def vfm_apply(a: Symbol, u: GridFunction, psi: ModulationFunction, m: int) -> GridFunction:
    """OP(psi(2^{-m}D_x)a(x,eta) psi(2^{-m}eta)) u."""
    return apply_auto(modulate_symbol(a, m, psi, u.spec), u)


@dataclass
class VfmTrace:
    """Per-m modulation outputs for each auxiliary profile.

    On a fixed lattice every profile saturates: outputs for m >= m_sat are
    bit-identical, so cross_dev measures profile independence exactly.
    """

    spec: GridSpec
    tags: list[str]
    m_values: list[int]
    l2_norms: dict[str, list[float]]
    m_sat: dict[str, int]
    saturated: dict[str, GridFunction]
    cross_dev: float


def vfm_limit(
    a: Symbol,
    u: GridFunction,
    psis=DEFAULT_PSI_FAMILY,
    m_max: int | None = None,
) -> VfmTrace:
    if len(psis) < 2:
        raise ValueError("need at least two modulation functions to witness independence")
    if m_max is not None and m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    spec = u.spec
    a = filter_symbol(a, spec)  # realized once; modulate_symbol filters it per (psi, m)
    tags = [f"psi(r={p.r:g},R={p.R:g})" for p in psis]
    sats = {t: modulation_saturation(p, spec) for t, p in zip(tags, psis)}
    top = max(sats.values()) + 1 if m_max is None else m_max
    m_values = list(range(top + 1))
    norms: dict[str, list[float]] = {}
    saturated: dict[str, GridFunction] = {}
    for tag, psi in zip(tags, psis):
        # a modulated apply: about twice a split task's work per grid point
        ys = pmap(lambda m: vfm_apply(a, u, psi, m), m_values, points=2 * spec.npoints)
        norms[tag] = [lp_norm(y, 2) for y in ys]
        idx = min(sats[tag], len(ys) - 1)
        saturated[tag] = ys[idx]
    dev = 0.0
    vals = list(saturated.values())
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            dev = max(dev, float(np.max(np.abs(vals[i].values - vals[j].values))))
    return VfmTrace(spec, tags, m_values, norms, sats, saturated, dev)


@dataclass(frozen=True)
class RefinementReport:
    """Saturated vfm values across nested grids for one continuum input."""

    grid_sizes: tuple[int, ...]
    l2_norms: tuple[float, ...]
    growth_factors: tuple[float, ...]
    rel_changes: tuple[float, ...]
    diverging: bool
    cauchy: bool


def vfm_refinement(
    make_symbol,
    sample,
    specs,
    psis=DEFAULT_PSI_FAMILY,
) -> RefinementReport:
    """Fix a continuum input, realize it on each grid in specs (must be
    nested: each N divides the next), and compare saturated vfm outputs.

    diverging: L2 growth factor > 2 for two consecutive refinements.
    cauchy: relative nested-grid differences strictly decreasing.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("need at least two grids to compare")
    outputs = []
    for spec in specs:
        trace = vfm_limit(make_symbol(spec), sample(spec), psis)
        outputs.append(trace.saturated[trace.tags[0]])
    norms = tuple(lp_norm(y, 2) for y in outputs)
    growth = tuple(b / a if a > 0 else np.inf for a, b in zip(norms, norms[1:]))
    rel = []
    for coarse, fine in zip(outputs, outputs[1:]):
        stride = fine.spec.N // coarse.spec.N
        if stride * coarse.spec.N != fine.spec.N:
            raise ValueError("grids must be nested by integer factors")
        sl = (slice(None, None, stride),) * coarse.spec.n
        restricted = GridFunction(coarse.spec, np.ascontiguousarray(fine.values[sl]))
        denom = max(lp_norm(coarse, 2), 1e-300)
        rel.append(lp_norm(restricted - coarse, 2) / denom)
    diverging = any(g1 > 2.0 and g2 > 2.0 for g1, g2 in zip(growth, growth[1:]))
    if len(growth) == 1:
        diverging = growth[0] > 2.0
    cauchy = all(b < a for a, b in zip(rel, rel[1:])) if len(rel) >= 2 else False
    return RefinementReport(
        tuple(s.N for s in specs), norms, growth, tuple(rel), diverging, cauchy
    )


# ---------------------------------------------------------------------------
# paradifferential three-series splitting


@dataclass
class ParadiffTerms:
    """The three series evaluated on the lattice, with per-k summands.

    t1: sum_{k=h}^K a^{k-h}(x,D)u_k        (low symbol, high input)
    t2: sum_k (a^k - a^{k-h})(x,D)u_k + a_k(x,D)(u^{k-1} - u^{k-h})
    t3: sum_{j=h}^K a_j(x,D)u^{j-h}        (high symbol, low input)

    At the lattice saturation index K the union covers every block pair
    (j,k) exactly once, so t1+t2+t3 equals apply(a,u) up to rounding.
    """

    spec: GridSpec
    frame: LPFrame
    K: int
    t1: GridFunction
    t2: GridFunction
    t3: GridFunction
    t1_summands: dict[int, GridFunction] = field(repr=False, default_factory=dict)
    t2_summands: dict[int, GridFunction] = field(repr=False, default_factory=dict)
    t3_summands: dict[int, GridFunction] = field(repr=False, default_factory=dict)

    def total(self) -> GridFunction:
        return self.t1 + self.t2 + self.t3


def paradiff_split(a: Symbol, u: GridFunction, frame: LPFrame = DEFAULT_FRAME) -> ParadiffTerms:
    spec = u.spec
    planned = plan(a, spec)
    zero = np.zeros(spec.npoints)
    planned(SpectralFunction(spec, zero), zero)  # realizes the cut terms here, not in a pool worker

    def run(w: np.ndarray, v: np.ndarray) -> GridFunction:  # the cut symbol on coefficients v
        return as_values(planned(SpectralFunction(spec, v), w))

    K = frame.j_saturation(spec)
    h = frame.h
    rad = spec.freq_radius().reshape(-1)

    # psi[m] = psi(2^{-m} xi), the x-frequency cut of the cumulative symbol a^m
    psi = [frame.ball_radial(m, rad) for m in range(K + 1)]

    # cumulative input coefficients: ball[m] = coeffs of u^m
    c = fft_forward(u).coeffs.reshape(-1)
    blocks = [b.reshape(-1) for b in frame.lattice_blocks(spec, K)]
    ball = list(np.cumsum(blocks, axis=0))

    def at(seq: list[np.ndarray], m: int) -> np.ndarray:
        return seq[m] if m >= 0 else zero

    t1_parts = dict(zip(range(h, K + 1), pmap(
        lambda k: run(psi[k - h], c * blocks[k]), range(h, K + 1), points=spec.npoints)))

    def t2_summand(k: int) -> GridFunction:
        first = run(psi[k] - at(psi, k - h), c * blocks[k])
        second = run(psi[k] - at(psi, k - 1), c * (at(ball, k - 1) - at(ball, k - h)))
        return first + second

    t2_parts = dict(zip(range(0, K + 1), pmap(t2_summand, range(0, K + 1), points=spec.npoints)))

    t3_parts = dict(zip(range(h, K + 1), pmap(
        lambda j: run(psi[j] - at(psi, j - 1), c * ball[j - h]), range(h, K + 1),
        points=spec.npoints)))

    def series_sum(parts: dict[int, GridFunction]) -> GridFunction:
        out = np.zeros(spec.shape, dtype=complex)
        for k in sorted(parts):
            out = out + parts[k].values
        return GridFunction(spec, out)

    return ParadiffTerms(
        spec,
        frame,
        K,
        series_sum(t1_parts),
        series_sum(t2_parts),
        series_sum(t3_parts),
        t1_parts,
        t2_parts,
        t3_parts,
    )


# ---------------------------------------------------------------------------
# corona and ball containment


@dataclass(frozen=True)
class CoronaRow:
    series: str
    k: int
    lo: float
    hi: float
    mass: float
    outside_mass: float  # relative to the summand's own mass
    active: bool
    tdc_lo: float | None = None
    below_tdc_mass: float | None = None


@dataclass
class CoronaReport:
    rows: list[CoronaRow]
    max_outside: float
    mass_floor: float
    tdc_B: float | None
    eventual_tdc_ok: bool | None

    def active_rows(self) -> list[CoronaRow]:
        return [r for r in self.rows if r.active]


# a summand that is identically zero in exact arithmetic still carries fft
# noise (~1e-16 in amplitude), whose inside/outside split is meaningless;
# rows below this fraction of the largest summand mass are marked inactive
MASS_FLOOR = 1e-24


def corona_ball_report(terms: ParadiffTerms, B: float | None = None) -> CoronaReport:
    """Spectral containment of each summand.

    t1 and t3 summands live in the corona {R_h 2^k <= |xi| <= (5R/4) 2^k}
    with R_h = r/2 - R 2^{-h}; t2 summands live in the ball
    {|xi| <= 2R 2^k}, eventually bounded below by r 2^k / (2^{h+1} B)
    when the symbol satisfies the twisted diagonal condition with B.
    """
    frame = terms.frame
    spec = terms.spec
    r, R, h = frame.r, frame.R, frame.h
    R_h = r / 2.0 - R * 2.0**-h
    rad = spec.freq_radius()

    corona, ball = (R_h, 1.25 * R), (0.0, 2.0 * R)
    series_bounds = (("t1", terms.t1_summands, corona), ("t3", terms.t3_summands, corona),
                     ("t2", terms.t2_summands, ball))

    # one summand's spectrum at a time: its mass, outside share and share
    # below the twisted-diagonal bound; the activity floor needs every mass
    measured = []
    for series, summands, (lo_1, hi_1) in series_bounds:
        for k, y in sorted(summands.items()):
            lo, hi = lo_1 * 2.0**k, hi_1 * 2.0**k
            power = np.abs(fft_forward(y).coeffs) ** 2
            total = float(power.sum())
            out, tdc_lo, below = 0.0, None, None
            if total > 0.0:
                out = float(power[(rad < lo) | (rad > hi)].sum()) / total
            if B is not None and series == "t2":
                tdc_lo = r * 2.0**k / (2.0 ** (h + 1) * B)
                if total > 0.0:
                    below = float(power[rad < tdc_lo].sum()) / total
            measured.append((series, k, lo, hi, total, out, tdc_lo, below))
            del power  # before the next spectrum is made
    mass_floor = MASS_FLOOR * max((m[4] for m in measured), default=0.0)

    rows: list[CoronaRow] = []
    below_flags: list[tuple[int, float]] = []
    for series, k, lo, hi, total, out, tdc_lo, below in measured:
        active = total > mass_floor
        if not active:
            below = None
        elif below is not None:
            below_flags.append((k, below))
        rows.append(CoronaRow(series, k, lo, hi, total, out, active, tdc_lo, below))

    eventual = None
    if B is not None:
        # eventual containment: a suffix of the active summands with no mass
        # below the bound; inactive summands carry no evidence either way
        eventual = False
        for k0, _ in below_flags:
            tail = [b for k, b in below_flags if k >= k0]
            if tail and all(b <= 1e-10 for b in tail):
                eventual = True
                break

    max_outside = max((row.outside_mass for row in rows if row.active), default=0.0)
    return CoronaReport(rows, max_outside, mass_floor, B, eventual)


# ---------------------------------------------------------------------------
# kernels


def _wrapped_differences(spec: GridSpec, rs: slice) -> np.ndarray:
    """The flat index of x - z (each axis mod N): flat rows x in rs, every flat z."""
    idx = np.unravel_index(np.arange(spec.npoints), spec.shape)
    return np.ravel_multi_index(tuple(i[rs, None] - i for i in idx), spec.shape, mode="wrap")


def kernel(a: Symbol, spec: GridSpec) -> np.ndarray:
    """K[x,y] with apply(a,u)(x) = (2pi/N)^n sum_y K[x,y] u(y); exact.  The dense
    oracle: K[x,y] = k(x, x-y), the kernel rows copied in, then gathered per row."""
    check_budget("dense operator matrix", spec)
    K = np.empty((spec.npoints, spec.npoints), dtype=complex)
    for rs, k in _kernel_rows(a, spec, 16 * spec.npoints):  # the stream's rows alone
        K[rs] = k
    del k  # the last view of the stream's workspace, so the gather does not add to it
    for rs in row_chunks(spec.npoints, 24 * spec.npoints):  # an int64 gather, the gathered rows
        K[rs] = np.take_along_axis(K[rs], _wrapped_differences(spec, rs), axis=1)
    return K.reshape(spec.shape + spec.shape)


# ---------------------------------------------------------------------------
# support rules


def _tau_support(power: np.ndarray, tau: float) -> np.ndarray:
    total = power.sum()
    if total == 0.0:
        return np.zeros_like(power, dtype=bool)
    return power > tau * total


@dataclass(frozen=True)
class SupportReport:
    holds: bool
    violation_mass: float
    tau: float
    output_support: int
    allowed_support: int


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < 1.0:  # NaN fails too
        raise ValueError(f"tau must lie in [0, 1), got {tau!r}")


def _support_report(y_power: np.ndarray, allowed: np.ndarray, tau: float) -> SupportReport:
    total = float(y_power.sum())
    viol = 0.0 if total == 0.0 else float(y_power[~allowed].sum()) / total
    out_support = int(_tau_support(y_power, tau).sum())
    return SupportReport(viol <= tau, viol, tau, out_support, int(allowed.sum()))


def support_rule_check(a: Symbol, u: GridFunction, tau: float = 1e-8) -> SupportReport:
    """Spatial support rule: supp a(x,D)u within supp_tau K composed with
    supp_tau u; smooth cutoffs have global tails, so this is thresholded.
    K[x,y] = k(x, x-y) is read in two passes over the kernel rows, never whole:
    the sum of |k|^2, then each row's entries above tau times it against
    supp_tau u at the wrapped offsets y = x - z."""
    _check_tau(tau)
    spec = u.spec
    u_supp = _tau_support(np.abs(u.values.reshape(-1)) ** 2, tau)
    # a chunk's rows (16 bytes an entry), then |k| and |k|^2 (16), or the entries
    # above the threshold and the int64 offsets with their differences (26): 48
    row_bytes = 48 * spec.npoints
    total = sum(float(np.sum(np.abs(k) ** 2)) for _, k in _kernel_rows(a, spec, row_bytes))
    reach = np.zeros(spec.npoints, dtype=bool)
    for rs, k in _kernel_rows(a, spec, row_bytes):
        above = np.abs(k) ** 2 > tau * total
        reach[rs] = (above & u_supp[_wrapped_differences(spec, rs)]).any(axis=1)
    y = apply_auto(a, u)
    return _support_report(np.abs(y.values.reshape(-1)) ** 2, reach, tau)


def _allowed_sumset(a: Symbol, spec: GridSpec, u_supp: np.ndarray, tau: float) -> np.ndarray:
    """The spectral rule's allowed set, folded mod N (shifted layout).

    With shift terms it is the targets eta + xi_j of the packed entries
    (_pack) whose weight and g_j are nonzero and whose eta is in u_supp: a
    term's x-spectrum is one delta.  With spectral terms a_hat = sum_j
    mhat_j(xi) g_j(eta), it is the union over j of supp_tau mhat_j + (supp
    g_j & u_supp), each sumset a circular convolution of two indicator arrays
    (one FFT product, thresholded at 1/2): ifftshift puts frequency f at index
    f mod N, where frequencies add as indices.  Other symbols use the
    tau-thresholded table of a_hat."""
    allowed = np.zeros(spec.shape, dtype=bool)
    shifts = a.shift_terms(spec)
    if shifts is not None:
        n, _, weights, _, idx, g, dst = _pack(shifts, spec)
        allowed.flat[dst[np.repeat(weights != 0, n) & (g != 0) & u_supp.flat[idx]]] = True
        return allowed
    terms = a.spectral_terms(spec)
    if terms is not None:
        for mhat, g in terms:
            eta = (g != 0) & u_supp
            xi = _tau_support(np.abs(mhat) ** 2, tau)
            if eta.any() and xi.any():
                fx, fe = (np.fft.fftn(np.fft.ifftshift(ind)) for ind in (xi, eta))
                allowed |= np.fft.fftshift(np.fft.ifftn(fx * fe).real > 0.5)
        return allowed
    a_supp = _tau_support(np.abs(symbol_partial_ft(a, spec)) ** 2, tau)
    rows, idx = np.nonzero(a_supp.reshape(spec.npoints, -1) & u_supp.reshape(1, -1))
    xis = (i - spec.N // 2 for i in np.unravel_index(rows, spec.shape))
    allowed.flat[_fold(idx, xis, spec)] = True
    return allowed


def spectral_support_rule_check(
    a: Symbol, u: GridFunction | SpectralFunction, tau: float = 1e-10
) -> SupportReport:
    """Frequency support rule: supp F(a(x,D)u) within the folded sumset
    {xi + eta : (xi,eta) in supp a_hat, eta in supp_tau u_hat}; see
    _allowed_sumset for how supp a_hat is read.  u is transformed once at
    most; the output spectrum is the plan's, exact on the shift route."""
    _check_tau(tau)
    c = as_spectral(u)
    u_supp = _tau_support(np.abs(c.coeffs) ** 2, tau)
    allowed = _allowed_sumset(a, u.spec, u_supp, tau)
    y = as_spectral(plan(a, u.spec)(c))
    return _support_report(np.abs(y.coeffs) ** 2, allowed, tau)
