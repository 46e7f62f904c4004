"""Symbols a(x,eta) on the discrete torus: construction, Fourier multipliers
(filter_symbol), twisted-diagonal localization and order, the
kernel rows k(x, .) in budget-sized chunks, and the binary table format.

A symbol is realized on a grid as a table over (x-axes..., eta-axes...).
The partial Fourier transform in x maps the table to a_hat(xi, eta) with
xi in the same shifted integer layout as eta; that transform is exact on
the lattice and is where every support statement is checked.  The
twisted-diagonal tools read a_hat as rows in the symbol's own form: a shift
symbol's R nonzero xi-rows, so its table and dense a_hat are built only by
oracles; any other symbol's N^n rows.

Frequency rows with a component at -N/2 are zeroed when constructing
symbols, so conjugate-symmetry bookkeeping never enters.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Iterator, Literal, NamedTuple

import numpy as np

from .frame import DEFAULT_FRAME, LPFrame, on_distinct, parse_spec, smoothstep
from .grid import (TWO_PI, GridFunction, GridSpec, SpectralFunction, check_budget, fft_inverse,
                   lattice_phase, read_grid_file, read_pdgf, row_chunks)


# ---------------------------------------------------------------------------
# multi-indices and finite-difference stencils


def as_multiindex(alpha, n: int) -> tuple[int, ...]:
    if np.isscalar(alpha):
        alpha = (int(alpha),) + (0,) * (n - 1)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for n={n}")
    return alpha


def _difference_stencil(alpha: tuple[int, ...]) -> list[tuple[np.ndarray, float]]:
    """Iterated unit-step central differences: offsets and weights for D^alpha."""
    n = len(alpha)
    terms: list[tuple[np.ndarray, float]] = [(np.zeros(n), 1.0)]
    for axis, order in enumerate(alpha):
        for _ in range(order):
            nxt: dict[tuple, float] = {}
            for off, w in terms:
                for sgn in (+1.0, -1.0):
                    o = off.copy()
                    o[axis] += sgn
                    key = tuple(o)
                    nxt[key] = nxt.get(key, 0.0) + w * sgn / 2.0
            terms = [(np.asarray(k), w) for k, w in nxt.items()]
    return terms


def nyquist_mask(spec: GridSpec) -> np.ndarray:
    """1 except on rows with a frequency component equal to -N/2."""
    mesh = spec.freq_mesh()
    mask = np.ones(spec.shape)
    for m in mesh:
        mask[m == -spec.N // 2] = 0.0
    return mask


# ---------------------------------------------------------------------------
# base class


class ShiftTerm(NamedTuple):
    """Term j = weight * e^{i xi.x} g(eta), xi folded into [-N/2, N/2)^n;
    g holds the values on the flat eta-lattice indices idx, zero elsewhere."""

    j: int
    weight: complex
    xi: tuple[int, ...]
    idx: np.ndarray
    g: np.ndarray

    def g_table(self, spec: GridSpec) -> np.ndarray:
        out = np.zeros(spec.npoints, dtype=np.result_type(self.g))
        out[self.idx] = self.g
        return out.reshape(spec.shape)


class Symbol:
    """Base symbol: order d, optional twisted-diagonal flag, lattice table.

    Shift terms, where a subclass gives them, derive the separable terms
    (m_j = weight_j e^{i xi_j.x}, an exact lattice phase), the spectral terms
    (a delta of weight_j at xi_j) and the table.  A symbol with
    neither shift nor separable terms (a table, or eval alone) is still a
    sum of shift terms, one per nonzero xi-row of a_hat: row_terms gives
    them, and operators.plan and the split run them on the shift route.

    rows() is the one source of dense values, read by table(), the reference
    operators.apply and _kernel_rows.  It takes them from the first source the
    symbol has: separable terms (a shift symbol's included), then eval on
    the lattice; TabulatedSymbol slices its stored table."""

    d: float = 0.0
    tdc_B: float | None = None

    def eval(self, x: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """a(x,eta) for x, eta arrays of shape (..., n); off-lattice eta allowed."""
        raise NotImplementedError(f"{type(self).__name__} has no continuum evaluator")

    @property
    def has_eval(self) -> bool:
        return type(self).eval is not Symbol.eval

    def shift_terms(self, spec: GridSpec) -> list[ShiftTerm] | None:
        """Terms with a(x,eta) = sum_j weight_j e^{i xi_j.x} g_j(eta); None
        when the x-spectrum is not one lattice delta per term."""
        return None

    def separable_terms(self, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Terms (m_j over the x-grid, g_j over the eta-lattice) if a(x,eta)
        = sum_j m_j(x) g_j(eta); None when no such structure is known."""
        shifts = self.shift_terms(spec)
        if shifts is None:
            return None
        k = np.moveaxis(np.indices(spec.shape), 0, -1)
        return [(t.weight * lattice_phase(spec, k, t.xi), t.g_table(spec)) for t in shifts]

    def spectral_terms(self, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Terms (mhat_j over the shifted xi-lattice, g_j over eta) with
        a_hat(xi,eta) = sum_j mhat_j(xi) g_j(eta), the x-spectra of the
        separable terms; exact where possible.  A shift term's x-spectrum is
        its exact delta of weight_j at xi_j, with no FFT."""
        shifts = self.shift_terms(spec)
        if shifts is not None:
            out = []
            for t in shifts:
                mhat = np.zeros(spec.shape, dtype=complex)
                mhat[tuple(k + spec.N // 2 for k in t.xi)] = t.weight
                out.append((mhat, t.g_table(spec)))
            return out
        terms = self.separable_terms(spec)
        if terms is None:
            return None
        return [
            (np.fft.fftshift(np.fft.fftn(m)) / spec.npoints, g) for m, g in terms
        ]

    def rows(self, spec: GridSpec) -> Callable[[np.ndarray | slice], np.ndarray]:
        """k -> a(x_k, eta) over the flat eta-lattice, shape (len(k), N^n), for
        flat grid indices k (an index array or a slice); the terms are
        fetched once, here.  A shift symbol's rows are its separable terms'."""
        terms = self.separable_terms(spec)
        if terms is not None:
            flat = [(m.reshape(-1), g.reshape(-1)) for m, g in terms]
            flat_k = np.arange(spec.npoints)

            def separable_rows(k):
                out = np.zeros((len(flat_k[k]), spec.npoints), dtype=complex)
                for m, g in flat:
                    out += np.multiply.outer(m[k], g)
                return out

            return separable_rows
        if self.has_eval:
            xs = np.stack(spec.coord_mesh(), axis=-1).reshape(-1, 1, spec.n)
            es = np.stack(spec.freq_mesh(), axis=-1).reshape(1, -1, spec.n).astype(float)
            return lambda k: self.eval(*np.broadcast_arrays(xs[k], es))
        raise NotImplementedError(f"{type(self).__name__} cannot be tabulated")

    def table(self, spec: GridSpec) -> np.ndarray:
        """Dense table, shape spec.shape + spec.shape (x-axes then eta-axes)."""
        check_budget("symbol table", spec)
        return self.rows(spec)(slice(None)).reshape(spec.shape + spec.shape)


def partial_ft(table: np.ndarray, spec: GridSpec) -> np.ndarray:
    """a_hat(xi,eta): coefficient transform over the x-axes, shifted layout."""
    axes = tuple(range(spec.n))
    out = np.fft.fftn(table, axes=axes) / spec.npoints
    return np.fft.fftshift(out, axes=axes)


def partial_ift(ahat: np.ndarray, spec: GridSpec) -> np.ndarray:
    axes = tuple(range(spec.n))
    return np.fft.ifftn(np.fft.ifftshift(ahat, axes=axes), axes=axes) * spec.npoints


def _resolve_spec(a: Symbol, spec: GridSpec | None) -> GridSpec:
    if spec is not None:
        return spec
    owned = getattr(a, "spec", None)
    if owned is None:
        raise ValueError(f"{type(a).__name__} carries no grid; pass spec explicitly")
    return owned


@dataclass
class TabulatedSymbol(Symbol):
    """Symbol known only through its lattice table.

    ahat optionally carries the exact partial FT the table was built from,
    so spectral hard zeros survive chained operations without FFT noise.
    """

    spec: GridSpec
    _table: np.ndarray
    d: float = 0.0
    tdc_B: float | None = None
    ahat: np.ndarray | None = None

    def table(self, spec: GridSpec) -> np.ndarray:
        if spec != self.spec:
            raise ValueError(f"tabulated on {self.spec}, requested {spec}")
        return self._table

    def rows(self, spec: GridSpec) -> Callable[[np.ndarray | slice], np.ndarray]:
        flat = self.table(spec).reshape(spec.npoints, spec.npoints)
        return lambda k: flat[k]


def _shift_rows(shifts: list[ShiftTerm], spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """a_hat's nonzero xi-rows: the distinct xi_j, shape (R, n), and row r =
    sum of weight_j g_j over the terms at xi_r, shape (R,) + spec.shape."""
    at = {xi: r for r, xi in enumerate(dict.fromkeys(t.xi for t in shifts))}
    rows = np.zeros((len(at), spec.npoints), dtype=complex)
    for t in shifts:
        rows[at[t.xi], t.idx] += t.weight * t.g
    return np.array(list(at), dtype=np.int64).reshape(-1, spec.n), rows.reshape((-1,) + spec.shape)


def _ahat_rows(a: Symbol, spec: GridSpec, what: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """a_hat in a's own form, (xis, rows, dense): a shift symbol's _shift_rows,
    or (dense) every lattice xi in flat order and a view of symbol_partial_ft
    as N^n rows, after the budget check that names `what`.  A shift
    symbol's check counts its R rows with the radius mesh every caller
    lays over them (_sum_radius_mesh): 16 + 8 bytes an entry."""
    shifts = a.shift_terms(spec)
    if shifts is not None:
        check_budget(what, spec, rows=len({t.xi for t in shifts}), entry_bytes=24)
        return *_shift_rows(shifts, spec), False
    check_budget(what, spec)
    xis = np.stack(np.unravel_index(np.arange(spec.npoints), spec.shape), axis=-1) - spec.N // 2
    return xis, symbol_partial_ft(a, spec).reshape((spec.npoints,) + spec.shape), True


def symbol_partial_ft(a: Symbol, spec: GridSpec) -> np.ndarray:
    """a_hat(xi,eta), through the most exact route the symbol offers:
    a construction-time spectral table, exact per-term x-spectra (a shift
    term's is one delta), or an FFT of the dense table as the last resort."""
    cached = getattr(a, "ahat", None)
    if cached is not None and getattr(a, "spec", None) == spec:
        return cached
    check_budget("spectral table", spec)  # before any term is made
    terms = a.spectral_terms(spec)
    if terms is None:
        return partial_ft(a.table(spec), spec)
    out = np.zeros(spec.shape + spec.shape, dtype=complex)
    for mhat, g in terms:
        out += np.multiply.outer(mhat, g)
    return out


def row_terms(a: Symbol, spec: GridSpec) -> list[ShiftTerm]:
    """Shift terms for a symbol without them (a shift symbol's callers pass its
    own): one per nonzero xi-row of a_hat (symbol_partial_ft), since on the
    lattice a(x,eta) = sum_xi e^{i xi.x} a_hat(xi,eta) exactly.  The term at the
    flat row r has weight 1, idx the row's nonzero eta and g their values, and
    the terms come in order of |xi_r|, so a radial cut keeps one run of them.
    The budget is checked before a_hat is built."""
    xis, ahat, _ = _ahat_rows(a, spec, "spectral rows")
    ahat = ahat.reshape(spec.npoints, spec.npoints)
    order = np.argsort(spec.freq_radius().ravel(), kind="stable")
    pos, idx = np.nonzero((ahat != 0)[order])  # positions in order, eta indices
    ends = np.cumsum(np.bincount(pos, minlength=spec.npoints))[:-1]
    return [ShiftTerm(int(r), 1.0, tuple(xis[r].tolist()), i, g) for r, i, g in
            zip(order, np.split(idx, ends), np.split(ahat[order[pos], idx], ends)) if i.size]


@dataclass
class ShiftSymbol(Symbol):
    """a(x,eta) = sum_j weight_j e^{i xi_j.x} g_j(eta) with tabulated terms."""

    spec: GridSpec
    terms: list[ShiftTerm]
    d: float = 0.0
    tdc_B: float | None = None

    def shift_terms(self, spec: GridSpec) -> list[ShiftTerm]:
        if spec != self.spec:
            raise ValueError(f"realized on {self.spec}, requested {spec}")
        return self.terms


@dataclass
class SeparableSymbol(Symbol):
    """a(x,eta) = sum_j m_j(x) g_j(eta) with tabulated factors; mhats, if
    given, carries the exact x-spectra of the m_j as TabulatedSymbol.ahat
    carries a_hat, each read as x_mult * mhat_j if x_mult is given."""

    spec: GridSpec
    terms: list[tuple[np.ndarray, np.ndarray]]
    d: float = 0.0
    tdc_B: float | None = None
    mhats: list[np.ndarray] | None = None
    x_mult: np.ndarray | None = None

    def separable_terms(self, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
        if spec != self.spec:
            raise ValueError(f"realized on {self.spec}, requested {spec}")
        return self.terms

    def spectral_terms(self, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
        if self.mhats is None:
            return super().spectral_terms(spec)
        return [(mhat if self.x_mult is None else self.x_mult * mhat, g)
                for mhat, (_, g) in zip(self.mhats, self.separable_terms(spec))]


class ConstantSymbol(Symbol):
    """a(x,eta) = c exactly (no Nyquist masking: the identity stays exact); one
    shift term, xi = 0 with weight c and g = 1, so a plan scales coefficients."""

    def __init__(self, c: complex = 1.0):
        self.c = complex(c)
        if not cmath.isfinite(self.c):
            raise ValueError(f"expected a finite c, got {c!r}")
        self.tdc_B = 1.0  # x-independent symbols satisfy the condition trivially

    def shift_terms(self, spec: GridSpec) -> list[ShiftTerm]:
        return [ShiftTerm(0, self.c, (0,) * spec.n, np.arange(spec.npoints), np.ones(spec.npoints))]


# ---------------------------------------------------------------------------
# radial bump


@dataclass(frozen=True)
class RadialBump:
    """Smooth profile: 0 off [a0,a1], 1 on [b0,b1], optional zero of order
    zero_order at zero_at (profile ~ (|t-zero_at|/zero_width)^r nearby)."""

    a0: float = 0.75
    a1: float = 1.25
    b0: float = 0.9
    b1: float = 1.1
    zero_order: int = 0
    zero_at: float = 1.0
    zero_width: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.a0 < self.b0 <= self.b1 < self.a1):
            raise ValueError("need 0 < a0 < b0 <= b1 < a1")
        if self.zero_order < 0:
            raise ValueError("zero order must be >= 0")
        if self.zero_order > 0 and not (self.a0 < self.zero_at < self.a1):
            raise ValueError("marked zero must lie inside the support")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        up = smoothstep((t - self.a0) / (self.b0 - self.a0))
        down = smoothstep((self.a1 - t) / (self.a1 - self.b1))
        out = up * down
        if self.zero_order > 0:
            out = out * np.minimum(1.0, np.abs(t - self.zero_at) / self.zero_width) ** self.zero_order
        return out

    @property
    def overlap_count(self) -> int:
        """Max dyadic scales active at one radius: ceil(log2(a1/a0)) + 1."""
        return int(np.ceil(np.log2(self.a1 / self.a0))) + 1


DEFAULT_BUMP = RadialBump()  # support [3/4,5/4], plateau [9/10,11/10]


# ---------------------------------------------------------------------------
# Ching symbol


class ChingSymbol(Symbol):
    """a(x,eta) = sum_{j=0}^{j_max} 2^{jd} e^{-i 2^j theta.x} A(2^{-j}|eta|).

    On the lattice, level j only moves frequency mass by -2^j theta (mod N):
    a(x,D)u = F^{-1}[sum_j 2^{jd} shift_{-2^j theta}(A(2^{-j}|D|) u_hat)]
    exactly.  shift_terms gives each level once; the Symbol base class
    derives the separable and spectral terms and the table from it.

    theta is an integer lattice vector. When |theta| exceeds the bump's outer
    radius a1, every x-frequency -2^j theta clears the eta support by a fixed
    angle, which puts the symbol in the twisted-diagonal class with
    B = a1/(|theta| - a1); that flag is set automatically.
    """

    def __init__(self, d: float, theta, A: RadialBump = DEFAULT_BUMP, j_max: int = 8):
        theta = tuple(int(t) for t in np.atleast_1d(theta))
        if all(t == 0 for t in theta):
            raise ValueError("theta must be a nonzero lattice vector")
        if j_max < 0:
            raise ValueError("j_max must be >= 0")
        self.d = float(d)
        if not math.isfinite(self.d):
            raise ValueError(f"expected a finite d, got {d!r}")
        self.theta = theta
        self.A = A
        self.j_max = int(j_max)
        # the level weights 2^{jd}, made here so that a d whose weights overflow
        # or vanish (the level would drop out) fails at build
        try:
            self.weights = tuple(2.0 ** (j * self.d) for j in range(self.j_max + 1))
        except OverflowError:
            raise ValueError(f"d = {d!r} gives a level weight 2^(jd), j <= {self.j_max}, "
                             "that is not finite") from None
        if 0.0 in self.weights:
            raise ValueError(f"d = {d!r} gives a level weight 2^(jd), j <= {self.j_max}, that is 0")
        tnorm = float(np.linalg.norm(theta))
        self.tdc_B = A.a1 / (tnorm - A.a1) if tnorm > A.a1 else None

    @property
    def n(self) -> int:
        return len(self.theta)

    def validate_for(self, spec: GridSpec) -> None:
        if spec.n != self.n:
            raise ValueError(f"theta has {self.n} components but grid has n={spec.n}")
        reach = 2.0**self.j_max * max(self.A.a1, float(np.linalg.norm(self.theta)))
        if reach > spec.N / 2:
            raise ValueError(
                f"truncation 2^{self.j_max} overflows Nyquist: reach {reach} > {spec.N // 2}"
            )

    def eval(self, x, eta):
        x = np.asarray(x, dtype=float)
        eta = np.asarray(eta, dtype=float)
        phase = sum(x[..., i] * self.theta[i] for i in range(self.n))
        enorm = np.linalg.norm(eta, axis=-1)
        out = np.zeros(np.broadcast_shapes(phase.shape, enorm.shape), dtype=complex)
        for j in range(self.j_max + 1):
            amp = self.A(enorm * 2.0**-j)
            if np.all(amp == 0.0):
                continue
            out = out + (self.weights[j] * amp) * np.exp(-1j * 2.0**j * phase)
        return out

    def shift_terms(self, spec: GridSpec) -> list[ShiftTerm]:
        """Level j: weight 2^{jd}, xi = -2^j theta folded mod N, and
        g_j = A(2^{-j}|eta|) * nyquist_mask, evaluated on the open annulus
        a0 2^j < |eta| < a1 2^j outside which A vanishes; levels with g_j = 0
        are dropped."""
        self.validate_for(spec)
        rad = spec.freq_radius().ravel()
        nyq = nyquist_mask(spec).ravel()
        half = spec.N // 2
        levels = [np.flatnonzero((rad > self.A.a0 * 2.0**j) & (rad < self.A.a1 * 2.0**j))
                  for j in range(self.j_max + 1)]
        # one quadrature for all levels: the 2^-j|eta| repeat across levels
        bumps = on_distinct(self.A, np.concatenate([rad[i] * 2**-j for j, i in enumerate(levels)]))
        bumps = np.split(bumps, np.cumsum([i.size for i in levels])[:-1])
        terms = []
        for j, (idx, bump) in enumerate(zip(levels, bumps)):
            g = bump * nyq[idx]
            if not np.any(g):
                continue
            xi = tuple((-(2**j) * t + half) % spec.N - half for t in self.theta)
            terms.append(ShiftTerm(j, self.weights[j], xi, idx, g))
        return terms

    def apply_modes(self, modes: dict) -> dict:
        """a(x,D) on a 1-d sum of modes {eta: c}, eta a Python int: level j
        moves eta by -2^j theta with weight 2^{jd} A(2^{-j}|eta|), summed level
        by level as shift_terms' route sums, less its lattice fold."""
        if self.n != 1:
            raise ValueError("mode sums are 1-d")
        etas = list(modes)
        g = self.A(2.0 ** -np.arange(self.j_max + 1)[:, None] * np.abs(np.asarray(etas, float)))
        out: dict = {}
        for j, k in zip(*np.nonzero(g)):
            dst = etas[k] - 2 ** int(j) * self.theta[0]
            out[dst] = out.get(dst, 0.0) + self.weights[j] * float(g[j, k]) * modes[etas[k]]
        return out


def ching_symbol(
    d: float,
    theta,
    A: RadialBump = DEFAULT_BUMP,
    j_max: int = 8,
    spec: GridSpec | None = None,
) -> ChingSymbol:
    """Ching series symbol; validates the Nyquist truncation when spec given."""
    sym = ChingSymbol(d, theta, A, j_max)
    if spec is not None:
        sym.validate_for(spec)
    return sym


# ---------------------------------------------------------------------------
# elementary symbols


class ElementarySymbol(Symbol):
    """a(x,eta) = sum_j m_j(x) Phi_j(eta) with the frame's blocks."""

    def __init__(self, multipliers: list[GridFunction], frame: LPFrame, d: float = 0.0):
        if not multipliers:
            raise ValueError("need at least one multiplier")
        spec = multipliers[0].spec
        if any(m.spec != spec for m in multipliers):
            raise ValueError("all multipliers must share one grid")
        self.multipliers = list(multipliers)
        self.frame = frame
        self.spec = spec
        self.d = float(d)
        self.tdc_B = None

    def eval(self, x, eta):
        # x must sit on the multiplier grid; eta may be off-lattice
        x = np.asarray(x, dtype=float)
        eta = np.asarray(eta, dtype=float)
        idx = np.rint(x / self.spec.spacing).astype(int) % self.spec.N
        enorm = np.linalg.norm(eta, axis=-1)
        out = np.zeros(np.broadcast_shapes(idx.shape[:-1], enorm.shape), dtype=complex)
        for j, m in enumerate(self.multipliers):
            mv = m.values[tuple(idx[..., i] for i in range(self.spec.n))]
            out = out + mv * self.frame.block_radial(j, enorm)
        # the Nyquist rows are cut, as in separable_terms
        return np.where(np.any(eta == -(self.spec.N // 2), axis=-1), 0.0, out)

    def separable_terms(self, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
        if spec != self.spec:
            raise ValueError(f"realized on {self.spec}, requested {spec}")
        nyq = nyquist_mask(spec)
        blocks = self.frame.lattice_blocks(spec, len(self.multipliers) - 1)
        return [
            (m.values, blocks[j] * nyq) for j, m in enumerate(self.multipliers)
        ]


# ---------------------------------------------------------------------------
# Fourier multipliers on a symbol


def filter_symbol(a: Symbol, spec: GridSpec, x=None, eta=None) -> Symbol:
    """b with b_hat(xi,eta) = x(xi) a_hat(xi,eta) eta(eta), in a's own
    structure; x and eta are arrays over the shifted lattice, None is 1.  A
    shift term's weight takes x(xi_j), a separable term's m_j becomes
    F^{-1}[x mhat_j] (b keeps x and a's mhat_j), any other symbol's exact
    a_hat takes x; each g_j or a_hat takes eta.  Terms made exactly zero are
    dropped, and a g_j that eta leaves unchanged is shared, not copied.
    With neither multiplier, a is realized on spec once."""
    xs = None if x is None else np.asarray(x).reshape(spec.shape)
    es = None if eta is None else np.asarray(eta).reshape(spec.shape)
    keep = dict(d=a.d, tdc_B=a.tdc_B)
    shifts = a.shift_terms(spec)
    if shifts is not None:
        # x(D_x) e^{i xi_j.x} = x(xi_j) e^{i xi_j.x}: a scalar per term
        terms = []
        for t in shifts:
            w = t.weight if xs is None else t.weight * xs[tuple(k + spec.N // 2 for k in t.xi)]
            g = t.g if es is None else t.g * es.flat[t.idx]
            if w != 0.0 and np.any(g):
                terms.append(t._replace(weight=w, g=t.g if np.array_equal(g, t.g) else g))
        return ShiftSymbol(spec, terms, **keep)
    spectral = a.spectral_terms(spec)
    if spectral is not None:
        terms, mhats = [], []
        for (m, _), (mhat, g) in zip(a.separable_terms(spec), spectral):
            ge = g if es is None else g * es
            if np.any(ge) and np.any(xmhat := mhat if xs is None else xs * mhat):
                m = m if xs is None else fft_inverse(SpectralFunction(spec, xmhat)).values
                terms.append((m, g if np.array_equal(ge, g) else ge))
                mhats.append(mhat)
        return SeparableSymbol(spec, terms, mhats=mhats, x_mult=xs, **keep)
    ahat, ones = symbol_partial_ft(a, spec), (1,) * spec.n
    ahat = ahat if xs is None else ahat * xs.reshape(spec.shape + ones)
    ahat = ahat if es is None else ahat * es.reshape(ones + spec.shape)
    table = a.table(spec) if x is None and eta is None else partial_ift(ahat, spec)
    return TabulatedSymbol(spec, table, ahat=ahat, **keep)


# ---------------------------------------------------------------------------
# twisted-diagonal cutoff and localization


@dataclass(frozen=True)
class ChiCutoff:
    """chi(xi,eta) = theta1(|eta|) * theta2(|xi|/|eta|): vanishes for |eta|<=1
    and for |xi|>=|eta|, equals 1 on {|eta|>=2, 2|xi|<=|eta|}."""

    def from_radii(self, xi_norm, eta_norm) -> np.ndarray:
        xi_norm = np.asarray(xi_norm, dtype=float)
        eta_norm = np.asarray(eta_norm, dtype=float)
        t1 = smoothstep(eta_norm - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(eta_norm > 0.0, xi_norm / np.maximum(eta_norm, 1e-300), np.inf)
        t2 = smoothstep(2.0 * (1.0 - ratio))
        return t1 * t2

    def __call__(self, xi, eta) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return self.from_radii(np.linalg.norm(xi, axis=-1), np.linalg.norm(eta, axis=-1))


def build_chi() -> ChiCutoff:
    return ChiCutoff()


def _sum_radius_mesh(spec: GridSpec, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|xi+eta|, |eta|) over the rows xis (shape (R, n)) and the eta-lattice:
    shapes (R,) + spec.shape and spec.shape."""
    eta = [m.astype(float) for m in spec.freq_mesh()]
    s = [x.reshape(x.shape + (1,) * spec.n) + e for x, e in zip(xis.T.astype(float), eta)]
    if spec.n == 1:
        return np.abs(s[0]), np.abs(eta[0])
    return np.sqrt(s[0] ** 2 + s[1] ** 2), np.sqrt(eta[0] ** 2 + eta[1] ** 2)


def _localization(eps: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """chi(xi+eta, eps*eta) as a function of (|xi+eta|, |eta|)."""
    return lambda sum_rad, eta_rad: build_chi().from_radii(sum_rad, eps * eta_rad)


def _weighted(a: Symbol, spec: GridSpec, what: str, weight, **keep) -> Symbol:
    """b_hat(xi,eta) = a_hat(xi,eta) weight(|xi+eta|, |eta|) on a's rows, in a's
    form: a ShiftSymbol of the nonzero rows, or a TabulatedSymbol with b_hat."""
    xis, rows, dense = _ahat_rows(a, spec, what)
    rows = rows * weight(*_sum_radius_mesh(spec, xis))
    if dense:
        bhat = rows.reshape(spec.shape + spec.shape)
        return TabulatedSymbol(spec, partial_ift(bhat, spec), d=a.d, ahat=bhat, **keep)
    return ShiftSymbol(spec, [ShiftTerm(r, 1.0, tuple(xi.tolist()), i, h.flat[i]) for r, (xi, h)
                              in enumerate(zip(xis, rows)) if (i := np.flatnonzero(h)).size],
                       d=a.d, **keep)


def localize_symbol(a: Symbol, eps: float, spec: GridSpec | None = None) -> Symbol:
    """a_chi,eps with hat(a_chi,eps)(xi,eta) = a_hat(xi,eta) chi(xi+eta, eps*eta).

    The result, in a's form (_weighted), has its partial FT exactly zero where
    1+|xi+eta| > 2 eps |eta|; sigma_order_estimate localizes rows the same way.
    """
    spec = _resolve_spec(a, spec)
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    return _weighted(a, spec, "spectral table", _localization(eps))


def mask_twisted_diagonal(a: Symbol, B: float, spec: GridSpec | None = None) -> Symbol:
    """Force a_hat(xi,eta) = 0 where B(1+|xi+eta|) < |eta|, in a's form (_weighted)."""
    spec = _resolve_spec(a, spec)
    if B < 1.0:
        raise ValueError("B must be >= 1")
    return _weighted(a, spec, "twisted-diagonal mask", lambda s, e: B * (1.0 + s) >= e, tdc_B=B)


@dataclass(frozen=True)
class TdcReport:
    holds: bool
    violation_mass: float
    B: float
    tau: float


def check_twisted_diagonal(a: Symbol, B: float, spec: GridSpec | None = None) -> TdcReport:
    """Relative squared mass of a_hat's rows where B(|xi+eta|+1) < |eta|;
    the condition holds at a mass of at most tau = 1e-10."""
    tau = 1e-10
    spec = _resolve_spec(a, spec)
    xis, ahat, _ = _ahat_rows(a, spec, "spectral table")
    sum_rad, eta_rad = _sum_radius_mesh(spec, xis)
    forbidden = B * (sum_rad + 1.0) < eta_rad
    total = float(np.sum(np.abs(ahat) ** 2))
    if total == 0.0:
        return TdcReport(True, 0.0, B, tau)
    bad = float(np.sum(np.abs(ahat[forbidden]) ** 2))
    mass = bad / total
    return TdcReport(mass <= tau, mass, B, tau)


# ---------------------------------------------------------------------------
# twisted-diagonal order estimation


@dataclass(frozen=True)
class SigmaFit:
    """Least-squares fit of log(value) against log(eps).

    values[i] = sup over dyadic R and grid x of
    R^{|alpha|-d} (sum_{R<=|eta|<=2R} |D^alpha_eta a_chi,eps|^2 / R^n)^{1/2};
    shell_values[i][R] keeps the un-normalized annulus L2 sup for each shell.
    sigma_hat = slope - n/2 + |alpha|, or +inf when fewer than two values
    are positive (hard-zero localizations).
    """

    alpha: tuple[int, ...]
    eps: tuple[float, ...]
    values: tuple[float, ...]
    shell_values: tuple[dict, ...]
    slope: float | None
    sigma_hat: float
    fit_points: int


def _dyadic_shells(spec: GridSpec, alpha: tuple[int, ...]) -> list[tuple[int, np.ndarray]]:
    margin = max(2, sum(alpha))
    rad = spec.freq_radius()
    shells = []
    R = 1
    while 2 * R <= spec.N // 2 - margin:
        shells.append((R, (rad >= R) & (rad <= 2 * R)))
        R *= 2
    if not shells:
        raise ValueError(f"grid too small for any dyadic shell with margin {margin}")
    return shells


def _eta_difference(table: np.ndarray, alpha: tuple[int, ...], spec: GridSpec) -> np.ndarray:
    """D^alpha along the last spec.n axes (eta) by periodic rolls of the real and
    imaginary parts, 8 bytes an entry a copy: the complex sums bit for bit."""
    e_axes = tuple(range(table.ndim - spec.n, table.ndim))
    out = np.zeros_like(table)
    for off, w in _difference_stencil(alpha):
        shift = [-int(round(o)) for o in off]
        for acc, part in ((out.real, table.real), (out.imag, table.imag)):
            acc += np.roll(part, shift, axis=e_axes) * w  # the product reuses the copy
    return out


def _eta_power(form, alpha: tuple[int, ...], masks, spec: GridSpec) -> list[np.ndarray]:
    """sum_{eta in S} |D^alpha_eta a(x,eta)|^2 at every grid x, per eta set S in
    `masks`, from a's table (squared moduli summed) or a_hat rows (xis, rows)
    h_r.  As D^alpha a(x,eta) = sum_r e^{i x.xi_r} D^alpha h_r(eta), rows take
        sum_{eta in S} |D^alpha a(x,eta)|^2 = sum_{r,s} e^{i x.(xi_r-xi_s)} G[r,s]
    with G = H_S H_S^* the Gram matrix of the differenced rows on S, read
    through exact lattice phases, negatives clipped to 0: no N^n x N^n array."""
    if isinstance(form, np.ndarray):
        diff = np.abs(_eta_difference(form, alpha, spec) if sum(alpha) else form) ** 2
        return [np.sum(diff * mask, axis=tuple(range(spec.n, 2 * spec.n))) for mask in masks]
    xis, rows = form
    diff = _eta_difference(rows, alpha, spec) if sum(alpha) else rows
    phase = lattice_phase(spec, np.moveaxis(np.indices(spec.shape), 0, -1), xis)  # e^{i x.xi_r}
    # einsum, not @: no threaded BLAS on pool workers
    grams = [np.einsum("rk,sk->rs", h, h.conj()) for h in (diff[:, m] for m in masks)]
    return [np.maximum(np.einsum("...r,rs,...s->...", phase, g, phase.conj()).real, 0.0)
            for g in grams]


def sigma_order_estimate(
    a: Symbol,
    alphas,
    eps_grid=(0.5, 0.25, 0.125, 0.0625),
    spec: GridSpec | None = None,
) -> list[SigmaFit]:
    """One SigmaFit per multi-index in `alphas`, in order: the exponent of
    the localized-symbol decay in eps, per shell-normalized annulus L2
    sups.  Shells within max(2,|alpha|) cells of the Nyquist boundary are
    dropped.  Each eps is one pool task that localizes once for every alpha.

    a's rows (_ahat_rows) are localized per eps and summed over each shell
    by _eta_power: a shift symbol's R rows by the Gram identity; any other
    symbol's (the dense route, the oracle) as the localized table.
    """
    spec = _resolve_spec(a, spec)
    alphas = [as_multiindex(alpha, spec.n) for alpha in alphas]
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ValueError("eps values must lie in (0,1)")
    shell_sets = [_dyadic_shells(spec, alpha) for alpha in alphas]

    from ._threads import pmap

    xis, ahat, dense = _ahat_rows(a, spec, "spectral table")
    work = spec.npoints**2 if dense else spec.npoints * len(xis) ** 2  # per eps: table or Gram

    def one_eps(eps: float) -> list[tuple[float, dict]]:
        rows = ahat * _localization(eps)(*_sum_radius_mesh(spec, xis))
        form = partial_ift(rows.reshape(spec.shape + spec.shape), spec) if dense else (xis, rows)
        out = []
        for alpha, shells in zip(alphas, shell_sets):
            sums = _eta_power(form, alpha, [mask for _, mask in shells], spec)
            per_shell = {R: float(np.sqrt(s.max())) for (R, _), s in zip(shells, sums)}
            scale = sum(alpha) - a.d - spec.n / 2.0
            out.append((max(float(R) ** scale * v for R, v in per_shell.items()), per_shell))
        return out

    results = pmap(one_eps, eps_grid, points=work)  # results[i][k]: eps_grid[i], alphas[k]
    return [_sigma_fit(al, eps_grid, [r[k] for r in results], spec) for k, al in enumerate(alphas)]


def _sigma_fit(alpha, eps_grid, results, spec: GridSpec) -> SigmaFit:
    values = tuple(r[0] for r in results)
    shell_values = tuple(r[1] for r in results)
    pts = [(e, v) for e, v in zip(eps_grid, values) if v > 0.0]
    if len(pts) < 2:
        return SigmaFit(alpha, eps_grid, values, shell_values, None, float("inf"), len(pts))
    le = np.log([p[0] for p in pts])
    lv = np.log([p[1] for p in pts])
    slope = float(np.polyfit(le, lv, 1)[0])
    sigma_hat = slope - spec.n / 2.0 + sum(alpha)
    return SigmaFit(alpha, eps_grid, values, shell_values, slope, sigma_hat, len(pts))


# ---------------------------------------------------------------------------
# kernel rows


def _kernel_rows(a: Symbol, spec: GridSpec, row_bytes: int,
                 chi: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """(rs, k) per chunk rs of flat x-rows (grid.row_chunks, row_bytes a row):
    k[i, z] = (2pi)^{-n} sum_eta a(x,eta) chi(eta) e^{i z.eta} at the flat row
    x = rs.start + i and every flat offset z; chi is over the shifted
    eta-lattice, None is 1.  Separable terms (every shift symbol's included)
    give k(x,.) = sum_j m_j(x) k_j: one inverse FFT per term that chi keeps,
    one product per chunk.  Any other symbol's rows (Symbol.rows) times chi are
    transformed over eta in place.  Each k is a view of one workspace, 16
    bytes an entry, that the next chunk overwrites."""
    chiv = np.ones(spec.shape) if chi is None else chi
    e_axes = tuple(range(-spec.n, 0))
    h = spec.N // 2  # ifftshift moves each eta axis's index h to 0: the halves swap
    swaps = [tuple(zip(*axes)) for axes in itertools.product(
        ((slice(0, h), slice(h, None)), (slice(h, None), slice(0, h))), repeat=spec.n)]

    def transform(g: np.ndarray, out: np.ndarray) -> None:
        # g chi in ifftshift's order, then transformed and scaled in place
        for dst, src in swaps:
            np.multiply(g[(..., *src)], chiv[src], out=out[(..., *dst)])
        np.fft.ifftn(out, axes=e_axes, out=out)
        out *= spec.npoints / TWO_PI**spec.n

    terms = a.separable_terms(spec)
    if terms is not None:
        kept = [(m, g) for m, g in terms if np.any(g * chiv)]
        mx = np.zeros((spec.npoints, len(kept)), dtype=complex)
        ky = np.zeros((len(kept),) + spec.shape, dtype=complex)
        for i, (m, g) in enumerate(kept):
            mx[:, i] = m.reshape(-1)
            transform(g, ky[i])
        ky = ky.reshape(len(kept), spec.npoints)
    else:
        rows = a.rows(spec)
    chunks = list(row_chunks(spec.npoints, row_bytes))
    work = np.empty((chunks[0].stop, spec.npoints), dtype=complex)
    for rs in chunks:
        k = work[: rs.stop - rs.start]
        if terms is not None:
            np.matmul(mx[rs], ky, out=k)
        else:
            transform(rows(rs).reshape((-1,) + spec.shape), k.reshape((-1,) + spec.shape))
        yield rs, k


# ---------------------------------------------------------------------------
# binary table format


_PDSY_HEADER = struct.Struct("<4sIId")
_PDSY_MAGIC = b"PDSY"


def write_pdsy(a: Symbol, spec: GridSpec, path) -> None:
    tab = np.ascontiguousarray(a.table(spec), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_PDSY_HEADER.pack(_PDSY_MAGIC, spec.n, spec.N, float(a.d)))
        fh.write(tab.tobytes())


def read_pdsy(path) -> TabulatedSymbol:
    (d,), spec, table = read_grid_file(path, _PDSY_HEADER, _PDSY_MAGIC, table=True)
    return TabulatedSymbol(spec, table, d=float(d))


# ---------------------------------------------------------------------------
# constructors used by the CLI and experiment corpora


def random_elementary(
    spec: GridSpec,
    frame: LPFrame,
    J: int,
    d: float = 0.0,
    seed: int = 0,
    spread: float = 1.0,
) -> ElementarySymbol:
    """Random multiplier family with spectrum of m_j inside |xi| <= spread 2^j,
    sup-normalized then scaled by 2^{jd}: the discrete model of order-d
    type 1,1 growth."""
    from .grid import lp_norm, random_band_limited

    rng = np.random.default_rng(seed)
    mults = []
    for j in range(J + 1):
        radius = min(spread * 2.0**j, spec.N / 2 - 1)
        m = random_band_limited(spec, radius, rng)
        scale = 2.0 ** (j * d) / max(lp_norm(m, np.inf), 1e-300)
        mults.append(GridFunction(spec, m.values * scale))
    return ElementarySymbol(mults, frame, d=d)


def _parse_theta(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "e" not in text:
        return (int(text),)
    parts = text.replace("-", "+-").split("+")
    vec = [0, 0]
    for p in parts:
        if not p:
            continue
        coeff, _, axis = p.partition("e")
        if axis not in ("1", "2"):
            raise ValueError(f"bad theta component {p!r}")
        c = {"": 1, "-": -1}.get(coeff, None)
        vec[int(axis) - 1] += int(coeff) if c is None else c
    return tuple(vec)


def ching_for_grid(
    spec: GridSpec, d: float = 0.0, theta=1, A: RadialBump = DEFAULT_BUMP
) -> ChingSymbol:
    """Lacunary-series symbol truncated at the deepest level the grid holds."""
    tnorm = float(np.linalg.norm(np.atleast_1d(theta)))
    cap = (spec.N / 2) / max(A.a1, tnorm)
    if cap < 1.0:
        raise ValueError(f"grid N={spec.N} cannot hold even the j=0 term")
    return ching_symbol(d, theta, A=A, j_max=int(math.floor(math.log2(cap) + 1e-12)), spec=spec)


def _const(spec: GridSpec, frame: LPFrame, *, c: complex = 1.0) -> ConstantSymbol:
    return ConstantSymbol(c)


def _ching(
    spec: GridSpec, frame: LPFrame, *, d: float = 0.0,
    theta: Annotated[tuple[int, ...], _parse_theta] = (1,), jmax: int | Literal["auto"] = 8,
    a0: float = DEFAULT_BUMP.a0, a1: float = DEFAULT_BUMP.a1,
    b0: float = DEFAULT_BUMP.b0, b1: float = DEFAULT_BUMP.b1,
    zr: int = DEFAULT_BUMP.zero_order, zat: float = DEFAULT_BUMP.zero_at,
    zw: float = DEFAULT_BUMP.zero_width,
) -> ChingSymbol:
    """jmax=auto: the deepest level the grid holds; zr, zat, zw: the bump's zero."""
    A = RadialBump(a0, a1, b0, b1, zero_order=zr, zero_at=zat, zero_width=zw)
    if jmax == "auto":
        return ching_for_grid(spec, d, theta, A)
    return ching_symbol(d, theta, A=A, j_max=jmax, spec=spec)


def _elementary(
    spec: GridSpec, frame: LPFrame, *, file: str | None = None, J: int | None = None,
    d: float | None = None, seed: int | None = None, spread: float | None = None,
) -> ElementarySymbol:
    """random_elementary (J defaults to 6), or the multipliers a manifest
    file lists; a file takes none of the generator's keys."""
    given = {k: v for k, v in dict(J=J, d=d, seed=seed, spread=spread).items() if v is not None}
    if file is None:
        return random_elementary(spec, frame, **{"J": 6, **given})
    if given:
        raise ValueError(f"elementary file= takes no {', '.join(given)}")
    manifest = json.loads(Path(file).read_text())
    paths = manifest.get("multipliers") if isinstance(manifest, dict) else None
    if not isinstance(paths, list):
        raise ValueError(f"{file}: manifest needs a 'multipliers' list")
    mults = [read_pdgf(Path(file).parent / p) for p in paths]
    return ElementarySymbol(mults, frame, d=float(manifest.get("d", 0.0)))


def _table(spec: GridSpec, frame: LPFrame, *, file: str) -> TabulatedSymbol:
    sym = read_pdsy(file)
    if sym.spec != spec:
        raise ValueError(f"{file}: table is on {sym.spec}, expected {spec}")
    return sym


SYMBOL_KINDS = {"const": _const, "ching": _ching, "elementary": _elementary, "table": _table}
"""Symbol spec kinds; each builder takes (grid, frame)."""


def parse_symbol_spec(text: str, spec: GridSpec) -> Symbol:
    """Build a symbol from a CLI string.

    Forms: ching:d=0,theta=+1,jmax=8[,a0=..,a1=..,b0=..,b1=..,zr=..,zat=..,zw=..]
           (jmax=auto: the deepest truncation the grid holds)
           elementary:seed=0,J=6[,d=0][,spread=1]
           elementary:file=manifest.json   (keys: d, multipliers=[pdgf paths])
           table:file=sym.pdsy
           const[:c=1]
    """
    return symbol_factory(text, DEFAULT_FRAME)(spec)


def symbol_factory(text: str, frame: LPFrame) -> Callable[[GridSpec], Symbol]:
    """Grid-adaptive symbol builder for a spec string, parsed once: ching
    with jmax=auto picks the deepest truncation each grid holds."""
    build = parse_spec(text, SYMBOL_KINDS, "symbol")
    return lambda spec: build(spec, frame)
