"""Besov and Lizorkin-Triebel quasi-norms, the check of their scale
embeddings (embedding_report: the B-F sandwich, an exact inequality that a
selftest gate runs, with the Sobolev and Hoelder constants) and the dyadic
summation lemma.

space_norms() is the one entry point for B/F quasi-norms.  It serves every
quasi-norm asked of one u from one pass over u's coefficients gathered on
each block's support (lp_block_coeffs; a forward FFT unless u comes as
coefficients).  A B case with p = 2 reads ||Phi_j(D)u||_2 from them by
Parseval; a pass whose cases are all of that kind runs no FFT.  Every other
case reads the moduli |Phi_j(D)u|: an inverse FFT for each block holding
two modes or more.  A block that misses the spectrum gives 0 (B takes 0.0,
F adds nothing, bit for bit), one holding a single mode c' (as each block
of a lacunary series does) the constant |c'|, passed as one element.  Each
modulus gives each other B case its ||Phi_j(D)u||_p and joins each F
case's running sum of (2^{sj}|Phi_j(D)u|)^q in block order (bit-identical
to summing the stack), so memory is O(N^n).  A running sum is one element
until its first block of two modes or more, so a pass over a lacunary
series costs O(blocks) until its final norms; a weight 2^{sj} of 1.0 and a
power q = 1 are skipped, as exact no-ops.

A pass allocates its grid-sized arrays once, not per block: a complex
workspace that each live block's coefficients are written into, in FFT
order straight from its support, and transformed in place (grid.fft_inverse
with out=); a float workspace for the moduli; one float term array shared
by the F cases, made only if a weight or a power needs it; and each F
case's running sum.  So a live block costs one
inverse FFT and a few passes over arrays already mapped, plus temporaries
the size of its support, and no fresh grid array.  The workspaces are
released when the blocks run out, before the final norms.  Passes on
different functions may run at once on pool workers (the continuity table
runs one per input): each owns its workspaces, and they share only the
frame's block supports, which are built once per grid, at a cost of
O(each block's support) after one sort of the lattice radii."""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._threads import pmap
from .frame import DEFAULT_FRAME, LPFrame
from .grid import (
    TWO_PI,
    GridFunction,
    GridSpec,
    SpectralFunction,
    SupportCoeffs,
    abs_lp_norm,
    as_spectral,
    fft_inverse,
)

BESOV = "B"
TRIEBEL_LIZORKIN = "F"

_log = logging.getLogger("pdlab.spaces")


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (s, p, q) of a dyadic smoothness space, with the frame
    whose blocks realize the quasi-norm.

    scale "B": (sum_j 2^{sjq} ||Phi_j(D)u||_p^q)^{1/q}.
    scale "F": ||(sum_j 2^{sjq} |Phi_j(D)u(.)|^q)^{1/q}||_p, p < inf only.
    """

    s: float
    p: float
    q: float
    scale: str = BESOV
    frame: LPFrame = DEFAULT_FRAME

    def __post_init__(self) -> None:
        if self.scale not in (BESOV, TRIEBEL_LIZORKIN):
            raise ValueError(f"scale must be 'B' or 'F', got {self.scale!r}")
        if not self.p > 0:
            raise ValueError(f"integral exponent p must be positive, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"sum exponent q must be positive, got {self.q}")
        if self.scale == TRIEBEL_LIZORKIN and math.isinf(self.p):
            raise ValueError("p = inf is out of scope on the 'F' scale")


def _space(scale: str, frame: LPFrame, *, s: float, p: float, q: float) -> SpaceParams:
    return SpaceParams(s, p, q, scale, frame)


SPACE_KINDS = {scale: functools.partial(_space, scale) for scale in (BESOV, TRIEBEL_LIZORKIN)}
"""Space spec kinds; each builder takes the frame."""


def format_space(sp: SpaceParams) -> str:
    return f"{sp.scale}:s={sp.s:g},p={sp.p:g},q={sp.q:g}"


def lp_block_coeffs(
    u: GridFunction | SpectralFunction, frame: LPFrame, j_max: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(flat indices of Phi_j's support, Phi_j c there) for j = 0..j_max
    (default: the closing shell), one block at a time, c being u's
    coefficients.  Raises if j_max is too small for the blocks to sum to 1."""
    spec = u.spec
    sat = frame.j_saturation(spec)
    if j_max is None:
        j_max = sat
    elif j_max < sat:
        raise ValueError(
            f"j_max={j_max} insufficient: partition closes only from j_max={sat}"
        )
    c = as_spectral(u).coeffs.reshape(-1)
    supports = frame.block_supports(spec, j_max)
    _log.debug(
        "block sum truncated at shell j_max=%d (Nyquist radius %.6g)",
        len(supports) - 1, spec.nyquist_radius,
    )
    return ((idx, c[idx] * vals) for idx, vals in supports)


def lp_block_moduli(u: GridFunction | SpectralFunction, frame: LPFrame, j_max: int | None = None):
    """|Phi_j(D)u| on the grid, j = 0..j_max, one at a time, each its own
    array (_block_pass's moduli, copied out of its workspace or spread
    over the grid)."""
    spec = u.spec
    return (a if a is None else np.full(spec.shape, a[0]) if a.size == 1 else a.copy()
            for a in _block_pass(lp_block_coeffs(u, frame, j_max), spec, None, True))


def _block_pass(blocks, spec: GridSpec, l2: list | None, moduli: bool) -> Iterator:
    """Per lp_block_coeffs pair: append ((2pi)^n sum |Phi_j c|^2)^{1/2} (Parseval)
    to l2 if given, then yield None if not `moduli` (no FFT) or the block
    holds no mode, the one-element array [|c'|] if it holds one mode c',
    else |inverse FFT| in the pass's float workspace, which the next block
    overwrites.  The inverse FFTs share one complex workspace; both go
    when the pass ends."""
    vals = mod = None
    for idx, b in blocks:
        if l2 is not None:
            l2.append(float(np.sqrt(TWO_PI**spec.n * np.sum(np.abs(b) ** 2))))
        live = np.count_nonzero(b) if moduli else 0
        if live <= 1:
            yield np.abs(b).max(keepdims=True) if live else None
            continue
        if vals is None:
            vals, mod = np.empty(spec.shape, dtype=complex), np.empty(spec.shape)
        fft_inverse(SupportCoeffs(spec, idx, b), out=vals)
        yield np.abs(vals, out=mod)


def _shell_weights(s: float, count: int) -> np.ndarray:
    return 2.0 ** (s * np.arange(count, dtype=float))


def _block_norms(
    spec: GridSpec, moduli: Iterable[np.ndarray | None], count: int, spaces: Sequence[SpaceParams],
    l2: Sequence[float] | None = None,
) -> list[float]:
    """Each case's quasi-norm over `count` block moduli |Phi_j(D)u|, read once
    in order and shared by every case: a grid array, a one-element array
    standing for that constant over the grid, or None for a block of zeros.
    Each F case accumulates (2^{sj} |Phi_j(D)u|)^q in place, through one
    float term array per shape; its running sum stays one element while
    every block so far was constant and is spread over the grid (np.full)
    at the first that is not, so each point sees the same operations, bit
    for bit.  A weight of 1.0 is not multiplied in, nor a power q = 1
    taken: both are exact no-ops.  A B case with p = 2 reads l2 if given,
    each block's ||Phi_j(D)u||_2, filled before its modulus is read.  The
    moduli are read to their end, so a pass's workspaces go before the
    norms are taken."""
    weights = [_shell_weights(sp.s, count) for sp in spaces]
    sums: list = [[] if sp.scale == BESOV else np.zeros(1) for sp in spaces]
    terms: dict = {}  # shape -> term array, made when first needed

    def term(w: float, a: np.ndarray) -> np.ndarray:
        if a.shape not in terms:
            terms[a.shape] = np.empty(a.shape)
        return np.multiply(w, a, out=terms[a.shape])

    for j, a in enumerate(moduli):
        for k, sp in enumerate(spaces):
            w = weights[k][j]
            if sp.scale == BESOV:
                p2 = l2 is not None and sp.p == 2
                sums[k].append(l2[j] if p2 else 0.0 if a is None
                               else abs_lp_norm(spec, np.broadcast_to(a, spec.shape), sp.p))
            elif a is not None:
                if a.size > sums[k].size:  # the first block that is not constant
                    sums[k] = np.full(spec.shape, sums[k][0])
                if math.isinf(sp.q):
                    np.maximum(sums[k], a if w == 1.0 else term(w, a), out=sums[k])
                elif w == 1.0 and sp.q == 1.0:
                    sums[k] += a
                else:
                    t = term(w, a)
                    if sp.q != 1.0:
                        t **= sp.q
                    sums[k] += t
    terms.clear()
    norms = []
    for w, sp, a in zip(weights, spaces, sums):
        if sp.scale == BESOV:  # a: each block's ||.||_p; for F, the pointwise sum
            a = w * np.array(a)
            norms.append(float(a.max() if math.isinf(sp.q) else np.sum(a**sp.q) ** (1.0 / sp.q)))
        else:
            if not math.isinf(sp.q):
                a **= 1.0 / sp.q
            norms.append(abs_lp_norm(spec, np.broadcast_to(a, spec.shape), sp.p))
    return norms


def space_norms(u: GridFunction | SpectralFunction, spaces: Sequence[SpaceParams]) -> list[float]:
    """Every quasi-norm in `spaces` of u (grid values or coefficients), from
    one block pass per frame; the moduli are made only if a case other
    than B with p = 2 reads them.  A norm that is not finite (its weights or
    powers overflow) raises ValueError naming its space."""
    norms: dict = {}
    for frame in dict.fromkeys(sp.frame for sp in spaces):
        mine = list(dict.fromkeys(sp for sp in spaces if sp.frame == frame))
        count = frame.j_saturation(u.spec) + 1
        p2 = [sp.scale == BESOV and sp.p == 2 for sp in mine]
        moduli, l2 = not all(p2), [] if any(p2) else None
        blocks = _block_pass(lp_block_coeffs(u, frame), u.spec, l2, moduli)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            norms.update(zip(mine, _block_norms(u.spec, blocks, count, mine, l2)))
    for sp, value in norms.items():
        finite_norm(format_space(sp), value)
    return [norms[sp] for sp in spaces]


def finite_norm(label: str, value: float) -> float:
    """value, or ValueError naming the norm `label` if value is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"norm '{label}' is not finite: {value}")
    return value


def holder_norm(u: GridFunction, s: float) -> float:
    """sup|u| + sup_{y!=0} |u(x+y)-u(x)| / |y|^s with torus distances.

    The classical Hoelder quantity; meaningful for 0 < s < 1.  Shifts y are
    scanned in order of increasing |y|, and the scan stops once
    2 sup|u| (1 + 1e-12) / |y|^s <= best.  That is exact: every shift y' not
    yet visited has |y'| >= |y|, so its quotient is at most
    2 sup|u| / |y|^s, and the few roundings in a computed quotient (the
    difference, its modulus, the power, the division) move it by far less
    than the 1e-12 margin.  So no skipped quotient exceeds best, and the
    result is bit-identical to the maximum over all N^n - 1 shifts.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"classical Hoelder modulus needs 0 < s < 1, got {s}")
    spec = u.spec
    axis = (((np.arange(spec.N) + spec.N // 2) % spec.N) - spec.N // 2) * spec.spacing
    if spec.n == 1:
        rad = np.abs(axis)
    else:
        rad = np.hypot(axis[:, None], axis[None, :]).reshape(-1)
    vals = u.values
    top = float(np.max(np.abs(vals)))
    best = 0.0
    for k in np.argsort(rad, kind="stable")[1:]:  # the first is y = 0
        if 2.0 * top * (1.0 + 1e-12) / rad[k] ** s <= best:
            break
        shift = np.roll(vals, np.unravel_index(k, spec.shape), axis=tuple(range(spec.n)))
        best = max(best, float(np.max(np.abs(shift - vals))) / rad[k] ** s)
    return top + best


def summation_lemma_check(
    s: float,
    q: float,
    b=None,
    count: int = 1000,
    length: int = 64,
    seed: int = 0,
) -> float:
    """Fitted c in sum_j 2^{sjq} (sum_{k<=j} |b_k|)^q <= c sum_j 2^{sjq} |b_j|^q.

    s < 0 required.  b: a corpus of sequences; omitted, `count` random
    nonnegative sequences of the given length are drawn.  q = inf compares
    the sup forms.  After fitting, every member is re-checked against
    c * 1.01; members with both sides zero contribute nothing.
    """
    if not s < 0:
        raise ValueError(f"summation lemma needs s < 0, got s = {s}")
    if not q > 0:
        raise ValueError(f"sum exponent q must be positive, got {q}")
    if b is None:
        rng = np.random.default_rng(seed)
        b = [rng.random(length) for _ in range(count)]
    corpus = [np.abs(np.asarray(seq, dtype=float)) for seq in b]

    def sides(bk: np.ndarray) -> tuple[float, float]:
        w = _shell_weights(s, len(bk))
        partial = np.cumsum(bk)
        if math.isinf(q):
            return float(np.max(w * partial)), float(np.max(w * bk))
        return float(np.sum((w * partial) ** q)), float(np.sum((w * bk) ** q))

    pairs = [sides(bk) for bk in corpus]
    ratios = [lhs / rhs for lhs, rhs in pairs if rhs > 0.0]
    fitted = max(ratios) if ratios else 0.0
    for lhs, rhs in pairs:
        if lhs > fitted * 1.01 * rhs + 1e-300:
            raise AssertionError("fitted constant fails its own corpus")
    return float(fitted)


@dataclass(frozen=True)
class EmbeddingReport:
    """Fitted constants for the scale embeddings on one corpus.

    sandwich_inner: max ||u||_F / ||u||_B at q = min(p,q).
    sandwich_outer: max ||u||_B at q = max(p,q) / ||u||_F.
    sobolev_constant: max ||u||_{F^{s1}_{p1,q}} / ||u||_{F^{s}_{p,q}} on the
    line s - n/p = s1 - n/p1 with p < p1.
    holder_band: (min, max) of holder_norm / besov(inf, inf) ratios, or None
    when s is outside (0, 1).
    """

    sp: SpaceParams
    p_target: float
    s_target: float
    sandwich_inner: float
    sandwich_outer: float
    sobolev_constant: float
    holder_band: tuple[float, float] | None
    holds: bool


def embedding_report(
    corpus,
    s: float = 0.5,
    p: float = 2.0,
    q: float = 1.0,
    p_target: float = 4.0,
) -> EmbeddingReport:
    """Check B^s_{p,min(p,q)} -> F^s_{p,q} -> B^s_{p,max(p,q)} together with
    the Sobolev embedding along s - n/p = s1 - n/p1 and the agreement of the
    Hoelder quantity with the (inf, inf) Besov norm, all in DEFAULT_FRAME."""
    members = list(corpus)
    if not members:
        raise ValueError("empty corpus")
    if not p < p_target:
        raise ValueError(f"Sobolev embedding needs p < p_target, got {p} vs {p_target}")
    n = members[0].spec.n
    sp_f = SpaceParams(s, p, q, TRIEBEL_LIZORKIN)
    sp_lo = SpaceParams(s, p, min(p, q), BESOV)
    sp_hi = SpaceParams(s, p, max(p, q), BESOV)
    s_target = s - n / p + n / p_target
    sp_tgt = SpaceParams(s_target, p_target, q, TRIEBEL_LIZORKIN)

    spaces = [sp_f, sp_lo, sp_hi, sp_tgt, SpaceParams(s, math.inf, math.inf, BESOV)]
    norms = pmap(lambda u: space_norms(u, spaces), members, points=members[0].spec.npoints)
    rows = [(0.0, 0.0, 0.0) if f == 0.0 else (f / lo, hi / f, tgt / f)
            for f, lo, hi, tgt, _ in norms]
    inner, outer, sob = (max(col) for col in zip(*rows))

    band = None
    if 0.0 < s < 1.0:
        hb = [holder_norm(u, s) / nm[4] for u, nm in zip(members, norms)]
        band = (float(min(hb)), float(max(hb)))

    holds = (
        inner <= 1.0 + 1e-9
        and outer <= 1.0 + 1e-9
        and math.isfinite(sob)
        and (band is None or (band[0] > 0.0 and math.isfinite(band[1])))
    )
    return EmbeddingReport(
        sp=sp_f, p_target=p_target, s_target=s_target,
        sandwich_inner=float(inner), sandwich_outer=float(outer),
        sobolev_constant=float(sob), holder_band=band, holds=holds,
    )
