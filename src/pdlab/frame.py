"""Modulation functions and Littlewood-Paley frames.

The radial profile is the integrated bump

    S(t) = int_0^t exp(-1/(tau(1-tau))) dtau / int_0^1 exp(-1/(tau(1-tau))) dtau

clamped to 0 on t<=0 and 1 on t>=1, so plateau values are attained exactly;
everything downstream that needs hard zeros or an exact partition of unity
relies on that clamping.

The frame blocks are differences of balls: Phi_0 = psi and
Phi_j = psi(2^-j .) - psi(2^(1-j) .).  Scaling a radius by a power of two
is exact in floating point, so psi(2^-j .) evaluated once per j gives the
same bits as phi = psi - psi(2 .) evaluated at 2^-j t, and each ball serves
the two blocks that share it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .grid import GridFunction, GridSpec, fft_forward, fft_inverse

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
_GL_SHIFTED = _GL_NODES + 1.0
_QUAD_CHUNK = 2048  # radii per quadrature pass: (2048 x 96) temporaries of 1.5 MiB
BLOCK_CACHE_KEYS = 8  # grids whose block tables one LPFrame keeps


def _bump_integral(t: np.ndarray) -> np.ndarray:
    # Gauss-Legendre on [0, t] for 1-d t in (0, 1]; the integrand is analytic
    # inside and flat to all orders at both endpoints, so 96 nodes reach
    # rounding accuracy.  The nodes lie inside (0, t), so the bump needs no
    # support mask (a node rounded onto 0 or 1 gives exp(-inf) = 0); each t
    # is its own row, so chunking the rows only bounds the scratch.
    out = np.empty_like(t)
    for start in range(0, t.size, _QUAD_CHUNK):
        half = 0.5 * t[start : start + _QUAD_CHUNK, None]
        tau = half * _GL_SHIFTED
        with np.errstate(over="ignore", divide="ignore"):
            bump = np.exp(-1.0 / (tau * (1.0 - tau)))
        out[start : start + _QUAD_CHUNK] = np.sum(bump * _GL_WEIGHTS, axis=-1) * half[:, 0]
    return out


_BUMP_TOTAL = float(_bump_integral(np.asarray([1.0]))[0])


def smoothstep(t) -> np.ndarray:
    """Monotone C-infinity ramp, exactly 0 for t<=0 and exactly 1 for t>=1;
    NaN stays NaN."""
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, np.nan)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        out[mid] = np.clip(_bump_integral(t[mid]) / _BUMP_TOTAL, 0.0, 1.0)
    return out


def on_distinct(fn, t: np.ndarray) -> np.ndarray:
    """fn(t) for an element-wise fn, evaluated once per distinct entry of t
    and scattered back: bit-identical to fn(t), and cheaper where entries
    repeat, as lattice radii do.  fn may stack outputs on leading axes."""
    vals, inverse = np.unique(t, return_inverse=True)
    return fn(vals)[..., inverse.reshape(np.shape(t))]


@dataclass(frozen=True)
class ModulationFunction:
    """psi with psi=1 on |xi|<=r, psi=0 on |xi|>=R, radially non-increasing."""

    r: float
    R: float
    profile: str = "smoothstep"

    def __post_init__(self) -> None:
        if not (0 < self.r < self.R):
            raise ValueError(f"need 0 < r < R, got r={self.r}, R={self.R}")
        if self.R < 1:
            raise ValueError(f"need R >= 1, got R={self.R}")
        if self.profile != "smoothstep":
            raise ValueError(f"unknown profile {self.profile!r}")

    def radial(self, t) -> np.ndarray:
        """psi as a function of |xi|."""
        t = np.abs(np.asarray(t, dtype=float))
        return smoothstep((self.R - t) / (self.R - self.r))

    def __call__(self, xi) -> np.ndarray:
        """psi(xi) for frequency vectors xi, shape (..., n) or scalar radius."""
        xi = np.asarray(xi, dtype=float)
        return self.radial(xi if xi.ndim == 0 else np.linalg.norm(np.atleast_2d(xi), axis=-1))

    def corona(self, t) -> np.ndarray:
        """phi(|xi|) = psi(|xi|) - psi(2|xi|)."""
        t = np.abs(np.asarray(t, dtype=float))
        return self.radial(t) - self.radial(2.0 * t)


def modulation_saturation(psi: ModulationFunction, spec: GridSpec) -> int:
    """Least m with psi(2^-m .) identically 1 on the frequency lattice."""
    m = 0
    while psi.r * 2.0**m < spec.nyquist_radius:
        m += 1
    return m


@dataclass(frozen=True)
class LPFrame:
    """Dyadic frame: blocks Phi_0 = psi, Phi_j = phi(2^{-j} .) with phi = psi - psi(2 .)."""

    psi: ModulationFunction
    h: int = 3
    _block_cache: dict = field(default_factory=dict, hash=False, compare=False, repr=False)
    _block_lock: threading.Lock = field(
        default_factory=threading.Lock, hash=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.h < 2:
            raise ValueError("separation integer h must be >= 2")
        if not 2.0 * self.psi.R < self.psi.r * 2.0**self.h:
            raise ValueError(
                f"need 2R < r*2^h: 2*{self.psi.R} vs {self.psi.r}*2^{self.h}"
            )

    @property
    def r(self) -> float:
        return self.psi.r

    @property
    def R(self) -> float:
        return self.psi.R

    def block_radial(self, j: int, t) -> np.ndarray:
        """Phi_j on radii t: psi for j=0, psi(2^-j .) - psi(2^(1-j) .) after."""
        if j == 0:
            return self.ball_radial(0, t)
        return self.ball_radial(j, t) - self.ball_radial(j - 1, t)

    def ball_radial(self, j: int, t) -> np.ndarray:
        """psi(2^{-j}|xi|)."""
        return self.psi.radial(np.asarray(t, dtype=float) * 2.0 ** (-j))

    def j_saturation(self, spec: GridSpec) -> int:
        """Smallest m with psi(2^{-m} eta) = 1 on the whole lattice."""
        return modulation_saturation(self.psi, spec)

    def lattice_blocks(self, spec: GridSpec, j_max: int | None = None) -> list[np.ndarray]:
        """Tabulated Phi_0..Phi_{j_max}, for the last BLOCK_CACHE_KEYS grids
        cached.  A table is built under the frame's lock: pool workers that
        miss the cache together wait for one build instead of each making
        its own (at 1-d 2^18 a second build was the memory peak of a pass).
        Cache hits take no lock.

        Each ball psi(2^-m .) is evaluated once, on the distinct lattice
        radii, and block m is the difference of balls m and m-1: the same
        bits as block_radial, since the power-of-two scalings are exact."""
        if j_max is None:
            j_max = self.j_saturation(spec)
        key = (spec.n, spec.N, j_max)
        blocks = self._block_cache.get(key)
        if blocks is not None:
            return blocks
        with self._block_lock:
            blocks = self._block_cache.get(key)
            if blocks is not None:
                return blocks

            def blocks_on(radii: np.ndarray) -> np.ndarray:
                stack = np.empty((j_max + 1, radii.size))
                stack[0] = prev = self.ball_radial(0, radii)
                for j in range(1, j_max + 1):
                    ball = self.ball_radial(j, radii)
                    stack[j] = ball - prev
                    prev = ball
                return stack

            blocks = self._block_cache[key] = list(on_distinct(blocks_on, spec.freq_radius()))
            for stale in list(self._block_cache)[:-BLOCK_CACHE_KEYS]:
                self._block_cache.pop(stale, None)
            return blocks


def block_project(u: GridFunction, frame: LPFrame, j: int, kind: str = "corona") -> GridFunction:
    """u_j = phi(2^{-j}D)u (corona) or u^j = psi(2^{-j}D)u (ball); j<0 gives 0."""
    if j < 0:
        return GridFunction(u.spec, np.zeros(u.spec.shape, dtype=complex))
    rad = u.spec.freq_radius()
    if kind == "corona":
        mult = frame.block_radial(j, rad)
    elif kind == "ball":
        mult = frame.ball_radial(j, rad)
    else:
        raise ValueError(f"kind must be 'corona' or 'ball', got {kind!r}")
    c = fft_forward(u)
    return fft_inverse(type(c)(u.spec, c.coeffs * mult))


DEFAULT_FRAME = LPFrame(psi=ModulationFunction(r=1.0, R=2.0), h=3)


# ---------------------------------------------------------------------------
# the option grammar of symbol, input, space and frame specs


def parse_options(text: str, allowed: Collection[str], what: str) -> dict[str, str]:
    """Split 'k=v,k=v' into stripped strings; an item without '=' or a key
    outside `allowed` raises ValueError."""
    opts: dict[str, str] = {}
    for item in text.split(",") if text.strip() else ():
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"bad {what} option {item!r}")
        if key not in allowed:
            known = ", ".join(sorted(allowed))
            raise ValueError(f"unknown {what} option {key!r}; allowed: {known}")
        opts[key] = value.strip()
    return opts


def parse_spec(
    text: str, kinds: dict[str, Collection[str]], what: str
) -> tuple[str, dict[str, str]]:
    """Split 'kind:k=v,...' into the kind and its options; `kinds` maps each
    accepted kind to the option keys it allows."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r} in {text!r}")
    return kind, parse_options(rest, kinds[kind], what)


FRAME_OPTIONS = {"r": float, "R": float, "h": int, "profile": str}


def frame_from_options(opts: dict) -> LPFrame:
    """LPFrame from FRAME_OPTIONS values, as text or typed; keys left out
    take DEFAULT_FRAME's values."""
    v = {key: FRAME_OPTIONS[key](value) for key, value in opts.items()}
    d = DEFAULT_FRAME
    psi = ModulationFunction(v.get("r", d.r), v.get("R", d.R), v.get("profile", d.psi.profile))
    return LPFrame(psi=psi, h=v.get("h", d.h))
