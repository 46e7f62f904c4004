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

import cmath
import collections.abc
import functools
import inspect
import json
import math
import threading
import types
import typing
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import grid
from .grid import GridSpec

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
_GL_SHIFTED = _GL_NODES + 1.0
_QUAD_CHUNK = 2048  # radii per quadrature pass: (2048 x 96) temporaries of 1.5 MiB


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
        # above 1/2, S(t) = 1 - S(1 - t) by the bump's symmetry, and 1 - t is
        # exact there: the quadrature runs only on (0, 1/2], where it rises
        s = t[mid]
        upper = s > 0.5
        s[upper] = 1.0 - s[upper]
        v = _bump_integral(s) / _BUMP_TOTAL
        v[upper] = 1.0 - v[upper]
        out[mid] = np.clip(v, 0.0, 1.0)
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

    def __post_init__(self) -> None:
        if not (0 < self.r < self.R):
            raise ValueError(f"need 0 < r < R, got r={self.r}, R={self.R}")
        if self.R < 1:
            raise ValueError(f"need R >= 1, got R={self.R}")

    def radial(self, t) -> np.ndarray:
        """psi as a function of |xi|."""
        t = np.abs(np.asarray(t, dtype=float))
        return smoothstep((self.R - t) / (self.R - self.r))

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
        try:
            top = math.ldexp(self.psi.r, self.h)
        except OverflowError:
            raise ValueError(f"h = {self.h} overflows r*2^h = {self.psi.r}*2^{self.h}") from None
        if not 2.0 * self.psi.R < top:
            raise ValueError(f"need 2R < r*2^h: 2*{self.psi.R} vs {self.psi.r}*2^{self.h}")

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

    def balls_on(self, radii: np.ndarray, j_max: int) -> Iterator[np.ndarray]:
        """psi(2^-m radii), m = 0..j_max, one ball at a time, the bits of
        ball_radial.  psi is exactly 1 at or below r and 0 at or above R;
        in between it is S(s), s = (R - t)/(R - r).  The quadrature runs
        once, on the distinct values of min(s, 1 - s) over all balls (on a
        lattice, ball m's arguments are a subset of ball m+1's), and psi is
        1 - S(1 - s) where s > 1/2: smoothstep's own fold, taken before the
        distinct values are found, so it halves them."""
        scaled = (radii * 2.0**-m for m in range(j_max + 1))
        args = [(self.R - t[(t > self.r) & (t < self.R)]) / (self.R - self.r) for t in scaled]
        cuts = np.cumsum([s.size for s in args])[:-1]
        folded = np.concatenate(args)
        del args
        upper = folded > 0.5
        folded[upper] = 1.0 - folded[upper]
        values = on_distinct(smoothstep, folded)
        values[upper] = 1.0 - values[upper]
        del folded, upper
        for m, mid in enumerate(np.split(values, cuts)):
            t = radii * 2.0**-m
            ball = (t <= self.r).astype(float)
            ball[(t > self.r) & (t < self.R)] = mid
            del t  # a generator's locals live across its yield
            yield ball

    def block_supports(
        self, spec: GridSpec, j_max: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Phi_0..Phi_{j_max} as (the flat lattice indices where Phi_j != 0,
        ascending; Phi_j there), cached per grid: the oldest grids go while
        the cache holds more than grid.MEMORY_BUDGET bytes, the newest stays.
        Pool workers that miss the cache together wait on the frame's lock
        for one build; hits take no lock.

        Block m is ball m less ball m-1, each ball on the distinct lattice
        radii of grid.radius_classes (balls_on): the bits of block_radial,
        since the power-of-two scalings are exact.  Phi_m vanishes at or
        below r 2^(m-1), where both balls are 1, and at or above R 2^m, where
        both are 0, so its support is the lattice points whose radius class
        lies between its first and last nonzero class: one comparison sweep
        of the integer classes a block, and no sort."""
        if j_max is None:
            j_max = self.j_saturation(spec)
        key = (spec.n, spec.N, j_max)
        supports = self._block_cache.get(key)
        if supports is not None:
            return supports
        with self._block_lock:
            supports = self._block_cache.get(key)
            if supports is None:
                supports = self._build_supports(spec, j_max)
                cache = self._block_cache
                cache[key] = supports
                while len(cache) > 1 and sum(i.nbytes + v.nbytes for held in cache.values()
                                             for i, v in held) > grid.MEMORY_BUDGET:
                    del cache[next(iter(cache))]  # the oldest grid
            return supports

    def _build_supports(self, spec: GridSpec, j_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
        cls, radii = grid.radius_classes(spec)
        supports, prev = [], np.zeros(radii.size)
        for ball in self.balls_on(radii, j_max):
            step, prev = ball - prev, ball
            live = np.flatnonzero(step)
            idx = np.flatnonzero((cls >= live[0]) & (cls <= live[-1])) if live.size else live
            supports.append((idx, step[cls[idx]]))
        return supports

    def lattice_blocks(self, spec: GridSpec, j_max: int | None = None) -> list[np.ndarray]:
        """Dense tables of Phi_0..Phi_{j_max}, made per call from
        block_supports, for the callers that need whole tables (elementary
        symbols, the paradifferential split)."""
        tables = []
        for idx, vals in self.block_supports(spec, j_max):
            tables.append(np.zeros(spec.npoints))
            tables[-1][idx] = vals
        return [t.reshape(spec.shape) for t in tables]


def frame_from_options(*, r: float = 1.0, R: float = 2.0, h: int = 3) -> LPFrame:
    """The frame of a --frame spec or a config "frame" object."""
    return LPFrame(psi=ModulationFunction(r, R), h=h)


DEFAULT_FRAME = frame_from_options()


# ---------------------------------------------------------------------------
# the option grammar: inputs, symbols, norms and frames are named by spec
# strings 'kind:k=v,...' (a frame's has no 'kind:').  A spec family is a
# table kind -> builder, and a kind's keys are its builder's keyword-only
# arguments: those without a default are required, and each value is decoded
# by the argument's annotation, by the rule that also decodes JSON configs.


def decode(value, hint, where: str, text: bool = False):
    """`value` as annotation `hint` asks, or ValueError.  A JSON value must
    have the hint's type (an integer serves a float), and Annotated[T, parse]
    then applies parse to it; spec `text` is read by int, float, complex,
    str, a Literal member's text or the parse of Annotated[T, parse].  A
    float or complex is never NaN (an infinity passes).  A hint the grammar
    cannot read: TypeError."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        errors = []
        for member in args:
            try:
                return decode(value, member, where, text)
            except ValueError as exc:
                errors.append(exc)
        raise errors[0]
    if origin is typing.Literal:
        for member in args:
            if value == member or text and value == str(member):
                return member
    if text or origin is typing.Annotated:
        if origin is typing.Literal or hint is type(None):
            raise ValueError(f"bad value for {where}")
        if hint not in (int, float, complex, str) and origin is not typing.Annotated:
            raise TypeError(f"the option grammar cannot read {hint!r} ({where})")
        if not text:  # JSON Annotated: the base type first, then the parse
            value, where = decode(value, args[0], where), f"{where}: {json.dumps(value)}"
        try:
            got = args[1](value) if origin is typing.Annotated else hint(value)
        except ValueError as exc:
            raise ValueError(f"bad value for {where}") from exc
        if hint in (float, complex) and cmath.isnan(got):
            raise ValueError(f"bad value for {where}")
        return got
    if hint is float and type(value) in (int, float) and not cmath.isnan(value):
        return float(value)
    if hint in (int, bool, str) and type(value) is hint:
        return value
    if (origin or hint) is dict and isinstance(value, dict):
        return {k: decode(v, args[1], f"{where}.{k}") for k, v in value.items()} if args else value
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(decode(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    if origin in (list, collections.abc.Sequence) and isinstance(value, list):
        return [decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value)]
    wanted = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
              dict: "an object", tuple: f"a list of {len(args)}"}.get(origin or hint, "a list")
    raise ValueError(f"{where} must be {wanted}, got {json.dumps(value)}")


@functools.cache
def keyword_options(builder: Callable) -> tuple[dict, tuple]:
    """The keys of the spec kind `builder` builds, its keyword-only arguments:
    (key -> evaluated annotation, the keys without a default)."""
    params = inspect.signature(builder, eval_str=True).parameters.values()
    params = [p for p in params if p.kind is p.KEYWORD_ONLY]
    required = tuple(p.name for p in params if p.default is p.empty)
    return {p.name: p.annotation for p in params}, required


def decode_options(values, hints: dict, what: str, spec: str | None = None, required=()) -> dict:
    """The object `values` decoded by `hints` (key -> annotation): as the text
    of spec string `spec` when given, else as JSON.  A key outside `hints` or
    a missing `required` key raises ValueError."""
    if not isinstance(values, dict):
        raise ValueError(f"{what} must be an object")
    for key in values:
        if key not in hints:
            raise ValueError(f"unknown {what} option {key!r}; allowed: {', '.join(sorted(hints))}")
    missing = [key for key in required if key not in values]
    if missing:
        label = what if spec is None else f"{what} {spec!r}"
        raise ValueError(f"{label} is missing {', '.join(missing)}")
    return {k: decode(v, hints[k], f"{what}.{k}" if spec is None else f"{k} in {spec!r}",
                      spec is not None) for k, v in values.items()}


def split_options(text: str, what: str) -> dict[str, str]:
    """'k=v,k=v' as stripped strings; an item without '=' raises ValueError."""
    values = {}
    for item in text.split(",") if text.strip() else ():
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ValueError(f"bad {what} option {item!r}")
        values[key.strip()] = value.strip()
    return values


def parse_spec(text: str, kinds: dict[str, Callable] | Callable, what: str) -> Callable:
    """The builder of spec `text`'s kind with its options bound; the caller
    passes the builder's positional arguments (grid, frame, ...).  A kindless
    spec (a frame's) passes its builder for `kinds`.  An item without '=', a
    key the builder does not take, a missing required key and a value its
    annotation rejects each raise ValueError, as does an ArithmeticError, an
    OSError or a ValueError in the build, quoting the spec; a builder's
    message that opens with one of the spec's keys already names the value
    at fault and passes as it is."""
    kind, _, rest = ("", "", text) if callable(kinds) else text.partition(":")
    build = kinds if callable(kinds) else kinds.get(kind.strip())
    if build is None:
        raise ValueError(f"unknown {what} kind {kind.strip()!r} in {text!r}")
    hints, required = keyword_options(build)
    values = decode_options(split_options(rest, what), hints, what, text, required)

    def bound(*args):
        try:
            return build(*args, **values)
        except ArithmeticError as exc:
            raise ValueError(f"{what} {text!r}: {exc.args[-1]}") from exc
        except OSError as exc:  # a file= key's file
            raise ValueError(f"{what} {text!r}: {exc}") from exc
        except ValueError as exc:
            if str(exc).partition(" ")[0] in values:
                raise
            raise ValueError(f"{what} {text!r}: {exc}") from exc

    return bound
