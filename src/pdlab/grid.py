"""Discrete torus [0,2pi)^n: grid/spectral containers, transforms, norms.

Conventions used throughout the package:

  * grid points   x_k = 2*pi*k/N, k in {0,...,N-1}^n
  * frequencies   eta integer vectors, each component in [-N/2, N/2)
  * synthesis     u(x) = sum_eta c_eta e^{i x.eta}

With these choices band-limited quadrature is exact, so identities that
hold for trigonometric polynomials hold here to rounding error.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

# bytes one dense N^n x N^n array, one row chunk or one frame's block cache
# may hold; every reader reads it here at call time
MEMORY_BUDGET = 1 << 26


def check_budget(what: str, spec: GridSpec, rows: int | None = None, entry_bytes: int = 16) -> None:
    """ValueError, raised before any allocation, if `what` would pass the
    budget: `rows` rows (default N^n) of N^n entries, entry_bytes each
    (default 16, one complex number)."""
    entries = spec.npoints * (spec.npoints if rows is None else rows)
    if (nbytes := entry_bytes * entries) > MEMORY_BUDGET:
        raise ValueError(f"{what} would hold {entries} table entries ({nbytes / 2**20:g}"
                         f" MiB > {MEMORY_BUDGET / 2**20:g} MiB memory budget); use the "
                         "structured paths")


def check_grid_budget(what: str, spec: GridSpec) -> None:
    """ValueError, raised before any allocation, if one complex array on
    spec's grid (16 N^n bytes) would pass the budget."""
    if (nbytes := 16 * spec.npoints) > MEMORY_BUDGET:
        raise ValueError(f"{what} would hold {spec.npoints} points in one complex grid array "
                         f"(16 bytes a point: {nbytes / 2**20:g} MiB > {MEMORY_BUDGET / 2**20:g}"
                         " MiB memory budget)")


def row_chunks(count: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices over `count` rows of row_bytes each, each holding
    as many rows as the budget does, at least one."""
    step = max(1, MEMORY_BUDGET // row_bytes)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


_PDGF_MAGIC = b"PDGF"
_PDGF_HEADER = struct.Struct("<4sII4x")  # magic, n, N, 4 reserved bytes


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with N points per axis on the torus [0,2pi)^n."""

    n: int
    N: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.N

    @property
    def npoints(self) -> int:
        return self.N**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def nyquist_radius(self) -> float:
        # largest |eta| over the representable lattice (corner of the cube)
        return np.sqrt(self.n) * (self.N / 2)

    def axis_coords(self) -> np.ndarray:
        return TWO_PI * np.arange(self.N) / self.N

    def axis_freqs(self) -> np.ndarray:
        """Integer frequencies in shifted layout: index i <-> i - N/2."""
        return np.arange(self.N) - self.N // 2

    def coord_mesh(self) -> tuple[np.ndarray, ...]:
        c = self.axis_coords()
        return np.meshgrid(*([c] * self.n), indexing="ij")

    def freq_mesh(self) -> tuple[np.ndarray, ...]:
        f = self.axis_freqs()
        return np.meshgrid(*([f] * self.n), indexing="ij")

    def freq_radius(self) -> np.ndarray:
        mesh = self.freq_mesh()
        return np.sqrt(sum(m.astype(float) ** 2 for m in mesh))


def radius_classes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(cls, radii): each flat lattice point's radius class, int32, and the
    distinct radii ascending; radii[cls] has the bits of freq_radius().  A
    lattice radius is the root of the integer |eta|^2, so the class is |eta|
    in 1-d and, in 2-d, the rank of |eta|^2 in a presence array: no sort."""
    f = spec.axis_freqs().astype(np.int32)
    if spec.n == 1:
        return np.abs(f), np.arange(spec.N // 2 + 1, dtype=float)
    sq = (f * f)[:, None] + (f * f)[None, :]
    present = np.zeros(spec.N**2 // 2 + 1, dtype=bool)
    present[sq] = True
    rank = np.cumsum(present, dtype=np.int32) - 1
    return rank[sq.reshape(-1)], np.sqrt(np.flatnonzero(present).astype(float))


def lattice_phase(spec: GridSpec, k, eta) -> np.ndarray:
    """e^{i x_k.eta} for integer grid indices k and frequencies eta, arrays
    of shape (..., n); the result has k's leading axes, then eta's.  Since
    x_k.eta = 2pi (k.eta)/N, k.eta is reduced mod N in int64 and the phase
    read from the N roots of unity, with no rounding that grows with |x.eta|."""
    k = np.asarray(k, dtype=np.int64)
    km = np.tensordot(k, np.asarray(eta, dtype=np.int64), axes=([-1], [-1]))
    roots = np.exp(1j * (TWO_PI * np.arange(spec.N) / spec.N))
    return roots[km % spec.N]


def _check_values(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != spec.shape and arr.shape == (spec.npoints,):
        arr = arr.reshape(spec.shape)
    if arr.shape != spec.shape:
        raise ValueError(f"expected shape {spec.shape}, got {arr.shape}")
    _check_finite(arr)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    # max and min carry any NaN and show any +-inf, with no bool array
    f = arr.view(float)
    if f.size and not (np.isfinite(f.max()) and np.isfinite(f.min())):
        raise ValueError("non-finite entries")


@dataclass(frozen=True)
class GridFunction:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.spec, self.values))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, factor) -> "GridFunction":
        return GridFunction(self.spec, self.values * factor)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralFunction:
    """Fourier coefficients in shifted layout: coeffs[i] at eta = i - N/2."""

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_values(self.spec, self.coeffs))


def fft_forward(u: GridFunction) -> SpectralFunction:
    """Coefficients c_eta with u(x) = sum c_eta e^{i x.eta}, exact on the grid.
    numpy's pocketfft scales each axis's transform by 1/N inside it
    (norm="forward"), with no pass of its own.  N is a power of two, so
    that gives the bits of fftshift(fftn(u)) / N^n, except where a value
    falls below 2^-1022 and the two scalings lose its low bits differently."""
    return SpectralFunction(u.spec, np.fft.fftshift(np.fft.fftn(u.values, norm="forward")))


def as_spectral(u: GridFunction | SpectralFunction) -> SpectralFunction:
    """u's coefficients: u itself if it holds them, else its forward FFT."""
    return u if isinstance(u, SpectralFunction) else fft_forward(u)


class SupportCoeffs(NamedTuple):
    """Coefficients vals at the flat shifted-layout indices idx, 0 elsewhere."""

    spec: GridSpec
    idx: np.ndarray
    vals: np.ndarray


def fft_inverse(c: SpectralFunction | SupportCoeffs, out: np.ndarray | None = None) -> GridFunction:
    """u(x) = sum c_eta e^{i x.eta} into `out` if given (a C-contiguous
    complex array of the grid's shape, the caller's; the result wraps it).
    Coefficients on a support are checked finite there, written straight
    into FFT order (N is a power of two, so ifftshift takes flat index i to
    i ^ flip, flip setting each axis index's top bit) and transformed in
    place.  The synthesis is ifftn unscaled (norm="forward"), with no pass
    to undo its 1/N^n: both forms give the bits of
    ifftn(ifftshift(dense coefficients)) * N^n, a power of two, except
    where ifftn's output falls below N^n 2^-1022 and the scaling lost its
    low bits there."""
    spec = c.spec
    if isinstance(c, SpectralFunction):
        vals = np.fft.ifftn(np.fft.ifftshift(c.coeffs), out=out, norm="forward")
    else:
        _check_finite(c.vals)
        vals = np.empty(spec.shape, dtype=complex) if out is None else out
        vals.fill(0)
        vals.reshape(-1)[c.idx ^ sum(spec.N // 2 * spec.N**a for a in range(spec.n))] = c.vals
        np.fft.ifftn(vals, out=vals, norm="forward")
    return GridFunction(spec, vals)


def as_values(u: GridFunction | SpectralFunction) -> GridFunction:
    """u's grid values: u itself if it holds them, else its inverse FFT."""
    return u if isinstance(u, GridFunction) else fft_inverse(u)


def lp_norm(u: GridFunction | SpectralFunction, p: float) -> float:
    """Riemann-sum quasi-norm ((2pi/N)^n sum |u|^p)^{1/p}; max for p=inf.  Of
    coefficients, p = 2 is Parseval's sqrt((2pi)^n sum |c|^2), no transform."""
    if p <= 0:
        raise ValueError("p must be positive")
    if isinstance(u, SpectralFunction) and p == 2:
        return float(np.sqrt(TWO_PI**u.spec.n * np.sum(np.abs(u.coeffs) ** 2)))
    return abs_lp_norm(u.spec, np.abs(as_values(u).values), p)


def abs_lp_norm(spec: GridSpec, a: np.ndarray, p: float) -> float:
    """lp_norm from the moduli a = |u| on spec's grid, for callers that
    share one |u| between several norms."""
    if np.isinf(p):
        return float(a.max())
    cell = (TWO_PI / spec.N) ** spec.n
    return float((cell * np.sum(a**p)) ** (1.0 / p))


def sobolev_norm(c: SpectralFunction, s: float) -> float:
    """((2pi)^n sum (1+|eta|^2)^s |c_eta|^2)^{1/2}."""
    w = (1.0 + c.spec.freq_radius() ** 2) ** s
    total = np.sum(w * np.abs(c.coeffs) ** 2)
    return float(np.sqrt(TWO_PI**c.spec.n * total))


def mode_norm(modes: dict, s: float) -> float:
    """sobolev_norm of the 1-d sum of modes {eta: c}, eta a Python int: no grid."""
    return math.sqrt(TWO_PI * math.fsum((1.0 + float(eta) ** 2) ** s * abs(c) ** 2
                                        for eta, c in modes.items()))


def single_mode(spec: GridSpec, eta) -> GridFunction:
    """e^{i x.eta} for an integer frequency eta (int for n=1, tuple for n=2)."""
    eta_vec = np.atleast_1d(np.asarray(eta, dtype=int))
    if eta_vec.shape != (spec.n,):
        raise ValueError(f"eta must have {spec.n} components")
    half = spec.N // 2
    if np.any(eta_vec < -half) or np.any(eta_vec >= half):
        raise ValueError(f"frequency {tuple(eta_vec)} outside [-N/2, N/2)")
    mesh = spec.coord_mesh()
    phase = sum(m * e for m, e in zip(mesh, eta_vec))
    return GridFunction(spec, np.exp(1j * phase))


def spectrum_from_coeffs(spec: GridSpec, coeff_map: dict) -> SpectralFunction:
    """The coefficients {eta: c}, integer eta keys; an eta off the lattice
    [-N/2, N/2)^n raises ValueError."""
    c = np.zeros(spec.shape, dtype=complex)
    half = spec.N // 2
    for eta, val in coeff_map.items():
        eta_vec = np.atleast_1d(np.asarray(eta, dtype=int))
        if eta_vec.shape != (spec.n,) or np.any(eta_vec < -half) or np.any(eta_vec >= half):
            raise ValueError(f"frequency {eta} is off the lattice [{-half}, {half})^{spec.n}")
        c[tuple(eta_vec + half)] = val
    return SpectralFunction(spec, c)


def from_coeffs(spec: GridSpec, coeff_map: dict) -> GridFunction:
    """Build sum c_eta e^{i x.eta} from {eta: c} with integer eta keys."""
    return fft_inverse(spectrum_from_coeffs(spec, coeff_map))


def random_band_spectrum(spec: GridSpec, radius: float, rng: np.random.Generator) -> SpectralFunction:
    """Random complex coefficients supported on |eta| <= radius."""
    mask = spec.freq_radius() <= radius
    c = np.zeros(spec.shape, dtype=complex)
    k = int(mask.sum())
    c[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return SpectralFunction(spec, c)


def random_band_limited(spec: GridSpec, radius: float, rng: np.random.Generator) -> GridFunction:
    """The grid values of random_band_spectrum, from the same draws."""
    return fft_inverse(random_band_spectrum(spec, radius, rng))


def write_pdgf(u: GridFunction, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_PDGF_HEADER.pack(_PDGF_MAGIC, u.spec.n, u.spec.N))
        fh.write(np.ascontiguousarray(u.values, dtype="<c16").tobytes())


def read_grid_file(path, header: struct.Struct, magic: bytes, table: bool = False):
    """(header fields after magic, n and N; the grid; the complex payload) of
    a file of N^n values, or of an N^n x N^n table, which the memory budget
    bounds.  The header's claims are checked before the payload is read."""
    with open(path, "rb") as fh:
        head = fh.read(header.size)
        if len(head) < header.size or head[:4] != magic:
            raise ValueError(f"{path}: not a {magic.decode()} file")
        _, n, N, *rest = header.unpack(head)
        spec = GridSpec(int(n), int(N))
        if table:
            check_budget(f"{path}: symbol table", spec)
        expected = header.size + 16 * spec.npoints ** (1 + table)
        if (found := os.fstat(fh.fileno()).st_size) != expected:
            raise ValueError(f"{path}: truncated or overlong, expected {expected} bytes, "
                             f"found {found}")
        return rest, spec, np.fromfile(fh, dtype="<c16").reshape(spec.shape * (1 + table))


def read_pdgf(path) -> GridFunction:
    return GridFunction(*read_grid_file(path, _PDGF_HEADER, _PDGF_MAGIC)[1:])
