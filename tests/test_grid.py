import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlab.frame import DEFAULT_FRAME
from pdlab.grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    SupportCoeffs,
    _check_values,
    as_values,
    fft_forward,
    fft_inverse,
    from_coeffs,
    lattice_phase,
    lp_norm,
    radius_classes,
    random_band_limited,
    read_pdgf,
    single_mode,
    sobolev_norm,
    spectrum_from_coeffs,
    write_pdgf,
)

TWO_PI = 2 * np.pi


def test_gridspec_validation():
    GridSpec(1, 8)
    GridSpec(2, 64)
    with pytest.raises(ValueError):
        GridSpec(3, 16)
    with pytest.raises(ValueError):
        GridSpec(1, 12)
    with pytest.raises(ValueError):
        GridSpec(1, 4)


@pytest.mark.parametrize("n, N", [(1, 4096), (2, 64)])
def test_lattice_phase_is_the_grid_exponential(n, N):
    spec = GridSpec(n, N)
    rng = np.random.default_rng(0)
    k = rng.integers(0, N, size=(50, n))
    eta = rng.integers(-N // 2, N // 2, size=(40, n))
    got = lattice_phase(spec, k, eta)
    phase = (k * (TWO_PI / N)) @ eta.T
    assert got.shape == (50, 40)
    # float phases carry the rounding of x.eta, up to ~1e-12 rad here
    assert np.max(np.abs(got - np.exp(1j * phase))) < 1e-15 * np.max(np.abs(phase))
    # periodic in eta mod N, bit for bit, which float phases x.eta are not
    assert np.array_equal(lattice_phase(spec, k, eta + N), got)
    assert np.array_equal(lattice_phase(spec, k[0], eta[0]), got[0, 0])


@pytest.mark.parametrize("n, N", [(1, 8), (1, 2**11), (1, 2**18), (2, 8), (2, 64), (2, 512)])
def test_radius_classes_give_the_float_radii_and_their_order(n, N):
    spec = GridSpec(n, N)
    cls, radii = radius_classes(spec)
    rad = spec.freq_radius().ravel()
    assert np.array_equal(radii[cls].view(np.int64), rad.view(np.int64))  # bit for bit
    assert np.all(radii[1:] > radii[:-1])
    assert np.array_equal(np.argsort(cls, kind="stable"), np.argsort(rad, kind="stable"))


def test_the_radius_table_peaks_within_the_float_radii():
    spec = GridSpec(2, 512)
    peaks = []
    for build in (spec.freq_radius, lambda: radius_classes(spec)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_constant_function_forward():
    spec = GridSpec(1, 16)
    u = GridFunction(spec, np.ones(16))
    c = fft_forward(u)
    half = spec.N // 2
    assert abs(c.coeffs[half] - 1.0) < 1e-14
    others = np.delete(c.coeffs, half)
    assert np.max(np.abs(others)) < 1e-14


def test_pure_mode_forward():
    spec = GridSpec(1, 16)
    u = single_mode(spec, 3)
    c = fft_forward(u)
    half = spec.N // 2
    assert abs(c.coeffs[half + 3] - 1.0) < 1e-13
    c2 = c.coeffs.copy()
    c2[half + 3] = 0.0
    assert np.max(np.abs(c2)) < 1e-13


def test_pure_mode_2d():
    spec = GridSpec(2, 16)
    c = np.zeros(spec.shape, dtype=complex)
    c[spec.N // 2 + 1, spec.N // 2] = 1.0
    u = fft_inverse(SpectralFunction(spec, c))
    x0, _ = spec.coord_mesh()
    assert np.max(np.abs(u.values - np.exp(1j * x0))) < 1e-13


@pytest.mark.parametrize("n,N", [(1, 64), (1, 256), (2, 16)])
def test_round_trip(n, N):
    rng = np.random.default_rng(7 + N + n)
    spec = GridSpec(n, N)
    u = GridFunction(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    v = fft_inverse(fft_forward(u))
    assert np.max(np.abs(v.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


@pytest.mark.parametrize("n,N", [(1, 4096), (2, 64)])
def test_transforms_scale_in_place_bit_for_bit(n, N):
    # the wrappers let pocketfft scale (norm="forward"); the bits are those
    # of the expressions that scale afterwards, signed zeros included
    rng = np.random.default_rng(N + n)
    spec = GridSpec(n, N)
    v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    v.flat[:3] = [-0.0, 0.0, complex(-0.0, -0.0)]
    pairs = (
        (fft_forward(GridFunction(spec, v)).coeffs, np.fft.fftshift(np.fft.fftn(v)) / N**n),
        (fft_inverse(SpectralFunction(spec, v)).values, np.fft.ifftn(np.fft.ifftshift(v)) * N**n),
    )
    for got, want in pairs:
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize(
    "n, N", [(1, 2**k) for k in range(7, 19)] + [(2, 32), (2, 64), (2, 128), (2, 256)]
)
@pytest.mark.parametrize("spread", [False, True], ids=["normal", "lognormal"])
def test_transforms_scaled_by_pocketfft_are_the_scaled_bits(n, N, spread):
    # N^n is a power of two, so scaling by it inside the transform or after
    # it differs only below 2^-1022; lognormal(0, 8) scales span 30 decades
    rng = np.random.default_rng(N + n + spread)
    spec = GridSpec(n, N)
    v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    if spread:
        v *= rng.lognormal(0.0, 8.0, spec.shape)
    flat = np.arange(spec.npoints)
    want = np.fft.ifftn(np.fft.ifftshift(v)) * N**n
    pairs = (
        (fft_forward(GridFunction(spec, v)).coeffs, np.fft.fftshift(np.fft.fftn(v)) / N**n),
        (fft_inverse(SpectralFunction(spec, v)).values, want),
        (fft_inverse(SupportCoeffs(spec, flat, v.reshape(-1))).values, want),
    )
    for got, ref in pairs:
        assert np.array_equal(got.view(float), ref.view(float))


def support_cases(spec: GridSpec, rng: np.random.Generator):
    """(flat indices, values) pairs: random supports of a few sizes, then
    the frame's block supports weighting random coefficients."""
    for size in (1, 2, spec.npoints // 3, spec.npoints):
        idx = np.sort(rng.choice(spec.npoints, size, replace=False))
        yield idx, rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for idx, phi in DEFAULT_FRAME.block_supports(spec):
        yield idx, (rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)) * phi


@pytest.mark.parametrize("n, N", [(1, 8), (1, 64), (1, 1024), (1, 4096), (2, 8), (2, 16), (2, 64)])
def test_inverse_of_a_support_or_into_out_is_the_dense_bits(n, N):
    spec = GridSpec(n, N)
    rng = np.random.default_rng(N + n)
    out = np.full(spec.shape, np.nan + 1j)  # stale contents must not leak through
    for idx, vals in support_cases(spec, rng):
        dense = np.zeros(spec.npoints, dtype=complex)
        dense[idx] = vals
        dense = dense.reshape(spec.shape)
        want = (np.fft.ifftn(np.fft.ifftshift(dense)) * N**n).view(float)
        on_support, on_dense = SupportCoeffs(spec, idx, vals), SpectralFunction(spec, dense)
        got = [fft_inverse(on_support), fft_inverse(on_support, out=out), fft_inverse(on_dense),
               fft_inverse(on_dense, out=np.empty(spec.shape, dtype=complex))]
        assert got[1].values is out
        for u in got:
            assert np.array_equal(u.values.view(float), want)
            assert np.array_equal(np.signbit(u.values.view(float)), np.signbit(want))


def test_a_support_is_checked_finite_on_the_support():
    spec = GridSpec(1, 64)
    out = np.empty(spec.shape, dtype=complex)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            fft_inverse(SupportCoeffs(spec, np.array([3, 40]), np.array([1.0, bad])), out=out)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=8, max_size=8),
       st.integers(0, 7), st.integers(0, 1), st.sampled_from([np.nan, np.inf, -np.inf, None]))
def test_check_values_rejects_exactly_the_non_finite(entries, at, part, bad):
    values = np.array([complex(re, im) for re, im in entries])
    values.view(float)[2 * at + part] = 1.7e308 * (-1) ** part if bad is None else bad
    if bad is None:
        assert np.array_equal(_check_values(GridSpec(1, 8), values), values)
    else:
        with pytest.raises(ValueError, match="non-finite"):
            _check_values(GridSpec(1, 8), values)


def test_inverse_linearity():
    rng = np.random.default_rng(3)
    spec = GridSpec(1, 32)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lhs = fft_inverse(SpectralFunction(spec, a + b)).values
    rhs = fft_inverse(SpectralFunction(spec, a)).values + fft_inverse(SpectralFunction(spec, b)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.5])
def test_lp_norm_constant(p):
    spec = GridSpec(1, 16)
    u = GridFunction(spec, np.ones(16))
    assert abs(lp_norm(u, p) - TWO_PI ** (1 / p)) < 1e-12


def test_lp_norm_sup_and_errors():
    spec = GridSpec(1, 16)
    u = GridFunction(spec, np.ones(16))
    assert lp_norm(u, np.inf) == 1.0
    with pytest.raises(ValueError):
        lp_norm(u, 0.0)
    with pytest.raises(ValueError):
        lp_norm(u, -1.0)


def test_quasi_triangle_p_half():
    # ||u+v||_p^p <= ||u||_p^p + ||v||_p^p for p = 1/2
    rng = np.random.default_rng(11)
    spec = GridSpec(1, 64)
    for _ in range(25):
        u = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        v = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        p = 0.5
        lhs = lp_norm(u + v, p) ** p
        rhs = lp_norm(u, p) ** p + lp_norm(v, p) ** p
        assert lhs <= rhs * (1 + 1e-12)


def test_sobolev_norm_examples():
    spec = GridSpec(1, 16)
    c = np.zeros(16, dtype=complex)
    c[8] = 1.0  # eta = 0
    assert abs(sobolev_norm(SpectralFunction(spec, c), 5.0) - np.sqrt(TWO_PI)) < 1e-12
    c = np.zeros(16, dtype=complex)
    c[8 + 3] = 1.0  # eta = 3
    got = sobolev_norm(SpectralFunction(spec, c), 1.0)
    assert abs(got - np.sqrt(TWO_PI * 10)) < 1e-12
    spec2 = GridSpec(2, 8)
    c2 = np.zeros(spec2.shape, dtype=complex)
    c2[4, 4] = 1.0
    assert abs(sobolev_norm(SpectralFunction(spec2, c2), -2.0) - TWO_PI) < 1e-12


def test_parseval_100_random():
    rng = np.random.default_rng(5)
    spec = GridSpec(1, 64)
    for _ in range(100):
        u = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        c = fft_forward(u)
        assert abs(sobolev_norm(c, 0.0) - lp_norm(u, 2.0)) <= 1e-10 * lp_norm(u, 2.0)


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(9)
    spec = GridSpec(1, 32)
    c = SpectralFunction(spec, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    for s1, s2 in [(-2.0, -1.0), (-1.0, 0.0), (0.0, 0.5), (0.5, 3.0)]:
        assert sobolev_norm(c, s1) <= sobolev_norm(c, s2) * (1 + 1e-15)


def test_nonfinite_rejected():
    spec = GridSpec(1, 8)
    bad = np.ones(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(spec, bad)


def test_from_coeffs_and_band_limited():
    spec = GridSpec(1, 32)
    u = from_coeffs(spec, {2: 1.0, -5: 2j})
    c = fft_forward(u)
    assert abs(c.coeffs[16 + 2] - 1.0) < 1e-13
    assert abs(c.coeffs[16 - 5] - 2j) < 1e-13
    rng = np.random.default_rng(0)
    v = random_band_limited(spec, 4.0, rng)
    cv = fft_forward(v).coeffs
    rad = spec.freq_radius()
    assert np.max(np.abs(cv[rad > 4.0])) < 1e-13


@pytest.mark.parametrize("eta", [-5, 4, 2**40])
def test_off_lattice_frequencies_raise(eta):
    spec = GridSpec(1, 8)
    with pytest.raises(ValueError, match=f"frequency {eta} is off the lattice"):
        spectrum_from_coeffs(spec, {eta: 1.0})
    with pytest.raises(ValueError, match=f"frequency {eta} "):
        from_coeffs(spec, {1: 1.0, eta: 1.0})


def test_off_lattice_frequencies_raise_in_2d():
    spec = GridSpec(2, 8)
    for eta in ((0, 4), (-5, 0), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="off the lattice"):
            spectrum_from_coeffs(spec, {eta: 1.0})
    c = spectrum_from_coeffs(spec, {(-4, 3): 2.0})
    assert c.coeffs[0, 7] == 2.0 and np.count_nonzero(c.coeffs) == 1


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_lp_norm_of_coefficients(n, N):
    spec = GridSpec(n, N)
    rng = np.random.default_rng(11)
    c = SpectralFunction(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    u = fft_inverse(c)
    assert as_values(u) is u and np.array_equal(as_values(c).values, u.values)
    # p = 2 is Parseval's sum, no transform; any other p reads grid values
    assert lp_norm(c, 2) == pytest.approx(lp_norm(u, 2), rel=1e-14)
    assert lp_norm(c, 2) == np.sqrt(TWO_PI**n * np.sum(np.abs(c.coeffs) ** 2))
    for p in (1.0, 3.0, np.inf):
        assert lp_norm(c, p) == lp_norm(u, p)


def test_pdgf_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    for spec in [GridSpec(1, 64), GridSpec(2, 8)]:
        u = GridFunction(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
        path = tmp_path / f"u{spec.n}.pdgf"
        write_pdgf(u, path)
        v = read_pdgf(path)
        assert v.spec == u.spec
        assert np.array_equal(v.values, u.values)
        raw = path.read_bytes()
        assert raw[:4] == b"PDGF"
        assert len(raw) == 16 + 16 * spec.npoints


def test_pdgf_bad_magic(tmp_path):
    path = tmp_path / "bad.pdgf"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ValueError):
        read_pdgf(path)


@pytest.mark.parametrize("n, N", [(1, 64), (1, 2**31), (2, 2**31)])
def test_pdgf_header_claims_more_than_the_file(tmp_path, n, N):
    # header plus one sample: the size check must fire before any allocation
    path = tmp_path / "short.pdgf"
    path.write_bytes(b"PDGF" + np.array([n, N, 0], dtype="<u4").tobytes() + bytes(16))
    with pytest.raises(ValueError, match="truncated"):
        read_pdgf(path)
