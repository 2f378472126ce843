"""Geometry, coding waveform, Fourier coefficients, harmonic matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdoa import (
    ConfigurationError,
    DegenerateCodingError,
    Doa,
    HarmonicMatrix,
    SurfaceConfig,
    ValidationError,
    builtin_config_path,
    element_positions,
    fourier_coefficient,
    harmonic_matrix,
    load_config,
    steering_vector,
    wave_vector,
)
from msdoa.surface import RANK_RTOL, arrival_delays, receiver_delays
from oracles import coding_waveform, harmonic_entries

C0 = 299792458.0
# Coding period, s, of the schedule oracle; the coefficients are per
# period and do not depend on it.
PERIOD = 1.6e-5


def element_position(m, n, cfg):
    """Oracle: element (m, n), 1-based, row m along y and column n along x, grid centred."""
    d = cfg.spacing_m
    return np.array([(n - (cfg.cols + 1) / 2.0) * d, (m - (cfg.rows + 1) / 2.0) * d, 0.0])


def test_element_position_example():
    cfg = SurfaceConfig(5, 6, 1e9, receiver_offset_m=0.3, spacing_m=0.15)
    pos = element_positions(cfg)
    # First element sits at the lower-left corner of the centred grid.
    assert np.allclose(pos[0], [-0.375, -0.3, 0.0])
    assert np.allclose(pos[29], [0.375, 0.3, 0.0])
    # Centre element of the odd axis lands on the axis itself.
    assert pos[12][1] == 0.0


def test_element_positions_row_major(table1_cfg):
    pos = element_positions(table1_cfg)
    assert pos.shape == (30, 3)
    for m in range(1, 6):
        for n in range(1, 7):
            k = (m - 1) * 6 + (n - 1)
            assert np.array_equal(pos[k], element_position(m, n, table1_cfg))


def test_default_spacing_half_wavelength(table1_cfg):
    assert table1_cfg.spacing_m == pytest.approx(C0 / 2e9, rel=0, abs=0)


def test_wave_vector_directions():
    assert np.allclose(wave_vector(Doa.from_degrees(0.0, 90.0)), [1.0, 0.0, 0.0])
    assert np.allclose(wave_vector(Doa.from_degrees(90.0, 90.0)), [0.0, 1.0, 0.0])
    assert np.allclose(wave_vector(Doa.from_degrees(10.0, 0.0)), [0.0, 0.0, 1.0])
    v = wave_vector(Doa.from_degrees(-22.0, 90.0))
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_waveform_one_hot_schedule(small_cfg):
    # At any instant exactly one element is +1, so the sum is 2 - MN.
    t = np.linspace(0.0, 2 * PERIOD, 977)
    total = sum(
        coding_waveform(m, n, t, small_cfg, PERIOD)
        for m in range(1, 3)
        for n in range(1, 4)
    )
    assert np.array_equal(total, np.full_like(t, 2.0 - 6.0))


def test_waveform_slot_duty(small_cfg):
    # Midpoint sampling never touches slot edges, so the mean is exact
    # when the grid size is a multiple of the slot count.
    z = 600
    t = (np.arange(z) + 0.5) / z * PERIOD
    for m in range(1, 3):
        for n in range(1, 4):
            u = coding_waveform(m, n, t, small_cfg, PERIOD)
            assert np.mean(u) == pytest.approx(2.0 / 6.0 - 1.0, abs=1e-12)


def test_waveform_periodicity(small_cfg):
    t = np.linspace(0.0, PERIOD, 401)
    for m, n in ((1, 1), (2, 3)):
        a = coding_waveform(m, n, t, small_cfg, PERIOD)
        b = coding_waveform(m, n, t + 7 * PERIOD, small_cfg, PERIOD)
        assert np.array_equal(a, b)


def test_fourier_coefficient_matches_quadrature(small_cfg):
    # Independent oracle: numerical integration of the defining integral.
    quad = pytest.importorskip("scipy.integrate").quad
    dT = PERIOD

    def oracle(m, n, p):
        # The integrand is discontinuous at the slot edges; hand those
        # breakpoints to the quadrature or it stalls near 1e-6 accuracy.
        slot = (m - 1) * 3 + (n - 1)
        edges = [slot / 6 * dT, (slot + 1) / 6 * dT]
        re = quad(
            lambda t: coding_waveform(m, n, np.array([t]), small_cfg, PERIOD)[0]
            * np.cos(2 * np.pi * p * t / dT),
            0.0,
            dT,
            points=edges,
            limit=400,
        )[0]
        im = quad(
            lambda t: coding_waveform(m, n, np.array([t]), small_cfg, PERIOD)[0]
            * -np.sin(2 * np.pi * p * t / dT),
            0.0,
            dT,
            points=edges,
            limit=400,
        )[0]
        return (re + 1j * im) / dT

    for m, n in ((1, 1), (2, 2), (2, 3)):
        for p in (-50, -17, -1, 0, 1, 2, 3, 29, 50):
            got = fourier_coefficient(m, n, p, small_cfg)
            assert abs(got - oracle(m, n, p)) < 1e-9


def test_fourier_coefficient_dc_value(small_cfg):
    # p = 0 term is the duty-cycle mean 2/(MN) - 1.
    for m in range(1, 3):
        for n in range(1, 4):
            c0 = fourier_coefficient(m, n, 0, small_cfg)
            assert c0 == pytest.approx(2.0 / 6.0 - 1.0)
            assert c0.imag == 0.0


def test_fourier_coefficient_conjugate_symmetry(small_cfg):
    # Real waveform: c_{-p} = conj(c_p).
    p = np.arange(1, 40)
    for m, n in ((1, 2), (2, 1)):
        cp = fourier_coefficient(m, n, p, small_cfg)
        cm = fourier_coefficient(m, n, -p, small_cfg)
        assert np.allclose(cm, np.conj(cp), atol=1e-14)


def test_fourier_series_reconstruction(small_cfg):
    # Truncated series converges to the square wave away from slot edges.
    dT = PERIOD
    p = np.arange(-2000, 2001)
    t = np.linspace(0.0, dT, 3001)
    edges = np.arange(7) / 6 * dT
    keep = np.all(np.abs(t[:, None] - edges[None, :]) > dT / 600, axis=1)
    basis = np.exp(2j * np.pi * np.outer(t, p) / dT)
    for m, n in ((1, 1), (2, 3)):
        series = (basis @ fourier_coefficient(m, n, p, small_cfg)).real
        exact = coding_waveform(m, n, t, small_cfg, PERIOD)
        assert np.max(np.abs(series[keep] - exact[keep])) < 0.05


def test_fourier_parseval(small_cfg):
    # The waveform has unit power; the series captures nearly all of it.
    p = np.arange(-2000, 2001)
    power = np.sum(np.abs(fourier_coefficient(1, 2, p, small_cfg)) ** 2)
    assert 0.99 < power <= 1.0 + 1e-12


def test_steering_vector_highprec_oracle(table1_cfg):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for doa in (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(42.0, 45.0)):
        got = steering_vector(doa, table1_cfg)
        st, ct = mp.sin(mp.radians(doa.theta_deg)), mp.cos(mp.radians(doa.theta_deg))
        sp, cp = mp.sin(mp.radians(doa.phi_deg)), mp.cos(mp.radians(doa.phi_deg))
        w0 = 2 * mp.pi * mp.mpf(table1_cfg.carrier_hz)
        eps = mp.mpf(table1_cfg.receiver_offset_m)
        want = []
        for x, y, _ in element_positions(table1_cfg):
            tau_a = (mp.mpf(x) * sp * ct + mp.mpf(y) * sp * st) / C0
            tau_r = mp.sqrt(mp.mpf(x) ** 2 + mp.mpf(y) ** 2 + eps**2) / C0
            want.append(complex(mp.exp(1j * w0 * (tau_a + tau_r))))
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_delay_helpers(table1_cfg):
    taus = receiver_delays(table1_cfg)
    pos = element_positions(table1_cfg)
    assert np.allclose(taus, np.linalg.norm(
        pos - [0.0, 0.0, -table1_cfg.receiver_offset_m], axis=1) / C0)
    # Broadside arrival has zero relative delay everywhere.
    assert np.allclose(arrival_delays(Doa.from_degrees(0.0, 0.0), table1_cfg), 0.0)


def test_harmonic_matrix_shape_and_rank(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    assert um.entries.shape == (31, 30)
    s = np.linalg.svd(um.entries, compute_uv=False)
    assert s[-1] / s[0] > 1e-3  # comfortably full rank


def test_harmonic_matrix_conjugate_rows(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    # Row for -p is the conjugate of the row for +p.
    for p in range(1, 16):
        assert np.allclose(um.entries[15 - p], np.conj(um.entries[15 + p]))


def _coefficient_table(max_harmonic, cfg):
    """The broadcast coefficient call over orders -P..P that fills the harmonic matrix.

    ``harmonic_matrix`` holds exactly its bytes when the table can be
    inverted, and otherwise refuses it with the typed error: too few
    lines for the elements, or a numerically deficient rank.
    """
    orders = np.arange(-max_harmonic, max_harmonic + 1)
    m, n = np.divmod(np.arange(cfg.size), cfg.cols)
    table = fourier_coefficient(m + 1, n + 1, orders[:, None], cfg)
    if orders.size < cfg.size:
        with pytest.raises(ConfigurationError, match="frequency lines"):
            harmonic_matrix(max_harmonic, cfg)
        return table
    try:
        assert harmonic_matrix(max_harmonic, cfg).entries.tobytes() == table.tobytes()
    except DegenerateCodingError:
        s = np.linalg.svd(table, compute_uv=False)
        assert not s[-1] > RANK_RTOL * s[0]
    return table


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), max_harmonic=st.integers(0, 40))
def test_harmonic_matrix_conjugate_rows_any_surface(rows, cols, max_harmonic):
    # The coding waveform is real for every surface, so the row of
    # order -p is the conjugate of the row of order +p and the mean row
    # is real.
    cfg = SurfaceConfig(rows=rows, cols=cols, carrier_hz=1e9, receiver_offset_m=0.6)
    entries = _coefficient_table(max_harmonic, cfg)
    assert np.allclose(entries[::-1], np.conj(entries), rtol=0.0, atol=1e-14)
    assert np.all(entries[max_harmonic].imag == 0.0)


@pytest.mark.parametrize("name", ["table1", "table1_2d", "table2"])
@pytest.mark.parametrize("max_harmonic", [15, 20, 30, 40])
def test_harmonic_matrix_matches_the_per_element_oracle(name, max_harmonic):
    # One broadcast coefficient call fills the matrix with the bits the
    # per-element loop wrote.
    surface = load_config(builtin_config_path(name)).surface
    entries = _coefficient_table(max_harmonic, surface)
    assert entries.tobytes() == harmonic_entries(max_harmonic, surface).tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), max_harmonic=st.integers(0, 60))
def test_harmonic_matrix_matches_the_per_element_oracle_any_surface(rows, cols, max_harmonic):
    cfg = SurfaceConfig(rows=rows, cols=cols, carrier_hz=1e9, receiver_offset_m=0.6)
    entries = _coefficient_table(max_harmonic, cfg)
    assert entries.tobytes() == harmonic_entries(max_harmonic, cfg).tobytes()


def test_fourier_coefficient_array_call_matches_scalar_calls(small_cfg):
    # Indices and orders broadcast; each entry is the scalar call's value.
    m = np.array([1, 2, 2, 1])[:, None, None]
    n = np.array([3, 1, 2])[None, :, None]
    p = np.array([-29, -3, 0, 1, 7, 50])
    got = fourier_coefficient(m, n, p, small_cfg)
    assert got.shape == (4, 3, 6)
    for i, j, k in np.ndindex(got.shape):
        want = fourier_coefficient(int(m[i, 0, 0]), int(n[0, j, 0]), int(p[k]), small_cfg)
        assert isinstance(want, complex)
        assert got[i, j, k].tobytes() == np.complex128(want).tobytes()


def test_pseudo_inverse_identity(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    eye = um.pseudo_inverse @ um.entries
    assert np.max(np.abs(eye - np.eye(30))) < 1e-10


def test_gram_inverse(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    gram = um.entries.conj().T @ um.entries
    assert np.max(np.abs(um.gram_inverse @ gram - np.eye(30))) < 1e-9


def test_inverses_computed_once(table1_cfg):
    # Cached on the instance, read-only, and bitwise the SVD formulas.
    um = harmonic_matrix(15, table1_cfg)
    pseudo, gram = um.pseudo_inverse, um.gram_inverse
    assert um.pseudo_inverse is pseudo and um.gram_inverse is gram
    assert not pseudo.flags.writeable and not gram.flags.writeable
    u, s, vh = np.linalg.svd(um.entries, full_matrices=False)
    assert np.array_equal(pseudo, (vh.conj().T / s) @ u.conj().T)
    assert np.array_equal(gram, (vh.conj().T / s**2) @ vh)


def test_entries_are_a_read_only_copy(table1_cfg):
    # A write to the entries would leave the cached inverses stale.
    entries = harmonic_matrix(15, table1_cfg).entries.copy()
    um = HarmonicMatrix(15, entries)
    pseudo = um.pseudo_inverse
    with pytest.raises(ValueError, match="read-only"):
        um.entries[0, 0] = 0.0
    assert entries.flags.writeable
    entries[0, 0] = 0.0  # the caller's array is not the matrix's
    assert np.array_equal(um.entries, harmonic_matrix(15, table1_cfg).entries)
    assert um.pseudo_inverse is pseudo


def test_harmonic_matrix_too_few_lines(table1_cfg):
    with pytest.raises(ConfigurationError, match="29 frequency lines for 30 elements"):
        harmonic_matrix(14, table1_cfg)


def test_degenerate_coding_detection():
    entries = np.zeros((5, 3), dtype=complex)
    entries[:, 0] = 1.0
    entries[:, 1] = 1.0  # duplicated column: rank deficient
    entries[:, 2] = np.arange(5)
    with pytest.raises(DegenerateCodingError):
        HarmonicMatrix(2, entries)


def test_surface_validation():
    with pytest.raises(ValidationError):
        SurfaceConfig(0, 6, 1e9, 0.3)
    with pytest.raises(ValidationError):
        SurfaceConfig(5, 6, -1e9, 0.3)
    with pytest.raises(ValidationError):
        SurfaceConfig(5, 6, 1e9, -0.3)
    with pytest.raises(ValidationError):
        SurfaceConfig(5, 6, 1e9, 0.3, spacing_m=0.0)
    with pytest.raises(ValidationError, match="integers"):
        SurfaceConfig(5.5, 6, 1e9, 0.3)
    # Each range is finite: an infinite carrier would otherwise give a
    # zero spacing, and NaN fails no comparison.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="carrier_hz"):
            SurfaceConfig(5, 6, bad, 0.3)
        with pytest.raises(ValidationError, match="receiver_offset_m"):
            SurfaceConfig(5, 6, 1e9, bad)
        with pytest.raises(ValidationError, match="wave_speed"):
            SurfaceConfig(5, 6, 1e9, 0.3, wave_speed=bad)
        with pytest.raises(ValidationError, match="spacing_m"):
            SurfaceConfig(5, 6, 1e9, 0.3, spacing_m=bad)


def test_harmonic_matrix_input_checks(small_cfg):
    with pytest.raises(ValidationError, match="entries must be"):
        HarmonicMatrix(2, np.ones((4, 6)))
    with pytest.raises(ValidationError, match="max_harmonic"):
        harmonic_matrix(-1, small_cfg)


def test_element_index_bounds(small_cfg):
    with pytest.raises(ValidationError):
        fourier_coefficient(0, 1, 0, small_cfg)
    with pytest.raises(ValidationError):
        fourier_coefficient(3, 1, 0, small_cfg)
    # An array of indices is refused if any one of them is outside.
    with pytest.raises(ValidationError):
        fourier_coefficient(np.array([1, 2]), np.array([3, 4]), 0, small_cfg)
    with pytest.raises(ValidationError):
        coding_waveform(1, 4, np.array([0.0]), small_cfg, PERIOD)
