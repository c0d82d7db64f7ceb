import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

import holomimo._kernels
import holomimo.channel
from holomimo import (AngularSpectrum, AntennaPattern, ArrayGeometry, CorrelationMatrix,
                      CouplingMatrix, SingularCouplingError, build_fourier_basis, build_ula,
                      build_upa, cap_spectrum, coupled_correlation_exact, coupling_closed_form,
                      coupling_general, ergodic_capacity, exact_correlation, exact_model,
                      exact_spectra, fourier_model, iid_model, isotropic_spectrum,
                      matched_pattern, omni_pattern, quadrature_for, regularize, spd_inv_sqrt,
                      spd_sqrt, whitened_eigenvalues)
from holomimo._kernels import (HEMISPHERE, _chebyshev_points, _radial_counts, _theta_rule,
                               angular_kernel, array_grid, density_kernel)
from holomimo.capacity import _capacity_grid
from holomimo.channel import complex_normal, substream
from holomimo.coupling import _coupling_scale, coupling_ratio
from holomimo.spectra import _uniform_on_cap, pattern_from_name, spectrum_from_name

from densities import sphere_average


def _plane_waves(g, theta, phi):
    """exp(i k . r) for arrival directions (theta, phi): one row per antenna,
    one column per direction (wavenumber 2pi: lengths are in wavelengths)."""
    k_hat = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    return np.exp(1j * (2.0 * np.pi * (g.positions @ k_hat)))


def _rule_kernel(g, density, q):
    """R of ``density`` on the 2-D rule ``q``, whatever rule the density picks."""
    grid = array_grid(g.positions)
    return CorrelationMatrix(angular_kernel(g.positions, density, q, HEMISPHERE, grid), g,
                             grid=grid)


def test_isotropic_correlation_is_sinc():
    # with isotropic scattering the correlation quadrature coincides with the
    # coupling kernel (the builder at the correlation scale 1/2pi)
    g = build_upa(6, 6, 0.5)
    spectrum = isotropic_spectrum()
    r = angular_kernel(g.positions, spectrum, quadrature_for(spectrum), 1.0 / (2.0 * np.pi))
    c = coupling_closed_form(g).matrix
    assert np.abs(r - c).max() < 1e-10
    assert not np.iscomplexobj(r)  # imaginary residue judged quadrature noise


def test_isotropic_correlation_takes_closed_form():
    g = build_upa(7, 5, 0.3)
    r = exact_correlation(g, isotropic_spectrum()).matrix
    assert r.dtype == np.float64
    assert np.array_equal(r, coupling_closed_form(g).matrix)


def test_custom_spectrum_named_isotropic_takes_quadrature():
    # a normalized density that shares only the isotropic spectrum's name (and
    # so compares equal to it) gets its own quadrature R, not the sinc
    custom = AngularSpectrum("isotropic", lambda th, ph: 2.0 * np.cos(th))
    assert custom == isotropic_spectrum()
    assert sphere_average(custom) == pytest.approx(1.0, abs=1e-6)
    g = build_upa(4, 4, 0.3)
    r = exact_correlation(g, custom).matrix
    assert np.array_equal(r, _rule_kernel(g, custom, quadrature_for(custom)).matrix)
    # the table of the grid against the sum over the antenna pairs
    quad = angular_kernel(g.positions, custom, quadrature_for(custom), 1.0 / (2.0 * np.pi))
    assert np.abs(r - quad).max() <= 1e-12 * np.abs(quad).max()
    assert np.abs(r - coupling_closed_form(g).matrix).max() > 0.1


def test_asymmetric_spectrum_keeps_complex_hermitian_correlation():
    # 1 + sin(theta) cos(phi) = 1 + kx / k is not point-symmetric in (kx, ky),
    # so R keeps an imaginary part; the cos(phi) term averages out, so it is
    # normalized with a mirrored lower hemisphere
    tilted = AngularSpectrum("tilted", lambda th, ph: 1.0 + np.sin(th) * np.cos(ph))
    q = quadrature_for(tilted)
    assert sphere_average(tilted, q) == pytest.approx(1.0, abs=1e-12)
    g = build_upa(3, 3, 0.3)
    r = exact_correlation(g, tilted).matrix
    assert np.iscomplexobj(r)
    assert np.array_equal(r, r.conj().T)
    assert np.abs(r.imag).max() > 1e-2
    # direct plane-wave sum over the same nodes: A[k, n] = exp(i k . r_n)
    theta, phi, qw = q
    k = 2 * np.pi
    a = np.exp(1j * k * (np.outer(np.sin(theta) * np.cos(phi), g.positions[:, 0])
                         + np.outer(np.sin(theta) * np.sin(phi), g.positions[:, 1])))
    w = qw * tilted(theta, phi) / (2.0 * np.pi)
    direct = (a.T * w) @ a.conj()
    assert np.abs(r - direct).max() < 1e-12


@pytest.mark.parametrize("grid", [True, False])
def test_a_small_tilt_keeps_a_complex_hermitian_kernel(grid):
    # 1 + 2e-6 sin(theta) cos(phi) leaves an imaginary part of about 8e-7 of
    # the peak, beyond the 1e-12 residue that point-symmetric densities stay
    # within: the 2-D rule returns the Hermitian part, complex, on a table
    # and on the antenna pairs alike
    tilted = AngularSpectrum("tilted", lambda th, ph: 1.0 + 2e-6 * np.sin(th) * np.cos(ph))
    g = build_upa(3, 3, 0.3)
    q = quadrature_for(tilted)
    m = angular_kernel(g.positions, tilted, q, HEMISPHERE, array_grid(g.positions) if grid else None)
    r = CorrelationMatrix(m, g, grid=array_grid(g.positions) if grid else None).matrix
    assert np.iscomplexobj(r)
    assert np.array_equal(r, r.conj().T)
    assert 1e-7 < np.abs(r.imag).max() / np.abs(r).max() < 1e-6
    # the real part is the point-symmetric density's kernel, 1, to roundoff
    ref = _rule_kernel(g, isotropic_spectrum(), q).matrix
    assert np.abs(r.real - ref).max() < 1e-14


@pytest.mark.parametrize("spectrum", [
    AngularSpectrum("cos", lambda th, ph: 2.0 * np.cos(th)),
    AngularSpectrum("upper", lambda th, ph: 2.0 * np.ones_like(th), lower="zero"),
    AngularSpectrum("stretched", lambda th, ph: 1.0 + 0.5 * np.sin(th) ** 2 * np.cos(2.0 * ph)),
    cap_spectrum(np.pi / 3),
], ids=["cos", "upper", "stretched", "cap"])
def test_point_symmetric_densities_keep_a_real_kernel(spectrum):
    # their imaginary part is quadrature roundoff (at most 8.3e-16 of the
    # peak), on a table and on the antenna pairs
    g = build_upa(7, 6, 0.3)
    q = quadrature_for(spectrum)
    for grid in (array_grid(g.positions), None):
        assert angular_kernel(g.positions, spectrum, q, HEMISPHERE, grid).dtype == np.float64


def test_jittered_array_correlation_matches_direct_sum():
    # irregular positions: each axis has ~N^2 unique differences
    rng = np.random.default_rng(12)
    jitter = np.c_[rng.uniform(-0.1, 0.1, (40, 2)), np.zeros(40)]
    g = ArrayGeometry(build_upa(8, 5, 0.5).positions + jitter)
    cap = cap_spectrum(np.pi / 3)
    q = quadrature_for(cap, n_theta=24, n_phi=48)
    r = angular_kernel(g.positions, cap, q, HEMISPHERE)
    theta, phi, qw = q
    a = _plane_waves(g, theta, phi)
    w = qw * cap(theta, phi) / (2.0 * np.pi)
    direct = (a * w) @ a.conj().T
    # differences are grouped at 1e-12 wavelengths: phase error <= pi * 1e-12
    assert np.abs(r - direct).max() < 1e-10


def test_jittered_array_cap_correlation_takes_the_radial_rule():
    # a uniform cap on an irregular array: the radial rule over the
    # N^2 pair distances, against a direct plane-wave sum on a fine 2-D rule
    rng = np.random.default_rng(12)
    jitter = np.c_[rng.uniform(-0.1, 0.1, (40, 2)), np.zeros(40)]
    g = ArrayGeometry(build_upa(8, 5, 0.5).positions + jitter)
    cap = cap_spectrum(np.pi / 3)
    r = exact_correlation(g, cap).matrix
    assert r.dtype == np.float64
    theta, phi, qw = quadrature_for(cap, n_theta=64, n_phi=128)
    a = _plane_waves(g, theta, phi)
    w = qw * cap(theta, phi) / (2.0 * np.pi)
    direct = (a * w) @ a.conj().T
    assert np.abs(r - direct).max() < 1e-12 * np.abs(direct).max()


def test_phase_kernel_takes_the_table_on_grids_and_the_pairs_off_them(monkeypatch):
    # a product table over the ~N^2 x N^2 unique differences of a jittered
    # array would cost nodes * N^4; the pairs cost nodes * N^2
    grids = []
    phase_kernel = holomimo._kernels.phase_kernel

    def spy(*args):
        grids.append(args[4])
        return phase_kernel(*args)

    monkeypatch.setattr(holomimo._kernels, "phase_kernel", spy)
    rng = np.random.default_rng(12)
    jitter = np.c_[rng.uniform(-0.1, 0.1, (20, 2)), np.zeros(20)]
    exact_correlation(ArrayGeometry(build_upa(5, 4, 0.5).positions + jitter), _TILTED)
    r = exact_correlation(build_upa(5, 4, 0.5), _TILTED)
    assert grids[0] is None and grids[1] is r.grid
    assert r.entries.shape == (9, 7)


def test_large_irregular_array_is_refused():
    # a density that depends on phi takes the 2-D rule over the antenna pairs
    # off a grid, and 2^17 nodes times 256^2 pairs are above its budget
    rng = np.random.default_rng(3)
    g = ArrayGeometry(np.c_[rng.uniform(0.0, 10.0, (256, 2)), np.zeros(256)])
    with pytest.raises(ValueError, match="gridded geometry.*uniform on its polar cap.*isotropic"):
        exact_correlation(g, _TILTED)
    # the closed form still serves this geometry
    assert exact_correlation(g, isotropic_spectrum()).matrix.shape == (256, 256)


@pytest.mark.parametrize("g", [build_upa(31, 31, 0.5), build_upa(16, 16, 0.4)],
                         ids=["31x31-0.5", "16x16-0.4"])
@pytest.mark.parametrize("theta0", [0.3, 0.6, 1.2])
def test_radial_rule_matches_the_2d_rule(g, theta0):
    # the default R of a cap against the 2-D product rule it replaces
    cap = cap_spectrum(theta0)
    r = exact_correlation(g, cap).matrix
    ref = _rule_kernel(g, cap, quadrature_for(cap)).matrix
    assert r.dtype == np.float64
    assert np.abs(r - ref).max() <= 1e-12 * np.abs(ref).max()


def test_radial_rule_is_converged(monkeypatch):
    # doubling both node counts moves the largest kernel at roundoff only
    g = build_upa(31, 31, 0.5)
    cap = cap_spectrum(1.2)
    r = exact_correlation(g, cap).matrix
    counts = holomimo._kernels._radial_counts
    monkeypatch.setattr(holomimo._kernels, "_radial_counts",
                        lambda x_max: tuple(2 * n for n in counts(x_max)))
    fine = exact_correlation(g, cap).matrix
    assert np.abs(fine - r).max() <= 1e-13 * np.abs(r).max()


def _j0_kernel(dist, density, scale):
    """scale * value * 2 pi * integral over the cap of J0(2 pi d sin theta)
    sin theta at the distances ``dist``: scipy's J0 on 800 Gauss-Legendre
    nodes in theta, independent of the radial rule's J0 and node counts."""
    t, w = np.polynomial.legendre.leggauss(800)
    theta = 0.5 * density.theta0 * (t + 1.0)
    w = np.pi * density.theta0 * w * np.sin(theta)
    d, inverse = np.unique(dist.ravel(), return_inverse=True)
    values = j0(np.multiply.outer(d, 2.0 * np.pi * np.sin(theta))) @ w
    return scale * density.evaluator.value * values[inverse].reshape(dist.shape)


_JITTERED = ArrayGeometry(build_upa(8, 5, 0.5).positions
                          + np.c_[np.random.default_rng(12).uniform(-0.1, 0.1, (40, 2)),
                                  np.zeros(40)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g", [build_upa(16, 16, 0.4), build_upa(31, 31, 0.5),
                               build_upa(101, 101, 0.25), _JITTERED],
                         ids=["16x16-0.4", "31x31-0.5", "101x101-0.25", "jittered-pairs"])
@pytest.mark.parametrize("theta0", [0.05, 0.6, 1.2, 1.55])
def test_radial_rule_matches_a_j0_reference(g, theta0):
    # the interpolated kernel against scipy's J0 at every distance; 0 and the
    # largest distance are Chebyshev nodes, so they hold the rule's own values
    cap = cap_spectrum(theta0)
    table, grid = density_kernel(g.positions, cap, HEMISPHERE)
    if grid is None:
        x, y = g.positions[:, 0], g.positions[:, 1]
        dist, origin = np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y)), np.diag(table)
    else:
        dist, origin = np.hypot(grid.dx[:, None], grid.dy[None, :]), table[grid.origin]
    ref = _j0_kernel(dist, cap, HEMISPHERE)
    assert np.abs(table - ref).max() <= 1e-13 * np.abs(ref).max()
    n_theta, n_phi, n_cheb = _radial_counts(2.0 * np.pi * dist.max() * np.sin(theta0))
    rule = _theta_rule(_chebyshev_points(n_cheb, dist.max()), cap, HEMISPHERE, n_theta, n_phi)
    assert np.all(origin == rule[0]) and np.all(table[dist == dist.max()] == rule[-1])
    # HEMISPHERE * value * 2 pi (1 - cos theta0) = 2, up to the roundoff of
    # the cap's constant 1 / sin^2(theta0 / 2)
    assert np.abs(origin - 2.0).max() <= 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("positions", [[[0.3, -0.2, 0.0]], [[0.0, 0.0, 0.0], [0.37, 0.11, 0.0]]],
                         ids=["one", "two"])
def test_cap_kernels_on_one_and_two_antennas(positions):
    # an array whose largest distance is 0 or whose distances are fewer than
    # the interpolation nodes takes the theta rule at each distance
    g = ArrayGeometry(positions)
    x, y = g.positions[:, 0], g.positions[:, 1]
    dist = np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y))
    cap = cap_spectrum(0.6)
    r = exact_correlation(g, cap).matrix
    assert np.abs(r - _j0_kernel(dist, cap, HEMISPHERE)).max() <= 1e-13 * 2.0
    pattern = matched_pattern(cap_spectrum(0.5))
    c = coupling_general(g, pattern)
    assert c.kind == "general(matched(cap(0.5)))"
    assert np.abs(c.matrix - _j0_kernel(dist, pattern, _coupling_scale(pattern))).max() <= 1e-13
    assert np.all(np.diag(c.matrix) == c.matrix[0, 0])


def test_hemisphere_cap_takes_the_closed_form():
    # cap(pi/2) is uniform on the whole upper hemisphere: R is 2 sinc(2 d)
    # and its matched C the sinc, neither from a rule
    g = build_upa(31, 31, 0.5)
    cap = cap_spectrum(np.pi / 2)
    c = coupling_general(g, matched_pattern(cap))
    assert c.kind == "closed-form"
    assert np.abs(c.matrix - coupling_closed_form(g).matrix).max() <= 1e-15
    assert coupling_ratio(cap, matched_pattern(cap)) == 0.5
    r = exact_correlation(g, cap).matrix
    ref = _rule_kernel(g, cap, quadrature_for(cap)).matrix
    assert np.abs(r - ref).max() <= 1e-12 * np.abs(ref).max()


def _refuse_phase_table(*args, **kwargs):
    raise AssertionError("a density uniform on its cap built the 2-D phase table")


def test_cap_spectra_never_build_the_phase_table(monkeypatch):
    monkeypatch.setattr(holomimo._kernels, "phase_kernel", _refuse_phase_table)
    g = build_upa(7, 6, 0.3)
    s = spectrum_from_name("cap(0.6)")
    ev, coupled = exact_spectra(g, s, pattern_from_name("matched", s), [0.01])
    assert ev.size == 42 and len(coupled) == 1
    c = coupling_general(g, matched_pattern(cap_spectrum(0.3)))
    assert c.kind == "general(matched(cap(0.3)))"


def test_custom_spectrum_takes_the_phase_table(monkeypatch):
    # a density with an evaluator of its own keeps the 2-D rule, even when it
    # is uniform on its cap
    calls = []
    phase_kernel = holomimo._kernels.phase_kernel

    def count(*args):
        calls.append(args)
        return phase_kernel(*args)

    monkeypatch.setattr(holomimo._kernels, "phase_kernel", count)
    upper = AngularSpectrum("upper", lambda th, ph: 2.0 * np.ones_like(th), lower="zero")
    assert not _uniform_on_cap(upper)
    exact_correlation(build_upa(4, 4, 0.3), upper)
    assert len(calls) == 1


# Peak-relative agreement of the shared-eigh whitening with the per-rho
# matrix path: both are backward stable, so they differ by roundoff times
# cond(C + rho I) <= ~5e3 here (observed <= 1.3e-13), far below this bound.
WHITENED_RTOL = 1e-10


# 1 + sin^2(theta) cos(2 (phi - pi/4)) / 2 is point-symmetric but even under
# neither x -> -x nor y -> -y
_DIAGONAL = AntennaPattern("diagonal", lambda th, ph:
                           1.0 + 0.5 * np.sin(th) ** 2 * np.cos(2.0 * (ph - np.pi / 4)))
# 1 + sin(theta) cos(phi) / 2 is even under y -> -y only (a complex Hermitian R)
_TILTED = AngularSpectrum("tilted", lambda th, ph: 1.0 + 0.5 * np.sin(th) * np.cos(ph))


@pytest.mark.parametrize("g, spectrum, pattern, n_sectors", [
    (build_upa(8, 8, 0.25), isotropic_spectrum(), None, 5),
    (build_upa(7, 7, 0.5), cap_spectrum(np.pi / 3), "matched", 5),
    (build_upa(7, 6, 0.3), cap_spectrum(np.pi / 3), "matched", 4),
    (build_ula(12, 0.2), isotropic_spectrum(), None, 2),
    (build_upa(7, 6, 0.3), isotropic_spectrum(), _DIAGONAL, 1),
    (build_upa(7, 6, 0.3), _TILTED, omni_pattern(), 2),
], ids=["8-0.25-spectrum0-False", "7-0.5-spectrum1-True", "7x6-0.3-spectrum1-True",
        "ula12-0.2-spectrum0-False", "7x6-diagonal-pattern", "7x6-tilted-complex-r"])
def test_whitened_eigenvalues_match_matrix_path(g, spectrum, pattern, n_sectors):
    # the whitening splits on the reflections of R that C also commutes with
    r = exact_correlation(g, spectrum)
    if pattern is None:
        c = coupling_closed_form(g)
    else:
        c = coupling_general(g, matched_pattern(spectrum) if pattern == "matched" else pattern)
    assert len(r.sectors(c)) == n_sectors
    rhos = [0.1, 0.01, 0.001]
    got = whitened_eigenvalues(r, c, rhos)
    assert got.shape == (3, g.n_antennas)
    for ev, rho in zip(got, rhos):
        ref = coupled_correlation_exact(r, regularize(c, rho)).eigenvalues()
        assert np.all(np.diff(ev) <= 0.0)
        assert np.abs(ev - ref).max() <= WHITENED_RTOL * ref[0]


def test_whitened_eigenvalues_refuse_singular_coupling():
    g = build_upa(10, 10, 0.25)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_closed_form(g)
    with pytest.raises(SingularCouplingError, match=r"rho=0\)"):
        whitened_eigenvalues(r, c, [0.0])
    # the reported rho includes loading already applied to C
    with pytest.raises(SingularCouplingError, match=r"rho=1e-13\)"):
        whitened_eigenvalues(r, regularize(c, 1e-13), [0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        whitened_eigenvalues(r, c, [-0.1])


def test_whitening_refusal_reports_the_dense_smallest_eigenvalue(monkeypatch):
    # C - 0.5 I keeps the grid's symmetry and has a well-conditioned negative
    # smallest eigenvalue, so the sector and dense values agree to roundoff
    g = build_upa(7, 6, 0.3)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_closed_form(g)
    table = c.entries.copy()
    table[c.grid.origin] -= 0.5
    c = CouplingMatrix(table, g, grid=c.grid)
    assert len(r.sectors(c)) == 4
    dense = np.linalg.eigh(c.matrix)[0].min()
    reported = []
    check_floor = holomimo.channel._check_floor

    def spy(eigmin, rho):
        reported.append(eigmin)
        check_floor(eigmin, rho)

    def no_solve(*args, **kwargs):
        raise AssertionError("a per-rho solve ran before the refusal")

    monkeypatch.setattr(holomimo.channel, "_check_floor", spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    # rho=1 alone would pass: the refusal at rho=0 comes before any solve
    with pytest.raises(SingularCouplingError,
                       match=f"smallest eigenvalue {dense:.6e} .*rho=0\\)"):
        whitened_eigenvalues(r, c, [1.0, 0.0])
    assert reported[-1] == pytest.approx(dense, rel=1e-12)


# Mirror-symmetric points off any grid, with stabilizers of order 1, 2 and 4,
# listed in shuffled order: without a grid they are solved as one sector.
_rng = np.random.default_rng(5)
_quarter = _rng.uniform(0.2, 1.5, (4, 2))
_SYMMETRIC_POINTS = np.vstack([_quarter * s for s in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
                              + [[[0.7, 0.0], [-0.7, 0.0], [0.0, 0.9], [0.0, -0.9], [0.0, 0.0]]])
_SYMMETRIC_POINTS = np.c_[_SYMMETRIC_POINTS[_rng.permutation(21)], np.zeros(21)]
_JITTER = np.c_[_rng.uniform(-0.05, 0.05, (20, 2)), np.zeros(20)]
# 1 + sin(theta) cos(phi - pi/4) / 2: neither x -> -x nor y -> -y leaves it unchanged
_SKEWED = AngularSpectrum("skewed", lambda th, ph: 1.0 + 0.5 * np.sin(th) * np.cos(ph - np.pi / 4))
# 1 + sin^2(theta) cos(2 phi) / 2 is even under both mirrors but odd under x <-> y
_STRETCHED = AngularSpectrum("stretched", lambda th, ph:
                             1.0 + 0.5 * np.sin(th) ** 2 * np.cos(2.0 * ph))


@pytest.mark.parametrize("g, spectrum, n_sectors", [
    (build_upa(7, 6, 0.3), isotropic_spectrum(), 4),
    (build_upa(6, 7, 0.3), cap_spectrum(np.pi / 3), 4),
    (build_ula(9, 0.4), isotropic_spectrum(), 2),
    (build_ula(9, 0.4), cap_spectrum(np.pi / 3), 2),
    (build_upa(5, 4, 0.35).translated([1.3, -0.7, 0.2]), cap_spectrum(np.pi / 3), 4),
    (ArrayGeometry(_SYMMETRIC_POINTS), isotropic_spectrum(), 1),
    (ArrayGeometry(_SYMMETRIC_POINTS), cap_spectrum(np.pi / 3), 1),
    (ArrayGeometry(build_upa(5, 4, 0.5).positions + _JITTER), isotropic_spectrum(), 1),
    (build_upa(5, 4, 0.35), _SKEWED, 1),
    (build_upa(5, 4, 0.35), _TILTED, 2),
    (build_upa(8, 8, 0.3), isotropic_spectrum(), 5),
    (build_upa(7, 7, 0.5), cap_spectrum(np.pi / 3), 5),
    (build_upa(6, 6, 0.35).translated([1.3, -0.7, 0.2]), cap_spectrum(np.pi / 3), 5),
    (build_upa(6, 6, 0.3, 0.35), isotropic_spectrum(), 4),
    (build_upa(6, 6, 0.3), _STRETCHED, 4),
], ids=["7x6", "6x7-cap", "ula", "ula-cap", "translated", "points", "points-cap",
        "jittered", "skewed-density", "tilted-density", "8x8-square", "7x7-square-cap",
        "translated-square-cap", "non-square-spacing", "diagonal-breaking-density"])
def test_sector_eigenvalues_match_dense(g, spectrum, n_sectors):
    # a square grid adds the diagonal x <-> y: the dihedral group's four
    # one-dimensional blocks and the (+, -) mirror block counted twice
    r = exact_correlation(g, spectrum)
    sectors = r.sectors()
    assert len(sectors) == n_sectors
    multiplicities = [1, 1, 1, 1, 2] if n_sectors == 5 else [1] * n_sectors
    assert [s.multiplicity for s in sectors] == multiplicities
    assert sum(s.rows.size * s.multiplicity for s in sectors) == g.n_antennas
    # the sector bases are orthonormal, together a basis of all but the
    # copies, and each block is Q_s^H R Q_s
    q_cols = []
    for s in sectors:
        basis = np.zeros((g.n_antennas, s.rows.size))
        for sign, image in zip(s.signs, s.images):
            basis[image, np.arange(s.rows.size)] += sign
        basis /= np.sqrt(len(s.signs) / s.scale ** 2)
        assert np.allclose(s.block(r), basis.T @ r.matrix @ basis, atol=1e-14)
        q_cols.append(basis)
    q_all = np.hstack(q_cols)
    assert np.allclose(q_all.T @ q_all, np.eye(q_all.shape[1]), atol=1e-14)
    ev = r.eigenvalues()
    ref = np.linalg.eigvalsh(r.matrix)[::-1]
    assert np.all(np.diff(ev) <= 0.0)
    assert np.abs(ev - ref).max() <= 1e-12 * ref[0]


def test_whitening_with_a_diagonal_breaking_pattern_drops_the_diagonal():
    # R of the square grid keeps x <-> y, C does not: the whitening splits on
    # the mirrors alone
    g = build_upa(6, 6, 0.3)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_general(g, _STRETCHED)
    assert "diagonal" in r.reflections and "diagonal" not in c.reflections
    assert len(r.sectors(c)) == 4
    got = whitened_eigenvalues(r, c, [0.01])[0]
    ref = coupled_correlation_exact(r, regularize(c, 0.01)).eigenvalues()
    assert np.abs(got - ref).max() <= WHITENED_RTOL * ref[0]


def test_scalar_path_builds_no_dense_matrix(monkeypatch):
    # fig5's array: R stays a table over the 81 x 81 differences, its sector
    # blocks are gathered from it, and no N x N array is allocated
    def refuse(self):
        raise AssertionError("a kernel on the scalar path formed its N x N matrix")

    monkeypatch.setattr(holomimo.coupling.Kernel, "matrix", property(refuse))
    g = build_upa(41, 41, 0.25)
    tracemalloc.start()
    try:
        ev, coupled = exact_spectra(g, isotropic_spectrum(), omni_pattern(), [0.1, 0.01, 0.001])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.size == 1681 and len(coupled) == 3
    assert peak < 8 * 1681 ** 2


@pytest.mark.parametrize("g, spectrum, pattern, rho, checks", [
    (build_upa(7, 6, 0.3), isotropic_spectrum(), omni_pattern(), [0.01], 2),
    (build_upa(7, 6, 0.3), isotropic_spectrum(), omni_pattern(), [], 2),
    (build_upa(7, 6, 0.3), cap_spectrum(np.pi / 3), omni_pattern(), [0.01], 4),
    (build_upa(6, 6, 0.3), cap_spectrum(np.pi / 3), omni_pattern(), [0.01], 6),
], ids=["coupled", "uncoupled", "coupled-general", "square-coupled-general"])
def test_exact_spectra_check_each_reflection_once_per_kernel(monkeypatch, g, spectrum, pattern,
                                                             rho, checks):
    # each kernel's table is checked once per reflection of the array (x and
    # y, and the diagonal of a square one) for its eigenvalues and the
    # whitening together; C is built only for a pattern not proportional to
    # the spectrum
    even = holomimo.coupling._even
    grid = array_grid(g.positions)
    calls = []

    def count(table, name):
        assert table.shape == (grid.dx.size, grid.dy.size)
        calls.append((id(table), name))
        return even(table, name)

    monkeypatch.setattr(holomimo.coupling, "_even", count)
    ev, coupled = exact_spectra(g, spectrum, pattern, rho)
    assert len(calls) == checks and len(set(calls)) == checks
    assert ev.size == g.n_antennas and len(coupled) == len(rho)


def _refuse_coupling(*args, **kwargs):
    raise AssertionError("C built or whitened in general for a pattern proportional to the "
                         "spectrum")


@pytest.mark.parametrize("g, spectrum, pattern, kappa", [
    (build_upa(7, 6, 0.3), "isotropic", "omni", 1.0),
    (build_ula(12, 0.2), "isotropic", "omni", 1.0),
    (build_upa(7, 6, 0.3), "cap(0.6)", "matched", 0.5),
    # a spelled-out match equal to the spectrum is the spectrum's own density
    (build_upa(7, 6, 0.3), "cap(0.6)", "matched(cap(0.6))", 0.5),
    # and so is a pattern matched to a cap parsed on its own: densities are
    # known by their value
    (build_upa(7, 6, 0.3), "cap(0.6)", matched_pattern(cap_spectrum(0.6)), 0.5),
], ids=["7x6-omni", "ula-omni", "7x6-cap-matched", "7x6-cap-matched-spelled-out",
        "7x6-cap-matched-parsed-apart"])
def test_proportional_pattern_whitens_by_the_scalar_map(monkeypatch, g, spectrum, pattern, kappa):
    # C = kappa R: the whitened spectrum is lambda / (kappa lambda + rho), and
    # C is never built
    s = spectrum_from_name(spectrum)
    p = pattern if isinstance(pattern, AngularSpectrum) else pattern_from_name(pattern, s)
    assert coupling_ratio(s, p) == kappa
    rhos = [0.1, 0.01, 0.001]
    dense = whitened_eigenvalues(exact_correlation(g, s), coupling_general(g, p), rhos)
    monkeypatch.setattr(holomimo.channel, "coupling_general", _refuse_coupling)
    monkeypatch.setattr(holomimo.channel, "whitened_eigenvalues", _refuse_coupling)
    _, coupled = exact_spectra(g, s, p, rhos)
    assert coupled.shape == (len(rhos), g.n_antennas)
    for ev, ref in zip(coupled, dense):
        assert np.all(np.diff(ev) <= 0.0)
        assert np.abs(ev - ref).max() <= 1e-12 * ref[0]


@pytest.mark.parametrize("spectrum, pattern", [
    ("cap(0.6)", "omni"),
    ("cap(0.31)", "matched(cap(0.3))"),
])
def test_other_patterns_build_coupling_once(monkeypatch, spectrum, pattern):
    s = spectrum_from_name(spectrum)
    p = pattern_from_name(pattern, s)
    assert coupling_ratio(s, p) is None
    built = []

    def count(*args):
        built.append(args)
        return coupling_general(*args)

    monkeypatch.setattr(holomimo.channel, "coupling_general", count)
    exact_spectra(build_upa(5, 4, 0.3), s, p, [0.1, 0.01])
    assert len(built) == 1


def test_scalar_map_refuses_the_floor_like_the_dense_path(monkeypatch):
    g = build_upa(10, 10, 0.25)
    s = isotropic_spectrum()
    with pytest.raises(SingularCouplingError) as dense:
        whitened_eigenvalues(exact_correlation(g, s), coupling_general(g, omni_pattern()), [0.0])
    monkeypatch.setattr(holomimo.channel, "coupling_general", _refuse_coupling)
    with pytest.raises(SingularCouplingError) as scalar:
        exact_spectra(g, s, omni_pattern(), [0.1, 0.0])
    # the smallest eigenvalue comes from R here and from C there, so it may
    # differ at roundoff; the rest of the text is the same
    def text(exc):
        return re.sub(r"eigenvalue \S+ <=", "eigenvalue ... <=", str(exc.value))

    assert text(scalar) == text(dense)
    assert "rho=0)" in text(scalar)


@pytest.mark.parametrize("spectrum, pattern", [
    ("isotropic", "omni"), ("cap(0.6)", "omni"), ("cap(0.6)", "matched"),
])
def test_small_rho_rows_come_clipped_from_the_stage(spectrum, pattern):
    # the whitened matrix is as positive semidefinite as R (Sylvester's law of
    # inertia), but the whitening amplifies R's roundoff by about top / rho:
    # on 16x16 at quarter-wavelength spacing and rho = 1e-8 the unclipped rows
    # dip below -1e-8 of their top, which exact_model refuses
    g = build_upa(16, 16, 0.25)
    s = spectrum_from_name(spectrum)
    p = pattern_from_name(pattern, s)
    r = exact_correlation(g, s)
    kappa = coupling_ratio(s, p)
    lam = r.eigenvalues()
    raw = (whitened_eigenvalues(r, coupling_general(g, p), [1e-8])[0] if kappa is None
           else lam / (kappa * lam + 1e-8))
    ev, rows = exact_spectra(g, s, p, [1e-8])
    assert np.array_equal(ev, np.clip(lam, 0.0, None))
    assert np.array_equal(rows, np.clip(raw, 0.0, None)[None, :])
    model = exact_model(rows[0], g.n_antennas, "receive")
    assert np.all(np.isfinite(model.amp_t))


def test_exact_spectra_refuse_an_indefinite_correlation():
    negative = AngularSpectrum("negative", lambda th, ph: -np.ones_like(th))
    with pytest.raises(ValueError, match="correlation matrix R is not positive semidefinite"):
        exact_spectra(build_upa(4, 4, 0.5), negative, omni_pattern(), [])


def test_whitened_eigenvalues_refuse_an_indefinite_correlation():
    # the rows are clipped at zero, which must not hide an R that is not
    # positive semidefinite: its sign comes from its own eigenvalues
    g = build_upa(4, 4, 0.5)
    c = coupling_general(g, omni_pattern())
    negative = AngularSpectrum("negative", lambda th, ph: -np.ones_like(th))
    with pytest.raises(ValueError, match="correlation matrix R is not positive semidefinite"):
        whitened_eigenvalues(exact_correlation(g, negative), c, [0.1])
    # one eigenvalue of -1e-6 of the top, far above roundoff yet small enough
    # that the clip would zero it
    r = exact_correlation(g, isotropic_spectrum()).matrix
    lam, v = np.linalg.eigh(r)
    lam[0] = -1e-6 * lam[-1]
    shifted = CorrelationMatrix((v * lam) @ v.conj().T)
    with pytest.raises(ValueError, match="correlation matrix R is not positive semidefinite"):
        whitened_eigenvalues(shifted, CouplingMatrix(c.matrix), [0.1])


def test_raw_whitened_rows_come_clipped():
    # at rho = 1e-8 the whitening amplifies R's roundoff to about -8.7e-7
    # (-7.6e-8 of the top) on this array; the public call now returns the
    # stage's clipped row, which exact_model takes
    g = build_upa(21, 21, 0.25)
    s = cap_spectrum(0.6)
    row = whitened_eigenvalues(exact_correlation(g, s), coupling_general(g, omni_pattern()),
                               [1e-8])[0]
    assert row.min() == 0.0
    assert np.array_equal(row, exact_spectra(g, s, omni_pattern(), [1e-8])[1][0])
    model = exact_model(row, g.n_antennas, "receive")
    assert np.all(np.isfinite(model.amp_t))


def test_sign_rule_is_relative_to_the_top():
    # a negative entry five times the top is refused however small the
    # spectrum; up to 1e-12 of the top it is roundoff
    with pytest.raises(ValueError, match="transmit spectrum is not positive semidefinite"):
        exact_model([1e-9, -5e-9])
    assert exact_model([1e-9, -0.9e-21]).amp_t[1] == 0.0
    with pytest.raises(ValueError, match="not positive semidefinite"):
        exact_model([1e-9, -1.1e-21])


def test_correlation_diagonal():
    g = build_upa(4, 4, 0.4)
    assert np.allclose(np.diag(exact_correlation(g, isotropic_spectrum()).matrix).real, 1.0,
                       atol=1e-10)
    # one-sided caps put all the power above the plane: ++ diagonal of 2
    assert np.allclose(np.diag(exact_correlation(g, cap_spectrum(0.8)).matrix).real, 2.0,
                       atol=1e-8)


def test_correlation_translation_invariant_and_psd():
    g = build_upa(5, 3, 0.45)
    r0 = exact_correlation(g, cap_spectrum(np.pi / 3)).matrix
    r1 = exact_correlation(g.translated([0.7, -4.1, 0.0]), cap_spectrum(np.pi / 3)).matrix
    assert np.abs(r0 - r1).max() < 1e-10
    assert np.abs(r0 - r0.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(r0)[0] > -1e-9


def test_whitening_identity_matched_isotropic():
    # matched pattern under isotropic scattering: C and R are the same operator
    g = build_upa(6, 6, 0.4)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_general(g, matched_pattern(isotropic_spectrum()))
    w = coupled_correlation_exact(r, c).matrix
    assert np.abs(w - np.eye(36)).max() < 1e-6


def test_whitening_matched_cap_gives_twice_identity():
    # a one-sided cap spectrum has twice the upper-hemisphere mass of its
    # matched full-sphere-normalized pattern, so whitening yields 2I
    g = build_upa(5, 5, 0.4)
    cap = cap_spectrum(np.pi / 3)
    r = exact_correlation(g, cap)
    c = coupling_general(g, matched_pattern(cap))
    w = coupled_correlation_exact(r, c).matrix
    assert np.abs(w - 2.0 * np.eye(25)).max() < 1e-6


def test_substreams_are_reproducible_and_independent():
    draws = {i: complex_normal(substream(42, i), 8) for i in (0, 1, 5)}
    # recomputing any index gives the same numbers, regardless of order
    assert np.array_equal(complex_normal(substream(42, 5), 8), draws[5])
    assert not np.allclose(draws[0], draws[1])
    assert not np.allclose(complex_normal(substream(43, 0), 8), draws[0])


@pytest.mark.parametrize("seed", [0, 66, 2**128 - 1])
def test_complex_normal_matches_the_two_draw_expression(seed):
    # one draw of both parts scaled in place gives the bits of the
    # (a + 1j b) / sqrt(2) that every stored W was drawn with
    for shape in (1, 7, (3, 5), (16, 9), (2, 3, 4)):
        for index in (0, 1, 99, 2**40 + 3):
            rng = substream(seed, index)
            old = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            w = complex_normal(substream(seed, index), shape)
            assert w.shape == old.shape and w.dtype == old.dtype
            assert np.array_equal(w.view(float), old.view(float))


def test_complex_normal_unit_variance():
    w = complex_normal(substream(7), 200_000)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=5e-3)
    assert abs(np.mean(w)) < 5e-3
    # real and imaginary parts carry half the power each
    assert np.mean(w.real**2) == pytest.approx(0.5, rel=1e-2)


def test_fourier_model_covariance():
    g = build_upa(5, 5, 0.4)
    b = build_fourier_basis(g, isotropic_spectrum())
    model = fourier_model(b, b)
    lam_r = 25 * b.variances
    second = np.zeros((b.n_points, b.n_points))
    n_mc = 400
    for i in range(n_mc):
        h = model.realize(11, i)
        second += np.abs(h) ** 2
    second /= n_mc
    expect = np.outer(lam_r, lam_r)
    assert np.abs(second - expect).max() / expect.max() < 0.12


def _antenna_draw(r, c, seed, index, n_rx=None, receive=False):
    """One antenna-domain draw G R^{1/2} C^{-1/2}, G i.i.d. CN(0, 1) from
    substream (seed, index), the dense reference of the diagonal form;
    ``receive`` scales its power as ``exact_model``'s "receive" does."""
    t = spd_sqrt(r).astype(complex) @ spd_inv_sqrt(c)
    n = t.shape[0]
    if receive:
        t = t * np.sqrt(n / np.trace(t.conj().T @ t).real)
    return complex_normal(substream(seed, index), (n_rx or n, n)) @ t


def test_exact_model_covariance():
    # the antenna-domain draws G R^{1/2} C^{-1/2} carry the whitened correlation
    g = build_upa(3, 3, 0.5)
    r = exact_correlation(g, isotropic_spectrum())
    c = regularize(coupling_closed_form(g), 0.05)
    target = coupled_correlation_exact(r, c).matrix
    acc = np.zeros((9, 9), dtype=complex)
    n_mc = 600
    for i in range(n_mc):
        h = _antenna_draw(r, c, 5, i, n_rx=16)
        acc += h.conj().T @ h
    acc /= n_mc * 16
    assert np.abs(acc - target).max() / np.abs(target).max() < 0.1


def test_exact_model_receive_normalization():
    g = build_upa(4, 4, 0.4)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_closed_form(g)
    ev = whitened_eigenvalues(r, c, [0.1])[0]
    m = exact_model(ev)
    assert np.allclose(m.amp_t ** 2, ev, rtol=1e-12, atol=0.0)
    assert np.array_equal(m.amp_r, np.ones(16))
    # the spectrum's sum is the delivered power tr(C^{-1/2} R C^{-1/2})
    whitened = coupled_correlation_exact(r, regularize(c, 0.1)).matrix
    assert ev.sum() == pytest.approx(np.trace(whitened).real, rel=1e-10)
    mr = exact_model(ev, normalize="receive")
    assert np.sum(mr.amp_t ** 2) == pytest.approx(16.0, rel=1e-12)
    assert np.allclose(mr.amp_t / m.amp_t, mr.amp_t[0] / m.amp_t[0], rtol=1e-12, atol=0.0)
    # uncoupled, eig R already sums to tr R = N, so the scale is a no-op
    lam = r.eigenvalues()
    mu = exact_model(lam, normalize="receive")
    mt = exact_model(lam, normalize="transmit")
    assert np.allclose(mt.amp_t ** 2, np.clip(lam, 0.0, None), rtol=1e-12, atol=1e-15)
    assert np.abs(mu.amp_t - mt.amp_t).max() < 1e-9
    with pytest.raises(ValueError):
        exact_model(lam, normalize="both")


def test_exact_model_refuses_powerless_receive_spectrum():
    with pytest.raises(ValueError, match="no power"):
        exact_model(np.zeros(4), normalize="receive")
    # the transmit reference keeps a dead array as zero amplitudes
    assert np.array_equal(exact_model(np.zeros(4)).amp_t, np.zeros(4))


@pytest.mark.parametrize("last", [
    lambda lam: exact_model(lam).amp_t[-1],
    lambda lam: spd_sqrt(np.diag(lam))[-1, -1],
], ids=["exact_model", "spd_sqrt"])
def test_exact_model_refuses_indefinite_spectrum(last):
    # every spectrum-sign check is one rule with one roundoff tolerance
    with pytest.raises(ValueError, match="not positive semidefinite"):
        last([2.0, 1.0, -0.5])
    # negatives within 1e-12 of the top are roundoff and clipped to zero
    assert last([2.0, 1.0, -1e-13]) == 0.0


def test_diagonal_form_matches_antenna_domain_capacity():
    # G R^{1/2} C^{-1/2} and W diag(sqrt(eig)) share their singular-value law
    # (G is unitarily invariant), so their ergodic capacities agree within
    # Monte-Carlo error; independent seeds keep the two samples independent
    g = build_upa(6, 6, 0.4)
    r = exact_correlation(g, isotropic_spectrum())
    c = coupling_closed_form(g)
    snr_db = np.array([-10.0, 0.0, 10.0, 20.0, 30.0])
    n_mc = 300
    diag, = ergodic_capacity([exact_model(whitened_eigenvalues(r, c, [0.03])[0],
                                          normalize="receive")], snr_db, n_mc, seed=1)
    loaded = regularize(c, 0.03)
    caps = np.empty((n_mc, snr_db.size))
    for i in range(n_mc):
        h = _antenna_draw(r, loaded, 2, i, receive=True)
        lam = np.linalg.svd(h, compute_uv=False) ** 2
        caps[i] = _capacity_grid(lam[lam > lam[0] * 1e-30], 10.0 ** (snr_db / 10.0))
    antenna_mean = caps.mean(axis=0)
    antenna_stderr = caps.std(axis=0, ddof=1) / np.sqrt(n_mc)
    gap = np.abs(diag.capacity_bits - antenna_mean)
    assert np.all(gap <= 3.0 * np.hypot(diag.stderr, antenna_stderr))


def test_iid_model_refuses_an_empty_side():
    # a model with no antenna at one end has no channel to draw; before, the
    # capacity pass failed on it with a bare IndexError
    with pytest.raises(ValueError, match=r"an antenna at each end, got shape \(0, 3\)"):
        iid_model(0, 3)


def test_exact_model_refuses_no_receive_antennas():
    with pytest.raises(ValueError, match=r"an antenna at each end, got shape \(0, 2\)"):
        exact_model([1.0, 2.0], n_rx=0)


def test_exact_model_refuses_a_fractional_receive_count():
    # 2.7 receive antennas is not truncated to 2; a whole count in a float is taken
    with pytest.raises(ValueError, match="n_rx must be an integer, got 2.7"):
        exact_model([1.0, 2.0], n_rx=2.7)
    # nor is a boolean taken for one antenna, or a string parsed
    for bad in (True, "3"):
        with pytest.raises(ValueError, match="n_rx must be an integer"):
            exact_model([1.0, 2.0], n_rx=bad)
    assert exact_model([1.0, 2.0], n_rx=3.0).shape == (3, 2)


def test_iid_model_draws():
    m = iid_model(4, 7)
    h = m.realize(0, 0)
    assert h.shape == (4, 7)
    assert np.array_equal(h, iid_model(4, 7).realize(0, 0))
