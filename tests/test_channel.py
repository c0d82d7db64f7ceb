import numpy as np
import pytest

from holomimo import (AngularSpectrum, ArrayGeometry, CorrelationMatrix, SingularCouplingError,
                      array_response, build_fourier_basis, build_upa, cap_spectrum,
                      check_normalization, coupled_correlation_exact, coupling_closed_form, coupling_general,
                      ergodic_capacity, exact_correlation, exact_model,
                      fourier_correlation, fourier_model, iid_model, isotropic_spectrum,
                      matched_pattern, omni_pattern, quadrature_for, regularize,
                      sample_exact_channel, sample_fourier_channel, spd_inv_sqrt,
                      whitened_eigenvalues)
from holomimo._kernels import angular_kernel
from holomimo.capacity import _capacity_grid
from holomimo.channel import complex_normal, substream
from holomimo.geometry import CONSTANTS


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
    assert check_normalization(custom) == pytest.approx(1.0, abs=1e-6)
    g = build_upa(4, 4, 0.3)
    r = exact_correlation(g, custom).matrix
    quad = angular_kernel(g.positions, custom, quadrature_for(custom), 1.0 / (2.0 * np.pi))
    assert np.array_equal(r, quad)
    assert np.abs(r - coupling_closed_form(g).matrix).max() > 0.1


def test_asymmetric_spectrum_keeps_complex_hermitian_correlation():
    # 1 + sin(theta) cos(phi) = 1 + kx / k is not point-symmetric in (kx, ky),
    # so R keeps an imaginary part; the cos(phi) term averages out, so it is
    # normalized with a mirrored lower hemisphere
    tilted = AngularSpectrum("tilted", lambda th, ph: 1.0 + np.sin(th) * np.cos(ph))
    q = quadrature_for(tilted, n_theta=64, n_phi=128)
    assert check_normalization(tilted, q) == pytest.approx(1.0, abs=1e-12)
    g = build_upa(3, 3, 0.3)
    r = exact_correlation(g, tilted, q).matrix
    assert np.iscomplexobj(r)
    assert np.array_equal(r, r.conj().T)
    assert np.abs(r.imag).max() > 1e-2
    # direct plane-wave sum over the same nodes: A[k, n] = exp(i k . r_n)
    theta, phi = q.grids()
    k = CONSTANTS.wavenumber
    a = np.exp(1j * k * (np.outer(np.sin(theta) * np.cos(phi), g.positions[:, 0])
                         + np.outer(np.sin(theta) * np.sin(phi), g.positions[:, 1])))
    w = q.weights() * tilted(theta, phi) / (2.0 * np.pi)
    direct = (a.T * w) @ a.conj()
    assert np.abs(r - direct).max() < 1e-12


def test_jittered_array_correlation_matches_direct_sum():
    # irregular positions: each axis has ~N^2 unique differences
    rng = np.random.default_rng(12)
    jitter = np.c_[rng.uniform(-0.1, 0.1, (40, 2)), np.zeros(40)]
    g = ArrayGeometry(build_upa(8, 5, 0.5).positions + jitter)
    cap = cap_spectrum(np.pi / 3)
    q = quadrature_for(cap, n_theta=24, n_phi=48)
    r = exact_correlation(g, cap, q).matrix
    theta, phi = q.grids()
    a = array_response(g, theta, phi).reshape(40, -1)
    w = (q.weights() * cap(theta, phi) / (2.0 * np.pi)).ravel()
    direct = (a * w) @ a.conj().T
    # differences are grouped at 1e-12 wavelengths: phase error <= pi * 1e-12
    assert np.abs(r - direct).max() < 1e-10


def test_large_irregular_array_is_refused():
    rng = np.random.default_rng(3)
    g = ArrayGeometry(np.c_[rng.uniform(0.0, 10.0, (256, 2)), np.zeros(256)])
    with pytest.raises(ValueError, match="gridded geometry.*isotropic"):
        exact_correlation(g, cap_spectrum(0.8))
    # the closed form still serves this geometry
    assert exact_correlation(g, isotropic_spectrum()).matrix.shape == (256, 256)


# Peak-relative agreement of the shared-eigh whitening with the per-rho
# matrix path: both are backward stable, so they differ by roundoff times
# cond(C + rho I) <= ~5e3 here (observed <= 1.3e-13), far below this bound.
WHITENED_RTOL = 1e-10


@pytest.mark.parametrize("n, spacing, spectrum, matched", [
    (8, 0.25, isotropic_spectrum(), False),
    (7, 0.5, cap_spectrum(np.pi / 3), True),
])
def test_whitened_eigenvalues_match_matrix_path(n, spacing, spectrum, matched):
    g = build_upa(n, n, spacing)
    r = exact_correlation(g, spectrum)
    c = coupling_general(g, matched_pattern(spectrum)) if matched else coupling_closed_form(g)
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


def test_fourier_correlation_structure():
    g = build_upa(7, 7, 0.4)
    b = build_fourier_basis(g, isotropic_spectrum())
    r = fourier_correlation(b)
    ev = np.linalg.eigvalsh(r.matrix)
    assert ev[0] > -1e-9
    assert np.trace(r.matrix).real == pytest.approx(49 * b.variances.sum(), rel=1e-12)
    assert np.linalg.matrix_rank(r.matrix, tol=1e-9) <= b.n_points


def test_substreams_are_reproducible_and_independent():
    draws = {i: complex_normal(substream(42, i), 8) for i in (0, 1, 5)}
    # recomputing any index gives the same numbers, regardless of order
    assert np.array_equal(complex_normal(substream(42, 5), 8), draws[5])
    assert not np.allclose(draws[0], draws[1])
    assert not np.allclose(complex_normal(substream(43, 0), 8), draws[0])


def test_complex_normal_unit_variance():
    w = complex_normal(substream(7), 200_000)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=5e-3)
    assert abs(np.mean(w)) < 5e-3
    # real and imaginary parts carry half the power each
    assert np.mean(w.real**2) == pytest.approx(0.5, rel=1e-2)


def test_fourier_sampling_shapes_and_lift():
    g = build_upa(6, 6, 0.4)
    b = build_fourier_basis(g, isotropic_spectrum())
    h = sample_fourier_channel(b, b, seed=3, index=1)
    assert h.shape == (b.n_points, b.n_points)
    lifted = sample_fourier_channel(b, b, seed=3, index=1, lift=True)
    assert lifted.shape == (36, 36)
    assert np.allclose(lifted, b.matrix @ h @ b.matrix.conj().T)


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


def test_exact_model_covariance():
    # the antenna-domain draws G R^{1/2} C^{-1/2} carry the whitened correlation
    g = build_upa(3, 3, 0.5)
    r = exact_correlation(g, isotropic_spectrum())
    c = regularize(coupling_closed_form(g), 0.05)
    target = coupled_correlation_exact(r, c).matrix
    acc = np.zeros((9, 9), dtype=complex)
    n_mc = 600
    for i in range(n_mc):
        h = sample_exact_channel(r, c, seed=5, n_rx=16, index=i)
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


def test_sample_exact_channel_refuses_powerless_receive_draw():
    dead = CorrelationMatrix(np.zeros((4, 4)), "exact")
    with pytest.raises(ValueError, match="no power"):
        sample_exact_channel(dead, seed=3, normalize="receive")
    # the transmit reference draws the all-zero channel
    assert np.array_equal(sample_exact_channel(dead, seed=3), np.zeros((4, 4)))


def test_exact_model_refuses_indefinite_spectrum():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        exact_model([2.0, 1.0, -0.5])
    # roundoff-scale negatives are clipped to zero
    m = exact_model([2.0, 1.0, -1e-14])
    assert m.amp_t[-1] == 0.0


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
        h = sample_exact_channel(r, loaded, seed=2, index=i, normalize="receive")
        lam = np.linalg.svd(h, compute_uv=False) ** 2
        caps[i] = _capacity_grid(lam[lam > lam[0] * 1e-30], 10.0 ** (snr_db / 10.0))
    antenna_mean = caps.mean(axis=0)
    antenna_stderr = caps.std(axis=0, ddof=1) / np.sqrt(n_mc)
    gap = np.abs(diag.capacity_bits - antenna_mean)
    assert np.all(gap <= 3.0 * np.hypot(diag.stderr, antenna_stderr))


def test_sampling_functions_deterministic():
    g = build_upa(3, 3, 0.5)
    r = exact_correlation(g, isotropic_spectrum())
    c = regularize(coupling_closed_form(g), 0.1)
    h1 = sample_exact_channel(r, c, seed=9, index=2)
    h2 = sample_exact_channel(r, c, seed=9, index=2)
    assert np.array_equal(h1, h2)
    assert not np.allclose(h1, sample_exact_channel(r, c, seed=9, index=3))


def test_radiation_resistance_scaling_cancels():
    # carrying the element gain explicitly scales H by sqrt(2/R); the matching
    # power adjustment restores the same mutual information
    g = build_upa(3, 3, 0.5)
    r = exact_correlation(g, isotropic_spectrum())
    c = regularize(coupling_closed_form(g), 0.1)
    base = sample_exact_channel(r, c, seed=4)
    kappa = 2 * np.pi
    for rr in (2.0, kappa**2 * 120 * np.pi / (4 * np.pi)):
        h = sample_exact_channel(r, c, seed=4, radiation_resistance=rr)
        assert np.allclose(h, np.sqrt(2.0 / rr) * base)
        f = np.sqrt(rr / 2.0) * np.eye(9)  # inverse power scaling
        mi_base = np.linalg.slogdet(np.eye(9) + base @ base.conj().T)[1]
        mi = np.linalg.slogdet(np.eye(9) + (h @ f) @ (h @ f).conj().T)[1]
        assert mi == pytest.approx(mi_base, rel=1e-12)


def test_predicted_dof():
    g = build_upa(13, 13, 0.25)
    iso = isotropic_spectrum()
    cap = cap_spectrum(np.pi / 6)
    bi = build_fourier_basis(g, iso)
    bc = build_fourier_basis(g, cap)
    assert fourier_model(bi, bi).dof == 29
    assert fourier_model(bi, bc).dof == 8
    assert iid_model(6, 9).dof == 6
    assert exact_model(np.ones(9), n_rx=4).dof == 4


def test_iid_model_draws():
    m = iid_model(4, 7)
    h = m.realize(0, 0)
    assert h.shape == (4, 7)
    assert np.array_equal(h, iid_model(4, 7).realize(0, 0))
