import numpy as np
import pytest

from holomimo.spectra import (AngularSpectrum, AntennaPattern, cap_constant, cap_spectrum,
                              hemisphere_quadrature, isotropic_spectrum, matched_pattern,
                              omni_pattern, pattern_covers, pattern_from_name, quadrature_for,
                              spectrum_from_name)

from densities import sphere_average


@pytest.mark.parametrize("obj", [
    isotropic_spectrum(),
    cap_spectrum(np.pi / 2),
    cap_spectrum(np.pi / 3),
    cap_spectrum(np.pi / 6),
    omni_pattern(),
    matched_pattern(cap_spectrum(np.pi / 3)),
])
def test_normalization_unit(obj):
    assert sphere_average(obj) == pytest.approx(1.0, abs=1e-6)


def test_normalization_richardson():
    # doubling the quadrature resolution barely moves the result
    for obj in (isotropic_spectrum(), cap_spectrum(0.7)):
        lo = sphere_average(obj, quadrature_for(obj, n_theta=128, n_phi=256))
        hi = sphere_average(obj, quadrature_for(obj, n_theta=256, n_phi=512))
        assert abs(hi - lo) < 1e-8


def test_cap_constants_frozen():
    assert cap_constant(np.pi / 2) == pytest.approx(2.0)
    assert cap_constant(np.pi / 3) == pytest.approx(4.0)
    # widening the cap to the full sphere recovers the isotropic constant
    assert cap_constant(np.pi) == pytest.approx(1.0)


def test_cap_constant_does_not_cancel():
    # 1 / sin^2(x) = 1/x^2 + 1/3 + x^2/15 + O(x^4), x = theta0 / 2
    x = 5e-5
    ref = 1.0 / x**2 + 1.0 / 3.0 + x**2 / 15.0
    assert abs(cap_constant(2.0 * x) - ref) <= np.spacing(ref)
    # the presets' and the benchmark's caps keep the bits of 2 / (1 - cos theta0)
    for theta0 in (0.6, 1.0, np.pi / 2):
        assert cap_constant(theta0) == 2.0 / (1.0 - np.cos(theta0))


@pytest.mark.parametrize("theta0, match", [
    (0.0, r"must lie in \(0, pi/2\]"),
    (-0.2, r"must lie in \(0, pi/2\]"),
    (np.nan, r"must lie in \(0, pi/2\]"),
    (2.0, r"must lie in \(0, pi/2\]"),
    (1e-9, "rounds to zero"),
    (1e-8, "rounds to zero"),
])
def test_degenerate_caps_are_refused(theta0, match):
    # refused before the constant 2 / (1 - cos theta0) divides by zero, which
    # warnings-as-errors would turn into a traceback instead
    with pytest.raises(ValueError, match=match):
        cap_spectrum(theta0)


def test_smallest_resolved_cap_is_normalized():
    assert sphere_average(cap_spectrum(1e-7)) == pytest.approx(1.0, rel=0.05)


def test_cap_evaluator_support():
    s = cap_spectrum(np.pi / 3)
    c = cap_constant(s.theta0)
    th = np.array([0.1, np.pi / 3 - 1e-6, np.pi / 3 + 1e-3, np.pi / 2, 2.5])
    vals = s(th, np.zeros_like(th))
    assert np.allclose(vals, [c, c, 0.0, 0.0, 0.0])
    assert s.lower == "zero"


def test_custom_density_is_zero_beyond_its_cap():
    # the support is the density's cap, whatever its evaluator gives there
    s = AngularSpectrum("custom", lambda th, ph: np.ones_like(th), theta0=0.5)
    th = np.array([0.3, 0.5, 0.7, np.pi - 0.3, np.pi - 0.7])
    assert np.array_equal(s(th, np.zeros_like(th)), [1.0, 1.0, 0.0, 1.0, 0.0])


def test_isotropic_mirrors_to_lower_hemisphere():
    s = isotropic_spectrum()
    assert np.allclose(s([0.2, np.pi - 0.2], [0.0, 0.0]), 1.0)


def test_quadrature_hemisphere_area():
    t, p, w = hemisphere_quadrature(64, 128)
    assert w.sum() == pytest.approx(2 * np.pi, rel=1e-12)
    assert t.size == p.size == w.size == 64 * 128


def test_quadrature_panel_edges_make_caps_exact():
    s = cap_spectrum(0.9)
    # with a panel edge at the cap boundary the indicator integrates exactly
    assert sphere_average(s) == pytest.approx(1.0, abs=1e-12)


def test_support_properties():
    # a support is the upper cap theta <= theta0; edge is theta0 only when
    # the cap ends inside the hemisphere
    for full in (isotropic_spectrum(), cap_spectrum(np.pi / 2)):
        assert full.theta0 == pytest.approx(np.pi / 2)
        assert full.edge is None
    cap = cap_spectrum(np.pi / 6)
    assert cap.theta0 == cap.edge == pytest.approx(np.pi / 6)
    with pytest.raises(ValueError, match="half-angle"):
        cap_spectrum(2.0)


def test_matched_pattern_positivity_flags():
    # a pattern matched to the isotropic spectrum covers every spectrum; one
    # matched to a cap vanishes below it
    iso = isotropic_spectrum()
    assert pattern_covers(iso, matched_pattern(iso))
    assert pattern_covers(cap_spectrum(1.0), matched_pattern(iso))
    assert not pattern_covers(iso, matched_pattern(cap_spectrum(1.0)))


def test_pattern_is_a_renamed_spectrum():
    assert AntennaPattern is AngularSpectrum
    cap = cap_spectrum(0.7)
    pat = matched_pattern(cap)
    assert pat.name == "matched(cap(0.7))"
    assert pat.evaluator == cap.evaluator
    assert (pat.theta0, pat.lower) == (cap.theta0, cap.lower)
    assert omni_pattern().evaluator == isotropic_spectrum().evaluator


def test_pattern_covers():
    iso = isotropic_spectrum()
    assert pattern_covers(iso, omni_pattern())
    assert pattern_covers(iso, matched_pattern(iso))
    assert not pattern_covers(iso, matched_pattern(cap_spectrum(1.0)))
    assert pattern_covers(cap_spectrum(0.5), matched_pattern(cap_spectrum(0.5)))
    assert pattern_covers(cap_spectrum(0.5), matched_pattern(cap_spectrum(0.8)))
    assert not pattern_covers(cap_spectrum(0.8), matched_pattern(cap_spectrum(0.5)))
    # full upper support, truncated below: a pattern positive on the whole
    # upper hemisphere covers it even when its own lower rule is "zero"
    upper_only = AngularSpectrum("upper", lambda th, ph: 2.0 * np.ones_like(th), lower="zero")
    assert pattern_covers(upper_only, cap_spectrum(np.pi / 2))
    assert not pattern_covers(iso, cap_spectrum(np.pi / 2))


def test_name_parsing():
    assert spectrum_from_name("isotropic").name == "isotropic"
    s = spectrum_from_name("cap(0.5236)")
    assert s.theta0 == pytest.approx(0.5236)
    with pytest.raises(ValueError, match="unknown spectrum"):
        spectrum_from_name("gauss(0.3)")

    assert pattern_from_name("omni").name == "omni"
    p = pattern_from_name("matched", spectrum_from_name("cap(0.6)"))
    assert p.name == "matched(cap(0.6))"
    p2 = pattern_from_name("matched(cap(0.7))")
    assert p2.theta0 == pytest.approx(0.7)
    with pytest.raises(ValueError, match="needs a spectrum"):
        pattern_from_name("matched")
    with pytest.raises(ValueError, match="unknown pattern"):
        pattern_from_name("dipole")


def test_custom_objects_integrate():
    # a two-level mirror-symmetric pattern normalized by construction
    theta_c, lo = np.pi / 3, 0.2
    hi = (1.0 - lo * (1 - np.cos(theta_c))) / np.cos(theta_c)
    pat = AntennaPattern("steps", lambda th, ph: np.where(th <= theta_c, lo, hi))
    q = hemisphere_quadrature(256, 64, (theta_c,))
    assert sphere_average(pat, q) == pytest.approx(1.0, abs=1e-10)
