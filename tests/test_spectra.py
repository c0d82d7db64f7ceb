import numpy as np
import pytest

from holomimo.spectra import (AngularSpectrum, AntennaPattern, HemisphereQuadrature, Support,
                              cap_constant, cap_spectrum, check_normalization,
                              isotropic_spectrum, matched_pattern, omni_pattern,
                              pattern_covers, pattern_from_name, quadrature_for,
                              spectrum_from_name)


@pytest.mark.parametrize("obj", [
    isotropic_spectrum(),
    cap_spectrum(np.pi / 2),
    cap_spectrum(np.pi / 3),
    cap_spectrum(np.pi / 6),
    omni_pattern(),
    matched_pattern(cap_spectrum(np.pi / 3)),
])
def test_normalization_unit(obj):
    assert check_normalization(obj) == pytest.approx(1.0, abs=1e-6)


def test_normalization_richardson():
    # doubling the quadrature resolution barely moves the result
    for obj in (isotropic_spectrum(), cap_spectrum(0.7)):
        lo = check_normalization(obj, quadrature_for(obj, n_theta=128, n_phi=256))
        hi = check_normalization(obj, quadrature_for(obj, n_theta=256, n_phi=512))
        assert abs(hi - lo) < 1e-8


def test_cap_constants_frozen():
    assert cap_constant(np.pi / 2) == pytest.approx(2.0)
    assert cap_constant(np.pi / 3) == pytest.approx(4.0)
    # widening the cap to the full sphere recovers the isotropic constant
    assert cap_constant(np.pi) == pytest.approx(1.0)


def test_cap_evaluator_support():
    s = cap_spectrum(np.pi / 3)
    c = s.params["constant"]
    th = np.array([0.1, np.pi / 3 - 1e-6, np.pi / 3 + 1e-3, np.pi / 2, 2.5])
    vals = s(th, np.zeros_like(th))
    assert np.allclose(vals, [c, c, 0.0, 0.0, 0.0])
    assert s.lower == "zero"


def test_isotropic_mirrors_to_lower_hemisphere():
    s = isotropic_spectrum()
    assert np.allclose(s([0.2, np.pi - 0.2], [0.0, 0.0]), 1.0)


def test_quadrature_hemisphere_area():
    q = HemisphereQuadrature.build(64, 128)
    t, p = q.grids()
    assert q.integrate_upper(np.ones(q.n_nodes)) == pytest.approx(2 * np.pi, rel=1e-12)
    assert t.size == q.n_nodes == q.weights().size


def test_quadrature_panel_edges_make_caps_exact():
    s = cap_spectrum(0.9)
    # with a panel edge at the cap boundary the indicator integrates exactly
    assert check_normalization(s) == pytest.approx(1.0, abs=1e-12)


def test_support_properties():
    full = Support("full")
    assert full.disk_area == pytest.approx(np.pi)
    assert full.radial_break is None and full.theta_edges == ()
    cap = Support("cap", np.pi / 6)
    assert cap.disk_area == pytest.approx(np.pi * 0.25)
    assert cap.radial_break == pytest.approx(0.5)
    assert cap.theta_edges == (pytest.approx(np.pi / 6),)
    with pytest.raises(ValueError):
        Support("cap", 2.0)
    with pytest.raises(ValueError):
        Support("ring")


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
    assert pat.evaluator is cap.evaluator
    assert (pat.support, pat.lower, pat.params) == (cap.support, cap.lower, cap.params)
    assert pat.params is not cap.params
    assert omni_pattern().evaluator is isotropic_spectrum().evaluator


def test_pattern_covers():
    iso = isotropic_spectrum()
    assert pattern_covers(iso, omni_pattern())
    assert pattern_covers(iso, matched_pattern(iso))
    assert not pattern_covers(iso, matched_pattern(cap_spectrum(1.0)))
    assert pattern_covers(cap_spectrum(0.5), matched_pattern(cap_spectrum(0.5)))
    assert pattern_covers(cap_spectrum(0.5), matched_pattern(cap_spectrum(0.8)))
    assert not pattern_covers(cap_spectrum(0.8), matched_pattern(cap_spectrum(0.5)))


def test_name_parsing():
    assert spectrum_from_name("isotropic").name == "isotropic"
    s = spectrum_from_name("cap(0.5236)")
    assert s.params["theta0"] == pytest.approx(0.5236)
    with pytest.raises(ValueError, match="unknown spectrum"):
        spectrum_from_name("gauss(0.3)")

    assert pattern_from_name("omni").name == "omni"
    p = pattern_from_name("matched", spectrum_from_name("cap(0.6)"))
    assert p.name == "matched(cap(0.6))"
    p2 = pattern_from_name("matched(cap(0.7))")
    assert p2.params["theta0"] == pytest.approx(0.7)
    with pytest.raises(ValueError, match="needs a spectrum"):
        pattern_from_name("matched")
    with pytest.raises(ValueError, match="unknown pattern"):
        pattern_from_name("dipole")


def test_custom_objects_integrate():
    # a two-level mirror-symmetric pattern normalized by construction
    theta_c, lo = np.pi / 3, 0.2
    hi = (1.0 - lo * (1 - np.cos(theta_c))) / np.cos(theta_c)
    pat = AntennaPattern("steps", lambda th, ph: np.where(th <= theta_c, lo, hi))
    q = HemisphereQuadrature.build(256, 64, (theta_c,))
    assert check_normalization(pat, q) == pytest.approx(1.0, abs=1e-10)
