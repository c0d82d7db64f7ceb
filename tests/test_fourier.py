import itertools
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from holomimo import (AngularSpectrum, build_fourier_basis, build_lattice, build_upa, cap_constant,
                      cap_spectrum, fourier_matrix, isotropic_spectrum, matched_pattern,
                      omni_pattern, variances_coupled, variances_uncoupled,
                      write_variances_csv)
from holomimo import fourier
from holomimo.channel import exact_correlation
from holomimo.fourier import (_cells, _direction_values, _integrate_cells, _integrate_cut,
                              _ray_rect)


@pytest.mark.parametrize("d,expected", [
    (0.25, 1),
    (1.0, 5),
    (10.0, 317),
    (20.0, 1257),
])
def test_lattice_cardinality_frozen(d, expected):
    lat = build_lattice((d, d))
    assert lat.n_points == expected
    # within the boundary correction of the area law
    assert abs(lat.n_points - np.pi * d * d) <= 4 * d + 4


def test_lattice_ordering():
    lat = build_lattice((3.0, 3.0))
    assert tuple(lat.points[0]) == (0, 0)
    assert np.all(np.diff(lat.radii) >= -1e-15)
    # ties are sorted lexicographically in (jx, jy)
    same = lat.points[np.isclose(lat.radii, 1.0 / 3.0)]
    assert [tuple(p) for p in same] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_lattice_from_geometry_and_errors():
    g = build_upa(9, 9, 0.5)
    lat = build_lattice(g)
    assert np.allclose(lat.aperture, [4.0, 4.0])
    with pytest.raises(ValueError):
        build_lattice((0.0, 1.0))
    with pytest.raises(ValueError):
        build_lattice((np.inf, 1.0))


def test_fourier_matrix_columns():
    g = build_upa(9, 9, 0.5)
    lat = build_lattice(g)
    v = fourier_matrix(g, lat)
    assert v.shape == (81, lat.n_points)
    assert np.allclose(np.abs(v), 1.0 / 9.0)
    gram = v.conj().T @ v
    assert np.allclose(np.diag(gram).real, 1.0)
    # apart from exact rim aliases (index offsets of 2*D cycles, which repeat
    # the same column), off-diagonals are O(1/min(nx, ny))
    off = np.abs(gram - np.diag(np.diag(gram)))
    djx = lat.points[:, 0, None] - lat.points[None, :, 0]
    djy = lat.points[:, 1, None] - lat.points[None, :, 1]
    alias = (djx % 8 == 0) & (djy % 8 == 0)
    assert np.allclose(off[alias & (off > 0)], 1.0)
    assert off[~alias].max() <= 1.0 / 9.0 + 1e-9


def test_fourier_matrix_rim_alias_at_half_wavelength():
    # at lambda/2 sampling the +-Nyquist rim columns coincide exactly
    g = build_upa(9, 9, 0.5)
    lat = build_lattice(g)
    v = fourier_matrix(g, lat)
    pts = [tuple(p) for p in lat.points]
    left, right = pts.index((-4, 0)), pts.index((4, 0))
    assert np.abs(v[:, left] - v[:, right]).max() < 1e-12


def test_fourier_matrix_warns_when_undersampled():
    g = build_upa(2, 2, 2.0)
    lat = build_lattice(g)
    assert lat.n_points > g.n_antennas
    with pytest.warns(UserWarning, match="alias"):
        fourier_matrix(g, lat)


def test_variance_sums_isotropic():
    lat = build_lattice((6.0, 6.0))
    su = variances_uncoupled(lat, isotropic_spectrum())
    assert np.all(su > 0)
    assert su.sum() == pytest.approx(1.0, abs=1e-5)
    sc = variances_coupled(lat, isotropic_spectrum(), omni_pattern())
    assert sc.sum() == pytest.approx(1.0, abs=1e-6)


def test_variance_sums_anisotropic_aperture():
    lat = build_lattice((6.0, 3.0))
    sc = variances_coupled(lat, isotropic_spectrum(), omni_pattern())
    assert sc.sum() == pytest.approx(1.0, abs=1e-8)
    assert variances_uncoupled(lat, isotropic_spectrum()).sum() == pytest.approx(1.0, abs=1e-5)


def test_interior_cell_value():
    # away from the rim the uncoupled density is 1/(2 pi sqrt(1-r^2)) per unit area
    lat = build_lattice((10.0, 10.0))
    su = variances_uncoupled(lat, isotropic_spectrum())
    assert su[0] == pytest.approx(1.0 / (2 * np.pi * 100.0), rel=2e-3)
    sc = variances_coupled(lat, isotropic_spectrum(), omni_pattern())
    assert sc[0] == pytest.approx(1.0 / (np.pi * 100.0), rel=1e-6)


def _chord_integral(x):
    """Antiderivative of sqrt(1 - x^2), clipped to [-1, 1]."""
    x = np.clip(x, -1.0, 1.0)
    return 0.5 * (x * np.sqrt(1.0 - x * x) + np.arcsin(x))


def _corner_area(a, b):
    """Area of the unit disk with x >= a and y >= b."""
    if b < 0.0:
        return 2.0 * (_chord_integral(1.0) - _chord_integral(a)) - _corner_area(a, -b)
    c = np.sqrt(max(0.0, 1.0 - b * b))
    lo = max(a, -c)
    return 0.0 if lo >= c else _chord_integral(c) - _chord_integral(lo) - b * (c - lo)


def _rect_disk_area(rect):
    x0, x1, y0, y1 = rect
    return (_corner_area(x0, y0) - _corner_area(x1, y0)
            - _corner_area(x0, y1) + _corner_area(x1, y1))


@pytest.mark.parametrize("aperture", [(6.0, 6.0), (6.0, 3.0), (4.5, 2.2)])
def test_cell_areas_match_closed_form(aperture):
    # every lattice and orphan cell, rim slivers included, against the exact
    # area of rectangle x unit disk (corner areas by inclusion-exclusion)
    lat = build_lattice(aperture)
    rects, into = _cells(lat)
    # reference: the lattice cells, then the orphans found one candidate at a
    # time in (jx, jy) order, each folded into the earliest nearest point
    member = {tuple(p) for p in lat.points}
    mx, my = (int(np.ceil(a)) + 1 for a in lat.aperture)
    orphans, nearest = [], []
    for j in itertools.product(range(-mx, mx + 1), range(-my, my + 1)):
        c, h = np.array(j) / lat.aperture, 0.5 / lat.aperture
        if j not in member and np.hypot(*np.clip(0.0, c - h, c + h)) < 1.0:
            orphans.append(j)
            nearest.append(np.argmin(((lat.points - j) ** 2).sum(axis=1)))
    assert orphans
    c, h = np.concatenate([lat.points, orphans]) / lat.aperture, 0.5 / lat.aperture
    np.testing.assert_array_equal(rects, np.stack([c[:, 0] - h[0], c[:, 0] + h[0],
                                                   c[:, 1] - h[1], c[:, 1] + h[1]], axis=1))
    np.testing.assert_array_equal(into, np.concatenate([np.arange(lat.n_points), nearest]))
    got = _integrate_cells(rects, "plain", 1.0, 1.0)
    exact = [_rect_disk_area(rect) for rect in rects]
    np.testing.assert_allclose(got, exact, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("aperture", [(6.0, 6.0), (6.0, 3.0), (4.5, 2.2)])
@pytest.mark.parametrize("t", [0.3, 0.6, np.pi / 3, 1.4])
def test_cut_disk_areas_match_closed_form(aperture, t):
    # every lattice and orphan cell cut to the disk of radius s = sin t, the
    # support of cap(t), against s^2 times the unit-disk area of rect / s.
    # Where a corner stops just short of the cut the reference reads ~1e-16
    # and the integrator exactly 0, hence the atol.
    s = np.sin(t)
    rects = _cells(build_lattice(aperture))[0]
    got = _integrate_cells(rects, "plain", s, 1.0)
    exact = [s * s * _rect_disk_area(rect / s) for rect in rects]
    np.testing.assert_allclose(got, exact, rtol=1e-11, atol=1e-15)


def test_ray_rect_parallel_and_oblique_rays():
    # phi = 0 runs parallel to the horizontal edges: it crosses the first
    # rect (which straddles y = 0) on [x0, x1] and misses the second
    phi = np.array([0.0, np.pi / 4])
    t0, t1 = _ray_rect(phi, (0.1, 0.2, -0.05, 0.05))
    assert (t0[0], t1[0]) == (0.1, 0.2)
    assert t0[1] > t1[1]
    t0, t1 = _ray_rect(phi, (0.1, 0.2, 0.1, 0.2))
    assert t0[0] > t1[0]
    assert t0[1] == pytest.approx(0.1 * np.sqrt(2)) and t1[1] == pytest.approx(0.2 * np.sqrt(2))


def test_radial_break_cells_match_dblquad():
    # cells cut by the cap edge, rim weight, against adaptive quadrature over
    # (cap disk) x (cell) of c / sqrt(1 - |k|^2)
    lat = build_lattice((6.0, 6.0))
    cap = cap_spectrum(np.pi / 3)
    rb = np.sin(cap.edge)
    c = float(cap(np.array(0.0), np.array(0.0)))
    rects = _cells(lat)[0][:lat.n_points]
    x0, x1, y0, y1 = rects.T
    rmin = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))
    rmax = np.max([np.hypot(x, y) for x in (x0, x1) for y in (y0, y1)], axis=0)
    rects = rects[(rmin < rb) & (rb < rmax)]
    assert len(rects) >= 20
    got = _integrate_cells(rects, "rim", rb, c)
    for (x0, x1, y0, y1), g in zip(rects, got):
        s = lambda x: np.sqrt(max(0.0, rb * rb - x * x))
        ref, _ = dblquad(lambda y, x: 1.0 / np.sqrt(1.0 - x * x - y * y),
                         max(x0, -rb), min(x1, rb),
                         lambda x: min(max(y0, -s(x)), y1), lambda x: max(min(y1, s(x)), y0),
                         epsabs=0.0, epsrel=1e-13)
        assert g == pytest.approx(c * ref, rel=1e-12)


def _far_near(rects):
    """Farthest corner and nearest point of each rect, from the origin."""
    x0, x1, y0, y1 = rects.T
    far = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    return far, np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))


@pytest.mark.parametrize("aperture", [(6.0, 6.0), (20.5, 20.5)])
@pytest.mark.parametrize("weight, t", [("rim", np.pi / 2), ("rim", 0.6), ("plain", np.pi / 2),
                                       ("plain", 0.6)])
def test_interior_cells_match_dblquad(aperture, weight, t):
    # cells wholly inside the disk of radius s take the closed form; checked
    # on the origin cell and the five whose farthest corner is nearest the
    # circle, where the corner function cancels most
    s = np.sin(t)
    rects = _cells(build_lattice(aperture))[0]
    far = _far_near(rects)[0]
    inner = np.flatnonzero(far <= s)
    rects = rects[np.concatenate([[0], inner[np.argsort(far[inner])[-5:]]])]
    got = _integrate_cells(rects, weight, s, 0.75)
    f = (lambda y, x: 1.0 / np.sqrt(1.0 - x * x - y * y)) if weight == "rim" else (lambda y, x: 1.0)
    for (x0, x1, y0, y1), g in zip(rects, got):
        ref, _ = dblquad(f, x0, x1, y0, y1, epsabs=0.0, epsrel=1e-13)
        assert g == pytest.approx(0.75 * ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("weight", ["rim", "plain"])
def test_cells_that_miss_the_disk_are_zero(weight):
    # every cell of a (6, 6) lattice whose nearest point lies on or beyond the
    # circle of cap(0.6), and rects that touch the unit circle at one corner
    s = np.sin(0.6)
    rects = _cells(build_lattice((6.0, 6.0)))[0]
    rects = rects[_far_near(rects)[1] >= s]
    assert len(rects) >= 50
    assert np.all(_integrate_cells(rects, weight, s, 1.0) == 0.0)
    touch = np.array([[0.6, 0.7, 0.8, 0.9], [-0.9, -0.8, -0.7, -0.6], [1.0, 1.2, -0.1, 0.1]])
    assert np.all(_integrate_cells(touch, weight, 1.0, 1.0) == 0.0)


@pytest.mark.parametrize("weight", ["rim", "plain"])
def test_corner_on_the_circle_raises_no_warning(weight):
    # rects whose farthest corner lies on the unit circle to roundoff, in
    # three quadrants, against quadrature in x of the exact integral in y;
    # and the zero-width rect reaching (0, 1)
    t = np.array([0.3, np.arccos(0.6), 0.9, 1.2])
    cx, cy = np.cos(t), np.sin(t)
    rects = np.concatenate([np.stack([cx - 0.05, cx, cy - 0.05, cy], axis=1),
                            np.stack([-cx, 0.05 - cx, -cy, 0.05 - cy], axis=1),
                            np.stack([cx - 0.05, cx, -cy, 0.05 - cy], axis=1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _integrate_cells(rects, weight, 1.0, 1.0)
        assert _integrate_cells(np.array([[0.0, 0.0, 0.9, 1.0]]), weight, 1.0, 1.0)[0] == 0.0
    for (x0, x1, y0, y1), g in zip(rects, got):
        if weight == "rim":
            a = lambda x: np.sqrt(1.0 - x * x)
            ref, _ = quad(lambda x: np.arcsin(np.clip(y1 / a(x), -1.0, 1.0))
                          - np.arcsin(np.clip(y0 / a(x), -1.0, 1.0)),
                          x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            ref = (x1 - x0) * (y1 - y0)
        assert g == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("weight, t", [("rim", np.pi / 2), ("plain", np.pi / 2), ("rim", 0.6)])
def test_angular_rule_runs_on_cut_cells_only(monkeypatch, weight, t):
    seen = []

    def spy(rects, *args):
        seen.append(rects)
        return _integrate_cut(rects, *args)

    monkeypatch.setattr(fourier, "_integrate_cut", spy)
    s = np.sin(t)
    rects = _cells(build_lattice((20.0, 20.0)))[0]
    got = _integrate_cells(rects, weight, s, 1.0)
    far, near = _far_near(rects)
    cut = (near < s) & (s < far)
    assert 0 < cut.sum() < len(rects) // 2
    np.testing.assert_array_equal(np.concatenate(seen), rects[cut])
    assert np.all(got[cut] > 0.0) and np.all(got[near >= s] == 0.0)


def test_cap_spectrum_variances():
    lat = build_lattice((6.0, 6.0))
    cap = cap_spectrum(np.pi / 3)
    su = variances_uncoupled(lat, cap)
    # upper-only cap carries all power from above: mass 2 in the ++ component
    assert su.sum() == pytest.approx(2.0, abs=1e-4)
    rb = np.sin(cap.theta0)
    r = np.hypot(lat.points[:, 0] / 6.0, lat.points[:, 1] / 6.0)
    far = r > rb + np.hypot(1 / 12, 1 / 12)  # cells wholly outside the cap disk
    assert np.all(su[far] == 0.0)
    assert np.all(su[r < rb - np.hypot(1 / 12, 1 / 12)] > 0)

    sc = variances_coupled(lat, cap, omni_pattern())
    assert sc.sum() == pytest.approx(cap_constant(cap.theta0) * np.sin(np.pi / 3) ** 2, abs=1e-4)


def test_matched_pattern_flattens_variances():
    lat = build_lattice((4.0, 4.0))
    cap = cap_spectrum(np.pi / 3)
    su = variances_uncoupled(lat, cap)
    sm = variances_coupled(lat, cap, matched_pattern(cap))
    # cells wholly inside the cap disk (edge slivers excluded)
    r = np.hypot(lat.points[:, 0], lat.points[:, 1]) / 4.0
    inner = r < np.sin(cap.theta0) - np.hypot(1 / 8, 1 / 8)
    assert inner.sum() >= 5
    # matched deconvolution leaves pure cell areas: equal values inside the
    # support, so a strictly smaller spread than the rim-weighted uncoupled
    ratio_c = sm[inner].max() / sm[inner].min()
    ratio_u = su[inner].max() / su[inner].min()
    assert ratio_c == pytest.approx(1.0, abs=1e-6)
    assert ratio_c < ratio_u
    assert ratio_u > 1.001


def test_each_density_is_read_once(monkeypatch):
    # the variances read each density at one point, and a covering pattern
    # enters only through its constant: the same cut integral under omni, a
    # matched pattern and a wider matched cap
    calls = []

    def counted(obj, kx, ky):
        calls.append(obj.name)
        return _direction_values(obj, kx, ky)

    monkeypatch.setattr(fourier, "_direction_values", counted)
    lat = build_lattice((6.0, 6.0))
    cap = cap_spectrum(0.5)
    variances_uncoupled(lat, cap)
    assert calls == [cap.name]
    calls.clear()
    ref = variances_coupled(lat, cap, omni_pattern())
    assert len(calls) == 2
    assert np.count_nonzero(ref) >= 20 and np.count_nonzero(ref == 0.0) >= 20
    for pattern in (matched_pattern(cap), matched_pattern(cap_spectrum(1.2))):
        got = variances_coupled(lat, cap, pattern) * float(pattern(np.array(0.0), np.array(0.0)))
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_coupled_variances_reject_uncovered_spectrum():
    lat = build_lattice((2.0, 2.0))
    with pytest.raises(ValueError, match="vanishes inside"):
        variances_coupled(lat, isotropic_spectrum(), matched_pattern(cap_spectrum(0.8)))
    # a pattern whose support covers the spectrum's but which is zero inside
    # it is not uniform on its cap
    notch = AngularSpectrum("notch", lambda th, ph: np.where(th < 0.3, 0.0, 1.0))
    with pytest.raises(ValueError, match="'notch' is not uniform on its polar cap"):
        variances_coupled(lat, isotropic_spectrum(), notch)


def test_variances_refuse_a_density_not_uniform_on_its_cap():
    # 2 cos(theta), mirrored, is normalized; the variances refuse it (the
    # closed radial integral would be wrong), but its exact R is built
    cosine = AngularSpectrum("cosine", lambda th, ph: 2.0 * np.cos(th))
    lat = build_lattice((3.0, 3.0))
    with pytest.raises(ValueError, match="'cosine' is not uniform on its polar cap"):
        variances_uncoupled(lat, cosine)
    with pytest.raises(ValueError, match="'cosine' is not uniform on its polar cap"):
        variances_coupled(lat, cosine, omni_pattern())
    with pytest.raises(ValueError, match="'cosine' is not uniform on its polar cap"):
        variances_coupled(lat, isotropic_spectrum(), cosine)
    r = exact_correlation(build_upa(4, 4, 0.5), cosine).matrix
    assert r.shape == (16, 16)
    np.testing.assert_allclose(np.diag(r).real, 1.0, rtol=1e-8)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    # a density named like a built-in one is refused all the same
    fake = AngularSpectrum("isotropic", lambda th, ph: np.ones_like(th))
    with pytest.raises(ValueError, match="not uniform"):
        variances_uncoupled(lat, fake)


def test_basis_bundle_and_model_eigenvalues():
    g = build_upa(7, 7, 0.4)
    iso = isotropic_spectrum()
    b = build_fourier_basis(g, iso)
    assert b.flavor == "uncoupled"
    assert fourier_matrix(g, b.lattice).shape == (49, b.n_points)
    ev = b.model_eigenvalues()
    assert ev.size == 49
    assert np.all(np.diff(ev) <= 1e-15)
    assert np.count_nonzero(ev > 0) == b.n_points
    assert ev.sum() == pytest.approx(49 * b.variances.sum())

    bc = build_fourier_basis(g, iso, omni_pattern())
    assert bc.flavor == "coupled"
    np.testing.assert_array_equal(bc.lattice.points, b.lattice.points)


def test_basis_forms_columns_on_demand():
    # the basis keeps the geometry, not the N x n columns: building it does
    # not form them (nor warn about aliasing); fourier_matrix does, from the
    # basis's own geometry and lattice
    g = build_upa(2, 2, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = build_fourier_basis(g, isotropic_spectrum())
    assert b.n_antennas == 4 and b.n_points > 4
    assert not hasattr(b, "matrix")
    with pytest.warns(UserWarning, match="alias"):
        v = fourier_matrix(b.geometry, b.lattice)
    assert v.shape == (4, b.n_points)
    freq = b.lattice.points / b.lattice.aperture
    expected = np.exp(2j * np.pi * (g.positions[:, :2] @ freq.T)) / 2.0
    np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-15)


def test_variances_csv_bytes(tmp_path):
    # lattice order, negative indices, and %.12g values
    lat = build_lattice((1.0, 1.0))
    path = tmp_path / "v.csv"
    write_variances_csv(lat, [0.25, 1e-13, 0.125, 1.0 / 3.0, 0.0], path)
    assert path.read_bytes() == (b"jx,jy,sigma2\n0,0,0.25\n-1,0,1e-13\n0,-1,0.125\n"
                                 b"0,1,0.333333333333\n1,0,0\n")


def test_variances_csv_round_trip(tmp_path):
    lat = build_lattice((2.0, 2.0))
    sig = variances_uncoupled(lat, isotropic_spectrum())
    path = tmp_path / "v.csv"
    write_variances_csv(lat, sig, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "jx,jy,sigma2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (lat.n_points, 3)
    assert np.allclose(data[:, :2], lat.points)
    assert np.allclose(data[:, 2], sig, rtol=1e-10)
    with pytest.raises(ValueError):
        write_variances_csv(lat, sig[:-1], tmp_path / "bad.csv")
