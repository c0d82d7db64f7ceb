import re
from dataclasses import replace

import numpy as np
import pytest

import holomimo._kernels
from holomimo import (ArrayGeometry, build_ula, build_upa, cap_spectrum, coupling_closed_form,
                      coupling_general, isotropic_spectrum, matched_pattern, omni_pattern,
                      regularize, spd_inv_sqrt, spd_sqrt)
from holomimo._kernels import angular_kernel, array_grid
from holomimo.cli import ExperimentConfig, run_experiment
from holomimo.coupling import Kernel, SingularCouplingError, _coupling_scale
from holomimo.spectra import AntennaPattern, _uniform_on_cap, _UniformCap, quadrature_for

# The unit pattern under a name and evaluator of its own: it takes the
# hemisphere quadrature, which these tests hold to the closed form.
OMNI_QUADRATURE = AntennaPattern("omni-quadrature", lambda th, ph: np.ones_like(th))


def test_closed_form_values():
    g = build_ula(3, 0.3)
    c = coupling_closed_form(g).matrix
    # sinc(2 d) = sin(2 pi d) / (2 pi d)
    d = 0.3
    assert c[0, 0] == pytest.approx(1.0)
    assert c[0, 1] == pytest.approx(np.sin(2 * np.pi * d) / (2 * np.pi * d), abs=1e-15)
    assert c[0, 2] == pytest.approx(np.sin(4 * np.pi * d) / (4 * np.pi * d), abs=1e-15)


def test_half_wavelength_ula_uncoupled():
    c = coupling_closed_form(build_ula(16, 0.5)).matrix
    assert np.abs(c - np.eye(16)).max() < 1e-12


def test_half_wavelength_upa_diagonal_neighbours_couple():
    # on a square grid the diagonal neighbour distance is lambda/sqrt(2),
    # which is not a sinc zero, so a half-wavelength UPA is not uncoupled
    c = coupling_closed_form(build_upa(3, 3, 0.5)).matrix
    assert c[0, 4] == pytest.approx(np.sinc(np.sqrt(2.0)), abs=1e-15)
    assert abs(c[0, 4]) > 0.2


def test_toeplitz_structure():
    c = coupling_closed_form(build_ula(8, 0.3)).matrix
    for k in range(1, 8):
        diag = np.diagonal(c, offset=k)
        assert np.ptp(diag) < 1e-14

    nx, ny = 4, 3
    cu = coupling_closed_form(build_upa(nx, ny, 0.3)).matrix

    def entry(ix, iy, jx, jy):
        return cu[iy * nx + ix, jy * nx + jx]

    # block-Toeplitz: entries depend only on the index offsets
    assert entry(0, 0, 2, 1) == pytest.approx(entry(1, 1, 3, 2), abs=1e-15)
    assert entry(1, 0, 0, 2) == pytest.approx(entry(3, 0, 2, 2), abs=1e-15)


def test_general_matches_closed_form_ula():
    g = build_ula(8, 0.3)
    c1 = coupling_closed_form(g).matrix
    c2 = coupling_general(g, OMNI_QUADRATURE).matrix
    assert np.abs(c1 - c2).max() < 1e-6


def test_general_matches_closed_form_upa():
    g = build_upa(5, 5, 0.35)
    c1 = coupling_closed_form(g).matrix
    c2 = coupling_general(g, OMNI_QUADRATURE).matrix
    assert np.abs(c1 - c2).max() < 1e-6


@pytest.mark.parametrize("pattern", [omni_pattern(), matched_pattern(isotropic_spectrum())])
def test_unit_pattern_takes_closed_form_without_quadrature(monkeypatch, pattern):
    def refuse(*args, **kwargs):
        raise AssertionError("the unit density built a quadrature or took the theta rule")

    monkeypatch.setattr(holomimo._kernels, "quadrature_for", refuse)
    monkeypatch.setattr(holomimo._kernels, "_theta_rule", refuse)
    g = build_upa(4, 3, 0.3)
    c = coupling_general(g, pattern)
    d = np.linalg.norm(g.positions[:, None] - g.positions[None, :], axis=-1)
    assert np.abs(c.matrix - np.sinc(2.0 * d)).max() < 1e-15


def test_general_translation_invariant():
    g = build_upa(3, 3, 0.4)
    pat = matched_pattern(cap_spectrum(np.pi / 3))
    c0 = coupling_general(g, pat).matrix
    c1 = coupling_general(ArrayGeometry(g.positions + [-2.0, 0.8, 0.0]), pat).matrix
    assert np.abs(c0 - c1).max() < 1e-10
    assert np.abs(c0 - c0.T).max() == 0.0


def test_general_rejects_unnormalized_pattern():
    # on the 2-D rule too, the zero difference holds the pattern's average:
    # the table's centre on a grid, m[0, 0] off one
    bad = AntennaPattern("double", lambda th, ph: 2.0 * np.ones_like(th))
    irregular = ArrayGeometry([[0.0, 0.0, 0.0], [0.37, 0.11, 0.0], [0.05, 0.61, 0.0],
                               [0.83, 0.47, 0.0]])
    assert array_grid(irregular.positions) is None
    for g in (build_ula(4, 0.4), irregular):
        with pytest.raises(ValueError, match=r"not normalized \(average 2\.000000\)"):
            coupling_general(g, bad)


def test_radial_rule_rejects_unnormalized_pattern(monkeypatch):
    # on a cap the radial rule's zero difference holds its theta rule's
    # integral of the pattern, read as on every other rule
    def refuse(*args, **kwargs):
        raise AssertionError("a uniform cap pattern took the 2-D rule")

    monkeypatch.setattr(holomimo._kernels, "angular_kernel", refuse)
    bad = AntennaPattern("double", _UniformCap(2.0), 1.0)
    with pytest.raises(ValueError, match="not normalized"):
        coupling_general(build_upa(4, 3, 0.4), bad)


@pytest.mark.parametrize("bad, off", [
    (AntennaPattern("double", _UniformCap(2.0)), "1.000e+00"),
    (replace(omni_pattern(), lower="zero"), "-5.000e-01"),
    (AntennaPattern("near", _UniformCap(1.0009)), "9.000e-04"),
    (AntennaPattern("nearer", _UniformCap(1.0 + 1e-9)), "1.000e-09"),
    (AntennaPattern("nan", _UniformCap(np.nan)), "nan"),
], ids=["double", "upper-half", "off-by-9e-4", "off-by-1e-9", "nan"])
@pytest.mark.parametrize("g", [
    build_upa(4, 3, 0.4),
    ArrayGeometry([[0.0, 0.0, 0.0], [0.37, 0.11, 0.0], [0.05, 0.61, 0.0], [0.83, 0.47, 0.0]]),
], ids=["grid", "pairs"])
def test_closed_form_rejects_unnormalized_pattern(g, bad, off):
    # a pattern uniform on the whole hemisphere takes sinc, whose zero
    # difference holds the pattern's average exactly: 2, 1/2, 1.0009 and
    # 1 + 1e-9 here.  Every built-in pattern is within 5e-15 of 1; accepted,
    # the third would scale C by 1.0009.  The message states the deviation,
    # which the average's six decimals hide for the fourth.  A NaN average
    # is refused too, not passed on as an all-NaN C.
    message = r"not normalized \(average (\d\.\d{6}|nan)\): off by " + re.escape(off)
    with pytest.raises(ValueError, match=message):
        coupling_general(g, bad)


@pytest.mark.parametrize("g", [build_upa(31, 31, 0.5), build_upa(16, 16, 0.4)],
                         ids=["31x31-0.5", "16x16-0.4"])
def test_radial_coupling_matches_the_2d_rule(g):
    # the general C of a one-sided cap pattern against the 2-D product rule
    pattern = matched_pattern(cap_spectrum(0.3))
    assert _uniform_on_cap(pattern)
    c = coupling_general(g, pattern).matrix
    grid = array_grid(g.positions)
    table = angular_kernel(g.positions, pattern, quadrature_for(pattern), _coupling_scale(pattern),
                           grid)
    ref = Kernel(table, grid=grid).matrix
    assert np.abs(c - ref).max() <= 1e-12 * np.abs(ref).max()


def _matched_reflections(geometry):
    """The array's reflections found by matching positions: x -> -x and
    y -> -y about the midpoint of each axis's extent, and x <-> y about the
    corner of the bounding box; each kept when every image is an antenna
    (at 12 decimals) and some antenna moves."""
    xy = geometry.positions[:, :2]
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    index = {row: n for n, row in enumerate(map(tuple, np.round(xy, 12).tolist()))}
    images = {"x": np.c_[lo[0] + hi[0] - xy[:, 0], xy[:, 1]],
              "y": np.c_[xy[:, 0], lo[1] + hi[1] - xy[:, 1]],
              "diagonal": np.c_[xy[:, 1] - lo[1] + lo[0], xy[:, 0] - lo[0] + lo[1]]}
    perms = {}
    for name, image in images.items():
        perm = [index.get(row) for row in map(tuple, np.round(image, 12).tolist())]
        if None not in perm and perm != list(range(len(perm))):
            perms[name] = np.array(perm)
    return perms


def _cells(mask, dx=0.3, dy=None, offset=(0.0, 0.0)):
    """The grid points (ix dx, iy dy) + offset at the true cells of mask[ix, iy]."""
    ix, iy = np.nonzero(np.asarray(mask))
    return ArrayGeometry(np.c_[ix * dx + offset[0], iy * (dy or dx) + offset[1],
                               np.zeros(ix.size)])


_FULL = np.ones((8, 8), dtype=bool)
_L = _FULL.copy()
_L[3:, 3:] = False
_PLUS = np.zeros((7, 7), dtype=bool)
_PLUS[2:5, :] = _PLUS[:, 2:5] = True
_HOLED = _FULL.copy()
_HOLED[3:5, 3:5] = False
_OFF_HOLE = _FULL.copy()
_OFF_HOLE[1:3, 3:5] = False
_NOTCHED = _FULL.copy()
_NOTCHED[0, 0] = False


@pytest.mark.parametrize("g, names", [
    (build_upa(6, 6, 0.3), ["diagonal", "x", "y"]),
    (build_upa(41, 41, 0.25), ["diagonal", "x", "y"]),
    (build_upa(7, 6, 0.3), ["x", "y"]),
    (ArrayGeometry(build_upa(5, 4, 0.35).positions + [1.3, -0.7, 0.2]), ["x", "y"]),
    (ArrayGeometry(build_upa(6, 6, 0.35).positions + [1.3, -0.7, 0.2]), ["diagonal", "x", "y"]),
    (build_upa(6, 6, 0.3, 0.35), ["x", "y"]),
    (build_ula(9, 0.4), ["x"]),
    (_cells(np.ones((1, 7))), ["y"]),
    (build_upa(2, 9, 0.5), ["x", "y"]),
    (_cells(_L), ["diagonal"]),
    (_cells(_PLUS, offset=(-0.9, 0.4)), ["diagonal", "x", "y"]),
    (_cells(_HOLED), ["diagonal", "x", "y"]),
    (_cells(_OFF_HOLE), ["y"]),
    (_cells(_NOTCHED), ["diagonal"]),
    (_cells(_L, 0.3, 0.4), []),
], ids=["6x6", "41x41", "7x6", "translated", "translated-square", "non-square-spacing", "ula",
        "ula-along-y", "2x9", "L", "plus", "holed", "off-centre-hole", "notched", "L-stretched"])
def test_grid_reflections_match_position_matching(g, names):
    # the reflections read off the difference index are the permutations
    # that matching the mirror images' positions finds, in any listing order
    g = ArrayGeometry(g.positions[np.random.default_rng(3).permutation(g.n_antennas)])
    grid = array_grid(g.positions)
    assert grid is not None
    # a constant table is even under every reflection the array admits
    got, ref = grid.reflections(np.ones((grid.dx.size, grid.dy.size))), _matched_reflections(g)
    assert sorted(got) == sorted(ref) == names
    for name in names:
        assert np.array_equal(got[name], ref[name])


def test_general_rejects_asymmetric_pattern():
    # a pattern that is not point-symmetric in (kx, ky) leaves an imaginary
    # residue far above quadrature noise; a coupling matrix must be real
    tilted = AntennaPattern("tilted", lambda th, ph: 1.0 + np.sin(th) * np.cos(ph))
    with pytest.raises(RuntimeError, match="residue"):
        coupling_general(build_upa(3, 3, 0.3), tilted)


def test_general_rejects_a_small_tilt():
    # a 2e-6 tilt leaves an imaginary part of about 8e-7 of the peak: no
    # quadrature noise (point-symmetric patterns stay within 1e-15 of it),
    # so it is refused, not dropped
    tilted = AntennaPattern("tilted", lambda th, ph: 1.0 + 2e-6 * np.sin(th) * np.cos(ph))
    with pytest.raises(RuntimeError, match="residue"):
        coupling_general(build_upa(3, 3, 0.3), tilted)


def test_regularize():
    g = build_ula(4, 0.25)
    c = coupling_closed_form(g)
    r1 = regularize(c, 0.1)
    assert np.allclose(r1.matrix, c.matrix + 0.1 * np.eye(4))
    assert r1.rho == pytest.approx(0.1)
    r2 = regularize(r1, 0.05)
    assert r2.rho == pytest.approx(0.15)
    with pytest.raises(ValueError):
        regularize(c, -0.1)
    # several rhos are refused by name, not with numpy's size-1 conversion error
    with pytest.raises(ValueError, match=r"regularize takes one rho, got \[0\.1, 0\.2\]"):
        regularize(c, [0.1, 0.2])


def test_regularize_keeps_the_table():
    # rho lands on the zero difference, which only the diagonal pairs hit
    g = build_upa(5, 4, 0.3)
    c = coupling_closed_form(g)
    r = regularize(c, 0.1)
    assert r.grid is c.grid and r.entries.shape == c.entries.shape == (9, 7)
    assert np.array_equal(r.matrix, c.matrix + 0.1 * np.eye(20))


@pytest.mark.parametrize("positions", [
    [[0.0, 0.0, 0.0], [1e-13, 1.0, 0.0], [0.0, 2.0, 0.0]],
], ids=["rows"])
def test_coordinates_within_the_grouping_take_the_pairs(positions):
    # two distinct x coordinates closer than the 1e-12 grouping share the zero
    # difference, so no table could tell their pairs from the diagonal (on one
    # row they would be closer than ArrayGeometry allows)
    g = ArrayGeometry(positions)
    assert array_grid(g.positions) is None
    c = coupling_closed_form(g)
    assert c.grid is None
    # off a table rho lands on the diagonal of the matrix and nowhere else
    assert np.array_equal(regularize(c, 0.5).matrix - c.matrix, 0.5 * np.eye(3))


def test_spd_sqrt_round_trip():
    g = build_upa(4, 4, 0.3)
    c = regularize(coupling_closed_form(g), 0.01)
    s = spd_sqrt(c)
    assert np.abs(s @ s - c.matrix).max() < 1e-10
    f = spd_inv_sqrt(c)
    assert np.abs(f @ c.matrix @ f - np.eye(16)).max() < 1e-9


def test_spd_sqrt_hermitian_complex():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a @ a.conj().T + 0.5 * np.eye(6)
    s = spd_sqrt(h)
    assert np.abs(s @ s - h).max() < 1e-10
    f = spd_inv_sqrt(h)
    assert np.abs(f @ h @ f - np.eye(6)).max() < 1e-10


def test_spd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semidefinite"):
        spd_sqrt(np.diag([1.0, -1.0]))


def test_spd_sqrt_rejects_non_square():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        spd_sqrt(np.ones((2, 3)))


def test_inv_sqrt_singular_error_is_actionable():
    # quarter-wavelength coupling is singular at machine precision without rho
    c = coupling_closed_form(build_upa(10, 10, 0.25))
    with pytest.raises(SingularCouplingError, match="rho"):
        spd_inv_sqrt(c)
    # a modest rho fixes it
    spd_inv_sqrt(regularize(c, 1e-3))


def _coupling_run(tmp_path, tx, rho):
    """The coupling_matrix.csv of a coupling-matrix run with omni elements."""
    cfg = ExperimentConfig(kind="coupling-matrix", tx=tx, rho=rho)
    run_experiment(cfg, "c", tmp_path)
    return tmp_path / "coupling_matrix.csv"


def test_coupling_csv(tmp_path):
    g = build_ula(3, 0.5)
    path = _coupling_run(tmp_path, {"kind": "ula", "n": 3, "d": 0.5}, [0.25])
    lines = path.read_text().splitlines()
    assert lines[:5] == ["# n_antennas=3", "# rho=0.25", "# kind=closed-form",
                         f"# geometry={g.content_hash()}", "row,col,value"]
    data = np.loadtxt(path, delimiter=",", skiprows=5)
    assert data.shape == (9, 3)
    assert np.array_equal(data[:, :2], np.indices((3, 3)).reshape(2, -1).T)
    m = data[:, 2].reshape(3, 3)
    assert np.abs(m - regularize(coupling_closed_form(g), 0.25).matrix).max() < 1e-12


def test_coupling_csv_bytes(tmp_path):
    # row-major (row, col) order and %.12g values: 1 + rho on the diagonal,
    # sinc(1/2) = 2/pi at a quarter wavelength and sinc(1), roundoff of
    # about 3.9e-17, at half a wavelength
    g = build_ula(3, 0.25)
    path = _coupling_run(tmp_path, {"kind": "ula", "n": 3, "d": 0.25}, [0.5])
    header = (f"# n_antennas=3\n# rho=0.5\n# kind=closed-form\n# geometry={g.content_hash()}\n"
              f"row,col,value\n").encode()
    assert path.read_bytes() == header + (b"0,0,1.5\n0,1,0.636619772368\n0,2,3.89817183252e-17\n"
                                          b"1,0,0.636619772368\n1,1,1.5\n1,2,0.636619772368\n"
                                          b"2,0,3.89817183252e-17\n2,1,0.636619772368\n2,2,1.5\n")
