import numpy as np
import pytest

import holomimo._kernels
import holomimo.coupling
from holomimo import (build_ula, build_upa, cap_spectrum, coupling_closed_form,
                      coupling_general, isotropic_spectrum, matched_pattern, omni_pattern,
                      regularize, spd_inv_sqrt, spd_sqrt, write_coupling_csv)
from holomimo.coupling import CouplingMatrix, SingularCouplingError
from holomimo.spectra import AntennaPattern

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
        raise AssertionError("the unit density built a quadrature")

    monkeypatch.setattr(holomimo._kernels, "quadrature_for", refuse)
    monkeypatch.setattr(holomimo.coupling, "check_normalization", refuse)
    g = build_upa(4, 3, 0.3)
    c = coupling_general(g, pattern)
    assert c.kind == "closed-form"
    d = np.linalg.norm(g.positions[:, None] - g.positions[None, :], axis=-1)
    assert np.abs(c.matrix - np.sinc(2.0 * d)).max() < 1e-15


def test_general_translation_invariant():
    g = build_upa(3, 3, 0.4)
    pat = matched_pattern(cap_spectrum(np.pi / 3))
    c0 = coupling_general(g, pat).matrix
    c1 = coupling_general(g.translated([-2.0, 0.8, 0.0]), pat).matrix
    assert np.abs(c0 - c1).max() < 1e-10
    assert np.abs(c0 - c0.T).max() == 0.0


def test_general_rejects_unnormalized_pattern():
    bad = AntennaPattern("double", lambda th, ph: 2.0 * np.ones_like(th))
    with pytest.raises(ValueError, match="not normalized"):
        coupling_general(build_ula(4, 0.4), bad)


def test_general_rejects_asymmetric_pattern():
    # a pattern that is not point-symmetric in (kx, ky) leaves an imaginary
    # residue far above quadrature noise; a coupling matrix must be real
    tilted = AntennaPattern("tilted", lambda th, ph: 1.0 + np.sin(th) * np.cos(ph))
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


def test_inv_sqrt_singular_error_is_actionable():
    # quarter-wavelength coupling is singular at machine precision without rho
    c = coupling_closed_form(build_upa(10, 10, 0.25))
    with pytest.raises(SingularCouplingError, match="rho"):
        spd_inv_sqrt(c)
    # a modest rho fixes it
    spd_inv_sqrt(regularize(c, 1e-3))


def test_coupling_csv(tmp_path):
    g = build_ula(3, 0.5)
    c = regularize(coupling_closed_form(g), 0.25)
    path = tmp_path / "c.csv"
    write_coupling_csv(c, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# n_antennas=3"
    assert lines[1] == "# rho=0.25"
    assert any(line.startswith("# geometry=") for line in lines)
    assert lines[4] == "row,col,value"
    data = np.loadtxt(path, delimiter=",", skiprows=5)
    assert data.shape == (9, 3)
    m = np.zeros((3, 3))
    m[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
    assert np.abs(m - c.matrix).max() < 1e-12
