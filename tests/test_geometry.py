import numpy as np
import pytest

from holomimo import build_ula, build_upa, coupling_closed_form, geometry_from_config
from holomimo.geometry import ArrayGeometry


def test_upa_corner_origin_and_order():
    g = build_upa(3, 2, 0.5, 0.25)
    assert g.n_antennas == 6
    # x index runs fastest, origin at the corner
    expect = [(0, 0), (0.5, 0), (1.0, 0), (0, 0.25), (0.5, 0.25), (1.0, 0.25)]
    assert np.allclose(g.positions[:, :2], expect)
    assert np.all(g.positions[:, 2] == 0.0)
    assert g.aperture == (1.0, 0.25)


def test_ula_along_x():
    g = build_ula(4, 0.3)
    assert np.allclose(g.positions[:, 0], [0, 0.3, 0.6, 0.9])
    assert np.all(g.positions[:, 1:] == 0.0)
    assert g.aperture == (pytest.approx(0.9), 0.0)


def test_aperture_matrix_rejects_degenerate():
    with pytest.raises(ValueError, match=r"aperture \(1\.5, 0\) is degenerate"):
        build_ula(4, 0.5).aperture_matrix()
    d = build_upa(5, 5, 0.5).aperture_matrix()
    assert np.allclose(d, [2.0, 2.0])


@pytest.mark.parametrize("build, match", [
    (lambda: ArrayGeometry(np.zeros((3, 2))), r"positions must be \(N, 3\)"),
    (lambda: ArrayGeometry(np.zeros((0, 3))), "at least one antenna"),
    (lambda: build_upa(0, 3, 0.5), "nx and ny must be positive"),
    (lambda: build_upa(3, 3, 0.5, 0.0), "spacings must be positive"),
    # a line array is a one-row grid and meets the grid's refusals
    (lambda: build_ula(0, 0.5), "nx and ny must be positive"),
    (lambda: build_ula(3, -0.1), "spacings must be positive"),
], ids=["positions-shape", "no-antennas", "upa-count", "upa-spacing", "ula-count",
        "ula-spacing"])
def test_constructor_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_duplicate_positions_rejected():
    pos = np.zeros((2, 3))
    with pytest.raises(ValueError, match="distinct"):
        ArrayGeometry(pos)


@pytest.mark.parametrize("positions", [
    # 2e-14 apart, on either side of a 1e-9 rounding boundary
    [[0.5e-9 - 1e-14, 0, 0], [0.5e-9 + 1e-14, 0, 0], [0, 1, 0]],
    [[0.0, 0.3, 0], [1.0, 0.3, 0], [1.0 + 0.9e-9, 0.3 - 0.9e-9, 0]],
], ids=["found", "diagonal"])
def test_pairs_closer_than_the_tolerance_rejected(positions):
    with pytest.raises(ValueError, match="distinct"):
        ArrayGeometry(positions)


def test_close_pairs_rejected_wherever_the_cell_edges_fall():
    # a pair 0.99e-9 apart in x and in y is refused, and one 1.01e-9 apart in
    # x accepted, at every offset across the cells of side 2e-9
    rng = np.random.default_rng(3)
    for x in np.linspace(-3e-9, 3e-9, 61):
        pos = np.array([[x, 0.5, 0], [0.3, -2.0, 0]])
        for dxy in rng.uniform(-0.99e-9, 0.99e-9, size=(4, 2)):
            with pytest.raises(ValueError, match="distinct"):
                ArrayGeometry(np.vstack([pos, [x + dxy[0], 0.5 + dxy[1], 0]]))
        assert ArrayGeometry(np.vstack([pos, [x + 1.01e-9, 0.5, 0]])).n_antennas == 3


def test_large_grid_and_crowded_cells_accepted():
    # a 100 x 100 quarter-wavelength grid, and points 1.1e-9 apart, which put
    # four of them in some cells of side 2e-9
    assert build_upa(100, 100, 0.25).n_antennas == 10000
    assert build_upa(20, 20, 1.1e-9).n_antennas == 400


def test_non_coplanar_rejected():
    pos = np.array([[0.0, 0, 0], [0.5, 0, 0.1]])
    with pytest.raises(ValueError, match="z plane"):
        ArrayGeometry(pos)


def test_config_round_trip():
    # every config table kind builds the positions of its builder
    shift = [1.0, -2.0, 0.0]
    cases = [
        ({"kind": "upa", "nx": 4, "ny": 3, "dx": 0.4, "dy": 0.5}, build_upa(4, 3, 0.4, 0.5)),
        ({"nx": 3, "ny": 3, "dx": 0.5}, build_upa(3, 3, 0.5)),
        ({"kind": "ula", "n": 5, "d": 0.3}, build_ula(5, 0.3)),
        ({"kind": "points", "positions": [[0.0, 0, 0], [0.7, 0.1, 0]]},
         ArrayGeometry(np.array([[0.0, 0, 0], [0.7, 0.1, 0]]))),
        ({"kind": "upa", "nx": 4, "ny": 3, "dx": 0.4, "offset": shift},
         build_upa(4, 3, 0.4).translated(shift)),
        ({"kind": "ula", "n": 3, "d": 0.5, "offset": [0.0, 0.0, 1.5]},
         build_ula(3, 0.5).translated([0.0, 0.0, 1.5])),
    ]
    for table, expect in cases:
        assert np.array_equal(geometry_from_config(table).positions, expect.positions), table


def test_config_rejects_unknown():
    with pytest.raises(ValueError, match="unknown geometry kind"):
        geometry_from_config({"kind": "ring", "n": 4})
    with pytest.raises(ValueError, match="unknown geometry keys"):
        geometry_from_config({"kind": "ula", "n": 4, "d": 0.5, "radius": 1.0})


def test_content_hash_tracks_positions():
    g = build_upa(4, 4, 0.5)
    assert g.content_hash() == build_upa(4, 4, 0.5).content_hash()
    assert g.content_hash() != build_upa(4, 4, 0.4).content_hash()
    # translation moves the positions, so the hash moves too
    assert g.content_hash() != g.translated([0.25, 0, 0]).content_hash()


def test_translation_invariance_of_coupling():
    g = build_upa(4, 4, 0.35)
    c0 = coupling_closed_form(g).matrix
    c1 = coupling_closed_form(g.translated([3.2, -1.7, 0.0])).matrix
    assert np.abs(c0 - c1).max() < 1e-12
