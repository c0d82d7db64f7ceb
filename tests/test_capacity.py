import numpy as np
import pytest

import holomimo.capacity
from holomimo import (ChannelModel, build_fourier_basis, build_upa, coupling_closed_form,
                      ergodic_capacity, exact_correlation, exact_model, fourier_model, iid_model,
                      isotropic_spectrum, low_snr_bound_check, regularize, spd_inv_sqrt, spd_sqrt,
                      whitened_eigenvalues)
from holomimo import _lapack
from holomimo.capacity import _capacity_grid, _draw_block, _mc_pass, _water_levels
from holomimo.channel import complex_normal, substream


def _waterfill(lam_desc, snr):
    """The powers max(0, nu - 1/lambda) at the level the capacity runs take,
    with that level, the active count and the capacity, for one positive,
    descending spectrum."""
    lam_desc, snr = np.asarray(lam_desc, dtype=float), np.array([snr])
    active, level = _water_levels(lam_desc, snr)
    powers = np.maximum(0.0, level[0] - 1.0 / lam_desc)
    return powers, float(level[0]), int(active[0]), float(_capacity_grid(lam_desc, snr)[0])


def test_waterfill_two_channel_oracle():
    # lambda = (4, 1), budget 0.5: only the strong channel is active,
    # nu = (0.5 + 1/4) / 1 = 0.75, capacity = log2(0.75 * 4) = log2 3
    powers, level, n_active, bits = _waterfill([4.0, 1.0], 0.5)
    assert np.allclose(powers, [0.5, 0.0], atol=1e-14)
    assert level == pytest.approx(0.75, abs=1e-14)
    assert n_active == 1
    assert bits == pytest.approx(1.5849625007211562, abs=1e-12)


def test_waterfill_both_active_oracle():
    # budget 1.0: nu = (1 + 1/4 + 1) / 2 = 1.125, powers (0.875, 0.125)
    powers, _, n_active, bits = _waterfill([4.0, 1.0], 1.0)
    assert np.allclose(powers, [0.875, 0.125], atol=1e-14)
    assert n_active == 2
    assert bits == pytest.approx(np.log2(4.5) + np.log2(1.125), abs=1e-12)


def test_waterfill_activation_threshold():
    # the weak channel of (4, 1) turns on exactly above snr = 1/1 - 1/4 = 0.75
    assert _waterfill([4.0, 1.0], 0.75)[2] == 1
    assert _waterfill([4.0, 1.0], 0.7500001)[2] == 2


def test_waterfill_budget_and_positivity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        lam = rng.uniform(0.0, 5.0, size=rng.integers(1, 12))
        lam[rng.integers(lam.size)] = lam.max() + 0.1  # ensure a positive one
        snr = float(rng.uniform(0.01, 100.0))
        powers = _waterfill(np.sort(lam)[::-1], snr)[0]
        assert powers.min() >= 0.0
        assert powers.sum() == pytest.approx(snr, rel=1e-12)


def test_waterfill_kkt_conditions():
    rng = np.random.default_rng(5)
    for _ in range(30):
        lam = np.sort(rng.uniform(0.05, 4.0, size=8))[::-1]
        powers, level, n_active, _ = _waterfill(lam, float(rng.uniform(0.1, 20.0)))
        active = powers > 0
        assert np.count_nonzero(active) == n_active
        # active channels sit exactly at the water level, inactive below it
        assert np.allclose(powers[active] + 1.0 / lam[active], level, rtol=1e-12)
        assert np.all(1.0 / lam[~active] >= level - 1e-12)


def test_waterfill_ties_split_equally():
    powers, _, n_active, _ = _waterfill([2.0, 2.0, 0.5], 0.3)
    assert n_active == 2
    assert powers[0] == pytest.approx(powers[1], abs=1e-15)
    assert powers[2] == 0.0


def test_waterfill_local_optimality():
    rng = np.random.default_rng(23)
    lam = np.sort(rng.uniform(0.1, 3.0, size=6))[::-1]
    powers, _, _, base = _waterfill(lam, 5.0)
    # moving mass between any active pair never helps
    active = np.flatnonzero(powers > 0)
    for i in active:
        for j in active:
            if i == j:
                continue
            eps = min(1e-4, powers[i])
            p = powers.copy()
            p[i] -= eps
            p[j] += eps
            assert np.sum(np.log2(1.0 + p * lam)) <= base + 1e-12


def test_waterfill_error_modes():
    # a run waterfills what its models and SNR grid let through: an empty or
    # indefinite spectrum and a zero budget are refused, and a spectrum with
    # no power carries no bits at any SNR
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        exact_model([])
    with pytest.raises(ValueError, match="snr"):
        ergodic_capacity([exact_model([1.0])], [-np.inf], n_mc=2)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        exact_model([1.0, -0.5])
    curve, = ergodic_capacity([exact_model([0.0, 0.0])], [0.0, 30.0], n_mc=2)
    assert np.array_equal(curve.capacity_bits, [0.0, 0.0])


def test_capacity_grid_matches_waterfill():
    # the grid's closed form against the mutual information of the powers
    # that each point's level implies
    rng = np.random.default_rng(31)
    lam = np.sort(rng.uniform(0.05, 5.0, size=9))[::-1]
    snr_db = np.arange(-10.0, 41.0, 5.0)
    grid = _capacity_grid(lam, 10.0 ** (snr_db / 10.0))
    for c, db in zip(grid, snr_db):
        powers = _waterfill(lam, 10.0 ** (db / 10.0))[0]
        assert c == pytest.approx(np.sum(np.log2(1.0 + powers * lam)), rel=1e-12)


def test_ergodic_capacity_reproducible_and_monotone():
    model = iid_model(4, 4)
    a, = ergodic_capacity([model], [-10.0, 0.0, 10.0, 20.0], n_mc=50, seed=12)
    b, = ergodic_capacity([model], [-10.0, 0.0, 10.0, 20.0], n_mc=50, seed=12)
    assert np.array_equal(a.capacity_bits, b.capacity_bits)
    assert np.all(np.diff(a.capacity_bits) > 0)
    assert np.all(a.stderr > 0)
    assert a.n_mc == 50
    assert a.label == model.label
    single, = ergodic_capacity([model], [0.0], n_mc=1, seed=0)
    assert single.stderr[0] == 0.0
    # a whole count in another type is recorded as the int it counts
    assert type(ergodic_capacity([model], [0.0], n_mc=np.float64(2.0))[0].n_mc) is int


def test_ergodic_capacity_zero_channel_carries_nothing():
    zero = ChannelModel(np.zeros(3), np.zeros(4), "zero", "exact")
    curve, = ergodic_capacity([zero], [-10.0, 0.0, 20.0, 40.0], n_mc=5, seed=0)
    assert np.array_equal(curve.capacity_bits, np.zeros(4))
    assert np.array_equal(curve.stderr, np.zeros(4))


def test_ergodic_capacity_error_modes():
    with pytest.raises(ValueError):
        ergodic_capacity([iid_model(2, 2)], [], n_mc=10)
    with pytest.raises(ValueError):
        ergodic_capacity([iid_model(2, 2)], [0.0], n_mc=0)
    with pytest.raises(ValueError, match="no models"):
        ergodic_capacity([], [0.0], n_mc=10)
    # one pass shares each W, so every model must have the same shape
    with pytest.raises(ValueError, match=r"'iid' 4x4, 'iid' 4x5"):
        ergodic_capacity([iid_model(4, 4), iid_model(4, 5)], [0.0], n_mc=3)


def _tilted(n_r, n_t, label):
    """Unit transmit side, a ramp on receive: shares a wide pass's larger side with iid."""
    return ChannelModel(np.linspace(0.2, 1.5, n_r), np.ones(n_t), label, "exact")


def _white(n_r, n_t):
    """The dense white reference: a unit-spectrum exact model, whose Gram is
    taken on the pass's W (an iid_model takes its law instead)."""
    return exact_model(np.ones(n_t), n_r, label="white")


@pytest.mark.parametrize("n_r, n_t", [(7, 5), (5, 7)])
def test_gram_eigenvalues_match_squared_singular_values(n_r, n_t):
    n = min(n_r, n_t)
    models = [_white(n_r, n_t),
              exact_model(np.linspace(3.0, 0.0, n_t), n_rx=n_r, normalize="receive"),
              _tilted(n_r, n_t, "tilted"),
              ChannelModel(np.zeros(n_r), np.zeros(n_t), "zero", "exact")]
    spectra = _mc_pass(models, 4, seed=9)
    assert spectra.shape == (4, len(models), n)
    for i, per_model in enumerate(spectra):
        for model, lam in zip(models, per_model):
            s = np.linalg.svd(model.realize(9, i), compute_uv=False)
            assert np.all(np.diff(lam) <= 0.0)
            assert np.abs(lam - s * s).max() <= 1e-12 * s[0] ** 2, model.label


def test_worker_pass_matches_in_process_pass():
    # blocks of draw indices come back in index order, whatever their count
    models = [iid_model(5, 7), _tilted(5, 7, "tilted")]
    in_process = _mc_pass(models, 5, seed=3)
    # numpy integers count as whole numbers
    for n_mc, workers in ((5, 1), (np.int64(5), np.int64(2))):
        assert np.array_equal(_mc_pass(models, n_mc, seed=3, workers=workers), in_process)
    with pytest.raises(ValueError, match="workers"):
        _mc_pass(models, 5, seed=3, workers=0)


@pytest.mark.parametrize("rx, tx", [((4, 4), (3, 3)), ((3, 3), (4, 4))])
def test_gram_eigenvalues_match_svd_fourier(rx, tx):
    spectrum = isotropic_spectrum()
    model = fourier_model(build_fourier_basis(build_upa(*rx, 0.4), spectrum),
                          build_fourier_basis(build_upa(*tx, 0.4), spectrum))
    assert model.shape[0] != model.shape[1]
    for i, (lam,) in enumerate(_mc_pass([model], 3, seed=4)):
        s = np.linalg.svd(model.realize(4, i), compute_uv=False)
        assert np.abs(lam - s * s).max() <= 1e-12 * s[0] ** 2


def test_joint_pass_matches_single_model_passes():
    # every curve of a pass sees the same W per draw index (the iid curve its
    # own law draws), so a joint pass reproduces each one-model pass bit for
    # bit, in any order
    models = [iid_model(5, 6),
              exact_model(np.linspace(3.0, 0.0, 6), n_rx=5, normalize="receive", label="tilted"),
              exact_model([4.0, 1.0, 0.5, 0.2, 0.1, 0.0], n_rx=5, label="steep")]
    snr_db = [-10.0, 0.0, 10.0, 30.0]
    joint = ergodic_capacity(models, snr_db, n_mc=20, seed=5)
    reordered = ergodic_capacity(models[::-1], snr_db, n_mc=20, seed=5)[::-1]
    assert [c.label for c in joint] == [m.label for m in models]
    for model, a, b in zip(models, joint, reordered):
        single, = ergodic_capacity([model], snr_db, n_mc=20, seed=5)
        for curve in (a, b):
            assert np.array_equal(curve.capacity_bits, single.capacity_bits)
            assert np.array_equal(curve.stderr, single.stderr)


def _z(a, b):
    """Two-sample z score of the means of a and b."""
    return (a.mean() - b.mean()) / np.hypot(a.std(ddof=1) / np.sqrt(a.size),
                                            b.std(ddof=1) / np.sqrt(b.size))


@pytest.mark.parametrize("n_r, n_t", [(32, 32), (40, 24)])
def test_wishart_law_matches_dense_draws(n_r, n_t):
    # the tridiagonal law against dense Grams of independent draws: the mean
    # top eigenvalue, trace (m n exactly) and capacity at -10 and +10 dB
    n_mc = 2000
    law = _draw_block([iid_model(n_r, n_t)], 11, 0, n_mc)[:, 0]
    dense = _draw_block([_white(n_r, n_t)], 12, 0, n_mc)[:, 0]
    assert np.all(np.diff(law, axis=1) <= 0.0) and law[:, -1].min() > 0.0
    snr = np.array([0.1, 10.0])
    cap_law, cap_dense = (np.array([_capacity_grid(lam, snr) for lam in s]) for s in (law, dense))
    stats = [(law[:, 0], dense[:, 0]), (law.sum(axis=1), dense.sum(axis=1)),
             (cap_law[:, 0], cap_dense[:, 0]), (cap_law[:, 1], cap_dense[:, 1])]
    assert max(abs(_z(a, b)) for a, b in stats) < 4.0
    assert abs(law.sum(axis=1).mean() - n_r * n_t) < 4.0 * law.sum(axis=1).std() / np.sqrt(n_mc)


def test_iid_curve_takes_the_law_with_any_worker_count():
    # the law draws run inside the worker blocks: every count, and this
    # process, give the iid curve's bits; the other curves keep one W per draw
    models = [iid_model(4, 6), _tilted(4, 6, "tilted")]
    snr_db = [-10.0, 10.0, 30.0]
    ref = ergodic_capacity(models, snr_db, n_mc=5, seed=3)[0]
    for workers in (1, 2):
        got = ergodic_capacity(models, snr_db, n_mc=5, seed=3, workers=workers)[0]
        assert np.array_equal(got.capacity_bits, ref.capacity_bits)
        assert np.array_equal(got.stderr, ref.stderr)
    law = _mc_pass(models, 5, 3)
    dense = _mc_pass([_white(4, 6), models[1]], 5, 3)
    assert np.array_equal(law[:, 1], dense[:, 1])
    assert not np.allclose(law[:, 0], dense[:, 0])


def test_an_iid_only_pass_draws_no_channel(monkeypatch):
    import holomimo.capacity

    def refuse(*args):
        raise AssertionError("W drawn")

    monkeypatch.setattr(holomimo.capacity, "complex_normal", refuse)
    curve, = ergodic_capacity([iid_model(5, 3)], [0.0], n_mc=3, seed=1)
    assert curve.capacity_bits[0] > 0.0


def test_bound_check_keeps_the_dense_iid_tops():
    # the bound holds draw by draw, so its iid side is the dense Gram on the
    # model's own W, not a law draw
    b = build_fourier_basis(build_upa(4, 4, 0.4), isotropic_spectrum())
    model = fourier_model(b, b)
    seed, n_mc = 7, 6
    chk = low_snr_bound_check(model, n_mc=n_mc, seed=seed)
    wtop = [np.linalg.eigvalsh(w.conj().T @ w)[-1]
            for w in (complex_normal(substream(seed, i), model.shape) for i in range(n_mc))]
    top = (model.amp_r.max() * model.amp_t.max()) ** 2
    assert chk.rhs_mean == pytest.approx(top * np.mean(wtop), rel=1e-12)


def test_fallback_pass_matches_the_bound_pass(monkeypatch):
    # without the binding the law runs numpy on the dense tridiagonal and the
    # Grams numpy's eigvalsh: the same spectra to roundoff
    monkeypatch.setattr(_lapack, "TWO_STAGE_MIN", 1)
    models = [iid_model(9, 6), _tilted(9, 6, "tilted")]
    bound = _mc_pass(models, 3, 5)
    monkeypatch.setattr(_lapack, "_SYMBOLS", ("no_dsterf64_", "no_zheevd_2stage64_"))
    monkeypatch.setattr(_lapack, "_routines", None)
    assert not _lapack.bound()
    fallback = _mc_pass(models, 3, 5)
    assert np.abs(fallback - bound).max() <= 1e-12 * bound.max()


def test_low_snr_bound_holds():
    g = build_upa(6, 6, 0.4)
    b = build_fourier_basis(g, isotropic_spectrum())
    chk = low_snr_bound_check(fourier_model(b, b), n_mc=200, seed=2)
    assert chk.holds
    assert chk.violations == 0
    assert chk.ratio < 1.0
    assert chk.lhs_mean < chk.rhs_mean


def test_low_snr_bound_rank_one_equality():
    # a 2 x 2 quarter-wavelength array has a single lattice point, so the
    # bound is an identity draw by draw
    g = build_upa(2, 2, 0.25)
    b = build_fourier_basis(g, isotropic_spectrum())
    assert b.n_points == 1
    chk = low_snr_bound_check(fourier_model(b, b), n_mc=300, seed=1)
    assert chk.ratio == pytest.approx(1.0, abs=1e-12)
    assert chk.holds


def test_low_snr_bound_rejects_other_models():
    with pytest.raises(ValueError):
        low_snr_bound_check(iid_model(4, 4))


def test_low_snr_bound_refuses_empty_budget():
    b = build_fourier_basis(build_upa(4, 4, 0.4), isotropic_spectrum())
    with pytest.raises(ValueError, match="n_mc"):
        low_snr_bound_check(fourier_model(b, b), n_mc=0)


def test_high_snr_dof_iid():
    # an 8x8 iid channel gains 8 bits per octave of SNR from 30 to 45 dB
    curve, = ergodic_capacity([iid_model(8, 8)], [30.0, 45.0], n_mc=120, seed=3)
    slope = np.diff(curve.capacity_bits)[0] / ((45.0 - 30.0) / 10.0 * np.log2(10.0))
    assert abs(slope / 8 - 1.0) < 0.05


@pytest.mark.parametrize("n_mc, workers", [(2.5, None), (True, None), ("3", None), (3, 2.5),
                                           (3, np.True_)],
                         ids=["fractional-draws", "boolean-draws", "string-draws",
                              "fractional-workers", "boolean-workers"])
def test_mc_pass_refuses_a_count_that_is_not_whole(n_mc, workers):
    # a fraction, a boolean or a string is refused before any draw, not
    # truncated or parsed
    with pytest.raises(ValueError, match="must be an integer"):
        ergodic_capacity([iid_model(2, 2)], [0.0], n_mc=n_mc, workers=workers)


@pytest.mark.parametrize("seed", [1.5, "1", True], ids=["fractional", "string", "boolean"])
def test_a_seed_that_is_not_whole_is_refused(seed):
    # the seed is a count like n_mc: it is not truncated, parsed or taken for 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        ergodic_capacity([exact_model([1.0, 0.5], 2)], [0.0], n_mc=3, seed=seed)


def test_whole_seeds_of_any_type_run_the_same_stream():
    model = exact_model([1.0, 0.5], 2)
    bits = [ergodic_capacity([model], [0.0], n_mc=3, seed=s)[0].capacity_bits
            for s in (1, 1.0, np.int64(1))]
    assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[2])
    # Philox refuses keys beyond its 128 bits
    with pytest.raises(ValueError):
        ergodic_capacity([model], [0.0], n_mc=3, seed=2**128)


def test_decreasing_snr_grid_is_refused_before_any_draw(monkeypatch):
    # a grid that decreases is the caller's error, not a capacity that falls
    def no_pass(*args, **kwargs):
        raise AssertionError("a draw ran before the refusal")

    model = exact_model([1.0, 0.5], 2)
    monkeypatch.setattr(holomimo.capacity, "_mc_pass", no_pass)
    with pytest.raises(ValueError, match=r"must not decrease.*\[10\.0, 0\.0\]"):
        ergodic_capacity([model], [10.0, 0.0], n_mc=3)
    monkeypatch.undo()
    # repeated points do not decrease
    curve, = ergodic_capacity([model], [0.0, 0.0, 10.0], n_mc=3)
    assert curve.capacity_bits[0] == curve.capacity_bits[1]


_G = build_upa(3, 3, 0.3)
_C = coupling_closed_form(_G)
_R = exact_correlation(_G, isotropic_spectrum())


@pytest.mark.parametrize("call, error, match", [
    (lambda: regularize(_C, np.nan), ValueError, "nonnegative"),
    (lambda: regularize(_C, np.inf), ValueError, "nonnegative"),
    (lambda: whitened_eigenvalues(_R, _C, [np.inf]), ValueError, "nonnegative"),
    (lambda: whitened_eigenvalues(_R, _C, [0.01, np.nan]), ValueError, "nonnegative"),
    (lambda: ergodic_capacity([exact_model([1.0, 0.5])], [np.nan], n_mc=2), ValueError, "snr"),
    (lambda: spd_inv_sqrt(np.diag([1.0, np.nan, 1.0])), ValueError, "not finite"),
    (lambda: spd_sqrt(np.diag([1.0, np.nan, 1.0])), ValueError, "positive semidefinite"),
    (lambda: exact_model([1.0, np.nan]), ValueError, "positive semidefinite"),
    # every point of an SNR grid, in dB
    (lambda: ergodic_capacity([iid_model(2, 2)], [0.0, np.nan], n_mc=2), ValueError, "snr"),
    (lambda: ergodic_capacity([iid_model(2, 2)], [np.inf], n_mc=2), ValueError, "snr"),
    (lambda: ergodic_capacity([iid_model(2, 2)], [-np.inf, 30.0], n_mc=2), ValueError, "snr"),
    # finite in dB, beyond the float range once linear
    (lambda: ergodic_capacity([iid_model(2, 2)], [0.0, 4000.0], n_mc=2), ValueError, "snr"),
])
def test_non_finite_inputs_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("refuse", [exact_model], ids=["exact_model"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_spectra_are_refused(refuse, bad):
    with pytest.raises(ValueError, match="finite"):
        refuse([1.0, bad])
