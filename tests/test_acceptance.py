"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``criterion N PASS: ...`` summary line after all of
its assertions succeed (run ``pytest -s tests/test_acceptance.py`` to see
them).  The planar half of criterion 2 is expected to fail and is marked as a
strict xfail: sinc vanishes at the integers, so half-wavelength spacing
decouples line arrays, but diagonal neighbors of a half-wavelength planar
grid sit at sqrt(2)/2 wavelengths where sinc(sqrt(2)) = -0.217.  That test
prints an honest FAIL line with the measured deviation.

The preset-driven criteria execute the CLI into temporary directories and
read back the CSVs; module-scoped fixtures run each preset once so the
determinism criterion can reuse the first run.
"""

import csv
import json
import time

import numpy as np
import pytest

from holomimo import (AntennaPattern, build_fourier_basis, build_lattice, build_ula, build_upa,
                      cap_spectrum, coupled_correlation_exact, coupling_closed_form,
                      coupling_general, ergodic_capacity, exact_correlation, fourier_model,
                      isotropic_spectrum, low_snr_bound_check, matched_pattern, omni_pattern,
                      variances_coupled, variances_uncoupled)
from holomimo.capacity import _capacity_grid, _water_levels
from holomimo.cli import main as cli_main

from densities import sphere_average


def run_preset(name, out_dir, extra=()):
    rc = cli_main(["run", name, "--out-dir", str(out_dir), *extra])
    assert rc == 0, f"preset {name} exited with {rc}"
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def column(rows, name):
    return np.array([float(r[name]) for r in rows])


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    return out, run_preset("fig2", out)


@pytest.fixture(scope="module")
def fig5_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    return out, run_preset("fig5", out)


@pytest.fixture(scope="module")
def fig6_desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6_desk")
    return out, run_preset("fig6-desk", out)


def test_criterion_1_general_coupling_matches_closed_form():
    start = time.perf_counter()
    # the unit pattern under its own evaluator takes the hemisphere quadrature
    pattern = AntennaPattern("omni-quadrature", lambda th, ph: np.ones_like(th))
    devs = {}
    for label, g in (("8-element 0.3-wavelength line", build_ula(8, 0.3)),
                     ("5x5 grid at 0.35 wavelengths", build_upa(5, 5, 0.35))):
        general = coupling_general(g, pattern).matrix
        closed = coupling_closed_form(g).matrix
        devs[label] = np.abs(general - closed).max()
        assert devs[label] < 1e-6, f"{label}: max deviation {devs[label]:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    worst = max(devs.values())
    print(f"criterion 1 PASS: quadrature coupling matches sinc closed form, "
          f"max entrywise deviation {worst:.3e} (tolerance 1e-06), {elapsed:.2f} s")


def test_criterion_2_half_wavelength_ula_identity():
    c = coupling_closed_form(build_ula(16, 0.5)).matrix
    dev = np.abs(c - np.eye(16)).max()
    assert dev < 1e-12
    print(f"criterion 2 PASS (line array): half-wavelength 16-element line array "
          f"max|C - I| = {dev:.3e} (machine precision)")


@pytest.mark.xfail(strict=True, reason="sinc vanishes at the integers, so half-wavelength "
                   "spacing decouples line arrays only: diagonal neighbors of a planar grid "
                   "are sqrt(2)/2 wavelengths apart and sinc(sqrt(2)) = -0.217")
def test_criterion_2_half_wavelength_upa_identity():
    c = coupling_closed_form(build_upa(8, 8, 0.5)).matrix
    dev = np.abs(c - np.eye(64)).max()
    print(f"criterion 2 FAIL (planar array, expected): half-wavelength 8x8 grid "
          f"max|C - I| = {dev:.4f} = |sinc(sqrt(2))|; the identity property holds "
          f"for line arrays only")
    assert dev < 1e-12


def test_criterion_3_normalization_suite():
    lattice = build_lattice(build_upa(41, 41, 0.5))
    s_iso = variances_uncoupled(lattice, isotropic_spectrum()).sum()
    s_proj = variances_coupled(lattice, isotropic_spectrum(), omni_pattern()).sum()
    assert abs(s_iso - 1.0) < 1e-4, f"solid-angle variance sum {s_iso:.6f}"
    assert abs(s_proj - 1.0) < 1e-4, f"projected solid-angle sum {s_proj:.6f}"
    objs = [isotropic_spectrum(), cap_spectrum(np.pi / 3), cap_spectrum(np.pi / 6),
            omni_pattern(), matched_pattern(isotropic_spectrum()),
            matched_pattern(cap_spectrum(np.pi / 3))]
    worst = 0.0
    for obj in objs:
        worst = max(worst, abs(sphere_average(obj) - 1.0))
    assert worst < 1e-6
    print(f"criterion 3 PASS: variance sum 1{s_iso - 1.0:+.2e}, projected solid angles "
          f"1{s_proj - 1.0:+.2e} (tolerance 1e-04); {len(objs)} normalization integrals "
          f"within {worst:.1e} of 1 (tolerance 1e-06)")


def test_criterion_4_eigenvalue_polarization_full_scale(fig2_run):
    out, manifest = fig2_run
    n = build_lattice(build_upa(41, 41, 0.5)).n_points
    assert n == 1257
    fourier = read_rows(out / "eigs_fourier_uncoupled.csv")
    assert len(fourier) == 1257, f"{len(fourier)} nonzero beamspace eigenvalues"
    assert np.isfinite(column(fourier, "eig_db_trace_normalized")).all()

    exact = read_rows(out / "eigs_exact_uncoupled.csv")
    ev = 10.0 ** (column(exact, "eig_db_trace_normalized") / 10.0)
    capture = ev[:n].sum() / ev.sum()
    assert capture >= 0.90, f"first-{n} capture {capture:.4f}"

    db_e = column(exact, "eig_db_trace_normalized")[:n]
    db_f = column(fourier, "eig_db_trace_normalized")
    frac = np.arange(1, n + 1) / n
    band = (frac >= 0.1) & (frac <= 0.9)
    dev = np.abs(db_e[band] - db_f[band]).max()
    assert dev <= 1.0, f"max dB deviation {dev:.3f} in the index/n 0.1..0.9 band"

    wall = manifest["wall_time_s"]
    assert wall < 300.0, f"took {wall:.0f} s"
    print(f"criterion 4 PASS: exactly {len(fourier)} nonzero beamspace eigenvalues, "
          f"first-{n} capture {100 * capture:.1f}% of trace (>= 90%), curves within "
          f"{dev:.2f} dB over index/n in [0.1, 0.9] (<= 1 dB), {wall:.1f} s (< 300 s)")


def test_criterion_5_dof_augmentation(fig5_run):
    out, manifest = fig5_run
    rows = read_rows(out / "dof_counts.csv")
    uncoupled = int(rows[0]["count_above_threshold"])
    assert rows[0]["curve"] == "uncoupled"
    coupled = [(float(r["rho"]), int(r["count_above_threshold"])) for r in rows[1:]]
    assert [r for r, _ in coupled] == [0.1, 0.01, 0.001]
    for rho, count in coupled:
        assert count > uncoupled, f"rho={rho:g}: {count} not > uncoupled {uncoupled}"
    counts_desc_rho = [c for _, c in sorted(coupled, key=lambda rc: -rc[0])]
    assert all(a <= b for a, b in zip(counts_desc_rho, counts_desc_rho[1:])), (
        f"counts {counts_desc_rho} increase with rho")
    wall = manifest["wall_time_s"]
    assert wall < 600.0, f"took {wall:.0f} s"
    print(f"criterion 5 PASS: eigenvalues above -40 dB grow from {uncoupled} (uncoupled) to "
          f"{', '.join(f'{c} at rho={r:g}' for r, c in coupled)}; nonincreasing in rho; "
          f"{wall:.1f} s (< 600 s)")


def test_fig5_dof_counts_are_pinned(fig5_run):
    # The counts criterion 5 orders, held to their values: the exact
    # eigenvalue solves may move at roundoff, never across the threshold.
    out, _ = fig5_run
    rows = read_rows(out / "dof_counts.csv")
    counts = [(r["curve"], r["rho"], int(r["count_above_threshold"])) for r in rows]
    assert counts == [("uncoupled", "", 503), ("coupled", "0.1", 576),
                      ("coupled", "0.01", 612), ("coupled", "0.001", 644)]


def test_criterion_6_capacity_crossing_desk_scale(fig6_desk_run):
    out, manifest = fig6_desk_run
    assert manifest["config"]["mc"] >= 100
    snr = column(read_rows(out / "capacity_iid.csv"), "snr_db")
    iid = column(read_rows(out / "capacity_iid.csv"), "capacity_bits")
    unc = column(read_rows(out / "capacity_uncoupled.csv"), "capacity_bits")
    rhos = [0.3, 0.1, 0.03]
    curves = {r: column(read_rows(out / f"capacity_coupled_rho{r:g}.csv"), "capacity_bits")
              for r in rhos}

    for r, c in curves.items():
        diff = c - unc
        assert np.all(diff != 0.0)
        changes = int(np.count_nonzero(np.diff(np.sign(diff)) != 0))
        assert changes == 1, f"rho={r:g}: {changes} crossings of the uncoupled curve"

    hi = int(np.flatnonzero(snr == 30.0)[0])
    at30 = [curves[r][hi] for r in rhos]  # rho decreasing
    assert all(a < b for a, b in zip(at30, at30[1:])), f"30 dB not increasing as rho falls: {at30}"
    assert all(c < iid[hi] for c in at30), "coupled curves must stay below IID at 30 dB"

    lo = int(np.flatnonzero(snr == -10.0)[0])
    atm10 = [curves[r][lo] for r in rhos]
    assert all(a > b for a, b in zip(atm10, atm10[1:])), f"-10 dB ordering not reversed: {atm10}"

    wall = manifest["wall_time_s"]
    assert wall < 1200.0, f"took {wall:.0f} s"
    print(f"criterion 6 PASS: each coupled curve crosses the uncoupled curve exactly once; "
          f"30 dB capacities {', '.join(f'{c:.0f}' for c in at30)} rise toward IID "
          f"{iid[hi]:.0f} as rho falls; -10 dB ordering reverses "
          f"({', '.join(f'{c:.2f}' for c in atm10)}); {wall:.1f} s (< 1200 s)")


def test_criterion_7_waterfilling_kkt_suite():
    # the water level and active count the capacity runs take, on the positive
    # part of each set in descending order, and the powers max(0, nu - 1/lambda)
    # they imply, in the set's own order
    rng = np.random.default_rng(2026)
    worst_budget = 0.0
    n_perturbations = 0
    for _ in range(1000):
        size = int(rng.integers(1, 16))
        lam = rng.uniform(0.0, 4.0, size)
        if rng.random() < 0.3:
            lam[rng.random(size) < 0.4] = 0.0
        if not np.any(lam > 0.0):
            lam[rng.integers(size)] = rng.uniform(0.5, 4.0)
        snr = float(10.0 ** rng.uniform(-2.0, 3.0))
        lam_desc = np.sort(lam[lam > 0.0])[::-1]
        n_active, level = _water_levels(lam_desc, np.array([snr]))
        nu = float(level[0])
        powers = np.zeros(size)
        powers[lam > 0.0] = np.maximum(0.0, nu - 1.0 / lam[lam > 0.0])

        worst_budget = max(worst_budget, abs(powers.sum() - snr))
        assert abs(powers.sum() - snr) <= 1e-9
        assert powers.min() >= 0.0

        active = powers > 0.0
        assert np.count_nonzero(active) == n_active[0]
        assert np.allclose(powers[active] + 1.0 / lam[active], nu, rtol=1e-9)
        inactive_pos = ~active & (lam > 0.0)
        assert np.all(1.0 / lam[inactive_pos] >= nu * (1.0 - 1e-9))
        assert np.all(powers[lam == 0.0] == 0.0)

        base = float(_capacity_grid(lam_desc, np.array([snr]))[0])
        assert base == pytest.approx(np.sum(np.log2(nu * lam[active])), rel=1e-12, abs=1e-12)
        idx_active = np.flatnonzero(active)
        for _ in range(4):
            i = int(rng.choice(idx_active))
            j = int(rng.integers(size))
            if i == j:
                continue
            delta = float(rng.uniform(0.0, 1.0)) * powers[i]
            p = powers.copy()
            p[i] -= delta
            p[j] += delta
            assert np.sum(np.log2(1.0 + p * lam)) <= base + 1e-12
            n_perturbations += 1
    print(f"criterion 7 PASS: 1000 random eigenvalue sets, budget met within "
          f"{worst_budget:.1e} (<= 1e-09), complementary slackness holds, "
          f"{n_perturbations} feasible perturbations never improved the objective")


def test_criterion_8_low_snr_bound():
    g = build_upa(13, 13, 0.25)
    configs = [
        ("isotropic spectrum, omni pattern", isotropic_spectrum(), omni_pattern()),
        ("cap(pi/3) spectrum, matched pattern", cap_spectrum(np.pi / 3),
         matched_pattern(cap_spectrum(np.pi / 3))),
        ("cap(pi/6) spectrum, mismatched omni pattern", cap_spectrum(np.pi / 6),
         omni_pattern()),
    ]
    ratios = []
    for label, spectrum, pattern in configs:
        rx = build_fourier_basis(g, spectrum)
        tx = build_fourier_basis(g, spectrum, pattern)
        chk = low_snr_bound_check(fourier_model(rx, tx), n_mc=500, seed=80)
        assert chk.holds and chk.violations == 0, f"{label}: {chk.violations} violations"
        ratios.append(chk.ratio)

    tiny = build_fourier_basis(build_upa(2, 2, 0.25), isotropic_spectrum())
    assert tiny.n_points == 1
    chk = low_snr_bound_check(fourier_model(tiny, tiny), n_mc=500, seed=80)
    gap = abs(chk.lhs_mean - chk.rhs_mean)
    assert gap <= 2.0 * chk.stderr_lhs, f"rank-1 gap {gap:.3e} vs 2*stderr {2*chk.stderr_lhs:.3e}"
    print(f"criterion 8 PASS: top-eigenvalue bound holds on 500 draws for 3 configurations "
          f"(mean-to-bound ratios {', '.join(f'{r:.3f}' for r in ratios)}); rank-1 case is an "
          f"equality (gap {gap:.1e} <= 2 stderr)")


def _support_dof(basis, spectrum):
    """The lattice points under a spectrum's support cap, ceil(n sin^2 theta0):
    n for full support."""
    return int(np.ceil(basis.n_points * np.sin(spectrum.theta0) ** 2 - 1e-12))


def _high_snr_slope(model):
    """Ergodic capacity slope from 30 to 45 dB in bits per octave of SNR."""
    curve, = ergodic_capacity([model], [30.0, 45.0], 300, 90)
    return float(np.diff(curve.capacity_bits)[0] / ((45.0 - 30.0) / 10.0 * np.log2(10.0)))


def test_criterion_9_high_snr_dof_slope():
    g = build_upa(13, 13, 0.25)
    iso, cap = isotropic_spectrum(), cap_spectrum(np.pi / 6)
    b_iso = build_fourier_basis(g, iso)
    b_cap = build_fourier_basis(g, cap)

    slope_iso = _high_snr_slope(fourier_model(b_iso, b_iso))
    predicted_iso = _support_dof(b_iso, iso)
    assert predicted_iso == 29
    assert abs(slope_iso / predicted_iso - 1.0) <= 0.10, (
        f"isotropic slope {slope_iso:.2f} vs predicted {predicted_iso}")

    slope_cap = _high_snr_slope(fourier_model(b_iso, b_cap))
    predicted_cap = min(predicted_iso, _support_dof(b_cap, cap))
    assert predicted_cap == 8  # ceil(sin^2(30 deg) * 29)
    assert abs(slope_cap / predicted_cap - 1.0) <= 0.15, (
        f"cap slope {slope_cap:.2f} vs predicted {predicted_cap}")
    print(f"criterion 9 PASS: 30-45 dB slope {slope_iso:.2f} vs predicted {predicted_iso} "
          f"({100 * abs(slope_iso / predicted_iso - 1):.1f}% <= 10%) isotropic; "
          f"{slope_cap:.2f} vs predicted {predicted_cap} "
          f"({100 * abs(slope_cap / predicted_cap - 1):.1f}% <= 15%) for the 30-degree cap")


def test_criterion_10_matched_whitening_identity():
    g = build_upa(6, 6, 0.4)
    spectrum = isotropic_spectrum()
    coupling = coupling_general(g, matched_pattern(spectrum))
    eigmin = float(np.linalg.eigvalsh(coupling.matrix)[0])
    assert eigmin > 1e-6, f"instance not well conditioned (eigmin {eigmin:.1e})"
    white = coupled_correlation_exact(exact_correlation(g, spectrum), coupling).matrix
    dev = np.abs(white - np.eye(g.n_antennas)).max()
    assert dev < 1e-6
    print(f"criterion 10 PASS: matched pattern, rho=0, 6x6 at 0.4 wavelengths "
          f"(eigmin {eigmin:.1e}): whitened correlation equals identity within {dev:.1e} "
          f"(tolerance 1e-06)")


def test_criterion_11_preset_determinism(tmp_path, fig2_run, fig5_run, fig6_desk_run):
    # fig6 full scale reruns with mc=3 (seed unchanged): determinism does not
    # depend on the Monte-Carlo budget and the full budget takes minutes per run
    first = {"fig2": fig2_run[0], "fig5": fig5_run[0], "fig6-desk": fig6_desk_run[0]}
    extras = {"fig6": ("--mc", "3")}
    compared = {}
    for name in ("fig2", "fig3", "fig5", "fig6", "fig6-desk"):
        extra = extras.get(name, ())
        if name in first and not extra:
            dir_a = first[name]
        else:
            dir_a = tmp_path / f"{name}-a"
            run_preset(name, dir_a, extra)
        dir_b = tmp_path / f"{name}-b"
        run_preset(name, dir_b, extra)
        names_a = sorted(p.name for p in dir_a.glob("*.csv"))
        names_b = sorted(p.name for p in dir_b.glob("*.csv"))
        assert names_a == names_b and names_a, f"{name}: output sets differ"
        for file_name in names_a:
            same = (dir_a / file_name).read_bytes() == (dir_b / file_name).read_bytes()
            assert same, f"{name}/{file_name} differs between identical-seed reruns"
        compared[name] = len(names_a)
    total = sum(compared.values())
    print(f"criterion 11 PASS: reran all {len(compared)} presets with unchanged seeds; "
          f"{total} CSV files byte-identical (fig6 at mc=3 override)")
