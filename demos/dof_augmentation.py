"""Degrees-of-freedom augmentation from mutual coupling.

Whitening a sub-Nyquist array's correlation by its (regularized) coupling
matrix lifts the evanescent tail of the eigenvalue staircase: superdirective
modes that the uncoupled model buries below the noise floor become usable.
The lighter the diagonal loading rho, the more modes clear the threshold.
"""

import numpy as np

from holomimo import build_upa, exact_spectra, isotropic_spectrum, omni_pattern


def count_above(ev, threshold_db):
    return int(np.count_nonzero(ev > ev.max() * 10.0 ** (threshold_db / 10.0)))


def main():
    g = build_upa(21, 21, 0.25)  # 5-wavelength aperture, quarter-wavelength spacing
    threshold_db = -40.0
    spectrum = isotropic_spectrum()

    # omni elements: C = R, so one solve of R serves every rho
    rhos = (0.1, 0.01, 0.001)
    ev, whitened = exact_spectra(g, spectrum, omni_pattern(), rhos)
    base = count_above(ev, threshold_db)
    print(f"{g.n_antennas} antennas on a {g.aperture[0]:g}-wavelength aperture, "
          f"threshold {threshold_db:g} dB below the top eigenvalue")
    print(f"\nuncoupled correlation: {base} eigenvalues above threshold")

    print(f"\n{'rho':>8} {'above threshold':>16} {'gain':>6}")
    for rho, ev in zip(rhos, whitened):
        n = count_above(ev, threshold_db)
        print(f"{rho:8g} {n:16d} {n - base:+6d}")
    print("\ncoupling-aware whitening adds usable spatial modes; the count grows")
    print("as rho shrinks because less loading preserves more superdirectivity")


if __name__ == "__main__":
    main()
