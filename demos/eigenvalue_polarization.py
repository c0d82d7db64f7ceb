"""Eigenvalue polarization of spatial correlation on a dense aperture.

The correlation eigenvalues of a half-wavelength array split into a flat
plateau of significant modes and a steep evanescent tail.  The beamspace
model predicts the plateau size from pure geometry: the number n of
wavenumber-lattice cells inside the unit disk.  This script compares the
exact eigenvalue staircase with the beamspace one on a 5-wavelength array.
"""

import numpy as np

from holomimo import build_fourier_basis, build_upa, exact_spectra, isotropic_spectrum, omni_pattern


def main():
    g = build_upa(11, 11, 0.5)  # 5-wavelength square aperture
    spectrum = isotropic_spectrum()

    basis = build_fourier_basis(g, spectrum)
    n = basis.n_points
    model_ev = basis.model_eigenvalues()
    exact_ev, _ = exact_spectra(g, spectrum, omni_pattern(), [])

    print(f"aperture {g.aperture[0]:g} x {g.aperture[1]:g} wavelengths, "
          f"{g.n_antennas} antennas, lattice size n = {n}")
    print(f"beamspace model: exactly {int(np.count_nonzero(model_ev > 0))} nonzero eigenvalues")
    capture = exact_ev[:n].sum() / exact_ev.sum()
    print(f"exact correlation: first {n} eigenvalues capture {100 * capture:.1f}% of the trace")

    mean = exact_ev.sum() / g.n_antennas
    print(f"\n{'index/n':>8} {'exact (dB)':>11} {'beamspace (dB)':>15}")
    for frac in (0.25, 0.5, 0.75, 1.0, 1.1, 1.3):
        i = min(int(round(frac * n)), exact_ev.size) - 1
        e_db = 10.0 * np.log10(max(exact_ev[i], 1e-300) / mean)
        m_db = (10.0 * np.log10(model_ev[i] / mean) if i < model_ev.size and model_ev[i] > 0
                else -np.inf)
        print(f"{(i + 1) / n:8.2f} {e_db:11.2f} {m_db:15.2f}")
    print("\nthe exact staircase follows the beamspace plateau, then falls off the")
    print("cliff at index/n = 1: modes beyond the lattice are evanescent")


if __name__ == "__main__":
    main()
