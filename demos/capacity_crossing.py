"""Ergodic-capacity crossing between coupled and uncoupled channel models.

Coupling-aware whitening redistributes channel power from a few dominant
modes to many superdirective ones.  At low SNR that hurts (waterfilling
wants concentration), at high SNR it helps (capacity wants rank), so each
coupled curve crosses the uncoupled one exactly once.  Lighter loading rho
amplifies both effects and pushes the high-SNR curve toward the IID limit.
"""

import numpy as np

from holomimo import (build_upa, ergodic_capacity, exact_model, exact_spectra, iid_model,
                      isotropic_spectrum, omni_pattern)


def main():
    g = build_upa(16, 16, 0.4)
    snr_db = np.arange(-10.0, 41.0, 10.0)
    n_mc, seed = 50, 7
    spectrum = isotropic_spectrum()

    rhos = (0.3, 0.03)
    # the transmit spectra: eig R uncoupled, eig C^{-1/2} R C^{-1/2} coupled
    # (omni elements: C = R, so the whitening is a scalar map of eig R);
    # receive-referred normalization compares the arrays at equal delivered power
    ev_r, whitened = exact_spectra(g, spectrum, omni_pattern(), rhos)
    models = [iid_model(g.n_antennas, g.n_antennas),
              exact_model(ev_r, normalize="receive", label="uncoupled")]
    for rho, ev in zip(rhos, whitened):
        models.append(exact_model(ev, normalize="receive", label=f"coupled rho={rho:g}"))
    # one pass: every curve is evaluated on the same draws of W
    curves = ergodic_capacity(models, snr_db, n_mc, seed)

    print(f"{g.n_antennas} antennas at 0.4-wavelength spacing, {n_mc} realizations "
          f"(bits per channel use)\n")
    print(f"{'snr (dB)':>9}" + "".join(f"{c.label:>18}" for c in curves))
    for i, s in enumerate(snr_db):
        print(f"{s:9.0f}" + "".join(f"{c.capacity_bits[i]:18.1f}" for c in curves))

    print()
    unc = curves[1].capacity_bits
    for c in curves[2:]:
        d = c.capacity_bits - unc
        cross = np.flatnonzero(np.diff(np.sign(d)) != 0)
        where = (f"crosses it between {snr_db[cross[0]]:g} and {snr_db[cross[0] + 1]:g} dB"
                 if cross.size else "stays below it on this whole grid")
        print(f"{c.label}: starts {d[0]:+.1f} bits vs uncoupled, ends {d[-1]:+.1f}; {where}")


if __name__ == "__main__":
    main()
