"""Tour of mutual-coupling matrices for dense line and planar arrays.

Shows the closed-form sinc coupling against the quadrature construction,
why half-wavelength spacing decouples line arrays but not planar grids,
and how fast the matrix approaches singularity as the spacing shrinks.
"""

import numpy as np

from holomimo import (AntennaPattern, build_ula, build_upa, coupling_closed_form,
                      coupling_general, regularize)


def main():
    print("=== closed form vs quadrature ===")
    g = build_upa(5, 5, 0.35)
    closed = coupling_closed_form(g).matrix
    # the unit pattern under its own evaluator takes the hemisphere quadrature
    unit = AntennaPattern("omni-quadrature", lambda th, ph: np.ones_like(th))
    general = coupling_general(g, unit).matrix
    print(f"5x5 grid at 0.35 wavelengths: max |quadrature - sinc| = "
          f"{np.abs(general - closed).max():.3e}")

    print("\n=== half-wavelength spacing ===")
    line = coupling_closed_form(build_ula(16, 0.5)).matrix
    grid = coupling_closed_form(build_upa(8, 8, 0.5)).matrix
    print(f"16-element line array:  max |C - I| = {np.abs(line - np.eye(16)).max():.3e}")
    print(f"8x8 planar grid:        max |C - I| = {np.abs(grid - np.eye(64)).max():.4f}"
          f"  (diagonal neighbours at sqrt(2)/2 wavelengths, sinc(sqrt(2)) = "
          f"{np.sinc(np.sqrt(2.0)):+.4f})")

    print("\n=== conditioning vs spacing (8x8 grid) ===")
    print(f"{'spacing':>8} {'min eigenvalue':>15} {'condition':>12}")
    for d in (0.5, 0.4, 0.3, 0.25):
        w = np.linalg.eigvalsh(coupling_closed_form(build_upa(8, 8, d)).matrix)
        print(f"{d:8.2f} {w[0]:15.3e} {w[-1] / max(w[0], 1e-300):12.3e}")

    print("\n=== diagonal loading ===")
    base = coupling_closed_form(build_upa(8, 8, 0.25))
    for rho in (0.1, 0.01, 0.001):
        w = np.linalg.eigvalsh(regularize(base, rho).matrix)
        print(f"rho = {rho:<6g} min eigenvalue {w[0]:.3e}")
    print("loading bounds the inverse used by whitening and beamforming;")
    print("smaller rho preserves more of the superdirective structure")


if __name__ == "__main__":
    main()
