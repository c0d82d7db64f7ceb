"""The benchmark's workloads and the holomimo config each one runs.

Each workload isolates a different mix of layers (see ``baseline.json`` for
the layer map and the measured split):

* ``eig-iso`` -- preset ``fig3``: Fourier cell-variance integrals and the
  quadrature build of R carry the most weight; no Monte-Carlo.
* ``dof-sweep`` -- preset ``fig5``: whitening and dense eigensolves on
  N=1681 for three rho; no Fourier integrals.
* ``capacity-desk`` -- preset ``fig6-desk``: per-draw channel generation and
  SVD; no large dense solve.
* ``eig-cap`` -- ``eig-cap.yaml``: non-isotropic spectrum with radial-break
  panels and the only caller of ``coupling_general``.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "eig-iso": "fig3",
    "dof-sweep": "fig5",
    "capacity-desk": "fig6-desk",
    "eig-cap": str(HERE / "eig-cap.yaml"),
}
