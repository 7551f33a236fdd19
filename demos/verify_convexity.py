"""Numerical convexity scan of the fading-delay objective summand.

The per-queue objective of the ergodic wireless design mixes a PK delay
driven by reciprocal-rate moments with a log reward; its Hessian has no
tractable closed form.  This scan takes the moments E[1/b] and E[1/b^2]
from the certified composite Gauss-Legendre rule of ``cscgd.oracles`` (12
and 16 points per panel, which must agree within 1e-13 relative) and the
Hessian from central differences over the design box, and reports the
minimum eigenvalue per cell.  The CSVs hold plain numbers, one row per
(lambda, p) cell.
"""

import numpy as np

from cscgd.oracles import hessian_psd_scan, make_delay_utility_surface

for antennas in (5, 10):
    surface = make_delay_utility_surface(antennas=antennas)
    result = hessian_psd_scan(
        surface,
        np.linspace(0.1, 15.0, 25),
        np.linspace(14.0, 100.0, 25),
    )
    print(f"K={antennas}: min eigenvalue over the box = {result.global_min:.3e} "
          f"-> PSD verdict {result.is_psd()}")
    path = f"convexity-scan-k{antennas}.csv"
    result.write_csv(path)
    print(f"  heatmap written to {path}")
