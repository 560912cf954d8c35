"""Close-resonance closed form of the three-segment train average.

The program computes every three-segment average through the exact moment
sum of ``pe_average(3, ...)``. This hand-derived form is kept here as an
independent reference for that sum on resonance, where it is exact, and
for the Monte Carlo oracle.
"""

import numpy as np

from ramseybias import AveragingParams, i_s
from ramseybias.qubit import RegimeQuantities


def pe_avg_triple_closed(q_res: RegimeQuantities, q_disp: RegimeQuantities,
                         avg: AveragingParams) -> float:
    """Close-resonance closed form for the three-segment train average.

    Valid where the detuning is small against the coupling; exact at zero
    detuning, where the mixing-angle cosine vanishes. Off resonance it is
    an approximation and may leave [0, 1], which is expected and not
    warned about.
    """
    lam, fp = q_res.lam, np.sin(q_res.theta)
    rdd = avg.ratio_r * np.asarray(q_disp.delta_d, dtype=float)
    moment = lambda b: i_s(b, avg.s)
    bracket = (6.0
               - 10.0 * moment(lam)
               + 4.0 * moment(2.0 * lam)
               - 6.0 * moment(3.0 * lam)
               + 4.0 * moment(2.0 * rdd)
               + 4.0 * moment(lam + rdd) + 4.0 * moment(lam - rdd)
               + moment(lam + 2.0 * rdd) + moment(lam - 2.0 * rdd)
               - 2.0 * moment(2.0 * lam + 2.0 * rdd)
               - 2.0 * moment(2.0 * lam - 2.0 * rdd)
               - 4.0 * moment(3.0 * lam + rdd) - 4.0 * moment(3.0 * lam - rdd)
               - moment(3.0 * lam + 2.0 * rdd) - moment(3.0 * lam - 2.0 * rdd))
    return float(fp * fp / 16.0 * bracket)
