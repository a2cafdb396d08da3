"""Order statistics and process measurements shared by the workloads.

Every quantile here is ``numpy.quantile``: a run's percentiles use its
default linear interpolation, and the steadiness quartiles use the
``weibull`` method, which equals ``statistics.quantiles(values, n=4)``
(the exclusive method the acceptance rule is stated in).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Tail percentiles tried from the highest down; a tail is reported at the
#: highest one that leaves at least :data:`TAIL_MIN_BEYOND` samples beyond.
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75, 0.50)
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(np.quantile(values, 0.5))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, mid, q3 = np.quantile(values, (0.25, 0.5, 0.75), method="weibull")
    return float(q1), float(mid), float(q3)


def tail_quantile(count: int, preferred: float) -> float:
    """The tail percentile to report for ``count`` samples.

    ``preferred`` is the percentile a full-length run of the workload
    supports; shorter runs (smoke tests) step down the ladder until at
    least ``TAIL_MIN_BEYOND`` samples lie beyond it.
    """
    for q in TAIL_LADDER:
        if q <= preferred and count * (1.0 - q) >= TAIL_MIN_BEYOND:
            return q
    return 0.5


def tail(values: Sequence[float], preferred: float) -> float:
    return float(np.quantile(values, tail_quantile(len(values), preferred)))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
