"""The finite-truncation order diagnostic of a diagonal operator: a test helper.

Growth of the eigentable along the rays p = q, q = 0 and p = 0 against a
claimed order, a proxy the tests use for the paper's order statements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from crsphere.spectral import DiagonalOperator, Truncation, sublaplacian


@dataclass
class RayDiagnostic:
    ray: str
    n_nonzero: int
    max_ratio: float
    fitted_slope: float | None
    passed: bool


@dataclass
class OrderReport:
    label: str
    order: int
    rays: list
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(r.passed for r in self.rays)

    def to_jsonable(self):
        return {
            "label": self.label,
            "order": self.order,
            "passed": self.passed,
            "rays": [
                {
                    "ray": r.ray,
                    "n_nonzero": r.n_nonzero,
                    "max_ratio": r.max_ratio,
                    "fitted_slope": r.fitted_slope,
                    "passed": r.passed,
                }
                for r in self.rays
            ],
        }


def order_diagnostic(D: DiagonalOperator, m: int, slope_slack=0.15) -> OrderReport:
    """Growth check along the rays p = q, q = 0, p = 0.

    The proxy for order <= m is that the ratio |lambda| / (1 +
    lambda_deltab)^{m/2} stays bounded along each ray.  The tail half of the
    nonzero samples is fitted in log-log coordinates against 1 +
    lambda_deltab; a ratio growing like a positive power (tail slope above
    the slack) fails.  Genuine order violations grow by half-integer powers,
    so any slack well below 1/2 discriminates; the default leaves room for
    the slow convergence of bounded ratios at small truncations.  Rays holding at most two nonzero values count as
    finite rank and pass outright.  fitted_slope reports the implied growth
    exponent of |lambda| itself, m/2 plus the ratio slope.
    """
    n, N = D.n, D.N
    deltab = sublaplacian(Truncation(n, N))
    rays = {
        "diagonal": [(k, k) for k in range(N // 2 + 1)],
        "holomorphic": [(k, 0) for k in range(N + 1)],
        "antiholomorphic": [(0, k) for k in range(N + 1)],
    }
    out = []
    for name, blocks in rays.items():
        xs, ratios = [], []
        for (p, q) in blocks:
            lam = D.table[(p, q)]
            if not lam:
                continue
            base = 1.0 + float(deltab.value(p, q))
            ratios.append(abs(float(lam)) / base ** (m / 2.0))
            xs.append(math.log(base))
        if len(xs) <= 2:
            out.append(RayDiagnostic(name, len(xs), max(ratios, default=0.0), None, True))
            continue
        tail = max(3, len(xs) // 2)
        ratio_slope = float(
            np.polyfit(xs[-tail:], [math.log(r) for r in ratios[-tail:]], 1)[0]
        )
        passed = ratio_slope <= slope_slack
        out.append(RayDiagnostic(name, len(xs), max(ratios), m / 2.0 + ratio_slope, passed))
    return OrderReport(D.label, m, out)
