"""Numerical tolerances used across the package.

Every tolerance that decides membership, optimality or termination lives
here so the whole package shares one table:

=====================  =========  ================================================
name                   value      decides
=====================  =========  ================================================
SIMPLEX_SUM_TOL        1e-9       |sum(weights) - 1| for simplex membership
GAIN_RANGE_SLACK       1e-12      absolute slack above 1 allowed on |gain| entries
CAP_BOX_TOL            1e-12      absolute slack above 1/nu for distribution entries
CAP_REL_SLACK          1e-12      relative slack when a projection entry hits 1/nu
ENTROPY_ZERO           1e-15      entries below this count as 0 in x*ln(x)
ETA_FLOOR              1e-9       smallest eta; 2*ln(m/nu)/eps is 0 at nu = m
STRONG_DUALITY_TOL     1e-7       |gamma - rho| accepted from an edge-min solve
LP_PIVOT_TOL           1e-9       reduced-cost threshold for pricing; the primal loop takes the first column past it
LP_RATIO_TOL           1e-10      denominator threshold in the simplex ratio test
LP_TIE_TOL             1e-12      slack at which a bound flip or a ratio-test tie counts as reached
LP_FEAS_TOL            1e-9       bound violation of a basic value the dual simplex accepts as feasible
LP_COST_SHIFT          1e-7       relative cost shift that moves the dual simplex off dual degeneracy
LINE_SEARCH_TOL        1e-10      bracket width or Newton step at which line search stops
LINE_SEARCH_MAX_ITERS  50         hard cap on line-search slope evaluations per step
SUPPORT_DROP_TOL       1e-12      ensemble coefficients below this leave the support
NEWTON_RIDGE           1e-10      diagonal ridge, relative to max(1, max diag), on the Newton QP
QP_MULTIPLIER_TOL      1e-12      bound multipliers above -this are optimal in the Newton QP
NEWTON_ARMIJO          1e-4       sufficient-decrease fraction for a full Newton step and a fallback's stop
NEWTON_CURVATURE       0.1        a Newton fallback search may stop where |slope| <= this * |slope at 0|
INNER_GAP_DIVISOR      10.0       the corrective solve stops at a linearised gap of max(eps / this, eta * 2**-52)
EPS_FLOOR              1e-12      smallest eps a float gap can certify; smaller eps is rejected
=====================  =========  ================================================
"""

SIMPLEX_SUM_TOL = 1e-9
GAIN_RANGE_SLACK = 1e-12
CAP_BOX_TOL = 1e-12
CAP_REL_SLACK = 1e-12
ENTROPY_ZERO = 1e-15
ETA_FLOOR = 1e-9
STRONG_DUALITY_TOL = 1e-7
LP_PIVOT_TOL = 1e-9
LP_RATIO_TOL = 1e-10
LP_TIE_TOL = 1e-12
LP_FEAS_TOL = 1e-9
LP_COST_SHIFT = 1e-7
LINE_SEARCH_TOL = 1e-10
LINE_SEARCH_MAX_ITERS = 50
SUPPORT_DROP_TOL = 1e-12
NEWTON_RIDGE = 1e-10
QP_MULTIPLIER_TOL = 1e-12
NEWTON_ARMIJO = 1e-4
NEWTON_CURVATURE = 0.1
INNER_GAP_DIVISOR = 10.0
EPS_FLOOR = 1e-12
