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
STRONG_DUALITY_TOL     1e-7       |gamma - rho| accepted from an edge-min solve
LP_PIVOT_TOL           1e-9       reduced-cost threshold for simplex pricing
LP_RATIO_TOL           1e-10      denominator threshold in the simplex ratio test
LP_INFEASIBLE_TOL      1e-7       phase-1 artificial sum above which an LP is infeasible
LP_PROGRESS_TOL        1e-12      objective decrease below which a simplex pivot counts as stalled
LP_TIE_TOL             1e-12      slack at which a bound flip or a ratio-test tie counts as reached
LINE_SEARCH_TOL        1e-10      bracket width or Newton step at which line search stops
LINE_SEARCH_MAX_ITERS  50         hard cap on line-search slope evaluations per step
SUPPORT_DROP_TOL       1e-12      ensemble coefficients below this leave the support
NEWTON_RIDGE           1e-10      diagonal ridge, relative to max(1, max diag), on the Newton QP
QP_MULTIPLIER_TOL      1e-12      bound multipliers above -this are optimal in the Newton QP
NEWTON_ARMIJO          1e-4       sufficient-decrease fraction that accepts a full Newton step
EPS_FLOOR              1e-12      smallest eps a float gap can certify; smaller eps is rejected
=====================  =========  ================================================
"""

SIMPLEX_SUM_TOL = 1e-9
GAIN_RANGE_SLACK = 1e-12
CAP_BOX_TOL = 1e-12
CAP_REL_SLACK = 1e-12
ENTROPY_ZERO = 1e-15
STRONG_DUALITY_TOL = 1e-7
LP_PIVOT_TOL = 1e-9
LP_RATIO_TOL = 1e-10
LP_INFEASIBLE_TOL = 1e-7
LP_PROGRESS_TOL = 1e-12
LP_TIE_TOL = 1e-12
LINE_SEARCH_TOL = 1e-10
LINE_SEARCH_MAX_ITERS = 50
SUPPORT_DROP_TOL = 1e-12
NEWTON_RIDGE = 1e-10
QP_MULTIPLIER_TOL = 1e-12
NEWTON_ARMIJO = 1e-4
EPS_FLOOR = 1e-12
