"""Defaults the command line and the library share, in one numpy-free module.

The CLI reads them when it builds its parser, before any floating layer
(and with it numpy) is loaded.
"""

# Taylor depth K of the conformal factor e^{(n+1) Upsilon}
TAYLOR_DEPTH = 12
# the interior obstruction norm at or below which a Q-datum is solvable
OBSTRUCTION_TOL = 1e-8
# the largest truncated basis dimension a build accepts
BASIS_CAP = 40000
