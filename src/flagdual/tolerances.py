"""Float tolerances, all relative; exact scalars compare exactly."""

DEGENERACY_TOL = 1e-10  # zero test of pairings, determinants, null points
# relations of loaded or measured coordinates: loose enough to accept the
# rounding of independent measurements, tight enough to flag corruption
VALIDATION_TOL = 1e-6
VERY_GENERIC_TOL = 1e-10  # distance of a face coordinate from -1
MERGE_TOL = 1e-12  # distance below which float generators merge
CHECK_TOL = 1e-9  # residual |prod - 1| of a face or edge equation
# inexact Gauss-Newton: each CGLS step stops at |J^H s| <= eta |J^H b|,
# eta = max(CGLS_RTOL, min(CGLS_RTOL_MAX, CGLS_FORCING * max|r|)) for the
# residual r the step starts from (an Eisenstat-Walker forcing term), so
# CGLS_RTOL is the floor reached once the residual is small
CGLS_RTOL = 1e-12
CGLS_RTOL_MAX = 0.1
CGLS_FORCING = 0.01
