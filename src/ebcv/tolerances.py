"""Named numeric tolerances used across the library and the verify suite.

TOL_EXACT  — identities that hold to machine precision (orthonormality,
             antisymmetry, table reproduction).
TOL_TABLE  — printed-table comparisons and identities through one exact
             differentiation layer (second Bianchi, trace checks).
TOL_RICCI  — curvature symmetries and the printed Ricci matrix.
TOL_FD     — agreement between exact derivatives and the central
             finite-difference test oracle (step 1e-5).
"""

TOL_EXACT = 1e-12
TOL_TABLE = 1e-9
TOL_RICCI = 1e-8
TOL_FD = 1e-6
