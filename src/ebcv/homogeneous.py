"""Characteristic connection, torsion classification, Ambrose-Singer checks.

The frame splits into a vertical distribution span{X_1,X_2,X_3} and a
horizontal one span{X_4..X_7}; ``P`` is the almost-product operator that is
+1 on vertical and -1 on horizontal vectors.  The characteristic connection

    D_A B = nabla_A B + (P/2)(nabla_A P) B

projects ``nabla_A B`` onto the type (vertical/horizontal) of ``B``.  Its
frame coefficients are therefore the Levi-Civita coefficients masked to
same-type (b, c) pairs, and the difference tensor

    S = nabla - D,   S[a, b, c] = <S_{X_a} X_b, X_c>

keeps exactly the mixed-type (b, c) pairs.

The torsion of D is exposed in its reduced (0,3) form: only horizontal pairs
contribute, where T(X_a, X_b) = -V[X_a, X_b] (V = vertical projection); the
tensor vanishes by convention on pairs involving a vertical field.  The
faithful difference-of-connections torsion does NOT vanish on mixed pairs
(it equals nabla_{X_i} X_b there); `faithful_torsion_tensor` computes it and
the verification suite reports the mismatch against the reduced form.  The
classification helpers (`c12_trace`, `cyclic_sum`, `classify_structure`)
operate on the reduced tensor.

Homogeneity conditions.  A torsion tensor T that is skew in its first two
slots determines a unique metric connection with that torsion; writing the
connection as nabla - S, the candidate structure tensor is

    S[a, b, c] = (1/2)(-T[a, b, c] + T[b, c, a] - T[c, a, b]),

which is skew in its last two slots by construction and satisfies
S[a,b,c] - S[b,a,c] = -T[a,b,c].  `ambrose_singer_check` measures, for the
candidate built from the reduced torsion,

    (i)   g(S_X Y, Z) + g(Y, S_X Z) = 0,
    (ii)  (nabla_X R)(Y, Z) = [S_X, R(Y,Z)] - R(S_X Y, Z) - R(Y, S_X Z),
    (iii) (nabla_X S)_Y = [S_X, S_Y] - S_{S_X Y}.

At m = 0 the metric is a left-invariant nilpotent-group metric, the
candidate coincides with the full Levi-Civita frame tensor (the difference
tensor of the connection that parallelizes the left-invariant frame), and
all three residuals vanish to machine precision.  For m != 0 and l != 0 the
scalar curvature 48m - (3/2) l^2 (K^2 + 1) is non-constant, so the metric is
not homogeneous and NO tensor can satisfy (ii); the checker reports the O(1)
residuals honestly rather than masking them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, curvature_bundle
from .errors import InconclusiveClassification
from .frames import (
    HORIZONTAL_IDX,
    ModelParams,
    VERTICAL_IDX,
    _as_points,
    frame_matrix,
    levi_civita_tensor,
    structure_constant_derivs,
    structure_constants,
)
from .tolerances import TOL_EXACT

#: P-eigenvalues per frame index: +1 vertical, -1 horizontal.
P_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])

#: mask[b, c] = 1 where b and c have the same type (both vertical or both
#: horizontal), else 0.
SAME_TYPE = 0.5 * (1.0 + np.outer(P_SIGNS, P_SIGNS))
MIXED_TYPE = 1.0 - SAME_TYPE

#: mask for pairs (a, b) both horizontal (used by the reduced torsion).
_HH = np.zeros((7, 7))
for _a in HORIZONTAL_IDX:
    for _b in HORIZONTAL_IDX:
        _HH[_a, _b] = 1.0
_VERT_OUT = np.array([1.0 if i in VERTICAL_IDX else 0.0 for i in range(7)])


def char_connection_tensor(q, params: ModelParams) -> np.ndarray:
    """D[..., a, b, c] = <D_{X_a} X_b, X_c>: Levi-Civita masked to same type."""
    return levi_civita_tensor(q, params) * SAME_TYPE


def char_connection(a: int, b: int, q, params: ModelParams) -> np.ndarray:
    """Frame components of D_{X_a} X_b (1-based indices)."""
    return char_connection_tensor(q, params)[..., a - 1, b - 1, :]


def difference_tensor(q, params: ModelParams) -> np.ndarray:
    """S = nabla - D: Levi-Civita coefficients on mixed-type (b, c) pairs."""
    return levi_civita_tensor(q, params) * MIXED_TYPE


def faithful_torsion_tensor(q, params: ModelParams) -> np.ndarray:
    """T[..., a, b, c] of D from the difference-of-connections definition."""
    D = char_connection_tensor(q, params)
    beta = structure_constants(q, params)
    return D - np.einsum("...abc->...bac", D) - beta


def nabla_p_torsion_tensor(q, params: ModelParams) -> np.ndarray:
    """Torsion via T(L,M) = (P/2)((nabla_L P)M - (nabla_M P)L).

    Algebraically identical to `faithful_torsion_tensor`; kept as a separate
    computation path for cross-checking.
    """
    gfr = levi_civita_tensor(q, params)
    # <(P/2)(nabla_a P) X_b, X_c> = (eps_c/2)(eps_b - eps_c) Gfr[a,b,c]
    coeff = 0.5 * P_SIGNS[None, :] * (P_SIGNS[:, None] - P_SIGNS[None, :])
    half = gfr * coeff
    return half - np.einsum("...abc->...bac", half)


def torsion_D_tensor(q, params: ModelParams) -> np.ndarray:
    """Reduced torsion components: horizontal pairs only, vertical output.

    T[a, b, c] = -<V[X_a, X_b], X_c> when a, b are horizontal, else 0.
    """
    beta = structure_constants(q, params)
    return -beta * _HH[:, :, None] * _VERT_OUT[None, None, :]


def torsion_D(a: int, b: int, q, params: ModelParams) -> np.ndarray:
    """Frame components of the reduced torsion T(X_a, X_b) (1-based)."""
    return torsion_D_tensor(q, params)[..., a - 1, b - 1, :]


def c12_trace(q, params: ModelParams) -> np.ndarray:
    """c12(T)(X_c) = sum_r T[r, r, c] of the reduced torsion (identically 0)."""
    T = torsion_D_tensor(q, params)
    return np.einsum("...rrc->...c", T)


def cyclic_sum(a: int, b: int, c: int, q, params: ModelParams) -> np.ndarray:
    """T[a,b,c] + T[c,a,b] + T[b,c,a] for 1-based frame indices."""
    T = torsion_D_tensor(q, params)
    i, j, k = a - 1, b - 1, c - 1
    return T[..., i, j, k] + T[..., k, i, j] + T[..., j, k, i]


@dataclass(frozen=True)
class StructureClass:
    """Classification verdict with the witness that decided it."""

    label: str  # "T3", "T2+T3", or "trivial"
    witness_triple: tuple[int, int, int] | None
    witness_point: np.ndarray | None
    witness_value: float | None


def classify_structure(params: ModelParams, points) -> StructureClass:
    """Classify the reduced torsion tensor over the sampled points.

    "T3" requires exact antisymmetry in the first two slots plus a nonzero
    cyclic sum somewhere (witness scan in lexicographic triple order);
    "T2+T3" when only the c12 trace vanishes; a tensor that is numerically
    zero everywhere sampled is reported as "trivial".
    """
    pts = _as_points(np.atleast_2d(np.asarray(points, dtype=float)))
    T = torsion_D_tensor(pts, params)
    if np.abs(T).max() < TOL_EXACT:
        return StructureClass("trivial", None, None, None)

    c12 = np.abs(np.einsum("...rrc->...c", T)).max()
    if c12 >= TOL_EXACT:
        raise InconclusiveClassification(
            f"c12 trace unexpectedly nonzero (max {c12:.3e})"
        )
    antisym = np.abs(T + np.einsum("...abc->...bac", T)).max()

    witness = None
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                vals = (
                    T[..., a - 1, b - 1, c - 1]
                    + T[..., c - 1, a - 1, b - 1]
                    + T[..., b - 1, c - 1, a - 1]
                )
                idx = int(np.argmax(np.abs(vals)))
                if np.abs(vals[idx]) > 1e-6:
                    witness = ((a, b, c), pts[idx], float(vals[idx]))
                    break
            if witness:
                break
        if witness:
            break

    if antisym == 0.0 and witness is not None:
        return StructureClass("T3", *witness)
    if witness is None:
        return StructureClass("T2+T3", None, None, None)
    raise InconclusiveClassification(
        f"cyclic witness {witness[0]} found but first-two-slot antisymmetry "
        f"fails (max residual {antisym:.3e})"
    )


def _skew_completion(T: np.ndarray) -> np.ndarray:
    """(1/2)(-T[abc] + T[bca] - T[cab]) on the last three axes."""
    return 0.5 * (
        -T
        + np.einsum("...bca->...abc", T)
        - np.einsum("...cab->...abc", T)
    )


def candidate_structure_tensor(q, params: ModelParams) -> np.ndarray:
    """Structure-tensor candidate determined by the reduced torsion.

    S[..., a, b, c] is skew in (b, c) and has first-two-slot
    antisymmetrization equal to minus the reduced torsion, so nabla - S is
    the unique metric connection whose torsion is the reduced tensor.  At
    m = 0 it equals the full Levi-Civita frame tensor.
    """
    return _skew_completion(torsion_D_tensor(q, params))


def _candidate_and_nabla(q, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(S, nabla S) for the candidate tensor; nablaS[..., e, a, b, c]."""
    gfr = levi_civita_tensor(q, params)
    dgfr = _candidate_derivs(q, params)
    S = candidate_structure_tensor(q, params)
    F = frame_matrix(q, params)
    frame_dir = np.einsum("...me,...mabc->...eabc", F, dgfr)
    corr = (
        np.einsum("...eaf,...fbc->...eabc", gfr, S)
        + np.einsum("...ebf,...afc->...eabc", gfr, S)
        + np.einsum("...ecf,...abf->...eabc", gfr, S)
    )
    return S, frame_dir - corr


def _torsion_and_derivs(q, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Reduced torsion and its coordinate partials dT[..., mu, a, b, c]."""
    mask = _HH[:, :, None] * _VERT_OUT[None, None, :]
    T = -structure_constants(q, params) * mask
    dT = -structure_constant_derivs(q, params) * mask
    return T, dT


def _candidate_derivs(q, params: ModelParams) -> np.ndarray:
    """Coordinate partials of the candidate tensor, [..., mu, a, b, c]."""
    _, dT = _torsion_and_derivs(q, params)
    return 0.5 * (
        -dT
        + np.einsum("...ebca->...eabc", dT)
        - np.einsum("...ecab->...eabc", dT)
    )


def ambrose_singer_check(q, params: ModelParams) -> np.ndarray:
    """Max residuals (3 values) of the homogeneity conditions at q.

    The candidate is `candidate_structure_tensor` (the metric connection
    with the reduced torsion).  Returns max |residual| over all frame-index
    combinations, shape (..., 3).  Residual (i) vanishes by construction;
    (ii) and (iii) vanish at m = 0 and are O(1) for m != 0, l != 0 where the
    metric is not homogeneous.
    """
    q = _as_points(q)
    return ambrose_singer_residuals(q, params, curvature_bundle(q, params))


def ambrose_singer_residuals(q, params: ModelParams,
                             bundle: CurvatureBundle) -> np.ndarray:
    """`ambrose_singer_check` with the curvature bundle of q given."""
    q = _as_points(q)
    R = bundle.riemann
    nabR = bundle.nabla_riemann
    S, nabS = _candidate_and_nabla(q, params)

    res_i = np.abs(S + np.einsum("...abc->...acb", S)).max(axis=(-3, -2, -1))

    rhs_ii = (
        np.einsum("...efc,...abfd->...eabcd", S, R)
        - np.einsum("...abcf,...edf->...eabcd", R, S)
        - np.einsum("...eaf,...fbcd->...eabcd", S, R)
        - np.einsum("...ebf,...afcd->...eabcd", S, R)
    )
    res_ii = np.abs(nabR - rhs_ii).max(axis=(-5, -4, -3, -2, -1))

    # (nabla_e S)_f as an endomorphism acting on X_d with output slot c is
    # nabS[e, f, d, c]; match slots with the commutator form.
    lhs_iii = np.einsum("...efdc->...efcd", nabS)
    rhs_iii = (
        np.einsum("...egc,...fdg->...efcd", S, S)
        - np.einsum("...fgc,...edg->...efcd", S, S)
        - np.einsum("...efg,...gdc->...efcd", S, S)
    )
    res_iii = np.abs(lhs_iii - rhs_iii).max(axis=(-4, -3, -2, -1))
    return np.stack([res_i, res_ii, res_iii], axis=-1)


def torsion_parallelism_residual(
    q, params: ModelParams, connection: str = "canonical"
) -> np.ndarray:
    """Max |(D'_e T)[a,b,c]| for the reduced torsion T under a connection D'.

    connection="canonical": D' = nabla - S with S the candidate structure
    tensor (the metric connection whose torsion is T); the residual vanishes
    at m = 0.  connection="characteristic": D' = D, the type-projection
    connection; its residual is O(l^2) even at m = 0, so D does not
    parallelize the reduced torsion.
    """
    q = _as_points(q)
    T, dT = _torsion_and_derivs(q, params)
    F = frame_matrix(q, params)
    if connection == "canonical":
        conn = levi_civita_tensor(q, params) - candidate_structure_tensor(
            q, params
        )
    elif connection == "characteristic":
        conn = char_connection_tensor(q, params)
    else:
        raise ValueError(
            f"connection must be 'canonical' or 'characteristic', got {connection!r}"
        )
    frame_dir = np.einsum("...me,...mabc->...eabc", F, dT)
    corr = (
        np.einsum("...eaf,...fbc->...eabc", conn, T)
        + np.einsum("...ebf,...afc->...eabc", conn, T)
        + np.einsum("...ecf,...abf->...eabc", conn, T)
    )
    return np.abs(frame_dir - corr).max(axis=(-4, -3, -2, -1))
