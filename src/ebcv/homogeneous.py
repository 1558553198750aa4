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

from .curvature import _bundle, _chunked
from .errors import InconclusiveClassification
from .frames import (
    HORIZONTAL_IDX,
    ModelParams,
    VERTICAL_IDX,
    _check_frame_index,
    frame_jet,
    levi_civita_tensor,
    structure_constants,
)
from .tolerances import TOL_EXACT

#: P-eigenvalues per frame index: +1 vertical, -1 horizontal.
P_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])

#: mask[b, c] = 1 where b and c have the same type (both vertical or both
#: horizontal), else 0.
SAME_TYPE = 0.5 * (1.0 + np.outer(P_SIGNS, P_SIGNS))

#: mask for pairs (a, b) both horizontal (used by the reduced torsion).
_HH = np.zeros((7, 7))
for _a in HORIZONTAL_IDX:
    for _b in HORIZONTAL_IDX:
        _HH[_a, _b] = 1.0
_VERT_OUT = np.array([1.0 if i in VERTICAL_IDX else 0.0 for i in range(7)])
#: _HH and _VERT_OUT as one (7, 7, 7) array.  `torsion_D_tensor` keeps the
#: broadcast product instead: the two give arrays of different memory
#: layout, which sets the summation order of later einsums, and the verify
#: reports are pinned to the last bit.
_TORSION_MASK = _HH[:, :, None] * _VERT_OUT[None, None, :]
#: The 0-based index triples (a, b, c) in lexicographic order, as 3 arrays.
_TRIPLES = np.indices((7, 7, 7)).reshape(3, -1)


def char_connection_tensor(q, params: ModelParams) -> np.ndarray:
    """D[..., a, b, c] = <D_{X_a} X_b, X_c>: Levi-Civita masked to same type."""
    return levi_civita_tensor(q, params) * SAME_TYPE


def faithful_torsion_tensor(q, params: ModelParams) -> np.ndarray:
    """T[..., a, b, c] of D from the difference-of-connections definition."""
    fr = frame_jet(q, params)
    D = char_connection_tensor(fr, params)
    return D - np.einsum("...abc->...bac", D) - fr.C


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
    return _reduced_torsion(structure_constants(q, params))


def _reduced_torsion(C: np.ndarray) -> np.ndarray:
    """`torsion_D_tensor` from the structure constants C."""
    return -C * _HH[:, :, None] * _VERT_OUT[None, None, :]


def torsion_D(a: int, b: int, q, params: ModelParams) -> np.ndarray:
    """Frame components of the reduced torsion T(X_a, X_b) (1-based)."""
    _check_frame_index(a, b)
    return torsion_D_tensor(q, params)[..., a - 1, b - 1, :]


def c12_trace(q, params: ModelParams) -> np.ndarray:
    """c12(T)(X_c) = sum_r T[r, r, c] of the reduced torsion (identically 0)."""
    T = torsion_D_tensor(q, params)
    return np.einsum("...rrc->...c", T)


def cyclic_sum(a: int, b: int, c: int, q, params: ModelParams) -> np.ndarray:
    """T[a,b,c] + T[c,a,b] + T[b,c,a] for 1-based frame indices."""
    _check_frame_index(a, b, c)
    return _cyclic_sums(torsion_D_tensor(q, params), a - 1, b - 1, c - 1)


def _cyclic_sums(T: np.ndarray, i, j, k) -> np.ndarray:
    """T[i,j,k] + T[k,i,j] + T[j,k,i] for 0-based indices or index arrays."""
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
    zero everywhere sampled is reported as "trivial".  The points are read
    in chunks, each point reduced to max |T|, the c12 trace, the
    antisymmetry residual and its first triple whose |sum| exceeds 1e-6; a
    second pass finds the first point of that triple's largest |sum|.
    """
    fr = frame_jet(points, params)
    n_triples = _TRIPLES.shape[1]

    def per_point(sub):
        T = torsion_D_tensor(sub, params)
        over = np.abs(_cyclic_sums(T, *_TRIPLES)) > 1e-6
        return (
            np.abs(T).max(axis=(-3, -2, -1)),
            np.abs(np.einsum("...rrc->...c", T)).max(axis=-1),
            np.abs(T + np.einsum("...abc->...bac", T)).max(axis=(-3, -2, -1)),
            np.where(over.any(axis=-1), over.argmax(axis=-1), n_triples),
        )

    size, c12, antisym, first = (np.ravel(r) for r in _chunked(fr, per_point))
    if size.max() < TOL_EXACT:
        return StructureClass("trivial", None, None, None)

    c12 = c12.max()
    if c12 >= TOL_EXACT:
        raise InconclusiveClassification(
            f"c12 trace unexpectedly nonzero (max {c12:.3e})"
        )
    antisym = antisym.max()

    witness = None
    k = int(first.min())
    if k < n_triples:
        triple = _TRIPLES[:, k]
        (vals,) = _chunked(fr, lambda sub: (
            _cyclic_sums(torsion_D_tensor(sub, params), *triple),))
        vals = np.ravel(vals)
        idx = int(np.argmax(np.abs(vals)))
        witness = (tuple(int(v) + 1 for v in triple),
                   fr.q.reshape(-1, 7)[idx], float(vals[idx]))

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


def _covariant_derivative(F, conn, A, dA) -> np.ndarray:
    """(D_{X_e} A)[..., e, a, b, c] of a frame 3-tensor A.

    dA[..., mu, a, b, c] holds the coordinate partials of A and
    conn[..., e, a, f] = <D_{X_e} X_a, X_f> the metric connection D.
    """
    frame_dir = np.einsum("...me,...mabc->...eabc", F, dA)
    corr = (
        np.einsum("...eaf,...fbc->...eabc", conn, A)
        + np.einsum("...ebf,...afc->...eabc", conn, A)
        + np.einsum("...ecf,...abf->...eabc", conn, A)
    )
    return frame_dir - corr


def ambrose_singer_check(q, params: ModelParams) -> np.ndarray:
    """Max residuals (3 values) of the homogeneity conditions at q.

    The candidate is `candidate_structure_tensor` (the metric connection
    with the reduced torsion).  Returns max |residual| over all frame-index
    combinations, shape (..., 3).  Residual (i) vanishes by construction;
    (ii) and (iii) vanish at m = 0 and are O(1) for m != 0, l != 0 where the
    metric is not homogeneous.  The points are evaluated in fixed chunks,
    curvature included, so the call holds the curvature of one chunk at a
    time.  A caller that builds a chunk's curvature for its own checks
    passes it to the chunk body `_residuals` instead.
    """
    (res,) = _chunked(frame_jet(q, params),
                      lambda fr: (_residuals(fr, *_bundle(fr)[1:]),))
    return res


def _residuals(fr, R, nabR) -> np.ndarray:
    """The residuals (..., 3) at the points of jet fr, whose curvature R and
    nabla R the caller built (in `_chunked`, one chunk's)."""
    S = _skew_completion(_reduced_torsion(fr.C))
    dS = _skew_completion(-fr.dC * _TORSION_MASK)
    nabS = _covariant_derivative(fr.F, fr.gamma, S, dS)

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
    fr = frame_jet(q, params)
    if connection == "canonical":
        conn = fr.gamma - candidate_structure_tensor(fr, params)
    elif connection == "characteristic":
        conn = char_connection_tensor(fr, params)
    else:
        raise ValueError(
            f"connection must be 'canonical' or 'characteristic', got {connection!r}"
        )
    T = -fr.C * _TORSION_MASK
    dT = -fr.dC * _TORSION_MASK
    nabT = _covariant_derivative(fr.F, conn, T, dT)
    return np.abs(nabT).max(axis=(-4, -3, -2, -1))
