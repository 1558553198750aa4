"""Characteristic connection, torsion, Ambrose-Singer and parallelism checks.

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
the verification suite reports the mismatch against the reduced form.
`classify_structure` reads the c12 trace, the cyclic sums and the
first-two-slot antisymmetry of the reduced tensor.

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

(ii) and (iii) say that the canonical connection nabla~ = nabla - S
parallelizes R and S (Ambrose and Singer 1958; Tricerri and Vanhecke 1983),
and are computed so: max |nabla~ R| and max |nabla~ S|, from X R on the jet
and `frames._covariant`.  For every (m, l), nabla - S equals nabla on the
all-horizontal block (e, a, g >= 4) and is exactly 0 elsewhere.  The
contraction (nabla - S).R stays dense all the same: it is what lets the
check see a wrong S.

At m = 0 the metric is a left-invariant nilpotent-group metric, the
candidate coincides with the full Levi-Civita frame tensor (the difference
tensor of the connection that parallelizes the left-invariant frame), so
nabla - S and X R are 0 and all three residuals read exactly 0.  For
m != 0 and l != 0 the scalar curvature 48m - (3/2) l^2 (K^2 + 1) is
non-constant, so the metric is not homogeneous and NO tensor can satisfy
(ii); the checker reports the O(1) residuals honestly rather than masking
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveClassification
from .frames import (
    ModelParams,
    _covariant,
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

#: 1 on the slots of the reduced torsion (a, b horizontal, c vertical), else 0.
_TORSION_MASK = np.zeros((7, 7, 7))
_TORSION_MASK[3:, 3:, :3] = 1.0
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
    """`torsion_D_tensor` from the structure constants C, or from dC."""
    return -C * _TORSION_MASK


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
    "T2+T3" when only the c12 trace vanishes; a tensor that is exactly
    zero everywhere sampled is reported as "trivial".  The points are read
    in one chunked pass, each reduced to the five numbers of
    `_torsion_summary`.
    """
    fr = frame_jet(points, params)
    (summary,) = fr._chunked(
        lambda sub: (_torsion_summary(torsion_D_tensor(sub, params)),))
    return _structure_class(summary, fr.q)


def _torsion_summary(T: np.ndarray) -> np.ndarray:
    """Each point's max |T|, max |c12 trace| and first-two-slot
    antisymmetry residual of a reduced torsion T, its first triple (an
    index into _TRIPLES; their number if none) whose |cyclic sum| exceeds
    1e-6 times that max |T|, and the cyclic sum there (0 if none), shape
    (..., 5).  The threshold scales with T, so a small l has a witness."""
    size = np.abs(T).max(axis=(-3, -2, -1))
    sums = _cyclic_sums(T, *_TRIPLES)
    over = np.abs(sums) > 1e-6 * size[..., None]
    found = over.any(axis=-1)
    first = over.argmax(axis=-1)
    value = np.take_along_axis(sums, first[..., None], axis=-1)[..., 0]
    return np.stack([
        size,
        np.abs(np.einsum("...rrc->...c", T)).max(axis=-1),
        np.abs(T + np.einsum("...abc->...bac", T)).max(axis=(-3, -2, -1)),
        np.where(found, first, _TRIPLES.shape[1]),
        np.where(found, value, 0.0),
    ], axis=-1)


def _structure_class(summary, points) -> StructureClass:
    """The verdict of `classify_structure` from the `_torsion_summary` of
    the points.  The torsion is trivial only where it is exactly 0 at every
    point, as at l = 0.  The witness triple is the first over all points,
    and the witness the first point of largest |sum| among those whose
    first triple it is.  An InconclusiveClassification names the first
    point where the invariant it reports is worst."""
    size, c12, antisym, first, value = np.reshape(summary, (-1, 5)).T
    points = np.reshape(points, (-1, 7))
    if size.max() == 0.0:
        return StructureClass("trivial", None, None, None)

    if c12.max() >= TOL_EXACT:
        raise InconclusiveClassification(
            f"c12 trace unexpectedly nonzero (max {c12.max():.3e})",
            points[np.argmax(c12)])

    witness = None
    k = int(first.min())
    if k < _TRIPLES.shape[1]:
        idx = int(np.argmax(np.where(first == k, np.abs(value), -1.0)))
        witness = (tuple(int(v) + 1 for v in _TRIPLES[:, k]), points[idx],
                   float(value[idx]))

    if antisym.max() == 0.0 and witness is not None:
        return StructureClass("T3", *witness)
    if witness is None:
        return StructureClass("T2+T3", None, None, None)
    raise InconclusiveClassification(
        f"cyclic witness {witness[0]} found but first-two-slot antisymmetry "
        f"fails (max residual {antisym.max():.3e})",
        points[np.argmax(antisym)])


def _skew_completion(T: np.ndarray) -> np.ndarray:
    """(1/2)(-T[abc] + T[bca] - T[cab]) on the last three axes."""
    return 0.5 * (
        -T
        + np.einsum("...bca->...abc", T)
        - np.einsum("...cab->...abc", T)
    )


def ambrose_singer_check(q, params: ModelParams) -> np.ndarray:
    """Max residuals (3 values) of the homogeneity conditions at q.

    The candidate S is the skew completion of the reduced torsion T (the
    metric connection with torsion T; at m = 0 it equals the full
    Levi-Civita frame tensor).  (i) is max |S_abc + S_acb|, and (ii) and
    (iii) are max |nabla~ R| and max |nabla~ S| under the canonical
    connection nabla~ = nabla - S (see the module docstring), where
    nabla~ S is the skew completion of nabla~ T, as S is that of T.
    Returns max |residual| over all frame-index combinations, shape
    (..., 3).  Residual (i) vanishes by construction; (ii) and (iii) vanish
    at m = 0 and are O(1) for m != 0, l != 0 where the metric is not
    homogeneous.  The points are evaluated in fixed chunks, curvature
    included, so the call holds the curvature of the two chunks in flight
    at a time (`FrameJet._chunked`); a chunk shares whatever the jet of q
    has already built.
    """
    def body(fr):
        S = _skew_completion(_reduced_torsion(fr.C))
        nabT, nabR = _parallelism(fr, fr.gamma - S)
        return (np.stack([
            np.abs(S + np.einsum("...abc->...acb", S)).max(axis=(-3, -2, -1)),
            np.abs(nabR, out=nabR).max(axis=(-5, -4, -3, -2, -1)),
            np.abs(_skew_completion(nabT)).max(axis=(-4, -3, -2, -1)),
        ], axis=-1),)

    (res,) = frame_jet(q, params)._chunked(body)
    return res


def _parallelism(fr, conn) -> tuple:
    """(D'_e T)[..., e, a, b, c] and (D'_e R)[..., e, a, b, c, d] at the
    points of jet fr, for the reduced torsion T, the curvature R and the
    metric connection <D'_{X_e} X_a, X_g> = conn[..., e, a, g]."""
    T = _reduced_torsion(fr.C)
    xT = fr.K[..., None, None, None, None] * _reduced_torsion(fr.dC)
    return _covariant(conn, T, xT), _covariant(conn, fr.R, fr.xR)


def parallelism_residuals(q, params: ModelParams) -> np.ndarray:
    """Max |(D_e T)[a,b,c]| and max |(D_e R)[a,b,c,d]| under the
    characteristic connection D, shape (..., 2), for the reduced torsion T
    and the curvature R.  At the origin with m = 0 the residuals are l^2
    and l^3/2, so D parallelizes neither tensor; the canonical connection
    nabla - S that does is `ambrose_singer_check`'s.  The points are
    evaluated in fixed chunks, as in `ambrose_singer_check`.
    """
    def body(fr):
        nabT, nabR = _parallelism(fr, char_connection_tensor(fr, params))
        return (np.abs(nabT).max(axis=(-4, -3, -2, -1)),
                np.abs(nabR, out=nabR).max(axis=(-5, -4, -3, -2, -1)))

    return np.stack(frame_jet(q, params)._chunked(body), axis=-1)
