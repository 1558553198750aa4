"""The shipped expression tables reproduce the oracles except where annotated."""

import numpy as np
import pytest

from ebcv import published_tables as pt
from ebcv.curvature import ricci_frame, riemann_frame, scalar_curvature
from ebcv.frames import (
    ModelParams,
    bracket_frame,
    levi_civita_frame,
    sample_domain_points,
)
from ebcv.geodesics import frame_momenta
from ebcv.homogeneous import torsion_D_tensor

PARAM_GRID = [
    ModelParams(0.0, 1.0),
    ModelParams(1.0, 1.0),
    ModelParams(-0.5, 2.0),
    ModelParams(0.25, 1.5),
]

TOL = 1e-12


def _pts(params, n=8, seed=11):
    return sample_domain_points(params, n, seed=seed)


# -- document shape ------------------------------------------------------


def test_document_loads_and_is_cached():
    doc = pt.load_tables()
    assert pt.load_tables() is doc
    assert doc["coordinate_order"] == ["r", "s", "t", "w", "x", "y", "z"]


def test_tables_have_expected_entry_counts():
    doc = pt.load_tables()
    assert len(doc["frame_tables"]["m0_brackets"]["entries"]) == 6
    assert len(doc["frame_tables"]["general_brackets"]["entries"]) == 6
    assert len(doc["frame_tables"]["m0_connection"]["entries"]) == 28
    assert len(doc["frame_tables"]["general_connection"]["entries"]) == 28
    assert len(doc["curvature_tables"]["general_sectional"]["entries"]) == 18
    assert len(doc["curvature_tables"]["ricci_general"]["entries"]) == 25
    assert len(doc["torsion_table"]["entries"]) == 6
    assert doc["killing_tables"]["dimension"] == 13


# -- evaluator safety ----------------------------------------------------


def test_safe_eval_arithmetic():
    env = {"x": np.array([1.0, 2.0]), "l": 3.0}
    out = pt.safe_eval("-l*(1 + x**2)/2", env)
    np.testing.assert_allclose(out, [-3.0, -7.5])


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "(lambda: 1)()",
        "x.real",
        "x[0]",
        "x if l else 0",
        "x == l",
        "x @ l",
        "'text'",
        "unknown_symbol",
        "x; l",
    ],
)
def test_safe_eval_rejects_non_whitelisted_syntax(expr):
    with pytest.raises((ValueError, SyntaxError)):
        pt.safe_eval(expr, {"x": 1.0, "l": 2.0})


# -- frame tables --------------------------------------------------------


def test_general_bracket_table_matches_oracle_outside_annotations():
    doc = pt.load_tables()
    ann = doc["frame_tables"]["general_brackets"]["known_discrepancies"]
    assert set(ann) == {"4,5", "4,7"}
    for params in PARAM_GRID:
        q = _pts(params)
        table = pt.component_table_values(
            doc["frame_tables"]["general_brackets"], q, params
        )
        for (a, b), printed in table.items():
            diff = np.abs(bracket_frame(a, b, q, params) - printed)
            key = f"{a},{b}"
            if key in ann:
                diff[..., int(ann[key]["component"]) - 1] = 0.0
            assert diff.max() < TOL


def test_annotated_bracket_components_disagree_where_documented():
    doc = pt.load_tables()
    ann = doc["frame_tables"]["general_brackets"]["known_discrepancies"]
    # component (4,5)/X1 misprint carries a factor m: visible iff m != 0
    params = ModelParams(1.0, 1.0)
    q = _pts(params)
    printed = pt.component_table_values(
        doc["frame_tables"]["general_brackets"], q, params
    )[(4, 5)]
    gap = np.abs(bracket_frame(4, 5, q, params) - printed)[..., 0]
    assert gap.max() > 1e-2
    env = pt.point_env(q, params)
    derived = pt.safe_eval(ann["4,5"]["derived"], env)
    np.testing.assert_allclose(
        bracket_frame(4, 5, q, params)[..., 0], derived, atol=TOL
    )
    # component (4,7)/X3 misprint omits m: visible at m = 0, invisible at m = 1
    params0 = ModelParams(0.0, 1.0)
    q0 = _pts(params0)
    printed0 = pt.component_table_values(
        doc["frame_tables"]["general_brackets"], q0, params0
    )[(4, 7)]
    gap0 = np.abs(bracket_frame(4, 7, q0, params0) - printed0)[..., 2]
    assert gap0.max() > 1e-2
    printed1 = pt.component_table_values(
        doc["frame_tables"]["general_brackets"], q, params
    )[(4, 7)]
    gap1 = np.abs(bracket_frame(4, 7, q, params) - printed1)[..., 2]
    assert gap1.max() < TOL


def test_connection_tables_match_oracle():
    doc = pt.load_tables()
    assert doc["frame_tables"]["general_connection"].get(
        "known_discrepancies", {}) == {}
    for params in PARAM_GRID:
        q = _pts(params)
        table = pt.component_table_values(
            doc["frame_tables"]["general_connection"], q, params
        )
        for (i, j), printed in table.items():
            got = levi_civita_frame(i, j, q, params)
            np.testing.assert_allclose(got, printed, atol=TOL)


def test_m0_tables_match_oracle():
    doc = pt.load_tables()
    for l in (1.0, 2.0):
        params = ModelParams(0.0, l)
        q = _pts(params, seed=12)
        for (a, b), printed in pt.component_table_values(
            doc["frame_tables"]["m0_brackets"], q, params
        ).items():
            np.testing.assert_allclose(
                bracket_frame(a, b, q, params), printed, atol=TOL
            )
        for (i, j), printed in pt.component_table_values(
            doc["frame_tables"]["m0_connection"], q, params
        ).items():
            np.testing.assert_allclose(
                levi_civita_frame(i, j, q, params), printed, atol=TOL
            )


# -- curvature tables ----------------------------------------------------


def test_sectional_table_matches_oracle():
    for params in PARAM_GRID:
        q = _pts(params)
        R = riemann_frame(q, params)
        for (a, b), val in pt.sectional_table_values(q, params).items():
            got = R[..., a - 1, b - 1, a - 1, b - 1]
            np.testing.assert_allclose(got, val, atol=1e-9)


def test_ricci_table_matches_oracle():
    for params in PARAM_GRID:
        q = _pts(params)
        np.testing.assert_allclose(
            ricci_frame(q, params), pt.ricci_matrix_values(q, params), atol=1e-9
        )


def test_m0_curvature_examples_and_ricci_diagonal():
    doc = pt.load_tables()
    params = ModelParams(0.0, 2.0)
    q = _pts(params, seed=12)
    env = pt.point_env(q, params)
    R = riemann_frame(q, params)
    ex = doc["curvature_tables"]["m0_examples"]["entries"]
    np.testing.assert_allclose(
        R[..., 0, 3, 0, 3], pt.safe_eval(ex["1,4"], env), atol=1e-9
    )
    np.testing.assert_allclose(
        R[..., 5, 6, 5, 6], pt.safe_eval(ex["6,7"], env), atol=1e-9
    )
    diag = doc["curvature_tables"]["ricci_m0_diagonal"]["entries"]
    ric = ricci_frame(q, params)
    for i, expr in enumerate(diag):
        np.testing.assert_allclose(
            ric[..., i, i], pt.safe_eval(expr, env), atol=1e-9
        )


def test_scalar_expressions():
    for params in PARAM_GRID:
        q = _pts(params)
        oracle = scalar_curvature(q, params)
        np.testing.assert_allclose(
            oracle, pt.scalar_values(q, params, "derived"), atol=1e-9
        )
        gap = np.abs(oracle - pt.scalar_values(q, params, "printed"))
        if params.l != 0.0:
            assert gap.min() > 1.0
    flat = ModelParams(0.0, 0.0)
    q = _pts(flat)
    np.testing.assert_allclose(
        pt.scalar_values(q, flat, "printed"),
        pt.scalar_values(q, flat, "derived"),
        atol=TOL,
    )


# -- torsion and phase-space tables --------------------------------------


def test_torsion_table_matches_oracle():
    doc = pt.load_tables()
    for params in PARAM_GRID:
        q = _pts(params)
        T = torsion_D_tensor(q, params)
        for (a, b), printed in pt.component_table_values(
            doc["torsion_table"], q, params
        ).items():
            np.testing.assert_allclose(
                T[..., a - 1, b - 1, :], printed, atol=TOL
            )


def test_momenta_table_matches_frame_momenta():
    rng = np.random.default_rng(5)
    q = rng.uniform(-0.5, 0.5, (30, 7))
    p = rng.uniform(-1.0, 1.0, (30, 7))
    got = pt.momenta_values(q, p)
    want = frame_momenta(q, p, ModelParams(0.0, 1.0))[..., 3:]
    np.testing.assert_allclose(got, want, atol=TOL)


def test_sdot_lines_differ_by_the_documented_swap():
    rng = np.random.default_rng(6)
    q = rng.uniform(-0.5, 0.5, (30, 7))
    P = rng.uniform(-1.0, 1.0, (30, 4))
    printed = pt.sdot_values(q, P, "printed")
    derived = pt.sdot_values(q, P, "derived")
    w, x = q[..., 3], q[..., 4]
    PY, PZ = P[..., 2], P[..., 3]
    expected_gap = 0.5 * (x * PY - w * PZ) - 0.5 * (-w * PY + x * PZ)
    np.testing.assert_allclose(printed - derived, expected_gap, atol=TOL)
