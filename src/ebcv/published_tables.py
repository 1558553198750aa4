"""Access to the shipped closed-form tables and a restricted evaluator.

The printed tables live in ``data/published_tables.json`` as expression
strings over the coordinates, the parameters ``m`` and ``l``, and the
conformal factor ``K``.  This module parses those strings through a strict
AST whitelist (names, numbers, ``+ - * / **`` and unary sign only) so the
data file can never execute code, and exposes small helpers that evaluate
whole tables into numpy arrays at sampled points.

Entries that are known to disagree with the exact oracles carry a
``known_discrepancies`` annotation next to the table; consumers quote both
the printed and the derived expression instead of silently preferring one.
"""

from __future__ import annotations

import ast
import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .frames import ModelParams, k_factor

__all__ = [
    "load_tables",
    "safe_eval",
    "point_env",
    "component_table_values",
    "sectional_table_values",
    "ricci_matrix_values",
    "scalar_values",
    "momenta_values",
    "sdot_values",
]

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


@lru_cache(maxsize=1)
def load_tables() -> dict:
    """The parsed table document (cached; treat as read-only)."""
    text = (
        resources.files("ebcv").joinpath("data/published_tables.json").read_text()
    )
    return json.loads(text)


def _check_node(node: ast.AST, allowed_names: frozenset) -> None:
    if isinstance(node, ast.Expression):
        _check_node(node.body, allowed_names)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ValueError(
                f"operator {type(node.op).__name__} is not allowed in table "
                "expressions"
            )
        _check_node(node.left, allowed_names)
        _check_node(node.right, allowed_names)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ValueError(
                f"unary operator {type(node.op).__name__} is not allowed in "
                "table expressions"
            )
        _check_node(node.operand, allowed_names)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"constant {node.value!r} is not a real number")
    elif isinstance(node, ast.Name):
        if node.id not in allowed_names:
            raise ValueError(f"unknown symbol {node.id!r} in table expression")
    else:
        raise ValueError(
            f"syntax {type(node).__name__} is not allowed in table expressions"
        )


@lru_cache(maxsize=512)
def _compiled(expr: str, allowed_names: frozenset):
    tree = ast.parse(expr, mode="eval")
    _check_node(tree, allowed_names)
    return compile(tree, "<table expression>", "eval")


def safe_eval(expr: str, env: dict):
    """Evaluate a table expression against ``env`` through the whitelist."""
    code = _compiled(expr, frozenset(env))
    return eval(code, {"__builtins__": {}}, env)  # noqa: S307 - AST-whitelisted


def _coordinate_env(q) -> dict:
    """The coordinate symbols r..z at points of shape (..., 7)."""
    q = np.asarray(q, dtype=float)
    return {name: q[..., i]
            for i, name in enumerate(load_tables()["coordinate_order"])}


def point_env(q, params: ModelParams) -> dict:
    """Evaluation symbols at configuration points of shape (..., 7)."""
    env = _coordinate_env(q)
    # numpy scalars, so that a printed expression overflows to inf as the
    # tensors do instead of raising
    env["m"] = np.float64(params.m)
    env["l"] = np.float64(params.l)
    env["K"] = k_factor(q, params)
    return env


def _pair_key(key: str) -> tuple[int, int]:
    a, b = key.split(",")
    return int(a), int(b)


def component_table_values(table: dict, q, params: ModelParams) -> dict:
    """Evaluate a {pair: {target: expr}} table to {(a, b): (..., 7) array}."""
    env = point_env(q, params)
    shape = np.broadcast_shapes(np.shape(env["w"]), ())
    out = {}
    for key, comps in table["entries"].items():
        vec = np.zeros(shape + (7,))
        for target, expr in comps.items():
            vec[..., int(target) - 1] = safe_eval(expr, env)
        out[_pair_key(key)] = vec
    return out


def sectional_table_values(q, params: ModelParams) -> dict:
    """Evaluate the sectional curvature table to {(a, b): scalar array}."""
    table = load_tables()["curvature_tables"]["general_sectional"]
    env = point_env(q, params)
    return {
        _pair_key(key): np.asarray(safe_eval(expr, env), dtype=float)
        for key, expr in table["entries"].items()
    }


def ricci_matrix_values(q, params: ModelParams) -> np.ndarray:
    """Evaluate the printed Ricci table to a symmetric (..., 7, 7) array."""
    table = load_tables()["curvature_tables"]["ricci_general"]
    env = point_env(q, params)
    shape = np.shape(env["w"])
    out = np.zeros(shape + (7, 7))
    for key, expr in table["entries"].items():
        i, j = _pair_key(key)
        val = safe_eval(expr, env)
        out[..., i - 1, j - 1] = val
        if i != j:
            out[..., j - 1, i - 1] = val
    return out


def scalar_values(q, params: ModelParams, which: str = "printed") -> np.ndarray:
    """Evaluate the printed or derived scalar-curvature expression."""
    expr = load_tables()["curvature_tables"]["scalar"][which]
    return np.asarray(safe_eval(expr, point_env(q, params)), dtype=float)


def momenta_values(q, p) -> np.ndarray:
    """Evaluate the printed momentum functions at points q and covectors p
    (symbols pr..pz), stacked as (..., 4)."""
    table = load_tables()["geodesic_tables"]["momenta"]["entries"]
    env = _coordinate_env(q)
    p = np.asarray(p, dtype=float)
    for i, name in enumerate(("pr", "ps", "pt", "pw", "px", "py", "pz")):
        env[name] = p[..., i]
    return np.stack(
        [np.asarray(safe_eval(table[name], env), dtype=float)
         for name in ("PW", "PX", "PY", "PZ")],
        axis=-1,
    )


def sdot_values(q, P, which: str = "printed") -> np.ndarray:
    """Evaluate a vertical flow line over coordinates and momentum symbols.

    ``P`` holds the four momentum-function values on the last axis.
    """
    expr = load_tables()["geodesic_tables"]["sdot_line"][which]
    env = _coordinate_env(q)
    P = np.asarray(P, dtype=float)
    for i, name in enumerate(("PW", "PX", "PY", "PZ")):
        env[name] = P[..., i]
    return np.asarray(safe_eval(expr, env), dtype=float)
