"""Tiny arithmetic expression language for coefficient tables.

Supports +, -, *, /, **, unary minus, the functions sin, cos, tan, exp, log,
sqrt, sinh, cosh, tanh, abs, and the constants pi and e, over named variables.
Compiled through the ast module with a whitelist; anything else is rejected.
Numbers are floats (an integer literal compiles as its float), and every
subexpression without a variable is evaluated once, at compile time, and
must be finite, so ``9**9**9`` or ``1/0`` fail there and not at evaluation.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

__all__ = ["compile_expr"]

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}

_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}


def _fold(node: ast.AST, variables: tuple[str, ...]) -> ast.AST:
    """``node`` checked against the whitelist, with each subexpression that holds no
    variable replaced by the constant of its float value; ValueError unless that is finite."""
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ValueError(f"operator {type(node.op).__name__} not allowed")
        node.left, node.right = _fold(node.left, variables), _fold(node.right, variables)
        op, args = _BINOPS[type(node.op)], [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARY:
            raise ValueError("only unary +/- allowed")
        node.operand = _fold(node.operand, variables)
        op, args = _UNARY[type(node.op)], [node.operand]
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ValueError("only whitelisted function calls allowed")
        if node.keywords:
            raise ValueError("keyword arguments not allowed")
        node.args = [_fold(a, variables) for a in node.args]
        op, args = _FUNCS[node.func.id], node.args
    elif isinstance(node, ast.Name):
        if node.id in variables:
            return node
        if node.id not in _CONSTS:
            raise ValueError(f"unknown name {node.id!r}")
        return ast.copy_location(ast.Constant(_CONSTS[node.id]), node)
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants allowed")
        op, args = float, [node]
    else:
        raise ValueError(f"syntax element {type(node).__name__} not allowed")
    if not all(isinstance(a, ast.Constant) for a in args):
        return node
    try:
        with np.errstate(all="raise"):
            value = float(op(*(a.value for a in args)))
    except (ArithmeticError, TypeError, ValueError) as err:
        raise ValueError(f"{ast.unparse(node)} has no finite value ({err})") from err
    if not math.isfinite(value):
        raise ValueError(f"{ast.unparse(node)} is {value}, not finite")
    return ast.copy_location(ast.Constant(value), node)


def compile_expr(src: str, variables: tuple[str, ...]) -> Callable:
    """Compile an expression over the named variables to a vectorized callable."""
    try:
        tree = ast.parse(src, mode="eval")
        tree.body = _fold(tree.body, variables)
        code = compile(tree, "<coefficient>", "eval")
    except RecursionError as err:
        raise ValueError("expression nests too deeply") from err

    def fn(*args):
        return eval(code, {"__builtins__": {}}, {**_FUNCS, **dict(zip(variables, args))})

    fn.__doc__ = f"compiled expression: {src!r} over {variables}"
    return fn
