"""Test-function registry: named scalar functions of the covariates.

Functions are declared as compact strings (usable directly in config files):

    column:<name>                    raw numeric column
    indicator:<col>=<value>          1 if the cell equals value, else 0
    product:<a>*<b>                  product of two numeric columns
    product:<a>*<b>:standardized     product of the two columns after
                                     centering/scaling on pooled source data
    expr:<arithmetic>                arithmetic over numeric columns
                                     (+ - * / **, log, exp, sqrt, abs);
                                     its numbers are float64, as the
                                     columns are
    auto_indicators:<col>            expands to one indicator per category
                                     observed in the source datasets

``parse_test_functions(declarations, data)`` resolves each declaration once,
against the collection it will run on: every column it reads is checked in
each source and the target (finite, where it is read as a number), and
standardization constants and auto_indicators levels are frozen from the
pooled sources. Each function is then one closure
from a Table to float64 values; a bad declaration is a ValueError naming it.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .moments import pooled_moments
from .tables import DatasetCollection, Table, finite_column

__all__ = ["TestFunctionSet", "parse_test_functions"]

_EXPR_FUNCS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
# every node an expr: tree may hold: arithmetic on numbers, columns and _EXPR_FUNCS calls
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
               ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


@dataclass(frozen=True)
class TestFunctionSet:
    """L named scalar functions of the covariates, each a Table -> (n_rows,) map."""

    names: tuple[str, ...]
    functions: tuple[Callable[[Table], np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.names)

    def evaluate(self, table: Table) -> np.ndarray:
        """Function values, shape (n_rows, L); evaluate_moments reports a non-finite one."""
        with np.errstate(all="ignore"):
            return np.column_stack([f(table) for f in self.functions])


def _check_columns(data: DatasetCollection, cols, numeric: bool = True) -> None:
    """Every source and the target have each column, numeric and finite if asked."""
    for col in cols:
        for tbl in (*data.sources, data.target):
            if numeric:
                finite_column(tbl, col, "column")
            else:
                tbl.column(col)  # a missing column is an error naming the table


def _compile_expr(src: str, data: DatasetCollection) -> Callable:
    """Compile a restricted arithmetic expression over numeric columns of ``data``."""
    try:
        with warnings.catch_warnings():
            # a SyntaxWarning (an invalid escape, "2(x)") is then a SyntaxError, not a printed line
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval")
            code = compile(tree, "<test-function>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"invalid expression: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression is nested too deeply") from None
    nodes = list(ast.walk(tree))
    for node in nodes:
        if not isinstance(node, _EXPR_NODES) or (
            isinstance(node, ast.Constant) and not isinstance(node.value, (int, float))
        ):
            raise ValueError(f"unsupported syntax in expression: {type(node).__name__}")
    calls = [n for n in nodes if isinstance(n, ast.Call)]
    for call in calls:
        if not (isinstance(call.func, ast.Name) and call.func.id in _EXPR_FUNCS
                and len(call.args) == 1 and not call.keywords):
            raise ValueError("calls must be one of log(x), exp(x), sqrt(x), abs(x)")
    called = {id(call.func) for call in calls}
    cols = sorted({n.id for n in nodes if isinstance(n, ast.Name) and id(n) not in called})
    if set(cols) & _EXPR_FUNCS.keys():
        raise ValueError("log, exp, sqrt and abs must be called, not referenced")
    if not cols:
        raise ValueError("expression reads no column")
    _check_columns(data, cols)
    try:  # numbers are float64, as the columns are: 10**400 is inf, not a Python int
        code = code.replace(co_consts=tuple(
            np.float64(c) if isinstance(c, (int, float)) else c for c in code.co_consts))
    except OverflowError:
        raise ValueError("a number in the expression is too large for a float64") from None

    def fn(tbl):
        env = {c: tbl.column(c) for c in cols}
        return np.asarray(eval(code, {"__builtins__": {}, **_EXPR_FUNCS}, env), dtype=float)

    return fn


def _levels(arr: np.ndarray) -> set[str]:
    """The distinct values of a column as strings (numbers as numpy prints them)."""
    values = arr.astype(str) if arr.dtype.kind == "f" else arr
    return {str(v) for v in set(values.tolist())}


def _indicator(data: DatasetCollection, col: str, value: str) -> Callable:
    _check_columns(data, [col], numeric=False)
    numeric = any(tbl.is_numeric(col) for tbl in (*data.sources, data.target))
    try:  # a numeric column's cells are compared with the value as a number
        number = float(value) if numeric else None
    except ValueError:
        raise ValueError(f"column {col!r} is numeric, but {value!r} is not a number") from None
    if numeric and np.isnan(number):
        raise ValueError(f"column {col!r} is numeric, and no cell equals nan")
    return lambda tbl: (tbl.column(col) == (number if tbl.is_numeric(col) else value)).astype(float)


def _resolve(decl: str, data: DatasetCollection) -> list[tuple[str, Callable]]:
    """The (name, function) pairs one declaration stands for."""
    form, _, body = decl.partition(":")
    if form == "column":
        if not body:
            raise ValueError("column: form needs a column name")
        _check_columns(data, [body])
        return [(decl, lambda tbl: tbl.column(body))]
    if form == "indicator":
        col, eq, value = body.partition("=")
        if not eq:
            raise ValueError("indicator form is indicator:<col>=<value>")
        return [(decl, _indicator(data, col, value))]
    if form == "product":
        standardized = body.endswith(":standardized")
        a, star, b = body.removesuffix(":standardized").partition("*")
        if not star:
            raise ValueError("product form is product:<colA>*<colB>[:standardized]")
        _check_columns(data, [a, b])
        if not standardized:
            return [(decl, lambda tbl: tbl.column(a) * tbl.column(b))]
        ma, va = pooled_moments(tbl.column(a) for tbl in data.sources)
        mb, vb = pooled_moments(tbl.column(b) for tbl in data.sources)
        for col, var in ((a, va), (b, vb)):
            if not np.isfinite(var):
                raise ValueError(f"column {col!r} has a pooled source variance "
                                 "beyond the float range")
        if va == 0.0 or vb == 0.0:
            raise ValueError("cannot standardize a column with zero pooled variance")
        sa, sb = np.sqrt(va), np.sqrt(vb)
        return [(decl, lambda tbl: ((tbl.column(a) - ma) / sa) * ((tbl.column(b) - mb) / sb))]
    if form == "expr":
        return [(decl, _compile_expr(body, data))]
    if form == "auto_indicators":
        _check_columns(data, [body], numeric=False)
        source_cats = set().union(*(_levels(tbl.column(body)) for tbl in data.sources))
        only_target = sorted(_levels(data.target.column(body)) - source_cats)
        if only_target:
            warnings.warn(
                f"{decl}: {len(only_target)} categories appear only in the target and "
                f"are skipped (zero pooled variance): {only_target[:5]}",
                stacklevel=3,
            )
        return [(f"indicator:{body}={cat}", _indicator(data, body, cat))
                for cat in sorted(source_cats)]
    raise ValueError("unrecognized form; expected column:, indicator:, product:, "
                     "expr: or auto_indicators:")


def parse_test_functions(declarations: list[str], data: DatasetCollection) -> TestFunctionSet:
    """Resolve each declaration against ``data``; an error names the declaration."""
    pairs = []
    for decl in declarations:
        try:
            pairs += _resolve(decl, data)
        except ValueError as exc:
            raise ValueError(f"test function {decl!r}: {exc}") from None
    return TestFunctionSet(tuple(n for n, _ in pairs), tuple(f for _, f in pairs))
