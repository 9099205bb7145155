"""Test-function registry: named scalar functions of the covariates.

Functions are declared as compact strings (usable directly in config files):

    column:<name>                    raw numeric column
    indicator:<col>=<value>          1 if the cell equals value, else 0
    product:<a>*<b>                  product of two numeric columns
    product:<a>*<b>:standardized     product of the two columns after
                                     centering/scaling on pooled source data
    expr:<arithmetic>                arithmetic over numeric columns
                                     (+ - * / **, log, exp, sqrt, abs)
    auto_indicators:<col>            expands to one indicator per category
                                     observed in the source datasets

Standardization constants are frozen against a DatasetCollection by
``TestFunctionSet.prepare`` before any evaluation, so the same function is
applied to every dataset.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .moments import pooled_moments
from .tables import DatasetCollection, Table

__all__ = ["TestFunction", "TestFunctionSet", "parse_test_functions"]

_EXPR_FUNCS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}


@dataclass(frozen=True)
class TestFunction:
    name: str
    kind: str  # column | indicator | product | expr
    spec: tuple = ()
    constants: tuple | None = None  # standardization constants once prepared

    def needs_preparation(self) -> bool:
        return self.kind == "product" and self.spec[2] and self.constants is None

    def evaluate(self, table: Table) -> np.ndarray:
        if self.kind == "column":
            return np.asarray(table.column(self.spec[0]), dtype=float)
        if self.kind == "indicator":
            col, value = self.spec
            arr = table.column(col)
            if arr.dtype.kind == "f":
                return (arr == float(value)).astype(float)
            return (arr == value).astype(float)
        if self.kind == "product":
            a, b, standardized = self.spec
            va = np.asarray(table.column(a), dtype=float)
            vb = np.asarray(table.column(b), dtype=float)
            if standardized:
                if self.constants is None:
                    raise RuntimeError(
                        f"standardized product {self.name!r} used before prepare()"
                    )
                ma, sa, mb, sb = self.constants
                return ((va - ma) / sa) * ((vb - mb) / sb)
            return va * vb
        env = {c: np.asarray(table.column(c), dtype=float) for c in self.spec[1]}
        return np.asarray(self.spec[0](env), dtype=float)


@dataclass(frozen=True)
class TestFunctionSet:
    """L uniquely named scalar functions of the covariates."""

    functions: tuple[TestFunction, ...]

    def __post_init__(self):
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise ValueError("test function names must be unique")

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.functions)

    def prepare(self, data: DatasetCollection) -> "TestFunctionSet":
        """Freeze pooled-data standardization constants; resolve nothing else."""
        prepared = []
        for f in self.functions:
            if f.needs_preparation():
                a, b, _ = f.spec
                ma, va = pooled_moments(tbl.column(a) for tbl in data.sources)
                mb, vb = pooled_moments(tbl.column(b) for tbl in data.sources)
                if va == 0.0 or vb == 0.0:
                    raise ValueError(
                        f"cannot standardize {f.name!r}: column with zero pooled variance"
                    )
                f = replace(f, constants=(ma, np.sqrt(va), mb, np.sqrt(vb)))
            prepared.append(f)
        return TestFunctionSet(tuple(prepared))

    def evaluate(self, table: Table) -> np.ndarray:
        """Function values, shape (n_rows, L)."""
        return np.column_stack([f.evaluate(table) for f in self.functions])


def _compile_expr(src: str) -> tuple:
    """Compile a restricted arithmetic expression to (callable, columns)."""
    tree = ast.parse(src, mode="eval")
    names: set[str] = set()

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            pass
        elif isinstance(node, ast.Name):
            if node.id in _EXPR_FUNCS:
                raise ValueError(f"{node.id} must be called, not referenced")
            names.add(node.id)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
                raise ValueError("only log/exp/sqrt/abs calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id} takes exactly one argument")
            check(node.args[0])
        else:
            raise ValueError(f"unsupported syntax in expression: {ast.dump(node)}")

    check(tree)
    code = compile(tree, "<test-function>", "eval")
    cols = tuple(sorted(names))

    def fn(env):
        return eval(code, {"__builtins__": {}, **_EXPR_FUNCS}, dict(env))

    return fn, cols


def parse_one(decl: str) -> TestFunction:
    if decl.startswith("column:"):
        col = decl[len("column:"):]
        if not col:
            raise ValueError("column: form needs a column name")
        return TestFunction(decl, "column", (col,))
    if decl.startswith("indicator:"):
        body = decl[len("indicator:"):]
        if "=" not in body:
            raise ValueError("indicator form is indicator:<col>=<value>")
        col, value = body.split("=", 1)
        return TestFunction(decl, "indicator", (col, value))
    if decl.startswith("product:"):
        body = decl[len("product:"):]
        standardized = False
        if body.endswith(":standardized"):
            standardized = True
            body = body[: -len(":standardized")]
        if "*" not in body:
            raise ValueError("product form is product:<colA>*<colB>[:standardized]")
        a, b = body.split("*", 1)
        return TestFunction(decl, "product", (a, b, standardized))
    if decl.startswith("expr:"):
        src = decl[len("expr:"):]
        fn, cols = _compile_expr(src)
        return TestFunction(decl, "expr", (fn, cols))
    raise ValueError(f"unrecognized test function declaration {decl!r}")


def parse_test_functions(
    declarations: list[str], data: DatasetCollection | None = None
) -> TestFunctionSet:
    """Parse declaration strings; auto_indicators needs the data collection."""
    funcs: list[TestFunction] = []
    for decl in declarations:
        if decl.startswith("auto_indicators:"):
            if data is None:
                raise ValueError("auto_indicators requires the dataset collection")
            col = decl[len("auto_indicators:"):]
            funcs.extend(_expand_auto_indicators(col, data))
        else:
            funcs.append(parse_one(decl))
    return TestFunctionSet(tuple(funcs))


def _levels(arr: np.ndarray) -> set[str]:
    """The distinct values of a column as strings (numbers as numpy prints them)."""
    values = arr.astype(str) if arr.dtype.kind == "f" else arr
    return {str(v) for v in set(values.tolist())}


def _expand_auto_indicators(col: str, data: DatasetCollection) -> list[TestFunction]:
    source_cats = set().union(*(_levels(tbl.column(col)) for tbl in data.sources))
    target_cats = _levels(data.target.column(col))
    only_target = sorted(target_cats - source_cats)
    if only_target:
        warnings.warn(
            f"auto_indicators:{col}: categories {only_target} appear only in the "
            "target and are skipped (zero pooled variance)",
            stacklevel=3,
        )
    out = []
    for cat in sorted(source_cats):
        out.append(parse_one(f"indicator:{col}={cat}"))
    return out
