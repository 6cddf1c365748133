"""Correctness gate: each report against the answer its input was built with.

The emitted parametrization is spot-checked without devsurf: texts are
evaluated with ``fractions.Fraction`` at seeded rational points.
"""

from __future__ import annotations

import ast
import json
import operator
import random
from fractions import Fraction
from typing import Optional

from gen import Case

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval(node, env):
    if isinstance(node, ast.BinOp):
        a, b = _eval(node.left, env), _eval(node.right, env)
        if isinstance(node.op, ast.Pow):
            if b.denominator != 1 or b < 0:
                raise ValueError("exponent must be a nonnegative integer")
            return a ** int(b)
        return _BINOPS[type(node.op)](a, b)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.Tuple):
        return tuple(_eval(e, env) for e in node.elts)
    raise ValueError(f"unexpected syntax: {ast.dump(node)}")


def evaluator(text: str):
    """Exact evaluator of an expression in the CLI's syntax ('^' is power)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval").body
    return lambda **env: _eval(tree, env)


def _rand_q(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _map_points(P, rng, count=3):
    """Images of seeded (s, t) away from poles."""
    points = []
    for _ in range(40):
        try:
            points.append(P(s=_rand_q(rng), t=_rand_q(rng)))
        except ZeroDivisionError:
            continue
        if len(points) == count:
            return points
    raise ValueError("map hits a pole at every sampled point")


def _on_surface(F, P, rng) -> bool:
    points = _map_points(P, rng)
    if len(set(points)) < 2:
        return False  # a constant map proves nothing
    return all(F(x=a, y=b, z=c) == 0 for a, b, c in points)


def check(case: Case, result: dict, seed: int) -> Optional[str]:
    """None when the report is correct, else the reason it is not."""
    if result["error"]:
        return result["error"]
    if result["exit"] != case.exit_code:
        return f"exit code {result['exit']}, expected {case.exit_code}"
    try:
        report = json.loads(result["out"])
    except ValueError:
        return "report is not one JSON document"
    cls = report["classification"]
    if cls["tag"] != case.tag:
        return f"tag {cls['tag']}, expected {case.tag}"
    if case.apex is not None and tuple(Fraction(a) for a in cls["apex"] or ()) != case.apex:
        return f"apex {cls['apex']}, expected {case.apex}"
    if case.direction is not None:
        d = [int(c) for c in cls["direction"] or (0, 0, 0)]
        e = case.direction
        cross = (d[1] * e[2] - d[2] * e[1], d[2] * e[0] - d[0] * e[2], d[0] * e[1] - d[1] * e[0])
        if not any(d) or any(cross):
            return f"direction {cls['direction']}, expected {case.direction}"
    if case.exit_code != 0:
        return None
    try:
        return _spot_check(case, report, random.Random(f"{case.name}:{seed}"))
    except (SyntaxError, ValueError, KeyError, TypeError) as err:
        return f"report text could not be evaluated: {err}"


def _spot_check(case: Case, report: dict, rng) -> Optional[str]:
    emitted = evaluator(report["parametrization"]["surface_map"])
    if case.kind == "implicit":
        if not _on_surface(evaluator(case.text), emitted, rng):
            return "emitted map does not lie on F = 0"
        return None
    G = evaluator(report["implicit_equation"])
    if all(G(x=_rand_q(rng), y=_rand_q(rng), z=_rand_q(rng)) == 0 for _ in range(3)):
        return "reported implicit equation vanishes everywhere"
    if not _on_surface(G, evaluator(case.text), rng):
        return "input map does not satisfy the reported implicit equation"
    if not _on_surface(G, emitted, rng):
        return "emitted map does not satisfy the reported implicit equation"
    return None
