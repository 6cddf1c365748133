"""The exact-arithmetic leaf module: primality against sympy, Newton
interpolation mod p against direct evaluation, and the module's
independence from the rest of the package."""

import ast
import random
from pathlib import Path

import pytest

import devsurf.arith
from devsurf.arith import _MR_EXACT_BOUND, is_prime, modulus, mul_mod, newton_step

CARMICHAEL = (561, 41041, 825265, 321197185)
# the least strong pseudoprimes to the first k prime bases, for k = 1 to 6,
# 7 and 8, 9 to 11 (bases 2, ..., 31) and 12 (bases 2, ..., 37): each
# fools every base before the next one, and only base 41 exposes the last
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)


class TestIsPrime:
    def test_small_numbers_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(10**4):
            assert is_prime(n) is bool(sympy.isprime(n)), n

    def test_odd_numbers_near_2_61_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(261)
        for _ in range(3000):
            n = 2**61 + rng.randint(-(10**6), 10**6) | 1
            assert is_prime(n) is bool(sympy.isprime(n)), n

    def test_carmichael_numbers_and_strong_pseudoprimes(self):
        sympy = pytest.importorskip("sympy")
        for n in CARMICHAEL + STRONG_PSEUDOPRIMES:
            assert n < _MR_EXACT_BOUND
            assert not sympy.isprime(n)
            assert not is_prime(n), n


def value(coeffs, x, p):
    """Direct evaluation mod p of an ascending coefficient list."""
    return sum(c * x**k for k, c in enumerate(coeffs)) % p


class TestNewtonStep:
    @pytest.mark.parametrize("p", [modulus(0), 101])
    def test_points_in_any_order_with_keys_missing_from_images(self, p):
        # each key's target vanishes at some of the points, where the key
        # is left out of the values, as _pgcd leaves out a coefficient that
        # evaluates to 0: a key that vanishes at the first points appears
        # later, and a key that is 0 throughout never appears
        rng = random.Random(p % 1000)
        late = missing = 0
        for _ in range(60):
            npts = rng.randint(1, 9)
            points = rng.sample(range(60), npts)  # not consecutive, any order
            targets = {}
            for key in range(rng.randint(1, 5)):
                if rng.random() < 0.15:
                    targets[key] = []
                    continue
                roots = rng.sample(points, rng.randint(0, npts - 1))
                c = [rng.randrange(p) for _ in range(rng.randint(0, npts - 1 - len(roots)))] + [rng.randrange(1, p)]
                for r in roots:
                    c = mul_mod(c, [-r % p, 1], p)
                targets[key] = c
            interp, node = {}, [1]
            for k, x in enumerate(points):
                values = {h: v for h, c in targets.items() if (v := value(c, x, p))}
                late += len(values.keys() - interp.keys()) if k else 0
                missing += len(interp.keys() - values.keys())
                node = newton_step(interp, node, x, values, p)
                # node is the monic product of t - y over the points so far
                assert len(node) == k + 2 and node[-1] == 1
                assert not any(value(node, y, p) for y in points[: k + 1])
                # every key takes its target's value at every point so far
                for h, c in targets.items():
                    v = interp.get(h, [])
                    assert len(v) <= k + 1 and (not v or v[-1])
                    assert [value(v, y, p) for y in points[: k + 1]] == [value(c, y, p) for y in points[: k + 1]]
            # npts points determine each target, of degree below npts
            assert interp == {h: c for h, c in targets.items() if c}, points
        # keys that first appear after the first point, and interpolant
        # keys missing from the values, both occur often
        assert late > 20 and missing > 20


def test_arith_is_a_leaf_module():
    # poly imports arith, so arith must import nothing from the package
    tree = ast.parse(Path(devsurf.arith.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            assert not (node.module or "").split(".")[0] == "devsurf", node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "devsurf", alias.name
