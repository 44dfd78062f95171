"""Closed forms for separation and free-separation numbers of cycles,
cactuses, and outerplanar girth bounds.

Every function reports the piecewise branch ("regime") that produced its
value, and all regime boundaries are compared with exact rationals: several
breakpoints such as (2n-1)b/(n-1) are knife-edges where floats misclassify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, _cycle_block_lengths
from .lists import _check_ab

__all__ = [
    "FormulaResult",
    "CThreshold",
    "sep_cycle",
    "c_threshold",
    "fsep_cycle",
    "fsep_min_with_triangle",
    "fsep_monotone_check",
    "fsep_cactus",
    "fsep_outerplanar_bounds",
]


@dataclass(frozen=True)
class FormulaResult:
    value: int
    regime: str
    exact: bool = True


@dataclass(frozen=True)
class CThreshold:
    """The rational threshold c(n,a,b) together with its floor."""

    value: Fraction
    floor: int
    regime: str


def _check(a: int, b: int, n: int | None = None, n_min: int = 3):
    _check_ab(a, b)
    if n is not None and n < n_min:
        raise ValueError(f"need n >= {n_min}, got n={n}")


def sep_cycle(n: int, a: int, b: int) -> FormulaResult:
    """Separation number of the cycle C_n.

    Even cycles: a-b below a=2b, then the trivial maximum a.  Odd cycles
    n=2p+1 interpolate: b+(p+1)(a-2b) on 2b <= a <= 2b+b/p, with the two
    outer branches meeting it at both ends.
    """
    _check(a, b, n, 3)
    if n % 2 == 0:
        if a < 2 * b:
            return FormulaResult(a - b, "even-low")
        return FormulaResult(a, "even-high")
    p = (n - 1) // 2
    if a < 2 * b:
        return FormulaResult(a - b, "odd-low")
    if Fraction(a) <= 2 * b + Fraction(b, p):
        return FormulaResult(b + (p + 1) * (a - 2 * b), "odd-middle")
    return FormulaResult(a, "odd-high")


def c_threshold(n: int, a: int, b: int) -> CThreshold:
    """The rational free-separation threshold c(n,a,b) for cycles."""
    _check(a, b, n, 3)
    if Fraction(a) < Fraction((2 * n - 1) * b, n - 1):
        val = Fraction((n - 1) * (a - b), n)
        regime = "low"
    elif Fraction(a) < Fraction(2 * (n + 1) * b, n):
        val = Fraction((n - 1) * (a - b) - 2 * b, n - 2)
        regime = "middle"
    else:
        val = Fraction(a)
        regime = "high"
    return CThreshold(value=val, floor=math.floor(val), regime=regime)


def fsep_cycle(n: int, a: int, b: int) -> FormulaResult:
    """Free-separation number of C_n: floor of c(n,a,b) for n >= 4; the
    triangle has its own three branches (7b/4 and 3b breakpoints)."""
    _check(a, b, n, 3)
    if n == 3:
        if 4 * a < 7 * b:
            return FormulaResult((2 * (a - b)) // 3, "c3-low")
        if a < 3 * b:
            return FormulaResult(2 * a - 3 * b, "c3-middle")
        return FormulaResult(a, "c3-high")
    t = c_threshold(n, a, b)
    return FormulaResult(t.floor, t.regime)


def fsep_min_with_triangle(n: int, a: int, b: int) -> FormulaResult:
    """min(fsep(C_3), fsep(C_n)) for n >= 4, via its five-branch closed form.

    The middle C_3 branch 2a-3b wins on two separate intervals; between them
    the C_n branches take over.  The result is checked against the direct
    minimum before returning.
    """
    _check(a, b, n, 4)
    A = Fraction(a)
    if A < Fraction(7 * b, 4):
        res = FormulaResult((2 * (a - b)) // 3, "c3-low")
    elif A <= Fraction((2 * n + 1) * b, n + 1) or (
        Fraction(2 * (n + 1) * b, n) <= A < 3 * b
    ):
        res = FormulaResult(2 * a - 3 * b, "c3-middle")
    elif A < Fraction((2 * n - 1) * b, n - 1):
        res = FormulaResult(math.floor(Fraction((n - 1) * (a - b), n)), "cycle-low")
    elif A < Fraction(2 * (n + 1) * b, n):
        res = FormulaResult(
            math.floor(Fraction((n - 1) * (a - b) - 2 * b, n - 2)), "cycle-middle"
        )
    else:
        res = FormulaResult(a, "high")
    expected = min(fsep_cycle(3, a, b).value, fsep_cycle(n, a, b).value)
    if res.value != expected:
        raise AssertionError(
            f"five-branch value {res.value} != min of cycle values {expected} "
            f"at (n,a,b)=({n},{a},{b})"
        )
    return res


def fsep_monotone_check(n: int, a: int, b: int) -> bool:
    """fsep(C_n) <= fsep(C_{n+1}) for n >= 4."""
    _check(a, b, n, 4)
    return fsep_cycle(n, a, b).value <= fsep_cycle(n + 1, a, b).value


def fsep_cactus(g: Graph, a: int, b: int) -> FormulaResult:
    """Free-separation number of a connected cactus containing a cycle.

    Shortest cycle wins unless triangles coexist with longer cycles; then
    the interval (2l+1)b/(l+1) < a < (2l+2)b/l is exactly where the shortest
    longer cycle l is the bottleneck instead of the triangle.  Every cycle
    of a cactus is a block, so the girth and l are read from the cycle
    block lengths.
    """
    _check(a, b)
    lengths = _cycle_block_lengths(g)
    if lengths is None:
        raise ValueError("graph is not a cactus")
    if not lengths:
        raise ValueError("forest input: no cycle, free-separation unbounded here")
    gg = lengths[0]
    ell = next((l for l in lengths if l >= 4), None)
    if gg >= 4:
        return FormulaResult(fsep_cycle(gg, a, b).value, "girth")
    if ell is None:
        return FormulaResult(fsep_cycle(3, a, b).value, "triangles-only")
    if Fraction((2 * ell + 1) * b, ell + 1) < a < Fraction(2 * (ell + 1) * b, ell):
        return FormulaResult(fsep_cycle(ell, a, b).value, "mixed-cycle")
    return FormulaResult(fsep_cycle(3, a, b).value, "mixed-triangle")


def fsep_outerplanar_bounds(g: int, a: int, b: int) -> tuple[FormulaResult, FormulaResult]:
    """(fsep(C_{g-1}), fsep(C_g)) sandwich for outerplanar graphs of girth g >= 5."""
    if g < 5:
        raise ValueError(f"girth must be at least 5, got {g}")
    _check(a, b)
    lo = fsep_cycle(g - 1, a, b)
    hi = fsep_cycle(g, a, b)
    exact = lo.value == hi.value
    return (
        FormulaResult(lo.value, lo.regime, exact),
        FormulaResult(hi.value, hi.regime, exact),
    )
