"""q-Newton polygons and the p-rank stratification.

The polygon is the lower convex hull of the points (i, v(a_i)) over the
nonzero coefficients, where v is the p-adic valuation normalized so that
v(q) = 1 (so v(x) = v_p(x)/d for q = p^d).  All slope arithmetic is done
with exact rationals; no floats are compared anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._intpoly import Record

HALF = Fraction(1, 2)


class Stratum(Enum):
    ORDINARY = "ordinary"
    ALMOST_ORDINARY = "almost_ordinary"
    K3_TYPE = "k3_type"
    SUPERSINGULAR = "supersingular"
    P_RANK_ZERO_NON_SS = "p_rank_zero_non_ss"
    OTHER = "other"


class NewtonPolygonData(Record):
    slopes: tuple         # 2g Fractions, non-decreasing, with multiplicity
    p_rank: int

    def slope_multiplicities(self):
        out = {}
        for s in self.slopes:
            out[s] = out.get(s, 0) + 1
        return out

    def is_supersingular(self):
        return all(s == HALF for s in self.slopes)

    def to_json(self):
        return {"slopes": [str(s) for s in self.slopes], "p_rank": self.p_rank}


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(P):
    """Exact q-Newton polygon of a WeilPolynomial."""
    return newton_polygon_of_factor(P.coeffs, P.p, P.d)


def newton_polygon_of_factor(coeffs, p, d):
    """Polygon of a (not necessarily functional-equation) integer factor.

    The lower hull (monotone chain) runs on the integer points
    (i, v_p(a_i)); dividing every ordinate by d moves no point across a
    segment, so only the slopes are scaled, each made a Fraction once.
    """
    hull = []
    for pt in [(i, _vp(abs(a), p)) for i, a in enumerate(coeffs) if a != 0]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2]..pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y2 - y1, (x2 - x1) * d)] * (x2 - x1))
    p_rank = sum(1 for s in slopes if s == 0)
    return NewtonPolygonData(slopes=tuple(slopes), p_rank=p_rank)


def stratify(np_data, g):
    """Map a polygon to the stratum used by the classification flowcharts."""
    slopes = np_data.slopes
    if len(slopes) != 2 * g:
        raise ValueError("polygon has %d slopes, expected %d" % (len(slopes), 2 * g))
    if np_data.p_rank == g:
        return Stratum.ORDINARY
    if np_data.is_supersingular():
        return Stratum.SUPERSINGULAR
    mult = np_data.slope_multiplicities()
    if (np_data.p_rank == g - 1 and mult.get(HALF, 0) == 2
            and mult.get(Fraction(1), 0) == g - 1):
        return Stratum.ALMOST_ORDINARY
    if (g == 3 and np_data.p_rank == 1 and mult.get(HALF, 0) == 4
            and mult.get(Fraction(1), 0) == 1):
        return Stratum.K3_TYPE
    if np_data.p_rank == 0:
        return Stratum.P_RANK_ZERO_NON_SS
    return Stratum.OTHER


def newton_class(coeffs, p, d):
    """Coarse class of an irreducible factor: 'ordinary', 'ss' or 'mixed'."""
    np_data = newton_polygon_of_factor(coeffs, p, d)
    if np_data.is_supersingular():
        return "ss"
    if all(s == 0 or s == 1 for s in np_data.slopes):
        return "ordinary"
    return "mixed"
