"""Structural classification of Serre-Frobenius groups for g <= 3 (and the
partial prime-dimension case).

For g <= 3 the classifier never consults the numeric angle oracle: every
node is decided with exact integer arithmetic.  That covers Newton strata,
Honda-Tate factor shapes, coefficient tests for the splitting of simple
ordinary surfaces, base-change comparisons for geometric isogeny, exact
torsion orders of supersingular pieces, and, for an irreducible P with no
other exact test (simple almost-ordinary threefolds and the formal nodes),
the exterior-power relation test `polyarith.exterior_relation`.  That
independence is what the structural-versus-numeric corpus cross-check
certifies.  Only the partial prime-dimension classification takes delta
from the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import _intpoly as ip
from .anglerank import angle_rank_numeric
from .newton import Stratum, newton_polygon, newton_polygon_of_factor, stratify
from .polyarith import (exterior_relation, factor, supersingular_match,
                        supersingular_torsion_order)
from .weilpoly import DEFAULT_PRECISION, WeilError, _is_prime

BASE_CHANGE_RANGE = 24      # largest extension degree the split/merge searches try

# allowed (delta -> torsion orders) per dimension.  The published elliptic
# table folds the -2 sqrt(q) trace into C_1; the group there is C_2 (the
# normalized eigenvalue is -1), which the dimension-3 table corroborates via
# its delta=0, m=2 entry, so 2 is included for g=1.
ALLOWED_TORSION = {
    1: {0: {1, 2, 3, 4, 6, 8, 12}, 1: {1}},
    2: {0: {1, 2, 3, 4, 5, 6, 8, 10, 12, 24},
        1: {1, 2, 3, 4, 6, 8, 12},
        2: {1}},
    3: {0: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 24, 28, 30, 36},
        1: {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 24},
        2: {1, 2, 3, 4, 6, 8, 12, 24},
        3: {1}},
}

SIMPLE_AO_THREEFOLD_M = {1, 2, 3, 4, 6, 8, 12}


class InvalidTrace(WeilError):
    pass


class UnclassifiedNode(WeilError):
    """No node of the decision tree fired; internal consistency failure."""


class InconsistentInputs(WeilError):
    pass


class NotOrdinary(WeilError):
    pass


class NotSimple(WeilError):
    pass


@dataclass(frozen=True)
class SerreFrobeniusGroup:
    """U(1)^delta x C_m together with the node that produced it."""

    g: int
    delta: int
    m: int
    provenance: str

    @property
    def group(self):
        if self.delta == 0:
            return "C_%d" % self.m
        torus = "U(1)" if self.delta == 1 else "U(1)^%d" % self.delta
        if self.m == 1:
            return torus
        return "%s x C_%d" % (torus, self.m)

    def pair(self):
        return (self.delta, self.m)

    def in_allowed_tables(self):
        table = ALLOWED_TORSION.get(self.g)
        if table is None:
            return True
        return self.m in table.get(self.delta, set())

    def to_json(self):
        return {"delta": self.delta, "m": self.m, "group": self.group,
                "provenance": self.provenance}


@dataclass(frozen=True)
class Partial:
    """Honest non-answer for prime dimensions beyond the full theorems."""

    g: int
    absolutely_simple: bool
    delta: int
    certified: bool
    provenance: str

    def to_json(self):
        return {"partial": True, "absolutely_simple": self.absolutely_simple,
                "delta": self.delta, "certified": self.certified,
                "provenance": self.provenance}


@dataclass(frozen=True)
class GeometricDecomposition:
    split_degree: int               # 0 = stays irreducible over every extension
    factor_summaries: tuple         # ((coeffs, e, dim, newton_class), ...)

    def to_json(self):
        return {"split_degree": self.split_degree,
                "factors": [{"h": list(h), "e": e, "dim": dim, "newton": cls}
                            for h, e, dim, cls in self.factor_summaries]}


def _sf(g, delta, m, provenance):
    return SerreFrobeniusGroup(g=g, delta=delta, m=m, provenance=provenance)


# ---------------------------------------------------------------------------
# dimension 1


def classify_elliptic(P):
    """Trace table for elliptic curves; raises InvalidTrace when the input
    is not the Frobenius polynomial of an elliptic curve (Waterhouse)."""
    if P.g != 1:
        raise WeilError("classify_elliptic needs g = 1")
    q, p, d = P.q, P.p, P.d
    t = P.trace
    if t * t > 4 * q:
        raise InvalidTrace("|trace| exceeds the Weil bound")
    if gcd(t, p) == 1:
        return _sf(1, 1, 1, "Table2:(1)")
    even = d % 2 == 0
    if t * t == 4 * q and even:
        # u = +-1; the minus sign generates C_2
        return _sf(1, 0, 1 if t > 0 else 2, "Table2:2-(i)")
    if t * t == q and even and p % 3 != 1:
        return _sf(1, 0, 6 if t > 0 else 3,
                   "Table2:2-(ii)" if t > 0 else "Table2:2-(iii)")
    if t == 0:
        if even and p % 4 == 1:
            raise InvalidTrace("trace 0 needs p != 1 mod 4 when d is even")
        return _sf(1, 0, 4, "Table2:2-(iv)" if even else "Table2:2-(v)")
    if t * t == 2 * q and p == 2:
        return _sf(1, 0, 8, "Table2:2-(vi)")
    if t * t == 3 * q and p == 3:
        return _sf(1, 0, 12, "Table2:2-(vii)")
    raise InvalidTrace("trace %d over F_%d fails the Waterhouse conditions" % (t, q))


# ---------------------------------------------------------------------------
# shared product machinery


def _is_elliptic_quadratic(h, q):
    """True when the quadratic h is the Frobenius polynomial of an actual
    elliptic curve over F_q (functional equation + Waterhouse trace)."""
    if ip.degree(h) != 2 or h[2] != q:
        return False
    from .weilpoly import validate
    try:
        classify_elliptic(validate(h, q))
        return True
    except WeilError:
        return False


def howe_zhu_split_degree(a1, a2, q):
    """Splitting degree {2,3,4,6} of a simple ordinary surface, None = abs. simple."""
    if a1 == 0:
        return 2
    if a1 * a1 == q + a2:
        return 3
    if a1 * a1 == 2 * a2:
        return 4
    if a1 * a1 == 3 * a2 - 3 * q:
        return 6
    return None


def _power_index(c, r):
    """Largest k with base_change(c, r) a k-th power: the gcd of its Yun
    multiplicities.  For irreducible c with root alpha the base change is
    h^k with k = [Q(alpha) : Q(alpha^r)], so c gains factors over F_{q^r}
    exactly when k > 1."""
    parts = ip.squarefree_decomposition(ip.base_change_coeffs(c, r))
    return gcd(*(mult for _, mult in parts))


def _split_degree(c, limit):
    """Smallest r in 2..limit with _power_index(c, r) > 1, or None."""
    return next((r for r in range(2, limit + 1) if _power_index(c, r) > 1), None)


def _merge_degree(quads, quartics=()):
    """Smallest r at which all quadratics share one base change c and every
    quartic's base change is c^2, or None.

    A ratio of two quadratic Weil numbers that is a root of unity lies in a
    field of degree <= 4, so its order is at most 12: BASE_CHANGE_RANGE
    finds every merge of quadratics that exists.
    """
    for r in range(1, BASE_CHANGE_RANGE + 1):
        common = ip.base_change_coeffs(quads[0], r)
        if (all(ip.base_change_coeffs(h, r) == common for h in quads[1:])
                and all(ip.base_change_coeffs(h4, r) == ip.poly_pow(common, 2)
                        for h4 in quartics)):
            return r
    return None


def sf_of_product(factors, q, p, d):
    """Serre-Frobenius group of a product from its irreducible factors.

    `factors` is `IsogenyFactorization.factors`, the (coeffs, multiplicity,
    Newton class) triples of factor(P).  delta adds one per geometric
    isogeny class of non-supersingular quadratic pieces and two per simple
    surface piece of free rank two; m is the lcm of the supersingular
    torsion orders and of the extension degrees over which each geometric
    class collapses.
    """
    ss_parts = []
    quad_parts = []       # non-supersingular quadratics, deduplicated
    quartic_free = 0      # free rank contributed by quartic pieces
    quartic_split = []    # (h4, split_degree) for geometrically split quartics
    m_extra = []          # torsion carried by twisted non-realizable quartics
    rule = []
    for h, _, cls in factors:
        deg = ip.degree(h)
        if cls == "ss":
            ss_parts.append(h)
        elif deg == 1:
            # non-supersingular linear factor cannot occur (|root| = sqrt q)
            raise UnclassifiedNode("unexpected linear factor %r" % (h,))
        elif deg == 2:
            if h not in quad_parts:
                quad_parts.append(h)
        elif deg == 4 and cls == "ordinary":
            hz = howe_zhu_split_degree(h[1], h[2], q)
            if hz is None:
                quartic_free += 2
                rule.append(("surface_abs_simple", 0))
            else:
                quartic_split.append((h, hz))
        elif deg == 4 and _is_almost_ordinary_factor(h, p, d):
            quartic_free += 2
            rule.append(("surface_almost_ordinary", 0))
        elif deg == 4:
            # fractional-slope quartics from formally valid non-realizable
            # inputs: detect the one possible relation pattern directly
            r = _split_degree(h, BASE_CHANGE_RANGE)
            if r is None:
                quartic_free += 2
                rule.append(("quartic_free", 0))
            else:
                quartic_free += 1
                m_extra.append(r)
                rule.append(("quartic_twist", r))
        else:
            raise UnclassifiedNode(
                "no product rule for factor %r of class %s" % (h, cls))

    m_parts = list(m_extra)
    for h in ss_parts:
        t = supersingular_torsion_order(h, q)
        m_parts.append(t)
        rule.append(("ss", t))

    # geometric isogeny classes of the quadratic pieces
    classes = []   # each: {"quads": [...], "quartics": [h4, ...]}
    for h in quad_parts:
        for cl in classes:
            if _merge_degree([cl["quads"][0], h]) is not None:
                cl["quads"].append(h)
                break
        else:
            classes.append({"quads": [h], "quartics": []})
    delta = quartic_free + len(classes)

    # fold geometrically split quartics into their class (or their own)
    for h4, hz in quartic_split:
        for cl in classes:
            if _merge_degree(cl["quads"][:1], [h4]) is not None:
                cl["quartics"].append(h4)
                break
        else:
            delta += 1
            m_parts.append(hz)
            rule.append(("surface_split_alone", hz))

    for cl in classes:
        r = _merge_degree(cl["quads"], cl["quartics"])
        if r is None:
            raise InconsistentInputs("geometric class failed to merge")
        m_parts.append(r)
        rule.append(("ordinary_class", r))

    m = 1
    for t in m_parts:
        m = lcm(m, t)
    return delta, m, tuple(rule)


def _is_almost_ordinary_factor(h, p, d):
    from fractions import Fraction
    npd = newton_polygon_of_factor(h, p, d)
    mult = npd.slope_multiplicities()
    return (mult.get(Fraction(0), 0) == 1 and mult.get(Fraction(1), 0) == 1
            and mult.get(Fraction(1, 2), 0) == 2)


# ---------------------------------------------------------------------------
# dimension 2


def classify_surface(P, fac=None, stratum=None):
    if P.g != 2:
        raise WeilError("classify_surface needs g = 2")
    q, p, d = P.q, P.p, P.d
    stratum = stratum or stratify(newton_polygon(P), 2)
    fac = fac or factor(P)

    if stratum is Stratum.SUPERSINGULAR:
        m = supersingular_torsion_order(P)
        # simple supersingular surfaces: irreducible quartic, or the square
        # of a quadratic Weil number that is not an elliptic trace
        if len(fac.factors) == 1:
            h, e, _ = fac.factors[0]
            if (e == 1 and ip.degree(h) == 4) or (
                    e == 2 and ip.degree(h) == 2
                    and not _is_elliptic_quadratic(h, q)):
                fam = supersingular_match(h, q, p, d)
                return _sf(2, 0, m, "S-F:%s:%s" % (fam.zhu_type, fam.normalized_family))
        return _sf(2, 0, m, "S-G:lcm")

    if stratum is Stratum.ORDINARY:
        if fac.is_irreducible:
            hz = howe_zhu_split_degree(P.a(1), P.a(2), q)
            if hz is None:
                return _sf(2, 2, 1, "S-A(a)")
            node = {2: "b", 3: "c", 4: "d", 6: "e"}[hz]
            return _sf(2, 1, hz, "S-A(%s)" % node)
        delta, m, _ = sf_of_product(fac.factors, q, p, d)
        if delta == 2:
            return _sf(2, 2, 1, "S-B")
        return _sf(2, 1, m, "S-C(m=%d)" % m)

    if stratum is Stratum.ALMOST_ORDINARY:
        if fac.is_irreducible:
            return _sf(2, 2, 1, "S-D")
        delta, m, _ = sf_of_product(fac.factors, q, p, d)
        return _sf(2, delta, m, "S-E")

    if stratum is Stratum.P_RANK_ZERO_NON_SS:
        # Formal Weil polynomials with fractional slope denominators > 2 do
        # not come from abelian surfaces; they still carry a well-defined
        # group, classified here so corpus sweeps stay total.
        if P.a(1) == 0 and P.a(3) == 0:
            return _sf(2, 1, 2, "S-NA(even)")
        r = _split_degree(P.coeffs, BASE_CHANGE_RANGE)
        if r is not None:
            return _sf(2, 1, r, "S-NA(split:%d)" % r)
        return _sf(2, 2, 1, "S-NA(maxrank)")

    if stratum is Stratum.OTHER and fac.is_irreducible:
        # p-rank 1 with middle slopes other than 1/2: formal inputs only.
        # A relation lattice of rank 2 would make P supersingular
        return _sf(2, *exterior_relation(P), "S-NA(exterior)")

    raise UnclassifiedNode("surface stratum %s has no node" % stratum)


# ---------------------------------------------------------------------------
# dimension 3


def _simple_threefold_relation(P, error):
    """(delta, m) of an irreducible, non-supersingular threefold from
    `exterior_relation`, once P has no two-term relation.  A two-term
    relation (P gains a factor over some F_(q^r)) means delta = 1, which
    Lambda_3 cannot see; then `error` is raised."""
    r = _split_degree(P.coeffs, BASE_CHANGE_RANGE)
    if r is not None:
        raise error("simple threefold %r gains a factor over F_(q^%d): "
                    "delta = 1 has no node here" % (P.coeffs, r))
    return exterior_relation(P)


def classify_threefold(P, fac=None, stratum=None):
    if P.g != 3:
        raise WeilError("classify_threefold needs g = 3")
    q, p, d = P.q, P.p, P.d
    stratum = stratum or stratify(newton_polygon(P), 3)
    fac = fac or factor(P)

    if stratum is Stratum.SUPERSINGULAR:
        m = supersingular_torsion_order(P)
        # simple supersingular threefolds always have P irreducible
        if fac.is_irreducible:
            fam = supersingular_match(P.coeffs, q, p, d)
            return _sf(3, 0, m, "X-ss-simple:%s:%s" % (fam.zhu_type, fam.normalized_family))
        return _sf(3, 0, m, "X-J:lcm")

    if stratum is Stratum.ORDINARY:
        if fac.is_irreducible:
            if P.a(1) == 0 and P.a(2) == 0:
                if _power_index(P.coeffs, 3) % 3:
                    raise InconsistentInputs("cubic pattern did not split at 3")
                return _sf(3, 1, 3, "X-B(3)")
            if _power_index(P.coeffs, 7) % 3 == 0:
                return _sf(3, 1, 7, "X-B(7)")
            return _sf(3, 3, 1, "X-A")
        delta, m, rule = sf_of_product(fac.factors, q, p, d)
        kinds = sorted(k for k, _ in rule)
        if "surface_abs_simple" in kinds:
            node = "6.3-d"
        elif delta == 3:
            node = "6.3-c"
        elif delta == 2:
            node = "6.3-b(m=%d)" % m
        else:
            node = "6.3-a(m=%d)" % m
        return _sf(3, delta, m, node)

    if stratum is Stratum.ALMOST_ORDINARY:
        if fac.is_irreducible:
            delta, m = _simple_threefold_relation(P, InconsistentInputs)
            if not ((delta == 3 and m == 1)
                    or (delta == 2 and m in SIMPLE_AO_THREEFOLD_M)):
                raise InconsistentInputs(
                    "simple almost ordinary threefold outside Table 6: "
                    "delta=%d m=%d" % (delta, m))
            # decided exactly since the exterior test; the name is kept only
            # because the report digests in perfbench/data/corpus.tsv and
            # tests/test_golden.py pin "X-D:Table6:oracle"
            return _sf(3, delta, m, "X-D:Table6:oracle")
        delta, m, _ = sf_of_product(fac.factors, q, p, d)
        return _sf(3, delta, m, "X-E")

    if stratum is Stratum.K3_TYPE:
        if fac.is_irreducible:
            return _sf(3, 3, 1, "X-F")
        delta, m, rule = sf_of_product(fac.factors, q, p, d)
        kinds = [k for k, _ in rule]
        if "surface_almost_ordinary" in kinds:
            node = "X-G(a)"
        elif sum(1 for k in kinds if k == "ss") >= 2:
            node = "X-G(b)"
        else:
            node = "X-G(c)"
        return _sf(3, delta, m, node)

    if stratum is Stratum.P_RANK_ZERO_NON_SS:
        # always a simple (indeed absolutely simple) threefold: slope 1/3
        # pieces cannot come from lower dimension.  P = h^3 over the base is
        # the e = 3 shape of Xing's theorem, not a product.
        for r in (1, 3, 7):
            if _power_index(P.coeffs, r) % 3 == 0:
                return _sf(3, 1, r, "X-H:xing(m=%d)" % r)
        if not fac.is_irreducible:
            # formally valid inputs that are not Frobenius polynomials of
            # threefolds (fractional-slope factors over square fields)
            delta, m, _ = sf_of_product(fac.factors, q, p, d)
            return _sf(3, delta, m, "X-NA(product)")
        return _sf(3, *_simple_threefold_relation(P, UnclassifiedNode), "X-I")

    if stratum is Stratum.OTHER:
        # only reachable for formal inputs outside the Newton strata of
        # actual abelian threefolds; classified for totality, with the
        # provenance naming the honest source
        if not fac.is_irreducible:
            delta, m, _ = sf_of_product(fac.factors, q, p, d)
            return _sf(3, delta, m, "X-NA(product)")
        return _sf(3, *_simple_threefold_relation(P, UnclassifiedNode),
                   "X-NA(exterior)")

    raise UnclassifiedNode("threefold stratum %s has no node" % stratum)


# ---------------------------------------------------------------------------
# prime dimension g > 3 (partial classification)


def classify_prime_dim(P, precision=DEFAULT_PRECISION, fac=None, stratum=None):
    g = P.g
    if g <= 3 or not _is_prime(g):
        raise WeilError("classify_prime_dim needs prime g > 3")
    fac = fac or factor(P)
    if not fac.is_irreducible:
        raise NotSimple("polynomial is reducible; classify the factors instead")
    if (stratum or stratify(newton_polygon(P), g)) is not Stratum.ORDINARY:
        raise NotOrdinary("prime-dimension classification needs the ordinary stratum")
    if all(P.a(i) == 0 for i in range(1, 2 * g) if i % g):
        if _power_index(P.coeffs, g) % g:
            raise InconsistentInputs("T^g pattern did not split at degree g")
        return _sf(g, 1, g, "ThmD(2)")
    if _is_prime(2 * g + 1) and _power_index(P.coeffs, 2 * g + 1) % g == 0:
        return _sf(g, 1, 2 * g + 1, "ThmD(3)")
    lattice = angle_rank_numeric(P, precision)
    return Partial(g=g, absolutely_simple=True, delta=lattice.delta,
                   certified=False, provenance="ThmD(1):oracle-delta")


# ---------------------------------------------------------------------------
# dispatch and reporting


def classify(P, precision=DEFAULT_PRECISION, fac=None, stratum=None):
    """Serre-Frobenius group (or Partial) of P.  `fac` is factor(P) and
    `stratum` the Newton stratum of P when the caller already has them;
    without them the node that needs them computes them.  `precision`
    serves only the oracle of the partial prime-dimension node."""
    if P.g == 1:
        return classify_elliptic(P)
    if P.g == 2:
        return classify_surface(P, fac, stratum)
    if P.g == 3:
        return classify_threefold(P, fac, stratum)
    if _is_prime(P.g):
        return classify_prime_dim(P, precision, fac, stratum)
    raise WeilError("no classification implemented for g = %d" % P.g)


def _factor_dimension(h, q, cls):
    """Dimension of the simple variety whose minimal polynomial is h.

    Rational and non-elliptic quadratic supersingular Weil numbers carry
    Honda-Tate index 2 (their simple objects are the elliptic curve with
    P = h^2 and the supersingular surface respectively).
    """
    deg = ip.degree(h)
    if deg == 1:
        return 1
    if deg == 2 and cls == "ss" and not _is_elliptic_quadratic(h, q):
        return 2
    return deg // 2 if deg % 2 == 0 else deg


def geometric_decomposition(fac):
    """Factors of fac = factor(P) and the least r over which P gains one:
    1 for a reducible P, 0 when no r up to BASE_CHANGE_RANGE does."""
    summaries = tuple((h, e, _factor_dimension(h, fac.q, cls), cls)
                      for h, e, cls in fac.factors)
    if fac.is_irreducible:
        # no limit below BASE_CHANGE_RANGE: with delta = 0, alpha^m = q^(m/2)
        # makes the power index 2g at r = m, so the search stops by r = m, and
        # h_{7,1} (m = 28) stops at r = 7, h_{3,3} (m = 36) at r = 3
        split = _split_degree(fac.factors[0][0], BASE_CHANGE_RANGE) or 0
    else:
        split = 1
    return GeometricDecomposition(split_degree=split, factor_summaries=summaries)


def report(P, precision=DEFAULT_PRECISION):
    """Full JSON-ready classification report for one polynomial."""
    # one factorization and one Newton polygon serve classify and the
    # record; a g that classify rejects gets that error, not one from factor
    fac = factor(P) if P.g <= 3 or _is_prime(P.g) else None
    stratum = stratify(newton_polygon(P), P.g)
    sf = classify(P, precision, fac, stratum)
    out = {
        "schema_version": 1,
        "label": P.label,
        "g": P.g,
        "q": P.q,
        "stratum": stratum.value,
    }
    out.update(sf.to_json())
    if isinstance(sf, Partial):
        out["group"] = None
    dec = geometric_decomposition(fac)
    out["split_degree"] = dec.split_degree
    out["factors"] = dec.to_json()["factors"]
    return out
