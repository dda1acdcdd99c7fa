"""Structural classification of Serre-Frobenius groups for g <= 3 (and the
partial prime-dimension case).

For g <= 3 the classifier never consults the numeric angle oracle: every
node is decided with exact integer arithmetic.  That covers Newton strata,
Honda-Tate factor shapes, coefficient tests for the splitting of simple
ordinary surfaces, base-change tests for splitting and geometric isogeny
(`polyarith.cyclotomic_orders`), exact torsion orders of supersingular
pieces, and, for an irreducible P with no other exact test (simple
almost-ordinary threefolds and the formal nodes), the exterior-power
relation test `polyarith.exterior_relation`.  That independence is what
the structural-versus-numeric corpus cross-check
certifies.  Only the partial prime-dimension classification takes delta
from the oracle.
"""

from __future__ import annotations

from math import gcd, lcm

from . import _intpoly as ip
from .anglerank import angle_rank_numeric
from .newton import Stratum, newton_polygon, newton_polygon_of_factor, stratify
from .polyarith import (_scaled_cyclotomic, cyclotomic_orders,
                        exterior_relation, factor, supersingular_match,
                        supersingular_torsion_order)
from .weilpoly import WeilError, _is_prime, factor_prime_power

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
    """No node of the decision tree covers this formal input: an input
    error (exit 1), not a fault of the classifier."""


class InconsistentInputs(WeilError):
    pass


class NotOrdinary(WeilError):
    pass


class NotSimple(WeilError):
    pass


class SerreFrobeniusGroup(ip.Record):
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


class Partial(ip.Record):
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


class GeometricDecomposition(ip.Record):
    split_degree: int               # 0 = irreducible over every extension, proven
    factor_summaries: tuple         # ((coeffs, e, dim, newton_class), ...)

    def to_json(self):
        return {"split_degree": self.split_degree,
                "factors": [{"h": list(h), "e": e, "dim": dim, "newton": cls}
                            for h, e, dim, cls in self.factor_summaries]}


def _sf(g, delta, m, provenance):
    return SerreFrobeniusGroup(g=g, delta=delta, m=m, provenance=provenance)


# ---------------------------------------------------------------------------
# dimension 1


def _waterhouse(t, q, p, d):
    """The group of an elliptic curve of trace t over F_q, q = p^d, from
    the trace table, or InvalidTrace when no such curve exists (Waterhouse)."""
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
    """True when the monic quadratic h is the Frobenius polynomial of an
    actual elliptic curve over F_q (functional equation + Waterhouse trace)."""
    if ip.degree(h) != 2 or h[2] != q:
        return False
    try:
        _waterhouse(-h[1], q, *factor_prime_power(q))
        return True
    except InvalidTrace:
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


def _sym2(h):
    """Sym^2 h: roots alpha_i alpha_j (i <= j), power sums (s_r^2 + s_2r) / 2."""
    n = ip.degree(h) * (ip.degree(h) + 1) // 2
    s = ip.power_sums(h, 2 * n)
    return ip.poly_from_power_sums([(s[r - 1] ** 2 + s[2 * r - 1]) // 2
                                    for r in range(1, n + 1)], n)


def _split_degree(h, q):
    """Least r over which the irreducible q-Weil polynomial h gains a factor,
    or None (a proof) when it gains none: h^(r) is the [Q(alpha) :
    Q(alpha^r)]-th power of an irreducible, so it factors exactly when two
    roots alpha != beta have zeta = alpha/beta with zeta^r = 1, that is (as
    q/beta is a root) when Sym^2 h has the root alpha (q/beta) = q zeta: r
    is the least order above 1 (the g of order 1 come off first)."""
    return next((r for r in cyclotomic_orders(_sym2(h), q) if r > 1), None)


def _split_of(P, split):
    """Split degree of the irreducible P (0 = none): `split`, or computed."""
    return (_split_degree(P.coeffs, P.q) or 0) if split is None else split


def _meeting_orders(h, f, q):
    """Orders of zeta = b/a or ab/q over the roots b of f (a, q/a those of h;
    one root q zeta of h x f each) if every b has one, else None."""
    orders = cyclotomic_orders(ip.composed_product(h, f), q)
    return orders if sum(map(ip.euler_phi, orders)) == ip.degree(f) else None


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
    quartic_free = 0      # free rank of quartics outside the classes
    quartic_split = []    # (h4, split_degree) for geometrically split quartics
    m_parts = []          # the torsion orders whose lcm is m
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
        elif deg == 4 and (stratify(newton_polygon_of_factor(h, p, d), 2)
                           is Stratum.ALMOST_ORDINARY):
            quartic_free += 2
            rule.append(("surface_almost_ordinary", 0))
        elif deg == 4:
            # fractional-slope quartics from formally valid non-realizable
            # inputs: detect the one possible relation pattern directly
            r = _split_degree(h, q)
            if r is None:
                quartic_free += 2
                rule.append(("quartic_free", 0))
            else:
                quartic_free += 1
                m_parts.append(r)
                rule.append(("quartic_twist", r))
        else:
            raise UnclassifiedNode(
                "no product rule for factor %r of class %s" % (h, cls))

    for h in ss_parts:
        t = supersingular_torsion_order(h, q)
        m_parts.append(t)
        rule.append(("ss", t))

    # geometric isogeny classes: a quadratic joins the first class whose
    # opener (roots a, q/a) all its roots b meet, b^r = a^r or (q/a)^r, or
    # opens one; a split quartic, placed after every quadratic, joins the
    # first such class or counts alone.  m is the lcm of the members' orders
    classes = []   # [opener, m]
    for h, hz in [(h, None) for h in quad_parts] + quartic_split:
        for cl in classes:
            orders = _meeting_orders(cl[0], h, q)
            if orders is not None:
                cl[1] = lcm(cl[1], *orders)
                break
        else:
            if hz is None:
                classes.append([h, 1])
            else:
                quartic_free += 1
                m_parts.append(hz)
                rule.append(("surface_split_alone", hz))
    for _, m in classes:
        m_parts.append(m)
        rule.append(("ordinary_class", m))
    return quartic_free + len(classes), lcm(*m_parts), tuple(rule)


# ---------------------------------------------------------------------------
# supersingular and reducible inputs of dimension 2 and 3


def _supersingular(P, fac):
    """A simple supersingular P (irreducible, or for g = 2 the square of a
    quadratic Weil number that is not an elliptic trace) takes m from its
    Zhu family; any other supersingular P the lcm of its torsion orders."""
    h, e, _ = fac.factors[0]
    if len(fac.factors) == 1 and (e == 1 or P.g == 2 and e == 2
                                  and not _is_elliptic_quadratic(h, P.q)):
        fam = supersingular_match(h, P.q)
        node = "S-F" if P.g == 2 else "X-ss-simple"
        return _sf(P.g, 0, fam.m, "%s:%s:%s" % (node, fam.zhu_type, fam.normalized_family))
    return _sf(P.g, 0, supersingular_torsion_order(P.coeffs, P.q),
               "S-G:lcm" if P.g == 2 else "X-J:lcm")


def _cube_degree(fac, q):
    """Least r in (1, 3, 7) with the reducible P^(r) a cube (Xing's shapes),
    or 0: P^(r) is a cube when every other factor meets one h of least
    degree at orders dividing r (a supersingular h meets none)."""
    if all(e % 3 == 0 for _, e, _ in fac.factors):
        return 1
    h = min([f for f, _, _ in fac.factors], key=ip.degree)
    orders = [_meeting_orders(h, f, q) for f, _, _ in fac.factors if f != h]
    if None in orders:
        return 0
    return next((r for r in (3, 7) if r % lcm(*sum(orders, [])) == 0), 0)


def _product(P, fac, stratum):
    """A reducible, non-supersingular P: the product rule over the
    geometric isogeny classes of its factors, named by the stratum."""
    g = P.g
    if g == 2 and stratum is Stratum.OTHER:
        raise UnclassifiedNode("surface stratum %s has no node" % stratum)
    if g == 3 and stratum is Stratum.P_RANK_ZERO_NON_SS:
        # P = h^3 over the base is Xing's e = 3 shape, not a product
        r = _cube_degree(fac, P.q)
        if r:
            return _sf(3, 1, r, "X-H:xing(m=%d)" % r)
    delta, m, rule = sf_of_product(fac.factors, P.q, P.p, P.d)
    kinds = [k for k, _ in rule]
    if stratum is Stratum.ORDINARY:
        if g == 2:
            # two geometric classes of m = 1 each, or one
            node = "S-B" if delta == 2 else "S-C(m=%d)" % m
        elif "surface_abs_simple" in kinds:
            node = "6.3-d"
        elif delta == 3:
            node = "6.3-c"
        elif delta == 2:
            node = "6.3-b(m=%d)" % m
        else:
            node = "6.3-a(m=%d)" % m
    elif stratum is Stratum.ALMOST_ORDINARY:
        node = "S-E" if g == 2 else "X-E"
    elif stratum is Stratum.K3_TYPE:
        if "surface_almost_ordinary" in kinds:
            node = "X-G(a)"
        elif kinds.count("ss") >= 2:
            node = "X-G(b)"
        else:
            node = "X-G(c)"
    else:
        # p-rank 0 or OTHER: formally valid inputs that are not Frobenius
        # polynomials of varieties (fractional-slope factors over square
        # fields), classified so corpus sweeps stay total
        node = "S-NA(product)" if g == 2 else "X-NA(product)"
    return _sf(g, delta, m, node)


# ---------------------------------------------------------------------------
# simple, non-supersingular inputs of dimension 2 and 3


def _surface(P, stratum, split):
    if stratum is Stratum.ORDINARY:
        hz = howe_zhu_split_degree(P.a(1), P.a(2), P.q)
        if hz is None:
            return _sf(2, 2, 1, "S-A(a)")
        node = {2: "b", 3: "c", 4: "d", 6: "e"}[hz]
        return _sf(2, 1, hz, "S-A(%s)" % node)
    if stratum is Stratum.ALMOST_ORDINARY:
        return _sf(2, 2, 1, "S-D")
    if stratum is Stratum.P_RANK_ZERO_NON_SS:
        # Formal Weil polynomials with fractional slope denominators > 2 do
        # not come from abelian surfaces; they still carry a well-defined
        # group, classified here so corpus sweeps stay total.
        if P.a(1) == 0 and P.a(3) == 0:
            return _sf(2, 1, 2, "S-NA(even)")
        r = _split_of(P, split)
        if r:
            return _sf(2, 1, r, "S-NA(split:%d)" % r)
        return _sf(2, 2, 1, "S-NA(maxrank)")
    # stratum OTHER: p-rank 1 with middle slopes other than 1/2, formal
    # inputs only.  A relation lattice of rank 2 would make P supersingular
    return _sf(2, *exterior_relation(P), "S-NA(exterior)")


def _simple_threefold_relation(P, error, split):
    """(delta, m) of an irreducible, non-supersingular threefold from
    `exterior_relation`, once P has no two-term relation.  A two-term
    relation (P gains a factor over some F_(q^r)) means delta = 1, which
    Lambda_3 cannot see; then `error` is raised."""
    r = _split_of(P, split)
    if r:
        raise error("simple threefold %r gains a factor over F_(q^%d): "
                    "delta = 1 has no node here" % (P.coeffs, r))
    return exterior_relation(P)


def _threefold(P, stratum, split):
    if stratum is Stratum.ORDINARY:
        # absolutely simple, or split over F_(q^3) or F_(q^7)
        r = _split_of(P, split)
        if not r:
            return _sf(3, 3, 1, "X-A")
        if r not in (3, 7):
            raise InconsistentInputs("simple ordinary threefold splits at %d" % r)
        return _sf(3, 1, r, "X-B(%d)" % r)
    if stratum is Stratum.ALMOST_ORDINARY:
        delta, m = _simple_threefold_relation(P, InconsistentInputs, split)
        if not ((delta == 3 and m == 1)
                or (delta == 2 and m in SIMPLE_AO_THREEFOLD_M)):
            raise InconsistentInputs(
                "simple almost ordinary threefold outside Table 6: "
                "delta=%d m=%d" % (delta, m))
        # decided exactly since the exterior test; the name is kept only
        # because the report digests in perfbench/data/corpus.tsv and
        # tests/test_golden.py pin "X-D:Table6:oracle"
        return _sf(3, delta, m, "X-D:Table6:oracle")
    if stratum is Stratum.K3_TYPE:
        return _sf(3, 3, 1, "X-F")
    if stratum is Stratum.P_RANK_ZERO_NON_SS:
        # over F_(q^r), P^(r) = h^k with k | 6, and k = 2 or 6 would leave a
        # factor of odd degree, with a real root of slope 1/2: P^(r) is a
        # cube (Xing's shape) exactly when r is the split degree, 3 or 7
        r = _split_of(P, split)
        if r in (3, 7):
            return _sf(3, 1, r, "X-H:xing(m=%d)" % r)
        return _sf(3, *_simple_threefold_relation(P, UnclassifiedNode, r), "X-I")
    # stratum OTHER: formal inputs outside the Newton strata of abelian
    # threefolds, classified for totality under an honest provenance
    return _sf(3, *_simple_threefold_relation(P, UnclassifiedNode, split),
               "X-NA(exterior)")


# ---------------------------------------------------------------------------
# prime dimension g > 3 (partial classification)


def _has_ratio_of_order(P, r):
    """Whether the ordinary, irreducible P of prime dimension g is a g-th
    power over F_(q^r), r prime: P^(r) = h^k, k | 2g, and k = 2 or 2g leaves
    a factor of odd degree, with a real root +-q^(r/2), not ordinary: k = g
    exactly when a ratio of two roots has order r (see `_split_degree`)."""
    return ip.poly_div_if_exact(_sym2(P.coeffs),
                                _scaled_cyclotomic(r, P.q)) is not None


def _prime_dim(P, fac, stratum):
    g = P.g
    if not fac.is_irreducible:
        raise NotSimple("polynomial is reducible; classify the factors instead")
    if stratum is not Stratum.ORDINARY:
        raise NotOrdinary("prime-dimension classification needs the ordinary stratum")
    if all(P.a(i) == 0 for i in range(1, 2 * g) if i % g):
        if not _has_ratio_of_order(P, g):
            raise InconsistentInputs("T^g pattern did not split at degree g")
        return _sf(g, 1, g, "ThmD(2)")
    if _is_prime(2 * g + 1) and _has_ratio_of_order(P, 2 * g + 1):
        return _sf(g, 1, 2 * g + 1, "ThmD(3)")
    lattice = angle_rank_numeric(P)
    return Partial(g=g, absolutely_simple=True, delta=lattice.delta,
                   certified=False, provenance="ThmD(1):oracle-delta")


# ---------------------------------------------------------------------------
# dispatch and reporting


def classify(P, fac=None, stratum=None, split=None):
    """Serre-Frobenius group (or Partial) of P: Waterhouse's trace table for
    g = 1, Theorem D for prime g > 3, and for g = 2 and 3 one node per shape
    (supersingular, other reducible, or the decision tree of a simple P).
    `fac` is factor(P), `stratum` its Newton stratum and `split` its split
    degree as in geometric_decomposition when the caller already has them;
    a missing factorization and stratum are computed here, once, and a
    missing split degree by the node that reads it (`_split_of`)."""
    g = P.g
    if g == 1:
        return _waterhouse(P.trace, P.q, P.p, P.d)
    if g > 3 and not _is_prime(g):
        raise WeilError("no classification implemented for g = %d" % g)
    fac = fac or factor(P)
    stratum = stratum or stratify(newton_polygon(P), g)
    if g > 3:
        return _prime_dim(P, fac, stratum)
    if stratum is Stratum.SUPERSINGULAR:
        return _supersingular(P, fac)
    if not fac.is_irreducible:
        return _product(P, fac, stratum)
    if g == 2:
        return _surface(P, stratum, split)
    return _threefold(P, stratum, split)


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
    1 for a reducible P, 0 when no extension does (a proof, `_split_degree`)."""
    summaries = tuple((h, e, _factor_dimension(h, fac.q, cls), cls)
                      for h, e, cls in fac.factors)
    if fac.is_irreducible:
        split = _split_degree(fac.factors[0][0], fac.q) or 0
    else:
        split = 1
    return GeometricDecomposition(split_degree=split, factor_summaries=summaries)


def report(P):
    """Full JSON-ready classification report for one polynomial."""
    # one factorization, Newton polygon and split degree serve classify and
    # the record; a g that classify rejects gets that error, not factor's
    fac = factor(P) if P.g <= 3 or _is_prime(P.g) else None
    stratum = stratify(newton_polygon(P), P.g)
    dec = geometric_decomposition(fac) if fac is not None else None
    sf = classify(P, fac, stratum, dec and dec.split_degree)
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
    out["split_degree"] = dec.split_degree
    out["factors"] = dec.to_json()["factors"]
    return out
