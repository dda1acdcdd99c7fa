"""Weil polynomials: data model, validation, LMFDB labels, root systems.

A q-Weil polynomial of an abelian variety of dimension g is monic of degree
2g with integer coefficients ``a_0=1, a_1, ..., a_{2g}`` (descending powers),
satisfies the functional equation ``a_{2g-i} = q^{g-i} a_i`` and has all
complex roots of absolute value sqrt(q).  Validation here is exact: the
functional equation is an integer identity, and the root-modulus condition is
decided by Sturm chains on the associated real polynomial (the characteristic
polynomial of Frobenius + Verschiebung), with no floating point involved.
"""

from __future__ import annotations

import importlib.util
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, log2

from . import _intpoly as ip


def _lazy(name):
    """Module `name`, executed on the first access to one of its attributes.

    An imported module is returned as it is.  Otherwise the module is
    registered in sys.modules before it runs, so a later ``import name``
    anywhere gets this same object (and runs it then).
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


DEFAULT_PRECISION = 256
GUARD_BITS = 32          # roots(P, precision) works with precision + 32 fractional bits


class WeilError(ValueError):
    """Base class for every input/validation error in the package."""


class NotMonic(WeilError):
    pass


class FunctionalEquationViolated(WeilError):
    pass


class RootOffCircle(WeilError):
    pass


class MalformedLabel(WeilError):
    pass


class NotPrimePower(WeilError):
    pass


class NotIntegral(WeilError):
    pass


class NonConvergence(RuntimeError):
    """Root refinement did not reach the requested residual."""


# Miller-Rabin on the primes to 41 is proven deterministic below _MR_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin for n < _MR_LIMIT."""
    if n < 2:
        return False
    if any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return not any(pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
                   for b in _MR_BASES)


def _integers(values, error, name):
    """values as a tuple of ints, or `error` naming the first value that is
    not an integer (values itself when no one value can be named)."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = values
        try:
            for bad in values:
                operator.index(bad)
            bad = values
        except TypeError:
            pass
        raise error("expected integer %s, got %r" % (name, bad)) from None


@lru_cache(maxsize=256, typed=True)  # the labels of a batch share a few q
def factor_prime_power(q):
    """Return (p, d) with q = p^d, p prime.  A q divisible by one of
    _MR_BASES is a prime power only as a power of that prime; otherwise p
    is the exact d-th root of q for the largest such d, and q is a prime
    power iff p is prime.  A q that is not an integer is NotPrimePower too."""
    (q,) = _integers((q,), NotPrimePower, "q")
    if q < 2:
        raise NotPrimePower("q = %s is not a prime power" % q)
    for p in _MR_BASES:
        if q % p == 0:
            d, rest = 0, q
            while rest % p == 0:
                rest //= p
                d += 1
            if rest != 1:
                raise NotPrimePower("q = %s is not a prime power" % q)
            return p, d
    for d in range(q.bit_length() - 1, 0, -1):
        # Newton's integer d-th root from a float start just above it (a far start costs ~d steps)
        e = log2(q) / d
        p = int(2 ** e * 1.000001) + 1 if e < 1000 else 1 << -(-q.bit_length() // d)
        while (r := ((d - 1) * p + q // p ** (d - 1)) // d) < p:
            p = r
        if p ** d == q:
            break
    if p >= _MR_LIMIT:
        raise WeilError("q = %s: cannot certify that %s is prime (only below %s)"
                        % (q, p, _MR_LIMIT))
    if not _is_prime(p):
        raise NotPrimePower("q = %s is not a prime power" % q)
    return p, d


class WeilPolynomial(ip.Record):
    """A validated q-Weil polynomial P(T) = sum a_i T^(2g-i).

    ``h`` is its real Weil transform H, computed once by `validate`; it is
    derived from ``coeffs`` and takes no part in equality, hash or repr.
    """

    _hidden = ("h",)
    g: int
    q: int
    p: int
    d: int
    coeffs: tuple  # (a_0=1, a_1, ..., a_{2g})
    h: tuple       # (1, c_1, ..., c_g)

    def a(self, i):
        return self.coeffs[i]

    @property
    def trace(self):
        """Sum of the roots, -a_1."""
        return -self.coeffs[1]

    @property
    def middle(self):
        """(a_1, ..., a_g); the rest is forced by the functional equation."""
        return self.coeffs[1:self.g + 1]

    @property
    def label(self):
        return format_label(self)

    def to_json(self):
        return {"g": self.g, "q": self.q, "p": self.p, "d": self.d,
                "coeffs": list(self.coeffs)}


def weil_pullback(h, q):
    """T^k h(T + q/T) for h of degree k, i.e. sum_i h_i T^i (T^2 + q)^(k-i).

    The inverse of real_weil_transform: the roots of the result are the
    alpha with alpha + q/alpha a root of h.
    """
    # Horner in T^2 + q: out <- out (T^2 + q) + h_i T^i, in place.  Before
    # step i, out holds a polynomial of degree 2i - 2, so T^i sits at index i
    out = [h[0]] + [0] * (2 * len(h) - 2)
    for i in range(1, len(h)):
        for j in range(2 * i, 1, -1):
            out[j] += q * out[j - 2]
        out[i] += h[i]
    return ip.normalize(out)


def real_weil_transform(coeffs, q, g):
    """H with T^g * H(T + q/T) = P; exists iff P satisfies the functional eq.

    H is monic of degree g with integer coefficients; its roots are the
    numbers alpha + q/alpha, one per conjugate pair of roots of P.
    """
    # T^i (T^2+q)^(g-i) contributes comb(g-i, j) q^j to the coefficient of
    # T^(2g-i-2j); solve triangularly for the coefficients of H
    c = [1]
    for k in range(1, g + 1):
        x = coeffs[k]
        for j in range(1, k // 2 + 1):
            x -= c[k - 2 * j] * comb(g - k + 2 * j, j) * q ** j
        c.append(x)
    # the pullback is P exactly iff P satisfies the functional equation,
    # and it certifies the solve
    if weil_pullback(c, q) != tuple(coeffs):
        for i in range(g + 1):
            if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
                raise FunctionalEquationViolated(
                    "a_%d = %s but q^%d * a_%d = %s"
                    % (2 * g - i, coeffs[2 * g - i], g - i, i, q ** (g - i) * coeffs[i]))
        raise ip.InvariantError("the pullback of H is not P")
    return tuple(c)


def _roots_on_circle_exact(h, q):
    """Exact test that all roots of P have |alpha| = sqrt(q), from its real
    Weil transform h.

    Equivalent to: h real-rooted with every root y in [-2 sqrt(q), 2 sqrt(q)],
    i.e. every root of E(z) = prod (z - y_i^2) lies in [0, 4q] (a root y^2 in
    [0, 4q] makes y real with |y| <= 2 sqrt(q)).  Euclid's sequence on (E, E')
    counts E's distinct roots in (0, 4q], unless E has a repeated root at 0 or
    4q: then the chain of E / gcd(E, E'), the gcd that ends the same
    sequence, counts.  A root at 0 is E(0) = 0.
    """
    # E(y^2) = (-1)^g H(y) H(-y) keeps the terms h_i h_j y^(2g-i-j) of
    # i + j even, with the sign (-1)^i: a square for i = j, twice the
    # product for i < j
    g = len(h) - 1
    e = [-x * x if i & 1 else x * x for i, x in enumerate(h)]
    for i in range(g - 1):
        x = -2 * h[i] if i & 1 else 2 * h[i]
        for j in range(i + 2, g + 1, 2):
            e[(i + j) >> 1] += x * h[j]
    e = tuple(e)
    seq = ip._euclid(e, ip.poly_derivative(e))
    try:
        count = ip.chain_count(seq, 0, 4 * q)
    except ValueError:  # gcd(E, E') vanishes at 0 or 4q
        part = ip.poly_div_if_exact(e, ip._monicize(ip.primitive(seq[-1])))
        if part is None:
            raise ip.InvariantError("gcd(E, E') does not divide E")
        count = ip.chain_count(ip._sturm_chain(part), 0, 4 * q)
    return count + (e[-1] == 0) == g - ip.degree(seq[-1])


def validate(coeffs, q):
    """Build a WeilPolynomial from raw coefficients, or raise a WeilError."""
    coeffs = _integers(coeffs, NotIntegral, "coefficients")
    if len(coeffs) % 2 == 0 or len(coeffs) < 3:
        raise WeilError("need exactly 2g+1 coefficients, got %d" % len(coeffs))
    if coeffs[0] != 1:
        raise NotMonic("leading coefficient must be 1, got %s" % coeffs[0])
    g = (len(coeffs) - 1) // 2
    (q,) = _integers((q,), NotPrimePower, "q")
    p, d = factor_prime_power(q)
    h = real_weil_transform(coeffs, q, g)
    if not _roots_on_circle_exact(h, q):
        raise RootOffCircle("some root does not have absolute value sqrt(%d)" % q)
    return WeilPolynomial(g=g, q=q, p=p, d=d, coeffs=coeffs, h=h)


def from_middle(g, q, middle):
    """Validate the polynomial with a_1..a_g = middle, the rest mirrored."""
    (g,) = _integers((g,), WeilError, "dimension")
    if g < 1:
        raise WeilError("dimension must be positive, got %d" % g)
    middle = _integers(middle, NotIntegral, "coefficients")
    (q,) = _integers((q,), NotPrimePower, "q")
    if len(middle) != g:
        raise WeilError("expected %d middle coefficients, got %d" % (g, len(middle)))
    return validate(_mirror(g, q, middle), q)


def _mirror(g, q, middle):
    """a_0..a_2g from the integers a_1..a_g = middle: 1, the middle, and
    a_(2g-i) = q^(g-i) a_i."""
    coeffs = [1, *middle]
    coeffs += [q ** (g - i) * coeffs[i] for i in range(g - 1, -1, -1)]
    return coeffs


# ---------------------------------------------------------------------------
# LMFDB labels: g.q.c1_c2_..._cg with base-26 signed tokens


def _decode_token(tok):
    if not (tok.isascii() and tok.isalpha() and tok.islower()):
        raise MalformedLabel("coefficient token %r is not lower-case a-z" % tok)
    if tok == "a":
        return 0
    if tok[0] == "a":
        mag = tok[1:]
        if mag[0] == "a":
            raise MalformedLabel("token %r has a non-canonical magnitude" % tok)
        return -_decode_token(mag)
    val = 0
    for ch in tok:
        val = val * 26 + (ord(ch) - ord("a"))
    return val


def _encode_token(n):
    if n == 0:
        return "a"
    neg = n < 0
    n = abs(n)
    digits = ""
    while n:
        digits = chr(ord("a") + n % 26) + digits
        n //= 26
    return "a" + digits if neg else digits


def _is_decimal(field):
    """Whether field is a canonical ASCII decimal: digits 0-9, no sign,
    separator or leading zero, as format_label writes it."""
    return (field.isascii() and field.isdigit()
            and (field == "0" or field[0] != "0"))


def parse_label(label):
    """Parse an LMFDB isogeny-class label into a validated WeilPolynomial."""
    parts = label.strip().split(".")
    if len(parts) != 3 or not (_is_decimal(parts[0]) and _is_decimal(parts[1])):
        raise MalformedLabel("label must have the form g.q.iso, got %r" % label)
    try:
        g, q = int(parts[0]), int(parts[1])
    except ValueError:   # past int()'s digit limit
        raise MalformedLabel("label must have the form g.q.iso, got %r" % label)
    if g < 1:
        raise MalformedLabel("dimension must be positive in %r" % label)
    toks = parts[2].split("_")
    if len(toks) != g:
        raise MalformedLabel("expected %d coefficient tokens in %r" % (g, label))
    # g, q and the decoded tokens are ints: from_middle's checks would
    # repeat the label's
    return validate(_mirror(g, q, [_decode_token(t) for t in toks]), q)


def format_label(P):
    """Inverse of parse_label; bit-exact round trip."""
    toks = "_".join(_encode_token(a) for a in P.middle)
    return "%d.%d.%s" % (P.g, P.q, toks)


# ---------------------------------------------------------------------------
# fixed point: the integer X stands for X / 2^bits


@lru_cache(maxsize=8)
def _pi(bits):
    """2^bits pi within one unit, from Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    b = bits + 20

    def atan_inv(n):   # 2^b atan(1/n), within two units per term
        total, power, j = 0, (1 << b) // n, 0
        while power:
            total += -(power // (2 * j + 1)) if j & 1 else power // (2 * j + 1)
            power //= n * n
            j += 1
        return total
    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> 20


def _arg(x, s, bits):
    """2^bits atan2(s, x) in [0, 2^bits pi] for integers s >= 0 and x, not
    both 0, within one unit.

    For x >= 0, k = bits.bit_length() halvings (x, s) -> (x + |(x, s)|, s)
    take the angle below 2^-k, where the Taylor series of atan(s / x) needs
    about bits / 2k terms; the k + 12 guard bits of the working scale f
    absorb the factor 2^k on its rounding errors.
    """
    if x < 0:
        return _pi(bits) - _arg(-x, s, bits)
    k = bits.bit_length()
    f = bits + k + 12
    shift = max(0, f + 1 - max(x, s).bit_length())   # |(x, s)| >= 2^f
    x, s = x << shift, s << shift
    for _ in range(k):
        x += isqrt(x * x + s * s)
    t = (s << f) // x
    t2 = t * t >> f
    total, power, j = 0, t, 0
    while power:
        total += -(power // (2 * j + 1)) if j & 1 else power // (2 * j + 1)
        power = power * t2 >> f
        j += 1
    return ((total << k) + (1 << (f - bits - 1))) >> (f - bits)


def _cis(phi, bits):
    """(2^bits cos(phi / 2^bits), 2^bits sin(phi / 2^bits)) for phi >= 0,
    within a few units: the Taylor series at phi / 2^k, k = bits.bit_length(),
    then k double-angle steps, which double the error each; the working
    scale f carries k + 12 guard bits."""
    k = bits.bit_length()
    f = bits + k + 12
    x = (phi << (f - bits)) >> k
    c = s = j = 0
    term = 1 << f                    # x^j / j!
    while term:
        if j & 1:
            s += -term if j & 2 else term
        else:
            c += -term if j & 2 else term
        j += 1
        term = term * x // (j << f)
    for _ in range(k):
        c, s = (c * c - s * s) >> f, (c * s) >> (f - 1)
    return c >> (f - bits), s >> (f - bits)


# ---------------------------------------------------------------------------
# certified roots with the non-decreasing angle convention


class RootSystem(ip.Record):
    """The angles of the roots of P, paired and ordered, from the fixed
    point computation at ``precision`` + GUARD_BITS fractional bits.

    ``angles[j]`` for j < g is theta_j in [0, 1/2], non-decreasing, with
    sqrt(q) exp(2 pi i theta_j) a root of P; ``angles[g+j]`` is the angle
    1 - theta_j (0 for theta_j = 0) of its complex conjugate q / root.  Each
    is an exact dyadic Fraction within 2^-(precision + GUARD_BITS) of the
    true angle; 0 and 1/2, the angles of the real roots +-sqrt(q), are exact.
    """

    g: int
    q: int
    precision: int
    angles: tuple     # 2g Fractions in [0, 1)

    @property
    def thetas(self):
        """The g fundamental angles theta_1 <= ... <= theta_g."""
        return self.angles[:self.g]


def real_roots_bound(q):
    """An integer bound on |y| over the roots y of H: 2 sqrt(q) < isqrt(4q) + 1."""
    return isqrt(4 * q) + 1


def _angles_of_part(part, q, bits):
    """Angles theta in [0, 1/2] of the roots y = 2 sqrt(q) cos(2 pi theta) of
    one squarefree factor of H, as Fractions with denominator 2^bits.

    The edge roots y = +-2 sqrt(q) (theta = 0, 1/2) are the roots of
    gcd(part, y^2 - 4q) and are exact.  The resultant of the rest with
    y^2 - 4q is a nonzero integer, so each of its n roots has
    4q - y^2 >= (4q)^(1-n): sqrt(4q - y^2) = 2 sqrt(q) sin(2 pi theta) is at
    least 2^-e, e = ((n - 1) bitlen(4q) + 1) // 2.  Solved within 2 units at
    bits + e fractional bits, y leaves 2 pi theta within 2^(1 - bits) as the
    angle of (y, sqrt(4q - y^2)).
    """
    edge = ip.poly_gcd(part, (1, 0, -4 * q))
    inner = ip.poly_div_if_exact(part, edge)
    thetas = []
    if ip.degree(edge) == 2:
        thetas = [Fraction(0), Fraction(1, 2)]
    elif ip.degree(edge) == 1:
        thetas = [Fraction(0) if edge[1] < 0 else Fraction(1, 2)]
    if ip.degree(inner) == 0:
        return thetas
    n = ip.degree(inner)
    s = bits + ((n - 1) * (4 * q).bit_length() + 1) // 2
    four_q, f = 4 * q << 2 * s, bits + 8
    pi = _pi(f)
    for y in ip.real_roots(inner, real_roots_bound(q), s):
        phi = _arg(y, isqrt(max(four_q - y * y, 0)), f)
        # theta = phi / 2 pi, rounded to the nearest 2^-bits
        thetas.append(Fraction(((phi << bits + 1) + 2 * pi) // (4 * pi), 1 << bits))
    return thetas


def _residual_exceeds(P, thetas, precision):
    """Whether |P(root)| >= 2^(-precision/2) q^g for one of the roots
    sqrt(q) exp(2 pi i theta) rebuilt from the angles, in Gaussian fixed
    point at precision + GUARD_BITS fractional bits."""
    f = precision + GUARD_BITS
    pi, sqrtq = _pi(f), isqrt(P.q << 2 * f)
    tol = P.q ** P.g << (f - precision // 2)
    for t in thetas:
        c, s = _cis(2 * pi * t.numerator // t.denominator, f)
        ar, ai = sqrtq * c >> f, sqrtq * s >> f
        zr, zi = 0, 0
        for a in P.coeffs:
            zr, zi = ((zr * ar - zi * ai) >> f) + (a << f), (zr * ai + zi * ar) >> f
        if zr * zr + zi * zi >= tol * tol:
            return True
    return False


def roots(P, precision=DEFAULT_PRECISION):
    """RootSystem of P at the requested precision (bits).

    The angles come from the degree-g real Weil transform H, whose roots are
    y_j = 2 sqrt(q) cos(2 pi theta_j), one per conjugate pair of roots of P
    (Kedlaya's real-root reduction).  H is split into squarefree parts
    exactly; a root of a part of multiplicity e gives its angle e times.
    Each root of a part is certified by an exact sign change (see
    `_intpoly.real_roots`), and its angle is a fixed-point arctangent.
    Deterministic for fixed (P, precision); raises NonConvergence when the
    residual of P at a root rebuilt from its angle exceeds
    2^(-precision/2) * q^g.
    """
    if not isinstance(precision, int):   # a numpy integer, say, or an error
        (precision,) = _integers((precision,), WeilError, "precision")
    if precision < 64:
        raise WeilError("precision must be at least 64 bits")
    g, q = P.g, P.q
    thetas = sorted(t for part, mult in ip.squarefree_decomposition(P.h)
                    for t in _angles_of_part(part, q, precision + GUARD_BITS)
                    for _ in range(mult))
    if _residual_exceeds(P, thetas, precision):
        raise NonConvergence("a residual exceeds the tolerance at precision %d"
                             % precision)
    angles = tuple(thetas) + tuple(1 - t if t else t for t in thetas)
    return RootSystem(g=g, q=q, precision=precision, angles=angles)
