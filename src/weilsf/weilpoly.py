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
from functools import lru_cache
from math import comb, log2

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


# mpmath serves only the numeric layer (roots, the factor search for g >= 4,
# the LLL oracle, the trace angles): the exact classifier path never runs it.
# The package binds it here alone; the other modules import this binding.
mp = _lazy("mpmath")

DEFAULT_PRECISION = 256


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
    """values as a tuple of ints, or `error` if one is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error("expected integer %s, got %r" % (name, values)) from None


@lru_cache(maxsize=256, typed=True)  # the labels of a batch share a few q
def factor_prime_power(q):
    """Return (p, d) with q = p^d, p prime.  A q divisible by one of
    _MR_BASES is a prime power only as a power of that prime; otherwise p
    is the exact d-th root of q for the largest such d, and q is a prime
    power iff p is prime."""
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
    return ip.normalize(tuple(out))


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
    if weil_pullback(c, q) != ip.normalize(tuple(coeffs)):
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
    4q (then the chain of E's squarefree part counts); a root at 0 is E(0) = 0.
    """
    hneg = [-x if i % 2 else x for i, x in enumerate(h)]
    # h * hneg = (-1)^g H(y) H(-y) = E(y^2), so E is its even part
    e = ip.poly_mul(h, hneg)[::2]
    seq = ip._euclid(e, ip.poly_derivative(e))
    try:
        count = ip.chain_count(seq, 0, 4 * q)
    except ValueError:  # gcd(E, E') vanishes at 0 or 4q
        count = ip.chain_count(ip.squarefree_sturm_chain(e), 0, 4 * q)
    return count + (e[-1] == 0) == ip.degree(e) - ip.degree(seq[-1])


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
    middle = _integers(middle, NotIntegral, "coefficients")
    (q,) = _integers((q,), NotPrimePower, "q")
    if len(middle) != g:
        raise WeilError("expected %d middle coefficients, got %d" % (g, len(middle)))
    coeffs = [1, *middle]
    coeffs += [q ** (g - i) * coeffs[i] for i in range(g - 1, -1, -1)]
    return validate(coeffs, q)


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
    middle = [_decode_token(t) for t in toks]
    return from_middle(g, q, middle)


def format_label(P):
    """Inverse of parse_label; bit-exact round trip."""
    toks = "_".join(_encode_token(a) for a in P.middle)
    return "%d.%d.%s" % (P.g, P.q, toks)


# ---------------------------------------------------------------------------
# high-precision roots with the non-decreasing angle convention


class RootSystem(ip.Record):
    """Roots of P at a fixed precision, paired and angle-ordered.

    ``roots[j]`` for j < g are the representatives with angle in [0, 1/2],
    sorted by non-decreasing angle, and ``roots[g+j] = q / roots[j]`` is the
    complex conjugate partner.  ``angles[j]`` is theta_j in [0,1) with
    ``roots[j] = sqrt(q) exp(2 pi i theta_j)``.
    """

    g: int
    q: int
    precision: int
    roots: tuple      # 2g mpmath mpc values
    angles: tuple     # 2g mpmath mpf values in [0, 1)

    @property
    def thetas(self):
        """The g fundamental angles theta_1 <= ... <= theta_g."""
        return self.angles[:self.g]


def _real_roots(c, precision):
    """Roots of a squarefree, real-rooted monic integer polynomial at the
    caller's working precision: none for a constant, exact for a linear c."""
    if ip.degree(c) == 1:
        return [mp.mpf(-c[1])]
    # polyroots of a constant is empty
    return [mp.re(y) for y in mp.polyroots([mp.mpf(x) for x in c],
                                           maxsteps=200, extraprec=precision // 2)]


def _angles_of_part(part, q, precision):
    """Angles theta in [0, 1/2] of the roots y = 2 sqrt(q) cos(2 pi theta) of
    one squarefree factor of H.

    The edge roots y = +-2 sqrt(q) (theta = 0, 1/2) are the roots of
    gcd(part, y^2 - 4q) and are exact; the others are solved numerically.
    """
    edge = ip.poly_gcd(part, (1, 0, -4 * q))
    inner = ip.poly_div_if_exact(part, edge)
    thetas = []
    if ip.degree(edge) == 2:
        thetas = [mp.mpf(0), mp.mpf(0.5)]
    elif ip.degree(edge) == 1:
        thetas = [mp.mpf(0) if edge[1] < 0 else mp.mpf(0.5)]
    # the clamp only absorbs rounding: Res(inner, y^2 - 4q) is a nonzero
    # integer, so no inner root lies within (4q)^-g of the edge
    two_sqrtq = 2 * mp.sqrt(q)
    thetas += [mp.acos(max(-1, min(1, y / two_sqrtq))) / (2 * mp.pi)
               for y in _real_roots(inner, precision)]
    return thetas


def roots(P, precision=DEFAULT_PRECISION):
    """RootSystem of P at the requested precision (bits).

    The angles come from the degree-g real Weil transform H, whose roots are
    y_j = 2 sqrt(q) cos(2 pi theta_j), one per conjugate pair of roots of P
    (Kedlaya's real-root reduction).  H is split into squarefree parts
    exactly; a root of a part of multiplicity e gives its angle e times.
    Deterministic for fixed (P, precision); raises NonConvergence when the
    residual of P at a computed root exceeds 2^(-precision/2) * q^g.
    """
    if precision < 64:
        raise WeilError("precision must be at least 64 bits")
    g, q = P.g, P.q
    with mp.workprec(precision + 32):
        thetas = sorted(t for part, mult in ip.squarefree_decomposition(P.h)
                        for t in _angles_of_part(part, q, precision)
                        for _ in range(mult))
        sqrtq = mp.sqrt(q)
        first = [sqrtq * mp.expjpi(2 * t) for t in thetas]
        tol = mp.mpf(2) ** (-(precision // 2)) * mp.mpf(q) ** g
        coeffs_mp = [mp.mpf(c) for c in P.coeffs]
        for r in first:
            residual = abs(mp.polyval(coeffs_mp, r))
            if residual >= tol:
                raise NonConvergence(
                    "residual %s exceeds tolerance at precision %d"
                    % (mp.nstr(residual), precision))
        all_roots = tuple(first) + tuple(mp.conj(r) for r in first)
        all_angles = tuple(thetas) + tuple(
            (1 - t) if t > 0 else mp.mpf(0) for t in thetas)
        return RootSystem(g=g, q=q, precision=precision,
                          roots=all_roots, angles=all_angles)
