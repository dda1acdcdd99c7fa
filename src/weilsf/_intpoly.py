"""Exact arithmetic for monic integer polynomials.

Polynomials are tuples of plain Python ints in *descending* degree order,
``(c[0], c[1], ..., c[n])`` representing ``c[0]*T^n + ... + c[n]``, matching
the ``a_0, a_1, ..., a_{2g}`` coefficient convention used throughout the
package.  A polynomial is normalized where it is built, with a nonzero
leading coefficient (the zero polynomial is ``(0,)``), and the functions
here take it as it is.  Everything here is exact and stays in Z: divisions
go through a sign-preserving primitive remainder, which serves both
Euclid's gcd and the Sturm chains that count real roots.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class InvariantError(RuntimeError):
    """An exact certificate or internal invariant failed: a bug, not bad input."""


_setattr = object.__setattr__


class Record:
    """Immutable record whose fields are the annotated names of a subclass.

    The constructor takes the fields in order, by position or keyword; a
    field with a class attribute defaults to it.  Equality, hash and repr
    (``Name(f=value!r, ...)``) use the fields not named in ``_hidden``, and
    records of different classes never compare equal.  Assigning or
    deleting an attribute raises AttributeError.  The fields are read once
    per class and no code is generated, so defining a record costs next to
    nothing at import.
    """

    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {f: own[f] for f in cls._fields if f in own}
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if args or len(kwargs) != len(fields):
            kwargs = self._complete(args, kwargs)
        # set one by one and in one order, the fields of all instances share
        # one key table: less than half the memory of a dict per instance
        try:
            for f in fields:
                _setattr(self, f, kwargs[f])
            return
        except KeyError:   # as many keywords as fields, so one is unexpected
            pass
        self._complete(args, kwargs)   # raises the TypeError that names it

    @classmethod
    def _complete(cls, args, kwargs):
        """All fields by name, from the positional and keyword arguments
        and the defaults; TypeError on a missing or unexpected argument."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (name, len(cls._fields), len(args)))
        for f, value in zip(cls._fields, args):
            if f in kwargs:
                raise TypeError("%s() got multiple values for argument %r"
                                % (name, f))
            kwargs[f] = value
        for f in kwargs.keys() - cls._names:
            raise TypeError("%s() got an unexpected keyword argument %r"
                            % (name, f))
        for f in cls._fields:
            if f not in kwargs:
                if f not in cls._defaults:
                    raise TypeError("%s() missing required argument %r"
                                    % (name, f))
                kwargs[f] = cls._defaults[f]
        return kwargs

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (f, getattr(self, f)) for f in self._shown]))

    def _key(self):
        return tuple([getattr(self, f) for f in self._shown])


def degree(c):
    return len(c) - 1


def normalize(c):
    """Strip leading zeros; the zero polynomial is ``(0,)``."""
    i = 0
    while i < len(c) - 1 and c[i] == 0:
        i += 1
    return tuple(c[i:])


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def poly_pow(a, e):
    out = (1,)
    base = a
    while e:
        if e & 1:
            out = poly_mul(out, base)
        e >>= 1
        if e:
            base = poly_mul(base, base)
    return out


def poly_derivative(c):
    n = degree(c)
    if n == 0:
        return (0,)
    return tuple([c[i] * (n - i) for i in range(n)])


def poly_div_if_exact(a, b):
    """Quotient a/b if the monic integer polynomial b divides a exactly over
    Z, else None; a non-monic b raises ValueError."""
    if b[0] != 1:
        raise ValueError("divisor must be monic")
    a = list(a)
    db, n = degree(b), len(a) - degree(b)
    for i in range(n):
        if a[i]:
            for j in range(1, db + 1):
                a[i + j] -= a[i] * b[j]
    if any(a[max(n, 0):]):
        return None
    return tuple(a[:n]) or (0,)


def primitive(c):
    g = gcd(*c) or 1
    return tuple([x // (-g if c[0] < 0 else g) for x in c])


def _rem(a, b):
    """A positive integer multiple of a mod b, divided by its content.

    a is scaled by |lc(b)|^k > 0 for its k = deg a - deg b + 1 quotient
    digits, which makes each digit an integer, so the remainder keeps its
    sign: the result serves Euclid (a gcd up to a unit) and Sturm chains
    alike.
    """
    n, db, lc = len(a), len(b) - 1, b[0]
    k = max(n - db, 0)
    scale = abs(lc) ** k
    a = [x * scale for x in a] if scale != 1 else list(a)
    for i in range(k):
        digit = a[i] // lc   # exact
        if digit:
            for j in range(1, db + 1):
                a[i + j] -= digit * b[j]
    # the remainder is a[k:] (all of a if a is the shorter), from its
    # leading nonzero entry on, or its last entry if it is zero
    i = k
    while i < n - 1 and not a[i]:
        i += 1
    r = a[i:]
    g = gcd(*r)
    return tuple(r) if g == 1 else tuple([x // g for x in r]) if g else (0,)


def _euclid(a, b):
    """[a, b, r_2, ..., r_n]: Euclid's remainders r_(i+1) = _rem(r_(i-1), r_i)
    up to the last nonzero one, which is gcd(a, b) times a nonzero integer."""
    seq = [a]
    while b != (0,):
        seq.append(b)
        if len(b) == 1:   # a nonzero constant leaves remainder 0
            break
        a, b = b, _rem(a, b)
    return seq


def poly_gcd(a, b):
    """Primitive integer gcd of two integer polynomials, positive leading
    coefficient."""
    return primitive(_euclid(a, b)[-1])


def _monicize(c):
    # poly_gcd gives a positive leading coefficient, and a primitive divisor
    # of a monic polynomial is monic (Gauss's lemma)
    if c[0] != 1:
        raise ValueError("expected a monic polynomial, got %r" % (c,))
    return c


def squarefree_decomposition(c):
    """Yun's algorithm: [(factor_i, i)] with c = lc * prod factor_i^i.

    Input must be monic; the factors come out monic, squarefree and pairwise
    coprime.
    """
    if c[0] != 1:
        raise ValueError("expected monic input")
    out = []
    g = poly_gcd(c, poly_derivative(c))
    g = _monicize(g)
    if degree(g) == 0:
        return [(c, 1)]
    w = poly_div_if_exact(c, g)
    i = 1
    while degree(w) > 0:
        y = _monicize(poly_gcd(w, g))
        f = poly_div_if_exact(w, y)
        if degree(f) > 0:
            out.append((f, i))
        w = y
        g = poly_div_if_exact(g, y)
        i += 1
        if degree(g) == 0 and degree(w) > 0:
            out.append((w, i))
            break
    return out


# ---------------------------------------------------------------------------
# power sums / Newton identities


def power_sums(c, upto):
    """s_1..s_upto for the monic polynomial c (s_k = sum of k-th root powers),
    by Newton's identities s_k = -k c_k - sum_(0<i<k) c_i s_(k-i), with c_k
    = 0 past the degree."""
    if c[0] != 1:
        raise ValueError("expected monic input")
    n = degree(c)
    s = []
    for k in range(1, upto + 1):
        acc = -k * c[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc -= c[i] * s[k - i - 1]
        s.append(acc)
    return s


def poly_from_power_sums(s, n):
    """Monic integer polynomial of degree n with power sums s_1..s_n."""
    e = [1]  # elementary symmetric functions, e[0] = 1
    for k in range(1, n + 1):
        acc = 0
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * s[i - 1]
            sign = -sign
        q, r = divmod(acc, k)
        if r:
            raise ArithmeticError("power sums do not define an integer polynomial")
        e.append(q)
    return tuple([(-1) ** i * e[i] for i in range(n + 1)])


def composed_product(a, b):
    """a x b, with the roots alpha beta (a(alpha) = b(beta) = 0) and the power
    sums s_r(a) s_r(b)."""
    n = degree(a) * degree(b)
    return poly_from_power_sums([x * y for x, y in zip(power_sums(a, n),
                                                       power_sums(b, n))], n)


def base_changes(c, limit):
    """The base changes prod (T - alpha^r) over the roots alpha of the monic
    c, for r in 1..limit, from one power_sums run: the r-th entry reads
    s_r, s_2r, ..., s_nr off s_1..s_(n limit)."""
    n = degree(c)
    s = power_sums(c, n * limit)
    return [c] + [poly_from_power_sums(s[r - 1:n * r:r], n)
                  for r in range(2, limit + 1)]


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial (descending integer coefficients)."""
    if n == 1:
        return (1, -1)
    c = tuple([1] + [0] * (n - 1) + [-1])  # T^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = poly_div_if_exact(c, cyclotomic(d))
            if q is None:
                raise InvariantError("Phi_%d does not divide T^%d - 1" % (d, n))
            c = q
    return c


def euler_phi(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


# ---------------------------------------------------------------------------
# Sturm chains


def _sturm_chain(c):
    """Sturm chain of the squarefree c; ValueError if c has a repeated root.

    The chain s_(i+1) = -rem(s_(i-1), s_i) is Euclid's sequence on (c, c')
    with the signs +, +, -, -, ... (_rem(+-a, +-b) = +-_rem(a, b) with the
    sign of a): chains here are that sequence, and _variations_at signs it."""
    seq = _euclid(c, poly_derivative(c))
    if degree(seq[-1]) > 0:
        raise ValueError("Sturm chain needs a squarefree polynomial, got %r" % (c,))
    return seq


def squarefree_sturm_chain(c):
    """Sturm chain of the primitive squarefree part of the integer polynomial
    c; the part is the chain's first entry.

    For a squarefree c, the one remainder sequence on (c, c') both decides
    that and is the chain; otherwise c is divided by gcd(c, c') first.
    """
    c = primitive(c)
    seq = _euclid(c, poly_derivative(c))
    if degree(seq[-1]) == 0:
        return seq
    q = poly_div_if_exact(c, _monicize(primitive(seq[-1])))
    if q is None:
        raise InvariantError("gcd(c, c') does not divide c")
    return _sturm_chain(primitive(q))


def scaled_value(c, x, k=0):
    """2^(k deg c) c(x / 2^k) for an integer x: an integer of the sign of
    c(x / 2^k), by Horner's rule on c_i 2^(k i)."""
    v = s = 0
    for ci in c:
        v = v * x + (ci << s)
        s += k
    return v


def _variations_at(chain, x, k=0):
    """Sign variations of the chain at x / 2^k (x an int, or a Fraction with
    k = 0)."""
    count = last = 0
    for i, poly in enumerate(chain):
        # at 0 the constant term has the sign of the value
        v = scaled_value(poly, x, k) if x else poly[-1]
        if i & 2:
            v = -v
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    if not v:
        raise ValueError("the chain's last entry vanishes at %s" % (x,))
    return count


def chain_count(chain, lo, hi):
    """Number of real roots of chain[0] in (lo, hi], from its Sturm chain;
    lo and hi are ints or Fractions.  On Euclid's sequence on (c, c') it
    counts distinct roots wherever gcd(c, c') is nonzero (the generalized
    Sturm theorem), and raises ValueError where not."""
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def isolate(chain, lo, hi, unit=False):
    """Spans (l / 2^k, h / 2^k], as (l, h, k) from left to right, that hold
    every root of the squarefree chain[0] in the integer span (lo, hi], one
    root each; with unit=True, the unit spans (h - 1, h] (k = 0) that hold a
    root, so that an integer root is the end h of its span.

    A span that holds a root is bisected at the integer l + (h - l) // 2; a
    unit span that must be split again is first taken to the scale 2^-(k+1).
    Each end's sign variations are counted once.
    """
    out = []
    spans = [(lo, hi, 0, _variations_at(chain, lo), _variations_at(chain, hi))]
    while spans:                         # the leftmost span on top
        l, h, k, vl, vh = spans.pop()
        if vl == vh:
            continue
        if (h - l == 1) if unit else (vl - vh == 1):
            out.append((l, h, k))
            continue
        if h - l == 1:
            l, h, k = 2 * l, 2 * h, k + 1
        m = (l + h) >> 1
        vm = _variations_at(chain, m, k)
        spans += [(m, h, k, vm, vh), (l, m, k, vl, vm)]
    return out


def _value_and_slope(c, x):
    """c(x) and c'(x) by one Horner pass."""
    v, dv = c[0], 0
    for ci in c[1:]:
        dv = dv * x + v
        v = v * x + ci
    return v, dv


def _refine(cs, a, b, rising):
    """Y with |Y - z| <= 2 for the root z in the open span (a, b) of the
    integer polynomial cs, which is negative just right of a and positive
    at b when `rising` (and the other way round otherwise).

    Each step evaluates cs at Y and keeps the side of Y on which cs still
    changes sign.  It then takes Newton's step Y - cs(Y) / cs'(Y) when that
    stays inside and moves by less than a quarter of the span, bisects
    otherwise, and probes two units towards the root once the step is at
    most one unit.  A sign change across a span of width <= 4 certifies the
    result; a zero of cs at Y is exact.
    """
    y = (a + b) >> 1
    while b - a > 4:
        v, dv = _value_and_slope(cs, y)
        if not v:
            return y
        if (v > 0) == rising:
            b = y
        else:
            a = y
        step = (2 * v + dv) // (2 * dv) if dv else b - a   # nearest v / dv
        if abs(step) <= 1:
            y += 2 if (v > 0) != rising else -2
        elif a < y - step < b and 4 * abs(step) < b - a:
            y -= step
        else:
            y = (a + b) >> 1
        y = min(max(y, a + 1), b - 1)
    return (a + b) >> 1


def real_roots(c, bound, bits):
    """The real roots y of the squarefree monic integer polynomial c, which
    all lie in (-bound, bound), ascending, in fixed point: integers Y with
    |Y - 2^bits y| <= 2.

    `isolate` puts each root in a span (l / 2^k, h / 2^k].  A root at h is
    exact.  Otherwise `_refine` finds it on C(Y) = 2^(s n) c(Y / 2^s), n =
    deg c, at the scale s = max(bits, k); its sign just right of l is that
    of C(l), or of C'(l) where l is the root of the span to the left.
    """
    out = []
    scaled = {}
    for l, h, k in isolate(_sturm_chain(c), -bound, bound):
        s = max(bits, k)
        if s not in scaled:
            scaled[s] = tuple([ci << (s * i) for i, ci in enumerate(c)])
        cs = scaled[s]
        a, b = l << (s - k), h << (s - k)
        vb = scaled_value(cs, b)
        if not vb:
            y = b
        else:
            va, dva = _value_and_slope(cs, a)
            if ((va or dva) > 0) == (vb > 0):
                raise InvariantError("no sign change in an isolating span of %r" % (c,))
            y = _refine(cs, a, b, vb > 0)
        # to 2^-bits, rounding half up: |Y - 2^bits y| <= 2 still
        out.append((y + (1 << (s - bits - 1))) >> (s - bits) if s > bits else y)
    return out
