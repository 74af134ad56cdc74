"""Pauli strings: exact matrices of the form r * i^k * X^x Z^z.

On n = 2^q basis states, a string is a pair of bit masks (x, z) over the
row index.  Z^z multiplies |r> by (-1)^|r&z| and X^x sends |r> to
|r^x>, so the matrix of X^x Z^z has one nonzero per row r: the entry
(-1)^|(r^x)&z| in column r^x.

A term is the 4-tuple (r, k, x, z) = r * i^k * X^x Z^z.  The phase is an
exponent k mod 4, as in a stabilizer tableau, and the magnitude r is a
rational: an int for every gamma, alpha and beta string, and a Fraction
only where a momentum, the mass or a 1/2 enters.  Strings multiply up to
a phase, Z^z1 X^x2 = (-1)^|z1&x2| X^x2 Z^z1, so a product (``mul``) is
integer work on the phase,

    k = k1 + k2 + 2*|z1 & x2|  (mod 4),

plus one product of magnitudes (int * int for unit strings).  Strings
commute up to the symplectic form

    S*P = (-1)^<S,P> * P*S,   <S,P> = |x_S & z_P| + |z_S & x_P|  (mod 2),

so linear conditions of the form S*A = r*A*S on one string S are affine
equations over GF(2) in the bits of (x_S, z_S).  The same rule squares a
sum of strings (``square_terms``): S*P + P*S is 2*S*P when <S,P> is even
and 0 when it is odd, so an anticommuting pair costs a parity test on
integer masks and no product.  Sums whose strings pairwise commute have a
joint eigenbasis, and ``joint_spectrum`` reads their joint eigenvalues
off the sign patterns of a GF(2) basis of the strings, again with no
product of sums.  ``expand`` writes any dense matrix as a sum of strings,
the inverse of ``encode_sum``.

Exact complex scalars (``ExactScalar``) are made only at the boundaries:
the dense encoding, where a unit term maps to the four shared scalars
ONE, I_UNIT, MINUS_ONE and MINUS_I; and the results of ``mul_sums``,
``square_sum`` and ``joint_spectrum``, which add real and imaginary parts
as rationals and build one scalar per distinct string or eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import I_UNIT, MINUS_I, MINUS_ONE, ONE, ZERO, ExactMatrix, ExactScalar

_UNITS = (ONE, I_UNIT, MINUS_ONE, MINUS_I)
_FRACTION_ZERO = Fraction(0)


def parity(v: int) -> int:
    return v.bit_count() & 1


def qubits(n: int) -> int:
    """q with n == 2^q; ArithmeticError if n is not a power of two."""
    if n < 1 or n & (n - 1):
        raise ArithmeticError(f"dimension {n} is not a power of two")
    return n.bit_length() - 1


def pack(x: int, z: int, q: int) -> int:
    """X^x Z^z on q qubits as the one integer x | z << q."""
    return x | z << q


def unpack(s: int, q: int) -> tuple[int, int]:
    """(x, z) of a packed string."""
    return s & ((1 << q) - 1), s >> q


def symplectic_mask(x: int, z: int, q: int) -> int:
    """The mask m of P = X^x Z^z with parity(pack(S) & m) == <S,P>."""
    return z | x << q


def mul(a: tuple, b: tuple) -> tuple:
    """The product of terms a = (r1, k1, x1, z1) and b = (r2, k2, x2, z2):
    Z^z1 X^x2 = (-1)^|z1&x2| X^x2 Z^z1 gives
    (r1*r2, k1 + k2 + 2*|z1&x2| mod 4, x1^x2, z1^z2)."""
    r1, k1, x1, z1 = a
    r2, k2, x2, z2 = b
    return r1 * r2, (k1 + k2 + ((z1 & x2).bit_count() << 1)) & 3, x1 ^ x2, z1 ^ z2


def scalar(r, k: int) -> ExactScalar:
    """r * i^k as an exact scalar: one of ONE, I_UNIT, MINUS_ONE and
    MINUS_I when r is +-1, a new scalar otherwise."""
    if r == 1:
        return _UNITS[k & 3]
    if r == -1:
        return _UNITS[(k + 2) & 3]
    r = Fraction(r)
    if k & 2:
        r = -r
    if k & 1:
        return ExactScalar._make(_FRACTION_ZERO, r)
    return ExactScalar._make(r, _FRACTION_ZERO)


def encode(r, k: int, x: int, z: int, n: int) -> ExactMatrix:
    """The dense n x n matrix of r * i^k * X^x Z^z."""
    return encode_sum([(r, k, x, z)], n)


def encode_sum(terms, n: int) -> ExactMatrix:
    """The dense n x n matrix of a sum of terms (r, k, x, z): one entry per
    row of each term, +-r*i^k, so a unit term writes shared scalars."""
    qubits(n)
    rows = [[ZERO] * n for _ in range(n)]
    for r, k, x, z in terms:
        signed = scalar(r, k), scalar(r, k + 2)
        for i, row in enumerate(rows):
            col = i ^ x
            v = signed[parity(col & z)]
            row[col] = v if row[col] is ZERO else row[col] + v
    return ExactMatrix._make(rows)


def expand(m: ExactMatrix) -> list:
    """The terms (r, k, x, z) of m as a sum of strings, with the exact zeros
    dropped: the inverse of ``encode_sum``.

    The n strings with one x mask fill the n entries m[r][r^x], and the
    signs (-1)^|(r^x)&z| are the rows of a Hadamard matrix, so the
    coefficient of X^x Z^z is

        (1/n) * sum_r (-1)^|(r^x)&z| * m[r][r^x],

    whose real part a and imaginary part b give the terms (a, 0, x, z)
    and (b, 1, x, z), each only when nonzero.  An x whose n entries are
    all zero holds no string and is skipped.
    """
    n = m.dim
    qubits(n)
    terms = []
    for x in range(n):
        entries = [(r ^ x, row[r ^ x]) for r, row in enumerate(m.rows)]
        parts = [
            [(col, v.re) for col, v in entries if v.re],
            [(col, v.im) for col, v in entries if v.im],
        ]
        if not parts[0] and not parts[1]:
            continue
        for z in range(n):
            for k, part in enumerate(parts):
                signed = (-v if parity(col & z) else v for col, v in part)
                c = sum(signed, _FRACTION_ZERO)
                if c:
                    terms.append((c / n, k, x, z))
    return terms


def _add(out: dict, key, r, k: int) -> None:
    """Add r * i^k to the [real, imaginary] pair out[key]; a first value
    is stored as it is."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = [0, 0]
    i = k & 1
    if k & 2:
        acc[i] = acc[i] - r if acc[i] else -r
    else:
        acc[i] = acc[i] + r if acc[i] else r


def _scalars(out: dict) -> dict:
    """{key: ExactScalar} of the nonzero [real, imaginary] pairs of out."""
    return {key: ExactScalar(re, im) for key, (re, im) in out.items() if re or im}


def mul_sums(a, b) -> dict:
    """The product of two sums of terms, (sum a)(sum b), as {(x, z): c}
    with c an ``ExactScalar`` and the exact zeros dropped.  Distinct
    strings are linearly independent, so two products are equal matrices
    exactly when their dicts are equal."""
    out = {}
    for s in a:
        for t in b:
            r, k, x, z = mul(s, t)
            _add(out, (x, z), r, k)
    return _scalars(out)


def square_terms(terms) -> list:
    """The terms of (sum terms)^2 with like strings not yet added.  Each
    term adds its square and each pair S, P adds S*P + P*S: 2*S*P when
    <S,P> is even, nothing when it is odd.  This holds for any list,
    repeated strings included, so a sum of k pairwise anticommuting
    strings costs k products and k(k-1)/2 parity tests."""
    terms = list(terms)
    out = []
    for i, s in enumerate(terms):
        out.append(mul(s, s))
        xs, zs = s[2], s[3]
        for t in terms[i + 1 :]:
            if ((xs & t[3]) ^ (zs & t[2])).bit_count() & 1:
                continue
            r, k, x, z = mul(s, t)
            out.append((2 * r, k, x, z))
    return out


def square_sum(terms) -> dict:
    """(sum terms)^2 as ``mul_sums(terms, terms)`` returns it, {(x, z): c}
    with the exact zeros dropped, from ``square_terms``."""
    out = {}
    for r, k, x, z in square_terms(terms):
        _add(out, (x, z), r, k)
    return _scalars(out)


def _times_phase(re, im, k: int) -> tuple:
    """(re + im*i) * i^k as a (real, imaginary) pair."""
    k &= 3
    if k == 0:
        return re, im
    if k == 1:
        return -im, re
    if k == 2:
        return -re, -im
    return im, -re


def joint_spectrum(sums, n: int) -> dict:
    """The joint spectrum on n states of sums of terms (r, k, x, z) whose
    strings pairwise commute, as {(v_1, ..., v_m): dimension} with v_i the
    eigenvalue of the i-th sum, an ``ExactScalar``; ArithmeticError if two
    strings anticommute.

    Like strings are added and exact zeros dropped first.  Elimination over
    GF(2) on the packed masks picks independent strings g_1..g_k among the
    rest and writes every string as a phase times a product of g_i; the
    strings commute pairwise exactly when the g_i do.  g_i^2 is
    (-1)^|x&z|, so g_i has eigenvalues +-1, or +-i when |x&z| is odd, and
    each of the 2^k sign patterns fixes one eigenvalue of every g_i.  A
    nonempty product of distinct g_i is a string other than the identity
    and has trace 0, so the projector onto each pattern has trace n / 2^k:
    the patterns split the space into joint eigenspaces of that dimension,
    and on each one a sum is the number its strings' values add up to.
    The values are added as rationals, and each distinct eigenvalue is one
    scalar.
    """
    q = qubits(n)
    added = []
    for terms in sums:
        out = {}
        for r, k, x, z in terms:
            if (x | z) >= n:
                raise ValueError(f"string ({x}, {z}) does not act on {n} states")
            _add(out, (x, z), r, k)
        added.append({key: acc for key, acc in out.items() if acc[0] or acc[1]})
    gens = []  # (x, z) of g_1..g_k
    pivots = {}  # leading bit -> (packed mask, bit set of the g_i multiplied)
    words = {}  # (x, z) -> (bit set of the g_i, phase exponent on pattern 0)
    for x, z in dict.fromkeys(key for out in added for key in out):
        mask, used = pack(x, z, q), 0
        while mask:
            lead = mask.bit_length() - 1
            if lead not in pivots:
                if any(parity((x & gz) ^ (z & gx)) for gx, gz in gens):
                    raise ArithmeticError("the strings do not commute")
                pivots[lead] = mask, used ^ 1 << len(gens)
                used = 1 << len(gens)
                gens.append((x, z))
                break
            mask ^= pivots[lead][0]
            used ^= pivots[lead][1]
        # X^x Z^z = i^k * prod g_i, with g_i = +1, or +i when |x&z| is
        # odd, on pattern 0
        word = 1, 0, 0, 0
        for i, (gx, gz) in enumerate(gens):
            if used >> i & 1:
                word = mul(word, (1, parity(gx & gz), gx, gz))
        words[x, z] = used, word[1]
    per_sum = []  # (bit set of the g_i, value on pattern 0) per string
    for out in added:
        per_sum.append([])
        for key, (re, im) in out.items():
            used, phase = words[key]
            per_sum[-1].append((used, _times_phase(re, im, phase)))
    counts = {}
    for pattern in range(1 << len(gens)):
        values = []
        for terms in per_sum:
            re = im = 0
            for used, (a, b) in terms:
                if parity(pattern & used):
                    re, im = re - a, im - b
                else:
                    re, im = re + a, im + b
            values.append((re, im))
        values = tuple(values)
        counts[values] = counts.get(values, 0) + (n >> len(gens))
    scalars = {}
    for values in counts:
        for v in values:
            if v not in scalars:
                scalars[v] = ExactScalar(*v)
    return {tuple(scalars[v] for v in values): dim for values, dim in counts.items()}


def solve_affine(rows, nbits: int) -> list[int]:
    """Every s < 2^nbits with parity(s & mask) == rhs for all (mask, rhs).

    With s = pack(x, z, q) and masks from ``symplectic_mask``, these are
    the strings with prescribed commutation signs.

    Gaussian elimination over GF(2) on integer bit masks; the solutions
    are listed in increasing order of their free bits.
    """
    pivots = {}  # leading bit -> (mask, rhs), each with a distinct lead
    for mask, rhs in rows:
        while mask:
            lead = mask.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (mask, rhs)
                break
            mask ^= piv[0]
            rhs ^= piv[1]
        else:
            if rhs:
                return []  # 0 == 1: inconsistent
    free = [b for b in range(nbits) if b not in pivots]
    order = sorted(pivots)
    out = []
    for assignment in range(1 << len(free)):
        s = 0
        for i, b in enumerate(free):
            if assignment >> i & 1:
                s |= 1 << b
        # a pivot row holds only lower bits besides its lead, all set by now
        for lead in order:
            mask, rhs = pivots[lead]
            if parity(mask & s) != rhs:
                s |= 1 << lead
        out.append(s)
    return out
