"""Pauli strings: exact matrices of the form c * X^x Z^z.

On n = 2^q basis states, a string is a pair of bit masks (x, z) over the
row index.  Z^z multiplies |r> by (-1)^|r&z| and X^x sends |r> to
|r^x>, so the matrix of c * X^x Z^z has one nonzero per row r: the
entry c * (-1)^|(r^x)&z| in column r^x.

A string is held as the triple (c, x, z).  Strings multiply up to a sign
and commute up to the symplectic form

    S*P = (-1)^<S,P> * P*S,   <S,P> = |x_S & z_P| + |z_S & x_P|  (mod 2),

so linear conditions of the form S*A = r*A*S on one string S are affine
equations over GF(2) in the bits of (x_S, z_S).  The same rule squares a
sum of strings (``square_sum``): S*P + P*S is 2*S*P when <S,P> is even
and 0 when it is odd, so an anticommuting pair costs a parity test on
integer masks and no product.  Sums whose strings pairwise commute have a
joint eigenbasis, and ``joint_spectrum`` reads their joint eigenvalues
off the sign patterns of a GF(2) basis of the strings, again with no
product of sums.  ``expand`` writes any dense matrix as a sum of strings,
the inverse of ``encode_sum``.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import I_UNIT, ONE, ZERO, ExactMatrix, ExactScalar


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
    """The product of strings a = (c1, x1, z1) and b = (c2, x2, z2):
    Z^z1 X^x2 = (-1)^|z1&x2| X^x2 Z^z1 gives (c, x1^x2, z1^z2)."""
    c1, x1, z1 = a
    c2, x2, z2 = b
    c = c1 * c2
    return (-c if parity(z1 & x2) else c), x1 ^ x2, z1 ^ z2


def encode(c: ExactScalar, x: int, z: int, n: int) -> ExactMatrix:
    """The dense n x n matrix of c * X^x Z^z."""
    return encode_sum([(c, x, z)], n)


def encode_sum(terms, n: int) -> ExactMatrix:
    """The dense n x n matrix of a sum of strings (c, x, z): one entry per
    row of each string."""
    qubits(n)
    rows = [[ZERO] * n for _ in range(n)]
    for c, x, z in terms:
        neg = -c
        for r, row in enumerate(rows):
            col = r ^ x
            v = neg if parity(col & z) else c
            row[col] = v if row[col] is ZERO else row[col] + v
    return ExactMatrix._make(rows)


def expand(m: ExactMatrix) -> list:
    """The terms (c, x, z) of m as a sum of strings, with the exact zeros
    dropped: the inverse of ``encode_sum``.

    The n strings with one x mask fill the n entries m[r][r^x], and the
    signs (-1)^|(r^x)&z| are the rows of a Hadamard matrix, so

        c(x, z) = (1/n) * sum_r (-1)^|(r^x)&z| * m[r][r^x].

    An x whose n entries are all zero holds no string and is skipped.
    """
    n = m.dim
    qubits(n)
    inv = ExactScalar(Fraction(1, n))
    terms = []
    for x in range(n):
        entries = [(r ^ x, row[r ^ x]) for r, row in enumerate(m.rows)]
        entries = [(col, v) for col, v in entries if v]
        if not entries:
            continue
        for z in range(n):
            c = sum((-v if parity(col & z) else v for col, v in entries), ZERO)
            if c:
                terms.append((inv * c, x, z))
    return terms


def mul_sums(a, b) -> dict:
    """The product of two sums of strings, (sum a)(sum b), as {(x, z): c}
    with the exact zeros dropped.  Distinct strings are linearly
    independent, so two products are equal matrices exactly when their
    dicts are equal."""
    out = {}
    for s in a:
        for t in b:
            c, x, z = mul(s, t)
            key = x, z
            out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def square_sum(terms) -> dict:
    """(sum terms)^2 as ``mul_sums(terms, terms)`` returns it, {(x, z): c}
    with the exact zeros dropped.  Each term adds its square and each pair
    S, P adds S*P + P*S: 2*S*P when <S,P> is even, nothing when it is odd.
    This holds for any list, repeated strings included, so a sum of k
    pairwise anticommuting strings costs k products and k(k-1)/2 parity
    tests."""
    terms = list(terms)
    out = {}
    for i, s in enumerate(terms):
        c, x, z = mul(s, s)
        out[x, z] = out[x, z] + c if (x, z) in out else c
        _, xs, zs = s
        for t in terms[i + 1 :]:
            if parity((xs & t[2]) ^ (zs & t[1])):
                continue
            c, x, z = mul(s, t)
            c = c + c
            out[x, z] = out[x, z] + c if (x, z) in out else c
    return {key: c for key, c in out.items() if c}


def joint_spectrum(sums, n: int) -> dict:
    """The joint spectrum on n states of sums of strings (c, x, z) whose
    strings pairwise commute, as {(v_1, ..., v_m): dimension} with v_i the
    eigenvalue of the i-th sum; ArithmeticError if two strings anticommute.

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
    """
    q = qubits(n)
    added = []
    for terms in sums:
        out = {}
        for c, x, z in terms:
            if (x | z) >= n:
                raise ValueError(f"string ({x}, {z}) does not act on {n} states")
            out[x, z] = out[x, z] + c if (x, z) in out else c
        added.append({key: c for key, c in out.items() if c})
    gens = []  # (x, z) of g_1..g_k
    pivots = {}  # leading bit -> (packed mask, bit set of the g_i multiplied)
    words = {}  # (x, z) -> (bit set of the g_i, value of X^x Z^z on pattern 0)
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
        # X^x Z^z = phase * prod g_i, with g_i = +1, or +i when |x&z| is
        # odd, on pattern 0
        word = ONE, 0, 0
        for i, (gx, gz) in enumerate(gens):
            if used >> i & 1:
                word = mul(word, (I_UNIT if parity(gx & gz) else ONE, gx, gz))
        words[x, z] = used, word[0]
    per_sum = [
        [(words[key][0], c * words[key][1]) for key, c in out.items()] for out in added
    ]
    spectrum = {}
    for pattern in range(1 << len(gens)):
        values = tuple(
            sum((-c if parity(pattern & used) else c for used, c in terms), ZERO)
            for terms in per_sum
        )
        spectrum[values] = spectrum.get(values, 0) + (n >> len(gens))
    return spectrum


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
