"""Pauli strings: exact matrices of the form c * X^x Z^z.

On n = 2^q basis states, a string is a pair of bit masks (x, z) over the
row index.  Z^z multiplies |r> by (-1)^|r&z| and X^x sends |r> to
|r^x>, so the matrix of c * X^x Z^z has one nonzero per row r: the
entry c * (-1)^|(r^x)&z| in column r^x.

Strings multiply up to a sign and commute up to the symplectic form

    S*P = (-1)^<S,P> * P*S,   <S,P> = |x_S & z_P| + |z_S & x_P|  (mod 2),

so linear conditions of the form S*A = r*A*S on one string S are affine
equations over GF(2) in the bits of (x_S, z_S).
"""

from __future__ import annotations

from .exact import ExactMatrix, ExactScalar, ZERO


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


def decode(m: ExactMatrix) -> tuple[ExactScalar, int, int]:
    """(c, x, z) with m == c * X^x Z^z, every entry checked.

    Raises ArithmeticError when m is not a nonzero multiple of one string.
    """
    n = m.dim
    q = qubits(n)
    rows = m.rows
    x = next((j for j, v in enumerate(rows[0]) if v), None)
    if x is None:
        raise ArithmeticError("not a Pauli string: row 0 is zero")
    head = rows[0][x]
    z = 0
    for b in range(q):
        r = 1 << b
        if rows[r][r ^ x] != head:
            z |= r
    c = -head if parity(x & z) else head
    for r, row in enumerate(rows):
        col = r ^ x
        want = -c if parity(col & z) else c
        if row[col] != want or any(row[:col]) or any(row[col + 1 :]):
            raise ArithmeticError(f"not a Pauli string: row {r} differs")
    return c, x, z


def encode(c: ExactScalar, x: int, z: int, n: int) -> ExactMatrix:
    """The dense n x n matrix of c * X^x Z^z."""
    qubits(n)
    neg = -c
    rows = []
    for r in range(n):
        row = [ZERO] * n
        col = r ^ x
        row[col] = neg if parity(col & z) else c
        rows.append(row)
    return ExactMatrix._make(rows)


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
