"""Exact complex-rational scalars, dense matrices, and nullspace computation.

Everything in this module is exact: scalars are complex numbers whose real
and imaginary parts are arbitrary-precision rationals, and all matrix
operations (product, Kronecker product, conjugation, elimination) stay in
that field.  Floating point never enters here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, Fraction]

_FRACTION_ZERO = Fraction(0)


class ExactScalar:
    """A complex number with rational real and imaginary parts.

    Immutable by convention; every operation returns a new scalar.
    Equality is exact, there is no tolerance anywhere.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "ExactScalar":
        # fast path: skip Fraction() re-coercion in hot loops
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar._make(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar._make(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # Real or imaginary factors (momenta, masses, +-1 and +-i gamma
        # entries) take one or two Fraction products instead of four.
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not d:
                return ExactScalar._make(a * c, _FRACTION_ZERO)
            return ExactScalar._make(a * c, a * d)
        if not a:
            if not c:
                return ExactScalar._make(-(b * d), _FRACTION_ZERO)
            return ExactScalar._make(-(b * d), b * c)
        if not d:
            return ExactScalar._make(a * c, b * c)
        if not c:
            return ExactScalar._make(-(b * d), a * d)
        return ExactScalar._make(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        a, b = self.re, self.im
        return ExactScalar._make((a * c + b * d) / n, (b * c - a * d) / n)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._make(-self.re, -self.im)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar._make(self.re, -self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactScalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def __repr__(self) -> str:
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def to_json(self) -> dict:
        """Bit-exact interchange form: integers as decimal strings."""
        return {
            "re": [str(self.re.numerator), str(self.re.denominator)],
            "im": [str(self.im.numerator), str(self.im.denominator)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ExactScalar":
        re = Fraction(int(obj["re"][0]), int(obj["re"][1]))
        im = Fraction(int(obj["im"][0]), int(obj["im"][1]))
        return cls._make(re, im)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
I_UNIT = ExactScalar(0, 1)


def scalar(re: RationalLike = 0, im: RationalLike = 0) -> ExactScalar:
    return ExactScalar(re, im)


Entry = Union[ExactScalar, int, Fraction]


def _coerce(x: Entry) -> ExactScalar:
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(x)


class ExactMatrix:
    """Dense square matrix over ExactScalar."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence[Entry]]):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dim = n
        self.rows = [[_coerce(x) for x in r] for r in rows]

    @classmethod
    def _make(cls, rows: list) -> "ExactMatrix":
        m = object.__new__(cls)
        m.dim = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._make(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, n: int) -> "ExactMatrix":
        return cls._make([[ZERO] * n for _ in range(n)])

    def __getitem__(self, ij) -> ExactScalar:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    # The elementwise operations skip zero operands: a zero entry costs
    # one truth test and no Fraction arithmetic.

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        return ExactMatrix._make(
            [
                [(a + b if b else a) if a else b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        return ExactMatrix._make(
            [
                [(a - b if b else a) if a else (-b if b else b)
                 for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._make([[-a for a in r] for r in self.rows])

    def scale(self, c: Entry) -> "ExactMatrix":
        c = _coerce(c)
        if not c:
            return ExactMatrix.zero(self.dim)
        return ExactMatrix._make(
            [[c * a if a else a for a in r] for r in self.rows]
        )

    def _check_dim(self, other: "ExactMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return matmul(self, other)

    def conj(self) -> "ExactMatrix":
        return ExactMatrix._make(
            [[a.conjugate() for a in r] for r in self.rows]
        )

    def transpose(self) -> "ExactMatrix":
        n = self.dim
        return ExactMatrix._make(
            [[self.rows[j][i] for j in range(n)] for i in range(n)]
        )

    def dagger(self) -> "ExactMatrix":
        return self.conj().transpose()

    def trace(self) -> ExactScalar:
        t = ZERO
        for i in range(self.dim):
            t = t + self.rows[i][i]
        return t

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_anti_hermitian(self) -> bool:
        return self == -self.dagger()

    def scalar_multiple_of_identity(self) -> ExactScalar | None:
        """Return c with self == c*I, or None if not a scalar matrix."""
        n = self.dim
        c = self.rows[0][0]
        for i in range(n):
            for j in range(n):
                want = c if i == j else ZERO
                if self.rows[i][j] != want:
                    return None
        return c

    def determinant(self) -> ExactScalar:
        """Exact determinant via Gaussian elimination."""
        n = self.dim
        rows = [list(r) for r in self.rows]
        det = ONE
        for col in range(n):
            piv = None
            for r in range(col, n):
                if rows[r][col]:
                    piv = r
                    break
            if piv is None:
                return ZERO
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            p = rows[col][col]
            det = det * p
            inv = ONE / p
            for r in range(col + 1, n):
                f = rows[r][col]
                if not f:
                    continue
                f = f * inv
                rows[r] = [
                    a - f * b for a, b in zip(rows[r], rows[col])
                ]
        return det

    def is_invertible(self) -> bool:
        return bool(self.determinant())

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(a) for a in r) for r in self.rows
        )
        return f"ExactMatrix[{body}]"

    def to_json(self) -> list:
        return [[a.to_json() for a in r] for r in self.rows]

    @classmethod
    def from_json(cls, obj: Sequence) -> "ExactMatrix":
        return cls._make(
            [[ExactScalar.from_json(a) for a in r] for r in obj]
        )


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product, row-sparse.

    The nonzeros of each row of ``b`` are collected once; row i of the
    product accumulates a[i][k] * b[k][j] over the nonzero a[i][k] only.
    Cost: n^2 truth tests plus one product per nonzero pair.
    """
    a._check_dim(b)
    n = a.dim
    b_nz = [[(j, y) for j, y in enumerate(rb) if y] for rb in b.rows]
    out = []
    for ra in a.rows:
        row = [ZERO] * n
        for x, nz in zip(ra, b_nz):
            if x and nz:
                for j, y in nz:
                    s = row[j]
                    row[j] = x * y if s is ZERO else s + x * y
        out.append(row)
    return ExactMatrix._make(out)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, a-index major block layout."""
    na, nb = a.dim, b.dim
    n = na * nb
    out = [[ZERO] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            aij = a.rows[i][j]
            if not aij:
                continue
            for k in range(nb):
                for l in range(nb):
                    bkl = b.rows[k][l]
                    if bkl:
                        out[i * nb + k][j * nb + l] = aij * bkl
    return ExactMatrix._make(out)


Row = Union[Mapping[int, Entry], Sequence[Entry]]


def _sparse_row(row: Row) -> dict:
    if isinstance(row, Mapping):
        items = row.items()
    else:
        items = enumerate(row)
    return {c: v for c, v in ((c, _coerce(v)) for c, v in items) if v}


class _Rref:
    """Incremental exact reduced row-echelon form with sparse rows.

    Pivoting is leftmost-nonzero with a fixed unknown ordering, so the
    resulting basis is deterministic given deterministic row order.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot column -> reduced row
        # pivot columns that appear in other pivot rows, for RREF upkeep
        self._occurs: dict[int, set] = {}

    def add_row(self, row: Row) -> None:
        r = _sparse_row(row)
        # Pivot rows contain no pivot column other than their own, so one
        # pass over the row's pivot columns fully reduces it.
        for c in sorted(r):
            if c not in r:
                continue  # cancelled by an earlier subtraction
            piv = self.pivots.get(c)
            if piv is None:
                continue
            f = r.pop(c)
            for pc, pv in piv.items():
                if pc == c:
                    continue
                nv = r.get(pc, ZERO) - f * pv
                if nv:
                    r[pc] = nv
                else:
                    r.pop(pc, None)
        if not r:
            return
        c = min(r)
        lead = r.pop(c)
        inv = ONE / lead
        r = {k: inv * v for k, v in r.items()}
        r[c] = ONE
        # eliminate the new pivot column from all existing pivot rows
        for pc in list(self._occurs.get(c, ())):
            prow = self.pivots[pc]
            f = prow.pop(c, None)
            if f is None:
                continue  # stale occurrence
            for k, v in r.items():
                if k == c:
                    continue
                nv = prow.get(k, ZERO) - f * v
                if nv:
                    prow[k] = nv
                    self._occurs.setdefault(k, set()).add(pc)
                else:
                    prow.pop(k, None)
        self._occurs.pop(c, None)
        self.pivots[c] = r
        for k in r:
            if k != c:
                self._occurs.setdefault(k, set()).add(c)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def nullspace(rows: Iterable[Row], n_unknowns: int) -> list[list[ExactScalar]]:
    """Exact basis of the solution space of a homogeneous linear system.

    Rows may be dense sequences or sparse {column: value} mappings of
    width ``n_unknowns``.  Returns one basis vector per free unknown, in
    increasing free-column order; an empty list means only the zero
    solution exists.
    """
    rref = _Rref()
    for row in rows:
        rref.add_row(row)
    return nullspace_from_rref(rref, n_unknowns)


def nullspace_from_rref(rref: _Rref, n_unknowns: int) -> list[list[ExactScalar]]:
    pivots = rref.pivots
    basis = []
    for f in range(n_unknowns):
        if f in pivots:
            continue
        v = [ZERO] * n_unknowns
        v[f] = ONE
        for c, prow in pivots.items():
            coef = prow.get(f)
            if coef:
                v[c] = -coef
        basis.append(v)
    return basis


def rank(rows: Iterable[Row]) -> int:
    rref = _Rref()
    for row in rows:
        rref.add_row(row)
    return rref.rank
