"""Exact scalar/matrix arithmetic and the rational nullspace solver."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsym import ExactMatrix, ExactScalar, kron, nullspace, rank
from diracsym.exact import I_UNIT, MINUS_ONE, ONE, ZERO, matmul

from conftest import mat


class TestExactScalar:
    def test_constants(self):
        assert ONE + MINUS_ONE == ZERO
        assert I_UNIT * I_UNIT == MINUS_ONE

    def test_field_operations(self):
        a = ExactScalar(Fraction(3, 4), Fraction(-1, 2))
        b = ExactScalar(Fraction(1, 3), Fraction(2))
        assert a + b == ExactScalar(Fraction(13, 12), Fraction(3, 2))
        assert a * b == b * a
        assert (a / b) * b == a
        assert a - a == ZERO

    def test_division_uses_conjugate(self):
        # 1 / i == -i
        assert ONE / I_UNIT == -I_UNIT

    def test_conjugate_and_abs2(self):
        a = ExactScalar(3, -4)
        assert a.conjugate() == ExactScalar(3, 4)
        assert a.abs2() == Fraction(25)
        assert a * a.conjugate() == ExactScalar(25)

    def test_truthiness_and_zero(self):
        assert not ExactScalar(0, 0)
        assert ExactScalar(0, Fraction(1, 7))
        assert ExactScalar(0, 0).is_zero()

    def test_json_round_trip(self):
        a = ExactScalar(Fraction(-7, 3), Fraction(22, 5))
        assert ExactScalar.from_json(a.to_json()) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestExactMatrix:
    def test_identity_is_neutral(self):
        m = mat([[1, (0, 2)], [(3, -1), 5]])
        i2 = ExactMatrix.identity(2)
        assert m @ i2 == m
        assert i2 @ m == m

    def test_determinant_and_invertibility(self):
        m = mat([[1, 2], [3, 4]])
        assert m.determinant() == ExactScalar(-2)
        assert m.is_invertible()
        s = mat([[1, 2], [2, 4]])
        assert s.determinant() == ZERO
        assert not s.is_invertible()

    def test_dagger_and_hermiticity(self):
        h = mat([[2, (0, 1)], [(0, -1), 3]])
        assert h.dagger() == h
        assert h.is_hermitian()
        assert (h.scale(I_UNIT)).is_anti_hermitian()

    def test_scalar_multiple_of_identity(self):
        m = ExactMatrix.identity(3).scale(ExactScalar(Fraction(5, 2)))
        assert m.scalar_multiple_of_identity() == ExactScalar(Fraction(5, 2))
        assert mat([[1, 1], [0, 1]]).scalar_multiple_of_identity() is None

    def test_trace(self):
        assert mat([[1, 9], [9, -1]]).trace() == ZERO

    def test_json_round_trip(self):
        m = mat([[(1, 2), (0, -3)], [(Fraction(1, 2), 0), 4]])
        assert ExactMatrix.from_json(m.to_json()) == m

    def test_kron_block_structure(self):
        a = mat([[0, 1], [1, 0]])
        b = mat([[2, 0], [0, 3]])
        k = kron(a, b)
        assert k.dim == 4
        assert k[0, 2] == ExactScalar(2)
        assert k[1, 3] == ExactScalar(3)
        assert k[0, 0] == ZERO

    def test_kron_mixed_product(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 1]])
        c = mat([[2, 1], [0, 1]])
        d = mat([[1, 1], [2, 0]])
        assert kron(a @ c, b @ d) == kron(a, b) @ kron(c, d)


class TestNullspace:
    def test_known_rank_one_complex_kernel(self):
        # rows of [[1, i], [-i, 1]]; kernel is spanned by (-i, 1)
        rows = [[ONE, I_UNIT], [-I_UNIT, ONE]]
        vecs = nullspace(rows, 2)
        assert len(vecs) == 1
        (v,) = vecs
        # projectively equal to (-i, 1)
        lam = v[1]
        assert [v[0] / lam, v[1] / lam] == [-I_UNIT, ONE]

    def test_full_rank_has_trivial_kernel(self):
        rows = mat([[1, 2], [3, 5]]).rows
        assert nullspace(rows, 2) == []

    def test_rank_nullity(self):
        rows = [
            [ONE, ExactScalar(2), ExactScalar(3)],
            [ExactScalar(2), ExactScalar(4), ExactScalar(6)],
            [ONE, ZERO, ONE],
        ]
        r = rank(rows)
        vecs = nullspace(rows, 3)
        assert r + len(vecs) == 3
        assert r == 2

    def test_kernel_vectors_annihilate_rows(self):
        rows = [
            [ONE, I_UNIT, ZERO, ExactScalar(2)],
            [ZERO, ONE, -I_UNIT, ONE],
        ]
        for v in nullspace(rows, 4):
            for row in rows:
                s = ZERO
                for a, b in zip(row, v):
                    s = s + a * b
                assert s == ZERO

    def test_sparse_dict_rows_accepted(self):
        rows = [{0: ONE, 3: MINUS_ONE}, {1: ONE, 2: ONE}]
        vecs = nullspace(rows, 4)
        assert len(vecs) == 2
        for v in vecs:
            assert v[0] == v[3]
            assert v[1] == -v[2]


# Reference kernels: the schoolbook forms that touch every entry, with the
# four-product complex multiply.  The zero-aware kernels must agree with
# them value for value and byte for byte.


def ref_mul(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    a, b, c, d = x.re, x.im, y.re, y.im
    return ExactScalar._make(a * c - b * d, a * d + b * c)


def ref_scale(m: ExactMatrix, c: ExactScalar) -> ExactMatrix:
    return ExactMatrix._make([[ref_mul(c, a) for a in r] for r in m.rows])


def ref_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix._make(
        [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def ref_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix._make(
        [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def ref_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n = a.dim
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = ZERO
            for k in range(n):
                s = s + ref_mul(a.rows[i][k], b.rows[k][j])
            row.append(s)
        out.append(row)
    return ExactMatrix._make(out)


def assert_same(got: ExactMatrix, want: ExactMatrix) -> None:
    assert got == want
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


KINDS = ("zero", "real", "imag", "complex")
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@st.composite
def scalars(draw, kind=None):
    kind = draw(st.sampled_from(KINDS)) if kind is None else kind
    re = draw(_RATIONALS) if kind in ("real", "complex") else 0
    im = draw(_RATIONALS) if kind in ("imag", "complex") else 0
    return ExactScalar(re, im)


@st.composite
def matrices(draw, n):
    """An n x n matrix whose zero density is drawn from 0 to 1 and whose
    nonzeros are real, imaginary or general complex."""
    zero_pct = draw(st.integers(0, 100))
    kinds = st.sampled_from(KINDS[1:])
    rows = [
        [
            ZERO
            if draw(st.integers(0, 99)) < zero_pct
            else draw(scalars(draw(kinds)))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return ExactMatrix._make(rows)


@st.composite
def matrix_pairs(draw):
    n = draw(st.sampled_from([1, 2, 4, 8]))
    return draw(matrices(n)), draw(matrices(n))


@st.composite
def cancelling_products(draw):
    """a, b with a[:, 0] == a[:, 1] and b[1] == -b[0], so that every sum
    over k in a @ b cancels to exact zero in its first two terms."""
    n = draw(st.sampled_from([2, 4, 8]))
    a, b = draw(matrices(n)), draw(matrices(n))
    a_rows = [[r[0], r[0], *r[2:]] for r in a.rows]
    b_rows = [list(r) for r in b.rows]
    b_rows[1] = [-v for v in b_rows[0]]
    return ExactMatrix._make(a_rows), ExactMatrix._make(b_rows)


class TestZeroAwareKernels:
    @pytest.mark.parametrize("kind_a", KINDS)
    @pytest.mark.parametrize("kind_b", KINDS)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_scalar_mul_matches_four_products(self, kind_a, kind_b, data):
        x = data.draw(scalars(kind_a))
        y = data.draw(scalars(kind_b))
        got, want = x * y, ref_mul(x, y)
        assert got == want
        assert got.to_json() == want.to_json()

    @settings(max_examples=80, deadline=None)
    @given(pair=matrix_pairs())
    def test_matmul_matches_schoolbook(self, pair):
        a, b = pair
        assert_same(matmul(a, b), ref_matmul(a, b))
        assert_same(a @ b, ref_matmul(a, b))

    @settings(max_examples=80, deadline=None)
    @given(pair=matrix_pairs(), c=scalars())
    def test_elementwise_ops_match_dense(self, pair, c):
        a, b = pair
        assert_same(a + b, ref_add(a, b))
        assert_same(a - b, ref_sub(a, b))
        assert_same(a.scale(c), ref_scale(a, c))

    @settings(max_examples=30, deadline=None)
    @given(pair=matrix_pairs())
    def test_cancelling_sums_give_exact_zero(self, pair):
        a, b = pair
        neg = ref_scale(a, MINUS_ONE)
        assert_same(a + neg, ref_add(a, neg))
        assert (a + neg).is_zero() and (a - a).is_zero()
        assert_same(a - a, ref_sub(a, a))
        # partial cancellation: b with a's negated entries on its nonzeros
        mixed = ExactMatrix._make(
            [
                [-x if y else y for x, y in zip(ra, rb)]
                for ra, rb in zip(a.rows, b.rows)
            ]
        )
        assert_same(a + mixed, ref_add(a, mixed))

    @settings(max_examples=30, deadline=None)
    @given(pair=cancelling_products())
    def test_cancelling_products_match_schoolbook(self, pair):
        a, b = pair
        assert_same(matmul(a, b), ref_matmul(a, b))
