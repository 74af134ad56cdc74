"""Property-based checks of the algebraic building blocks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from diracsym import ExactMatrix, ExactScalar, model_for, system_for
from diracsym.exact import ONE, ZERO
from diracsym.spectra import dispersion_check

from conftest import kron
from dense_oracle import conj, dagger, trace, transpose

fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
scalars = st.builds(ExactScalar, fractions, fractions)


def matrices(n):
    return st.lists(
        st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ExactMatrix)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a + ZERO == a


@given(scalars, scalars)
def test_scalar_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars)
def test_scalar_division_inverts(a):
    if not a:
        return
    assert (ONE / a) * a == ONE
    assert a * a.conjugate() == ExactScalar(a.re * a.re + a.im * a.im)


@given(scalars)
def test_scalar_json_round_trip(a):
    assert ExactScalar.from_json(a.to_json()) == a


@settings(max_examples=25)
@given(matrices(2), matrices(2), matrices(2))
def test_matrix_ring_identities(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert transpose(a @ b) == transpose(b) @ transpose(a)
    assert dagger(a @ b) == dagger(b) @ dagger(a)


@settings(max_examples=25)
@given(matrices(2), matrices(2))
def test_determinant_multiplicative(a, b):
    assert (a @ b).determinant() == a.determinant() * b.determinant()


@settings(max_examples=25)
@given(matrices(2), matrices(2))
def test_kron_identities(a, b):
    assert trace(kron(a, b)) == trace(a) * trace(b)
    i2 = ExactMatrix.identity(2)
    assert kron(i2, i2) == ExactMatrix.identity(4)
    assert conj(kron(a, b)) == kron(conj(a), conj(b))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([2, 4]),
    st.lists(fractions, min_size=4, max_size=4),
    st.fractions(min_value=Fraction(0), max_value=Fraction(9), max_denominator=6),
)
def test_dispersion_holds_for_random_momenta(d, p, mass):
    model = model_for(d, mass=mass)
    block = dispersion_check(model, p[:d])
    assert block["ok"]
    assert block["omega2"] == sum(x * x for x in p[:d]) + mass * mass


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4, 6]))
def test_gamma_anticommutators_random_pairs(d):
    gs = system_for(d)
    n = gs.rep_dim
    ident = ExactMatrix.identity(n)
    for mu in range(d + 1):
        for nu in range(mu + 1, d + 1):
            anti = gs.gammas[mu] @ gs.gammas[nu] + gs.gammas[nu] @ gs.gammas[mu]
            assert anti == ident.scale(0)
