"""The Pauli-string solver against the dense oracle and the stored table."""

import hashlib
import itertools
import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diracsym import ExactMatrix, ExactScalar, pauli, solve_tau, verify_tau
from diracsym import exact, models, spectra, symmetry
from diracsym.certificate import tau_solution_json
from diracsym.exact import I_UNIT, ONE
from diracsym.models import DiracModel, model_for
from diracsym.symmetry import (
    CANDIDATES,
    GENERATOR_CLASSES,
    PARITY,
    TW,
    VARIANTS,
    SymmetryCandidate,
    model_for_variant,
)

from dense_oracle import dense_solve_tau, dense_terms, reference_string_rows, term_scalar

EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _cert_bytes(sol):
    """basis, both representatives, square_phase, orbital_inconsistencies
    and the verdict, as certificate JSON.  The engine's invertible
    representative is its first solution string and the oracle's comes
    from a determinant scan, so equal bytes check one rule by the other."""
    return json.dumps(tau_solution_json(sol), sort_keys=True)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("variant", VARIANTS)
def test_full_matches_dense_oracle(d, variant):
    model = model_for_variant(d, variant)
    for name, cand in CANDIDATES.items():
        for include_j in (True, False):
            got = solve_tau(model, cand, include_j=include_j, variant=variant)
            want = dense_solve_tau(model, cand, include_j=include_j, variant=variant)
            assert _cert_bytes(got) == _cert_bytes(want), (name, include_j)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("variant", ["single", "single-", "massless"])
def test_clifford2_matches_dense_oracle(d, variant):
    # at d = 2, where monomials share strings, every sign datum too, with
    # and without the boost rows
    model = model_for_variant(d, variant)
    cells = [(name, cand, True) for name, cand in CANDIDATES.items()]
    if d == 2:
        cells += [(i, c, j) for i, c in enumerate(_sign_data()) for j in (True, False)]
    for name, cand, include_j in cells:
        kwargs = dict(ansatz="clifford2", include_j=include_j, variant=variant)
        got = solve_tau(model, cand, **kwargs)
        want = dense_solve_tau(model, cand, **kwargs)
        assert _cert_bytes(got) == _cert_bytes(want), (name, include_j)


def _fingerprint(m: ExactMatrix) -> str:
    text = json.dumps(m.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_all_stored_cells_match():
    expected = json.loads(EXPECTED.read_text())
    assert (len(expected["full"]), len(expected["clifford2"])) == (112, 63)
    for ansatz in ("full", "clifford2"):
        for key, want in expected[ansatz].items():
            d, variant, name = key.split("/")
            model = model_for_variant(int(d), variant, mass=Fraction(1))
            sol = solve_tau(model, CANDIDATES[name], ansatz=ansatz, variant=variant)
            rep = sol.invertible_representative
            got = [sol.exists, sol.dim, _fingerprint(rep) if rep else None]
            assert got == want, (ansatz, key)


def _tilted(gens, cls, factor):
    """The generators ``gens`` with every coefficient of one class scaled
    by factor = (q, j), the scalar q * i^j."""
    q, j = factor
    return [
        (c, label, {m: (r * q, (k + j) & 3, x, z) for m, (r, k, x, z) in g.items()})
        if c == cls
        else (c, label, g)
        for c, label, g in gens
    ]


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_phases = st.integers(0, 3)
# a magnitude is an int where a unit string needs no rational, and a
# Fraction elsewhere
_magnitudes = st.integers(-3, 3) | _rationals
_nonzero_magnitudes = _magnitudes.filter(bool)


def _terms(masks, magnitudes=_nonzero_magnitudes):
    return st.tuples(magnitudes, _phases, masks, masks)


@st.composite
def _string_pairs(draw):
    q = draw(st.integers(0, 3))
    n = 1 << q
    masks = st.integers(0, n - 1)
    return draw(_terms(masks)), draw(_terms(masks)), n


@settings(max_examples=200, deadline=None)
@given(_string_pairs())
@example(((1, 3, 1, 1), (Fraction(-2, 3), 2, 1, 0), 2))  # -iXZ * (-2/3)(-1)X
def test_string_product_matches_dense_matmul(s):
    a, b, n = s
    assert pauli.encode(*pauli.mul(a, b), n) == pauli.encode(*a, n) @ pauli.encode(*b, n)
    assert pauli.encode(*a, n) == dense_terms([a], n)
    assert pauli.mul(a, b)[1] in range(4)
    # the encoding is the product of one-qubit factors X^x Z^z
    r, k, x, z = a
    for row_index, row in enumerate(pauli.encode(r, k, x, z, n).rows):
        col = row_index ^ x
        sign = (-1) ** bin(col & z).count("1")
        assert [j for j, v in enumerate(row) if v] == [col]
        assert row[col] == term_scalar(r, k) * ExactScalar(sign)


def test_unit_terms_encode_to_shared_scalars():
    # the four units of every phase, with int and Fraction magnitudes
    shared = {id(ONE), id(I_UNIT), id(exact.MINUS_ONE), id(exact.MINUS_I)}
    for k in range(4):
        for r in (1, -1, Fraction(1), Fraction(-1)):
            m = pauli.encode(r, k, 3, 5, 8)
            assert {id(v) for row in m.rows for v in row if v} <= shared
            assert m == dense_terms([(r, k, 3, 5)], 8)
    assert pauli.scalar(Fraction(2, 3), 3) == ExactScalar(0, Fraction(-2, 3))


@st.composite
def _string_sums(draw):
    q = draw(st.integers(0, 3))
    n = 1 << q
    term = _terms(st.integers(0, n - 1))
    return draw(st.lists(term, max_size=4)), draw(st.lists(term, max_size=4)), n


@settings(max_examples=200, deadline=None)
@given(_string_sums())
def test_string_sums_match_dense_sums_and_products(s):
    a, b, n = s
    dense_a = dense_terms(a, n)
    assert pauli.encode_sum(a, n) == dense_a
    product = pauli.mul_sums(a, b)
    assert all(product.values())
    terms = [(c.re, 0, x, z) for (x, z), c in product.items()]
    terms += [(c.im, 1, x, z) for (x, z), c in product.items()]
    assert pauli.encode_sum(terms, n) == dense_a @ dense_terms(b, n)


def test_string_sum_product_cancels_to_empty():
    # (X + Z)(X - Z) = 1 - XZ + ZX - 1 = -2XZ, and (X + XZ)^2 = 0 because
    # XZ anticommutes with X and squares to -1
    x, z, xz = (1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 1, 1)
    assert pauli.mul_sums([x, z], [x, (1, 2, 0, 1)]) == {(1, 1): ExactScalar(-2)}
    assert pauli.mul_sums([x, xz], [x, xz]) == {}


@st.composite
def _square_sums(draw):
    # strings drawn from a small pool, so that masks repeat and commuting
    # and anticommuting pairs mix; zero magnitudes and every phase included
    q = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << q) - 1)
    pool = draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=4))
    term = st.tuples(_magnitudes, _phases, st.sampled_from(pool))
    return draw(st.lists(term.map(lambda t: (t[0], t[1], *t[2])), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_square_sums())
@example([])
@example([(1, 0, 1, 0), (1, 0, 1, 1)])  # X + XZ: anticommuting, squares cancel
@example([(1, 0, 1, 0), (2, 1, 1, 0)])  # one string twice
@example([(1, 0, 1, 0), (-3, 0, 2, 0), (1, 1, 3, 3)])  # commuting pairs
@example([(0, 0, 1, 2), (1, 0, 0, 1), (1, 0, 3, 0), (1, 3, 3, 0)])
@example([(Fraction(1, 2), 1, 1, 0), (Fraction(-1, 2), 3, 1, 0)])  # (i/2)X twice
def test_square_sum_is_the_product_of_a_sum_with_itself(terms):
    got = pauli.square_sum(terms)
    assert got == pauli.mul_sums(terms, terms)
    assert all(got.values())
    n = 1 << max((x | z).bit_length() for _, _, x, z in terms) if terms else 1
    square = dense_terms(pauli.square_terms(terms), n)
    assert square == dense_terms(terms, n) @ dense_terms(terms, n)


@st.composite
def _commuting_sums(draw):
    # masks drawn from the span of random commuting strings, so the sums
    # hold dependent strings S, P and S*P, strings with odd |x&z|, zero
    # magnitudes and every phase, and strings repeated across sums
    q = draw(st.integers(0, 3))
    n = 1 << q
    masks = st.integers(0, n - 1)
    span = {(0, 0)}
    for gx, gz in draw(st.lists(st.tuples(masks, masks), max_size=4)):
        if not any(pauli.parity((x & gz) ^ (z & gx)) for x, z in span):
            span |= {(x ^ gx, z ^ gz) for x, z in span}
    term = st.tuples(_magnitudes, _phases, st.sampled_from(sorted(span)))
    terms = st.lists(term.map(lambda t: (t[0], t[1], *t[2])), max_size=5)
    return draw(st.lists(terms, min_size=1, max_size=3)), n


@settings(max_examples=200, deadline=None)
@given(_commuting_sums())
@example(([[]], 1))
@example(([[(0, 0, 0, 0)], [(2, 0, 0, 0), (1, 1, 0, 0)]], 2))
# XX, ZZ and their product, which repeats XX with a complex coefficient
@example(([[(1, 0, 3, 0), (1, 0, 0, 3)], [(2, 0, 3, 3), (1, 1, 3, 0)]], 4))
# XZ on the low qubit squares to -1, so its eigenvalues are +-i
@example(([[(1, 0, 1, 1)], [(1, 1, 1, 1), (0, 0, 2, 0)]], 4))
@example(([[(1, 0, 1, 1), (1, 0, 6, 4), (3, 1, 6, 4)], [(1, 0, 7, 5)]], 8))
@example(([[(Fraction(1, 3), 3, 1, 0), (Fraction(-1, 3), 1, 1, 0)]], 2))  # cancels
def test_joint_spectrum_matches_dense_nullities(s):
    sums, n = s
    got = pauli.joint_spectrum(sums, n)
    assert sum(got.values()) == n
    for values, dim in got.items():
        rows = [
            row
            for terms, v in zip(sums, values)
            for row in (dense_terms(terms, n) - ExactMatrix.identity(n).scale(v)).rows
        ]
        assert len(exact.nullspace(rows, n)) == dim, values


@pytest.mark.parametrize(
    "sums",
    [
        [[(1, 0, 1, 0)], [(1, 0, 0, 1)]],  # X and Z
        [[(1, 0, 1, 0), (1, 0, 0, 1)]],  # X + Z commutes with itself, X with Z not
        [[(1, 0, 3, 0)], [(1, 0, 0, 3)], [(2, 1, 1, 0)]],  # X0 and ZZ
    ],
)
def test_joint_spectrum_refuses_anticommuting_strings(sums):
    with pytest.raises(ArithmeticError, match="do not commute"):
        pauli.joint_spectrum(sums, 4)


def test_joint_spectrum_refuses_a_string_wider_than_n():
    with pytest.raises(ValueError, match="does not act on 4 states"):
        pauli.joint_spectrum([[(1, 0, 0, 0)], [(1, 0, 4, 0)]], 4)


def test_joint_spectrum_skips_strings_that_add_to_zero():
    # Z - Z is no string of the sum, so it cannot anticommute with X
    sums = [[(1, 0, 1, 0)], [(1, 0, 0, 1), (1, 2, 0, 1), (0, 0, 1, 1)]]
    zero = ExactScalar(0)
    assert pauli.joint_spectrum(sums, 2) == {(ONE, zero): 1, (-ONE, zero): 1}


def _canonical(terms):
    """{(x, z): r * i^k summed} with the zeros dropped, by the oracle's
    scalar arithmetic."""
    out = {}
    for r, k, x, z in terms:
        out[x, z] = out.get((x, z), ExactScalar(0)) + term_scalar(r, k)
    return {key: c for key, c in out.items() if c}


@st.composite
def _complex_matrices(draw):
    n = 1 << draw(st.integers(0, 3))
    parts = st.tuples(_rationals, _rationals).map(lambda p: ExactScalar(*p))
    entries = draw(st.lists(st.just(exact.ZERO) | parts, min_size=n * n, max_size=n * n))
    return ExactMatrix._make([entries[i * n : (i + 1) * n] for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(_complex_matrices(), st.data())
@example(ExactMatrix([[ExactScalar(Fraction(1, 3), -2)]]), None)
def test_expand_round_trips_complex_matrices(m, data):
    # m -> terms -> m through the oracle's own encoding, and terms ->
    # matrix -> terms for random terms on the same n
    n = m.dim
    terms = pauli.expand(m)
    assert dense_terms(terms, n) == m
    assert all(r and k in (0, 1) for r, k, _, _ in terms)
    assert len({(k, x, z) for _, k, x, z in terms}) == len(terms)
    if data is not None:
        drawn = data.draw(st.lists(_terms(st.integers(0, n - 1), _magnitudes), max_size=6))
        again = pauli.expand(pauli.encode_sum(drawn, n))
        assert _canonical(again) == _canonical(drawn)


def test_solve_affine_lists_every_solution():
    # s0 ^ s1 = 1, s1 = 0 over three bits: s = 0b001 and 0b101
    assert pauli.solve_affine([(0b011, 1), (0b010, 0)], 3) == [0b001, 0b101]
    assert pauli.solve_affine([(0b011, 1), (0b011, 0)], 3) == []
    assert pauli.solve_affine([], 2) == [0, 1, 2, 3]


def test_solve_tau_reaches_the_first_string_branch(monkeypatch):
    # with the momenta alone every string commutes with every constraint:
    # all 16 strings at d=4 solve, and no basis element is invertible
    real = DiracModel.generators.func
    momenta = property(lambda model: [g for g in real(model) if g[0] == "Pk"])
    # verify_tau reads every generator, and the row builder is given the
    # reference rows of the same momenta
    monkeypatch.setattr(DiracModel, "generators", momenta)
    monkeypatch.setattr(
        symmetry,
        "_string_rows",
        lambda model, cand, include_j: reference_string_rows(
            model, cand, include_j, model.generators
        ),
    )
    model = model_for(4)
    sol = solve_tau(model, PARITY)
    assert sol.dim == 16
    assert not any(b.determinant() for b in sol.basis)
    assert sol.invertible_representative == ExactMatrix.identity(4)
    assert verify_tau(model, PARITY, sol.invertible_representative)


def _inconsistency_json(found):
    return [(i["generator"], i["monomial"], i["scale"].to_json()) for i in found]


def _generating_set(model):
    """P0, Pk and J0k: every generator but the rotations."""
    return [g for g in model.generators if g[0] != "Jkl"]


def _assert_row_set(rows, found, want_rows, every):
    """A cell with an orbital inconsistency has the one row 0 = 1, which
    the reference holds too.  One with none has distinct rows, without
    the true identity row 0 = 0, among the other reference rows, and
    equal to them unless the reference reads ``every`` generator."""
    if found:
        assert rows == [(0, 1)]
        assert (0, 1) in want_rows
        return
    assert len(set(rows)) == len(rows)
    want = set(want_rows) - {(0, 0)}
    assert set(rows) <= want if every else set(rows) == want


def _assert_rows_match_reference(model, cand, include_j, generators=None, got=None):
    """The solver's rows, or the rows ``got``, against the scalar
    reference over ``generators``, every generator by default: the row
    set of ``_assert_row_set``, equal to the reference rows when the
    reference reads only what the solver reads, and the same solution
    strings and orbital inconsistencies."""
    rows, found = got if got is not None else symmetry._string_rows(model, cand, include_j)
    want_rows, want_found = reference_string_rows(model, cand, include_j, generators)
    _assert_row_set(rows, found, want_rows, generators is None)
    nbits = 2 * pauli.qubits(model.dim)
    assert pauli.solve_affine(rows, nbits) == pauli.solve_affine(want_rows, nbits)
    assert _inconsistency_json(found) == _inconsistency_json(want_found)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12, 14, 16])
def test_rows_match_scalar_reference(d):
    # the type-table rows against the reference over every generator, and
    # row for row over the generating set, whose term types it reads
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for cand in CANDIDATES.values():
            for include_j in (True, False):
                _assert_rows_match_reference(model, cand, include_j)
                _assert_rows_match_reference(model, cand, include_j, _generating_set(model))


_positive = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)


@settings(max_examples=100, deadline=None)
@given(
    d=st.sampled_from([2, 4, 6]),
    mass=_positive,
    branch=st.sampled_from([1, -1]),
    doubled=st.booleans(),
    name=st.sampled_from(sorted(CANDIDATES)),
    include_j=st.booleans(),
    tilt=st.none()
    | st.tuples(st.sampled_from(GENERATOR_CLASSES), _positive, st.sampled_from([0, 2])),
)
@example(
    d=4, mass=Fraction(2, 3), branch=-1, doubled=False, name="C", include_j=True,
    tilt=("P0", Fraction(3), 2),
)
@example(
    d=4, mass=Fraction(5, 2), branch=1, doubled=True, name="Tw", include_j=True,
    tilt=("Jkl", Fraction(1, 2), 0),
)
def test_sign_rule_ignores_the_rational_size(d, mass, branch, doubled, name, include_j, tilt):
    # bm*beta carries q = branch*mass; a tilt scales one generator class
    # by the real factor +-q
    model = model_for(d, mass=mass, branch=branch, doubled=doubled)
    cand = CANDIDATES[name]
    if tilt is None:
        # the type table, which reads the mass through bm*beta alone
        _assert_rows_match_reference(model, cand, include_j, _generating_set(model))
        _assert_rows_match_reference(model, cand, include_j)
        return
    # the reference over the tilted dicts decides as the type table does:
    # 0 = 1 alone for a cell with an inconsistency, else the same rows over
    # the generating set, among its rows over every generator, and the
    # same solutions and the same inconsistency positions
    cls, q, phase = tilt
    rows, found = symmetry._string_rows(model, cand, include_j)
    nbits = 2 * pauli.qubits(model.dim)
    for gens, every in ((_generating_set(model), False), (model.generators, True)):
        want_rows, want_found = reference_string_rows(
            model, cand, include_j, _tilted(gens, cls, (q, phase))
        )
        _assert_row_set(rows, found, want_rows, every)
        assert pauli.solve_affine(rows, nbits) == pauli.solve_affine(want_rows, nbits)
        assert [(i["generator"], i["monomial"]) for i in found] == [
            (i["generator"], i["monomial"]) for i in want_found
        ]


def test_cell_costs_quadratically_many_string_products(monkeypatch):
    # 1 + 2d + d(d-1) products bound an O(d^2) cell; recomputing the
    # alphas per generator call costs O(d^3), 541 products at d = 8
    d = 8
    model = model_for(d)
    calls = []
    real = pauli.mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(pauli, "mul", counting)
    sol = solve_tau(model, TW)
    assert sol.exists
    assert len(calls) <= 1 + 2 * d + d * (d - 1)


def test_cell_makes_no_string_product(monkeypatch):
    # the rows come from the masks of the gamma strings: no alpha, and no
    # rotation spin term alpha_l*alpha_k, is multiplied out
    d = 8
    model = model_for(d)
    calls = []
    real = pauli.mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(pauli, "mul", counting)
    sol = solve_tau(model, TW)
    assert sol.exists
    assert calls == []


def test_every_candidate_reads_at_most_d_plus_1_rows():
    # the d alphas and beta, with one right-hand side each: no identity
    # row and no Jkl row, which would add d(d-1)/2 more.  Tp-literal fails
    # its Pk identity terms and reads the one row 0 = 1
    d = 64
    counts = []
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for name, cand in CANDIDATES.items():
            for include_j in (True, False):
                rows, _ = symmetry._string_rows(model, cand, include_j)
                counts.append(len(rows))
                assert len(rows) <= d + 1, (variant, name, include_j)
    assert max(counts) == d + 1


@pytest.mark.parametrize("d", range(18, 34, 2))
def test_generating_set_rows_solve_as_every_generator(d):
    # the rows of P0, Pk and J0k against the reference over every
    # generator, Jkl included, and over the generating set, above the
    # range of the row-set test
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for cand in CANDIDATES.values():
            for include_j in (True, False):
                _assert_rows_match_reference(model, cand, include_j)
                _assert_rows_match_reference(model, cand, include_j, _generating_set(model))


# Tw with commuting rotations: eps(Jkl) = +1 against (-1)^antilinear = -1
TW_COMMUTING_J = SymmetryCandidate(
    name="Tw-commuting-J",
    antilinear=True,
    t_sign=-1,
    x_sign=1,
    signature=(("P0", 1), ("Pk", -1), ("Jkl", 1), ("J0k", 1)),
)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_candidate_off_the_rule_reads_every_generator(d, variant):
    # the reference reads every generator, Jkl included; the solver stops
    # at the failing Jkl identity terms, with the one row 0 = 1
    model = model_for_variant(d, variant)
    assert TW_COMMUTING_J.eps("Jkl") != -1
    _assert_rows_match_reference(model, TW_COMMUTING_J, True, model.generators)
    if d == 4:
        got = solve_tau(model, TW_COMMUTING_J, variant=variant)
        want = dense_solve_tau(model, TW_COMMUTING_J, variant=variant)
        assert _cert_bytes(got) == _cert_bytes(want)


def test_a_d256_cell_builds_no_generator(monkeypatch):
    d = 256
    built = Counter()
    real = models.generator

    def counting(model, which, k=0, l=0):
        built[which] += 1
        return real(model, which, k=k, l=l)

    monkeypatch.setattr(models, "generator", counting)
    model = model_for(d)
    for include_j in (True, False):
        rows, found = symmetry._string_rows(model, TW, include_j)
        assert pauli.solve_affine(rows, 2 * pauli.qubits(model.dim)) and not found
    assert built == {}
    assert len(rows) == d + 1  # the d alphas and beta


def test_a_d64_cell_off_the_rule_builds_no_generator(monkeypatch):
    # an off-rule cell stops at its failing Jkl identity terms: it builds
    # no generator and multiplies no string, though it lists d(d-1)
    # orbital inconsistencies
    d = 64
    built = Counter()
    real = models.generator

    def counting(model, which, k=0, l=0):
        built[which] += 1
        return real(model, which, k=k, l=l)

    monkeypatch.setattr(models, "generator", counting)
    monkeypatch.setattr(pauli, "mul", _refuse)
    model = model_for(d)
    sol = solve_tau(model, TW_COMMUTING_J)
    assert not sol.exists
    assert built == {}
    # two identity terms of each rotation fail; the Pk and J0k ones hold
    assert len(sol.orbital_inconsistencies) == d * (d - 1)


def _refuse(*args, **kwargs):
    raise AssertionError("a type-table cell multiplied strings or scalars")


@pytest.mark.parametrize("d", [8, 256])
def test_a_rule_cell_makes_no_product_or_scalar_arithmetic(monkeypatch, d):
    # the built-in candidates other than Tp-literal have no orbital
    # inconsistency, so they touch no exact scalar beyond reading c.im
    model = model_for(d)
    monkeypatch.setattr(models, "generator", _refuse)
    monkeypatch.setattr(pauli, "mul", _refuse)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "conjugate"):
        monkeypatch.setattr(ExactScalar, op, _refuse)
    for name, cand in CANDIDATES.items():
        if name == "Tp-literal":
            continue
        for include_j in (True, False):
            _, found = symmetry._string_rows(model, cand, include_j)
            assert not found, name
            if d == 8:
                solve_tau(model, cand, include_j=include_j)


def _sign_data():
    """Every candidate, one per sign datum: 128 of them, 64 with
    eps(Jkl) = (-1)^antilinear and 64 off that rule."""
    for antilinear, t_sign, x_sign, p0, pk, jkl, j0k in itertools.product(
        (False, True), *[(1, -1)] * 6
    ):
        sig = (("P0", p0), ("Pk", pk), ("Jkl", jkl), ("J0k", j0k))
        yield SymmetryCandidate("datum", antilinear, t_sign, x_sign, sig)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_type_rows_hold_for_every_rule_candidate(d):
    # the built-in candidates share some rows between types (bm*beta of
    # P0 and of J0k, for one); a signature off them tells every type apart.
    # A candidate on the rule is compared with the reference over the
    # generating set, one off it over every generator: its failing Jkl
    # identity terms leave the one row 0 = 1 and no solution string
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for cand in _sign_data():
            off_rule = cand.eps("Jkl") != (-1 if cand.antilinear else 1)
            gens = model.generators if off_rule else _generating_set(model)
            for include_j in (True, False):
                got = symmetry._string_rows(model, cand, include_j)
                _assert_rows_match_reference(model, cand, include_j, gens, got)
                if off_rule and include_j:
                    assert not pauli.solve_affine(got[0], 2 * pauli.qubits(model.dim))


def _classical(cand):
    """eps(Pk), eps(Jkl) and eps(J0k) equal the signs of their identity
    terms p_k, x_k*p_l and t*p_k."""
    p_sign = -cand.x_sign if cand.antilinear else cand.x_sign
    return (cand.eps("Pk"), cand.eps("Jkl"), cand.eps("J0k")) == (
        p_sign, cand.x_sign * p_sign, cand.t_sign * p_sign
    )


class _ReadTypes(Exception):
    pass


def _read_types(model):
    raise _ReadTypes


def test_a_non_classical_cell_stops_at_its_identity_terms(monkeypatch):
    # a failing identity term decides the cell before any other type is
    # read: the 112 non-classical sign data get the one row 0 = 1, and
    # only the 16 classical ones reach the gamma strings
    d = 32
    monkeypatch.setattr(symmetry, "_type_strings", _read_types)
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        classical = []
        for cand in _sign_data():
            try:
                rows, found = symmetry._string_rows(model, cand, True)
            except _ReadTypes:
                classical.append(cand)
                continue
            assert rows == [(0, 1)] and found, (variant, cand)
            assert not _classical(cand), (variant, cand)
        assert len(classical) == 16 and all(map(_classical, classical)), variant


def _rotation_labels(d):
    return [models.rotation_label(k, l) for k, l in itertools.combinations(range(1, d + 1), 2)]


def test_rotation_labels_are_distinct():
    # one label per rotation at any d, the d <= 9 ones as they were; an
    # off-rule cell lists each of its two failing terms under its label
    labels = _rotation_labels(214)
    assert len(set(labels)) == len(labels) == 214 * 213 // 2
    assert _rotation_labels(9) == [f"J{k}{l}" for k, l in itertools.combinations(range(1, 10), 2)]
    assert models.rotation_label(11, 12) == "J11,12"
    _, found = symmetry._string_rows(model_for(112), TW_COMMUTING_J, True)
    assert Counter(i["generator"] for i in found) == dict.fromkeys(_rotation_labels(112), 2)
    generators = model_for(12).generators
    assert [label for cls, label, _ in generators if cls == "Jkl"] == _rotation_labels(12)


@pytest.mark.parametrize("doubled", [False, True])
def test_type_strings_read_the_gamma_coefficients(doubled):
    # the masks and the imaginary bit against the alpha and beta terms
    # that the gamma system and the model multiply out, and against the
    # imaginary part of the oracle's scalar
    for d in range(2, 130, 2):
        model = model_for(d, doubled=doubled)
        nq = pauli.qubits(model.dim)
        alphas, beta = symmetry._type_strings(model)
        want = [
            (pauli.symplectic_mask(x, z, nq), bool(term_scalar(r, k).im))
            for r, k, x, z in model.gamma.alpha
        ]
        r, k, x, z = model.beta_string
        assert alphas == want, d
        assert beta == (pauli.symplectic_mask(x, z, nq), bool(term_scalar(r, k).im)), d
    assert symmetry._type_strings(model_for(4, mass=0))[1] is None


def _count_scalars(monkeypatch) -> list:
    """Count every ExactScalar made, through __init__ or _make."""
    made = []
    init, make = ExactScalar.__init__, ExactScalar._make.__func__

    def counting_init(self, *args):
        made.append(1)
        init(self, *args)

    def counting_make(cls, *args):
        made.append(1)
        return make(cls, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting_init)
    monkeypatch.setattr(ExactScalar, "_make", classmethod(counting_make))
    return made


def test_unit_strings_make_no_exact_scalars(monkeypatch):
    # gamma, alpha and beta terms carry an int magnitude and a phase
    # exponent, and a momentum scales the magnitude alone; the dispersion
    # check makes the identity coefficient of H(p)^2 and omega2
    model = model_for(128, mass=Fraction(3, 7))
    p = [Fraction((-1) ** k * (k + 1), k + 2) for k in range(128)]
    made = _count_scalars(monkeypatch)
    models.system_for(128).alpha
    assert made == []
    assert len(model.hamiltonian_strings(p)) == 129
    assert made == []
    fresh = model_for(8, mass=Fraction(3, 7), doubled=True)
    assert spectra.dispersion_check(fresh, p[:8])["ok"]
    assert len(made) <= 2
