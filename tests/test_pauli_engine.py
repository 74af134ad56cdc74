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
from diracsym import exact, models, symmetry
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

from dense_oracle import dense_solve_tau, reference_string_rows

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
    model = model_for_variant(d, variant)
    for name, cand in CANDIDATES.items():
        got = solve_tau(model, cand, ansatz="clifford2", variant=variant)
        want = dense_solve_tau(model, cand, ansatz="clifford2", variant=variant)
        assert _cert_bytes(got) == _cert_bytes(want), name


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


def _tilted(real, cls, factor):
    """``generator`` with every coefficient of one class scaled by factor."""

    def gen(model, which, k=0, l=0):
        g = real(model, which, k=k, l=l)
        if which == cls:
            g = {mono: (c * factor, x, z) for mono, (c, x, z) in g.items()}
        return g

    return gen


def test_ratio_off_the_unit_signs_empties_the_cell(monkeypatch):
    # a (1+i)*I momentum coefficient: an antilinear candidate meets
    # r = +-(1+i)/(1-i) = +-i, which no string and no dense tau satisfies.
    # The type table reads no generator, so the cells take the per-term
    # path over every generator, which reads the tilted ones.
    monkeypatch.setattr(
        models, "generator", _tilted(models.generator, "Pk", ExactScalar(1, 1))
    )
    monkeypatch.setattr(symmetry, "_reads_generating_set", lambda cand: False)
    model = model_for(4)
    for name in ("P", "Tw", "C", "TpC"):
        got = solve_tau(model, CANDIDATES[name])
        want = dense_solve_tau(model, CANDIDATES[name])
        assert _cert_bytes(got) == _cert_bytes(want), name
        assert got.exists == (not CANDIDATES[name].antilinear), name


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_nonzero = st.tuples(_rationals, _rationals).filter(any).map(lambda p: ExactScalar(*p))


@st.composite
def _string_pairs(draw):
    q = draw(st.integers(0, 3))
    n = 1 << q
    masks = st.integers(0, n - 1)
    a = (draw(_nonzero), draw(masks), draw(masks))
    b = (draw(_nonzero), draw(masks), draw(masks))
    return a, b, n


@settings(max_examples=200, deadline=None)
@given(_string_pairs())
def test_string_product_matches_dense_matmul(s):
    a, b, n = s
    assert pauli.encode(*pauli.mul(a, b), n) == pauli.encode(*a, n) @ pauli.encode(*b, n)
    # the encoding is the product of one-qubit factors X^x Z^z
    c, x, z = a
    for r, row in enumerate(pauli.encode(c, x, z, n).rows):
        col = r ^ x
        sign = (-1) ** bin(col & z).count("1")
        assert [j for j, v in enumerate(row) if v] == [col]
        assert row[col] == c * ExactScalar(sign)


@st.composite
def _string_sums(draw):
    q = draw(st.integers(0, 3))
    n = 1 << q
    masks = st.integers(0, n - 1)
    term = st.tuples(_nonzero, masks, masks)
    return draw(st.lists(term, max_size=4)), draw(st.lists(term, max_size=4)), n


def _dense_sum(terms, n):
    total = ExactMatrix.zero(n)
    for t in terms:
        total = total + pauli.encode(*t, n)
    return total


@settings(max_examples=200, deadline=None)
@given(_string_sums())
def test_string_sums_match_dense_sums_and_products(s):
    a, b, n = s
    dense_a = _dense_sum(a, n)
    assert pauli.encode_sum(a, n) == dense_a
    product = pauli.mul_sums(a, b)
    assert all(product.values())
    terms = [(c, x, z) for (x, z), c in product.items()]
    assert pauli.encode_sum(terms, n) == dense_a @ _dense_sum(b, n)


def test_string_sum_product_cancels_to_empty():
    # (X + Z)(X - Z) = 1 - XZ + ZX - 1 = -2XZ, and (X + XZ)^2 = 0 because
    # XZ anticommutes with X and squares to -1
    x, z, xz = (ONE, 1, 0), (ONE, 0, 1), (ONE, 1, 1)
    assert pauli.mul_sums([x, z], [x, (-ONE, 0, 1)]) == {(1, 1): ExactScalar(-2)}
    assert pauli.mul_sums([x, xz], [x, xz]) == {}


_coefficients = st.tuples(_rationals, _rationals).map(lambda p: ExactScalar(*p))


@st.composite
def _square_sums(draw):
    # strings drawn from a small pool, so that masks repeat and commuting
    # and anticommuting pairs mix; zero and complex coefficients included
    q = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << q) - 1)
    pool = draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=4))
    term = st.tuples(_coefficients, st.sampled_from(pool)).map(lambda t: (t[0], *t[1]))
    return draw(st.lists(term, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_square_sums())
@example([])
@example([(ONE, 1, 0), (ONE, 1, 1)])  # X + XZ: anticommuting, squares cancel
@example([(ONE, 1, 0), (ExactScalar(0, 2), 1, 0)])  # one string twice
@example([(ONE, 1, 0), (ExactScalar(-3), 2, 0), (I_UNIT, 3, 3)])  # commuting pairs
@example([(ExactScalar(0), 1, 2), (ONE, 0, 1), (ExactScalar(1, -1), 3, 0)])
def test_square_sum_is_the_product_of_a_sum_with_itself(terms):
    got = pauli.square_sum(terms)
    assert got == pauli.mul_sums(terms, terms)
    assert all(got.values())


@st.composite
def _commuting_sums(draw):
    # masks drawn from the span of random commuting strings, so the sums
    # hold dependent strings S, P and S*P, strings with odd |x&z|, zero
    # and complex coefficients, and strings repeated across sums
    q = draw(st.integers(0, 3))
    n = 1 << q
    masks = st.integers(0, n - 1)
    span = {(0, 0)}
    for gx, gz in draw(st.lists(st.tuples(masks, masks), max_size=4)):
        if not any(pauli.parity((x & gz) ^ (z & gx)) for x, z in span):
            span |= {(x ^ gx, z ^ gz) for x, z in span}
    term = st.tuples(_coefficients, st.sampled_from(sorted(span)))
    terms = st.lists(term.map(lambda t: (t[0], *t[1])), max_size=5)
    return draw(st.lists(terms, min_size=1, max_size=3)), n


@settings(max_examples=200, deadline=None)
@given(_commuting_sums())
@example(([[]], 1))
@example(([[(ExactScalar(0), 0, 0)], [(ExactScalar(2, 1), 0, 0)]], 2))
# XX, ZZ and their product, which repeats XX with a complex coefficient
@example(([[(ONE, 3, 0), (ONE, 0, 3)], [(ExactScalar(2), 3, 3), (I_UNIT, 3, 0)]], 4))
# XZ on the low qubit squares to -1, so its eigenvalues are +-i
@example(([[(ONE, 1, 1)], [(I_UNIT, 1, 1), (ExactScalar(0), 2, 0)]], 4))
@example(([[(ONE, 1, 1), (ExactScalar(1, 3), 6, 4)], [(ONE, 7, 5)]], 8))
def test_joint_spectrum_matches_dense_nullities(s):
    sums, n = s
    got = pauli.joint_spectrum(sums, n)
    assert sum(got.values()) == n
    for values, dim in got.items():
        rows = [
            row
            for terms, v in zip(sums, values)
            for row in pauli.encode_sum([*terms, (-v, 0, 0)], n).rows
        ]
        assert len(exact.nullspace(rows, n)) == dim, values


@pytest.mark.parametrize(
    "sums",
    [
        [[(ONE, 1, 0)], [(ONE, 0, 1)]],  # X and Z
        [[(ONE, 1, 0), (ONE, 0, 1)]],  # X + Z commutes with itself, X with Z not
        [[(ONE, 3, 0)], [(ONE, 0, 3)], [(ExactScalar(0, 2), 1, 0)]],  # X0 and ZZ
    ],
)
def test_joint_spectrum_refuses_anticommuting_strings(sums):
    with pytest.raises(ArithmeticError, match="do not commute"):
        pauli.joint_spectrum(sums, 4)


def test_joint_spectrum_refuses_a_string_wider_than_n():
    with pytest.raises(ValueError, match="does not act on 4 states"):
        pauli.joint_spectrum([[(ONE, 0, 0)], [(ONE, 4, 0)]], 4)


def test_joint_spectrum_skips_strings_that_add_to_zero():
    # Z - Z is no string of the sum, so it cannot anticommute with X
    sums = [[(ONE, 1, 0)], [(ONE, 0, 1), (-ONE, 0, 1), (ExactScalar(0), 1, 1)]]
    zero = ExactScalar(0)
    assert pauli.joint_spectrum(sums, 2) == {(ONE, zero): 1, (-ONE, zero): 1}


def test_solve_affine_lists_every_solution():
    # s0 ^ s1 = 1, s1 = 0 over three bits: s = 0b001 and 0b101
    assert pauli.solve_affine([(0b011, 1), (0b010, 0)], 3) == [0b001, 0b101]
    assert pauli.solve_affine([(0b011, 1), (0b011, 0)], 3) == []
    assert pauli.solve_affine([], 2) == [0, 1, 2, 3]


def test_solve_tau_reaches_the_first_string_branch(monkeypatch):
    # with the momenta alone every string commutes with every constraint:
    # all 16 strings at d=4 solve, and no basis element is invertible
    real = DiracModel.generating_set.func
    momenta = property(lambda model: [g for g in real(model) if g[0] == "Pk"])
    # the per-term path and verify_tau read every generator; the type
    # table reads none, so the cell is sent down the per-term path
    monkeypatch.setattr(DiracModel, "generators", momenta)
    monkeypatch.setattr(symmetry, "_reads_generating_set", lambda cand: False)
    model = model_for(4)
    sol = solve_tau(model, PARITY)
    assert sol.dim == 16
    assert not any(b.is_invertible() for b in sol.basis)
    assert sol.invertible_representative == ExactMatrix.identity(4)
    assert verify_tau(model, PARITY, sol.invertible_representative)


def _inconsistency_json(found):
    return [(i["generator"], i["monomial"], i["scale"].to_json()) for i in found]


def _assert_rows_match_reference(model, cand, include_j, generators=None, got=None):
    """The solver's rows, or the rows ``got``, against the scalar
    reference over ``generators``, every generator by default: the same
    solution strings and orbital inconsistencies, and rows among the
    reference rows, all of them when the reference reads only what the
    solver reads."""
    rows, found = got if got is not None else symmetry._string_rows(model, cand, include_j)
    want_rows, want_found = reference_string_rows(model, cand, include_j, generators)
    assert len(set(rows)) == len(rows)
    if generators is None:
        assert set(rows) <= set(want_rows)
    else:
        assert set(rows) == set(want_rows)
    nbits = 2 * pauli.qubits(model.dim)
    assert pauli.solve_affine(rows, nbits) == pauli.solve_affine(want_rows, nbits)
    assert _inconsistency_json(found) == _inconsistency_json(want_found)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12, 14, 16])
def test_rows_match_scalar_reference(d):
    # the type-table rows against the reference over every generator, and
    # row for row over the generating set, whose dicts it reads term by term
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for cand in CANDIDATES.values():
            for include_j in (True, False):
                _assert_rows_match_reference(model, cand, include_j)
                _assert_rows_match_reference(model, cand, include_j, model.generating_set)


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
    | st.tuples(
        st.sampled_from(GENERATOR_CLASSES),
        _positive,
        st.sampled_from([ONE, I_UNIT, -ONE, -I_UNIT, ExactScalar(1, 1), ExactScalar(2, -1)]),
    ),
)
@example(
    d=4, mass=Fraction(2, 3), branch=-1, doubled=False, name="C", include_j=True,
    tilt=("P0", Fraction(3), ExactScalar(1, 1)),
)
@example(
    d=4, mass=Fraction(5, 2), branch=1, doubled=True, name="Tw", include_j=True,
    tilt=("Pk", Fraction(1, 2), I_UNIT),
)
def test_sign_rule_ignores_the_rational_size(d, mass, branch, doubled, name, include_j, tilt):
    # bm*beta carries q = branch*mass; a tilt scales one generator class
    # by q*i^k, or by a factor neither real nor imaginary
    model = model_for(d, mass=mass, branch=branch, doubled=doubled)
    cand = CANDIDATES[name]
    if tilt is None:
        # the type table, which reads the mass through bm*beta alone
        _assert_rows_match_reference(model, cand, include_j, model.generating_set)
        _assert_rows_match_reference(model, cand, include_j)
    with pytest.MonkeyPatch.context() as mp:
        if tilt is not None:
            cls, q, phase = tilt
            factor = ExactScalar(q) * phase
            mp.setattr(models, "generator", _tilted(models.generator, cls, factor))
        # the per-term path, which reads the generator dicts, over the
        # generating set; a tilted Jkl class is no longer a bracket of
        # boosts, so only the rest must match all rows
        gens = [g for g in model.generating_set if include_j or g[0] != "J0k"]
        got = symmetry._generator_rows(model, cand, gens)
        _assert_rows_match_reference(model, cand, include_j, gens, got)
        if tilt is None or tilt[0] != "Jkl":
            _assert_rows_match_reference(model, cand, include_j, got=got)


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


def test_every_candidate_reads_the_generating_set():
    for cand in CANDIDATES.values():
        assert symmetry._reads_generating_set(cand), cand.name


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
                _assert_rows_match_reference(model, cand, include_j, model.generating_set)


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
    model = model_for_variant(d, variant)
    assert not symmetry._reads_generating_set(TW_COMMUTING_J)
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
    assert len(rows) == d + 2  # the d alphas, beta and the identity


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


def _rule_candidates():
    """Every candidate with eps(Jkl) = (-1)^antilinear: 64 of them."""
    for antilinear, t_sign, x_sign, p0, pk, j0k in itertools.product(
        (False, True), *[(1, -1)] * 5
    ):
        jkl = -1 if antilinear else 1
        sig = (("P0", p0), ("Pk", pk), ("Jkl", jkl), ("J0k", j0k))
        yield SymmetryCandidate("rule", antilinear, t_sign, x_sign, sig)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_type_rows_hold_for_every_rule_candidate(d):
    # the built-in candidates share some rows between types (bm*beta of
    # P0 and of J0k, for one); a signature off them tells every type apart
    for variant in VARIANTS:
        model = model_for_variant(d, variant)
        for cand in _rule_candidates():
            for include_j in (True, False):
                got = symmetry._type_rows(model, cand, include_j)
                _assert_rows_match_reference(
                    model, cand, include_j, model.generating_set, got
                )


@pytest.mark.parametrize("doubled", [False, True])
def test_type_strings_read_the_gamma_coefficients(doubled):
    # the masks and the imaginary bit against the alpha and beta strings
    # that the gamma system and the model multiply out
    for d in range(2, 130, 2):
        model = model_for(d, doubled=doubled)
        nq = pauli.qubits(model.dim)
        alphas, beta = symmetry._type_strings(model)
        want = [
            (pauli.symplectic_mask(x, z, nq), bool(c.im)) for c, x, z in model.gamma.alpha
        ]
        c, x, z = model.beta_string
        assert alphas == want, d
        assert beta == (pauli.symplectic_mask(x, z, nq), bool(c.im)), d
    assert symmetry._type_strings(model_for(4, mass=0))[1] is None
