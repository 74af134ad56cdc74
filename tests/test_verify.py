"""``verify_tau`` on Pauli strings against the dense symbol algebra."""

import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from diracsym import ExactMatrix, ExactScalar, exact, pauli, solve_tau, verify_tau
from diracsym.exact import ONE, ZERO
from diracsym.symmetry import CANDIDATES, TW, VARIANTS, model_for_variant, transform

from dense_oracle import dense_transform, dense_verify_tau, symbol


@cache
def _cell(d, variant, name):
    model = model_for_variant(d, variant)
    return model, solve_tau(model, CANDIDATES[name]).basis


# (accepted, rejected) (basis element, candidate) pairs over every cell of
# one d, each basis element checked against all 8 candidates: 129 and 487
# over d <= 6
_VERDICTS = {2: (41, 159), 4: (47, 169), 6: (41, 159)}


@pytest.mark.parametrize("d", [2, 4, 6])
def test_verify_tau_matches_dense_oracle_on_every_basis_element(d):
    verdicts = []
    for variant in VARIANTS:
        for name in CANDIDATES:
            model, basis = _cell(d, variant, name)
            for b in basis:
                for other in CANDIDATES.values():
                    got = verify_tau(model, other, b)
                    assert got == dense_verify_tau(model, other, b), (
                        variant, name, other.name,
                    )
                    verdicts.append(got)
    assert (verdicts.count(True), verdicts.count(False)) == _VERDICTS[d]


def test_transform_matches_dense_transform():
    for variant in VARIANTS:
        model = model_for_variant(4, variant)
        for cand in CANDIDATES.values():
            for _, label, g in model.generators:
                got = symbol(model, transform(g, cand))
                assert got == dense_transform(symbol(model, g), cand), label


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
_scalars = st.tuples(_rationals, _rationals).map(lambda p: ExactScalar(*p))
_nonzero = _scalars.filter(bool)
_solved = st.sampled_from(
    [(d, v, name) for d in (2, 4, 6) for v in VARIANTS for name in CANDIDATES]
).filter(lambda cell: _cell(*cell)[1])


@st.composite
def _combinations(draw):
    """A random rational combination of a cell's basis, one entry (i, j)
    and a nonzero shift for it, and a second candidate."""
    d, variant, name = draw(_solved)
    model, basis = _cell(d, variant, name)
    tau = ExactMatrix.zero(model.dim)
    for b in basis:
        tau = tau + b.scale(draw(_scalars))
    entry = st.integers(0, model.dim - 1)
    shift = (draw(entry), draw(entry), draw(_nonzero))
    return model, CANDIDATES[name], tau, shift, draw(st.sampled_from(sorted(CANDIDATES)))


@settings(max_examples=40, deadline=None)
@given(_combinations())
def test_verify_tau_matches_dense_oracle_on_combinations(case):
    model, cand, tau, (i, j, shift), other = case
    assert verify_tau(model, cand, tau)
    assert dense_verify_tau(model, cand, tau)
    # a single-entry matrix solves no cell: it holds all n strings of one
    # x mask, and no cell's rows admit all of them, as P0 holds an alpha
    # string with nonzero x
    rows = [list(r) for r in tau.rows]
    rows[i][j] = rows[i][j] + shift
    bad = ExactMatrix._make(rows)
    assert not verify_tau(model, cand, bad)
    assert not dense_verify_tau(model, cand, bad)
    other = CANDIDATES[other]
    assert verify_tau(model, other, tau) == dense_verify_tau(model, other, tau)


@st.composite
def _matrices(draw):
    n = 1 << draw(st.integers(0, 3))
    entries = draw(st.lists(st.just(ZERO) | _scalars, min_size=n * n, max_size=n * n))
    return ExactMatrix._make([entries[i * n : (i + 1) * n] for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(_matrices())
@example(ExactMatrix.zero(4))
@example(ExactMatrix.identity(8))
@example(ExactMatrix([[ONE]]))
def test_expand_inverts_encode_sum(m):
    terms = pauli.expand(m)
    assert pauli.encode_sum(terms, m.dim) == m
    # a coefficient a + b*i is the terms (a, 0, x, z) and (b, 1, x, z)
    assert all(r and k in (0, 1) for r, k, _, _ in terms)
    assert len({(k, x, z) for _, k, x, z in terms}) == len(terms)


@pytest.mark.parametrize("size", [2, 8])
def test_verify_tau_refuses_a_tau_of_another_size(size):
    model = model_for_variant(4, "single")
    tau = ExactMatrix.identity(size)
    with pytest.raises(ValueError, match=rf"tau is {size}x{size}, .* acts on 4 states"):
        verify_tau(model, TW, tau)


def test_verify_tau_multiplies_no_dense_matrices(monkeypatch):
    model = model_for_variant(8, "doubled")
    tau = solve_tau(model, TW).invertible_representative
    real = exact.matmul
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("diracsym") and getattr(mod, "matmul", None) is real:
            monkeypatch.setattr(mod, "matmul", counting)
    assert verify_tau(model, TW, tau)
    assert calls == []
    tau @ tau  # the counter sees a dense product
    assert calls == [1]
