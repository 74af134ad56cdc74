"""Gamma-system construction and Clifford-monomial bookkeeping."""

import dataclasses
import math
import re

import pytest

from diracsym import (
    ExactMatrix,
    GammaSystem,
    base_system,
    extend,
    monomial_basis,
    pauli,
    system_for,
)
from diracsym.exact import I_UNIT

from conftest import kron
from dense_oracle import (
    conj,
    dense_check_relations,
    is_anti_hermitian,
    is_hermitian,
    monomials_span_full_space,
    scalar_multiple_of_identity,
)
from gamma_reference import SIGMA1, SIGMA2, SIGMA3, kron_gammas


def test_base_system_gammas():
    gs = base_system()
    assert gs.d == 2 and gs.rep_dim == 2
    assert gs.gammas[0] == SIGMA3
    assert gs.gammas[1] == SIGMA3 @ SIGMA1
    assert gs.gammas[2] == SIGMA3 @ SIGMA2


def test_base_alphas_and_beta_are_paulis():
    gs = base_system()
    model_alphas = [gs.gammas[0] @ g for g in gs.gammas[1:]]
    assert model_alphas == [SIGMA1, SIGMA2]
    assert gs.gammas[0] == SIGMA3


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_string_gammas_match_kron_recursion(d):
    gs = system_for(d)
    assert list(gs.gammas) == kron_gammas(d)
    alphas = [pauli.encode(*s, gs.rep_dim) for s in gs.alpha]
    assert alphas == [gs.gammas[0] @ g for g in gs.gammas[1:]]


def test_alpha_strings_are_derived_once():
    gs = system_for(6)
    g0 = gs.strings[0]
    assert gs.alpha == tuple(pauli.mul(g0, g) for g in gs.strings[1:])
    assert gs.alpha is gs.alpha
    # derived: equality, hash and repr see only d and strings
    same = GammaSystem(d=6, strings=gs.strings)
    assert same == gs and hash(same) == hash(gs)
    assert "alpha" not in repr(gs)
    swapped = dataclasses.replace(gs, strings=(gs.strings[1], *gs.strings[1:]))
    assert swapped.alpha[0] == pauli.mul(gs.strings[1], gs.strings[1])


def test_monomials_carry_their_strings():
    gs = system_for(4)
    for mon in monomial_basis(gs, 5):
        want = ExactMatrix.identity(4)
        for idx in mon.index_subset:
            want = want @ gs.gammas[idx]
        assert pauli.encode(*mon.string, 4) == want


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_clifford_relations_exact(d):
    gs = system_for(d)
    assert gs.rep_dim == 2 ** (d // 2)
    assert all(r["ok"] for r in dense_check_relations(gs))


def test_extension_new_gamma_example():
    gs = extend(base_system())
    assert gs.d == 4 and gs.rep_dim == 4
    assert gs.gammas[4] == kron(ExactMatrix.identity(2), SIGMA1).scale(I_UNIT)


def test_gamma0_hermitian_spatial_antihermitian():
    gs = system_for(6)
    assert is_hermitian(gs.gammas[0])
    for g in gs.gammas[1:]:
        assert is_anti_hermitian(g)


def test_alpha_reality_pattern():
    """alpha_k = gamma0*gamma_k: odd k real, even k imaginary; beta real."""
    for d in (2, 4, 6, 8):
        gs = system_for(d)
        assert conj(gs.gammas[0]) == gs.gammas[0]
        for k, g in enumerate(gs.gammas[1:], start=1):
            a = gs.gammas[0] @ g
            if k % 2:
                assert conj(a) == a
            else:
                assert conj(a) == -a


def test_monomial_basis_counts():
    gs = system_for(4)
    mons = monomial_basis(gs, 2)
    assert len(mons) == 1 + 5 + math.comb(5, 2)
    full = monomial_basis(gs, 5)
    assert len(full) == 2**5


def test_monomial_basis_ordering_deterministic():
    gs = system_for(4)
    subsets = [m.index_subset for m in monomial_basis(gs, 2)]
    assert subsets[0] == ()
    degrees = [len(s) for s in subsets]
    assert degrees == sorted(degrees)
    assert subsets == sorted(subsets, key=lambda s: (len(s), s))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_monomials_span_full_matrix_space(d):
    assert monomials_span_full_space(system_for(d))


def test_product_of_all_gammas_is_scalar():
    """At d=4 the ordered product of the five gammas is proportional to I."""
    gs = system_for(4)
    prod = ExactMatrix.identity(4)
    for g in gs.gammas:
        prod = prod @ g
    assert scalar_multiple_of_identity(prod) is not None


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        system_for(3)
    with pytest.raises(ValueError):
        system_for(0)


def test_check_relations_report_shape():
    gs = system_for(2)
    report = gs.check_relations()
    assert len(report) == 6  # unordered pairs including diagonal for 3 gammas
    assert all(r["ok"] for r in report)


def _mutants(gs):
    """Unit-magnitude systems near gs: one gamma with its phase exponent
    raised by 1 or 2, replaced by its neighbour, or replaced by the
    product of its two neighbours."""
    s = gs.strings
    m = len(s)
    out = []
    for i, (r, k, x, z) in enumerate(s):
        left, right = s[(i - 1) % m], s[(i + 1) % m]
        for g in ((r, k + 1, x, z), (r, k + 2, x, z), right, pauli.mul(left, right)):
            out.append(GammaSystem(d=gs.d, strings=s[:i] + (g,) + s[i + 1 :]))
    return out


def test_string_relations_match_the_dense_report():
    """check_relations reads each pair off the terms; the dense report
    multiplies the encoded gammas.  They agree pair by pair."""
    systems = [system_for(d) for d in (2, 4, 6, 8, 10)]
    systems += [m for d in (2, 4, 6, 8) for m in _mutants(system_for(d))]
    failing = 0
    for gs in systems:
        report = gs.check_relations()
        assert report == dense_check_relations(gs), gs
        failing += not all(r["ok"] for r in report)
    assert failing == 72  # of the 96 mutants; every built-in system holds


def test_string_relations_with_a_zero_magnitude():
    # the zero term on the identity string commutes with every gamma, yet
    # its anticommutators vanish: only its square breaks a relation
    s = system_for(4).strings
    gs = GammaSystem(d=4, strings=(s[0], (0, 0, 0, 0)) + s[2:])
    report = gs.check_relations()
    assert report == dense_check_relations(gs)
    assert [(r["mu"], r["nu"]) for r in report if not r["ok"]] == [(1, 1)]


@pytest.mark.parametrize("bad", [(1, 0, 2, 0), (1, 0, 0, 2), (1, 1, 3, 1)])
def test_check_relations_rejects_a_string_off_the_space(bad):
    s = base_system().strings
    gs = GammaSystem(d=2, strings=(s[0], s[1], bad))
    with pytest.raises(ValueError, match=re.escape(f"gamma string {bad} does not act on 2 states")):
        gs.check_relations()
