"""Dispersion certificates, little-group labels, fibers, and evolution."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracsym import (
    DensityState,
    FiberState,
    MassProfile,
    density_evolve,
    dispersion_check,
    evolution_operator,
    little_group_labels,
    load_mass_profile,
    model_for,
    profile_apply_P2,
    sqrt_dirac_fiber,
)
from diracsym import exact, pauli, spectra
from diracsym.clifford import GammaSystem, system_for
from diracsym.exact import ExactMatrix, ExactScalar
from diracsym.models import DiracModel
from diracsym.symmetry import model_for_variant

from dense_oracle import (
    dense_dispersion_check,
    dense_evolution_operator,
    dense_hamiltonian,
    dense_little_group_labels,
    dense_terms,
)

_LABEL_VARIANTS = ("single", "single-", "doubled")


class TestDispersion:
    def test_spot_value(self):
        # mass 3, p = (0, 0, 0, 4): the invariant mass-squared is 25
        model = model_for(4, mass=3)
        block = dispersion_check(model, [0, 0, 0, 4])
        assert block["ok"]
        assert block["omega2"] == Fraction(25)

    def test_rational_momentum(self):
        model = model_for(2, mass=Fraction(1, 2))
        block = dispersion_check(model, [Fraction(1, 3), Fraction(-2, 5)])
        assert block["ok"]
        assert block["omega2"] == Fraction(1, 9) + Fraction(4, 25) + Fraction(1, 4)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("doubled", [False, True])
    def test_square_scalar_everywhere(self, d, doubled):
        model = model_for(d, mass=2, doubled=doubled)
        assert dispersion_check(model, list(range(1, d + 1)))["ok"]

    def test_massless(self):
        model = model_for(4, mass=0)
        block = dispersion_check(model, [1, 0, 0, 1])
        assert block["ok"] and block["omega2"] == Fraction(2)

    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_square_takes_one_product_per_term(self, monkeypatch, d, doubled):
        # the d+1 strings of H(p) anticommute pairwise, so squaring them
        # multiplies each string only by itself; d=64 is a library call
        # far above the CLI's MAX_DIM
        model = model_for(d, mass=Fraction(3, 7), doubled=doubled)
        p = [Fraction((-1) ** k * (k + 1), k + 2) for k in range(d)]
        terms = model.hamiltonian_strings(p)
        assert len(terms) == d + 1
        calls = []
        real = pauli.mul

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(pauli, "mul", counting)
        assert dispersion_check(model, p)["ok"]
        assert len(calls) == len(terms)


_MODELS = {
    "single": lambda d, mass: model_for(d, mass=mass),
    "single-": lambda d, mass: model_for(d, mass=mass, branch=-1),
    "doubled": lambda d, mass: model_for(d, mass=mass, doubled=True),
    "massless": lambda d, mass: model_for(d, mass=0),
}
_momenta = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    min_size=8,
    max_size=8,
)


class TestDispersionEngines:
    """The Pauli-string certificate against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 4, 6, 8]),
        st.sampled_from(sorted(_MODELS)),
        st.fractions(min_value=0, max_value=9, max_denominator=6),
        _momenta,
    )
    @example(2, "massless", Fraction(0), [Fraction(0)] * 8)
    @example(8, "massless", Fraction(0), [Fraction(0)] * 8)
    @example(8, "doubled", Fraction(3, 7), [Fraction(k, 2) for k in range(8)])
    def test_string_verdict_matches_dense(self, d, variant, mass, p):
        model = _MODELS[variant](d, mass)
        got = dispersion_check(model, p[:d])
        assert got == dense_dispersion_check(model, p[:d])
        assert got["ok"]

    @pytest.mark.parametrize("variant", sorted(_MODELS))
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_dense_oracle_hamiltonian_is_the_model_hamiltonian(self, d, variant):
        model = _MODELS[variant](d, Fraction(5, 3))
        p = [Fraction(k, 3) - 1 for k in range(d)]
        assert dense_hamiltonian(model, p) == model.hamiltonian_matrix(p)

    @staticmethod
    def _broken(d, how):
        s = list(system_for(d).strings)
        if how == "repeated":  # gamma_2 = gamma_1: alpha_1 and alpha_2 commute
            s[2] = s[1]
        elif how == "product":  # gamma_2 = gamma_1 gamma_3 commutes with gamma_1
            s[2] = pauli.mul(s[1], s[3])
        else:  # gamma_1 = gamma_0: alpha_1 is the identity
            s[1] = s[0]
        return GammaSystem(d=d, strings=tuple(s))

    @pytest.mark.parametrize("how", ["repeated", "product", "identity"])
    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_broken_gamma_system_fails_in_both_engines(self, d, doubled, how):
        model = DiracModel(self._broken(d, how), mass=Fraction(2), doubled=doubled)
        p = [Fraction(k + 1, 2) for k in range(d)]
        got = dispersion_check(model, p)
        assert got == dense_dispersion_check(model, p)
        assert not got["square_is_scalar"] and not got["ok"]
        assert got["trace_zero"] == (how != "identity")

    def test_no_dense_product_or_matrix(self, monkeypatch):
        models = [_MODELS[v](d, Fraction(3, 7)) for v in _MODELS for d in (2, 8)]

        def never(*args, **kwargs):
            raise AssertionError("dispersion_check used the dense path")

        monkeypatch.setattr(exact, "matmul", never)
        monkeypatch.setattr(DiracModel, "hamiltonian_matrix", never)
        monkeypatch.setattr(ExactMatrix, "_make", never)
        monkeypatch.setattr(ExactMatrix, "__init__", never)
        for model in models:
            assert dispersion_check(model, list(range(model.d)))["ok"]


class TestHamiltonianStrings:
    def test_terms_and_encoding(self):
        model = model_for(4, mass=3, branch=-1)
        p = [Fraction(1), Fraction(0), Fraction(-2, 3), Fraction(5)]
        terms = model.hamiltonian_strings(p)
        strings = [*model.gamma.alpha, model.beta_string]
        kept = [0, 2, 3, 4]  # p_2 = 0 is dropped
        # a coefficient scales the magnitude and keeps the string's phase
        assert [t[1:] for t in terms] == [strings[k][1:] for k in kept]
        coeffs = [*p, Fraction(-3)]
        for (r, _, _, _), k in zip(terms, kept):
            assert r == strings[k][0] * coeffs[k]
        assert pauli.encode_sum(terms, model.dim) == model.hamiltonian_matrix(p)
        assert dense_terms(terms, model.dim) == dense_hamiltonian(model, p)

    def test_massless_rest_has_no_terms(self):
        assert model_for(6, mass=0).hamiltonian_strings([0] * 6) == []

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="4 components"):
            model_for(4).hamiltonian_strings([1, 2, 3])


class TestLittleGroupLabels:
    def _as_tuples(self, labels):
        return sorted(
            (l.energy_sign, str(l.j1), str(l.j2), l.multiplicity) for l in labels
        )

    def test_positive_branch(self):
        labels = little_group_labels(model_for(4, mass=1, branch=1))
        assert self._as_tuples(labels) == [
            (-1, "0", "1/2", 1),
            (1, "1/2", "0", 1),
        ]

    def test_negative_branch(self):
        labels = little_group_labels(model_for(4, mass=1, branch=-1))
        assert self._as_tuples(labels) == [
            (-1, "1/2", "0", 1),
            (1, "0", "1/2", 1),
        ]

    def test_doubled_carries_all_four(self):
        labels = little_group_labels(model_for(4, mass=1, doubled=True))
        assert self._as_tuples(labels) == [
            (-1, "0", "1/2", 1),
            (-1, "1/2", "0", 1),
            (1, "0", "1/2", 1),
            (1, "1/2", "0", 1),
        ]

    def test_multiplicities_sum_to_dimension(self):
        for doubled in (False, True):
            model = model_for(4, mass=2, doubled=doubled)
            labels = little_group_labels(model)
            assert sum(l.multiplicity * l.block_dim() for l in labels) == model.dim

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            little_group_labels(model_for(2, mass=1))
        with pytest.raises(ValueError):
            little_group_labels(model_for(4, mass=0))


class TestLabelsAgainstDenseOracle:
    """The sign-pattern labels against exact dense joint nullspaces."""

    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("variant", _LABEL_VARIANTS)
    def test_variants_match(self, variant, branch):
        model = replace(model_for_variant(4, variant, Fraction(7, 3)), branch=branch)
        assert little_group_labels(model) == dense_little_group_labels(model)

    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000),
        st.sampled_from([1, -1]),
        st.booleans(),
    )
    def test_positive_rational_masses_match(self, mass, branch, doubled):
        model = model_for(4, mass=mass, branch=branch, doubled=doubled)
        assert little_group_labels(model) == dense_little_group_labels(model)

    def test_missing_candidate_raises(self, monkeypatch):
        kept = [j for j in spectra._J_CANDIDATES if j != Fraction(1, 2)]
        monkeypatch.setattr(spectra, "_J_CANDIDATES", kept)
        for doubled in (False, True):
            with pytest.raises(ArithmeticError, match="eigenvalue off"):
                little_group_labels(model_for(4, mass=2, doubled=doubled))

    def test_noncommuting_casimirs_raise(self, monkeypatch):
        model = model_for(4, mass=2)
        a2, _ = spectra._casimirs(model)
        # X on the low qubit anticommutes with the Z string of A^2
        monkeypatch.setattr(spectra, "_casimirs", lambda m: (a2, [(1, 0, 1, 0)]))
        with pytest.raises(ArithmeticError, match="do not commute"):
            little_group_labels(model)

    def test_partial_block_raises(self, monkeypatch):
        # A^2 = 2 puts j1 = 1, a block of 3, on each energy eigenspace of
        # dimension 2
        two = [(2, 0, 0, 0)]
        monkeypatch.setattr(spectra, "_casimirs", lambda m: (two, []))
        with pytest.raises(ArithmeticError, match="whole number of blocks"):
            little_group_labels(model_for(4, mass=2))

    @pytest.mark.parametrize("variant", _LABEL_VARIANTS)
    def test_labels_take_at_most_two_sum_products(self, monkeypatch, variant):
        model = model_for_variant(4, variant, Fraction(7, 3))
        want = dense_little_group_labels(model)
        calls = []
        real = pauli.mul_sums

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(pauli, "mul_sums", counting)
        assert little_group_labels(model) == want
        assert len(calls) <= 2

    @pytest.mark.parametrize("variant", _LABEL_VARIANTS)
    def test_labels_build_each_half_spin_once(self, monkeypatch, variant):
        # the three rotation strings S_jk / 2 serve both Casimirs; built
        # once per Casimir they cost 6 more products (44, 45 doubled)
        model = model_for_variant(4, variant, Fraction(7, 3))
        want = dense_little_group_labels(model)
        model.gamma.alpha  # the alphas are built once per gamma system
        calls = []
        real = pauli.mul

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(pauli, "mul", counting)
        assert little_group_labels(model) == want
        assert len(calls) <= (39 if variant == "doubled" else 38)

    def test_no_dense_matrix(self, monkeypatch):
        models = [model_for_variant(4, v, Fraction(7, 3)) for v in _LABEL_VARIANTS]
        want = [dense_little_group_labels(m) for m in models]

        def never(*args, **kwargs):
            raise AssertionError("little_group_labels used the dense path")

        monkeypatch.setattr(pauli, "encode_sum", never)
        monkeypatch.setattr(pauli, "encode", never)
        monkeypatch.setattr(exact, "nullspace", never)
        monkeypatch.setattr(ExactMatrix, "_make", never)
        monkeypatch.setattr(ExactMatrix, "__init__", never)
        assert [little_group_labels(m) for m in models] == want


class TestFibers:
    def test_fixed_mass_fiber_square(self):
        fiber = sqrt_dirac_fiber(Fraction(3), [1, 2, 2])
        assert fiber["ok"]
        assert fiber["omega2"] == Fraction(18)

    def test_fiber_validation(self):
        with pytest.raises(ValueError):
            sqrt_dirac_fiber(0, [1, 0, 0])
        with pytest.raises(ValueError):
            sqrt_dirac_fiber(1, [1, 0])

    def test_delta_profile_reduces_to_fixed_mass(self):
        # a single-sample profile acts as multiplication by that m^2
        m0 = Fraction(3)
        profile = MassProfile(samples=((m0 * m0, Fraction(1)),), support=(9, 9))
        st = FiberState(p=(0, 0, 0), m=m0, spinor=(ExactScalar(1), ExactScalar(0)))
        scaled, expectation = profile_apply_P2(profile, [st])
        assert expectation == Fraction(9)
        assert scaled[0].spinor[0] == ExactScalar(9)
        assert scaled[0].spinor[1] == ExactScalar(0)

    def test_two_sample_expectation(self):
        # equal weights on m^2 = 1 and 4 give expectation 5/2
        profile = MassProfile(
            samples=((Fraction(1), Fraction(1)), (Fraction(4), Fraction(1))),
            support=(1, 4),
        )
        states = [
            FiberState(p=(0, 0, 0), m=Fraction(1), spinor=(ExactScalar(1),)),
            FiberState(p=(0, 0, 0), m=Fraction(2), spinor=(ExactScalar(1),)),
        ]
        scaled, expectation = profile_apply_P2(profile, states)
        assert expectation == Fraction(5, 2)
        assert scaled[0].spinor[0] == ExactScalar(1)
        assert scaled[1].spinor[0] == ExactScalar(4)

    def test_expectation_linear_in_weights(self):
        def expect(w1, w2):
            profile = MassProfile(
                samples=((Fraction(1), w1), (Fraction(4), w2)), support=(1, 4)
            )
            states = [
                FiberState(p=(0,), m=Fraction(1), spinor=(ExactScalar(1),)),
                FiberState(p=(0,), m=Fraction(2), spinor=(ExactScalar(1),)),
            ]
            return profile_apply_P2(profile, states)[1]

        assert expect(Fraction(1), Fraction(0)) == Fraction(1)
        assert expect(Fraction(0), Fraction(1)) == Fraction(4)
        assert expect(Fraction(3), Fraction(1)) == Fraction(7, 4)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MassProfile(samples=((Fraction(-1), Fraction(1)),), support=(-1, 1))
        with pytest.raises(ValueError):
            MassProfile(samples=((Fraction(2), Fraction(1)),), support=(3, 4))
        with pytest.raises(ValueError):
            MassProfile(samples=((Fraction(2), Fraction(0)),), support=(1, 4))

    def test_profile_file_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps([["1", "1/2"], ["9/4", "1/2"]]))
        profile = load_mass_profile(path)
        assert profile.samples == (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(9, 4), Fraction(1, 2)),
        )
        assert profile.support == (Fraction(1), Fraction(9, 4))
        # a JSON number keeps its float's bounded exponent; a string in
        # exponent notation is refused, as by the CLI's rational options
        path.write_text("[[1e-07, 1]]")
        assert load_mass_profile(path).samples == ((Fraction(1, 10**7), Fraction(1)),)
        for bad in ("1e5", "1/0"):
            path.write_text(json.dumps([[bad, "1"]]))
            with pytest.raises(ValueError, match=bad):
                load_mass_profile(path)


class TestDensityEvolution:
    TOL = 1e-12

    def _rho0(self, n):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    def test_unitary_operator(self):
        model = model_for(4, mass=1)
        u = evolution_operator(model, [1, 0, 0, 2], 0.7)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < self.TOL

    @pytest.mark.parametrize("p", [[0, 0], [1, 2], [Fraction(1, 3), Fraction(-1, 2)]])
    def test_trace_hermiticity_spectrum_preserved(self, p):
        model = model_for(2, mass=1)
        rho0 = DensityState(p=tuple(p), matrix=self._rho0(2))
        w0 = np.sort(np.linalg.eigvalsh(rho0.matrix))
        for t in (0.0, 1.3, 10.0):
            out = density_evolve(p, model, rho0, t)
            rho = out.matrix
            assert abs(np.trace(rho).real - 1.0) < self.TOL
            assert np.abs(rho - rho.conj().T).max() < self.TOL
            assert np.abs(np.sort(np.linalg.eigvalsh(rho)) - w0).max() < self.TOL

    def test_composition_law(self):
        model = model_for(4, mass=2)
        p = [1, 1, 0, 3]
        rho0 = DensityState(p=tuple(p), matrix=self._rho0(4))
        one_shot = density_evolve(p, model, rho0, 2.4, steps=1)
        stepped = density_evolve(p, model, rho0, 2.4, steps=8)
        assert np.abs(one_shot.matrix - stepped.matrix).max() < 1e-10

    def test_period_return(self):
        # H^2 = omega^2 I, so evolution is 2*pi/omega periodic
        model = model_for(2, mass=0)
        p = [3, 4]  # omega = 5
        rho0 = DensityState(p=tuple(p), matrix=self._rho0(2))
        out = density_evolve(p, model, rho0, 2 * np.pi / 5.0)
        assert np.abs(out.matrix - rho0.matrix).max() < 1e-10

    def test_stationary_at_zero_momentum_massless(self):
        model = model_for(2, mass=0)
        rho0 = DensityState(p=(0, 0), matrix=self._rho0(2))
        out = density_evolve([0, 0], model, rho0, 5.0)
        assert np.abs(out.matrix - rho0.matrix).max() == 0.0

    @pytest.mark.parametrize("variant", sorted(_MODELS))
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_string_operator_matches_dense_oracle(self, d, variant):
        model = _MODELS[variant](d, Fraction(3, 7))
        for p in (
            [Fraction((-1) ** k * (2 * k + 1), k + 3) for k in range(d)],
            [Fraction(0)] * (d - 1) + [Fraction(-7, 2)],
            [Fraction(0)] * d,
        ):
            for t in (0.0, 0.37, 5.9):
                got = evolution_operator(model, p, t)
                want = dense_evolution_operator(model, p, t)
                assert got.shape == want.shape == (model.dim, model.dim)
                assert np.abs(got - want).max() < 1e-14, (p, t)

    def test_no_exact_dense_matrix(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("density_evolve built an exact dense matrix")

        monkeypatch.setattr(DiracModel, "hamiltonian_matrix", never)
        monkeypatch.setattr(pauli, "encode_sum", never)
        monkeypatch.setattr(ExactMatrix, "_make", never)
        for variant in sorted(_MODELS):
            for d in (2, 8):
                model = _MODELS[variant](d, Fraction(3, 7))
                p = [Fraction(k - 2, 3) for k in range(d)]
                rho0 = DensityState(p=tuple(p), matrix=self._rho0(model.dim))
                out = density_evolve(p, model, rho0, 1.1, steps=3)
                assert abs(np.trace(out.matrix).real - 1.0) < self.TOL

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            DensityState(p=(0, 0), matrix=np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            DensityState(p=(0, 0), matrix=np.eye(2))
