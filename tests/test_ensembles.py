import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from psigauge import ensembles
from psigauge.cli import main
from psigauge.ensembles import (
    KIND_THEOREM1,
    KIND_THEOREM2,
    KIND_THEOREM4,
    MIN_SCALING_DELTA,
    Theorem2Family,
    ensemble_from_json,
    ensemble_to_json,
    gamma_coefficient,
    scaling_report,
    states_from_json,
    theorem1_ensemble,
    theorem2_ensemble,
    theorem2_states,
    theorem4_ensemble,
    theorem4_states,
)
from psigauge.exclusion import exclusion_value
from psigauge.qcore import (
    ContractViolation,
    StateVector,
    gram,
    inner,
    normalized,
    state_to_json,
    unitary_from_correspondence,
    validate_povm,
)

from conftest import four_outcome_measurements

# delta radius at which the d=2 extremal family sits: 1 - 1/sqrt(2)
DELTA_STAR_D2 = 0.2928932188134524


class TestTheorem1:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            theorem1_ensemble(1)

    def test_states_omit_their_own_label(self):
        e = theorem1_ensemble(4)
        for k, s in enumerate(e.states):
            assert s.amplitudes[k] == 0.0

    def test_center_fidelity_closed_form(self):
        for d in (2, 3, 5, 8):
            e = theorem1_ensemble(d)
            target = np.sqrt((d - 1) / d)
            for s in e.states:
                assert abs(abs(inner(s, e.center)) - target) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 14, 100])
    def test_is_the_widest_theorem4_ensemble_under_its_own_kind(self, d):
        e = theorem1_ensemble(d)
        f = math.sqrt((d - 1) / d)
        widest = theorem4_ensemble(d, f)
        assert e.kind == KIND_THEOREM1
        assert e.params == {"d": d}
        assert all(np.array_equal(mine.amplitudes, theirs.amplitudes)
                   for mine, theirs in zip(e.states, widest.states))
        # the same radius 1 - f, written without the cancellation of 1 - f
        assert e.delta_star == (1 / d) / (1 + f)
        assert abs(e.delta_star - widest.delta_star) <= 1e-13 * e.delta_star

    # 2, 3, 8, 64 and 1000, and 16 dimensions drawn from 2..1000 with seed 0
    SAMPLED_DIMS = [2, 3, 8, 64, 1000, *np.random.default_rng(0).integers(2, 1001, 16).tolist()]

    @pytest.mark.parametrize("d", SAMPLED_DIMS)
    def test_delta_star_keeps_its_digits(self, d):
        # 1 - sqrt((d-1)/d) loses digits to cancellation (8.5e-14 relative at
        # d = 1000); the radius holds within a few ulps of the 40-digit value
        with localcontext() as ctx:
            ctx.prec = 40
            exact = 1 - (Decimal(d - 1) / d).sqrt()
            error = abs(Decimal(theorem1_ensemble(d).delta_star) - exact) / exact
        assert error <= Decimal("4e-16")

    def test_states_are_the_normalized_omit_one_vectors_bit_for_bit(self):
        for d in range(2, 201):
            for k, state in enumerate(theorem1_ensemble(d).states):
                assert np.array_equal(state.amplitudes, normalized(1.0 - np.eye(d)[k]).amplitudes)

    def test_delta_star_d2_frozen(self):
        assert abs(theorem1_ensemble(2).delta_star - DELTA_STAR_D2) < 1e-15

    def test_exclusion_is_exact(self):
        for d in (2, 3, 6):
            e = theorem1_ensemble(d)
            assert exclusion_value(list(e.states), e.measurement) <= 1e-12

    def test_gram_off_diagonal(self):
        # overlap between two omit-one states: (d-2)/(d-1)
        for d in (3, 4, 7):
            g = gram(theorem1_ensemble(d).states)
            off = g[~np.eye(d, dtype=bool)]
            assert np.max(np.abs(off - (d - 2) / (d - 1))) <= 1e-12


class TestTheorem2:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            theorem2_states(2, 1)
        with pytest.raises(ValueError):
            theorem2_states(3, 0)
        with pytest.raises(ValueError):
            theorem2_ensemble(3, 15)  # 3**15 amplitudes exceed TENSOR_CAP

    def test_single_copy_gram_closed_form(self):
        for d, n in ((3, 1), (3, 2), (4, 3), (5, 2)):
            fam = theorem2_states(d, n)
            c = ((d - 2) / (d - 1)) ** (1.0 / n)
            g = gram(fam.states)
            assert np.max(np.abs(np.diag(g) - 1)) <= 1e-12
            off = g[~np.eye(d, dtype=bool)]
            assert np.max(np.abs(off - c)) <= 1e-12

    def test_n_equals_one_matches_the_omit_one_family(self):
        base = theorem1_ensemble(3)
        fam = theorem2_states(3, 1)
        for a, b in zip(fam.states, base.states):
            z = inner(a, b)
            assert abs(abs(z) - 1.0) <= 1e-12

    def test_delta_nd_closed_form(self):
        # independent derivation: 1 - sqrt((1 + (d-1) c)/d)
        for d, n in ((3, 2), (4, 2), (5, 3)):
            c = ((d - 2) / (d - 1)) ** (1.0 / n)
            expected = 1.0 - np.sqrt((1.0 + (d - 1) * c) / d)
            assert abs(theorem2_states(d, n).delta_nd - expected) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4, 10, 100, 1000])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 12345, 10**5, 10**6])
    def test_delta_nd_matches_a_60_digit_evaluation(self, d, n):
        # delta_nd = 1 - sqrt((1 + (d-1) c)/d) with c = exp(ln((d-2)/(d-1))/n),
        # and the n-copy radius 1 - (1 - delta_nd)^n, to 60 digits; forming c
        # first and then 1 - c would cancel, 4.1e-8 off at (1000, 10**6)
        with localcontext() as ctx:
            ctx.prec = 60
            c = ((Decimal(d - 2) / (d - 1)).ln() / n).exp()
            fidelity = ((1 + (d - 1) * c) / d).sqrt()
            expected = float(1 - fidelity), float(1 - fidelity**n)
        _, params = ensembles._theorem2_params(d, n)
        radii = params["delta_nd"], params["n_copy_delta_star"]
        assert radii == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d, n", [(3, 1), (4, 3), (10, 2), (100, 10**6)])
    def test_fields_still_describe_the_states(self, d, n):
        # the states come from qcore's equal-overlap family, not from alpha and
        # beta: state k must still be alpha |k> + (beta/sqrt(d)) sum_i |i>
        fam = theorem2_states(d, n)
        rows = np.full((d, d), fam.beta / np.sqrt(d))
        rows[np.diag_indices(d)] += fam.alpha
        assert np.abs(np.array([s.amplitudes for s in fam.states]) - rows).max() <= 1e-14

    def test_span_ensemble_builds_no_single_copy_state(self, monkeypatch):
        calls = []

        def spy(center, sin2):
            calls.append(center.dim)
            return builder(center, sin2)

        builder = ensembles._equal_overlap_family
        monkeypatch.setattr(ensembles, "_equal_overlap_family", spy)
        ensembles.theorem2_span_ensemble(4, 3)
        assert calls == []
        theorem2_states(4, 3)  # the spy sees the builder that does make states
        assert calls == [4]

    def test_ensemble_center_fidelity_equals_ball_radius(self):
        e = theorem2_ensemble(3, 2)
        for s in e.states:
            assert abs(abs(inner(s, e.center)) - (1 - e.delta_star)) <= 1e-10

    def test_measurement_is_valid_and_excluding(self):
        e = theorem2_ensemble(4, 2)
        assert validate_povm(e.measurement).passed
        assert exclusion_value(list(e.states), e.measurement) <= 1e-9

    def test_ten_copies_build_in_factored_form(self):
        # D = 3**10: the three dense effects alone would take about 167 GB
        e = theorem2_ensemble(3, 10)
        assert e.measurement.vectors.shape == (3**10, 3)
        assert exclusion_value(list(e.states), e.measurement) <= 1e-9

    def test_tensor_power_gram(self):
        e = theorem2_ensemble(5, 2)
        g = gram(e.states)
        off = g[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off - 3 / 4)) <= 1e-10


def off_level_family(d: int, n: int) -> Theorem2Family:
    """theorem2_states with state 0 turned by 1e-3 rad about the uniform
    centre u, in the plane of its own and state 1's components orthogonal to
    u: every state still sits at fidelity 1 - delta_nd, on the ball
    theorem2_ensemble checks, but the tensor powers miss the theorem1 Gram matrix."""
    family = theorem2_states(d, n)
    u = StateVector.uniform(d).amplitudes
    rows = np.array([s.amplitudes for s in family.states])
    radial = rows - np.outer(rows @ u.conj(), u)  # each state's part orthogonal to u
    w0, w1 = radial[0], radial[1]
    across = w1 - np.vdot(w0, w1) / np.vdot(w0, w0) * w0
    across *= np.linalg.norm(w0) / np.linalg.norm(across)
    rows[0] += (math.cos(1e-3) - 1.0) * w0 + math.sin(1e-3) * across
    return family._replace(states=tuple(map(normalized, rows)))


class TestTheorem2ClosedForm:
    @pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (4, 3), (5, 2), (6, 1)])
    def test_vectors_are_the_isometry_preimages(self, d, n):
        ens = theorem2_ensemble(d, n)
        embedded = []
        for state in theorem1_ensemble(d).states:
            amps = np.zeros(d**n, dtype=complex)
            amps[:d] = state.amplitudes
            embedded.append(StateVector(d**n, amps))
        v = unitary_from_correspondence(list(ens.states), embedded).entries
        # column k of V^dag is V^dag e_k, the preimage of embedded |k>
        assert np.abs(ens.measurement.vectors - v.conj().T[:, :d]).max() <= 1e-12

    @pytest.mark.parametrize("d", [170, 230, 300, 500])
    def test_one_copy_builds_at_large_dimension(self, d):
        assert validate_povm(theorem2_ensemble(d, 1).measurement).completeness_error <= 1e-12
        assert main(["thm2", "--dim", str(d), "--copies", "1", "--shots", "100"]) == 0

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (4, 3)])
    def test_family_off_the_gram_level_is_rejected(self, d, n, monkeypatch):
        monkeypatch.setattr(ensembles, "theorem2_states", off_level_family)
        with pytest.raises(ValueError, match="completion needs an isometry"):
            theorem2_ensemble(d, n)


class TestGammaCoefficient:
    def test_frozen_value_d3(self):
        # (d-1) (ln(d-1) - ln(d-2)) / (2d) at d=3 reduces to ln(2)/3
        assert abs(gamma_coefficient(3) - np.log(2.0) / 3.0) < 1e-15

    def test_requires_d_at_least_three(self):
        with pytest.raises(ValueError):
            gamma_coefficient(2)

    @pytest.mark.parametrize("d", [3, 4, 10, 100, 1000, 10**4, 10**6])
    def test_matches_a_60_digit_evaluation(self, d):
        # log(d-1) - log(d-2) cancels: 1.5e-9 relative error at d = 10**6
        with localcontext() as ctx:
            ctx.prec = 60
            expected = float((d - 1) * (Decimal(d - 1) / (d - 2)).ln() / (2 * d))
        assert gamma_coefficient(d) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_gamma_times_d_approaches_half(self):
        vals = [gamma_coefficient(d) * d for d in (10, 100, 1000, 10_000)]
        errs = [abs(v - 0.5) for v in vals]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-4


class TestTheorem4:
    def test_zero_amplitude_at_own_label(self):
        states, _ = theorem4_states(4, 0.6)
        for k, s in enumerate(states):
            assert abs(s.amplitudes[k]) <= 1e-15

    def test_coefficients_frozen_d3_t_half(self):
        states, center = theorem4_states(3, 0.5)
        # base weight t sqrt(d)/(d-1), split r/sqrt(2) across two slots
        base = 0.5 * np.sqrt(3.0) / 2.0
        r = np.sqrt(1.0 - 0.25 * 3.0 / 2.0)
        first = states[0].amplitudes
        assert abs(first[1] - (base + r / np.sqrt(2.0))) <= 1e-12
        assert abs(first[2] - (base - r / np.sqrt(2.0))) <= 1e-12
        for s in states:
            assert abs(abs(inner(s, center)) - 0.5) <= 1e-12

    def test_states_are_cyclic_shifts(self):
        states, _ = theorem4_states(5, 0.4)
        base = states[0].amplitudes
        for k, s in enumerate(states):
            assert np.allclose(s.amplitudes, np.roll(base, k), atol=1e-15)

    @pytest.mark.parametrize("d", [3, 5, 64])
    @pytest.mark.parametrize("share", [1.0, 0.5, None], ids=["t_max", "half_t_max", "t=0.1"])
    def test_every_state_is_an_exact_cyclic_shift_of_state_0(self, d, share):
        t_max = math.sqrt((d - 1) / d)
        states, _ = theorem4_states(d, 0.1 if share is None else share * t_max)
        for k, state in enumerate(states):
            assert np.array_equal(state.amplitudes, np.roll(states[0].amplitudes, k))

    def test_overlap_range_validation(self):
        with pytest.raises(ValueError):
            theorem4_states(3, -0.1)
        with pytest.raises(ValueError):
            theorem4_states(3, 0.9)  # above sqrt(2/3)
        # zero overlap is a legal degenerate corner
        states, center = theorem4_states(3, 0.0)
        assert abs(inner(states[0], center)) <= 1e-12

    def test_d2_only_admits_maximal_overlap(self):
        states, center = theorem4_states(2, 1 / np.sqrt(2))
        assert abs(abs(inner(states[0], center)) - 1 / np.sqrt(2)) <= 1e-12
        with pytest.raises(ValueError):
            theorem4_states(2, 0.5)

    @pytest.mark.parametrize("d", [*range(2, 65), 100, 1000])
    def test_widest_t_gives_the_omit_one_states_bit_for_bit(self, d):
        states, _ = theorem4_states(d, math.sqrt((d - 1) / d))
        for k, state in enumerate(states):
            omit_one = normalized(1.0 - np.eye(d)[k])
            assert np.array_equal(state.amplitudes, omit_one.amplitudes)

    @pytest.mark.parametrize("d", [4, 5, 14])
    def test_widest_t_gram_is_the_omit_one_level(self, d):
        # dimensions where the tilt written as sqrt(1 - t^2 d/(d-1)) cancels to
        # about 1e-8, not 0, at t = sqrt((d-1)/d)
        g = gram(theorem4_states(d, math.sqrt((d - 1) / d))[0])
        off = g[~np.eye(d, dtype=bool)]
        assert np.max(np.abs(off - (d - 2) / (d - 1))) <= 1e-15

    def test_basis_measurement_excludes_exactly(self):
        e = theorem4_ensemble(3, 0.5)
        assert exclusion_value(list(e.states), e.measurement) == 0.0
        assert e.delta_star == 0.5


class TestScalingReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            scaling_report(0.0)
        with pytest.raises(ValueError):
            scaling_report(1.0)

    def test_thm1_dim_is_minimal(self):
        # judged by (1/d)/(1 + sqrt((d-1)/d)), the form of 1 - sqrt((d-1)/d)
        # that does not cancel: the cancelling form misjudges 20 of these
        # deltas, all below 5e-8
        deltas = [*np.geomspace(MIN_SCALING_DELTA, 0.999, 4000), MIN_SCALING_DELTA, 0.1, 0.5]
        dims = np.array([scaling_report(float(delta)).thm1_dim for delta in deltas])

        def bound(d):
            return (1 / d) / (1 + np.sqrt((d - 1) / d))

        assert np.all(bound(dims) <= deltas)
        assert np.all(bound(dims - 1) > deltas)  # bound(1) = 1 exceeds every delta

    def test_large_radius_needs_only_a_qubit(self):
        assert scaling_report(0.5).thm1_dim == 2

    def test_thm2_copies_is_minimal(self):
        r = scaling_report(0.05)
        n = r.thm2_copies_d3
        assert theorem2_states(3, n).delta_nd <= 0.05
        if n > 1:
            assert theorem2_states(3, n - 1).delta_nd > 0.05

    def test_pbr_copies_formula(self):
        r = scaling_report(0.01)
        assert r.pbr_copies == int(np.ceil(np.sqrt(2.0) * np.log(2.0) / np.sqrt(0.01)))
        assert r.pbr_state_count == 2**r.pbr_copies
        assert "asymptotic" in r.notes


class TestScalingClosedForms:
    """thm1_dim and thm2_copies_d3 against their defining inequalities,
    evaluated in 50-digit decimal arithmetic from the exact value of each
    float delta: each count reaches delta, and one less does not."""

    # log-spaced over the supported range, plus a near-tie that float
    # arithmetic once put one dimension too high
    DELTAS = [*map(float, np.geomspace(MIN_SCALING_DELTA, 0.99, 150)), 1.294023331038712e-08]

    @staticmethod
    def _thm1_bound(d: int) -> Decimal:
        return 1 - (Decimal(d - 1) / d).sqrt()

    @staticmethod
    def _thm2_bound(n: int) -> Decimal:
        # delta_nd at d = 3: Gram level c = 2**(-1/n), alpha**2 = 1 - c
        c = Decimal(2) ** (Decimal(-1) / n)
        return 1 - (1 - 2 * (1 - c) / 3).sqrt()

    def test_counts_are_the_least_that_reach_delta(self):
        with localcontext() as ctx:
            ctx.prec = 50
            for delta in self.DELTAS:
                report = scaling_report(delta)
                target = Decimal(delta)
                d, n = report.thm1_dim, report.thm2_copies_d3
                assert self._thm1_bound(d) <= target, delta
                assert d == 2 or self._thm1_bound(d - 1) > target, delta
                assert self._thm2_bound(n) <= target, delta
                assert n == 1 or self._thm2_bound(n - 1) > target, delta

    def test_near_tie_dimension(self):
        assert scaling_report(1.294023331038712e-08).thm1_dim == 38639180

    def test_floor_keeps_the_state_count_printable(self):
        assert len(str(scaling_report(MIN_SCALING_DELTA).pbr_state_count)) < 4300
        with pytest.raises(ValueError):
            scaling_report(math.nextafter(MIN_SCALING_DELTA, 0.0))


class TestEnsembleJson:
    def test_round_trip_theorem1(self):
        e = theorem1_ensemble(3)
        back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
        assert back.kind == KIND_THEOREM1
        assert back.delta_star == e.delta_star
        for a, b in zip(e.states, back.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        for a, b in zip(e.measurement.effects, back.measurement.effects):
            assert np.array_equal(a.entries, b.entries)

    def test_round_trip_theorem2_params(self):
        e = theorem2_ensemble(3, 2)
        back = ensemble_from_json(ensemble_to_json(e))
        assert back.kind == KIND_THEOREM2
        assert back.params["n"] == 2
        assert abs(back.params["delta_nd"] - e.params["delta_nd"]) == 0.0

    def test_kind_constants(self):
        assert theorem4_ensemble(3, 0.5).kind == KIND_THEOREM4

    def test_missing_field_rejected(self):
        obj = ensemble_to_json(theorem1_ensemble(2))
        del obj["center"]
        with pytest.raises(ValueError):
            ensemble_from_json(obj)

    @pytest.mark.parametrize(
        "field, value", [("delta_star", [0.5]), ("measurement", 5), ("center", 5)]
    )
    def test_wrong_field_type_rejected(self, field, value):
        obj = ensemble_to_json(theorem1_ensemble(2))
        obj[field] = value
        with pytest.raises(ValueError, match="JSON"):
            ensemble_from_json(obj)


class TestTamperResistance:
    def test_assembly_check_rejects_wrong_radius(self):
        # the ensemble constructor cross-checks fidelities against delta_star
        e = theorem1_ensemble(3)
        obj = ensemble_to_json(e)
        obj["delta_star"] = 0.5
        from psigauge.qcore import ContractViolation

        with pytest.raises(ContractViolation):
            ensemble_from_json(obj)

    def test_assembly_check_rejects_a_measurement_that_fires_on_its_state(self):
        # rolling the basis by one outcome keeps a valid POVM, but outcome k
        # then fires on state k with probability 1/2
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = obj["measurement"][-1:] + obj["measurement"][:-1]
        with pytest.raises(ContractViolation, match="exclusion sum 1.500e[+]00 exceeds 1e-9"):
            ensemble_from_json(obj)

    @pytest.mark.parametrize("name", sorted(four_outcome_measurements()))
    def test_assembly_check_rejects_an_extra_outcome(self, name):
        # the exclusion bound needs one outcome per state, even when no
        # outcome fires on its own state
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = four_outcome_measurements()[name]
        with pytest.raises(ValueError, match="4 outcomes for 3 states"):
            ensemble_from_json(obj)


class TestStatesFromJson:
    def test_three_shapes_give_equal_states(self):
        ens = theorem1_ensemble(3)
        listed = [state_to_json(s) for s in ens.states]
        shapes = [listed, {"states": listed}, ensemble_to_json(ens)]
        for payload in shapes:
            states = states_from_json(json.loads(json.dumps(payload)))
            assert len(states) == 3
            for got, want in zip(states, ens.states):
                assert np.array_equal(got.amplitudes, want.amplitudes)

    @pytest.mark.parametrize("payload", [5, "states", None, {"not_states": 1}])
    def test_other_shapes_are_type_errors(self, payload):
        with pytest.raises(TypeError, match="expected a state list"):
            states_from_json(payload)

    def test_states_field_must_be_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            states_from_json({"states": {"dim": 2}})

    @pytest.mark.parametrize("dim", [float("inf"), [2], {"d": 2}])
    def test_overflowing_or_wrong_typed_dim_is_a_value_error(self, dim):
        obj = state_to_json(StateVector.basis(2, 0))
        obj["dim"] = dim
        with pytest.raises(ValueError, match="state JSON: dim"):
            states_from_json([obj])


class TestEnsembleFieldCoercion:
    @pytest.mark.parametrize("value", [10**400, {"x": 1}, "0.18350341907227397", True, None])
    def test_delta_star_that_is_no_float_is_a_value_error(self, value):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["delta_star"] = value
        with pytest.raises(ValueError, match="ensemble JSON: delta_star"):
            ensemble_from_json(obj)

    def test_nan_delta_star_fails_the_fidelity_check(self):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["delta_star"] = float("nan")
        from psigauge.qcore import ContractViolation

        with pytest.raises(ContractViolation, match="fidelity"):
            ensemble_from_json(obj)
