import base64
import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

import framescale
from framescale import (
    DiagonalScaling,
    Frame,
    PerturbationBudget,
    ScalingConvergenceError,
    audit_lemma_chain,
    dist_sq,
    frame_metrics,
    generate_enpf,
    isotropy_residual,
    perturb_frame,
    perturb_to_general_position,
    renormalize,
    repair,
    rescale_preserving_norms,
    reverify,
    uniform_coefficients,
)
from framescale.serialize import read_report, write_report

from helpers import audit_per_vector_oracle, mercedes_frame


def perturbed_instance(d, n, eps_target, seed):
    return perturb_frame(generate_enpf(d, n, seed), eps_target, seed)


def duplicated_instance(d, n, copies, seed):
    """A perturbed ENPF whose vectors 1..copies are copies of vector 0."""
    vectors = perturbed_instance(d, n, 1e-2, seed).vectors.copy()
    vectors[1 : copies + 1] = vectors[0]
    return Frame(vectors)


def test_public_api_exports_pipeline():
    missing = [name for name in framescale.__all__ if not hasattr(framescale, name)]
    assert not missing
    # The package attribute ``repair`` is the function, which shadows the submodule.
    module = importlib.import_module("framescale.repair")
    for name in ("repair", "reverify", "audit_lemma_chain"):
        assert name in framescale.__all__
        assert getattr(framescale, name) is getattr(module, name)


class TestPerturbationBudget:
    def test_defining_formulas(self):
        budget = PerturbationBudget.from_eta_max(1e-4, 3, 9)
        assert budget.gamma == pytest.approx(1e-8 + 2e-4)
        assert budget.gamma_prime == pytest.approx(3.0 * budget.gamma)

    def test_input_budget_respects_every_cap(self):
        cases = [
            (eps, d, n)
            for eps in (1e-1, 1e-2, 1e-3, 1e-6)
            for d, n in ((2, 5), (4, 10), (8, 32))
        ]
        # At eps = 1e-7 the root sqrt(1 + gamma_max) - 1 cancels to 1.066 gamma_max;
        # at 1e-10 and 1e-12, 1 - sqrt(1 - eps) cancels to 8.3e-8 and 8.9e-5 high.
        cases += [(1e-7, 4, 12), (1e-10, 4, 12), (1e-12, 4, 12)]
        for eps, d, n in cases:
            budget = PerturbationBudget.for_input(eps, d, n)
            gamma_max = eps / (1 + math.sqrt(1 - eps)) * eps * d / n
            assert budget.eta_max <= eps / (2 * n)
            assert budget.gamma <= gamma_max * (1 + 1e-12)
            assert budget.gamma_prime <= eps

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            PerturbationBudget.from_eta_max(-1.0, 2, 4)


class TestPerturbToGeneralPosition:
    def test_generic_input_accepted_unchanged(self):
        frame = renormalize(mercedes_frame(), 2 / 3)
        budget = PerturbationBudget.for_input(0.01, 2, 3)
        out = perturb_to_general_position(frame, budget, seed=0)
        assert np.array_equal(out.vectors, frame.vectors)

    def test_degenerate_input_perturbed(self):
        base = renormalize(Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 2 / 3)
        budget = PerturbationBudget.from_eta_max(1e-6, 2, 3)
        out = perturb_to_general_position(base, budget, seed=1)
        from framescale import all_d_subsets_independent

        assert all_d_subsets_independent(out)
        assert dist_sq(base, out) <= 3 * budget.eta_max**2 + 1e-18

    def test_zero_budget_on_degenerate_fails(self):
        base = renormalize(Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 2 / 3)
        with pytest.raises(RuntimeError):
            perturb_to_general_position(base, PerturbationBudget.from_eta_max(0.0, 2, 3), seed=0)

    def test_past_cap_returned_unchecked(self, monkeypatch):
        def unaffordable(frame):
            raise AssertionError("d-subsets checked past FULL_CHECK_CAP")

        monkeypatch.setattr(importlib.import_module("framescale.repair"),
                            "all_d_subsets_independent", unaffordable)
        frame = renormalize(duplicated_instance(10, 40, 2, seed=0), 10 / 40)
        out = perturb_to_general_position(frame, PerturbationBudget.from_eta_max(0.0, 10, 40), 0)
        assert out is frame

    def test_distance_within_budget(self):
        rng = np.random.default_rng(2)
        frame = renormalize(Frame(rng.standard_normal((8, 3))), 3 / 8)
        budget = PerturbationBudget.from_eta_max(1e-7, 3, 8)
        out = perturb_to_general_position(frame, budget, seed=3)
        assert dist_sq(frame, out) <= 8 * budget.eta_max**2 + 1e-18


class TestRescalePreservingNorms:
    def test_identity_scaling(self):
        frame = mercedes_frame()
        scaling = DiagonalScaling(lambdas=np.ones(2), rotation=np.eye(2))
        np.testing.assert_allclose(
            rescale_preserving_norms(frame, scaling).vectors, frame.vectors, atol=1e-15
        )

    def test_eigendirection_fixed(self):
        frame = Frame(np.array([[0.0, 1.0]]))
        scaling = DiagonalScaling(lambdas=np.array([2.0, 1.0]), rotation=np.eye(2))
        np.testing.assert_allclose(
            rescale_preserving_norms(frame, scaling).vectors, [[0.0, 1.0]], atol=1e-15
        )

    def test_diagonal_mix(self):
        frame = Frame(np.array([[np.sqrt(0.5), np.sqrt(0.5)]]))
        scaling = DiagonalScaling(lambdas=np.array([2.0, 1.0]), rotation=np.eye(2))
        out = rescale_preserving_norms(frame, scaling)
        np.testing.assert_allclose(
            out.vectors, [[2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)]], atol=1e-12
        )
        assert out.squared_norms()[0] == pytest.approx(1.0)


class TestRepair:
    def test_exact_input_returns_nearby_frame(self):
        report = repair(mercedes_frame(), 1e-9, seed=0)
        assert report.certified
        assert report.dist_sq_vw <= 4 * 3 * report.budget.eta_max**2 + 1e-20
        assert report.output_eps <= 1e-9

    def test_mercedes_at_eps_005(self):
        frame = perturb_frame(mercedes_frame(), 0.05, seed=1)
        report = repair(frame, 1e-9, seed=1)
        assert report.certified
        assert report.dist_sq_vw <= 20 * 0.05 * 4
        measured = frame_metrics(report.output_frame).eps
        assert measured <= 1e-9
        assert dist_sq(frame, report.output_frame) == report.dist_sq_vw

    def test_d4_n10_instance(self):
        frame = perturbed_instance(4, 10, 1e-2, seed=2)
        report = repair(frame, 1e-9, seed=2)
        assert report.certified
        assert report.dist_sq_vw <= 3.2

    def test_bound_uses_measured_eps(self):
        frame = perturbed_instance(3, 7, 1e-2, seed=3)
        report = repair(frame, 1e-9, seed=3)
        assert report.bound == pytest.approx(20 * frame_metrics(frame).eps * 9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_duplicated_vectors_past_cap_certify(self, seed):
        frame = duplicated_instance(10, 40, 2, seed)
        report = repair(frame, 1e-9, seed=seed)
        assert report.eps > 0.3
        assert report.certified
        assert audit_lemma_chain(report).passed
        assert np.array_equal(
            report.perturbed_frame.vectors, renormalize(frame, 10 / 40).vectors
        )

    def test_outside_basis_polytope_past_cap_raises_typed_error(self):
        # 318 of 634 vectors on one axis: the line holds more than n/d = 317.
        n = 634
        vectors = np.zeros((n, 2))
        vectors[:318, 0] = vectors[318:, 1] = math.sqrt(2 / n)
        with pytest.raises(ScalingConvergenceError, match="basis polytope"):
            repair(Frame(vectors), 1e-9, seed=0)

    def test_rejects_square_frames(self):
        with pytest.raises(ValueError):
            repair(Frame(np.eye(3)), 1e-9, seed=0)

    def test_rejects_zero_vector(self):
        frame = Frame(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            repair(frame, 1e-9, seed=0)

    def test_rejects_large_eps(self):
        frame = Frame(np.vstack([np.eye(2) * 2.0, [[1.0, 1.0]]]))
        with pytest.raises(ValueError):
            repair(frame, 1e-9, seed=0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            repair(mercedes_frame(), -1e-9, seed=0)

    def test_deterministic_reports(self):
        frame = perturbed_instance(3, 8, 1e-2, seed=4)
        a = repair(frame, 1e-9, seed=7)
        b = repair(frame, 1e-9, seed=7)
        assert np.array_equal(a.output_frame.vectors, b.output_frame.vectors)
        assert np.array_equal(a.scaling.t, b.scaling.t)
        assert (a.dist_sq_vw, a.eps, a.certified) == (b.dist_sq_vw, b.eps, b.certified)

    def test_intermediate_distance_bound(self):
        for seed, (d, n, eps) in enumerate([(2, 5, 1e-1), (3, 9, 1e-2), (5, 12, 1e-3)]):
            frame = perturbed_instance(d, n, eps, seed)
            report = repair(frame, 1e-9, seed=seed)
            assert report.dist_sq_vu <= report.eps * d + 1e-12

    def test_perturbed_frame_stays_four_eps_near(self):
        for seed, (d, n, eps) in enumerate([(2, 6, 1e-1), (4, 11, 1e-2)]):
            frame = perturbed_instance(d, n, eps, seed)
            report = repair(frame, 1e-9, seed=seed)
            assert frame_metrics(report.perturbed_frame).eps <= 4 * report.eps

    def test_composition_inequality_exact(self):
        frame = perturbed_instance(4, 9, 1e-2, seed=5)
        report = repair(frame, 1e-9, seed=5)
        assert report.dist_sq_vw <= 2 * (report.dist_sq_vu + report.dist_sq_uw)

    def test_certified_definition(self):
        frame = perturbed_instance(3, 10, 1e-3, seed=6)
        report = repair(frame, 1e-9, seed=6)
        assert report.certified == (
            report.dist_sq_vw <= report.bound
            and report.output_eps <= report.delta
            and report.scaling.converged
        )

    def test_solver_residual_reverified(self):
        frame = perturbed_instance(4, 12, 1e-2, seed=8)
        report = repair(frame, 1e-9, seed=8)
        c = uniform_coefficients(4, 12)
        _, resid = isotropy_residual(report.perturbed_frame, c, report.scaling.A)
        assert resid <= report.delta_solver


class TestAuditChain:
    def test_exact_input_chain(self):
        audit = audit_lemma_chain(repair(mercedes_frame(), 1e-9, seed=0))
        assert audit.passed

    def test_perturbed_chain_slacks(self):
        report = repair(perturb_frame(mercedes_frame(), 0.05, seed=2), 1e-9, seed=2)
        audit = audit_lemma_chain(report)
        assert audit.passed
        for check in audit.checks:
            assert check.passed, check

    def test_batch_of_certified_reports(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(d + 1, 4 * d + 1))
            eps = float(rng.choice([1e-1, 1e-2, 1e-3]))
            frame = perturbed_instance(d, n, eps, seed=trial)
            report = repair(frame, 1e-9, seed=trial)
            assert report.certified
            audit = audit_lemma_chain(report)
            assert audit.passed, (d, n, eps, [c for c in audit.checks if not c.passed])
            # checks (a) and (b), row-wise, against the per-vector loops
            for name, (passed, lhs, rhs) in audit_per_vector_oracle(report).items():
                check = audit.check(name)
                assert check.passed == passed, (d, n, eps, name)
                assert math.isclose(check.lhs, lhs, rel_tol=1e-12), (d, n, eps, name)
                assert math.isclose(check.rhs, rhs, rel_tol=1e-12), (d, n, eps, name)

    def test_lemma_bound_recorded(self):
        report = repair(perturbed_instance(3, 8, 1e-2, seed=10), 1e-9, seed=10)
        audit = audit_lemma_chain(report)
        composed = audit.check("composed_certified_bound")
        assert report.dist_sq_uw <= composed.detail["lemma_rhs"]


class TestReverify:
    def test_matches_fresh_report(self):
        frame = perturbed_instance(3, 9, 1e-2, seed=11)
        report = repair(frame, 1e-9, seed=11)
        fresh = reverify(report)
        assert fresh.certified == report.certified
        assert fresh.eps == pytest.approx(report.eps)
        assert fresh.dist_sq_vw == pytest.approx(report.dist_sq_vw)
        assert fresh.scaling.converged
        # Frames, scalars and budget are bit-equal. J, its largest entry and the
        # stationarity gap may move in the last bits: the solver forms U A and
        # reverify U A^T, and A is not bitwise symmetric.
        for f in dataclasses.fields(report):
            value, again = getattr(report, f.name), getattr(fresh, f.name)
            if isinstance(value, Frame):
                np.testing.assert_array_equal(again.vectors, value.vectors, err_msg=f.name)
            elif f.name != "scaling":
                assert again == value, f.name
        for f in dataclasses.fields(report.scaling):
            value, again = getattr(report.scaling, f.name), getattr(fresh.scaling, f.name)
            if f.name in ("residual", "residual_inf", "stationarity_gap"):
                np.testing.assert_allclose(again, value, rtol=0, atol=1e-12, err_msg=f.name)
            elif isinstance(value, np.ndarray):
                np.testing.assert_array_equal(again, value, err_msg=f.name)
            else:
                assert again == value, f.name
        # A stored A with a zero last column maps a perturbed vector e_3 |u_0| to exactly 0.
        A = report.scaling.A.copy()
        A[:, -1] = 0.0
        vectors = report.perturbed_frame.vectors.copy()
        vectors[0] = [0.0, 0.0, np.linalg.norm(vectors[0])]
        stored = dataclasses.replace(
            report,
            perturbed_frame=Frame(vectors),
            scaling=dataclasses.replace(report.scaling, A=A),
        )
        with pytest.raises(ValueError, match="A u_i = 0 at index 0"):
            reverify(stored)

    def test_tampered_output_detected(self):
        frame = perturbed_instance(3, 9, 1e-2, seed=12)
        report = repair(frame, 1e-9, seed=12)
        tampered = dataclasses.replace(
            report, output_frame=Frame(report.output_frame.vectors * 1.5)
        )
        assert not reverify(tampered).certified

    def test_json_round_trip_recomputes_verdict(self, tmp_path):
        frame = perturbed_instance(3, 9, 1e-2, seed=13)
        report = repair(frame, 1e-9, seed=13)
        path = tmp_path / "report.json"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.scaling.residual is None
        in_memory = reverify(report)
        rebuilt = reverify(loaded)
        assert in_memory.certified
        assert rebuilt.certified == in_memory.certified
        assert rebuilt.dist_sq_vw == in_memory.dist_sq_vw
        np.testing.assert_array_equal(rebuilt.scaling.residual, in_memory.scaling.residual)
        assert audit_lemma_chain(rebuilt).passed

        data = json.loads(path.read_text())
        vectors = np.array(data["frames"]["output"]["vectors"])
        data["frames"]["output"]["vectors"] = (vectors * 1.5).tolist()
        path.write_text(json.dumps(data))
        assert not reverify(read_report(path)).certified

    def test_tampered_packed_frame_detected(self, tmp_path):
        report = repair(perturbed_instance(3, 9, 1e-2, seed=13), 1e-9, seed=13)
        path = tmp_path / "report.json"
        write_report(path, report)
        data = json.loads(path.read_text())
        perturbed = data["frames"]["perturbed"]
        raw = base64.b64decode(perturbed["vectors"])
        vectors = np.frombuffer(raw, dtype="<f8").reshape(perturbed["n"], perturbed["d"]).copy()
        vectors[0] *= 1.5
        perturbed["vectors"] = base64.b64encode(vectors.astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(data))
        loaded = read_report(path)
        np.testing.assert_array_equal(loaded.perturbed_frame.vectors, vectors)
        assert not reverify(loaded).certified
