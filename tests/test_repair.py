import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

import framescale
from framescale import (
    Frame,
    ScalingConvergenceError,
    audit_lemma_chain,
    dist_sq,
    frame_metrics,
    generate_enpf,
    perturb_frame,
    perturb_to_general_position,
    renormalize,
    repair,
    reverify,
)
from framescale.frames import _eps_norm
from framescale.repair import _eta_max
from framescale.cli import EXIT_CONFIG, main
from framescale.serialize import read_report, report_to_dict, write_report

from helpers import (
    alternating_projections,
    audit_per_vector_oracle,
    general_position_by_full_checks,
    isotropy_residual,
    mercedes_frame,
    read_packed,
    write_packed,
)


# Every number a report derives from its frames, and those its scaling measures.
DERIVED = (
    "eps", "eps_op", "eps_norm", "dist_sq_vw", "dist_sq_vu", "dist_sq_uw",
    "bound", "output_eps", "certified", "gamma_prime_effective",
)
MEASURED = ("residual_inf", "stationarity_gap", "converged")


def perturbed_instance(d, n, eps_target, seed):
    return perturb_frame(generate_enpf(d, n, seed), eps_target, seed)


def duplicated_instance(d, n, copies, seed):
    """A perturbed ENPF whose vectors 1..copies are copies of vector 0."""
    vectors = perturbed_instance(d, n, 1e-2, seed).vectors.copy()
    vectors[1 : copies + 1] = vectors[0]
    return Frame(vectors)


def degenerate_workload(seed):
    """The 29 (frame, seed) inputs of the benchmark's ``degenerate`` workload at ``seed``.

    Harmonic ENPFs perturbed to eps, or with v_0 scaled; the last three
    have the fixed seed 0, so they are the same at every ``seed``.
    """
    harmonic = [(d, k * d) for d in (3, 4, 5, 6) for k in (2, 3)]
    odd = [(d, n) for d, n in harmonic if d % 2]
    scaled = [(3, 6), (3, 9), (4, 8), (5, 10), (5, 15)]
    specs = (
        [(d, n, 1e-2, None) for d, n in harmonic]
        + [(d, n, eps, None) for eps in (1e-5, 1e-7) for d, n in odd]
        + [(d, n, None, scale) for scale in (0.8, 0.97) for d, n in scaled]
    )
    fixed = [(4, 12, None, 0.8), (6, 12, None, 0.97), (4, 12, 1e-7, None)]
    inputs = []
    for k, (d, n, eps, scale) in enumerate(specs + fixed):
        s = 0 if k >= len(specs) else int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1)[0])
        enpf = generate_enpf(d, n, s)
        if eps is not None:
            inputs.append((perturb_frame(enpf, eps, s), s))
        else:
            vectors = enpf.vectors.copy()
            vectors[0] *= scale
            inputs.append((Frame(vectors), s))
    return inputs


def test_public_api_exports_pipeline():
    missing = [name for name in framescale.__all__ if not hasattr(framescale, name)]
    assert not missing
    # The package attribute ``repair`` is the function, which shadows the submodule.
    module = importlib.import_module("framescale.repair")
    for name in ("repair", "reverify", "audit_lemma_chain"):
        assert name in framescale.__all__
        assert getattr(framescale, name) is getattr(module, name)


class TestPerturbToGeneralPosition:
    def test_generic_input_accepted_unchanged(self):
        frame = renormalize(mercedes_frame(), 2 / 3)
        out = perturb_to_general_position(frame, _eta_max(0.01, 2, 3), seed=0)
        assert np.array_equal(out.vectors, frame.vectors)

    def test_degenerate_input_perturbed(self):
        base = renormalize(Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 2 / 3)
        out = perturb_to_general_position(base, 1e-6, seed=1)
        from framescale import all_d_subsets_independent

        assert all_d_subsets_independent(out)
        assert dist_sq(base, out) <= 3 * 1e-6**2 + 1e-18

    def test_zero_budget_on_degenerate_fails(self):
        base = renormalize(Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 2 / 3)
        with pytest.raises(RuntimeError):
            perturb_to_general_position(base, 0.0, seed=0)

    def test_past_cap_returned_unchecked(self, monkeypatch):
        # every subset check the gate imports, the fragile pass included
        def unaffordable(*args):
            raise AssertionError("d-subsets checked past SUBSET_CAP")

        module = importlib.import_module("framescale.repair")
        checks = [name for name, value in vars(module).items()
                  if callable(value) and getattr(value, "__module__", None) == "framescale.polytope"]
        assert {"all_d_subsets_independent", "_fragile_subsets"} <= set(checks)
        for name in checks:
            monkeypatch.setattr(module, name, unaffordable)
        frame = renormalize(duplicated_instance(10, 40, 2, seed=0), 10 / 40)
        for eta_max in (0.0, 1e-6):
            assert perturb_to_general_position(frame, eta_max, 0) is frame

    @pytest.mark.parametrize("family", ["degenerate", "even_d_eps_1e-5"])
    def test_matches_full_checks(self, family):
        # the benchmark's degenerate inputs at seeds 0 and 11, and the even-d
        # harmonic frames at eps = 1e-5 that the gate rejects on some seeds
        if family == "degenerate":
            inputs = degenerate_workload(0) + degenerate_workload(11)[:-3]
        else:
            inputs = [(perturb_frame(generate_enpf(d, n, s), 1e-5, s), s)
                      for d, n in [(6, 12), (4, 12), (4, 8)] for s in range(20)]
            inputs += [(perturb_frame(generate_enpf(6, 18, s), 1e-5, s), s) for s in (1, 2)]
        outcomes = []
        for frame, seed in inputs:
            d, n = frame.d, frame.n
            U = renormalize(frame, d / n)
            eta_max = _eta_max(frame_metrics(frame).eps, d, n)
            try:
                expected = general_position_by_full_checks(U, eta_max, seed)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as info:
                    perturb_to_general_position(U, eta_max, seed)
                assert str(info.value) == str(exc)
                outcomes.append("raised")
            else:
                out = perturb_to_general_position(U, eta_max, seed)
                assert out.vectors.tobytes() == expected.vectors.tobytes()
                outcomes.append("kept" if out is U else "moved")
        # at eps = 1e-5 no retry succeeds: each input passes as it is, or raises
        assert set(outcomes) == {"raised", "kept"} | ({"moved"} if family == "degenerate" else set())

    @pytest.mark.parametrize("degenerate", [True, False])
    def test_negative_seed_rejected(self, degenerate):
        rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]] if degenerate else mercedes_frame().vectors
        frame = renormalize(Frame(np.array(rows)), 2 / 3)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            perturb_to_general_position(frame, 1e-6, -1)

    def test_negative_eta_rejected(self):
        frame = renormalize(mercedes_frame(), 2 / 3)
        for eta_max in (-1.0, math.nan):
            with pytest.raises(ValueError, match="^eta_max must be nonnegative"):
                perturb_to_general_position(frame, eta_max, 0)

    def test_distance_within_budget(self):
        rng = np.random.default_rng(2)
        frame = renormalize(Frame(rng.standard_normal((8, 3))), 3 / 8)
        out = perturb_to_general_position(frame, 1e-7, seed=3)
        assert dist_sq(frame, out) <= 8 * 1e-7**2 + 1e-18


class TestRepair:
    def test_exact_input_returns_nearby_frame(self):
        report = repair(mercedes_frame(), 1e-9, seed=0)
        assert report.certified
        assert report.dist_sq_vw <= 4 * 3 * _eta_max(report.eps, 2, 3) ** 2 + 1e-20
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
        with pytest.raises(ScalingConvergenceError, match="basis polytope") as info:
            repair(Frame(vectors), 1e-9, seed=0)
        assert info.value.blocking_subset == tuple(range(318))

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

    def test_rejects_overflowing_input_by_its_eps(self):
        frame = Frame(np.array([[1e160, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="input eps=inf is not below 0.5"):
            repair(frame, 1e-9, seed=0)

    def test_rejects_nan_eps(self, monkeypatch):
        nan = framescale.FrameMetrics(eps_op=math.nan, eps_norm=math.nan, eps=math.nan)
        module = importlib.import_module("framescale.repair")
        monkeypatch.setattr(module, "frame_metrics", lambda frame: nan)
        with pytest.raises(ValueError, match="input eps=nan is not below 0.5"):
            repair(mercedes_frame(), 1e-9, seed=0)

    def test_rejects_bad_delta(self):
        for delta in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError):
                repair(mercedes_frame(), delta, seed=0)

    def test_rejects_negative_seed(self):
        # Whether the gate draws from the seed depends on the frame; the
        # check does not.
        scaled = generate_enpf(4, 8, 0).vectors.copy()
        scaled[0] *= 0.8
        for frame in (perturbed_instance(4, 32, 1e-2, 0), Frame(scaled)):
            with pytest.raises(ValueError, match="seed must be nonnegative"):
                repair(frame, 1e-9, seed=-1)

    def test_solver_target_is_delta_over_d(self):
        for d, n, delta in ((2, 5, 1e-9), (4, 12, 1e-3), (8, 24, 0.45)):
            report = repair(perturbed_instance(d, n, 1e-2, d), delta, seed=d)
            assert report.delta_solver == delta / d

    @pytest.mark.parametrize("d, n", [(3, 7), (8, 24)])
    def test_loose_delta_certifies(self, d, n):
        # delta far above eps: the solver target delta / d may stop the
        # solve at t = 0, and the certificate must still hold.
        for eps in (1e-1, 1e-5):
            for seed, delta in enumerate((1e-4, 0.1, 0.45)):
                report = repair(perturbed_instance(d, n, eps, seed), delta, seed=seed)
                assert report.certified
                assert report.output_eps <= delta
                assert audit_lemma_chain(report).passed

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
        _, resid = isotropy_residual(report.perturbed_frame, report.scaling.A)
        assert resid <= report.delta_solver


def test_distance_matches_alternating_projections():
    # The AP yardstick reaches the same delta by another method; repair's
    # output should be as close to V, within 10%. Measured ratios are 1.0000-1.0001.
    for d in (3, 4, 6):
        for n in (2 * d + 1, 3 * d):
            for eps in (1e-2, 1e-1):
                for seed in range(3):
                    frame = perturbed_instance(d, n, eps, seed)
                    report = repair(frame, 1e-9, seed)
                    yardstick = alternating_projections(frame, 1e-9)
                    assert report.certified
                    assert report.dist_sq_vw <= 1.1 * dist_sq(frame, yardstick), (d, n, eps, seed)


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
            self.assert_matches_per_vector_oracle(report, audit, (d, n, eps))

    @pytest.mark.parametrize("d, n", [(4, 512), (8, 1024), (48, 192)])
    def test_benchmark_shapes_match_the_per_vector_oracle(self, d, n):
        report = repair(perturbed_instance(d, n, 1e-2, seed=0), 1e-9, seed=0)
        assert report.certified
        audit = audit_lemma_chain(report)
        assert audit.passed, [c for c in audit.checks if not c.passed]
        self.assert_matches_per_vector_oracle(report, audit, (d, n))

    @staticmethod
    def assert_matches_per_vector_oracle(report, audit, where):
        """Checks (a), (b) and (e), evaluated for all vectors at once, against the per-vector loops."""
        for name, (passed, lhs, rhs) in audit_per_vector_oracle(report).items():
            check = audit.check(name)
            assert check.passed == passed, (*where, name)
            assert math.isclose(check.lhs, lhs, rel_tol=1e-12), (*where, name)
            assert math.isclose(check.rhs, rhs, rel_tol=1e-12), (*where, name)

    def test_gamma_prime_is_measured_once_per_report_from_its_own_frame(self):
        report = repair(perturbed_instance(3, 7, 1e-2, seed=0), 1e-9, seed=0)
        gp = report.gamma_prime_effective
        assert gp == _eps_norm(report.perturbed_frame)
        assert report.__dict__["gamma_prime_effective"] == gp
        moved = Frame(report.perturbed_frame.vectors * 1.01)
        assert dataclasses.replace(report, perturbed_frame=moved).gamma_prime_effective == _eps_norm(moved)
        assert audit_lemma_chain(report).check("norm_rescaling_distance").rhs == 2.0 * gp

    def test_derived_numbers_are_measured_once_per_report(self, monkeypatch):
        module = importlib.import_module("framescale.repair")
        measured = []
        real = module.frame_metrics
        monkeypatch.setattr(module, "frame_metrics", lambda frame: measured.append(frame) or real(frame))
        frame = perturbed_instance(3, 7, 1e-2, seed=0)
        report = repair(frame, 1e-9, seed=0)
        values = {name: getattr(report, name) for name in DERIVED}
        audit_lemma_chain(report)
        report_to_dict(report)
        # V by the range check, whose metrics the report keeps, and W once.
        assert measured == [frame, report.output_frame]
        assert {name: report.__dict__[name] for name in DERIVED} == values
        moved = dataclasses.replace(report, output_frame=Frame(1.5 * report.output_frame.vectors))
        assert not set(DERIVED) & moved.__dict__.keys()
        assert not moved.certified
        assert moved.output_eps == real(moved.output_frame).eps != report.output_eps
        assert measured[2:] == [frame, moved.output_frame]

    def test_singular_transform_recorded_not_raised(self):
        report = repair(perturbed_instance(3, 7, 1e-2, seed=0), 1e-9, seed=0)
        A = report.scaling.A.copy()
        A[-1] = 0.0
        audit = audit_lemma_chain(
            dataclasses.replace(report, scaling=dataclasses.replace(report.scaling, A=A))
        )
        assert not audit.passed
        assert [c.name for c in audit.checks if not c.passed] == [
            "transport_column_bound",
            "norm_rescaling_distance",
        ]

    def test_vanished_image_fails_its_checks_without_a_warning(self):
        # A zero last column maps the perturbed vector e_3 |u_0| to exactly 0.
        report = repair(perturbed_instance(3, 7, 1e-2, seed=0), 1e-9, seed=0)
        A = report.scaling.A.copy()
        A[:, -1] = 0.0
        vectors = report.perturbed_frame.vectors.copy()
        vectors[0] = [0.0, 0.0, np.linalg.norm(vectors[0])]
        audit = audit_lemma_chain(
            dataclasses.replace(
                report,
                perturbed_frame=Frame(vectors),
                scaling=dataclasses.replace(report.scaling, A=A),
            )
        )
        # (f) measures dist^2(U, W) of the moved U, 1.1, past its lemma bound 0.36.
        assert [c.passed for c in audit.checks] == [False] * 6

    def test_lemma_bound_recorded(self):
        report = repair(perturbed_instance(3, 8, 1e-2, seed=10), 1e-9, seed=10)
        audit = audit_lemma_chain(report)
        composed = audit.check("composed_certified_bound")
        assert report.dist_sq_uw <= composed.detail["lemma_rhs"]


class TestReverify:
    def test_matches_fresh_report(self, tmp_path, capsys):
        # A report read back from its file measures every derived number and
        # the scaling's verdict from the stored arrays, bit for bit as in memory.
        report = repair(perturbed_instance(3, 9, 1e-2, seed=11), 1e-9, seed=11)
        assert reverify(report) is report
        path = tmp_path / "report.json"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.certified is True
        for obj, again, names in ((report, loaded, DERIVED), (report.scaling, loaded.scaling, MEASURED)):
            for name in names:
                value, measured = getattr(obj, name), getattr(again, name)
                assert (type(measured), repr(measured)) == (type(value), repr(value)), name
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
        write_report(path, stored)
        with pytest.raises(ValueError, match="A u_i = 0 at index 0"):
            read_report(path)
        assert main(["audit", "--input", str(path)]) == EXIT_CONFIG
        assert "A u_i = 0 at index 0" in capsys.readouterr().err

    # (3, 9) takes the low-rank Newton step and (6, 12) the dense one.
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d, n", [(3, 9), (6, 12)])
    def test_stored_report_reproduces_solver_numbers(self, tmp_path, d, n, seed):
        report = repair(perturbed_instance(d, n, 1e-2, seed), 1e-9, seed=seed)
        path = tmp_path / "report.json"
        write_report(path, report)
        fresh = reverify(read_report(path))
        assert fresh.scaling.residual_inf == report.scaling.residual_inf
        assert fresh.scaling.stationarity_gap == report.scaling.stationarity_gap

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
        in_memory = reverify(report)
        rebuilt = reverify(loaded)
        assert in_memory.certified
        assert rebuilt.certified == in_memory.certified
        assert rebuilt.dist_sq_vw == in_memory.dist_sq_vw
        assert rebuilt.scaling.residual_inf == in_memory.scaling.residual_inf
        assert rebuilt.scaling.stationarity_gap == in_memory.scaling.stationarity_gap
        assert audit_lemma_chain(rebuilt).passed

        data = json.loads(path.read_text())
        vectors = np.array(data["frames"]["output"]["vectors"])
        data["frames"]["output"]["vectors"] = (vectors * 1.5).tolist()
        path.write_text(json.dumps(data))
        assert not reverify(read_report(path)).certified

    def test_tripled_input_outside_the_range_is_not_certified(self):
        # U = renormalize(3V) equals U, and the bound 20 eps d^2 of the tripled
        # input covers W; only the range eps < 1/2 of the bound is left to fail.
        report = repair(perturbed_instance(4, 12, 1e-2, seed=3), 1e-9, seed=3)
        fresh = reverify(dataclasses.replace(report, input_frame=Frame(3 * report.input_frame.vectors)))
        assert fresh.eps >= 0.5
        assert fresh.dist_sq_vw <= fresh.bound and fresh.output_eps <= fresh.delta
        assert fresh.scaling.converged
        assert not fresh.certified

    def test_tampered_packed_frame_detected(self, tmp_path):
        # The gate left U = renormalize(V, d/n), so the report leaves U out;
        # a stored perturbed block takes precedence over the rebuilt U.
        report = repair(perturbed_instance(3, 9, 1e-2, seed=13), 1e-9, seed=13)
        path = tmp_path / "report.json"
        write_report(path, report)
        data = json.loads(path.read_text())
        assert "perturbed" not in data["frames"]
        vectors = read_packed(data["frames"]["input"]["vectors"]).reshape(9, 3)
        vectors = renormalize(Frame(vectors), 3 / 9).vectors.copy()
        vectors[0] *= 1.5
        data["frames"]["perturbed"] = {"d": 3, "n": 9, "vectors": write_packed(vectors)}
        path.write_text(json.dumps(data))
        loaded = read_report(path)
        np.testing.assert_array_equal(loaded.perturbed_frame.vectors, vectors)
        assert not reverify(loaded).certified
