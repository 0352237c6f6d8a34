import concurrent.futures
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import sagakit.algebra as algebra_module
import sagakit.apolarity as apolarity_module
import sagakit.gnlab as gnlab_module
from sagakit.algebra import (AlgebraError, GradedAlgebra,
                             from_inverse_system, from_regular_sequence)
from sagakit.exactla import Matrix, det_ff
from sagakit.gnlab import (DegenerateAlgebra, GammaSample, SLPEvidence,
                           check_ggn, check_k1_bound,
                           check_ker_coker, composed_gn_map, corrupt_sample,
                           degenerate_pair_search, gn_map_check,
                           monomial_quadric_ci, perazzo_fixture,
                           printed_gn_map, sample_gamma,
                           tangent_kernel_check, theorem_c_experiment,
                           _line_roots, _theorem_c_trial)
from sagakit.polyring import FieldSpec, RATIONAL, parse_poly

from oracles import (boxed, echelon_of, matrix_sample_gamma, stepped_ggn,
                     stepped_ker_coker)
from test_lefschetz import perazzo_type

F101 = FieldSpec.prime(101)


def poly(text, n, field=RATIONAL):
    return parse_poly(text, n, field)


class TestSampleGamma:
    def test_perazzo_fiber_dimension(self, perazzo_alg):
        for seed in range(6):
            s = sample_gamma(perazzo_alg, 1, seed=seed)
            assert s.kernel_dim_at_x == 1
            assert not s.y.is_zero
            assert perazzo_alg.multiply(s.x, s.y).is_zero

    @pytest.mark.parametrize("text", ["x0^3*x1 + x0*x1*x2*x3",
                                      "x0^2*x1*x2 + x0*x1*x2*x3"])
    def test_structural_vanishing_raises_before_any_draw(self, monkeypatch,
                                                         text):
        # over F_2, x^2 = sum c^2 b^2 and every b^2 is 0 in (1, 4, 6, 4, 1)
        alg = from_inverse_system(poly(text, 4, FieldSpec.prime(2)))
        assert alg.hilbert == (1, 4, 6, 4, 1)
        draws = []
        real = alg.random_element
        monkeypatch.setattr(alg, "random_element",
                            lambda *a, **kw: draws.append(a) or real(*a, **kw))
        with pytest.raises(DegenerateAlgebra, match="for every degree-1 x"):
            sample_gamma(alg, 2, seed=0)
        assert draws == []

    def test_small_characteristic_with_a_live_square_still_draws(self):
        # over F_2 the classes of x_i^2 in k[x]/(x0^3, x1^3, x2^3) are not 0
        field = FieldSpec.prime(2)
        alg = from_regular_sequence([poly(f"x{i}^3", 3, field)
                                     for i in range(3)])
        try:
            sample = sample_gamma(alg, 2, seed=0)
        except SLPEvidence as exc:
            x = exc.x
        else:
            x = sample.x
        assert not alg.power(x, 2).is_zero

    def test_monomial_ci_gives_evidence(self, monomial_ci):
        # the top-range fiber is empty over random x: injectivity evidence
        with pytest.raises(SLPEvidence):
            sample_gamma(monomial_ci, 3, seed=0)

    def test_exponent_bounds(self, perazzo_alg, monomial_ci):
        with pytest.raises(AlgebraError):
            sample_gamma(perazzo_alg, 2, seed=0)  # N-1 = 2 out of range
        with pytest.raises(AlgebraError):
            sample_gamma(monomial_ci, 4, seed=0)

    def test_reproducible(self, perazzo_alg):
        a = sample_gamma(perazzo_alg, 1, seed=5)
        b = sample_gamma(perazzo_alg, 1, seed=5)
        assert a.x == b.x and a.y == b.y


F3 = FieldSpec.prime(3)


@st.composite
def gamma_cases(draw):
    """Perazzo-type cubics and quartics x0*g0 + x1*g1 + x2*g2 (g_i forms in
    x3, x4), most of which have gamma samples at k = N - 2, over Q and
    F_32003, and quartics
    over F_3, where k = 2 and C(3, 1) = C(3, 2) = 0; with t values that
    include fractions and, over F_3, multiples of 3."""
    field = draw(st.sampled_from([RATIONAL, FieldSpec.prime(32003), F3]))
    d = 4 if field is F3 else draw(st.sampled_from([3, 4]))
    form = perazzo_type(draw(st.lists(st.integers(-3, 3), min_size=3 * d,
                                      max_size=3 * d)), d, field)
    assume(not form.is_zero)
    t_values = draw(st.lists(st.integers(-9, 9)
                             | st.fractions(-3, 3, max_denominator=2),
                             min_size=1, max_size=4))
    return form, d - 2, t_values, draw(st.integers(0, 2**16))


@given(gamma_cases())
@settings(max_examples=60, deadline=None)
def test_power_shift_checks_match_stepped_powers(case):
    form, k, t_values, seed = case
    try:
        algebra = from_inverse_system(form)
        sample = sample_gamma(algebra, k, seed=seed)
    except (AlgebraError, SLPEvidence):
        assume(False)
    samples = [sample]
    try:
        samples.append(corrupt_sample(algebra, sample, seed=seed + 1))
    except (AlgebraError, DegenerateAlgebra):
        pass
    for s in samples:
        assert check_ker_coker(algebra, s) == stepped_ker_coker(algebra, s)
        assert check_ggn(algebra, s) == stepped_ggn(algebra, s)
        assert (check_ggn(algebra, s, t_values)
                == stepped_ggn(algebra, s, t_values))


@given(gamma_cases())
@settings(max_examples=60, deadline=None)
def test_sample_gamma_matches_the_matrix_path(case):
    # y is formed from the int kernel vectors with the seeded weights that
    # the field-value kernel basis took
    form, k, _, seed = case
    try:
        algebra = from_inverse_system(form)
        sample = sample_gamma(algebra, k, seed=seed)
    except SLPEvidence:
        assert matrix_sample_gamma(algebra, k, seed) is None
        return
    except (AlgebraError, DegenerateAlgebra):
        assume(False)
    assert ((sample.x.coords, sample.y.coords, sample.kernel_dim_at_x)
            == matrix_sample_gamma(algebra, k, seed))


def test_power_shift_over_f3_reads_only_the_cube_of_y():
    # (x + t y)^3 = x^3 + t^3 y^3 in characteristic 3, so the check holds at
    # t != 0 exactly when y^3 = 0, and a corrupted y can pass it
    form = perazzo_type([1, -2, 3, 1, 2, -1, 1, 1, 2, -3, 1, 1], 4, F3)
    algebra = from_inverse_system(form)
    sample = sample_gamma(algebra, 2, seed=5)
    bad = corrupt_sample(algebra, sample, seed=6)
    # bad lies off the fiber, yet its cube is 0 too, so it passes
    assert not check_ker_coker(algebra, bad) and check_ggn(algebra, bad)
    for s in (sample, bad):
        cube_zero = algebra.power(s.y, 3).is_zero
        assert check_ggn(algebra, s, (1, 2, 4)) == cube_zero
        assert check_ggn(algebra, s, (3, 0, 6))
        assert check_ggn(algebra, s) == stepped_ggn(algebra, s)


class TestIdentities:
    def test_ker_coker_on_samples(self, perazzo_alg):
        for seed in range(8):
            s = sample_gamma(perazzo_alg, 1, seed=seed)
            assert check_ker_coker(perazzo_alg, s)
            # k = 1 unpacks to x*y = 0 and y^2 = 0
            assert perazzo_alg.multiply(s.x, s.y).is_zero
            assert perazzo_alg.power(s.y, 2).is_zero

    def test_ggn_on_samples(self, perazzo_alg):
        for seed in range(8):
            s = sample_gamma(perazzo_alg, 1, seed=seed)
            assert check_ggn(perazzo_alg, s)

    @pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7),
                                       FieldSpec.prime(32003)])
    def test_ggn_at_a_fractional_t(self, field):
        # x0*x1 = 0 and x0^2 = x1^2 here, so with x = x0 - x1/4 and y = x1,
        # (x + t y)^2 = x^2 exactly at t = 0 and t = 1/2, and at 7 = 0 mod 7
        algebra = from_inverse_system(poly("x0^2 + x1^2", 2, field))
        sample = GammaSample(k=1, x=algebra.reduce(poly("x0 - 1/4*x1", 2,
                                                        field)),
                             y=algebra.reduce(poly("x1", 2, field)),
                             kernel_dim_at_x=0)
        ts = [0, Fraction(1, 2), Fraction(1, 4), 1, -1, 2, 7]
        got = [check_ggn(algebra, sample, (t,)) for t in ts]
        assert got == [True, True, False, False, False, False, field.p == 7]
        assert got == [stepped_ggn(algebra, sample, (t,)) for t in ts]

    def test_ggn_t_zero_trivial(self, perazzo_alg):
        s = sample_gamma(perazzo_alg, 1, seed=1)
        assert check_ggn(perazzo_alg, s, t_values=(0,))

    def test_corrupted_samples_fail(self, perazzo_alg):
        for seed in range(4):
            s = sample_gamma(perazzo_alg, 1, seed=seed)
            bad = corrupt_sample(perazzo_alg, s, seed=seed + 100)
            assert not check_ker_coker(perazzo_alg, bad)
            assert not check_ggn(perazzo_alg, bad)

    def test_corrupt_sample_rejects_a_vanishing_power(self, perazzo_alg):
        # x^2 = 0 puts every y in the fiber; no draw may be attempted
        x = perazzo_alg.element(1, [1, 2, 3, 0, 0])
        assert perazzo_alg.power(x, 2).is_zero
        sample = GammaSample(k=2, x=x, y=x, kernel_dim_at_x=5)
        with pytest.raises(AlgebraError, match=r"x\^2 is 0"):
            corrupt_sample(perazzo_alg, sample)

    def test_corrupt_sample_gives_up_after_32_draws(self, monkeypatch,
                                                     perazzo_alg):
        # every draw returns the sample's own y, which lies in the fiber
        sample = sample_gamma(perazzo_alg, 1, seed=0)
        draws = []

        def in_fiber(degree, rng):
            draws.append(degree)
            return sample.y

        monkeypatch.setattr(perazzo_alg, "random_element", in_fiber)
        with pytest.raises(DegenerateAlgebra, match="32 consecutive"):
            corrupt_sample(perazzo_alg, sample)
        assert draws == [1] * 32


class TestKernelBounds:
    def test_k1_bound_tight_case(self, monomial_ci):
        eta = monomial_ci.reduce(poly("x0*x1*x2", 5))
        # brute force: x_i * x0x1x2 = 0 exactly for i in {0,1,2}
        ech = echelon_of(
            boxed(monomial_ci.field, *monomial_ci.mul_map(eta, 1)))
        kernel = boxed(ech.field, ech.kernel_ints(), ech.den).entries
        assert len(kernel) == 3
        assert check_k1_bound(monomial_ci, eta)  # 3 >= 1*3 is tight

    def test_k1_bound_degree_one(self, monomial_ci):
        rng = random.Random(14)
        for _ in range(10):
            eta = monomial_ci.random_element(1, rng)
            ech = echelon_of(
                boxed(monomial_ci.field, *monomial_ci.mul_map(eta, 1)))
            kernel = boxed(ech.field, ech.kernel_ints(), ech.den).entries
            assert check_k1_bound(monomial_ci, eta)
            # degree-1 bound forces injectivity
            assert len(kernel) == 0

    def test_k1_bound_random_degrees(self, monomial_ci):
        rng = random.Random(15)
        for h in range(1, 5):
            for _ in range(25):
                eta = monomial_ci.random_element(h, rng)
                assert check_k1_bound(monomial_ci, eta)

    def test_k1_zero_rejected(self, monomial_ci):
        with pytest.raises(AlgebraError):
            check_k1_bound(monomial_ci, monomial_ci.zero_element(2))

    def test_k1_needs_regular_sequence(self, perazzo_alg):
        eta = perazzo_alg.basis(1)[0]
        with pytest.raises(AlgebraError):
            check_k1_bound(perazzo_alg, eta)

    def test_tangent_kernel_x0(self, monomial_ci):
        y = monomial_ci.reduce(poly("x0", 5))
        assert tangent_kernel_check(monomial_ci, y, 2)

    def test_tangent_kernel_x0_plus_x1(self, monomial_ci):
        # oracle: y^3 = (x0+x1)^3 has a square in every term, y^2 = 2x0x1 != 0
        y = monomial_ci.reduce(poly("x0 + x1", 5))
        assert monomial_ci.power(y, 3).is_zero
        assert not monomial_ci.power(y, 2).is_zero
        assert tangent_kernel_check(monomial_ci, y, 3)

    def test_tangent_kernel_ranks_y_to_the_a_minus_one(self, monomial_ci,
                                                       monkeypatch):
        # ker(y) lies in ker(y^(a-1)), so the verdict alone cannot tell
        # which class was ranked; here y^2 = 2*x0*x1 != y.  Its rank 3 mod
        # p falls short of h_1 = 5, so its map is ranked over Q too
        seen = []
        real = GradedAlgebra.mul_map

        def recording(self, alpha, i, m=1):
            seen.append(alpha)
            return real(self, alpha, i, m)

        monkeypatch.setattr(GradedAlgebra, "mul_map", recording)
        y = monomial_ci.reduce(poly("x0 + x1", 5))
        assert tangent_kernel_check(monomial_ci, y, 3)
        shadow = monomial_ci.shadow
        y_mod_p = shadow.reduce(poly("x0 + x1", 5, shadow.field))
        assert seen == [shadow.power(y_mod_p, 2), monomial_ci.power(y, 2)]
        assert seen[1] != y

    # (check, class, tangent exponent a, whether the ranked map is full mod
    # p): a full rank mod p is the Q rank, and a lower one is read over Q;
    # either way the verdict is that of the algebra built with no shadow
    @pytest.mark.parametrize("check,text,a,full", [
        (check_k1_bound, "x0 + x1 + x2 + x3 + x4", None, True),
        (check_k1_bound, "x0*x1", None, False),
        (tangent_kernel_check, "x0 + x1 + x2 + x3", 5, True),
        (tangent_kernel_check, "x0 + x1", 3, False)])
    def test_kernel_bounds_rank_mod_p_first(self, monomial_ci, monkeypatch,
                                            check, text, a, full):
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "_modular_shadow", lambda *args: None)
            over_q = from_regular_sequence(monomial_quadric_ci())
        args = () if a is None else (a,)
        want = check(over_q, over_q.reduce(poly(text, 5)), *args)
        fields = []
        real = GradedAlgebra.mul_map

        def recording(self, *rest):
            fields.append(str(self.field))
            return real(self, *rest)

        monkeypatch.setattr(GradedAlgebra, "mul_map", recording)
        assert check(monomial_ci, monomial_ci.reduce(poly(text, 5)),
                     *args) == want
        assert fields == (["fp:32003"] if full
                          else ["fp:32003", "rational"])

    def test_tangent_kernel_precondition(self, monomial_ci):
        y = monomial_ci.reduce(poly("x0", 5))
        with pytest.raises(AlgebraError):
            tangent_kernel_check(monomial_ci, y, 3)  # y^2 = 0 already


class TestDegeneratePairSearch:
    def test_monomial_ci_over_f101(self):
        algebra = from_regular_sequence(
            [poly(t, 5, F101) for t in ("x0^2", "x1^2", "x2^2", "x3^2",
                                        "x4^2")])
        pair = degenerate_pair_search(algebra, seed=0, budget=64)
        assert pair is not None
        assert pair.dim_k2_q in (6, 7)
        assert pair.dim_k1_q <= 2
        # x*q = 0 holds exactly
        assert algebra.multiply(pair.x, pair.q).is_zero

    def test_monomial_ci_known_pair(self):
        # brute-force oracle: q = x0*x1 annihilates exactly x0, x1 in degree 1
        # and the three square-free products of {x2,x3,x4} survive in degree 2
        algebra = from_regular_sequence(
            [poly(t, 5, F101) for t in ("x0^2", "x1^2", "x2^2", "x3^2",
                                        "x4^2")])
        q = algebra.reduce(poly("x0*x1", 5, F101))
        ech1 = echelon_of(boxed(algebra.field, *algebra.mul_map(q, 1)))
        ech2 = echelon_of(boxed(algebra.field, *algebra.mul_map(q, 2)))
        dim_k1 = len(boxed(ech1.field, ech1.kernel_ints(), ech1.den).entries)
        dim_k2 = len(boxed(ech2.field, ech2.kernel_ints(), ech2.den).entries)
        assert dim_k1 == 2
        assert dim_k2 == 10 - len(list(combinations(range(2, 5), 2)))
        assert dim_k2 == 7

    def test_random_ci_over_f101(self):
        rng = random.Random(8)
        from sagakit.polyring import Polynomial, monomial_basis
        basis = monomial_basis(5, 2)
        forms = [Polynomial(5, F101, {m: rng.randint(0, 100) for m in basis})
                 for _ in range(5)]
        algebra = from_regular_sequence(forms)
        found = 0
        for seed in range(4):
            pair = degenerate_pair_search(algebra, seed=seed, budget=64)
            if pair is None:
                continue
            found += 1
            assert pair.dim_k2_q in (6, 7)
            assert pair.dim_k1_q <= 2
        assert found >= 3

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_line_roots_match_a_determinant_at_every_s(self, p):
        # h + 1 >= p scans every s directly; smaller h interpolates the rest
        field = FieldSpec.prime(p)
        rng = random.Random(p)
        for h in range(1, 6):
            for _ in range(4):
                a0, a1 = ([[rng.randrange(p) for _ in range(h)]
                           for _ in range(h)] for _ in range(2))
                if rng.random() < 0.3:
                    a1[0] = [0] * h  # lower the degree in s
                direct = [s for s in range(p) if not det_ff(Matrix(
                    [[e0 + s * e1 for e0, e1 in zip(r0, r1)]
                     for r0, r1 in zip(a0, a1)], field))]
                assert list(_line_roots(a0, a1, field)) == direct

    def test_budget_zero(self):
        algebra = from_regular_sequence(
            [poly(t, 5, F101) for t in ("x0^2", "x1^2", "x2^2", "x3^2",
                                        "x4^2")])
        assert degenerate_pair_search(algebra, seed=0, budget=0) is None

    def test_rational_rejected(self, monomial_ci):
        with pytest.raises(AlgebraError):
            degenerate_pair_search(monomial_ci, seed=0)


class TestGnMap:
    def test_passes(self, perazzo_alg):
        report = gn_map_check(perazzo_alg, x_samples=16, seed=5)
        assert report.passed

    def test_discrepancy_noted_not_asserted(self, perazzo_alg):
        report = gn_map_check(perazzo_alg, x_samples=4, seed=5)
        assert report.data["printed_map_matches_composition"] is False
        assert report.notes
        assert report.passed  # the note never fails the report

    def test_composed_formula(self):
        composed = [q.to_string("w") for q in composed_gn_map()]
        assert composed == ["4*w4^2", "-4*w3*w4", "4*w3^2", "0", "0"]
        printed = [q.to_string("w") for q in printed_gn_map()]
        assert printed == ["2*w4^2", "-2*w3*w4", "2*w4^2", "0", "0"]

    def test_needs_pinned_algebra(self, perazzo_f):
        from sagakit.algebra import from_inverse_system
        with pytest.raises(AlgebraError):
            gn_map_check(from_inverse_system(perazzo_f))


class TestPerazzoFixture:
    def test_all_assertions_pass(self):
        report = perazzo_fixture(seed=1729)
        assert report.passed, report.failing()

    def test_expected_assertion_labels(self):
        report = perazzo_fixture(seed=1729)
        expected = {"ann2_dimension", "ann2_span_equality", "hilbert_vector",
                    "pairing_is_identity", "socle_class_equalities",
                    "not_a_cone", "hessian_vanishes", "slp1_fails_certified",
                    "gamma_ker_coker", "gamma_power_shift_identity",
                    "gamma_component_equations", "gamma_y_on_conic",
                    "corrupted_samples_fail", "square_zero_iff_plane"}
        assert expected <= set(report.assertions)

    def test_catalecticants_built_once_per_degree(self, monkeypatch,
                                                  perazzo_alg):
        # the cone verdict is read from h_1 of the algebra and handed to the
        # hessian, so only the annihilator piece of degree 2 is eliminated
        degrees = []
        real = apolarity_module.catalecticant

        def counted(form, i):
            degrees.append(i)
            return real(form, i)

        monkeypatch.setattr(apolarity_module, "catalecticant", counted)
        report = perazzo_fixture(seed=1729, algebra=perazzo_alg)
        assert report.passed and report.assertions["not_a_cone"]
        assert degrees == [2]


class TestTheoremC:
    def test_small_run_passes(self):
        report = theorem_c_experiment(4, seed=42)
        assert report.passed
        assert report.passes == 4
        assert report.skipped == 0
        assert report.per_trial[0]["kind"] == "monomial"
        for entry in report.per_trial:
            assert entry["hilbert"] == [1, 5, 10, 10, 5, 1]
            assert entry["slp1"]["holds"] and entry["slp1"]["certified"]
            assert entry["slp2"]["holds"]

    def test_non_regular_draw_skipped(self, monkeypatch):
        bad = [poly(t, 5) for t in ("x0^2", "x0*x1", "x1^2", "x2^2", "x3^2")]
        monkeypatch.setattr(gnlab_module, "_random_quadrics", lambda rng: bad)
        entry = _theorem_c_trial(1, seed=1)
        assert (entry["kind"], entry["status"]) == ("random", "skip")
        assert "degree" in entry["detail"]

    def test_deterministic(self):
        a = theorem_c_experiment(2, seed=11).to_json_dict()
        b = theorem_c_experiment(2, seed=11).to_json_dict()
        assert a == b

    def test_pool_size_clamped(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = theorem_c_experiment(3, seed=42, jobs=1).to_json_dict()
        assert sizes == []
        clamped = theorem_c_experiment(3, seed=42, jobs=100000).to_json_dict()
        assert sizes == [2]
        assert clamped == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        theorem_c_experiment(2, seed=42, jobs=100000)
        assert sizes == [2]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(AlgebraError):
            theorem_c_experiment(1, jobs=0)

    def test_parallel_matches_serial(self):
        serial = theorem_c_experiment(3, seed=42, jobs=1).to_json_dict()
        parallel = theorem_c_experiment(3, seed=42, jobs=2).to_json_dict()
        assert serial == parallel


class TestTheoremCModularFirst:
    def test_tiny_prime_misses_give_identical_reports(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "_modular_shadow", lambda *args: None)
            want = theorem_c_experiment(6, seed=42).to_json_dict()
        # mod 3 two draws fail the regular-sequence checks, and L^3 = sum l_i^3 x_i^3
        # vanishes in the monomial CI, so the trial-0 probe misses too
        monkeypatch.setattr(algebra_module, "SHADOW_PRIME", 3)
        shadows, q_probes = [], []
        real_shadow = algebra_module._modular_shadow
        real_map = GradedAlgebra.mul_map

        def shadow(*args):
            result = real_shadow(*args)
            shadows.append(result is not None)
            return result

        def mul_map(self, *args):
            if self.field.is_rational:
                q_probes.append(self.presentation["generators"][0])
            return real_map(self, *args)

        monkeypatch.setattr(algebra_module, "_modular_shadow", shadow)
        monkeypatch.setattr(GradedAlgebra, "mul_map", mul_map)
        got = theorem_c_experiment(6, seed=42).to_json_dict()
        assert got == want
        assert False in shadows and True in shadows
        assert poly("x0^2", 5) in q_probes

    def test_fast_path_builds_no_q_piece_above_degree_one(self, monkeypatch):
        widths = []
        real = algebra_module.echelon_rows

        def counting(rows, ncols, field):
            if field.is_rational:
                widths.append(ncols)
            return real(rows, ncols, field)

        monkeypatch.setattr(algebra_module, "echelon_rows", counting)
        for trial in range(3):
            entry = _theorem_c_trial(trial, seed=42)
            assert entry["status"] == "pass"
        # degree 0 and degree 1 have 1 and 5 monomials in five variables
        assert widths and max(widths) <= 5
