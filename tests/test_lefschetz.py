import random

import pytest

import sagakit.algebra as algebra_module
import sagakit.lefschetz as lefschetz_module
from sagakit.algebra import from_inverse_system, from_regular_sequence
from sagakit.exactla import det_ff, rank_kernel
from sagakit.lefschetz import (SLP, WLP, hessian, hessian_slp_crosscheck,
                               lefschetz_probe, second_partials,
                               symbolic_multiplication_matrix,
                               symbolic_probe_determinant)
from sagakit.polyring import (Monomial, PolyError, Polynomial, RATIONAL,
                              monomial_basis, parse_poly)

from oracles import hessian_det, poly_to_dict


def poly(text, n):
    return parse_poly(text, n)


FERMAT4 = "x0^3 + x1^3 + x2^3 + x3^3"


class TestProbe:
    def test_monomial_ci_slp1_holds(self, monomial_ci):
        report = lefschetz_probe(monomial_ci, SLP, 1, trials=8, seed=3)
        assert report.holds and report.certified
        assert report.max_rank_found == report.target_rank == 5
        assert report.witness is not None
        # the witness is a genuine certificate: recompute its rank directly
        power = monomial_ci.power(report.witness, 3)
        assert rank_kernel(monomial_ci.mul_map(power, 1)).rank == 5

    def test_monomial_ci_all_ones_witness(self, monomial_ci):
        L = monomial_ci.element(1, [1, 1, 1, 1, 1])
        cube = monomial_ci.power(L, 3)
        assert rank_kernel(monomial_ci.mul_map(cube, 1)).rank == 5

    def test_perazzo_slp1_fails_with_certificate(self, perazzo_alg):
        report = lefschetz_probe(perazzo_alg, SLP, 1, trials=16, seed=9)
        assert not report.holds
        assert report.certified
        assert report.max_rank_found == 4
        det = symbolic_probe_determinant(perazzo_alg, SLP, 1)
        assert det.is_zero

    def test_wlp_probe(self, monomial_ci):
        report = lefschetz_probe(monomial_ci, WLP, 2, trials=8, seed=5)
        assert report.holds
        assert report.target_rank == 10

    def test_invalid_degree(self, monomial_ci):
        with pytest.raises(Exception):
            lefschetz_probe(monomial_ci, SLP, 3, trials=1, seed=0)

    def test_json_schema(self, monomial_ci):
        report = lefschetz_probe(monomial_ci, SLP, 1, trials=4, seed=1)
        payload = report.to_json_dict()
        assert set(payload) == {"kind", "k", "target_rank", "max_rank",
                                "holds", "certified", "witness", "trials",
                                "seed"}

    def test_seed_reproducibility(self, monomial_ci):
        a = lefschetz_probe(monomial_ci, SLP, 1, trials=6, seed=77)
        b = lefschetz_probe(monomial_ci, SLP, 1, trials=6, seed=77)
        assert a == b

    def test_composition_rank_bound(self, monomial_ci):
        # multiplication by L^2 factors through two single steps, so its
        # rank never exceeds either factor's rank
        rng = random.Random(21)
        for _ in range(5):
            L = monomial_ci.random_element(1, rng)
            square = monomial_ci.power(L, 2)
            r_composite = rank_kernel(monomial_ci.mul_map(square, 1)).rank
            r_first = rank_kernel(monomial_ci.mul_map(L, 1)).rank
            r_second = rank_kernel(monomial_ci.mul_map(L, 2)).rank
            assert r_composite <= min(r_first, r_second)

    @pytest.mark.parametrize("name,k,m", [("monomial_ci", 1, 3),
                                          ("monomial_ci", 2, 1),
                                          ("perazzo_alg", 1, 1),
                                          ("perazzo_alg", 0, 3)])
    def test_symbolic_matrix_evaluates_to_mul_map(self, request, name, k, m):
        algebra = request.getfixturevalue(name)
        entries = symbolic_multiplication_matrix(algebra, k, m)
        rng = random.Random(31)
        for _ in range(3):
            L = algebra.random_element(1, rng)
            want = algebra.mul_map(algebra.power(L, m), k)
            got = [[e.eval_at(L.coords) for e in row] for row in entries]
            assert got == want.entries


class TestModularFirstProbe:
    def test_witness_prints_integer_coordinates(self, monkeypatch):
        a = from_regular_sequence([poly(f"x{i}^2", 5) for i in range(5)])
        assert a.shadow is not None
        q_ranks = []
        real = lefschetz_module._map_rank

        def recording(algebra, k, m, L):
            rank = real(algebra, k, m, L)
            if algebra.field.is_rational:
                q_ranks.append(rank)
            return rank

        monkeypatch.setattr(lefschetz_module, "_map_rank", recording)
        monkeypatch.setattr(lefschetz_module, "random_int_coords",
                            lambda rng, n: [-3, 1, 2, 5, 7])
        report = lefschetz_probe(a, SLP, 1, trials=1, seed=0)
        assert report.holds and q_ranks == []
        # -3 is 32000 mod p; the report keeps the integer
        assert report.to_json_dict()["witness"] == ["-3", "1", "2", "5", "7"]

    def test_shadow_probes_match_q_probes(self, monkeypatch):
        rng = random.Random(5)
        forms = [Polynomial(4, RATIONAL, {m: rng.randint(-3, 3)
                                          for m in monomial_basis(4, 2)})
                 for _ in range(4)]
        with_shadow = from_regular_sequence(forms)
        monkeypatch.setattr(algebra_module, "_modular_shadow",
                            lambda *args: None)
        without = from_regular_sequence(forms)
        assert with_shadow.shadow is not None and without.shadow is None
        for kind, k in ((SLP, 1), (SLP, 2), (WLP, 1), (WLP, 2), (WLP, 3)):
            for seed in range(3):
                assert (lefschetz_probe(with_shadow, kind, k, seed=seed)
                        == lefschetz_probe(without, kind, k, seed=seed))


class TestHessian:
    def test_binary_product(self):
        report = hessian(poly("x0*x1", 2))
        assert report.det == Polynomial.constant(-1, 2)
        assert not report.vanishes

    def test_perazzo_vanishes(self, perazzo_f):
        report = hessian(perazzo_f)
        assert report.vanishes
        assert report.det.is_zero

    def test_fermat_cubic(self):
        report = hessian(poly(FERMAT4, 4))
        assert report.det == poly("1296*x0*x1*x2*x3", 4)
        # oracle: sympy hessian determinant
        expected = poly_to_dict(hessian_det(FERMAT4, 4), 4)
        assert {m.exponents: c for m, c in report.det.terms.items()} == expected

    def test_symmetry(self, perazzo_f):
        entries = second_partials(perazzo_f)
        n = len(entries)
        for i in range(n):
            for j in range(n):
                assert entries[i][j] == entries[j][i]

    def test_variable_cap(self):
        big = Polynomial.from_monomial(Monomial([3, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(PolyError):
            hessian(big)

    def test_matches_sympy_on_random_cubics(self):
        rng = random.Random(47)
        basis = monomial_basis(3, 3)
        for _ in range(4):
            g = Polynomial(3, RATIONAL, {m: rng.randint(-3, 3) for m in basis})
            if g.is_zero:
                continue
            got = hessian(g).det
            expected = poly_to_dict(hessian_det(g.to_string(), 3), 3)
            assert {m.exponents: c for m, c in got.terms.items()} == expected


class TestCrossCheck:
    def test_perazzo(self, perazzo_f):
        assert hessian_slp_crosscheck(perazzo_f, [1, 2, 3, 4, 5], trials=7,
                                      seed=123)

    def test_perazzo_sides_singular(self, perazzo_f):
        # both sides of the identity are singular at any probing point
        partials = second_partials(perazzo_f)
        point = [3, -1, 2, 5, 7]
        from sagakit.exactla import Matrix as M
        evaluated = M([[e.eval_at(point) for e in row] for row in partials])
        assert det_ff(evaluated) == 0

    def test_degree_two(self):
        assert hessian_slp_crosscheck(poly("x0*x1", 2), [1, 1])

    def test_degree_two_pairing_matrix_values(self):
        # the degree-2 case has no power factor: the pairing matrix built
        # through the algebra equals the (constant) second-partial matrix
        from sagakit.algebra import socle_contraction_value
        g = poly("x0*x1", 2)
        algebra = from_inverse_system(g)
        ys = [algebra.reduce(poly(t, 2)) for t in ("x0", "x1")]
        entries = [[socle_contraction_value(algebra,
                                            algebra.multiply(a, b))
                    for b in ys] for a in ys]
        assert entries == [[0, 1], [1, 0]]

    def test_fermat_diagonal_values(self):
        from sagakit.algebra import socle_contraction_value
        g = poly(FERMAT4, 4)
        algebra = from_inverse_system(g)
        L = algebra.reduce(poly("x0 + x1 + x2 + x3", 4))
        power = algebra.power(L, 1)
        ys = [algebra.reduce(poly(f"x{i}", 4)) for i in range(4)]
        entries = [[socle_contraction_value(
            algebra, algebra.multiply(algebra.multiply(power, a), b))
            for b in ys] for a in ys]
        # 1! * Hess at the all-ones point: diag(6,6,6,6)
        assert entries == [[6 if i == j else 0 for j in range(4)]
                           for i in range(4)]

    def test_fermat(self):
        assert hessian_slp_crosscheck(poly(FERMAT4, 4), [1, 1, 1, 1],
                                      trials=7, seed=8)

    def test_random_cubics(self):
        rng = random.Random(61)
        basis = monomial_basis(5, 3)
        done = 0
        while done < 3:
            g = Polynomial(5, RATIONAL, {m: rng.randint(-2, 2) for m in basis})
            if g.is_zero:
                continue
            assert hessian_slp_crosscheck(g, [1, 0, -1, 2, 1], trials=3,
                                          seed=done)
            done += 1


class TestEquivalenceHarness:
    def test_hessian_vanishing_iff_slp1_failure(self, perazzo_f):
        # on forms with independent partials the two conditions agree
        cases = [perazzo_f, poly(FERMAT4, 4), poly("x0*x1", 2),
                 poly("x0^2*x1 + x1^2*x2 + x2^2*x0", 3)]
        for g in cases:
            algebra = from_inverse_system(g)
            assert algebra.codimension == g.n_vars  # independent partials
            probe = lefschetz_probe(algebra, SLP, 1, trials=16, seed=31)
            vanishes = hessian(g).vanishes
            if vanishes:
                assert not probe.holds
                det = symbolic_probe_determinant(algebra, SLP, 1)
                assert det.is_zero
            else:
                assert probe.holds

    def test_theorem_b_witnesses_for_low_codimension(self):
        # every inverse-system corpus entry of codimension <= 4 must yield
        # an exact degree-1 witness
        from sagakit.corpus import load_corpus
        checked = 0
        for entry in load_corpus():
            if entry.kind != "form":
                continue
            algebra = from_inverse_system(entry.polynomials())
            if algebra.codimension > 4:
                continue
            report = lefschetz_probe(algebra, SLP, 1, trials=8, seed=2)
            assert report.holds, entry.name
            checked += 1
        assert checked >= 5
