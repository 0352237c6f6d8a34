import random
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import sagakit.algebra as algebra_module
import sagakit.exactla as exactla_module
import sagakit.lefschetz as lefschetz_module
from sagakit.algebra import (GradedAlgebra, from_inverse_system,
                             from_regular_sequence)
from sagakit.apolarity import is_cone
from sagakit.exactla import Matrix, det_ff
from sagakit.lefschetz import (SLP, WLP, HessianReport, _point_hessian,
                               hessian, hessian_slp_crosscheck,
                               lefschetz_probe, second_partials,
                               symbolic_multiplication_matrix,
                               symbolic_probe_determinant)
from sagakit.polyring import (FieldSpec, PolyError, Polynomial, RATIONAL,
                              monomial_basis, parse_poly)

from sagakit.gnlab import monomial_quadric_ci, perazzo_algebra
from sagakit.seeding import DEFAULT_SEED, random_int_coords, rng_for

from oracles import (boxed, codimension, echelon_of, eval_at, hessian_det,
                     matrix_map_rank, point_hessian_reference, poly_to_dict,
                     second_partials_reference, stepped_map_rank,
                     stepped_symbolic_matrix)
from test_cli import QUADRIC_CI4


def poly(text, n):
    return parse_poly(text, n)


FERMAT4 = "x0^3 + x1^3 + x2^3 + x3^3"
F7 = FieldSpec.prime(7)


def dense_form(coeffs, n, d, field=RATIONAL):
    """The degree-d form in n variables with coeffs in monomial_basis order."""
    return Polynomial(n, field, dict(zip(monomial_basis(n, d), coeffs)))


def linear_change(g, n, seed):
    """g(l_0, ..., l_(k-1)) in n >= k variables, where l_i = sum_j A_ij x_j
    and A is an n x n integer matrix drawn from seed, invertible over the
    field of g.  With k < n the result is a cone: g in fewer coordinates."""
    rng = random.Random(seed)
    while True:
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det_ff(Matrix(A, g.field)):
            break
    lin = [Polynomial(n, g.field, {tuple(int(j == c) for j in range(n)): a
                                   for c, a in enumerate(row)})
           for row in A[:g.n_vars]]
    out = Polynomial.zero(n, g.field)
    for mon, coeff in g.terms.items():
        term = Polynomial.constant(coeff, n, g.field)
        for l, e in zip(lin, mon):
            term = term * l ** e
        out = out + term
    return out


def perazzo_type(coeffs, d, field=RATIONAL):
    """x0*g0 + x1*g1 + x2*g2, each g_i a degree-(d-1) form in x3, x4 with
    the next d coefficients of coeffs."""
    terms = {}
    for i in range(3):
        for a, c in zip(range(d - 1, -1, -1), coeffs[i * d:(i + 1) * d]):
            exps = [0] * 5
            exps[i], exps[3], exps[4] = 1, a, d - 1 - a
            terms[tuple(exps)] = c
    return Polynomial(5, field, terms)


class TestProbe:
    def test_monomial_ci_slp1_holds(self, monomial_ci):
        report = lefschetz_probe(monomial_ci, SLP, 1, trials=8, seed=3)
        assert report.holds and report.certified
        assert report.max_rank_found == report.target_rank == 5
        assert report.witness is not None
        # the witness is a genuine certificate: recompute its rank directly
        power = monomial_ci.power(report.witness, 3)
        assert echelon_of(
            boxed(monomial_ci.field, *monomial_ci.mul_map(power, 1))).rank == 5

    def test_monomial_ci_all_ones_witness(self, monomial_ci):
        L = monomial_ci.element(1, [1, 1, 1, 1, 1])
        cube = monomial_ci.power(L, 3)
        assert echelon_of(
            boxed(monomial_ci.field, *monomial_ci.mul_map(cube, 1))).rank == 5

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
            r_composite = echelon_of(
                boxed(monomial_ci.field, *monomial_ci.mul_map(square, 1))).rank
            r_first = echelon_of(
                boxed(monomial_ci.field, *monomial_ci.mul_map(L, 1))).rank
            r_second = echelon_of(
                boxed(monomial_ci.field, *monomial_ci.mul_map(L, 2))).rank
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
            want = boxed(algebra.field,
                         *algebra.mul_map(algebra.power(L, m), k))
            got = [[eval_at(e, L.coords) for e in row] for row in entries]
            assert got == want.entries


class TestModularFirstProbe:
    def test_witness_prints_integer_coordinates(self, monkeypatch):
        a = from_regular_sequence([poly(f"x{i}^2", 5) for i in range(5)])
        assert a.shadow is not None
        q_maps = []
        real = GradedAlgebra.mul_map

        def recording(self, alpha, i, m=1):
            if self.field.is_rational:
                q_maps.append((alpha, i, m))
            return real(self, alpha, i, m)

        monkeypatch.setattr(GradedAlgebra, "mul_map", recording)
        monkeypatch.setattr(lefschetz_module, "random_int_coords",
                            lambda rng, n: [-3, 1, 2, 5, 7])
        report = lefschetz_probe(a, SLP, 1, trials=1, seed=0)
        assert report.holds and q_maps == []
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


# the algebras on which the maps of L^m are checked against L stepped m times
PRODUCT_PATH_CASES = {
    # over Q with an F_32003 shadow, and that shadow on its own
    "quadric_ci": lambda: from_regular_sequence(
        [poly(t, 4) for t in QUADRIC_CI4.split(";")]),
    "quadric_ci_shadow": lambda: product_path_algebra("quadric_ci").shadow,
    # the same algebra built with no shadow, so every map is ranked over Q
    "quadric_ci_no_shadow": lambda: shadowless(
        [poly(t, 4) for t in QUADRIC_CI4.split(";")]),
    "monomial_ci_f7": lambda: from_regular_sequence(monomial_quadric_ci(F7)),
    # mod 3 some multinomial coefficients of L^m vanish
    "monomial_ci_f3": lambda: from_regular_sequence(
        monomial_quadric_ci(FieldSpec.prime(3))),
    "ternary_quartic": lambda: from_inverse_system(dense_form(
        [3, -1, 2, 0, 1, -2, 3, 1, -3, 2, 1, 0, -1, 2, 1], 3, 4)),
    # the fixture's pinned degree-2 basis
    "perazzo": perazzo_algebra,
    # h_1 = 3 < 5
    "cone": lambda: from_inverse_system(linear_change(
        dense_form([1, -2, 3, 1, 2, -1, 1, 1, 2, -3], 3, 3), 5, seed=2)),
}


def shadowless(forms):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra_module, "_modular_shadow", lambda *args: None)
        return from_regular_sequence(forms)


@cache
def product_path_algebra(name):
    return PRODUCT_PATH_CASES[name]()


@st.composite
def probed_maps(draw):
    """An algebra, a degree k and an exponent m with k + m <= N (m = 0
    included), and a linear form L with small integer coordinates."""
    algebra = product_path_algebra(draw(st.sampled_from(
        sorted(PRODUCT_PATH_CASES))))
    N = algebra.socle_degree
    k, m = draw(st.sampled_from([(k, m) for k in range(N + 1)
                                 for m in range(N - k + 1)]))
    h1 = algebra.dim(1)
    coords = draw(st.lists(st.integers(-3, 3), min_size=h1, max_size=h1))
    return algebra, k, m, algebra.element(1, coords)


@given(probed_maps())
@settings(max_examples=100, deadline=None)
def test_map_rank_matches_stepping(case):
    algebra, k, m, L = case
    want = stepped_map_rank(algebra, k, m, L)
    assert algebra.map_rank(L, k, m) == want == matrix_map_rank(
        algebra, k, m, L)
    if algebra.shadow is not None:
        image = algebra.shadow.reduce(Polynomial(
            algebra.n_vars, algebra.shadow.field, algebra.lift(L).terms), 1)
        assert (algebra.shadow.map_rank(image, k, m)
                == stepped_map_rank(algebra.shadow, k, m, image))


@pytest.mark.parametrize("name", sorted(PRODUCT_PATH_CASES))
def test_symbolic_matrix_matches_stepping(name):
    algebra = product_path_algebra(name)
    N = algebra.socle_degree
    for k in range(N + 1):
        for m in range(N - k + 1):
            assert (symbolic_multiplication_matrix(algebra, k, m)
                    == stepped_symbolic_matrix(algebra, k, m)), (k, m)


@pytest.mark.parametrize("name", sorted(PRODUCT_PATH_CASES))
def test_zero_exponent_is_the_identity(name):
    algebra = product_path_algebra(name)
    h1 = algebra.dim(1)
    L = algebra.element(1, [0] * h1)
    for k in range(algebra.socle_degree + 1):
        h = algebra.dim(k)
        assert algebra.map_rank(L, k, 0) == h
        assert symbolic_multiplication_matrix(algebra, k, 0) == [
            [Polynomial.constant(int(r == c), h1, algebra.field)
             for c in range(h)] for r in range(h)]


def test_probes_step_no_vector(perazzo_f, monkeypatch):
    """Without a pinned basis, neither a probe nor its certificate steps a
    vector through a matrix."""
    calls = []
    real = Matrix.mul_vector

    def counting(self, vec):
        calls.append(len(vec))
        return real(self, vec)

    monkeypatch.setattr(Matrix, "mul_vector", counting)
    perazzo = from_inverse_system(perazzo_f)
    report = lefschetz_probe(perazzo, SLP, 1, trials=4, seed=9)
    assert not report.holds and report.certified
    assert symbolic_probe_determinant(perazzo, SLP, 1).is_zero
    ci = product_path_algebra("quadric_ci")
    for kind, k in ((SLP, 1), (SLP, 2), (WLP, 1), (WLP, 3)):
        assert lefschetz_probe(ci, kind, k, seed=k).holds
    assert not symbolic_probe_determinant(ci, SLP, 1).is_zero
    assert calls == []


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
        assert report.det.terms == expected

    def test_symmetry(self, perazzo_f):
        entries = second_partials(perazzo_f)
        n = len(entries)
        for i in range(n):
            for j in range(n):
                assert entries[i][j] == entries[j][i]

    def test_variable_cap(self):
        big = Polynomial.from_monomial((3, 0, 0, 0, 0, 0, 0))
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
            assert got.terms == expected


@st.composite
def hessian_forms(draw):
    """Random cubics in 4-5 variables and quartics in 4, cones in 4-5
    variables, and Perazzo-type cubics and quartics, over Q and F_7.

    The symbolic oracle takes 0.5-1.6 s on a dense quartic in five
    variables, so dense quartics stay in four here; the path tests and the
    golden reports cover five.
    """
    field = draw(st.sampled_from([RATIONAL, F7]))
    kind = draw(st.sampled_from(["dense", "cone", "perazzo"]))
    d = draw(st.sampled_from([3, 4]))
    if kind == "perazzo":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=3 * d,
                               max_size=3 * d))
        form = perazzo_type(coeffs, d, field)
    else:
        n = draw(st.sampled_from([4, 5] if d == 3 else [4]))
        k = n if kind == "dense" else draw(st.integers(2, n - 1))
        size = len(monomial_basis(k, d))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=size,
                               max_size=size))
        form = dense_form(coeffs, k, d, field)
        if kind == "cone":
            form = linear_change(form, n, draw(st.integers(0, 2**32)))
    assume(not form.is_zero)
    return kind, form


@given(hessian_forms())
@settings(max_examples=60, deadline=None)
def test_hessian_verdict_matches_symbolic_determinant(case):
    kind, form = case
    report = hessian(form)
    eager = det_ff(Matrix(second_partials(form), form.field))
    assert report.vanishes == eager.is_zero
    if kind != "dense":
        assert report.vanishes


@st.composite
def point_hessian_cases(draw):
    """Forms of degree 0-4 in 1-5 variables with fractional coefficients,
    over Q and F_7, half of them cones in mixed coordinates, and a point
    with int and fractional coordinates."""
    field = draw(st.sampled_from([RATIONAL, F7]))
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 4))
    cone = n > 1 and draw(st.booleans())
    k = n - 1 if cone else n
    scalars = st.fractions(-3, 3, max_denominator=4)
    size = len(monomial_basis(k, d))
    form = dense_form(draw(st.lists(scalars, min_size=size, max_size=size)),
                      k, d, field)
    if cone:
        form = linear_change(form, n, draw(st.integers(0, 2**32)))
    assume(not form.is_zero)
    point = draw(st.lists(st.integers(-1000, 1000) | scalars, min_size=n,
                          max_size=n))
    return cone, form, point


@given(point_hessian_cases())
@settings(max_examples=80, deadline=None)
def test_point_hessian_matches_evaluated_second_partials(case):
    cone, form, point = case
    rows, den = _point_hessian(form, point)
    field = form.field
    assert ([field.from_ints(row, den) for row in rows]
            == point_hessian_reference(form, point))
    if field.p:
        # over F_p the entries are residues in [0, p), over the denominator 1
        assert den == 1 and all(0 <= v < field.p for row in rows for v in row)
    if cone:
        # a relation sum c_i * d_i f = 0 gives H c = 0 at every point
        assert not det_ff(Matrix(rows, field))


@given(st.sampled_from([RATIONAL, FieldSpec.prime(2), FieldSpec.prime(3), F7]),
       st.integers(1, 5), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_second_partials_match_the_term_loop(field, n, d, data):
    # over F_2 and F_3 some factors e_i * (e_j - [i == j]) vanish mod p
    scalars = (st.fractions(-3, 3, max_denominator=4) if field.is_rational
               else st.integers(-3, 3))
    size = len(monomial_basis(n, d))
    form = dense_form(data.draw(st.lists(scalars, min_size=size,
                                         max_size=size)), n, d, field)
    assert second_partials(form) == second_partials_reference(form)


class TestHessianPath:
    """Which forms reach the symbolic determinant."""

    @pytest.fixture
    def symbolic_calls(self, monkeypatch):
        calls = []
        real = exactla_module._det_polynomial

        def counting(entries):
            calls.append(len(entries))
            return real(entries)

        monkeypatch.setattr(exactla_module, "_det_polynomial", counting)
        return calls

    def test_dense_quartic_is_settled_by_a_point(self, symbolic_calls):
        rng = random.Random(3)
        form = dense_form([rng.choice([-3, -2, -1, 1, 2, 3])
                           for _ in monomial_basis(5, 4)], 5, 4)
        assert not hessian(form).vanishes
        assert symbolic_calls == []

    def test_point_verdict_builds_no_second_partials(self, monkeypatch):
        calls = []
        real = lefschetz_module.second_partials

        def counting(form):
            calls.append(form)
            return real(form)

        monkeypatch.setattr(lefschetz_module, "second_partials", counting)
        rng = random.Random(3)
        form = dense_form([rng.choice([-3, -2, -1, 1, 2, 3])
                           for _ in monomial_basis(5, 4)], 5, 4)
        report = hessian(form)
        assert not report.vanishes and calls == []
        # the polynomial matrix is built on its first read, once
        assert report.matrix == report.matrix
        assert report.matrix.entries == real(form) and calls == [form]

    def test_perazzo_cubic_needs_the_symbolic_determinant(self, perazzo_f,
                                                           symbolic_calls):
        report = hessian(perazzo_f)
        assert report.vanishes and symbolic_calls == [5]
        assert report.det.is_zero and symbolic_calls == [5]

    @pytest.mark.parametrize("field", [RATIONAL, F7])
    def test_cone_is_settled_without_the_symbolic_determinant(
            self, field, symbolic_calls):
        # a relation sum c_i * d_i f = 0 gives H c = 0; expanding the 6x6
        # determinant of the quartic cone takes tens of seconds
        rng = random.Random(11)
        cubic = dense_form([1, -2, 3, 1, 2, -1, 1, 1, 2, -3], 3, 3, field)
        quartic = dense_form([rng.choice([-3, -2, -1, 1, 2, 3])
                              for _ in monomial_basis(5, 4)], 5, 4, field)
        for g, n in ((cubic, 5), (quartic, 6)):
            form = linear_change(g, n, seed=2)
            # mixed coordinates: more terms than a form in n - 1 variables
            d = g.homogeneous_degree()
            assert len(form.terms) > len(monomial_basis(n - 1, d))
            assert hessian(form).vanishes
        assert symbolic_calls == []

    @pytest.mark.parametrize("field,calls", [(F7, [4]), (RATIONAL, [])])
    def test_small_field_falls_back_on_a_nonzero_hessian(self, field, calls,
                                                          symbolic_calls):
        # det H = 6^4 (x0 - x2) x1 x2 x3.  The seeded point is
        # (850, -637, 569, -756): mod 7 it has x1 = 0, so only the symbolic
        # determinant shows that the hessian is nonzero; over Q the point does
        x = [Polynomial.variable(i, 4, field) for i in range(4)]
        form = (x[0] - x[2]) ** 3 + x[1] ** 3 + x[2] ** 3 + x[3] ** 3
        assert not hessian(form).vanishes
        assert symbolic_calls == calls

    @pytest.mark.parametrize("field,calls",
                             [(RATIONAL, []), (FieldSpec.prime(32003), [4])])
    def test_gordan_noether_settles_four_variables_over_q(self, field, calls,
                                                          symbolic_calls):
        # (p1*x0 - p0*x1)^2 * x1 + x2^3 + x3^3 is not a cone, and its linear
        # factor, so its hessian, vanishes at the seeded point (p0, p1, ...).
        # Over Q a non-cone in at most 4 variables has a nonzero hessian;
        # the theorem fails in characteristic p, so F_p still expands
        p0, p1, _, _ = random_int_coords(rng_for(DEFAULT_SEED, 0), 4,
                                         -1000, 1000)
        x = [Polynomial.variable(i, 4, field) for i in range(4)]
        form = ((x[0].scale(p1) - x[1].scale(p0)) ** 2 * x[1] + x[2] ** 3
                + x[3] ** 3)
        assert not is_cone(form)
        assert not det_ff(Matrix([[eval_at(e, [p0, p1, 0, 0]) for e in row]
                                  for row in second_partials(form)], field))
        assert not hessian(form).vanishes
        assert symbolic_calls == calls

    def test_linear_form_is_left_to_the_symbolic_determinant(self,
                                                             symbolic_calls):
        # x0 is no cone, yet its 1x1 hessian is 0: Gordan-Noether needs d >= 2
        assert hessian(poly("3*x0", 1)).vanishes
        assert symbolic_calls == [1]

    @pytest.mark.parametrize("field", [RATIONAL, F7])
    def test_lazy_det_equals_eager_expansion(self, field, symbolic_calls):
        rng = random.Random(5)
        forms = [dense_form([rng.randint(-3, 3) for _ in monomial_basis(5, 3)],
                            5, 3, field),
                 linear_change(dense_form([1, -2, 3, 1, 2, -1, 1, 1, 2, -3],
                                          3, 3, field), 5, seed=5)]
        for form in forms:
            before = len(symbolic_calls)
            report = hessian(form)
            eager = det_ff(Matrix(second_partials(form), field))
            assert report.det == eager and report.det == eager
            # one expansion for the eager value, and one for the report: in
            # hessian() when the point gives 0 on a non-cone, else on the
            # first read
            assert len(symbolic_calls) == before + 2

    def test_report_expands_det_once_on_first_read(self, perazzo_f,
                                                   symbolic_calls):
        report = HessianReport(perazzo_f, True)
        # == compares matrix and vanishes only, so it expands nothing here
        assert report == hessian(perazzo_f) and symbolic_calls == [5]
        assert report.det.is_zero and report.det.is_zero
        assert symbolic_calls == [5, 5]


    def test_report_repr_shows_matrix_and_vanishes(self, perazzo_f,
                                                   symbolic_calls):
        report = HessianReport(perazzo_f, True)
        assert repr(report) == ("HessianReport(matrix=Matrix(5x5 over "
                                "rational), vanishes=True)")
        assert report != HessianReport(perazzo_f, False)
        assert symbolic_calls == []


class TestCrossCheck:
    def test_perazzo(self, perazzo_f):
        assert hessian_slp_crosscheck(perazzo_f, [1, 2, 3, 4, 5], trials=7,
                                      seed=123)

    def test_perazzo_sides_singular(self, perazzo_f):
        # both sides of the identity are singular at any probing point
        partials = second_partials(perazzo_f)
        point = [3, -1, 2, 5, 7]
        from sagakit.exactla import Matrix as M
        evaluated = M([[eval_at(e, point) for e in row] for row in partials])
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

    def test_quintic_over_f11(self):
        # (d-2)! = 6 times a hessian entry leaves [0, 11) unless the product
        # is reduced: the only cross-check over F_p past degree 3
        form = parse_poly("x0^5 + 3*x1^5 + 5*x0^2*x1*x2^2 + x2^5 + x0*x1^4",
                          3, FieldSpec.prime(11))
        assert hessian_slp_crosscheck(form, [3, 5, 6], trials=4)

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
            assert codimension(algebra) == g.n_vars  # independent partials
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
            if codimension(algebra) > 4:
                continue
            report = lefschetz_probe(algebra, SLP, 1, trials=8, seed=2)
            assert report.holds, entry.name
            checked += 1
        assert checked >= 5
