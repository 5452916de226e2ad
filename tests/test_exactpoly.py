from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dp4lag import exactpoly
from dp4lag.exactpoly import (
    SQUARE_CERTIFICATE_POINTS,
    MPoly,
    VarTable,
    derivative,
    divide_by_root,
    exact_divide,
    perfect_square_test,
    poly_derivative,
    poly_eval,
    poly_eval_many,
    poly_substitute_linear,
    pseudo_divmod,
    rat_sqrt,
    to_text,
    univariate_gcd,
    univariate_ints,
)
from conftest import scaled
from oracles import binary_quadratic_discriminant, coefficient_poly, poly_sqrt, substitute_linear

XY = VarTable(("x", "y"))
X, Y = (MPoly.variable(XY, name) for name in XY)
XU = VarTable(("x", "y", "u", "v"))


def const(c):
    return MPoly.const(XY, c)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, vars=XY, max_terms=5, max_exp=3):
    n = len(vars)
    terms = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, max_exp)] * n)),
            small_fractions,
            max_size=max_terms,
        )
    )
    return MPoly(vars, terms)


@st.composite
def points(draw, vars=XY):
    return {name: draw(small_fractions) for name in vars}


def trimmed(coeffs):
    """An integer coefficient list (constant term first) without trailing zeros, as an `IntPoly` is kept."""
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


int_polys = st.lists(st.integers(-9, 9), max_size=5).map(trimmed)


def in_x(a):
    """The `IntPoly` ``a`` as a polynomial in x over `XY`."""
    return MPoly(XY, {(k, 0): c for k, c in enumerate(a)})


@st.composite
def substitutions(draw):
    """A polynomial over 2 to 4 variables and affine images with denominators over a 1- or 2-variable table."""
    source = VarTable(XU.names[: draw(st.integers(2, 4))])
    target = draw(st.sampled_from((VarTable(("t",)), VarTable(("s", "t")))))
    p = draw(polys(source, max_terms=6, max_exp=3))
    images = {}
    for name in source:
        constant, *slopes = draw(st.lists(small_fractions, min_size=len(target) + 1, max_size=len(target) + 1))
        terms = {tuple(int(k == i) for k in range(len(target))): c for i, c in enumerate(slopes)}
        images[name] = MPoly(target, {**terms, (0,) * len(target): constant})
    return p, images


class TestEval:
    def test_direct_substitution(self):
        p = X * X * Y + 3
        assert poly_eval(p, {"x": 2, "y": 1}) == 7

    def test_zero_polynomial(self):
        assert poly_eval(MPoly.zero(XY), {"x": 5, "y": -2}) == 0
        assert poly_eval(MPoly.zero(XY), {}) == 0

    def test_forced_root(self):
        p = X**3 - X
        assert poly_eval(p, {"x": 1}) == 0

    def test_missing_variable_named(self):
        with pytest.raises(ValueError, match="'y'"):
            poly_eval(X * Y, {"x": 1})
        with pytest.raises(ValueError, match="'y'"):
            poly_eval_many([X, X * Y], {"x": 1})

    def test_from_numerators_needs_a_positive_denominator(self):
        assert MPoly.from_numerators(XY, {(1, 0): 2, (0, 0): 4}, 6) == (X + 2) * Fraction(1, 3)
        with pytest.raises(ValueError, match="positive"):
            MPoly.from_numerators(XY, {(1, 0): 1}, 0)

    def test_eval_many_needs_one_table(self):
        assert poly_eval_many([], {}) == []
        with pytest.raises(ValueError, match="variable tables"):
            poly_eval_many([X, MPoly.variable(XU, "x")], {"x": 1})

    @settings(max_examples=100)
    @given(polys(), polys(), points())
    def test_evaluation_is_ring_homomorphism(self, p, q, pt):
        assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)
        assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)


class TestDerivative:
    def test_power_rule(self):
        assert poly_derivative(X**3 * Y, "x") == 3 * X**2 * Y

    def test_constant(self):
        assert poly_derivative(const(5), "x").is_zero()

    def test_chart_field(self):
        u = MPoly.variable(XU, "u")
        v = MPoly.variable(XU, "v")
        x = MPoly.variable(XU, "x")
        y = MPoly.variable(XU, "y")
        p = x * u**2 + y * v**2
        assert poly_derivative(p, "u") == 2 * x * u

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            poly_derivative(X, "z")

    @settings(max_examples=100)
    @given(polys(), polys())
    def test_leibniz_rule(self, p, q):
        lhs = poly_derivative(p * q, "x")
        rhs = poly_derivative(p, "x") * q + p * poly_derivative(q, "x")
        assert lhs == rhs


class TestSubstitution:
    def test_cancellation(self):
        U = VarTable(("u",))
        u = MPoly.variable(U, "u")
        assert poly_substitute_linear(X + Y, {"x": u + 1, "y": u - 1}) == 2 * u

    def test_identity(self):
        assert poly_substitute_linear(X**2, {"x": X, "y": Y}) == X**2

    def test_scaling(self):
        assert poly_substitute_linear(X * Y, {"x": 2 * X, "y": 3 * Y}) == 6 * X * Y

    def test_rejects_quadratic_image(self):
        with pytest.raises(ValueError, match="degree"):
            poly_substitute_linear(X, {"x": X * X})

    def test_missing_image(self):
        with pytest.raises(ValueError, match="'y'"):
            poly_substitute_linear(X + Y, {"x": X})

    def test_mixed_tables(self):
        u = MPoly.variable(VarTable(("u",)), "u")
        with pytest.raises(ValueError, match="different variable tables"):
            poly_substitute_linear(X + Y, {"x": u, "y": X})

    def test_empty_map(self):
        with pytest.raises(ValueError, match="empty"):
            poly_substitute_linear(const(3), {})

    def test_result_past_the_exponent_bound_raises(self):
        T = VarTable(("t",))
        t = MPoly.variable(T, "t")
        # t^40000 sets the guard bit; t^90000 would carry past its field
        with pytest.raises(OverflowError):
            poly_substitute_linear(MPoly(XY, {(20000, 20000): 1}), {"x": t, "y": t})
        high = MPoly(XU, {(30000, 30000, 30000, 0): 1})
        with pytest.raises(OverflowError):
            poly_substitute_linear(high, dict.fromkeys(XU.names, t))
        # constant images leave no exponent to overflow
        assert poly_substitute_linear(high, dict.fromkeys(XU.names, MPoly.const(T, -1))) == MPoly.const(T, 1)

    @pytest.mark.parametrize("p", [MPoly.zero(XU), MPoly.const(XU, Fraction(-7, 4))])
    @pytest.mark.parametrize("target", [VarTable(("t",)), VarTable(("s", "t"))])
    def test_zero_and_constant(self, p, target):
        t = MPoly.variable(target, "t")
        images = {name: t * Fraction(k + 1, 3) + k for k, name in enumerate(XU.names)}
        got = poly_substitute_linear(p, images)
        constant = p.leading_coefficient() if p else 0
        assert got == substitute_linear(p, images) == MPoly.const(target, constant)
        assert got.vars == target

    @settings(max_examples=150)
    @given(substitutions())
    def test_matches_the_mpoly_oracle(self, drawn):
        p, images = drawn
        assert poly_substitute_linear(p, images) == substitute_linear(p, images)


class TestDiscriminant:
    def test_sum_of_squares(self):
        one = const(1)
        assert binary_quadratic_discriminant(one, const(0), one) == const(-4)

    def test_perfect_square_quadric(self):
        one = const(1)
        assert binary_quadratic_discriminant(one, const(2), one).is_zero()

    def test_polynomial_coefficients(self):
        assert binary_quadratic_discriminant(X, const(0), -X) == 4 * X**2


class TestPerfectSquare:
    def test_binomial_square(self):
        result = perfect_square_test(X**2 + 2 * X * Y + Y**2)
        assert result.is_square
        assert result.sqrt == X + Y

    def test_sum_of_squares_is_not(self):
        assert not perfect_square_test(X**2 + Y**2).is_square

    def test_zero(self):
        result = perfect_square_test(MPoly.zero(XY))
        assert result.is_square and result.sqrt.is_zero()

    def test_sign_convention(self):
        result = perfect_square_test(4 * X**2)
        assert result.sqrt == 2 * X

    def test_constant_square_factor(self):
        result = perfect_square_test(Fraction(9, 4) * (X + Y) ** 2)
        assert result.is_square
        assert result.sqrt == Fraction(3, 2) * (X + Y)

    @settings(max_examples=100)
    @given(polys(max_terms=4, max_exp=2))
    def test_squares_are_recognized(self, r):
        result = perfect_square_test(r * r)
        assert result.is_square
        assert result.sqrt * result.sqrt == r * r
        # the root is r up to sign, normalized to a positive leading coefficient
        assert result.sqrt in (r, -r)
        assert r.is_zero() or result.sqrt.leading_coefficient() > 0

    def test_square_values_at_every_certificate_point_still_go_to_the_root_test(self, monkeypatch):
        # q vanishes at every certificate point, so p takes the square values
        # (xy + 1)^2 there, yet p is no square
        q = MPoly.const(XY, 1)
        for point in SQUARE_CERTIFICATE_POINTS:
            q = q * (X - point[0])
        p = (X * Y + 1) ** 2 + Y * q
        assert all(rat_sqrt(poly_eval(p, {"x": pt[0], "y": pt[1]})) is not None for pt in SQUARE_CERTIFICATE_POINTS)
        calls = []
        real = exactpoly._poly_sqrt
        monkeypatch.setattr(exactpoly, "_poly_sqrt", lambda poly: calls.append(poly) or real(poly))
        assert perfect_square_test(p) == exactpoly.SquareTest(False, None)
        assert calls[0] == p

    def test_a_non_square_value_rejects_without_the_root_test(self, monkeypatch):
        monkeypatch.setattr(exactpoly, "_poly_sqrt", lambda poly: pytest.fail("the root test ran"))
        assert perfect_square_test(X**2 + Y**2 + 1) == exactpoly.SquareTest(False, None)
        assert perfect_square_test(-(X**2)) == exactpoly.SquareTest(False, None)

    def test_a_root_term_past_half_the_degree_is_refused_at_once(self, monkeypatch):
        # the root of y^2 + 2 x^5 y starts y + x^5, but x^5 is past half of
        # its x-degree 5: the extraction stops there, before the x^10 step
        steps = []
        monkeypatch.setattr(exactpoly, "divmod", lambda a, b: steps.append((a, b)) or divmod(a, b), raising=False)
        assert exactpoly._poly_sqrt(Y**2 + 2 * X**5 * Y) is None
        assert steps == [(2, 2)]
        assert exactpoly._poly_sqrt(Y**2 + 2 * X**5 * Y + X**10) == Y + X**5

    def test_an_odd_exponent_in_the_lead_is_refused(self):
        for p in (X**3, X * Y**2, X**2 * Y**3 + X**2, Y**3 + X**4):
            assert exactpoly._poly_sqrt(p) is None
        assert exactpoly._poly_sqrt(X**2 * Y**4 + X**2) is None
        assert exactpoly._poly_sqrt(X**2 * Y**4) == X * Y**2

    def test_the_scalar_must_be_a_rational_square(self):
        # p = c/den * N/c with N/c = (x + y)^2: only c * den decides
        for scalar in (2, Fraction(1, 2), Fraction(3, 4), -1, Fraction(-9, 4)):
            assert exactpoly._poly_sqrt(scalar * (X + Y) ** 2) is None
        assert exactpoly._poly_sqrt(Fraction(9, 4) * (X + Y) ** 2) == Fraction(3, 2) * (X + Y)
        assert exactpoly._poly_sqrt(const(Fraction(4, 9))) == const(Fraction(2, 3))
        assert exactpoly._poly_sqrt(const(Fraction(-4, 9))) is None

    def test_the_square_test_builds_no_fraction_and_no_polynomial_product(self, monkeypatch, polynomial_arithmetic):
        square = Fraction(9, 25) * (X**2 * Y - Fraction(3, 2) * Y + 4) ** 2
        # rejected by the value certificate, and by the root extraction
        rejected = (X**2 + Y**2 + 1, square + X * Y)
        made = []
        real_new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or real_new(cls, *args, **kw))
        del polynomial_arithmetic[:]
        outcomes = [perfect_square_test(rejected[0])] + [exactpoly._poly_sqrt(p) for p in (rejected[1], square)]
        assert made == [] and polynomial_arithmetic == []
        monkeypatch.undo()
        assert outcomes[:2] == [exactpoly.SquareTest(False, None), None]
        assert outcomes[2] == Fraction(3, 5) * (X**2 * Y - Fraction(3, 2) * Y + 4)

    @settings(max_examples=100)
    @given(polys(max_terms=3, max_exp=2), st.integers(1, 4))
    def test_odd_leading_term_never_square(self, r, k):
        # a monomial of odd total degree dominating r^2 cannot be a square
        spoil = MPoly(XY, {(2 * k + 5, 0): Fraction(1)})
        assert not perfect_square_test(r * r + spoil).is_square


class TestUnivariateGcd:
    def test_common_factor(self):
        assert univariate_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]

    def test_monomials(self):
        assert univariate_gcd([0, 0, 1], [0, 0, 0, 1]) == [0, 0, 1]

    def test_coprime(self):
        assert univariate_gcd([1, 0, 1], [2, 0, 1]) == [1]

    def test_primitive_with_positive_lead(self):
        # gcd(-4 (t - 1)(t + 2), 6 (t - 1)) is t - 1, not -2 t + 2
        assert univariate_gcd([8, -4, -4], [-6, 6]) == [-1, 1]
        assert univariate_gcd([], [0, -3]) == [0, 1]

    def test_both_zero(self):
        with pytest.raises(ValueError):
            univariate_gcd([], [])

    def test_rejects_multivariate(self):
        with pytest.raises(ValueError):
            univariate_ints(X * Y, "x")

    @settings(max_examples=60)
    @given(int_polys, int_polys, int_polys)
    def test_gcd_divides_and_sees_common_factors(self, p, q, r):
        assume(p or q)
        g = univariate_gcd(p, q)
        for operand in (p, q):
            if operand:
                assert exact_divide(in_x(operand), in_x(g)) is not None
        if r and p and q:
            # a shared factor must show up in the gcd
            common = univariate_gcd(trimmed(ref_poly_mul(p, r)), trimmed(ref_poly_mul(q, r)))
            assert exact_divide(in_x(common), in_x(r)) is not None

    def test_derivative(self):
        assert derivative([5, -3, 0, 2]) == [-3, 0, 6]
        assert derivative([7]) == derivative([]) == []

    def test_pseudo_divmod(self):
        # 4 (t^2 + 1) = (2 t + 1)(2 t - 1) + 5
        assert pseudo_divmod([1, 0, 1], [-1, 2]) == ([1, 2], [5])
        # a negative lead scales by its absolute value, so R keeps the true remainder's sign
        assert pseudo_divmod([1, 0, 1], [1, -2]) == ([-1, -2], [5])


class TestDivideByRoot:
    def test_repeated_integer_root(self):
        # (t - 2)^2 (t + 1) = t^3 - 3 t^2 + 4
        once = divide_by_root([4, 0, -3, 1], 2)
        assert once == [-2, -1, 1]
        assert divide_by_root(once, 2) == [1, 1]
        assert divide_by_root([1, 1], 2) is None

    def test_rational_root(self):
        # (2 t - 5)(3 t + 1) = 6 t^2 - 13 t - 5
        assert divide_by_root([-5, -13, 6], 5, 2) == [1, 3]
        assert divide_by_root([-5, -13, 6], -1, 3) == [-5, 2]

    def test_non_root(self):
        assert divide_by_root([-5, -13, 6], 5, 3) is None
        assert divide_by_root([-5, -13, 6], 5) is None
        assert divide_by_root([1, 0, 1], 1) is None
        assert divide_by_root([7], 0) is None


class TestRingAxioms:
    @settings(max_examples=100)
    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=100)
    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    def test_table_mismatch(self):
        with pytest.raises(ValueError):
            X + MPoly.variable(VarTable(("z",)), "z")


class TestSerialization:
    def test_zero(self):
        assert to_text(MPoly.zero(XY)) == "0"

    def test_format(self):
        p = 2 * X**2 * Y - Fraction(1, 3)
        assert to_text(p) == "2/1 * x^2 y^1 + -1/3"

    def test_grevlex_order(self):
        p = X + Y + X**2 * Y + X * Y**2
        assert to_text(p) == "1/1 * x^2 y^1 + 1/1 * x^1 y^2 + 1/1 * x^1 + 1/1 * y^1"


class TestExactDivide:
    def test_exact(self):
        assert exact_divide((X + Y) * (X - Y), X + Y) == X - Y

    def test_inexact(self):
        assert exact_divide(X**2 + 1, X + 1) is None

    def test_rat_sqrt(self):
        assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rat_sqrt(Fraction(2)) is None
        assert rat_sqrt(Fraction(-1)) is None


class TestRationalInvariants:
    def test_lowest_terms_positive_denominator(self):
        # the scalar type keeps every value reduced with positive denominator
        q = Fraction(6, -4)
        assert (q.numerator, q.denominator) == (-3, 2)
        p = MPoly(XY, {(1, 0): Fraction(2, 6)})
        ((_, coeff),) = p.terms.items()
        assert (coeff.numerator, coeff.denominator) == (1, 3)


# ---------------------------------------------------------------------------
# Reference: plain {exponent tuple: Fraction} dict arithmetic, sharing no code
# with the packed integer core it checks.
# ---------------------------------------------------------------------------


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def ref_coefficient(a, i, k):
    return {e[:i] + (0,) + e[i + 1 :]: c for e, c in a.items() if e[i] == k}


def ref_eval(a, values):
    total = Fraction(0)
    for exp, c in a.items():
        for v, e in zip(values, exp):
            c *= v**e
        total += c
    return total


def ref_grevlex(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def ref_exact_divide(a, b):
    b_exp = max(b, key=ref_grevlex)
    remainder, quotient = dict(a), {}
    while remainder:
        r_exp = max(remainder, key=ref_grevlex)
        q_exp = tuple(x - y for x, y in zip(r_exp, b_exp))
        if any(e < 0 for e in q_exp):
            return None
        q = remainder[r_exp] / b[b_exp]
        quotient[q_exp] = q
        remainder = ref_add(remainder, ref_mul(b, {q_exp: q}), -1)
    return quotient


def ref_sqrt(a, n):
    if not a:
        return {}
    present = [i for i in range(n) if any(e[i] for e in a)]
    if not present:
        root = rat_sqrt(a[(0,) * n])
        return None if root is None else {(0,) * n: root}
    i = present[-1]
    d = max(e[i] for e in a)
    if d % 2:
        return None
    half = d // 2
    coeffs = [ref_coefficient(a, i, k) for k in range(d + 1)]
    lead = ref_sqrt(coeffs[d], n)
    if lead is None:
        return None
    s = [None] * (half + 1)
    s[half] = lead
    two_lead = {e: 2 * c for e, c in lead.items()}
    for j in range(half - 1, -1, -1):
        acc = coeffs[half + j]
        for k in range(j + 1, half):
            acc = ref_add(acc, ref_mul(s[k], s[half + j - k]), -1)
        q = ref_exact_divide(acc, two_lead) if acc else {}
        if q is None:
            return None
        s[j] = q
    candidate = {}
    for k, sk in enumerate(s):
        candidate = ref_add(candidate, {e[:i] + (e[i] + k,) + e[i + 1 :]: c for e, c in sk.items()})
    return candidate if ref_mul(candidate, candidate) == a else None


def ref_text(a, names):
    if not a:
        return "0"
    parts = []
    for exp in sorted(a, key=ref_grevlex, reverse=True):
        c = a[exp]
        factors = " ".join(f"{name}^{e}" for name, e in zip(names, exp) if e)
        coeff = f"{c.numerator}/{c.denominator}"
        parts.append(f"{coeff} * {factors}" if factors else coeff)
    return " + ".join(parts)


def ref_univariate_gcd(a, b):
    """Monic gcd of two coefficient lists (constant term first) by Euclid over the rationals."""

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip(list(a)), strip(list(b))
    while b:
        r = list(a)
        while len(r) >= len(b) and strip(r):
            shift = len(r) - len(b)
            factor = r[-1] / b[-1]
            for k, bc in enumerate(b):
                r[shift + k] -= factor * bc
            strip(r)
        a, b = b, r
    return [c / a[-1] for c in a]


def ref_poly_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


NAMES = ("x", "y", "u", "v", "a", "b")
mixed_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)


# zero, negative and positive coordinates with denominators up to 2^64
wide_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)


@st.composite
def ring_polys(draw, count, max_terms=5, max_exp=3):
    """A table of 1 to 6 variables and ``count`` term dicts over it (possibly empty)."""
    n = draw(st.integers(1, 6))
    exps = st.tuples(*([st.integers(0, max_exp)] * n))
    dicts = [draw(st.dictionaries(exps, mixed_fractions, max_size=max_terms)) for _ in range(count)]
    return VarTable(NAMES[:n]), [ref_clean(d) for d in dicts]


def assert_canonical(p):
    nums, den = p._nums, p._den
    assert den > 0 and all(nums.values())
    assert gcd(den, *nums.values()) == 1
    assert nums or den == 1


class TestAgainstFractionReference:
    @settings(max_examples=scaled(100))
    @given(ring_polys(2))
    def test_add_sub_mul(self, drawn):
        table, (a, b) = drawn
        p, q = MPoly(table, a), MPoly(table, b)
        for got, want in ((p + q, ref_add(a, b)), (p - q, ref_add(a, b, -1)), (p * q, ref_mul(a, b)), (-p, ref_add({}, a, -1))):
            assert dict(got.terms) == want
            assert_canonical(got)

    @settings(max_examples=scaled(100))
    @given(ring_polys(1, max_terms=3, max_exp=2), st.integers(0, 4), mixed_fractions)
    def test_pow_and_scalar_product(self, drawn, k, c):
        table, (a,) = drawn
        p = MPoly(table, a)
        assert dict((p**k).terms) == ref_pow(a, k, len(table))
        assert dict((p * c).terms) == dict((c * p).terms) == ref_mul(a, {(0,) * len(table): c} if c else {})

    @settings(max_examples=scaled(100))
    @given(ring_polys(1), st.integers(0, 3))
    def test_derivative_and_coefficients(self, drawn, k):
        table, (a,) = drawn
        p = MPoly(table, a)
        for i, name in enumerate(table.names):
            for got, want in ((poly_derivative(p, name), ref_derivative(a, i)), (coefficient_poly(p, name, k), ref_coefficient(a, i, k))):
                assert dict(got.terms) == want
                assert_canonical(got)

    @settings(max_examples=scaled(100))
    @given(ring_polys(1), st.lists(mixed_fractions, min_size=6, max_size=6))
    def test_eval(self, drawn, values):
        table, (a,) = drawn
        point = dict(zip(table.names, values))
        assert poly_eval(MPoly(table, a), point) == ref_eval(a, values)

    @settings(max_examples=scaled(100))
    @given(ring_polys(3, max_exp=4), st.lists(wide_coordinates, min_size=6, max_size=6), st.integers(0, 5))
    def test_eval_many_shares_one_table(self, drawn, values, strike):
        table, dicts = drawn
        # the polynomials include the zero polynomial and one with a variable struck out
        dicts = dicts + [{}, {e: c for e, c in dicts[0].items() if e[strike % len(table)] == 0}]
        polys = [MPoly(table, d) for d in dicts]
        point = dict(zip(table.names, values))
        assert poly_eval_many(polys, point) == [poly_eval(p, point) for p in polys] == [ref_eval(d, values) for d in dicts]
        assert all(MPoly.from_numerators(table, *p.numerators()) == p for p in polys)

    @settings(max_examples=scaled(100))
    @given(ring_polys(3, max_terms=4, max_exp=2))
    def test_exact_divide(self, drawn):
        table, (a, b, c) = drawn
        assume(b)
        p, q = MPoly(table, a), MPoly(table, b)
        product = ref_mul(a, b)
        assert dict(exact_divide(p * q, q).terms) == ref_exact_divide(product, b) == a
        spoiled = ref_add(product, c)
        got = exact_divide(MPoly(table, spoiled), q)
        want = ref_exact_divide(spoiled, b)
        assert (got is None and want is None) or dict(got.terms) == want

    @settings(max_examples=scaled(100))
    @given(ring_polys(2, max_terms=3, max_exp=2))
    def test_perfect_square(self, drawn):
        table, (a, b) = drawn
        n = len(table)
        for terms in (ref_mul(a, a), ref_add(ref_mul(a, a), b)):
            result = perfect_square_test(MPoly(table, terms))
            root = ref_sqrt(terms, n)
            assert result.is_square == (root is not None)
            if root is not None:
                # the reference root is fixed up to sign: the core's has a positive lead
                lead = max(root, key=ref_grevlex) if root else None
                if lead is not None and root[lead] < 0:
                    root = ref_add({}, root, -1)
                assert dict(result.sqrt.terms) == root

    @settings(max_examples=scaled(100))
    @given(
        st.lists(st.integers(-40, 40), max_size=4),
        st.lists(st.integers(-40, 40), max_size=4),
        st.lists(st.integers(-40, 40), min_size=1, max_size=3).filter(any),
        st.integers(0, 2),
    )
    def test_univariate_gcd(self, p, q, common, power):
        # p and q may be zero (all-zero or empty lists); a shared factor may repeat
        for _ in range(power):
            p, q = ref_poly_mul(p, common), ref_poly_mul(q, common)
        p, q = trimmed(p), trimmed(q)
        assume(p or q)
        got = univariate_gcd(p, q)
        assert got[-1] > 0 and gcd(*got) == 1
        assert got == [got[-1] * c for c in ref_univariate_gcd(list(map(Fraction, p)), list(map(Fraction, q)))]

    @settings(max_examples=scaled(100))
    @given(
        st.lists(st.integers(-40, 40), max_size=5).map(trimmed).filter(bool),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
        st.integers(0, 2),
    )
    def test_divide_by_root(self, a, root, power):
        # a times (den t - num)^power, divided by the root as often as it goes
        num, den = root.numerator, root.denominator
        for _ in range(power):
            a = trimmed(ref_poly_mul(a, [-num, den]))
        divided = 0
        while (quotient := divide_by_root(a, num, den)) is not None:
            assert trimmed(ref_poly_mul(quotient, [-num, den])) == a
            a, divided = quotient, divided + 1
        assert divided >= power
        assert sum(c * root**k for k, c in enumerate(a)) != 0

    @settings(max_examples=scaled(100))
    @given(ring_polys(1))
    def test_to_text(self, drawn):
        table, (a,) = drawn
        p = MPoly(table, a)
        assert to_text(p) == ref_text(a, table.names)


def with_positive_lead(root):
    """A square root with positive leading coefficient, as `perfect_square_test` reports it."""
    if root is not None and not root.is_zero() and root.leading_coefficient() < 0:
        return -root
    return root


rational_squares = st.builds(lambda q: q * q, small_fractions)


@st.composite
def square_candidates(draw):
    """Over `XY` or a 3- or 4-variable table: s^2 times a rational scalar, s^2 plus a perturbation, or a constant.

    The scalar is a rational square, minus one, or any rational (mostly a
    non-square); the constants include zero.
    """
    table = draw(st.sampled_from((XY, VarTable(XU.names[:3]), XU)))
    kind = draw(st.sampled_from(("scaled", "perturbed", "constant")))
    if kind == "constant":
        return MPoly.const(table, draw(st.one_of(st.just(Fraction(0)), rational_squares, mixed_fractions)))
    s = draw(polys(table, max_terms=4, max_exp=2))
    if kind == "scaled":
        scalar = draw(st.one_of(rational_squares, rational_squares.map(lambda q: -q), mixed_fractions))
        return s * s * scalar
    return s * s + draw(polys(table, max_terms=2, max_exp=4))


class TestSquareRootsMatchTheOracle:
    """The integer square test against the recursive root of `oracles.poly_sqrt`."""

    @settings(max_examples=scaled(200), deadline=None)
    @given(square_candidates())
    def test_same_verdict_and_root(self, p):
        want = with_positive_lead(poly_sqrt(p))
        assert perfect_square_test(p) == exactpoly.SquareTest(want is not None, want)
        # the root extraction alone, without the value certificate in front
        assert with_positive_lead(exactpoly._poly_sqrt(p)) == want


class TestPackedExponents:
    def test_largest_exponent_is_accepted(self):
        top = 2**15 - 1
        p = MPoly(XY, {(0, top): 1})
        assert p.degree_in("y") == top
        assert X * p == MPoly(XY, {(1, top): 1})
        assert X**top == MPoly(XY, {(top, 0): 1})

    def test_constructor_rejects_an_exponent_past_the_bound(self):
        with pytest.raises(OverflowError):
            MPoly(XY, {(2**15, 0): 1})
        with pytest.raises(OverflowError):
            MPoly(XY, {(0, 2**16): 1})

    @pytest.mark.parametrize("exp", [(2**15 - 1, 0), (0, 2**15 - 1)])
    def test_product_past_the_bound_raises(self, exp):
        p = MPoly(XY, {exp: 1})
        with pytest.raises(OverflowError):
            p * (X * Y)
        with pytest.raises(OverflowError):
            p**2
        assert issubclass(OverflowError, ArithmeticError)

    def test_canonical_form_is_unique(self):
        built = MPoly(XY, {(1, 0): Fraction(2, 6)})
        reached = X * Fraction(1, 2) * Fraction(2, 3)
        also = X * Fraction(5, 6) - X * Fraction(1, 2)
        for p in (reached, also):
            assert p == built and hash(p) == hash(built)
            assert (p._nums, p._den) == (built._nums, built._den) == ({1: 1}, 3)
        assert (X - X)._den == 1 and (X - X) == MPoly.zero(XY)

    def test_terms_is_a_read_only_view(self):
        p = Fraction(-7, 3) * X**2 * Y + 5
        assert len(p.terms) == 2
        assert dict(p.terms) == {(2, 1): Fraction(-7, 3), (0, 0): Fraction(5)}
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = Fraction(1)
