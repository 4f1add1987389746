import pytest

from bchcover.bch import (
    build_bch,
    coset_of,
    generator_polynomial,
    minimal_polynomial,
    multiplicative_order_of_two,
)
from bchcover.gf2m import BinaryPolynomial, make_field
from bchcover.manifest import TABLE1

from conftest import bch_code


# ---------------------------------------------------------------------------
# cyclotomic cosets
# ---------------------------------------------------------------------------

def test_coset_of_one_mod_15():
    assert coset_of(15, 1) == (1, 2, 4, 8)


def test_coset_of_one_mod_17():
    assert coset_of(17, 1) == (1, 2, 4, 8, 9, 13, 15, 16)
    assert multiplicative_order_of_two(17) == 8


def test_coset_of_one_mod_23():
    assert len(coset_of(23, 1)) == 11
    assert multiplicative_order_of_two(23) == 11


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 17, 21, 23, 31, 63])
def test_cosets_partition(n):
    cosets = {coset_of(n, r) for r in range(n)}
    union = [m for c in cosets for m in c]
    assert sorted(union) == list(range(n))  # disjoint and covering
    for c in cosets:
        assert list(c) == sorted(c)
        assert coset_of(n, c[-1]) == c
        for m in c:
            assert (2 * m) % n in c  # closed under doubling


def test_even_length_rejected():
    for n in (16, 10, 1):
        with pytest.raises(ValueError):
            multiplicative_order_of_two(n)


# ---------------------------------------------------------------------------
# minimal polynomials
# ---------------------------------------------------------------------------

def test_minimal_polynomial_of_unity():
    ctx = make_field(4)
    assert minimal_polynomial(ctx, 0, 15) == BinaryPolynomial(0b11)  # x + 1


def test_minimal_polynomial_of_alpha_is_the_modulus():
    # for n = 2^m - 1, beta = alpha, so the minimal polynomial of beta^1
    # must be the field modulus itself
    ctx = make_field(4)
    assert minimal_polynomial(ctx, 1, 15) == ctx.primitive_poly


def test_minimal_polynomial_degree_is_coset_size():
    ctx = make_field(8)
    for e in (1, 3, 5):
        assert minimal_polynomial(ctx, e, 17).degree == len(coset_of(17, e))


def test_minimal_polynomial_vanishes_on_conjugates():
    ctx = make_field(8)
    step = 255 // 17
    p = minimal_polynomial(ctx, 1, 17)
    for j in coset_of(17, 1):
        assert ctx.eval_poly(p, ctx.alpha_power(step * j)) == 0


def test_minimal_polynomial_needs_compatible_field():
    with pytest.raises(ValueError):
        minimal_polynomial(make_field(4), 1, 17)  # 17 does not divide 15


# ---------------------------------------------------------------------------
# generator polynomials and codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-delta{r.delta}")
def test_generator_divides_ambient_modulus(row):
    g = generator_polynomial(row.n, row.delta)
    assert (BinaryPolynomial.from_exponents(row.n, 0) % g).is_zero


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-delta{r.delta}")
def test_designed_roots_are_roots(row):
    g = generator_polynomial(row.n, row.delta)
    m = multiplicative_order_of_two(row.n)
    ctx = make_field(m)
    step = (ctx.order - 1) // row.n
    for i in range(1, row.delta):
        assert ctx.eval_poly(g, ctx.alpha_power(step * i)) == 0


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-delta{r.delta}")
def test_dimensions_match_reference(row):
    code, spec = build_bch(row.n, row.delta)
    assert (code.n, code.k) == (row.n, row.k)
    assert spec.m == multiplicative_order_of_two(row.n)
    assert spec.delta == row.delta
    assert spec.b == 1


def test_beta_has_order_n():
    _, spec = build_bch(17, 3)
    ctx = make_field(spec.m)
    powers = {ctx.alpha_power(spec.beta_log * e) for e in range(17)}  # beta^e
    assert len(powers) == 17
    assert ctx.alpha_power(spec.beta_log * 17) == 1


@pytest.mark.parametrize(
    "n,delta,k,d",
    [(15, 5, 7, 5), (17, 3, 9, 5), (23, 5, 12, 7), (31, 11, 11, 11)],
)
def test_known_codes(n, delta, k, d):
    code = bch_code(n, delta)
    assert code.k == k
    assert code.min_distance() == (d, "exact")


def test_true_distance_exceeds_designed_for_17():
    code, spec = build_bch(17, 3)
    assert spec.delta == 3
    assert code.min_distance() == (5, "exact")


@pytest.mark.parametrize("n,delta", [(7, 3), (15, 5), (15, 7), (31, 5), (31, 15)])
def test_bch_bound(n, delta):
    code = bch_code(n, delta)
    d, exactness = code.min_distance()
    assert exactness == "exact"
    assert d >= delta


def test_designed_distance_kept_as_lower_bound():
    code, _ = build_bch(63, 5)
    assert code.min_distance() == (5, "lower_bound")


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_bch(16, 3)      # even length
    with pytest.raises(ValueError):
        build_bch(15, 1)      # delta < 2
    with pytest.raises(ValueError):
        build_bch(15, 16)     # delta > n
    with pytest.raises(ValueError):
        build_bch(37, 3)      # ord_37(2) = 36 exceeds the field table
