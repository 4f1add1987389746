import time

import pytest

from bchcover.bch import build_bch, generator_polynomial, multiplicative_order_of_two
from bchcover.gf2m import make_field
from bchcover.manifest import TABLE1

from conftest import bch_code, eval_poly, ref_mod


def roots_of_generator(n: int, delta: int) -> set[int]:
    """The exponents j in [0, n) with g(beta^j) = 0."""
    g = generator_polynomial(n, delta)
    ctx = make_field(multiplicative_order_of_two(n))
    step = (ctx.order - 1) // n
    return {j for j in range(n) if eval_poly(ctx, g, ctx.alpha_power(step * j)) == 0}


# ---------------------------------------------------------------------------
# cyclotomic cosets, read off the roots of g
# ---------------------------------------------------------------------------

def test_coset_of_one_mod_15():
    assert roots_of_generator(15, 2) == {1, 2, 4, 8}  # delta = 2: the coset of 1


def test_coset_of_one_mod_17():
    assert roots_of_generator(17, 2) == {1, 2, 4, 8, 9, 13, 15, 16}
    assert multiplicative_order_of_two(17) == 8


def test_coset_of_one_mod_23():
    assert len(roots_of_generator(23, 2)) == 11
    assert multiplicative_order_of_two(23) == 11


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 17, 21, 23, 31, 63])
def test_cosets_partition(n):
    # as delta grows, the roots of g grow by whole doubling orbits, each a
    # simple root, until delta = n covers every nonzero exponent
    previous: set[int] = set()
    for delta in range(2, n + 1):
        roots = roots_of_generator(n, delta)
        assert previous <= roots and delta - 1 in roots
        assert {2 * j % n for j in roots} == roots
        assert generator_polynomial(n, delta).bit_length() - 1 == len(roots)
        previous = roots
    assert previous == set(range(1, n))


def test_minimal_polynomial_of_alpha_is_the_modulus():
    # for n = 2^m - 1, beta = alpha, so g for delta = 2, the minimal
    # polynomial of beta^1, must be the field modulus itself
    for m in range(2, 17):
        assert generator_polynomial((1 << m) - 1, 2) == make_field(m).primitive_poly


# ---------------------------------------------------------------------------
# multiplicative order of 2
# ---------------------------------------------------------------------------

def test_even_length_rejected():
    for n in (16, 10, 1):
        with pytest.raises(ValueError):
            multiplicative_order_of_two(n)


def test_order_past_the_field_tables_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"ord_n\(2\) exceeds 16"):
        build_bch(1000000007, 3)  # ord = 500000003: refused after 16 doublings
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# generator polynomials and codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-delta{r.delta}")
def test_generator_divides_ambient_modulus(row):
    g = generator_polynomial(row.n, row.delta)
    assert ref_mod((1 << row.n) | 1, g) == 0


# every table row, and lengths with ord_n(2) = 6, 10, 12, 8, 9 and 7
GENERATOR_CASES = [(row.n, row.delta) for row in TABLE1] + [
    (n, delta) for n in (21, 33, 45, 51, 73, 127) for delta in (3, 5, 7, 11)
]


@pytest.mark.parametrize("n,delta", GENERATOR_CASES, ids=[f"n{n}-delta{d}" for n, d in GENERATOR_CASES])
def test_designed_roots_are_roots(n, delta):
    # the roots of g are exactly the defining set, which holds 1 .. delta - 1,
    # each a simple root; a monic polynomial is fixed by its roots, so this pins g
    m = multiplicative_order_of_two(n)
    defining_set = {r * 2**i % n for r in range(1, delta) for i in range(m)}
    assert generator_polynomial(n, delta).bit_length() - 1 == len(defining_set)
    assert roots_of_generator(n, delta) == defining_set


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: f"n{r.n}-delta{r.delta}")
def test_dimensions_match_reference(row):
    code, m = build_bch(row.n, row.delta)
    assert (code.n, code.k) == (row.n, row.k)
    assert m == multiplicative_order_of_two(row.n)
    assert code.designed_distance == row.delta


def test_beta_has_order_n():
    _, m = build_bch(17, 3)
    ctx = make_field(m)
    beta_log = (ctx.order - 1) // 17
    powers = {ctx.alpha_power(beta_log * e) for e in range(17)}  # beta^e
    assert len(powers) == 17
    assert ctx.alpha_power(beta_log * 17) == 1


@pytest.mark.parametrize(
    "n,delta,k,d",
    [(15, 5, 7, 5), (17, 3, 9, 5), (23, 5, 12, 7), (31, 11, 11, 11)],
)
def test_known_codes(n, delta, k, d):
    code = bch_code(n, delta)
    assert code.k == k
    assert code.min_distance() == (d, "exact")


def test_true_distance_exceeds_designed_for_17():
    code, _ = build_bch(17, 3)
    assert code.designed_distance == 3
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


def test_designed_distance_kept_past_64_bit_words(span_weight_calls):
    # [127,15]: 2^15 codewords fit the budget, but the weight distribution
    # enumerates uint64 words, so d stays the designed distance
    code, _ = build_bch(127, 55)
    assert code.k == 15
    assert code.min_distance() == (55, "lower_bound")
    assert span_weight_calls == []


def test_build_computes_no_distance(span_weight_calls):
    for row in TABLE1:
        build_bch(row.n, row.delta)
    assert span_weight_calls == []


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_bch(16, 3)      # even length
    with pytest.raises(ValueError):
        build_bch(15, 1)      # delta < 2
    with pytest.raises(ValueError):
        build_bch(15, 16)     # delta > n
    with pytest.raises(ValueError, match=r"ord_n\(2\) exceeds 16"):
        build_bch(37, 3)      # ord_37(2) = 36 exceeds the field table
