import random

import pytest
import sympy
from hypothesis import given, strategies as st

from bchcover.gf2m import MAX_DEGREE, MIN_DEGREE, PRIMITIVE_POLYS, make_field
from bchcover.linear_code import from_generator_poly

from conftest import eval_poly, ref_mod

# ---------------------------------------------------------------------------
# independent GF(2)[x] arithmetic for cross-checking (ints, bit i = coeff x^i)
# ---------------------------------------------------------------------------

def ref_mul(a: int, b: int) -> int:
    """Carry-less product: a * b in GF(2)[x]."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def ref_divmod(a: int, b: int) -> tuple[int, int]:
    """Long division in GF(2)[x]: (q, r) with a = q * b + r and deg r < deg b."""
    q, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def ref_mulmod(a: int, b: int, mod: int) -> int:
    return ref_mod(ref_mul(a, b), mod)


def ref_powmod(base: int, e: int, mod: int) -> int:
    r = 1
    base = ref_mod(base, mod)
    while e:
        if e & 1:
            r = ref_mulmod(r, base, mod)
        base = ref_mulmod(base, base, mod)
        e >>= 1
    return r


def ref_gcd(a: int, b: int) -> int:
    while a:
        a, b = ref_mod(b, a), a
    return b


def ref_is_irreducible(p: int, m: int) -> bool:
    if p.bit_length() - 1 != m:
        return False
    x = 0b10
    if ref_powmod(x, 1 << m, p) != ref_mod(x, p):
        return False
    return all(
        ref_gcd(ref_powmod(x, 1 << (m // q), p) ^ ref_mod(x, p), p) == 1
        for q in sympy.primefactors(m)
    )


def ref_is_primitive(p: int, m: int) -> bool:
    if not ref_is_irreducible(p, m):
        return False
    order = (1 << m) - 1
    return all(ref_powmod(0b10, order // q, p) != 1 for q in sympy.primefactors(order))


# ---------------------------------------------------------------------------
# modulus table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_modulus_is_primitive(m):
    assert ref_is_primitive(PRIMITIVE_POLYS[m], m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_modulus_is_lexicographically_smallest(m):
    smallest = next(
        p for p in range((1 << m) + 1, 1 << (m + 1), 2) if ref_is_primitive(p, m)
    )
    assert PRIMITIVE_POLYS[m] == smallest


def test_known_moduli():
    assert PRIMITIVE_POLYS[4] == 0b10011  # x^4 + x + 1
    assert PRIMITIVE_POLYS[2] == 0b111    # the only irreducible quadratic
    assert make_field(4).primitive_poly == 0b10011
    assert repr(make_field(4)) == "FieldContext(GF(2^4), modulus=0b10011)"


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 0, 17, -3])
def test_make_field_rejects_out_of_range(m):
    with pytest.raises(ValueError):
        make_field(m)


def test_field_sizes():
    assert make_field(4).order == 16
    gf256 = make_field(8)
    assert gf256.order == 256
    assert len(gf256.exp_table) == 255
    assert len(set(gf256.exp_table)) == 255


@pytest.mark.parametrize("m", range(MIN_DEGREE, MAX_DEGREE + 1))
def test_log_exp_roundtrip(m):
    ctx = make_field(m)
    for i in range(ctx.order - 1):
        assert ctx.log_table[ctx.exp_table[i]] == i


@pytest.mark.parametrize("m", range(2, 12))
def test_exp_table_is_multiplicative(m):
    ctx = make_field(m)
    rng = random.Random(m)
    span = ctx.order - 1
    for _ in range(200):
        i, j = rng.randrange(span), rng.randrange(span)
        assert ctx.exp_table[(i + j) % span] == ctx.mul(ctx.exp_table[i], ctx.exp_table[j])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf16_product_example():
    ctx = make_field(4)
    a3, a2 = ctx.alpha_power(3), ctx.alpha_power(2)
    assert ctx.mul(a3, a2) == 0b0110  # alpha^5 = alpha^2 + alpha
    assert ctx.alpha_power(5) == 0b0110


def test_mul_identity_and_zero():
    ctx = make_field(4)
    for a in range(ctx.order):
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        assert ctx.mul(0, a) == 0


@pytest.mark.parametrize("m", range(2, 12))
def test_field_axioms_on_random_triples(m):
    ctx = make_field(m)
    rng = random.Random(1000 + m)
    for _ in range(1000):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        assert (a ^ b) ^ c == a ^ (b ^ c)


def order_of(ctx, a):
    e, x = 1, a
    while x != 1:
        x = ctx.mul(x, a)
        e += 1
    return e


@pytest.mark.parametrize("m", range(2, 9))
def test_element_orders(m):
    ctx = make_field(m)
    group = ctx.order - 1
    assert order_of(ctx, ctx.alpha_power(1)) == group
    for a in range(1, ctx.order):
        assert group % order_of(ctx, a) == 0


# ---------------------------------------------------------------------------
# evaluating GF(2)[x] polynomials in the field
# ---------------------------------------------------------------------------

def test_poly_eval_root_of_modulus():
    ctx = make_field(4)
    assert eval_poly(ctx, 0b10011, ctx.alpha_power(1)) == 0
    assert eval_poly(ctx, 0b11, 1) == 0      # x + 1 at 1
    assert eval_poly(ctx, 0b1, 0) == 1       # constant 1
    assert eval_poly(ctx, 0, ctx.alpha_power(3)) == 0  # the zero polynomial


# ---------------------------------------------------------------------------
# division in GF(2)[x]: the remainder of x^n + 1 mod g in from_generator_poly
# ---------------------------------------------------------------------------

def test_division_by_zero_rejected():
    with pytest.raises(ValueError, match="positive bitmask"):
        from_generator_poly(0, 7)


def test_poly_self_mod_is_zero():
    # x^n + 1 mod itself is 0, so it passes the divisibility check and is
    # refused only for leaving k = 0
    for n in range(1, 17):
        with pytest.raises(ValueError, match=f"deg g = {n} leaves k = 0"):
            from_generator_poly((1 << n) | 1, n)


@given(st.integers(1, 24), st.integers(1, 1 << 12))
def test_poly_divmod_identity(n, g):
    a = (1 << n) | 1
    q, r = ref_divmod(a, g)
    assert ref_mul(q, g) ^ r == a
    assert r.bit_length() < g.bit_length()
    deg = g.bit_length() - 1
    if r:
        with pytest.raises(ValueError, match=f"g = {g:#b} does not divide x\\^{n} \\+ 1"):
            from_generator_poly(g, n)
    elif deg < n:
        code = from_generator_poly(g, n)
        assert code.k == n - deg and code.generator_rows[0] == g
    else:
        with pytest.raises(ValueError, match="degenerate"):
            from_generator_poly(g, n)
