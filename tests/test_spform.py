import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnclass.kfun import KFunction
from fnclass.spform import SPSyntaxError, parse, to_sp


class TestParse:
    def test_worked_pair(self):
        assert parse("x1*x2 + x1^0*x3", 2).to_hex() == "d8"
        assert parse("x1*x2 + x1*x3", 2).to_hex() == "28"

    def test_parity_function(self):
        f = parse("x1 + x2 + x3", 2)
        assert f.eval((1, 1, 1)) == 1
        assert f.eval((1, 1, 0)) == 0
        from fnclass.diagrams import imp_count
        assert imp_count(f) == 48

    def test_unicode_plus(self):
        assert parse("x1 ⊕ x2", 2) == parse("x1 + x2", 2)

    def test_constant_alone(self):
        f = parse("1", 2)
        assert f.n == 0 and f.eval(()) == 1

    def test_constant_too_large(self):
        with pytest.raises(SPSyntaxError, match="constant 5 out of range"):
            parse("5", 2)

    def test_exponent_too_large(self):
        with pytest.raises(SPSyntaxError, match="exponent"):
            parse("x1^2", 2)

    def test_indicator_semantics(self):
        neg = parse("x1^0", 2)
        assert [neg.eval((a,)) for a in range(2)] == [1, 0]

    def test_ternary_indicator(self):
        f = parse("x1^2", 3)
        assert [f.eval((a,)) for a in range(3)] == [0, 0, 1]

    def test_plain_variable_is_ring_value(self):
        f = parse("x1", 3)
        assert [f.eval((a,)) for a in range(3)] == [0, 1, 2]
        assert parse("x1^1", 3) != f  # indicator differs from value for k > 2

    def test_coefficient(self):
        f = parse("2*x1", 3)
        assert [f.eval((a,)) for a in range(3)] == [0, 2, 1]

    def test_arity_inference_and_override(self):
        assert parse("x2", 2).n == 2
        assert parse("x2", 2, arity=4).n == 4
        with pytest.raises(ValueError, match="arity"):
            parse("x3", 2, arity=2)

    def test_syntax_error_position(self):
        with pytest.raises(SPSyntaxError) as err:
            parse("x1 + * x2", 2)
        assert err.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(SPSyntaxError, match="trailing"):
            parse("x1 x2", 2)

    def test_empty_input(self):
        with pytest.raises(SPSyntaxError):
            parse("", 2)

    def test_radix_above_a_byte(self):
        # a cell of 300 would not fit the byte table: rejected, not wrapped
        with pytest.raises(ValueError, match="table cells are bytes"):
            parse("x1", 300)
        assert parse("x1", 256).values == bytes(range(256))

    def test_bad_variable_index(self):
        with pytest.raises(SPSyntaxError):
            parse("x0", 2)


class TestPrint:
    @staticmethod
    def reference(f: KFunction) -> str:
        """The full SP form built cell by cell from the cell's digits."""
        if f.n == 0:
            return str(f.values[0])
        terms = []
        for cell, value in enumerate(f.values):
            if value:
                digits = [cell // f.k ** i % f.k for i in range(f.n)]
                monomial = "*".join(f"x{i + 1}^{a}"
                                    for i, a in enumerate(digits))
                terms.append(monomial if value == 1 else f"{value}*{monomial}")
        return " + ".join(terms) or "0"

    @pytest.mark.parametrize("k,top", [(2, 5), (3, 3), (4, 2)])
    def test_matches_cell_by_cell_reference(self, k, top):
        import random
        rng = random.Random(k)
        for n in range(top + 1):
            tables = [[0] * k ** n, [k - 1] * k ** n]
            tables += [[rng.randrange(k) for _ in range(k ** n)]
                       for _ in range(10)]
            for values in tables:
                f = KFunction(k, n, values)
                assert to_sp(f) == self.reference(f)

    def test_constant_zero(self):
        assert to_sp(KFunction.constant(2, 0, 0)) == "0"

    def test_single_variable_canonical(self):
        assert to_sp(KFunction(2, 1, [0, 1])) == "x1^1"

    def test_coefficient_rendered_for_k3(self):
        f = KFunction(3, 1, [0, 2, 0])
        assert to_sp(f) == "2*x1^1"
        assert parse(to_sp(f), 3, arity=1) == f

    def test_round_trip_exhaustive_small(self):
        for n in range(3):
            for ident in range(2 ** (2 ** n)):
                f = KFunction.from_id(ident, 2, n)
                assert parse(to_sp(f), 2, arity=n) == f


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2), st.data())
def test_round_trip_random(k, n, data):
    size = k ** n
    vals = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    f = KFunction(k, n, vals)
    assert parse(to_sp(f), k, arity=n) == f


# (text, k, message, position) of every syntax error kind
SYNTAX_ERRORS = [
    ("x1 + * x2", 2, "expected a variable or constant", 5),
    ("x", 2, "expected a number", 1),
    ("x 0", 2, "variable index must be >= 1", 1),
    ("x1 ^ 2", 2, "exponent 2 out of range for k=2", 4),
    ("x1^", 2, "expected a number", 3),
    ("5", 2, "constant 5 out of range for k=2", 0),
    ("x1 x2", 2, "unexpected trailing input", 3),
    ("", 2, "expected a variable or constant", 0),
    ("x1 +", 2, "expected a variable or constant", 4),
    ("x1**x2", 2, "expected a variable or constant", 3),
    ("  7*x1", 5, "constant 7 out of range for k=5", 2),
    ("x1 ⊕ ", 3, "expected a variable or constant", 5),
    ("2*x1^3", 3, "exponent 3 out of range for k=3", 5),
    ("x1^1 + y", 2, "expected a variable or constant", 7),
]


@pytest.mark.parametrize("text,k,message,position", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, k, message, position):
    with pytest.raises(SPSyntaxError) as err:
        parse(text, k)
    assert (str(err.value), err.value.position) == \
        (f"{message} (at position {position})", position)


def evaluate(terms, k: int, n: int) -> bytes:
    """Truth table of [(coefficient, [(index, exponent or None)])], point by
    point, variable 1 the least significant digit."""
    values = bytearray(k ** n)
    for cell in range(k ** n):
        point = [cell // k ** i % k for i in range(n)]
        total = 0
        for coeff, factors in terms:
            prod = coeff
            for index, alpha in factors:
                x = point[index - 1]
                prod *= x if alpha is None else int(x == alpha)
            total += prod
        values[cell] = total % k
    return bytes(values)


@st.composite
def expressions(draw):
    """(text, k, arity, terms): sums of products with constant factors,
    repeated variables, random whitespace and both plus signs; no variable
    at all (n = 0) when `top` is 0, and up to two trailing inessential ones."""
    k = draw(st.integers(2, 5))
    top = draw(st.integers(0, 3))
    ws = st.sampled_from(["", " ", "  "])
    terms, texts = [], []
    for _ in range(draw(st.integers(1, 4))):
        coeff, factors, items = 1, [], []
        for _ in range(draw(st.integers(1, 4))):
            if top and draw(st.booleans()):
                index = draw(st.integers(1, top))
                alpha = draw(st.none() | st.integers(0, k - 1))
                factors.append((index, alpha))
                items.append(f"x{index}" if alpha is None
                             else f"x{index}{draw(ws)}^{draw(ws)}{alpha}")
            else:
                value = draw(st.integers(0, k - 1))
                coeff *= value
                items.append(str(value))
        terms.append((coeff, factors))
        texts.append(f"{draw(ws)}*{draw(ws)}".join(items))
    text = texts[0]
    for term in texts[1:]:
        text += draw(st.sampled_from([" + ", "+", " ⊕ "])) + term
    used = max((i for _, fs in terms for i, _ in fs), default=0)
    return text, k, used + draw(st.integers(0, 2)), terms


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_parse_matches_pointwise_evaluation(case):
    text, k, arity, terms = case
    f = parse(text, k, arity=arity)
    assert (f.k, f.n) == (k, arity)
    assert f.values == evaluate(terms, k, arity)


def test_repeated_factors_on_one_variable():
    # x1*x1^0 is 0 everywhere; x^p * [x = a] is a^p at x = a
    assert parse("x1*x1^0", 3).values == bytes(3)
    f = parse("x1*x1*x1*x1^2*x1^2 + " + "*".join(["x2"] * 50), 5)
    assert f == parse(f"3*x1^2 + {pow(2, 50, 5)}*x2^2 + {pow(3, 50, 5)}*x2^3"
                      f" + {pow(4, 50, 5)}*x2^4 + x2^1", 5)


def test_large_arity_evaluates_in_chunks():
    # 2^18 cells: the terms cannot all be held as whole tables at once
    text = " + ".join(f"x{i}*x{i + 1}^0" for i in range(1, 18))
    f = parse(text, 2)
    for cell in (0, 0b101101, 0b1011 << 13, (1 << 18) - 1):
        want = sum(cell >> (i - 1) & 1 and not cell >> i & 1
                   for i in range(1, 18)) % 2
        assert f.n == 18 and f.values[cell] == want
