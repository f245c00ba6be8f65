from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecta.core import (
    Alphabet,
    And,
    Atom,
    Clock,
    ClockMismatch,
    EctaError,
    MAX_GUARD_DEPTH,
    Not,
    Or,
    ParseError,
    PreconditionViolated,
    TRUE,
    UndefinedClock,
    UnknownClock,
    UnknownLetter,
    Valuation,
    as_fraction,
    format_guard,
    parse_guard,
    require_natural,
    weak_successor_contains,
)

H_A = Clock.history("a")
H_B = Clock.history("b")
P_A = Clock.prophecy("a")
P_B = Clock.prophecy("b")


class TestFractions:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("3/2") == Fraction(3, 2)
        assert as_fraction(Fraction(1, 4)) == Fraction(1, 4)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            as_fraction("three halves")

    def test_rejects_exponent_form(self):
        for text in ("1e10", "1E10", "2.5e-1", "1e999999999"):
            with pytest.raises(ParseError):
                as_fraction(text)
        assert as_fraction("1.5") == Fraction(3, 2)
        assert as_fraction("3/2") == Fraction(3, 2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            as_fraction(True)


class TestRequireNatural:
    def test_accepts_natural_numbers(self):
        for value in (0, 1, 10**20):
            require_natural("n", value)

    def test_rejects_everything_else(self):
        for value in (-1, True, False, 2.5, 3.0, "3", None, Fraction(3)):
            with pytest.raises(PreconditionViolated, match="n must be a natural number"):
                require_natural("n", value)


class TestClocksAndAlphabet:
    def test_clock_parse_and_str(self):
        assert Clock.parse("h.a") == H_A
        assert Clock.parse("p.b") == P_B
        assert str(H_A) == "h.a"
        assert str(P_B) == "p.b"

    def test_opposite(self):
        assert H_A.opposite() == P_A
        assert P_A.opposite() == H_A

    def test_clock_order_histories_then_prophecies(self, ab):
        assert ab.clocks == (H_A, H_B, P_A, P_B)

    def test_duplicate_letters_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("b", "a", "b"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(EctaError):
            Alphabet(())

    def test_unnameable_letters_rejected(self):
        # no guard can name these letters, and 1 is no letter of a word
        for letters in (("a.b",), ("",), ("a b",), (1,), ("1a",), ("a", "b-c")):
            with pytest.raises(PreconditionViolated):
                Alphabet(letters)
        assert Alphabet(("_x", "B2")).letters == ("_x", "B2")

    def test_letter_order_is_preserved(self):
        assert Alphabet(("b", "a")).letters == ("b", "a")

    def test_index_of_unknown_clock(self, ab):
        with pytest.raises(UnknownClock):
            ab.index_of(Clock.history("c"))

    def test_require_letter(self, ab):
        ab.require_letter("a")
        with pytest.raises(UnknownLetter):
            ab.require_letter("c")


class TestValuation:
    def test_of_defaults_to_bot(self, ab):
        v = Valuation.of(ab, {"h.a": 1})
        assert v.value(H_A) == 1
        assert v.value(H_B) is None
        assert not v.defined(P_A)

    def test_negative_value_rejected(self, ab):
        with pytest.raises(ValueError):
            Valuation.of(ab, {"h.a": -1})

    def test_negative_value_is_an_ecta_error(self, ab):
        with pytest.raises(EctaError):
            Valuation.of(ab, {"h.a": -1})

    def test_wrong_arity_rejected(self, ab):
        with pytest.raises(ClockMismatch):
            Valuation(ab, (None,))

    def test_values_are_exact_fractions(self, ab):
        one = Alphabet(("a",))
        for bad in (0.1, True):
            with pytest.raises(TypeError):
                Valuation(one, (bad, None))
            with pytest.raises(TypeError):
                Valuation.of(ab, {"h.a": bad})
            with pytest.raises(TypeError):
                Valuation.undefined(ab).set(H_A, bad)
        v = Valuation(one, (2, None))
        assert type(v.value(Clock.history("a"))) is Fraction
        assert v == Valuation(one, (Fraction(2), None))
        assert type(Valuation.of(ab, {"h.a": 1}).value(H_A)) is Fraction

    def test_signed_negates_prophecy(self, ab):
        v = Valuation.of(ab, {"h.a": "3/2", "p.a": "3/2"})
        assert v.signed(H_A) == Fraction(3, 2)
        assert v.signed(P_A) == Fraction(-3, 2)
        assert v.plmin() == (Fraction(3, 2), None, Fraction(-3, 2), None)

    def test_elapse_moves_kinds_oppositely(self, ab):
        v = Valuation.of(ab, {"h.a": 1, "p.a": 2})
        w = v.elapse("1/2")
        assert w.value(H_A) == Fraction(3, 2)
        assert w.value(P_A) == Fraction(3, 2)
        assert w.value(H_B) is None

    def test_elapse_requires_prophecy_headroom(self, ab):
        v = Valuation.of(ab, {"p.a": 1})
        assert v.can_elapse(1)
        assert not v.can_elapse("3/2")
        with pytest.raises(PreconditionViolated):
            v.elapse(2)

    def test_elapse_rejects_negative(self, ab):
        with pytest.raises(PreconditionViolated):
            Valuation.undefined(ab).elapse(-1)

    def test_frac_counts_down_to_next_integer(self, ab):
        v = Valuation.of(ab, {"h.a": "7/4", "p.a": "7/4"})
        # the history reaches 2 after 1/4; the prophecy reaches 1 after 3/4
        assert v.frac(H_A) == Fraction(1, 4)
        assert v.frac(P_A) == Fraction(3, 4)
        assert v.elapse(v.frac(H_A)).value(H_A) == 2

    def test_frac_zero_on_integers(self, ab):
        v = Valuation.of(ab, {"h.a": 2, "p.a": 2})
        assert v.frac(H_A) == 0
        assert v.frac(P_A) == 0

    def test_frac_undefined(self, ab):
        with pytest.raises(UndefinedClock):
            Valuation.undefined(ab).frac(H_A)

    def test_initial_and_final(self, ab):
        assert Valuation.undefined(ab).is_initial()
        assert Valuation.undefined(ab).is_final()
        v = Valuation.of(ab, {"p.a": 1})
        assert v.is_initial() and not v.is_final()
        w = Valuation.of(ab, {"h.a": 1})
        assert w.is_final() and not w.is_initial()

    def test_set_returns_new_valuation(self, ab):
        v = Valuation.undefined(ab)
        w = v.set(H_A, "1/2")
        assert v.value(H_A) is None
        assert w.value(H_A) == Fraction(1, 2)
        assert w.set(H_A, None).value(H_A) is None


class TestGuards:
    def test_atom_on_defined_value(self, ab):
        v = Valuation.of(ab, {"h.a": "3/2"})
        assert v.satisfies(parse_guard("h.a > 1"))
        assert v.satisfies(parse_guard("h.a < 2"))
        assert not v.satisfies(parse_guard("h.a = 1"))

    def test_atom_false_on_bot_negation_true(self, ab):
        v = Valuation.undefined(ab)
        assert not v.satisfies(parse_guard("h.a = 0"))
        assert not v.satisfies(parse_guard("h.a > 0"))
        assert v.satisfies(parse_guard("!(h.a = 0)"))

    def test_true_guard(self, ab):
        assert Valuation.undefined(ab).satisfies(TRUE)
        assert parse_guard("true") == TRUE

    def test_connectives(self, ab):
        v = Valuation.of(ab, {"h.a": 1, "p.b": 0})
        assert v.satisfies(parse_guard("h.a = 1 && p.b < 1"))
        assert v.satisfies(parse_guard("h.a = 2 || p.b = 0"))
        assert not v.satisfies(parse_guard("h.a = 2 && p.b = 0"))

    def test_precedence_and_binds_tighter(self):
        g = parse_guard("h.a = 1 || h.a = 2 && h.b = 3")
        assert isinstance(g, Or)
        assert isinstance(g.right, And)

    def test_parentheses(self):
        g = parse_guard("(h.a = 1 || h.a = 2) && h.b = 3")
        assert isinstance(g, And)
        assert isinstance(g.left, Or)

    def test_parse_errors(self):
        for text in ("h.a >", "h.a = 1 &&", "x.a = 1", "h.a = 1)", "", "h.a ~ 1"):
            with pytest.raises(ParseError):
                parse_guard(text)

    def test_alphabet_letter_check(self, ab):
        parse_guard("h.a = 1", ab)
        with pytest.raises(UnknownLetter):
            parse_guard("h.c = 1", ab)

    def test_boolean_constant_rejected(self):
        with pytest.raises(PreconditionViolated, match="natural number"):
            Atom(H_A, "<", True)

    def test_max_constant(self):
        assert parse_guard("h.a = 3 && !(p.b < 7)").max_constant() == 7
        assert TRUE.max_constant() == 0

    def test_clocks(self):
        g = parse_guard("h.a = 1 && (p.b > 2 || h.a < 3)")
        assert g.clocks() == frozenset({H_A, P_B})

    def test_atoms_in_order(self):
        g = parse_guard("h.a = 1 && !(p.b > 2 || h.a = 1) || true")
        assert list(g.atoms()) == [
            Atom(H_A, "=", 1), Atom(P_B, ">", 2), Atom(H_A, "=", 1)
        ]
        assert list(TRUE.atoms()) == []

    def test_deep_guards_rejected(self):
        for text in (
            "!" * 600 + "h.b = 1",
            " && ".join(["h.b = 1"] * 2000),
            "!" * 990 + "h.b = 1",
            "(" * 3000 + "h.b = 1" + ")" * 3000,
        ):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_guard(text)

    def test_guards_at_the_depth_limit(self):
        n = MAX_GUARD_DEPTH
        for text, over in (
            ("!" * n + "h.b = 1", "!" * (n + 1) + "h.b = 1"),
            (" && ".join(["h.b = 1"] * (n + 1)), " || ".join(["h.b = 1"] * (n + 2))),
            ("(" * n + "h.b = 1" + ")" * n, "(" * (n + 1) + "h.b = 1" + ")" * (n + 1)),
            ("!(" * n + "true" + ")" * n, "!(" * n + "!true" + ")" * n),
        ):
            g = parse_guard(text)
            assert parse_guard(format_guard(g)) == g
            with pytest.raises(ParseError, match="nested deeper"):
                parse_guard(over)


def guards(draw_depth=3):
    clocks = st.sampled_from([H_A, H_B, P_A, P_B])
    atoms = st.builds(
        Atom, clocks, st.sampled_from(["<", "=", ">"]), st.integers(0, 9)
    )
    return st.recursive(
        atoms | st.just(TRUE),
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
        ),
        max_leaves=8,
    )


class TestGuardFormatting:
    @given(guards())
    def test_round_trip_is_structural(self, g):
        assert parse_guard(format_guard(g)) == g

    def test_readable_output(self):
        g = parse_guard("p.b = 1 && p.a > 1")
        assert format_guard(g) == "p.b = 1 && p.a > 1"


class TestWeakSuccessor:
    def test_bounded_clocks_must_elapse_exactly(self, ab):
        v = Valuation.of(ab, {"h.a": 0, "p.a": 2})
        ok = v.elapse(1)
        assert weak_successor_contains(v, 1, ok, cmax=2)
        off = ok.set(H_A, "3/2")
        assert not weak_successor_contains(v, 1, off, cmax=2)

    def test_large_prophecy_may_land_anywhere_large(self, ab):
        v = Valuation.of(ab, {"p.a": 10})
        for target in ("9/2", 7, 100):
            w = Valuation.of(ab, {"p.a": target})
            assert weak_successor_contains(v, 1, w, cmax=3)
        # but it cannot drop to cmax - t or below
        assert not weak_successor_contains(
            v, 1, Valuation.of(ab, {"p.a": 2}), cmax=3
        )

    def test_large_prophecy_may_also_elapse_exactly(self, ab):
        v = Valuation.of(ab, {"p.a": 10})
        assert weak_successor_contains(v, 4, v.elapse(4), cmax=3)

    def test_bot_pattern_must_match(self, ab):
        v = Valuation.of(ab, {"p.a": 10})
        assert not weak_successor_contains(
            v, 1, Valuation.undefined(ab), cmax=3
        )

    @given(
        st.fractions(min_value=0, max_value=3),
        st.fractions(min_value=0, max_value=2),
    )
    def test_composes(self, start, t):
        ab = Alphabet(("a", "b"))
        cmax = 2
        v = Valuation.of(ab, {"p.a": start + t, "h.b": 0})
        w = v.elapse(t)
        assert weak_successor_contains(v, t, w, cmax)
