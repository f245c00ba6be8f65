import json
from fractions import Fraction

import pytest

from ecta.automaton import (
    Ecta,
    Edge,
    ExtendedState,
    TimedWord,
    accepts,
    builtin_examples,
    determined_valuation,
    discrete_step,
    format_ecta,
    get_example,
    parse_ecta,
)
from ecta.core import (
    TRUE,
    Alphabet,
    Clock,
    EctaError,
    NotFound,
    ParseError,
    PreconditionViolated,
    ProphecyNotZero,
    UnknownLetter,
    Valuation,
    parse_guard,
)


@pytest.fixture(scope="module")
def ainf():
    return get_example("ainf")


class TestTimedWord:
    def test_of_and_untimed(self):
        w = TimedWord.of([["b", 0], ["b", 1], ["a", 2]])
        assert w.untimed() == ("b", "b", "a")
        assert len(w) == 3
        assert w.events[2] == ("a", Fraction(2))

    def test_rationals_and_simultaneity(self):
        w = TimedWord.of([["a", "1/2"], ["b", "1/2"]])
        assert w.events[0][1] == w.events[1][1] == Fraction(1, 2)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ParseError):
            TimedWord.of([["a", 2], ["b", 1]])

    def test_negative_first_time_rejected(self):
        with pytest.raises(ParseError, match="nonnegative"):
            TimedWord.of([["a", -1]])
        with pytest.raises(ParseError, match="nonnegative"):
            TimedWord.of([["a", "-1/2"], ["b", 0]])

    def test_bad_pairs_rejected(self):
        with pytest.raises(ParseError):
            TimedWord.of([["a"]])
        with pytest.raises(ParseError):
            TimedWord.of([[1, 2]])
        with pytest.raises(TypeError):
            TimedWord.of([["a", 0.5]])
        # events of the wrong shape, through the constructor as well
        for events in ((("a", 0, 1),), ("b0", "b1", "a2"), ({"b": 0, "x": 1},)):
            with pytest.raises(ParseError, match="letter, time"):
                TimedWord(events)
            with pytest.raises(ParseError, match="letter, time"):
                TimedWord.of(list(events))

    def test_boolean_time_rejected(self):
        with pytest.raises(TypeError):
            TimedWord.of([["a", True]])

    def test_str(self):
        assert str(TimedWord.of([])) == "(empty)"
        assert str(TimedWord.of([["a", 1]])) == "(a,1)"


class TestDeterminedValuation:
    def test_histories_and_prophecies(self):
        ab = Alphabet(("a", "b"))
        w = TimedWord.of([["b", 0], ["b", 1], ["a", 2]])
        v0 = determined_valuation(ab, w, 0)
        assert v0.value(Clock.history("a")) is None
        assert v0.value(Clock.history("b")) is None
        assert v0.value(Clock.prophecy("a")) == 2
        assert v0.value(Clock.prophecy("b")) == 1
        v1 = determined_valuation(ab, w, 1)
        assert v1.value(Clock.history("b")) == 1
        assert v1.value(Clock.prophecy("b")) is None
        assert v1.value(Clock.prophecy("a")) == 1
        v2 = determined_valuation(ab, w, 2)
        assert v2.value(Clock.history("b")) == 1
        assert v2.value(Clock.prophecy("a")) is None

    def test_simultaneous_events_give_zero_distances(self):
        ab = Alphabet(("a", "b"))
        w = TimedWord.of([["a", 1], ["b", 1]])
        v0 = determined_valuation(ab, w, 0)
        assert v0.value(Clock.prophecy("b")) == 0
        v1 = determined_valuation(ab, w, 1)
        assert v1.value(Clock.history("a")) == 0


class TestDiscreteStep:
    def test_requires_prophecy_zero(self, ainf):
        v = Valuation.of(ainf.alphabet, {"p.b": 1})
        with pytest.raises(ProphecyNotZero):
            discrete_step(ainf, ExtendedState("q0", v), "b", 1)
        v_bot = Valuation.undefined(ainf.alphabet)
        with pytest.raises(ProphecyNotZero):
            discrete_step(ainf, ExtendedState("q0", v_bot), "b", 1)

    def test_announcement_is_read_by_guard(self, ainf):
        # from the start of b b a at integer instants: the first b needs
        # the next b one unit away and the pending a strictly later
        v = Valuation.of(ainf.alphabet, {"p.b": 0, "p.a": 2})
        out = discrete_step(ainf, ExtendedState("q0", v), "b", 1)
        assert [s.location for s in out] == ["q0"]
        succ = out[0].valuation
        assert succ.value(Clock.history("b")) == 0
        assert succ.value(Clock.prophecy("b")) == 1

    def test_announcing_never_means_bot(self, ainf):
        # the final b announces no further b; the guard that demands the
        # closing a one unit away is the one that fires
        v = Valuation.of(
            ainf.alphabet, {"h.b": 1, "p.b": 0, "p.a": 1}
        )
        out = discrete_step(ainf, ExtendedState("q0", v), "b", None)
        assert [s.location for s in out] == ["q0"]
        assert out[0].valuation.value(Clock.prophecy("b")) is None

    def test_failing_guard_gives_no_successor(self, ainf):
        v = Valuation.of(ainf.alphabet, {"p.b": 0, "p.a": 2})
        # announcing the next b three units away violates both b-guards
        assert discrete_step(ainf, ExtendedState("q0", v), "b", 3) == []

    def test_unknown_letter(self, ainf):
        v = Valuation.undefined(ainf.alphabet)
        with pytest.raises(UnknownLetter):
            discrete_step(ainf, ExtendedState("q0", v), "c", None)


class TestAccepts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_family(self, ainf, n):
        events = [["b", k] for k in range(n)] + [["a", n]]
        assert accepts(ainf, TimedWord.of(events))

    def test_rejections(self, ainf):
        bad = [
            [],
            [["a", 0]],
            [["b", 0]],
            [["b", 0], ["a", 2]],
            [["b", 0], ["b", "3/2"], ["a", "5/2"]],
            [["a", 0], ["b", 1], ["a", 2]],
        ]
        for events in bad:
            assert not accepts(ainf, TimedWord.of(events))

    def test_offset_start_is_accepted(self, ainf):
        # guards only read distances between events, so the family
        # shifted away from time 0 stays accepted
        w = TimedWord.of([["b", "1/2"], ["b", "3/2"], ["a", "5/2"]])
        assert accepts(ainf, w)

    def test_simultaneous_prefix_rejected(self, ainf):
        w = TimedWord.of([["b", 0], ["b", 0], ["a", 1]])
        assert not accepts(ainf, w)

    def test_unknown_letter(self, ainf):
        with pytest.raises(UnknownLetter):
            accepts(ainf, TimedWord.of([["c", 0]]))


class TestEcta:
    def test_validation(self):
        ab = Alphabet(("a",))
        with pytest.raises(ValueError):
            Ecta(ab, ("q0",), "missing", frozenset(), ())
        with pytest.raises(ValueError):
            Ecta(ab, ("q0",), "q0", frozenset({"ghost"}), ())
        for locations in (("q0", 1), ("q0", None), ("q0", ("q1",))):
            with pytest.raises(PreconditionViolated, match="not a string"):
                Ecta(ab, locations, "q0", frozenset(), ())
        with pytest.raises(PreconditionViolated, match="duplicate locations"):
            Ecta(ab, ("q0", "q1", "q0"), "q0", frozenset(), ())
        with pytest.raises(PreconditionViolated, match="outside locations"):
            Ecta(ab, ("q0",), "q0", frozenset(), (Edge("q0", "a", TRUE, "q1"),))
        with pytest.raises(UnknownLetter):
            Ecta(
                ab,
                ("q0",),
                "q0",
                frozenset(),
                (Edge("q0", "b", TRUE, "q0"),),
            )

    @pytest.mark.parametrize("edge", [
        Edge("q0", "a", "h.a < 1", "q0"), Edge("q0", "a", None, "q0"), Edge("q0", "a", 1, "q0"),
        ("q0", "a", TRUE, "q0"), "q0 --a--> q0",
    ])
    def test_edge_without_a_guard_is_rejected(self, edge):
        with pytest.raises(PreconditionViolated, match="is not an Edge with a Guard"):
            Ecta(Alphabet(("a",)), ("q0",), "q0", frozenset(), (edge,))

    def test_validation_errors_are_ecta_errors(self):
        with pytest.raises(EctaError):
            Ecta(Alphabet(("a",)), ("q0",), "missing", frozenset(), ())

    def test_edge_lookup(self):
        ainf = get_example("ainf")
        assert len(ainf.edges_from("q0")) == 3
        assert len(ainf.edges_from("q0", "b")) == 2
        assert len(ainf.edges_to("q1")) == 1
        assert ainf.edges_from("q1") == ()

    def test_max_constant(self):
        assert get_example("ainf").max_constant() == 1
        assert get_example("backdiv").max_constant() == 1

    def test_examples_registry(self):
        names = set(builtin_examples())
        assert {"ainf", "backdiv", "nofinite"} <= names
        with pytest.raises(NotFound):
            get_example("nope")


class TestFileFormat:
    def test_round_trip(self):
        for name, A in builtin_examples().items():
            text = format_ecta(A, cmax=1)
            B, cmax = parse_ecta(text)
            assert cmax == 1
            assert B.alphabet.letters == A.alphabet.letters
            assert B.locations == A.locations
            assert B.initial == A.initial
            assert B.accepting == A.accepting
            assert [
                (e.source, e.letter, e.guard, e.target) for e in B.edges
            ] == [(e.source, e.letter, e.guard, e.target) for e in A.edges]

    def test_cmax_is_optional(self):
        text = format_ecta(get_example("ainf"))
        _, cmax = parse_ecta(text)
        assert cmax is None

    def test_boolean_cmax_rejected(self):
        text = format_ecta(get_example("ainf"))[:-2] + ', "cmax": true}'
        with pytest.raises(ParseError, match="natural number"):
            parse_ecta(text)

    def test_parse_errors(self):
        bad = [
            "not json",
            "[]",
            '{"alphabet": ["a"]}',
            '{"alphabet": ["a"], "locations": ["q0"], "initial": "q0",'
            ' "accepting": [], "edges": [], "cmax": -1}',
            '{"alphabet": ["a"], "locations": ["q0"], "initial": "q0",'
            ' "accepting": [], "edges":'
            ' [{"from": "q0", "letter": "a", "guard": "h.a >", "to": "q0"}]}',
        ]
        # letters no guard or word can name, and strings where lists belong
        rest = '"locations": ["q0"], "initial": "q0", "accepting": [], "edges": []}'
        for letters in ('["a.b"]', '[""]', '["a b"]', "[1]", '"ab"'):
            bad.append(f'{{"alphabet": {letters}, {rest}')
        # location names that are not strings
        for locations, accepting in (
            (["q0", 1], [1, "q0"]), (["q0", 1], []), (["q0", ["q1"]], [])
        ):
            data = {"alphabet": ["a"], "locations": locations, "initial": "q0",
                    "accepting": accepting, "edges": []}
            bad.append(json.dumps(data))
        for key in ("locations", "accepting", "edges"):
            data = {"alphabet": ["a"], "locations": ["q0"], "initial": "q0",
                    "accepting": [], "edges": []}
            data[key] = "q0"
            bad.append(json.dumps(data))
        for text in bad:
            with pytest.raises(ParseError):
                parse_ecta(text)

    def test_guards_survive_formatting(self):
        ab = Alphabet(("a", "b"))
        A = Ecta(
            alphabet=ab,
            locations=("q0",),
            initial="q0",
            accepting=frozenset({"q0"}),
            edges=(
                Edge("q0", "a", parse_guard("!(h.a = 1) && p.b < 2", ab), "q0"),
            ),
        )
        B, _ = parse_ecta(format_ecta(A))
        assert B.edges[0].guard == A.edges[0].guard
