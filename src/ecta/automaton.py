"""Event-clock automata, timed words, and the concrete step semantics.

A timed word fixes every clock value along its run: history clocks
measure back to the previous occurrence of their letter, prophecy clocks
forward to the next one.  Only the location component of a run is
nondeterministic, so membership reduces to a graph search over
(position, location) pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import (
    TRUE,
    Alphabet,
    Clock,
    Guard,
    NotFound,
    ParseError,
    PreconditionViolated,
    ProphecyNotZero,
    Rational,
    Valuation,
    as_fraction,
    format_guard,
    parse_guard,
    require_natural,
)


@dataclass(frozen=True)
class Edge:
    source: str
    letter: str
    guard: Guard
    target: str

    def __str__(self) -> str:
        return f"{self.source} --{self.letter}[{self.guard}]--> {self.target}"


@dataclass(frozen=True)
class Ecta:
    """A finite automaton over an alphabet with event-clock guards."""

    alphabet: Alphabet
    locations: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        locations = tuple(self.locations)
        if not all(isinstance(q, str) for q in locations):
            raise PreconditionViolated(f"a location in {locations!r} is not a string")
        if len(set(locations)) != len(locations):
            raise PreconditionViolated(f"duplicate locations in {locations!r}")
        if self.initial not in locations:
            raise PreconditionViolated(
                f"initial location {self.initial!r} is not a location"
            )
        accepting = frozenset(self.accepting)
        if not accepting <= set(locations):
            raise PreconditionViolated("accepting locations must be locations")
        edges = tuple(self.edges)
        for e in edges:
            if e.source not in locations or e.target not in locations:
                raise PreconditionViolated(f"edge endpoint outside locations: {e}")
            self.alphabet.require_letter(e.letter)
            for clock in e.guard.clocks():
                self.alphabet.require_letter(clock.letter)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "edges", edges)

    def edges_from(self, location: str, letter: Optional[str] = None) -> tuple[Edge, ...]:
        return tuple(
            e
            for e in self.edges
            if e.source == location and (letter is None or e.letter == letter)
        )

    def edges_to(self, location: str, letter: Optional[str] = None) -> tuple[Edge, ...]:
        return tuple(
            e
            for e in self.edges
            if e.target == location and (letter is None or e.letter == letter)
        )

    def max_constant(self) -> int:
        return max((e.guard.max_constant() for e in self.edges), default=0)


@dataclass(frozen=True)
class ExtendedState:
    """A location together with a clock valuation."""

    location: str
    valuation: Valuation

    def __str__(self) -> str:
        return f"({self.location}, {self.valuation})"


@dataclass(frozen=True)
class TimedWord:
    """A finite sequence of letters with nondecreasing timestamps.

    Each event is a list or tuple ``(letter, time)`` with a string
    letter, else ParseError.  Timestamps are nonnegative rationals;
    equal neighbours model simultaneous events.
    """

    events: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        pairs = []
        for event in self.events:
            shaped = isinstance(event, (list, tuple)) and len(event) == 2
            if not (shaped and isinstance(event[0], str)):
                raise ParseError(f"expected a [letter, time] pair, got {event!r}")
            pairs.append((event[0], as_fraction(event[1])))
        events = tuple(pairs)
        if events and events[0][1] < 0:
            raise ParseError(f"timestamps must be nonnegative, got {events[0][1]}")
        for (_, earlier), (_, t) in zip(events, events[1:]):
            if t < earlier:
                raise ParseError(f"timestamps must be nondecreasing, got {t} after {earlier}")
        object.__setattr__(self, "events", events)

    @staticmethod
    def of(pairs: Iterable[Sequence[Union[str, Rational]]]) -> "TimedWord":
        return TimedWord(tuple(pairs))

    def untimed(self) -> tuple[str, ...]:
        return tuple(letter for letter, _ in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __str__(self) -> str:
        return "".join(f"({letter},{t})" for letter, t in self.events) or "(empty)"


def determined_valuation(
    alphabet: Alphabet, word: TimedWord, position: int
) -> Valuation:
    """The clock values seen by the step at ``position``.

    This is the valuation after the prophecy clock of the fired letter
    has been set to its next occurrence (or bot) and before its history
    clock resets: exactly the valuation the guard of that step reads.
    """
    tau = word.events[position][1]
    entries: dict[Clock, Optional[Fraction]] = {}
    for sigma in alphabet.letters:
        last = None
        for j in range(position - 1, -1, -1):
            if word.events[j][0] == sigma:
                last = word.events[j][1]
                break
        entries[Clock.history(sigma)] = None if last is None else tau - last
        nxt = None
        for j in range(position + 1, len(word.events)):
            if word.events[j][0] == sigma:
                nxt = word.events[j][1]
                break
        entries[Clock.prophecy(sigma)] = None if nxt is None else nxt - tau
    return Valuation.of(alphabet, entries)


def discrete_step(
    A: Ecta,
    state: ExtendedState,
    letter: str,
    next_time: Optional[Rational],
) -> list[ExtendedState]:
    """All one-step successors for firing ``letter``.

    The letter's prophecy clock must be 0.  ``next_time`` announces the
    delay until the next occurrence of the same letter (None for never);
    guards are evaluated after this announcement, and the letter's
    history clock resets afterwards.
    """
    A.alphabet.require_letter(letter)
    v = state.valuation
    prophecy = Clock.prophecy(letter)
    history = Clock.history(letter)
    if v.value(prophecy) != 0:
        raise ProphecyNotZero(
            f"firing {letter!r} needs {prophecy}=0, have {prophecy}="
            f"{'bot' if v.value(prophecy) is None else v.value(prophecy)}"
        )
    v_mid = v.set(prophecy, None if next_time is None else as_fraction(next_time))
    out: list[ExtendedState] = []
    for e in A.edges_from(state.location, letter):
        if v_mid.satisfies(e.guard):
            succ = ExtendedState(e.target, v_mid.set(history, 0))
            if succ not in out:
                out.append(succ)
    return out


def accepts(A: Ecta, word: TimedWord) -> bool:
    """Timed-language membership.

    The word determines every clock value, so the search runs over
    (position, location) pairs only.
    """
    for letter, _ in word.events:
        A.alphabet.require_letter(letter)
    n = len(word.events)
    current = {A.initial}
    for i in range(n):
        letter = word.events[i][0]
        v_mid = determined_valuation(A.alphabet, word, i)
        current = {
            e.target
            for q in current
            for e in A.edges_from(q, letter)
            if v_mid.satisfies(e.guard)
        }
        if not current:
            return False
    return any(q in A.accepting for q in current)


# -- built-in examples -----------------------------------------------


def _example_repeat_then_close() -> Ecta:
    """Accepts exactly one timed word per count of leading ``b`` events.

    From the n-th step of its unique run the continuation is forced: the
    remaining word must be ``b`` at each of the next integer instants and
    a closing ``a`` one time unit after the last ``b``.  Its untimed
    language is { b^n a : n >= 1 }.
    """
    alphabet = Alphabet(("a", "b"))
    return Ecta(
        alphabet=alphabet,
        locations=("q0", "q1"),
        initial="q0",
        accepting=frozenset({"q1"}),
        edges=(
            Edge("q0", "b", parse_guard("p.b = 1 && p.a > 1", alphabet), "q0"),
            Edge("q0", "b", parse_guard("p.a = 1 && !(p.b = 0)", alphabet), "q0"),
            Edge("q0", "a", parse_guard("h.b = 1", alphabet), "q1"),
        ),
    )


def _example_backward_divergence() -> Ecta:
    """A nonempty automaton whose exact backward zones keep tightening.

    Iterating the predecessor of the ``h.a = 1`` loop produces zones
    whose lower bounds on ``p.b`` grow without limit.
    """
    alphabet = Alphabet(("a", "b"))
    return Ecta(
        alphabet=alphabet,
        locations=("q0", "q1", "q2"),
        initial="q0",
        accepting=frozenset({"q2"}),
        edges=(
            Edge("q0", "a", TRUE, "q1"),
            Edge("q1", "a", parse_guard("h.a = 1", alphabet), "q1"),
            Edge("q1", "a", parse_guard("p.b = 1", alphabet), "q2"),
            Edge("q2", "b", TRUE, "q2"),
        ),
    )


def builtin_examples() -> dict[str, Ecta]:
    """The named automata used by the demos and the test suite."""
    return {
        "ainf": _example_repeat_then_close(),
        "backdiv": _example_backward_divergence(),
    }


def get_example(name: str) -> Ecta:
    examples = builtin_examples()
    try:
        return examples[name]
    except KeyError:
        raise NotFound(
            f"no example named {name!r}; available: {', '.join(sorted(examples))}"
        )


# -- file format ------------------------------------------------------


def parse_ecta(text: str) -> tuple[Ecta, Optional[int]]:
    """Parse the JSON automaton format; returns the automaton and the
    optional ``cmax`` hint stored in the file.

    The format has fields ``alphabet`` (list of letters), ``locations``,
    ``initial``, ``accepting``, ``edges`` (objects with ``from``,
    ``letter``, ``guard``, ``to``), and optionally ``cmax``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad automaton file: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("bad automaton file: expected a JSON object")
    for key in ("alphabet", "locations", "accepting", "edges"):
        if not isinstance(data.get(key), list):
            raise ParseError(f"bad automaton file: {key!r} must be a list")
    try:
        alphabet = Alphabet(tuple(data["alphabet"]))
        edges = tuple(
            Edge(
                item["from"],
                item["letter"],
                parse_guard(item["guard"], alphabet),
                item["to"],
            )
            for item in data["edges"]
        )
        automaton = Ecta(
            alphabet=alphabet,
            locations=tuple(data["locations"]),
            initial=data["initial"],
            accepting=frozenset(data["accepting"]),
            edges=edges,
        )
        cmax = data.get("cmax")
        if cmax is not None:
            require_natural("cmax", cmax)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad automaton file: {exc}") from exc
    return automaton, cmax


def format_ecta(A: Ecta, cmax: Optional[int] = None) -> str:
    """Serialize to the JSON automaton format; inverse of parse_ecta."""
    data: dict = {
        "alphabet": list(A.alphabet.letters),
        "locations": list(A.locations),
        "initial": A.initial,
        "accepting": sorted(A.accepting),
    }
    if cmax is not None:
        data["cmax"] = cmax
    data["edges"] = [
        {
            "from": e.source,
            "letter": e.letter,
            "guard": format_guard(e.guard),
            "to": e.target,
        }
        for e in A.edges
    ]
    return json.dumps(data, indent=2) + "\n"
