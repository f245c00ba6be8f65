"""Clocks, valuations with an undefined value, time elapse, and guards.

Every letter of an alphabet carries two clocks.  The history clock
(printed ``h.a`` for letter ``a``) measures the time since the previous
occurrence of the letter.  The prophecy clock (printed ``p.a``) measures
the time until the next occurrence.  Either clock may be undefined,
written ``bot``: a history clock before the first occurrence, a prophecy
clock after the last one.

All arithmetic is exact.  Clock values are `fractions.Fraction`; the
undefined value is represented by `None`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Union

Rational = Union[int, str, Fraction]

HISTORY = "history"
PROPHECY = "prophecy"


class EctaError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionViolated(EctaError, ValueError):
    """An operation was applied to arguments outside its domain."""


class UndefinedClock(EctaError):
    """A clock value was required to be defined but is bot."""


class UnknownClock(EctaError):
    """A clock does not belong to the clock set in use."""


class UnknownLetter(EctaError):
    """A letter does not belong to the alphabet in use."""


class ProphecyNotZero(EctaError):
    """A discrete step fired a letter whose prophecy clock is not 0."""


class ClockMismatch(EctaError):
    """Two objects built over different clock sets were combined."""


class EmptyZone(EctaError):
    """An operation that needs a nonempty zone received an empty one."""


class NotFound(EctaError):
    """A named object does not exist."""


class CmaxTooSmall(EctaError):
    """The abstraction constant is below a constant used in a guard."""


class NotEquivalent(EctaError):
    """Two valuations were required to be region equivalent but are not."""


class Unsupported(EctaError):
    """The requested operation falls outside the supported fragment."""


class ParseError(EctaError):
    """Malformed concrete syntax in a guard, word, or automaton file."""


class TooManyStates(EctaError):
    """A construction reached more states than its budget; ``states``
    holds the number it had reached."""

    def __init__(self, message: str, states: int):
        super().__init__(message)
        self.states = states


# What Fraction reads alike on every supported Python, in ASCII: it also
# reads any Unicode digit, underscores from 3.11 on, spaces around the
# slash from 3.12 on, and exponents, which it expands into exact integers
# of that many digits.
_RATIONAL_RE = re.compile(r"\s*[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+|[0-9]+/[0-9]+)\s*", re.ASCII)


def as_fraction(x: Rational) -> Fraction:
    """Convert an int, Fraction, or string like ``2``, ``1.5``, ``3/2``
    in ASCII digits; any other string, such as ``1e10`` or ``1_000``,
    raises ParseError, and any other type, ``bool`` and ``float``
    included, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if _RATIONAL_RE.fullmatch(x):
            try:
                return Fraction(x)
            except ZeroDivisionError:
                pass
        raise ParseError(f"not a rational: {x!r}")
    raise TypeError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class Clock:
    """An event clock: a letter paired with a kind.

    ``Clock.history("a")`` prints as ``h.a``; ``Clock.prophecy("a")``
    prints as ``p.a``.
    """

    letter: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (HISTORY, PROPHECY):
            raise PreconditionViolated(f"bad clock kind: {self.kind!r}")

    @staticmethod
    def history(letter: str) -> "Clock":
        return Clock(letter, HISTORY)

    @staticmethod
    def prophecy(letter: str) -> "Clock":
        return Clock(letter, PROPHECY)

    @property
    def is_history(self) -> bool:
        return self.kind == HISTORY

    @property
    def is_prophecy(self) -> bool:
        return self.kind == PROPHECY

    def opposite(self) -> "Clock":
        """The other clock of the same letter."""
        return Clock(self.letter, PROPHECY if self.is_history else HISTORY)

    def __str__(self) -> str:
        return ("h." if self.is_history else "p.") + self.letter

    def __repr__(self) -> str:
        return f"Clock({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "Clock":
        """Parse ``h.a`` or ``p.a``."""
        if text.startswith("h.") and len(text) > 2:
            return Clock.history(text[2:])
        if text.startswith("p.") and len(text) > 2:
            return Clock.prophecy(text[2:])
        raise ParseError(
            f"bad clock syntax: {text!r} (expected h.<letter> or p.<letter>)"
        )


#: A letter is a name that a guard can write after ``h.`` or ``p.``.
_LETTER = r"[A-Za-z_][A-Za-z0-9_]*"


@dataclass(frozen=True)
class Alphabet:
    """A finite, ordered, duplicate free set of letters.

    The letter order is part of the value: it fixes the canonical clock
    order (history clocks first, then prophecy clocks, each in letter
    order) used for matrix indexing and for printing.  Each letter is a
    string of ASCII letters, digits and underscores that does not start
    with a digit.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if not letters:
            raise PreconditionViolated("alphabet must not be empty")
        for letter in letters:
            if not (isinstance(letter, str) and re.fullmatch(_LETTER, letter)):
                raise PreconditionViolated(f"bad letter {letter!r}")
        if len(set(letters)) != len(letters):
            raise PreconditionViolated(f"duplicate letters in {letters!r}")
        object.__setattr__(self, "letters", letters)

    @cached_property
    def clocks(self) -> tuple[Clock, ...]:
        """All clocks, in canonical order."""
        return tuple(Clock.history(a) for a in self.letters) + tuple(
            Clock.prophecy(a) for a in self.letters
        )

    @cached_property
    def clock_index(self) -> Mapping[Clock, int]:
        return {x: i for i, x in enumerate(self.clocks)}

    def index_of(self, clock: Clock) -> int:
        try:
            return self.clock_index[clock]
        except KeyError:
            raise UnknownClock(f"clock {clock} not over alphabet {self.letters}")

    def require_letter(self, letter: str) -> None:
        if letter not in self.letters:
            raise UnknownLetter(f"letter {letter!r} not in alphabet {self.letters}")


#: The digits of a guard constant, and of every other integer read from text.
_DIGITS = "[0-9]+"
_INTEGER_RE = re.compile("-?" + _DIGITS)


def parse_integer(text: str) -> int:
    """An integer written as an optional ``-`` and then ASCII digits, as in
    a guard constant.  Any other text, with other Unicode digits, ``_``,
    ``+`` or spaces, or past the interpreter's limit on digits, raises
    PreconditionViolated."""
    if isinstance(text, str) and _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # too many digits
            pass
    raise PreconditionViolated(f"not an integer in ASCII digits: {text!r}")


def require_natural(name: str, value: object) -> None:
    """Reject anything but a natural number: a plain ``int`` (so not a
    ``bool``) that is at least 0.  The abstraction constant, guard
    constants, search fuel and word-length bounds all pass through here."""
    if type(value) is not int or value < 0:
        raise PreconditionViolated(f"{name} must be a natural number, got {value!r}")


def _fmt_value(val: Optional[Fraction]) -> str:
    return "bot" if val is None else str(val)


@dataclass(frozen=True)
class Valuation:
    """A total assignment of every clock of an alphabet to a value or bot.

    Values are nonnegative exact rationals; ``None`` encodes bot.  The
    ``values`` tuple is aligned with ``alphabet.clocks``, and each other
    value passes through :func:`as_fraction`, so a ``float`` or ``bool``
    raises TypeError.  Valuations are immutable; updates return fresh
    objects.
    """

    alphabet: Alphabet
    values: tuple[Optional[Fraction], ...]

    def __post_init__(self) -> None:
        vals = tuple(None if val is None else as_fraction(val) for val in self.values)
        if len(vals) != len(self.alphabet.clocks):
            raise ClockMismatch(
                f"expected {len(self.alphabet.clocks)} values, got {len(vals)}"
            )
        for x, val in zip(self.alphabet.clocks, vals):
            if val is not None and val < 0:
                raise PreconditionViolated(f"negative value {val} for clock {x}")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def _of(alphabet: Alphabet, values: tuple) -> "Valuation":
        """The valuation of ``values``, a tuple of None and nonnegative
        Fractions of the right length, taken unchecked."""
        v = object.__new__(Valuation)
        object.__setattr__(v, "alphabet", alphabet)
        object.__setattr__(v, "values", values)
        return v

    @staticmethod
    def undefined(alphabet: Alphabet) -> "Valuation":
        """The all-bot valuation, which is both initial and final."""
        return Valuation(alphabet, (None,) * len(alphabet.clocks))

    @staticmethod
    def of(
        alphabet: Alphabet,
        entries: Mapping[Union[Clock, str], Optional[Rational]],
    ) -> "Valuation":
        """Build from a partial mapping; unmentioned clocks are bot.

        Keys may be Clock objects or strings like ``"p.a"``.
        """
        vals: list[Optional[Rational]] = [None] * len(alphabet.clocks)
        for key, raw in entries.items():
            clock = Clock.parse(key) if isinstance(key, str) else key
            vals[alphabet.index_of(clock)] = raw
        return Valuation(alphabet, tuple(vals))

    def value(self, clock: Clock) -> Optional[Fraction]:
        return self.values[self.alphabet.index_of(clock)]

    def defined(self, clock: Clock) -> bool:
        return self.value(clock) is not None

    def signed(self, clock: Clock) -> Optional[Fraction]:
        """The signed reading: history unchanged, prophecy negated.

        Signed differences of same-kind clocks and signed sums across
        kinds do not change as time elapses, which is what lets a matrix
        of difference bounds represent sets of valuations.
        """
        val = self.value(clock)
        if val is None or clock.is_history:
            return val
        return -val

    def plmin(self) -> tuple[Optional[Fraction], ...]:
        """All signed values, in canonical clock order; bot is preserved."""
        return tuple(self.signed(x) for x in self.alphabet.clocks)

    def set(self, clock: Clock, value: Optional[Rational]) -> "Valuation":
        vals = list(self.values)
        vals[self.alphabet.index_of(clock)] = value
        return Valuation(self.alphabet, tuple(vals))

    def can_elapse(self, d: Rational) -> bool:
        """True iff every defined prophecy clock holds at least ``d``."""
        d = as_fraction(d)
        if d < 0:
            return False
        return all(
            val is None or x.is_history or val >= d
            for x, val in zip(self.alphabet.clocks, self.values)
        )

    def elapse(self, d: Rational) -> "Valuation":
        """Let ``d`` time units pass.

        History clocks gain ``d``, prophecy clocks lose ``d``, bot
        entries stay bot.  Raises PreconditionViolated when some defined
        prophecy clock holds less than ``d``.
        """
        d = as_fraction(d)
        if d < 0:
            raise PreconditionViolated(f"cannot elapse negative duration {d}")
        vals: list[Optional[Fraction]] = []
        for x, val in zip(self.alphabet.clocks, self.values):
            if val is None:
                vals.append(None)
            elif x.is_history:
                vals.append(val + d)
            elif val < d:
                raise PreconditionViolated(
                    f"elapse({d}) undefined: prophecy clock {x}={val} would drop below 0"
                )
            else:
                vals.append(val - d)
        return Valuation(self.alphabet, tuple(vals))

    def frac(self, clock: Clock) -> Fraction:
        """Time until this clock's value next reaches an integer.

        For a history clock with value u this is ceil(u) - u, for a
        prophecy clock u - floor(u); both lie in [0, 1).
        """
        val = self.value(clock)
        if val is None:
            raise UndefinedClock(f"fractional part of undefined clock {clock}")
        if clock.is_history:
            return math.ceil(val) - val
        return val - math.floor(val)

    def is_initial(self) -> bool:
        """True iff every history clock is bot (nothing has occurred yet)."""
        return all(
            val is None
            for x, val in zip(self.alphabet.clocks, self.values)
            if x.is_history
        )

    def is_final(self) -> bool:
        """True iff every prophecy clock is bot (nothing occurs anymore)."""
        return all(
            val is None
            for x, val in zip(self.alphabet.clocks, self.values)
            if x.is_prophecy
        )

    def satisfies(self, guard: "Guard") -> bool:
        return guard.satisfied_by(self)

    def __str__(self) -> str:
        parts = (
            f"{x}={_fmt_value(val)}"
            for x, val in zip(self.alphabet.clocks, self.values)
        )
        return "{" + ", ".join(parts) + "}"


class Guard:
    """A boolean combination of atomic clock constraints.

    Atoms compare one clock against a natural number with ``<``, ``=``,
    or ``>``.  An atom is false when its clock is bot; consequently the
    negation of an atom is satisfied by bot.
    """

    def satisfied_by(self, v: Valuation) -> bool:
        raise NotImplementedError

    def atoms(self) -> Iterator["Atom"]:
        """The atomic comparisons, left to right, repeats included."""
        raise NotImplementedError

    def clocks(self) -> frozenset[Clock]:
        return frozenset(a.clock for a in self.atoms())

    def max_constant(self) -> int:
        """The largest constant compared against; 0 when there is none."""
        return max((a.bound for a in self.atoms()), default=0)

    @cached_property
    def _compiled(self) -> dict:
        """The walks :func:`ecta.edbm.guard_zones` compiles, by alphabet."""
        return {}

    def __str__(self) -> str:
        return format_guard(self)


@dataclass(frozen=True)
class TrueGuard(Guard):
    def satisfied_by(self, v: Valuation) -> bool:
        return True

    def atoms(self) -> Iterator["Atom"]:
        return iter(())


TRUE = TrueGuard()


@dataclass(frozen=True)
class Atom(Guard):
    clock: Clock
    op: str
    bound: int

    def __post_init__(self) -> None:
        if self.op not in ("<", "=", ">"):
            raise PreconditionViolated(f"bad comparison operator {self.op!r}")
        require_natural("guard constant", self.bound)

    def satisfied_by(self, v: Valuation) -> bool:
        val = v.value(self.clock)
        if val is None:
            return False
        if self.op == "<":
            return val < self.bound
        if self.op == "=":
            return val == self.bound
        return val > self.bound

    def atoms(self) -> Iterator["Atom"]:
        yield self


@dataclass(frozen=True)
class Not(Guard):
    inner: Guard

    def satisfied_by(self, v: Valuation) -> bool:
        return not self.inner.satisfied_by(v)

    def atoms(self) -> Iterator["Atom"]:
        return self.inner.atoms()


@dataclass(frozen=True)
class And(Guard):
    left: Guard
    right: Guard

    def satisfied_by(self, v: Valuation) -> bool:
        return self.left.satisfied_by(v) and self.right.satisfied_by(v)

    def atoms(self) -> Iterator["Atom"]:
        yield from self.left.atoms()
        yield from self.right.atoms()


@dataclass(frozen=True)
class Or(Guard):
    left: Guard
    right: Guard

    def satisfied_by(self, v: Valuation) -> bool:
        return self.left.satisfied_by(v) or self.right.satisfied_by(v)

    def atoms(self) -> Iterator["Atom"]:
        yield from self.left.atoms()
        yield from self.right.atoms()


_TOKEN_RE = re.compile(
    r"(?P<and>&&)|(?P<or>\|\|)|(?P<not>!)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<op>[<=>])|(?P<clock>[hp]\." + _LETTER + ")"
    r"|(?P<true>true\b)|(?P<nat>" + _DIGITS + ")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad guard syntax near {text[pos:pos + 12]!r}")
        tokens.append((m.lastgroup or "", m.group()))
        pos = m.end()
    return tokens


#: The most ``!``, ``&&`` and ``||`` above any atom of a guard, and the
#: most parentheses open at once; later stages recurse over the tree.
MAX_GUARD_DEPTH = 100


class _GuardParser:
    """Recursive descent over: disjunction > conjunction > unary.  Each
    method returns the guard and its depth, the ``!``, ``&&`` and ``||``
    on its deepest path.  ``!`` runs are read in a loop, so only
    parentheses recurse, and ``opened`` counts those open."""

    def __init__(self, tokens: list[tuple[str, str]], alphabet: Optional[Alphabet]):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.opened = 0

    def _peek(self) -> tuple[str, str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("", "")

    @staticmethod
    def _nest(depth: int) -> int:
        if depth > MAX_GUARD_DEPTH:
            raise ParseError(f"guard nested deeper than {MAX_GUARD_DEPTH} levels")
        return depth

    def parse(self) -> Guard:
        g, _ = self._disjunction()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing guard input at {self.tokens[self.pos][1]!r}")
        return g

    def _disjunction(self) -> tuple[Guard, int]:
        return self._chain("or", Or, self._conjunction)

    def _conjunction(self) -> tuple[Guard, int]:
        return self._chain("and", And, self._unary)

    def _chain(self, kind: str, node: type, operand: Callable) -> tuple[Guard, int]:
        g, depth = operand()
        while self._peek()[0] == kind:
            self.pos += 1
            right, right_depth = operand()
            g, depth = node(g, right), self._nest(max(depth, right_depth) + 1)
        return g, depth

    def _unary(self) -> tuple[Guard, int]:
        nots = 0
        while self._peek()[0] == "not":
            self.pos += 1
            nots += 1
        g, depth = self._primary()
        for _ in range(nots):
            g = Not(g)
        return g, self._nest(depth + nots)

    def _primary(self) -> tuple[Guard, int]:
        kind, text = self._peek()
        if kind == "lpar":
            self.pos += 1
            self.opened = self._nest(self.opened + 1)
            inner = self._disjunction()
            if self._peek()[0] != "rpar":
                raise ParseError("expected ')' in guard")
            self.pos += 1
            self.opened -= 1
            return inner
        if kind == "true":
            self.pos += 1
            return TRUE, 0
        if kind == "clock":
            self.pos += 1
            clock = Clock.parse(text)
            if self.alphabet is not None:
                self.alphabet.require_letter(clock.letter)
            opk, opt = self._peek()
            if opk != "op":
                raise ParseError(f"expected <, =, or > after {text}")
            self.pos += 1
            natk, natt = self._peek()
            if natk != "nat":
                raise ParseError(f"expected a natural number after {text} {opt}")
            self.pos += 1
            try:
                bound = int(natt)
            except ValueError as exc:
                raise ParseError(f"constant after {text} {opt} is too long: {exc}") from exc
            return Atom(clock, opt, bound), 0
        if kind:
            raise ParseError(f"unexpected token {text!r} in guard")
        raise ParseError("unexpected end of guard")


def parse_guard(text: str, alphabet: Optional[Alphabet] = None) -> Guard:
    """Parse the concrete guard syntax.

    Atoms are written ``h.a < 3``, ``p.b = 1``, ``h.a > 0``; formulas
    combine them with ``!``, ``&&``, ``||``, parentheses, and the
    literal ``true``.  When an alphabet is given, clock letters are
    checked against it.  A guard nested deeper than MAX_GUARD_DEPTH
    raises ParseError.
    """
    return _GuardParser(_tokenize(text), alphabet).parse()


def format_guard(g: Guard) -> str:
    """Render a guard so that parse_guard(format_guard(g)) == g."""

    def fmt(g: Guard, level: int) -> str:
        if isinstance(g, TrueGuard):
            return "true"
        if isinstance(g, Atom):
            return f"{g.clock} {g.op} {g.bound}"
        if isinstance(g, Not):
            if isinstance(g.inner, (TrueGuard, Not)):
                return "!" + fmt(g.inner, 3)
            return "!(" + fmt(g.inner, 0) + ")"
        if isinstance(g, And):
            s = f"{fmt(g.left, 2)} && {fmt(g.right, 3)}"
            return f"({s})" if level > 2 else s
        if isinstance(g, Or):
            s = f"{fmt(g.left, 1)} || {fmt(g.right, 2)}"
            return f"({s})" if level > 1 else s
        raise TypeError(f"not a guard: {g!r}")

    return fmt(g, 0)


def weak_successor_contains(
    v: Valuation, t: Rational, v2: Valuation, cmax: int
) -> bool:
    """Membership test for the weak time successors of ``v`` after ``t``.

    A weak successor behaves like exact elapse except on prophecy clocks
    currently above ``cmax``: such a clock may move to any value strictly
    greater than ``cmax - t`` instead of exactly losing ``t``.  Returns
    True iff ``v2`` is reachable from ``v`` this way.
    """
    require_natural("cmax", cmax)
    if v.alphabet != v2.alphabet:
        raise ClockMismatch("weak successor test across different alphabets")
    t = as_fraction(t)
    if t < 0:
        return False
    for x, val, val2 in zip(v.alphabet.clocks, v.values, v2.values):
        if x.is_prophecy and val is not None and val > cmax:
            if val2 is None or val2 <= cmax - t:
                return False
        elif val is None:
            if val2 is not None:
                return False
        elif x.is_history:
            if val2 != val + t:
                return False
        else:
            if val < t or val2 != val - t:
                return False
    return True
