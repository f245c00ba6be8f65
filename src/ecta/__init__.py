"""Automata over event clocks: exact semantics and symbolic analysis.

Each letter of the alphabet carries two clocks.  The history clock of a
letter shows the time since that letter last occurred, and the prophecy
clock shows the time until it next occurs; either is undefined when
there is no such occurrence.  Because the clocks are determined by the
word being read, membership is decidable directly, and emptiness can be
decided through a finite region abstraction or semi-decided through
difference-bound zones in signed form.

The public surface:

- :mod:`ecta.core`: clocks, valuations, guards, the guard parser.
- :mod:`ecta.edbm`: difference-bound matrices extended with undefined
  values, and their operations.
- :mod:`ecta.automaton`: automata, timed words, concrete membership.
- :mod:`ecta.regions`: region equivalences, witnesses for abstract
  time elapse.
- :mod:`ecta.region_automaton`: finite abstractions and their
  languages.
- :mod:`ecta.analysis`: forward and backward zone reachability.
- :mod:`ecta.cli`: the ``ecta`` command.
"""

from .core import (
    Alphabet,
    Atom,
    And,
    Clock,
    ClockMismatch,
    CmaxTooSmall,
    EctaError,
    EmptyZone,
    Guard,
    Not,
    NotFound,
    Or,
    ParseError,
    PreconditionViolated,
    ProphecyNotZero,
    TRUE,
    TooManyStates,
    TrueGuard,
    UndefinedClock,
    UnknownClock,
    UnknownLetter,
    Unsupported,
    Valuation,
    as_fraction,
    format_guard,
    parse_guard,
    weak_successor_contains,
)
from .edbm import (
    ANY,
    BOT,
    Cells,
    Edbm,
    guard_to_zones,
    subtract_all,
    zone_from_constraints,
)
from .automaton import (
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
from .regions import (
    CLASSIC,
    REFINED,
    Region,
    decompose,
    equivalent,
    region_of,
    region_to_zone,
    weak_successor_witness,
)
from .region_automaton import (
    EXISTS,
    FORALL,
    RegionAutomaton,
    build,
    language_empty,
    ra_accepts,
    ra_bounded_language,
    state_count_bound,
)
from .analysis import (
    EMPTY,
    NON_EMPTY,
    UNKNOWN,
    AnalysisResult,
    SymbolicState,
    back_exact,
    bounded_untimed_language,
    final_zone,
    forw_exact,
    initial_zone,
    mirror,
    post_edge,
    pre_edge,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "And",
    "AnalysisResult",
    "ANY",
    "Atom",
    "BOT",
    "Cells",
    "CLASSIC",
    "Clock",
    "ClockMismatch",
    "CmaxTooSmall",
    "Ecta",
    "EctaError",
    "Edbm",
    "Edge",
    "EMPTY",
    "EmptyZone",
    "EXISTS",
    "ExtendedState",
    "FORALL",
    "Guard",
    "NON_EMPTY",
    "Not",
    "NotFound",
    "Or",
    "ParseError",
    "PreconditionViolated",
    "ProphecyNotZero",
    "REFINED",
    "Region",
    "RegionAutomaton",
    "SymbolicState",
    "TimedWord",
    "TooManyStates",
    "TRUE",
    "TrueGuard",
    "UndefinedClock",
    "UNKNOWN",
    "UnknownClock",
    "UnknownLetter",
    "Unsupported",
    "Valuation",
    "accepts",
    "as_fraction",
    "back_exact",
    "bounded_untimed_language",
    "build",
    "builtin_examples",
    "decompose",
    "determined_valuation",
    "discrete_step",
    "equivalent",
    "final_zone",
    "format_ecta",
    "format_guard",
    "forw_exact",
    "get_example",
    "guard_to_zones",
    "initial_zone",
    "language_empty",
    "mirror",
    "parse_ecta",
    "parse_guard",
    "post_edge",
    "pre_edge",
    "ra_accepts",
    "ra_bounded_language",
    "region_of",
    "region_to_zone",
    "state_count_bound",
    "subtract_all",
    "weak_successor_contains",
    "weak_successor_witness",
    "zone_from_constraints",
]
