"""Command line front end.

Subcommands:

``check``
    Decide untimed-language emptiness of an automaton, by the finite
    region abstraction or by the forward or backward zone search.
``untime``
    Build a region abstraction and print it as JSON or Graphviz.
``member``
    Test whether a timed word is accepted.
``bounded-lang``
    Enumerate the untimed words of bounded length that are accepted.
``demo``
    Run one of the built-in example analyses and report what the
    implementation observes against the documented expectation.

Exit status is 0 when the requested computation completed, even with an
``unknown`` verdict: a zone search out of ``--fuel``, or a region build
past ``--max-states``.  It is 2 on malformed input, such as a number not
in ASCII digits, or unsatisfiable options, and 1, silently, when
standard output closes early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .core import (
    Clock, EctaError, ParseError, PreconditionViolated, TooManyStates, Valuation, parse_integer,
)
from .automaton import (
    Ecta, TimedWord, accepts, builtin_examples, format_ecta, get_example, parse_ecta,
)
from .analysis import (
    EMPTY,
    NON_EMPTY,
    UNKNOWN,
    SymbolicState,
    back_exact,
    bounded_untimed_language,
    final_zone,
    forw_exact,
    mirror,
    pre_edge,
)
from .edbm import Edbm, atom_cells, difference_cells, zone_from_constraints
from .regions import CLASSIC, REFINED, equivalent
from . import region_automaton as ra
from .region_automaton import EXISTS, FORALL, build


def _integer(text: str) -> int:
    """An option's integer, in ASCII digits; a bad one is a usage error."""
    try:
        return parse_integer(text)
    except PreconditionViolated as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_input_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "automaton",
        help="path to an automaton in JSON form, or the name of a "
        "built-in example (ainf, backdiv, nofinite)",
    )


def _add_region_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cmax",
        type=_integer,
        default=None,
        help="region granularity; defaults to the value stored in the "
        "input file, else to the largest guard constant",
    )
    variant = p.add_mutually_exclusive_group()
    variant.add_argument(
        "--classic",
        dest="variant",
        action="store_const",
        const=CLASSIC,
        help="use the coarser equivalence (default)",
    )
    variant.add_argument(
        "--refined",
        dest="variant",
        action="store_const",
        const=REFINED,
        help="use the finer equivalence that also tracks differences "
        "involving large values",
    )
    p.set_defaults(variant=CLASSIC)
    quant = p.add_mutually_exclusive_group()
    quant.add_argument(
        "--exists",
        dest="quantifier",
        action="store_const",
        const=EXISTS,
        help="edge when some valuation of the source region can step "
        "(default; exact for emptiness)",
    )
    quant.add_argument(
        "--forall",
        dest="quantifier",
        action="store_const",
        const=FORALL,
        help="edge only when every valuation of the source region can "
        "step (under-approximates the language)",
    )
    p.set_defaults(quantifier=EXISTS)


def _load(name_or_path: str) -> tuple[Ecta, Optional[int]]:
    if name_or_path in builtin_examples():
        return get_example(name_or_path), None
    with open(name_or_path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"bad automaton file: {exc}") from exc
    return parse_ecta(text)


def _resolve_cmax(A: Ecta, file_cmax: Optional[int], flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    if file_cmax is not None:
        return file_cmax
    return A.max_constant()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    A, file_cmax = _load(args.automaton)
    payload: dict = {"method": args.method}
    if args.method == "region":
        cmax = _resolve_cmax(A, file_cmax, args.cmax)
        try:
            R = build(A, cmax, args.quantifier, args.variant, args.max_states)
            verdict = EMPTY if ra.language_empty(R) else NON_EMPTY
            states = len(R.states)
        except TooManyStates as exc:
            verdict, states = UNKNOWN, exc.states
        payload.update(
            verdict=verdict,
            cmax=cmax,
            variant=args.variant,
            quantifier=args.quantifier,
            states=states,
        )
        if args.max_states is not None:
            payload["max_states"] = args.max_states
    else:
        run = forw_exact if args.method == "forward" else back_exact
        result = run(A, fuel=args.fuel, literal_accept=args.literal_accept)
        verdict = result.verdict
        payload.update(verdict=verdict, steps=result.steps_used, fuel=args.fuel)
        if result.witness is not None:
            payload["witness"] = [
                {"location": s.location, "zone": s.zone.brief()}
                for s in result.witness
            ]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(verdict)
    return 0


def _cmd_untime(args: argparse.Namespace) -> int:
    A, file_cmax = _load(args.automaton)
    cmax = _resolve_cmax(A, file_cmax, args.cmax)
    R = build(A, cmax, quantifier=args.quantifier, variant=args.variant)
    if args.dot:
        _emit(ra.to_dot(R), args.output)
    else:
        _emit(json.dumps(ra.to_json_dict(R), indent=2), args.output)
    return 0


def _parse_word(text: str) -> TimedWord:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise EctaError(f"word is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise EctaError("word must be a JSON list of [letter, time] pairs")
    try:
        return TimedWord.of(raw)
    except TypeError as exc:
        raise EctaError(
            f"bad event ({exc}): each event must be a [letter, time] pair "
            'with the time an integer or a string such as "3/2"'
        ) from exc


def _cmd_member(args: argparse.Namespace) -> int:
    A, _ = _load(args.automaton)
    word = _parse_word(args.word)
    verdict = accepts(A, word)
    if args.json:
        print(json.dumps({"word": str(word), "accepted": verdict}))
    else:
        print("accepted" if verdict else "rejected")
    return 0


def _cmd_bounded_lang(args: argparse.Namespace) -> int:
    A, _ = _load(args.automaton)
    words = sorted(bounded_untimed_language(A, args.length))
    if args.json:
        print(json.dumps({"length": args.length, "words": ["".join(w) for w in words]}))
    else:
        for w in words:
            print("".join(w) if w else "(empty word)")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    A, file_cmax = _load(args.automaton)
    _emit(format_ecta(A, cmax=file_cmax), args.output)
    return 0


def _demo_line(label: str, expected: str, observed: str) -> bool:
    ok = expected == observed
    tag = "pass" if ok else "FAIL"
    print(f"[{tag}] {label}: expected {expected}, observed {observed}")
    return ok


def _backdiv_pre_images(A: Ecta, depth: int) -> None:
    """Walk the a-loop of backdiv backward from its closing edge and check
    that the n-th pre-image entails p.b >= n and p.b + h.a >= n + 1."""
    ab = A.alphabet
    ha = ab.index_of(Clock.history("a")) + 1
    pb = ab.index_of(Clock.prophecy("b")) + 1
    loop, close = A.edges_from("q1", "a")
    (b_loop,) = A.edges_from("q2", "b")
    (zone,) = pre_edge(ab, b_loop, final_zone(ab))
    (zone,) = pre_edge(ab, close, zone)
    print(f"  before the closing edge: {zone.brief()}")
    entailed = 0
    for n in range(1, depth + 1):
        (zone,) = pre_edge(ab, loop, zone)
        bounds = atom_cells(ab, pb, ">=", n) + difference_cells(ha, pb, ">=", n + 1)
        holds = Edbm.unconstrained(ab).with_cells(bounds).includes(zone)
        entailed += holds
        print(
            f"  after {n} loop pre-image(s): {zone.brief()}  "
            f"[p.b >= {n} and p.b + h.a >= {n + 1}: {'holds' if holds else 'FAILS'}]"
        )
    _demo_line(
        "  loop pre-images entail their growing bounds",
        f"{depth}/{depth}",
        f"{entailed}/{depth}",
    )


def _divergence_searches(search, A: Ecta, ainf: Ecta, direction: str) -> None:
    """Run ``search`` on a divergence example, where it stops at the first
    zone that meets the goal, and on ``ainf`` with literal acceptance,
    where a zone must lie inside the goal and the fuel runs out."""
    result = search(A, fuel=50)
    _demo_line(f"  {direction} search within 50 steps", NON_EMPTY, result.verdict)
    print(
        f"  (a zone meets the goal after {result.steps_used} steps: an accepting"
        " prefix; see acceptance criterion 6)"
    )
    literal = search(ainf, fuel=50, literal_accept=True)
    _demo_line(
        f"  {direction} search on ainf with literal acceptance",
        f"{UNKNOWN} after 50 steps",
        f"{literal.verdict} after {literal.steps_used} steps",
    )


def _untimed_futures(A: Ecta, last: int) -> None:
    """Criterion 10 on nofinite: the states (q0, v_k), k = 1..last, have
    pairwise distinct untimed futures, each word confirmed by an accepted
    timed word, and yet regions merge every v_k past a bound."""
    ab, ks = A.alphabet, range(1, last + 1)
    v = {k: Valuation.of(ab, {"h.b": 0, "p.a": k, "p.b": 1}) for k in ks}
    right, futures, confirmed = 0, set(), 0
    for k in ks:
        atoms = [(Clock.parse(c), "=", n) for c, n in (("h.b", 0), ("p.a", k), ("p.b", 1))]
        point = zone_from_constraints(ab, atoms, [Clock.history("a")])
        future = bounded_untimed_language(A, last + 2, SymbolicState("q0", point))
        right += future == {("b",) * j + ("a",) for j in range(1, k + 1)}
        futures.add(frozenset(future))
        timed = (TimedWord.of([["b", t] for t in range(j + 1)] + [["a", k]]) for j in range(1, k + 1))
        confirmed += sum(accepts(A, w) for w in timed)
    words = last * (last + 1) // 2
    _demo_line("  futures of (q0, v_k) are b^j a, 1 <= j <= k", f"{last}/{last}", f"{right}/{last}")
    _demo_line("  distinct untimed futures", str(last), str(len(futures)))
    _demo_line("  words confirmed by accepted timed words", f"{words}/{words}", f"{confirmed}/{words}")
    for cmax in (1, 2, 3):
        for variant, least in ((CLASSIC, cmax + 1), (REFINED, 2 * cmax + 2)):
            merged = [k for k in ks if equivalent(v[k], v[last], cmax, variant)]
            observed = f"k >= {merged[0]}" if merged == list(range(merged[0], last + 1)) else str(merged)
            _demo_line(f"  {variant} regions at cmax {cmax} merge v_{last} with", f"k >= {least}", observed)


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name == "ainf":
        A = get_example("ainf")
        print("Automaton with an unbounded-counting untimed language:")
        print("the finite abstractions stay within their size bound, and the")
        print("universal abstraction misses words the automaton accepts.")
        bound = ra.state_count_bound(A, 2)
        for variant in (CLASSIC, REFINED):
            Re = build(A, 2, quantifier=EXISTS, variant=variant)
            Rf = build(A, 2, quantifier=FORALL, variant=variant)
            print(
                f"  {variant}: exists-states={len(Re.states)} "
                f"forall-states={len(Rf.states)} bound={bound}"
            )
            missed = None
            for n in range(0, 6):
                word = ("b",) * n + ("a",)
                timed = TimedWord.of(
                    [[letter, i] for i, letter in enumerate(word)]
                )
                if accepts(A, timed) and not ra.ra_accepts(Rf, word):
                    missed = "".join(word)
                    break
            if missed:
                print(f"    (first missed word: {missed})")
            _demo_line(
                f"  {variant} universal abstraction misses an accepted word",
                "a miss",
                "a miss" if missed else "no miss",
            )
        return 0
    if args.name == "backdiv":
        A = get_example("backdiv")
        print("Automaton built to make the backward zone search diverge:")
        print("its pre-images grow a fresh constraint at every unrolling, so")
        print("no finite set of zones is closed under predecessors.")
        _backdiv_pre_images(A, depth=6)
        _divergence_searches(back_exact, A, get_example("ainf"), "backward")
        return 0
    if args.name == "forwdiv":
        A = mirror(get_example("backdiv"))
        print("Mirrored backdiv, for the forward zone search:")
        _divergence_searches(forw_exact, A, mirror(get_example("ainf")), "forward")
        return 0
    if args.name == "nofinite":
        print("No finite equivalence on valuations preserves untimed futures:")
        print("the states (q0, v_k) with h.b = 0, p.b = 1 and p.a = k differ,")
        print("yet regions merge them; the region automaton stays exact for")
        print("untimed languages (acceptance criterion 3).")
        _untimed_futures(get_example("nofinite"), last=10)
        return 0
    raise EctaError(f"unknown demo {args.name!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecta",
        description="analyze automata whose clocks record and predict "
        "event times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide untimed-language emptiness")
    _add_input_arg(p_check)
    p_check.add_argument(
        "--method",
        choices=("region", "forward", "backward"),
        default="region",
        help="region abstraction (always terminates) or a zone search "
        "(exact but may run out of fuel)",
    )
    p_check.add_argument(
        "--fuel",
        type=_integer,
        default=10000,
        help="step budget for the zone searches",
    )
    p_check.add_argument(
        "--max-states",
        type=_integer,
        default=None,
        help="state budget for the region method; a build that needs more "
        "ends in unknown",
    )
    p_check.add_argument(
        "--literal-accept",
        action="store_true",
        help="accept only when a reached zone is contained in the goal "
        "zone, not merely overlapping it; a search that exhausts its "
        "worklist still accepts an overlap",
    )
    _add_region_args(p_check)
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=_cmd_check)

    p_untime = sub.add_parser(
        "untime", help="build and print a region abstraction"
    )
    _add_input_arg(p_untime)
    _add_region_args(p_untime)
    p_untime.add_argument(
        "--dot", action="store_true", help="emit Graphviz instead of JSON"
    )
    p_untime.add_argument("-o", "--output", default=None, help="write to a file")
    p_untime.set_defaults(func=_cmd_untime)

    p_member = sub.add_parser("member", help="test timed-word membership")
    _add_input_arg(p_member)
    p_member.add_argument(
        "word",
        help='timed word as JSON, e.g. \'[["b", 0], ["a", "3/2"]]\'',
    )
    p_member.add_argument("--json", action="store_true", help="machine-readable output")
    p_member.set_defaults(func=_cmd_member)

    p_blang = sub.add_parser(
        "bounded-lang", help="list accepted untimed words up to a length"
    )
    _add_input_arg(p_blang)
    p_blang.add_argument("-k", "--length", type=_integer, required=True)
    p_blang.add_argument("--json", action="store_true", help="machine-readable output")
    p_blang.set_defaults(func=_cmd_bounded_lang)

    p_show = sub.add_parser(
        "show", help="print an automaton (e.g. a built-in example) as JSON"
    )
    _add_input_arg(p_show)
    p_show.add_argument("-o", "--output", default=None, help="write to a file")
    p_show.set_defaults(func=_cmd_show)

    p_demo = sub.add_parser("demo", help="run a built-in demonstration")
    p_demo.add_argument("name", choices=("ainf", "backdiv", "forwdiv", "nofinite"))
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the Python docs' recipe: stdout to devnull, so the flush at exit cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (EctaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
