"""End-to-end acceptance checks for the package.

Each test covers one numbered criterion, prints exactly one
``[PASS]``/``[FAIL]`` line with a short account of what was measured,
and then asserts the criterion as stated.  Run with output visible:

    pytest tests/test_acceptance.py -s

Four criteria also carry the evidence for what they assert:

* Criterion 1 asserts the tight normal form of the worked example, which
  ``Edbm.from_tokens`` stores for its rows.  The form documented for it
  denotes the same zone but is looser in six cells; the test checks that
  it enters as the tight form, equal and with an equal hash, that the
  tight form is a fixed point of ``normalize``, and that both matrices
  as entered and the normal form hold the same valuations.
* Criterion 2 includes the time operations on zones with completely
  free clocks, whose time successors are a union of zones; ``future``
  and ``past`` return its disjoint pieces exactly.
* Criterion 6 checks divergence where the searches diverge: on backdiv
  the raw pre-image iteration keeps tightening while both searches
  stop early with a ``non_empty`` that the region method and two
  accepted timed words confirm; with literal acceptance on ainf both
  searches run out of fuel.
* Criterion 10 is the paper's first theorem, that no finite equivalence
  on valuations preserves the untimed future of every state: ten states
  with pairwise distinct untimed languages, each word confirmed by an
  accepted timed word, which classic and refined regions merge all the
  same.  So regions are no time-abstract bisimulation, though the
  region automaton is exact for untimed languages (criterion 3).
"""

import random
import time
from fractions import Fraction
from itertools import product

import oracles
from ecta.core import (
    Alphabet,
    Clock,
    Valuation,
    weak_successor_contains,
)
from ecta.edbm import Edbm, zone_from_constraints
from ecta.automaton import TimedWord, accepts, get_example, parse_ecta
from ecta.regions import (
    CLASSIC,
    REFINED,
    equivalent,
    weak_successor_witness,
)
from ecta.region_automaton import (
    EXISTS,
    FORALL,
    build,
    language_empty,
    ra_accepts,
    ra_bounded_language,
    state_count_bound,
)
from ecta.analysis import (
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

AB = Alphabet(("a", "b"))
H_A = Clock.history("a")
H_B = Clock.history("b")
P_A = Clock.prophecy("a")
P_B = Clock.prophecy("b")

# Existential abstractions built by earlier criteria, re-checked against
# the size bound by criterion 8.
_BUILT: list[tuple[str, object, int, object]] = []


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


# The worked normalization example: the matrix as entered, the normal
# form the library computes for it, and the form documented for it.
# The documented form denotes the same zone but leaves six cells looser
# than the shortest-path closure, so it is not canonical: it breaks the
# triangle inequality at (0, 4), since (0, 2) + (2, 4) gives <=2, and it
# normalizes to the tight form below.  Each tight cell is implied by
# the input (x_0 = 0, x_1 = h.a, x_2 = h.b, x_4 = p.b, signed as -p.b):
#   (0, 1) <0   h.a > 0, since h.a > h.b >= 0
#   (0, 4) <=2  p.b <= 2, since p.b <= 2 - h.b
#   (1, 0) <3   h.a < 3, since h.a < h.b + 1 <= 3
#   (1, 4) <3   h.a + p.b < 3
#   (2, 0) <=2  h.b <= 2
#   (4, 1) <0   h.a + p.b > 0, since h.a > 0
# Only the tight form makes inclusion, the cellwise order on normal
# forms, agree with set inclusion.
NORMALIZE_INPUT = [
    ["<=0", "?", "?", "bot", "?"],
    ["?", "<=0", "<1", "?", "?"],
    ["?", "<0", "<=0", "?", "<=2"],
    ["bot", "?", "?", "?", "?"],
    ["<=0", "?", "?", "?", "<=0"],
]
NORMALIZE_EXPECTED = [
    ["<=0", "<0", "<=0", "bot", "<=2"],
    ["<3", "<=0", "<1", "?", "<3"],
    ["<=2", "<0", "<=0", "?", "<=2"],
    ["bot", "?", "?", "?", "?"],
    ["<=0", "<0", "<=0", "?", "<=0"],
]
NORMALIZE_DOCUMENTED = [
    ["<=0", "<=0", "<=0", "bot", "<inf"],
    ["<inf", "<=0", "<1", "?", "<inf"],
    ["<inf", "<0", "<=0", "?", "<=2"],
    ["bot", "?", "?", "?", "?"],
    ["<=0", "<=0", "<=0", "?", "<=0"],
]


def test_criterion_1_worked_normalization_example():
    # the constructor closes the rows it is given; best of five, so that
    # one scheduler stall does not decide the timing
    elapsed = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        got = Edbm.from_tokens(AB, NORMALIZE_INPUT)
        elapsed = min(elapsed, time.perf_counter() - t0)
    tokens = got.to_tokens()
    diffs = [
        (i, j)
        for i in range(5)
        for j in range(5)
        if tokens[i][j] != NORMALIZE_EXPECTED[i][j]
    ]
    documented = Edbm.from_tokens(AB, NORMALIZE_DOCUMENTED)
    same_zone = documented == got and hash(documented) == hash(got)
    fixed_point = got.normalize().cells == got.cells
    # the input and the documented form as entered, read by the oracle,
    # and the normal form hold the same valuations
    entered = [oracles.Rows.from_tokens(AB, rows)
               for rows in (NORMALIZE_INPUT, NORMALIZE_DOCUMENTED)]
    rng = random.Random(1)
    points = oracles.grid_points(AB, rng, 200, top=3) + oracles.nudged_points(
        got, rng, 200, top=3
    )
    disagree = sum(
        len({oracles.in_zone(Z, v) for Z in (*entered, got)}) > 1
        for v in points
    )
    members = sum(oracles.in_zone(got, v) for v in points)
    ok = not diffs and same_zone and fixed_point and not disagree and elapsed < 0.001
    _line(
        1,
        ok,
        f"normalization in {elapsed * 1e6:.0f}us (best of 5); "
        f"{len(diffs)} of 25 cells differ from the tight normal form; "
        f"documented form enters as it: {same_zone}; fixed point: "
        f"{fixed_point}; {disagree} of {len(points)} points ({members} members) "
        f"disagree",
    )
    assert tokens == NORMALIZE_EXPECTED
    assert same_zone
    assert fixed_point
    assert members and not disagree
    assert elapsed < 0.001


def _criterion_zone(rng):
    zone = oracles.random_zone(AB, rng)
    while zone.is_empty() and rng.random() < 0.8:
        zone = oracles.random_zone(AB, rng)
    return zone


def test_criterion_2_zone_operations_against_their_definitions():
    rng = random.Random(20240817)
    ops = ("future", "past", "intersect", "release", "includes")
    fails = dict.fromkeys(ops, 0)
    checks = dict.fromkeys(ops, 0)
    total = 500
    prev = None
    t0 = time.perf_counter()
    for i in range(total):
        zone = _criterion_zone(rng)
        points = oracles.grid_points(AB, rng, 8) + oracles.nudged_points(
            zone, rng, 6
        )
        F = zone.future()
        P = zone.past()
        for v in points:
            checks["future"] += 1
            if any(p.contains(v) for p in F) != oracles.in_future(zone, v):
                fails["future"] += 1
            checks["past"] += 1
            if any(p.contains(v) for p in P) != oracles.in_past(zone, v):
                fails["past"] += 1
        clock = AB.clocks[i % 4]
        R = zone.release(clock)
        for v in points:
            checks["release"] += 1
            if R.contains(v) != oracles.in_release(zone, clock, v):
                fails["release"] += 1
        if prev is not None:
            both = points + oracles.nudged_points(prev, rng, 4)
            I = zone.intersect(prev)
            for v in both:
                checks["intersect"] += 1
                if I.contains(v) != (
                    oracles.in_zone(zone, v) and oracles.in_zone(prev, v)
                ):
                    fails["intersect"] += 1
            checks["includes"] += 1
            if zone.includes(prev):
                if any(
                    oracles.in_zone(prev, v) and not oracles.in_zone(zone, v)
                    for v in both
                ):
                    fails["includes"] += 1
            else:
                pieces = prev.subtract(zone)
                if not pieces:
                    fails["includes"] += 1
                else:
                    w = pieces[0].sample()
                    if not oracles.in_zone(prev, w) or oracles.in_zone(
                        zone, w
                    ):
                        fails["includes"] += 1
        prev = zone
    elapsed = time.perf_counter() - t0
    ok = all(n == 0 for n in fails.values()) and elapsed < 60
    summary = " ".join(f"{op}={fails[op]}/{checks[op]}" for op in ops)
    _line(
        2,
        ok,
        f"{total} zones in {elapsed:.1f}s; mismatches {summary}",
    )
    assert all(n == 0 for n in fails.values()), summary
    assert elapsed < 60


def _criterion_automata():
    autos = [("ainf", get_example("ainf"))]
    for seed in range(1, 9):
        rng = random.Random(seed)
        autos.append((f"rand{seed}", oracles.random_automaton(AB, rng)))
    return autos


def test_criterion_3_finite_abstraction_language_is_exact():
    t0 = time.perf_counter()
    autos = _criterion_automata()
    bad = []
    for label, A in autos:
        cmax = max(1, A.max_constant())
        exact = bounded_untimed_language(A, 6)
        words = [w for n in range(7) for w in product(A.alphabet.letters, repeat=n)]
        for variant in (CLASSIC, REFINED):
            R = build(A, cmax, EXISTS, variant)
            _BUILT.append((label, A, cmax, R))
            lang = ra_bounded_language(R, 6)
            if lang != exact:
                bad.append((label, variant))
            # both languages above come from analysis.bounded_words, so a
            # walk that drops words would agree with itself; ra_accepts
            # runs its own subset construction on each word
            if lang != {w for w in words if ra_accepts(R, w)}:
                bad.append((label, variant, "ra_accepts"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _line(
        3,
        ok,
        f"{len(autos)} automata x 2 variants, words up to length 6, "
        f"{elapsed:.1f}s; disagreements: {bad or 'none'}",
    )
    assert not bad
    assert elapsed < 60


def test_criterion_4_universal_abstraction_undershoots():
    A = get_example("ainf")
    t0 = time.perf_counter()
    missed = {}
    for variant in (CLASSIC, REFINED):
        R = build(A, 2, FORALL, variant)
        for n in range(0, 6):
            word = ("b",) * n + ("a",)
            timed = TimedWord.of([[x, i] for i, x in enumerate(word)])
            if accepts(A, timed) and not ra_accepts(R, word):
                missed[variant] = "".join(word)
                break
    elapsed = time.perf_counter() - t0
    ok = set(missed) == {CLASSIC, REFINED} and elapsed < 10
    _line(
        4,
        ok,
        f"accepted words missing from the universal abstraction: "
        f"classic={missed.get(CLASSIC)} refined={missed.get(REFINED)}, "
        f"{elapsed:.1f}s",
    )
    assert CLASSIC in missed
    assert REFINED in missed
    assert elapsed < 10


def test_criterion_5_pinned_start_forces_the_count():
    A = get_example("ainf")
    t0 = time.perf_counter()
    langs = []
    bad = []
    for n in range(1, 7):
        start = SymbolicState(
            "q0",
            zone_from_constraints(
                AB,
                atoms=[(P_A, "=", n), (P_B, "=", 0)],
                undefined=[H_A, H_B],
            ),
        )
        lang = bounded_untimed_language(A, 7, start)
        langs.append(frozenset(lang))
        if lang != {("b",) * n + ("a",)}:
            bad.append(n)
    elapsed = time.perf_counter() - t0
    distinct = len(set(langs)) == len(langs)
    ok = not bad and distinct and elapsed < 10
    _line(
        5,
        ok,
        f"start zones n=1..6 each give exactly the n-count word, "
        f"pairwise distinct={distinct}, {elapsed:.2f}s"
        + (f"; wrong for n={bad}" if bad else ""),
    )
    assert not bad
    assert distinct
    assert elapsed < 10


def test_criterion_6_divergence_examples():
    # The exact searches are semi-algorithms.  On backdiv the raw
    # pre-images of the a-loop keep tightening, yet both searches stop
    # early with a correct non_empty: the accepting layer meets the
    # goal after a few steps.  Where the search cannot stop early,
    # literal acceptance on ainf, it runs until the fuel is gone.
    A = get_example("backdiv")
    t0 = time.perf_counter()
    loop = A.edges_from("q1", "a")[0]
    close = A.edges_from("q1", "a")[1]
    b_loop = A.edges_from("q2", "b")[0]
    (at_q2,) = pre_edge(AB, b_loop, final_zone(AB))
    (zone,) = pre_edge(AB, close, at_q2)
    held = 0
    for n in range(1, 11):
        (zone,) = pre_edge(AB, loop, zone)
        target = Edbm.unconstrained(AB).with_cells(
            [(4, 0, (-n, False)), (4, 1, (-(n + 1), False))]
        )
        if target.includes(zone):
            held += 1
    backward = back_exact(A, fuel=50)
    forward = forw_exact(mirror(A), fuel=50)
    region_verdict = EMPTY if language_empty(build(A, 1)) else NON_EMPTY
    words = accepts(
        A, TimedWord.of([["a", 0], ["a", 1], ["b", 2]])
    ) and accepts(mirror(A), TimedWord.of([["b", 0], ["a", 1], ["a", 2]]))
    ainf = get_example("ainf")
    exhausted = [
        back_exact(ainf, fuel=50, literal_accept=True),
        forw_exact(mirror(ainf), fuel=50, literal_accept=True),
    ]
    elapsed = time.perf_counter() - t0
    diverged = all(r.verdict == UNKNOWN and r.steps_used == 50 for r in exhausted)
    ok = (
        held == 10
        and backward.verdict == forward.verdict == region_verdict == NON_EMPTY
        and words
        and diverged
        and elapsed < 10
    )
    _line(
        6,
        ok,
        f"backdiv loop pre-images entail their growing bounds {held}/10; "
        f"backdiv backward {backward.verdict} after {backward.steps_used} "
        f"steps, mirrored forward {forward.verdict} after "
        f"{forward.steps_used}, regions {region_verdict}, witness words "
        f"accepted {words}; literal-acceptance ainf searches "
        + ", ".join(f"{r.verdict} after {r.steps_used}" for r in exhausted)
        + f" of fuel 50, {elapsed:.2f}s",
    )
    assert held == 10
    assert backward.verdict == NON_EMPTY
    assert forward.verdict == NON_EMPTY
    assert region_verdict == NON_EMPTY
    assert words
    for r in exhausted:
        assert r.verdict == UNKNOWN
        assert r.steps_used == 50
    assert elapsed < 10


def test_criterion_7_time_elapse_transfers_across_equivalence():
    rng = random.Random(97)
    t0 = time.perf_counter()
    total = 200
    failures = 0
    for i in range(total):
        cmax = (1, 2, 3)[i % 3]
        v1 = oracles.random_valuation(AB, rng, cmax)
        v2 = oracles.region_mate(v1, rng, cmax)
        caps = [
            val
            for x, val in zip(AB.clocks, v1.values)
            if x.is_prophecy and val is not None
        ]
        t1 = min([Fraction(3)] + caps) * Fraction(rng.randint(0, 8), 8)
        t2, w = weak_successor_witness(v1, v2, t1, cmax)
        if not equivalent(v1.elapse(t1), w, cmax):
            failures += 1
        elif not weak_successor_contains(v2, t2, w, cmax):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30
    _line(
        7,
        ok,
        f"{total - failures}/{total} witnesses land in the elapsed "
        f"region and are weak successors, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 30


def test_criterion_8_abstraction_sizes_stay_under_the_bound(exists_build):
    t0 = time.perf_counter()
    checked = list(_BUILT)
    A = get_example("ainf")
    for cmax in (1, 2, 3):
        for variant in (CLASSIC, REFINED):
            checked.append(
                (f"ainf@{cmax}", A, cmax, exists_build("ainf", cmax, variant))
            )
    over = [
        label
        for label, automaton, cmax, R in checked
        if len(R.states) > state_count_bound(automaton, cmax)
    ]
    elapsed = time.perf_counter() - t0
    ok = not over and bool(checked)
    _line(
        8,
        ok,
        f"{len(checked)} existential abstractions within the "
        f"locations x regions size bound, {elapsed:.1f}s"
        + (f"; over: {over}" if over else ""),
    )
    assert checked
    assert not over


def test_criterion_9_zone_verdicts_match_the_finite_abstraction():
    t0 = time.perf_counter()
    backdiv = get_example("backdiv")
    fixtures = [
        ("ainf", get_example("ainf")),
        ("backdiv", backdiv),
        ("mirror", mirror(backdiv)),
    ] + _criterion_automata()[1:]
    conclusive = 0
    bad = []
    for label, A in fixtures:
        cmax = max(1, A.max_constant())
        region_verdict = (
            EMPTY if language_empty(build(A, cmax)) else NON_EMPTY
        )
        for direction, search in (
            ("forward", forw_exact),
            ("backward", back_exact),
        ):
            res = search(A, fuel=2000)
            if res.verdict == UNKNOWN:
                continue
            conclusive += 1
            if res.verdict != region_verdict:
                bad.append((label, direction, res.verdict, region_verdict))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _line(
        9,
        ok,
        f"{len(fixtures)} automata, {conclusive} conclusive zone searches "
        f"out of {2 * len(fixtures)}, disagreements: {bad or 'none'}, "
        f"{elapsed:.1f}s",
    )
    assert not bad
    assert elapsed < 60


# Criterion 10's automaton, the built-in ``nofinite``, in the file format.  After the entry b, a
# state of q0 with h.b = 0 and p.b = 1 sees b once a time unit until the
# a that p.a announces.
UNTIMED_FUTURES = """{
  "alphabet": ["a", "b"],
  "locations": ["qi", "q0", "q1"],
  "initial": "qi",
  "accepting": ["q1"],
  "edges": [
    {"from": "qi", "letter": "b", "guard": "true", "to": "q0"},
    {"from": "q0", "letter": "b", "guard": "h.b = 1", "to": "q0"},
    {"from": "q0", "letter": "a", "guard": "true", "to": "q1"}
  ]
}"""


def test_criterion_10_regions_do_not_preserve_untimed_futures():
    # v_k: h.a undefined, h.b = 0, p.a = k, p.b = 1; from (q0, v_k) the
    # untimed future is b^j a for 1 <= j <= k, a b at each instant 1..j
    t0 = time.perf_counter()
    A, _ = parse_ecta(UNTIMED_FUTURES)
    assert A == get_example("nofinite")  # what ``ecta demo nofinite`` runs
    ks = range(1, 11)
    valuations = {k: Valuation.of(AB, {"h.b": 0, "p.a": k, "p.b": 1}) for k in ks}
    languages, wrong, rejected = {}, [], []
    for k, v in valuations.items():
        point = zone_from_constraints(
            AB, atoms=[(H_B, "=", 0), (P_A, "=", k), (P_B, "=", 1)], undefined=[H_A]
        )
        assert point.contains(v)
        start = SymbolicState("q0", point)
        languages[k] = bounded_untimed_language(A, len(ks) + 2, start)
        if languages[k] != {("b",) * j + ("a",) for j in range(1, k + 1)}:
            wrong.append(k)
        # through the entry b at 0, the run reaches (q0, v_k)
        for j in range(1, k + 1):
            word = TimedWord.of([["b", t] for t in range(j + 1)] + [["a", k]])
            if not accepts(A, word):
                rejected.append((k, j))
    distinct = len({frozenset(lang) for lang in languages.values()})
    # the states merged with v_10, at each cmax and variant
    merged = {
        (cmax, variant): [
            k for k in ks if equivalent(valuations[k], valuations[10], cmax, variant)
        ]
        for cmax in (1, 2, 3)
        for variant in (CLASSIC, REFINED)
    }
    expected = {
        (cmax, variant): list(range(cmax + 1 if variant == CLASSIC else 2 * cmax + 2, 11))
        for cmax, variant in merged
    }
    elapsed = time.perf_counter() - t0
    ok = not wrong and not rejected and distinct == len(ks) and merged == expected
    ok = ok and elapsed < 5
    _line(
        10,
        ok,
        f"{len(ks)} states of q0 with {distinct} distinct untimed futures "
        f"(words up to length {len(ks) + 2}), {sum(ks)} words confirmed by "
        f"accepted timed words; yet at cmax 1-3 classic regions merge "
        f"k >= cmax + 1 and refined ones k >= 2 cmax + 2: "
        f"{merged == expected}, {elapsed:.2f}s",
    )
    assert not wrong and not rejected
    assert distinct == len(ks)
    assert merged == expected
    assert elapsed < 5
