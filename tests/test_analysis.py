import random
from fractions import Fraction

import pytest

import oracles
from ecta import analysis, edbm
from ecta.automaton import Ecta, Edge, TimedWord, accepts, get_example
from ecta.core import (
    Alphabet,
    Clock,
    PreconditionViolated,
    UnknownClock,
    Unsupported,
    TRUE,
    Valuation,
    parse_guard,
)
from ecta.edbm import (
    Edbm,
    atom_cells,
    distinct_zones,
    guard_to_zones,
    zone_from_constraints,
)
from ecta.analysis import (
    NON_EMPTY,
    UNKNOWN,
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

P_A = Clock.prophecy("a")
P_B = Clock.prophecy("b")
H_A = Clock.history("a")
H_B = Clock.history("b")


@pytest.fixture(scope="module")
def ainf():
    return get_example("ainf")


@pytest.fixture(scope="module")
def backdiv():
    return get_example("backdiv")


class TestBoundaryZones:
    def test_initial_zone(self, ab):
        Z = initial_zone(ab)
        assert Z.contains(Valuation.undefined(ab))
        assert Z.contains(Valuation.of(ab, {"p.a": 3, "p.b": "1/2"}))
        assert not Z.contains(Valuation.of(ab, {"h.a": 0}))

    def test_final_zone(self, ab):
        Z = final_zone(ab)
        assert Z.contains(Valuation.undefined(ab))
        assert Z.contains(Valuation.of(ab, {"h.a": 5}))
        assert not Z.contains(Valuation.of(ab, {"h.a": 5, "p.b": 1}))


class TestPostEdge:
    def test_first_step(self, ainf, ab):
        # fire the first b of b b a from the start: elapse to p.b = 0,
        # announce the next b, and the guard pins the announcements
        e = ainf.edges_from("q0", "b")[0]
        out = post_edge(ab, e, initial_zone(ab))
        assert len(out) == 1
        Z = out[0]
        assert Z.contains(
            Valuation.of(ab, {"h.b": 0, "p.b": 1, "p.a": 2})
        )
        assert not Z.contains(
            Valuation.of(ab, {"h.b": 0, "p.b": 1, "p.a": 1})
        )
        assert not Z.contains(Valuation.of(ab, {"h.b": 0, "p.b": 2, "p.a": 3}))
        # h.a stays undefined before the first a
        assert not Z.contains(
            Valuation.of(ab, {"h.a": 0, "h.b": 0, "p.b": 1, "p.a": 2})
        )

    def test_elapse_happens_before_firing(self, ainf, ab):
        # from a zone where the next b is strictly in the future the
        # step still fires, after the wait; by then p.a has shrunk to 1,
        # so only the closing-b guard applies, and its negated atom
        # splits the result into an undefined and a positive branch
        e = ainf.edges_from("q0", "b")[1]
        Z0 = zone_from_constraints(
            ab,
            atoms=[(P_B, "=", 1), (P_A, "=", 2), (H_B, "=", 0)],
            undefined=[H_A],
        )
        out = post_edge(ab, e, Z0)
        assert len(out) == 2
        for entries in ({"h.b": 0, "p.b": 1, "p.a": 1}, {"h.b": 0, "p.a": 1}):
            v = Valuation.of(ab, entries)
            assert any(z.contains(v) for z in out)
        assert post_edge(ab, ainf.edges_from("q0", "b")[0], Z0) == []

    def test_unsatisfiable_guard_gives_nothing(self, ainf, ab):
        e = ainf.edges_from("q0", "a")[0]
        assert post_edge(ab, e, initial_zone(ab)) == []

    def test_disjunctive_guard_gives_several_zones(self, ab):
        from ecta.automaton import Edge

        e = Edge("q0", "a", parse_guard("h.b < 1 || h.b > 1", ab), "q1")
        Z = zone_from_constraints(ab, atoms=[(P_A, "=", 0), (H_B, ">=", 0)])
        out = post_edge(ab, e, Z)
        assert len(out) == 2

    @pytest.mark.parametrize("step", [post_edge, pre_edge])
    def test_zone_over_another_alphabet_is_rejected(self, ainf, ab, step):
        zone = initial_zone(Alphabet(("a", "b", "c")))
        with pytest.raises(PreconditionViolated, match="another alphabet"):
            step(ab, ainf.edges_from("q0", "b")[0], zone)


class TestPreEdge:
    def test_undoes_the_first_step(self, ainf, ab):
        e = ainf.edges_from("q0", "b")[0]
        after = post_edge(ab, e, initial_zone(ab))[0]
        before = pre_edge(ab, e, after)
        assert len(before) == 1
        # the pre-zone meets the initial zone: the step is undone all
        # the way to a state with no history
        assert not before[0].intersect(initial_zone(ab)).is_empty()

    def test_pre_post_galois(self, ainf, ab):
        # anything in pre_edge can reach the zone through the edge
        for e in ainf.edges:
            target = final_zone(ab)
            for pz in pre_edge(ab, e, target):
                again = post_edge(ab, e, pz)
                assert any(
                    not z.intersect(target).is_empty() for z in again
                )


def _pin_zero(ab, zone, clock):
    return zone.with_cells(atom_cells(ab, ab.index_of(clock) + 1, "=", 0))


def _step_by_guard_zones(ab, e, zone, forward):
    """The reference step: pin, release, intersect with each zone of
    ``guard_to_zones``, release, reset.  post_edge and pre_edge must
    return the same list in the same order."""
    prophecy, history = Clock.prophecy(e.letter), Clock.history(e.letter)
    pinned, reset = (prophecy, history) if forward else (history, prophecy)
    out = []
    for piece in zone.future() if forward else [zone]:
        staged = _pin_zero(ab, piece, pinned)
        if staged.is_empty():
            continue
        staged = staged.release(pinned)
        for gz in guard_to_zones(e.guard, ab):
            z = staged.intersect(gz)
            if z.is_empty():
                continue
            z = _pin_zero(ab, z.release(reset), reset)
            out.extend([z] if forward else z.past())
    return distinct_zones(out)


class TestStepAgainstGuardZones:
    ALPHABETS = [Alphabet(("a",)), Alphabet(("a", "b")), Alphabet(("a", "b", "c"))]

    @pytest.mark.parametrize("forward", [True, False])
    def test_equal_as_ordered_lists(self, forward):
        step = post_edge if forward else pre_edge
        rng = random.Random(9)
        for ab in self.ALPHABETS:
            for k in range(300):
                maker = oracles.random_zone if k % 2 else oracles.full_zone
                zone = maker(ab, rng)
                guard = oracles.random_guard(ab, rng, depth=3)
                e = Edge("q0", rng.choice(ab.letters), guard, "q1")
                expected = _step_by_guard_zones(ab, e, zone, forward)
                assert step(ab, e, zone) == expected, (ab, zone.brief(), guard)


class TestStepMemo:
    """A step keeps the future of the last zone and the pin and release
    of the last (zone, clock); interleaved calls must equal the step
    composed afresh, and a zone over another alphabet must still raise."""

    ALPHABETS = [Alphabet(("a", "b")), Alphabet(("a", "b", "c"))]

    @staticmethod
    def _assert_steps(calls):
        for e, zone, forward in calls:
            step = post_edge if forward else pre_edge
            expected = oracles.step_by_parts(e, zone, forward)
            assert step(zone.alphabet, e, zone) == expected, (e, zone.brief(), forward)

    @staticmethod
    def _edges(ab, rng):
        """Two edges of each letter, the letters alternating."""
        return [Edge("q0", letter, oracles.random_guard(ab, rng), "q1")
                for letter in ab.letters * 2]

    @pytest.mark.parametrize("forward", [True, False])
    def test_same_zone_with_alternating_letters(self, forward):
        rng = random.Random(61)
        for ab in self.ALPHABETS:
            for k in range(60):
                zone = (oracles.random_zone if k % 2 else oracles.full_zone)(ab, rng)
                self._assert_steps((e, zone, forward) for e in self._edges(ab, rng))

    def test_equal_zones_that_are_not_identical(self):
        rng = random.Random(67)
        for k in range(60):
            ab = self.ALPHABETS[k % 2]
            zone = oracles.random_zone(ab, rng)
            twin = Edbm.from_tokens(Alphabet(ab.letters), zone.to_tokens())
            assert twin == zone and twin is not zone and twin.alphabet is not ab
            edges = self._edges(ab, rng)
            self._assert_steps(
                (e, z, forward) for e in edges for forward in (True, False) for z in (zone, twin)
            )

    def test_alternating_zones(self):
        rng = random.Random(71)
        for k in range(60):
            ab = self.ALPHABETS[k % 2]
            zones = [oracles.random_zone(ab, rng), oracles.full_zone(ab, rng)]
            e = self._edges(ab, rng)[0]
            self._assert_steps(
                (e, z, forward) for forward in (True, False) for _ in range(2) for z in zones
            )

    def test_empty_zones_and_empty_pins(self, ab):
        rng = random.Random(73)
        empty = Edbm.empty(ab)
        # p.a undefined: pinning it empties the zone, pinning p.b does not
        no_a = zone_from_constraints(ab, undefined=[P_A])
        for e in self._edges(ab, rng):
            self._assert_steps(
                (e, z, forward)
                for forward in (True, False)
                for z in (empty, no_a, empty, oracles.full_zone(ab, rng), no_a)
            )
        assert post_edge(ab, Edge("q0", "a", TRUE, "q1"), no_a) == []
        assert post_edge(ab, Edge("q0", "b", TRUE, "q1"), no_a) != []

    @pytest.mark.parametrize("step", [post_edge, pre_edge])
    def test_another_alphabet_raises_on_a_memo_hit(self, ab, step):
        ab3 = self.ALPHABETS[1]
        zone = zone_from_constraints(ab3, atoms=[(H_A, "<", 2)])
        edge = Edge("q0", "a", TRUE, "q1")
        assert step(ab3, edge, zone)  # fills the memo for this zone
        before = analysis._elapsed.cache_info().hits, analysis._freed.cache_info().hits
        with pytest.raises(PreconditionViolated, match="another alphabet"):
            step(ab, edge, zone)
        after = analysis._elapsed.cache_info().hits, analysis._freed.cache_info().hits
        # forward, the elapse is a hit and the check follows it; backward,
        # the check comes before the pin is looked up
        assert after == ((before[0] + 1, before[1]) if step is post_edge else before)
        assert step(ab3, edge, zone) == oracles.step_by_parts(edge, zone, step is post_edge)


class TestForward:
    def test_ainf_reaches_acceptance(self, ainf):
        res = forw_exact(ainf)
        assert res.verdict == NON_EMPTY
        assert res.witness is not None
        assert res.witness[0].location == "q0"
        assert res.witness[-1].location == "q1"

    def test_fuel_exhaustion_is_unknown(self, ainf):
        res = forw_exact(ainf, fuel=1)
        assert res.verdict == UNKNOWN
        assert res.steps_used == 1

    def test_negative_fuel_is_rejected(self, ainf):
        for search in (forw_exact, back_exact):
            with pytest.raises(PreconditionViolated):
                search(ainf, fuel=-1)

    def test_fuel_that_is_not_an_int_is_rejected(self, backdiv):
        for search in (forw_exact, back_exact):
            for fuel in (2.5, True, "3"):
                with pytest.raises(PreconditionViolated, match="natural number"):
                    search(backdiv, fuel=fuel)

    def test_witness_chain_is_connected(self, ainf, ab):
        res = forw_exact(ainf)
        chain = res.witness
        for parent, child in zip(chain, chain[1:]):
            assert any(
                child.zone.cells == z.cells
                for e in ainf.edges_from(parent.location)
                if e.target == child.location
                for z in post_edge(ab, e, parent.zone)
            )

    def test_mirrored_divergence_stops_early_with_answer(self, backdiv):
        res = forw_exact(mirror(backdiv), fuel=50)
        assert res.verdict == NON_EMPTY
        assert res.steps_used == 5

    def test_literal_acceptance_exhausts(self, backdiv, ab):
        # the mirror image of TestBackward's case
        A = mirror(backdiv)
        res = forw_exact(A, fuel=50, literal_accept=True)
        assert res.verdict == NON_EMPTY
        assert res.steps_used == 8
        last = res.witness[-1]
        assert last.location in A.accepting
        assert not last.zone.intersect(final_zone(ab)).is_empty()
        assert not final_zone(ab).includes(last.zone)


class TestBackward:
    def test_ainf(self, ainf):
        res = back_exact(ainf)
        assert res.verdict == NON_EMPTY
        assert res.witness[0].location == "q1"
        assert res.witness[-1].location == "q0"

    def test_divergent_example_still_answers(self, backdiv):
        # the exact zones diverge on the loop, but the accepting layer
        # meets the initial zone after a handful of steps
        res = back_exact(backdiv, fuel=50)
        assert res.verdict == NON_EMPTY
        assert res.steps_used == 5
        locations = [s.location for s in res.witness]
        assert locations == ["q2", "q2", "q1", "q0"]

    def test_witness_chain_is_connected(self, backdiv, ab):
        res = back_exact(backdiv, fuel=50)
        chain = res.witness
        for parent, child in zip(chain, chain[1:]):
            assert any(
                child.zone.cells == z.cells
                for e in backdiv.edges_to(parent.location)
                if e.source == child.location
                for z in pre_edge(ab, e, parent.zone)
            )

    def test_literal_acceptance_exhausts(self, backdiv, ab):
        # no zone at q0 lies wholly in the initial zone, so the worklist
        # runs dry; the visited zone that only meets it still proves
        # the language nonempty
        res = back_exact(backdiv, fuel=50, literal_accept=True)
        assert res.verdict == NON_EMPTY
        assert res.steps_used == 8
        last = res.witness[-1]
        assert last.location == "q0"
        assert not last.zone.intersect(initial_zone(ab)).is_empty()
        assert not initial_zone(ab).includes(last.zone)

    def test_loop_zones_tighten_without_limit(self, backdiv, ab):
        # walking the a-loop backward keeps raising the lower bound on
        # the pending b, so no finite zone set is ever revisited
        loop = backdiv.edges_from("q1", "a")[0]
        assert loop.target == "q1"
        close = backdiv.edges_from("q1", "a")[1]
        b_loop = backdiv.edges_from("q2", "b")[0]
        (at_q2,) = pre_edge(ab, b_loop, final_zone(ab))
        (zone,) = pre_edge(ab, close, at_q2)
        seen = [zone.cells]
        for n in range(1, 6):
            (zone,) = pre_edge(ab, loop, zone)
            # cell (4, 0) says p.b >= n, cell (4, 1) says p.b + h.a >= n + 1
            target = Edbm.unconstrained(ab).with_cells(
                [(4, 0, (-n, False)), (4, 1, (-(n + 1), False))]
            )
            assert target.includes(zone)
            seen.append(zone.cells)
        assert len(set(seen)) == len(seen)


class TestMirror:
    def test_structure(self, ainf):
        M = mirror(ainf)
        assert M.initial == "q1"
        assert M.accepting == frozenset({"q0"})
        flipped = {(e.source, e.letter, e.target) for e in M.edges}
        assert flipped == {
            (e.target, e.letter, e.source) for e in ainf.edges
        }

    def test_guards_swap_clock_kinds(self, ainf):
        M = mirror(ainf)
        closing = M.edges_from("q1", "a")[0]
        assert closing.guard == parse_guard("p.b = 1", ainf.alphabet)

    def test_accepts_reversed_words(self, ainf):
        M = mirror(ainf)
        assert accepts(M, TimedWord.of([["a", 0], ["b", 1], ["b", 2]]))
        assert not accepts(M, TimedWord.of([["b", 0], ["b", 1], ["a", 2]]))

    def test_needs_single_accepting_location(self, ainf):
        from ecta.automaton import Ecta

        A = Ecta(
            alphabet=ainf.alphabet,
            locations=("q0", "q1"),
            initial="q0",
            accepting=frozenset({"q0", "q1"}),
            edges=(),
        )
        with pytest.raises(Unsupported):
            mirror(A)


class TestDirectionsAgree:
    def test_backward_matches_forward_on_the_mirror(self):
        # mirroring reverses every word, so both searches decide the
        # emptiness of the same language
        rng = random.Random(1717)
        decided = 0
        for k in range(300):
            ab = Alphabet(("a", "b")) if k % 2 else Alphabet(("a", "b", "c"))
            A = oracles.random_automaton(ab, rng)
            final = frozenset({rng.choice(A.locations)})
            A = Ecta(ab, A.locations, A.initial, final, A.edges)
            back = back_exact(A, fuel=200).verdict
            forw = forw_exact(mirror(A), fuel=200).verdict
            if UNKNOWN not in (back, forw):
                decided += 1
                assert back == forw, A
        assert decided >= 290, decided


class TestBoundedLanguage:
    def test_ainf_prefix(self, ainf):
        words = bounded_untimed_language(ainf, 4)
        assert words == {
            ("b", "a"),
            ("b", "b", "a"),
            ("b", "b", "b", "a"),
        }

    def test_empty_word_cases(self, ainf):
        assert bounded_untimed_language(ainf, 0) == set()
        assert bounded_untimed_language(ainf, 1) == set()

    def test_negative_length_is_rejected(self, ainf):
        with pytest.raises(PreconditionViolated):
            bounded_untimed_language(ainf, -1)

    def test_boolean_length_is_rejected(self, ainf):
        with pytest.raises(PreconditionViolated):
            bounded_untimed_language(ainf, True)

    def test_start_at_an_unknown_location_is_rejected(self, ainf, ab):
        # once read as a start with no edges, which accepts no word
        with pytest.raises(PreconditionViolated):
            bounded_untimed_language(ainf, 3, SymbolicState("nowhere", initial_zone(ab)))

    @pytest.mark.parametrize("location", ["q0", "q1"])
    def test_start_zone_over_another_alphabet_is_rejected(self, ainf, location):
        # at every location alike, as ``intersect`` and ``includes`` do
        zone = initial_zone(Alphabet(("a", "b", "c")))
        with pytest.raises(UnknownClock):
            bounded_untimed_language(ainf, 3, SymbolicState(location, zone))

    def test_custom_start_forces_the_count(self, ainf, ab):
        start = SymbolicState(
            "q0",
            zone_from_constraints(
                ab,
                atoms=[(P_A, "=", 2), (P_B, "=", 0)],
                undefined=[H_A, H_B],
            ),
        )
        words = bounded_untimed_language(ainf, 6, start)
        assert words == {("b", "b", "a")}

    def test_free_history_clock_cannot_meet_a_past_bound(self, ainf, ab):
        # a fires at time 3, when h.b is undefined or at least 3, so the
        # guard h.b = 1 never holds; elapsing the free h.b row as one
        # matrix would keep h.b = 1 reachable and accept the word a
        start = SymbolicState(
            "q0",
            zone_from_constraints(ab, atoms=[(P_A, "=", 3)], undefined=[H_A, P_B]),
        )
        assert bounded_untimed_language(ainf, 1, start) == set()

    def test_backdiv(self, backdiv):
        # the closing edge announces one more b, so every accepted word
        # ends with at least one b after the final a
        assert bounded_untimed_language(backdiv, 3) == {("a", "a", "b")}
        assert bounded_untimed_language(backdiv, 4) == {
            ("a", "a", "b"),
            ("a", "a", "b", "b"),
            ("a", "a", "a", "b"),
        }


class TestVisitedCovers:
    """The search keeps its visited zones in covers that skip blocks of
    zones by their cellwise maxima; it must decide exactly as the plain
    list scan of ``oracles.reference_search`` does."""

    @staticmethod
    def same(A, fuel=300):
        for search, forward in ((forw_exact, True), (back_exact, False)):
            for literal in (False, True):
                got = search(A, fuel=fuel, literal_accept=literal)
                want = oracles.reference_search(A, fuel, forward, literal)
                assert got == want, (A, forward, literal)

    @staticmethod
    def record_covers(monkeypatch):
        covers = []

        class Recording(analysis.ZoneCover):
            def __init__(self):
                super().__init__()
                covers.append(self)

        monkeypatch.setattr(analysis, "ZoneCover", Recording)
        return covers

    def test_examples_and_mirrors(self, ainf, backdiv, monkeypatch):
        covers = self.record_covers(monkeypatch)
        for A in (ainf, backdiv, mirror(ainf), mirror(backdiv)):
            self.same(A)
        # literal ainf keeps 299 pairwise incomparable zones at one location
        assert max(len(c.zones) for c in covers) >= 250

    def test_literal_ainf_and_its_mirror_at_fuel_1000(self, ainf, monkeypatch):
        covers = self.record_covers(monkeypatch)
        for A in (ainf, mirror(ainf)):
            self.same(A, fuel=1000)
        # each keeps 999 zones at one location, in a tree of four levels
        # for blocks of 8, the fewest that hold them
        big = sorted(covers, key=lambda c: len(c.zones))[-2:]
        assert [len(c.zones) for c in big] == [999, 999]
        for c in big:
            assert edbm._BLOCK ** (len(c._levels) - 1) <= 999 < edbm._BLOCK ** len(c._levels)

    @pytest.mark.parametrize("block", [None, 2, 3])
    def test_seeded_automata(self, block, monkeypatch):
        # blocks of 2 and 3 close at every second and third kept zone
        if block is not None:
            monkeypatch.setattr(edbm, "_BLOCK", block)
        covers = self.record_covers(monkeypatch)
        rng = random.Random(2222)
        for k in range(48):
            ab = Alphabet(("a", "b")) if k % 2 else Alphabet(("a", "b", "c"))
            self.same(oracles.random_automaton(ab, rng, locations=5, edges=(8, 12)))
        assert sum(len(c.zones) >= 16 for c in covers) >= 20
