import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ecta import region_automaton, regions
from ecta.analysis import initial_zone
from ecta.automaton import get_example
from ecta.core import (
    Alphabet,
    ClockMismatch,
    NotEquivalent,
    PreconditionViolated,
    Valuation,
    weak_successor_contains,
)
from ecta.edbm import Edbm, undefined_cells, zone_from_constraints
from ecta.regions import (
    CLASSIC,
    REFINED,
    Region,
    _met,
    class_cells,
    decompose,
    diagonal_cells,
    equivalent,
    region_of,
    region_to_zone,
    weak_successor_witness,
)

ALPHABETS = [Alphabet(("a",)), Alphabet(("a", "b")), Alphabet(("a", "b", "c"))]


class TestRegionOf:
    def test_classes(self, ab):
        v = Valuation.of(ab, {"h.a": 1, "h.b": "3/2", "p.a": 5})
        r = region_of(v, 2)
        assert r.classes == (2, 3, 5, None)
        assert r.variant == CLASSIC
        assert r.diagonals == ()

    def test_value_at_cmax_is_not_above(self, ab):
        v = Valuation.of(ab, {"h.a": 2})
        assert region_of(v, 2).classes[0] == 4

    def test_boundary_distance_groups(self, ab):
        # h.a at 7/4 crosses 2 after 1/4; p.a at 7/4 crosses 1 after 3/4
        v = Valuation.of(ab, {"h.a": "7/4", "p.a": "7/4", "p.b": "3/4"})
        r = region_of(v, 2)
        assert r.fracs == ((0,), (2, 3))

    def test_refined_diagonals_only_for_high_pairs(self, ab):
        v = Valuation.of(ab, {"h.a": 1, "h.b": "1/2", "p.a": 5})
        r = region_of(v, 2, REFINED)
        pairs = {(i, j) for i, j, _ in r.diagonals}
        assert pairs == {(0, 2), (1, 2)}

    def test_refined_far_classes(self, ab):
        v = Valuation.of(ab, {"h.a": 9, "p.a": 9})
        r = region_of(v, 2, REFINED)
        # sv(h.a) - sv(p.a) = 9 + 9 = 18 > 4
        assert (0, 2, 9) in r.diagonals
        w = Valuation.of(ab, {"h.a": 0, "h.b": 9})
        assert (0, 1, -9) in region_of(w, 2, REFINED).diagonals

    @pytest.mark.parametrize("values, cmax, variant, text", [
        ({"h.a": 1, "h.b": "3/2", "p.a": 5}, 2, CLASSIC,
         "h.a=1, h.b in (1,2), p.a>2, p.b=bot; frac h.b"),
        ({"h.a": "1/4", "h.b": "5/4", "p.a": "1/2", "p.b": "3/4"}, 2, CLASSIC,
         "h.a in (0,1), h.b in (1,2), p.a in (0,1), p.b in (0,1); "
         "frac p.a < h.a=h.b=p.b"),
        ({}, 0, CLASSIC, "h.a=bot, h.b=bot, p.a=bot, p.b=bot"),
        ({"h.a": 0, "h.b": 9}, 2, REFINED,
         "h.a=0, h.b>2, p.a=bot, p.b=bot; sv(h.a)-sv(h.b)<-4"),
        ({"h.a": 1, "h.b": 3, "p.a": 3}, 2, REFINED,
         "h.a=1, h.b>2, p.a>2, p.b=bot; "
         "sv(h.a)-sv(h.b)=-2, sv(h.a)-sv(p.a)=4, sv(h.b)-sv(p.a)>4"),
        ({"h.b": "1/3", "p.a": "7/3", "p.b": "1/2"}, 2, REFINED,
         "h.a=bot, h.b in (0,1), p.a>2, p.b in (0,1); frac p.b < h.b; "
         "sv(h.b)-sv(p.a) in (2,3), sv(p.a)-sv(p.b) in (-2,-1)"),
        ({"h.a": "1/2", "p.a": 3}, 1, REFINED,
         "h.a in (0,1), h.b=bot, p.a>1, p.b=bot; frac h.a; sv(h.a)-sv(p.a)>2"),
    ])
    def test_text(self, ab, values, cmax, variant, text):
        assert str(region_of(Valuation.of(ab, values), cmax, variant)) == text

    def test_initial_final_flags(self, ab):
        assert region_of(Valuation.undefined(ab), 1).is_initial()
        assert region_of(Valuation.undefined(ab), 1).is_final()
        started = region_of(Valuation.of(ab, {"h.a": 0}), 1)
        assert not started.is_initial()
        assert started.is_final()
        pending = region_of(Valuation.of(ab, {"p.a": 0}), 1)
        assert pending.is_initial()
        assert not pending.is_final()

    def test_argument_validation(self, ab):
        v = Valuation.undefined(ab)
        with pytest.raises(ValueError):
            region_of(v, -1)
        with pytest.raises(ValueError):
            region_of(v, 1, "sharp")

    def test_matches_the_fraction_reference(self):
        # denominators 1 to 12, not only the dyadic values a zone's sample has
        rng = random.Random(31)
        for k in range(40000):
            ab, cmax, variant = ALPHABETS[k % 3], k // 3 % 4, (CLASSIC, REFINED)[k // 12 % 2]
            v = oracles.rational_valuation(ab, rng, cmax)
            assert region_of(v, cmax, variant) == oracles.region_of_by_fractions(v, cmax, variant), (
                v, cmax, variant)

    def test_matches_the_fraction_reference_at_the_caps(self):
        # values at cmax and one step of 1/d to either side, and signed
        # differences at ±2 * cmax and one step to either side, or far beyond
        one, two = ALPHABETS[:2]
        for cmax in range(4):
            near = {Fraction(c) + Fraction(s, d) for c in (0, cmax, 2 * cmax, 3 * cmax + 5)
                    for d in (1, 2, 3, 7, 12) for s in (-1, 0, 1)}
            values = [None] + sorted(x for x in near if x >= 0)
            for x, y in itertools.product(values, repeat=2):
                for v in (Valuation(one, (x, y)), Valuation(two, (x, y, None, None)),
                          Valuation(two, (None, None, x, y)), Valuation(two, (x, None, y, Fraction(cmax + 1)))):
                    for variant in (CLASSIC, REFINED):
                        assert region_of(v, cmax, variant) == oracles.region_of_by_fractions(
                            v, cmax, variant), (v, cmax, variant)

    def test_matches_the_fraction_reference_at_the_leaves_of_the_ainf_builds(self, monkeypatch):
        named = set()
        naming = regions.region_of

        def recording(v, cmax, variant):
            named.add((v, cmax, variant))
            return naming(v, cmax, variant)

        monkeypatch.setattr(regions, "region_of", recording)
        A = get_example("ainf")
        for cmax in (1, 2, 3):
            for variant in (CLASSIC, REFINED):
                for quantifier in (region_automaton.EXISTS, region_automaton.FORALL):
                    region_automaton.build(A, cmax, quantifier, variant)
        monkeypatch.undo()
        assert len(named) > 900
        for v, cmax, variant in named:
            assert region_of(v, cmax, variant) == oracles.region_of_by_fractions(v, cmax, variant), (
                v, cmax, variant)


def valuations(alphabet):
    """Valuations over ``alphabet`` whose defined values lie in ``[0, 8]``
    and have denominators at most 6."""
    value = st.none() | st.integers(1, 6).flatmap(
        lambda d: st.integers(0, 8 * d).map(lambda n: Fraction(n, d)))
    return st.tuples(*[value] * len(alphabet.clocks)).map(lambda vals: Valuation(alphabet, vals))


class TestRegionProperties:
    @given(st.integers(0, 3), st.sampled_from([CLASSIC, REFINED]),
           valuations(ALPHABETS[1]), valuations(ALPHABETS[1]))
    def test_same_region_iff_equivalent(self, cmax, variant, v, w):
        assert (region_of(v, cmax, variant) == region_of(w, cmax, variant)) == equivalent(
            v, w, cmax, variant)

    @given(st.integers(0, 3), st.sampled_from([CLASSIC, REFINED]), valuations(ALPHABETS[1]))
    def test_the_zone_of_a_region_holds_its_valuations(self, cmax, variant, v):
        assert region_to_zone(region_of(v, cmax, variant)).contains(v)


class TestEquivalent:
    def test_matches_region_encoding(self, ab):
        rng = random.Random(11)
        for cmax in (1, 2):
            for variant in (CLASSIC, REFINED):
                for _ in range(150):
                    v = oracles.random_valuation(ab, rng, cmax)
                    w = oracles.random_valuation(ab, rng, cmax)
                    assert equivalent(v, w, cmax, variant) == (
                        region_of(v, cmax, variant)
                        == region_of(w, cmax, variant)
                    )

    def test_generated_mates_are_equivalent(self, ab):
        rng = random.Random(13)
        for cmax in (1, 2, 3):
            for _ in range(100):
                v = oracles.random_valuation(ab, rng, cmax)
                assert equivalent(v, oracles.region_mate(v, rng, cmax), cmax)

    def test_interval_disagreement(self, ab):
        v = Valuation.of(ab, {"h.a": "1/2"})
        w = Valuation.of(ab, {"h.a": "3/2"})
        assert not equivalent(v, w, 2)
        assert equivalent(v, w, 0)

    def test_bot_pattern_disagreement(self, ab):
        v = Valuation.of(ab, {"h.a": 1})
        w = Valuation.of(ab, {"h.a": 1, "h.b": 1})
        assert not equivalent(v, w, 1)

    def test_boundary_order_disagreement(self, ab):
        v = Valuation.of(ab, {"h.a": "1/4", "h.b": "1/2"})
        w = Valuation.of(ab, {"h.a": "1/2", "h.b": "1/4"})
        assert not equivalent(v, w, 1)
        # ties must be preserved as ties
        u = Valuation.of(ab, {"h.a": "1/4", "h.b": "1/4"})
        assert not equivalent(v, u, 1)

    def test_refined_separates_signed_distances(self, ab):
        # both have p.a above cmax, so the classic relation merges them,
        # but the signed difference h.a + p.a lands in different classes
        v = Valuation.of(ab, {"h.a": 0, "p.a": 5})
        w = Valuation.of(ab, {"h.a": 0, "p.a": 2})
        assert equivalent(v, w, 1, CLASSIC)
        assert not equivalent(v, w, 1, REFINED)

    def test_alphabet_mismatch(self, ab):
        from ecta.core import Alphabet

        other = Valuation.undefined(Alphabet(("a", "c")))
        with pytest.raises(ClockMismatch):
            equivalent(Valuation.undefined(ab), other, 1)


class TestRegionToZone:
    def test_zone_membership_is_region_membership(self, ab):
        rng = random.Random(17)
        for cmax in (1, 2):
            for variant in (CLASSIC, REFINED):
                for _ in range(80):
                    v = oracles.random_valuation(ab, rng, cmax)
                    zone = region_to_zone(region_of(v, cmax, variant))
                    assert zone.contains(v)
                    w = oracles.random_valuation(ab, rng, cmax)
                    assert zone.contains(w) == equivalent(
                        v, w, cmax, variant
                    )

    def test_zone_sample_round_trips(self, ab):
        rng = random.Random(19)
        for _ in range(80):
            v = oracles.random_valuation(ab, rng, 2)
            r = region_of(v, 2, REFINED)
            assert region_of(region_to_zone(r).sample(), 2, REFINED) == r

    def test_equals_the_merge(self):
        # the normal form written by construction is the closure of the
        # region's cells, on every region of one and two letters
        for letters, cmaxes in [(("a",), range(4)), (("a", "b"), range(2))]:
            ab = Alphabet(letters)
            for cmax in cmaxes:
                for variant in (CLASSIC, REFINED):
                    for r in decompose(Edbm.unconstrained(ab), cmax, variant):
                        assert region_to_zone(r) == oracles.region_zone_by_cells(r), str(r)

    @pytest.mark.parametrize("name", ["ainf", "backdiv", "nofinite"])
    def test_classes_are_the_ranks_of_the_zone(self, name, exists_build):
        # a region names each class by the one rank that Edbm.ranks reads
        # off its zone, clamped at the cap; an undefined clock is never real
        def clamped(span, top):
            return [end if r is None else max(-top, min(top, r)) for r, end in zip(span, (-top, top))]

        regions = {
            r
            for cmax in (1, 2, 3)
            for variant in (CLASSIC, REFINED)
            for _, r in exists_build(name, cmax, variant).states
        }
        assert any(r.diagonals for r in regions)
        for r in regions:
            zone, top = region_to_zone(r), 2 * r.cmax + 1
            assert zone == oracles.region_zone_by_cells(r), str(r)
            for i, (x, rank) in enumerate(zip(r.alphabet.clocks, r.classes)):
                undefined, span = zone.ranks(*((i + 1, 0) if x.is_history else (0, i + 1)))
                if rank is None:
                    assert span is None, (str(r), i)
                else:
                    assert (undefined, clamped(span, top)) == (False, [rank, rank]), (str(r), i)
            for i, j, rank in r.diagonals:
                _, span = zone.ranks(i + 1, j + 1)
                assert clamped(span, 2 * top - 1) == [rank, rank], (str(r), i, j)


class TestDecompose:
    def test_partition_of_a_box(self, ab):
        rng = random.Random(23)
        from ecta.core import Clock

        zone = zone_from_constraints(
            ab,
            atoms=[
                (Clock.history("a"), "<=", 1),
                (Clock.prophecy("b"), "<=", 1),
            ],
            undefined=[Clock.history("b"), Clock.prophecy("a")],
        )
        regions = decompose(zone, 1)
        assert len(regions) == len(set(regions))
        for r in regions:
            # every capped clock of this box lies within cmax, so each
            # region meeting the box is wholly inside it
            assert zone.includes(region_to_zone(r))
        for _ in range(200):
            v = oracles.grid_points(ab, rng, 1)[0]
            if zone.contains(v):
                assert region_of(v, 1) in regions

    def test_random_zones_are_covered(self, ab):
        # zones with many unbounded clocks meet combinatorially many
        # regions, so keep at most one clock unbounded per draw
        rng = random.Random(29)
        for variant in (CLASSIC, REFINED):
            for _ in range(20):
                zone = self._bounded_zone(ab, rng)
                regions = decompose(zone, 1, variant)
                if zone.is_empty():
                    assert regions == ()
                    continue
                assert regions
                for r in regions:
                    assert not region_to_zone(r).intersect(zone).is_empty()
                for v in oracles.nudged_points(zone, rng, 8):
                    if zone.contains(v):
                        assert region_of(v, 1, variant) in regions

    @staticmethod
    def _bounded_zone(ab, rng):
        atoms = []
        undefined = []
        free_budget = 1
        for clock in ab.clocks:
            roll = rng.random()
            if roll < 0.3:
                undefined.append(clock)
            elif roll < 0.85 or free_budget == 0:
                lo = rng.randint(0, 1)
                op = rng.choice((">=", ">"))
                atoms.append((clock, op, lo))
                atoms.append((clock, "<=", lo + rng.randint(0, 1)))
            else:
                free_budget -= 1
                atoms.append((clock, ">", 0))
        return zone_from_constraints(ab, atoms=atoms, undefined=undefined)

    @staticmethod
    def _assert_matches_sampling(zone, cmax, variant):
        regions = decompose(zone, cmax, variant)
        assert len(regions) == len(set(regions))
        assert set(regions) == set(
            oracles.decompose_by_sampling(zone, cmax, variant)
        )

    def test_matches_sampling_on_one_letter_zones(self):
        ab1 = Alphabet(("a",))
        rng = random.Random(37)
        for cmax in (1, 2):
            for variant in (CLASSIC, REFINED):
                for _ in range(60):
                    zone = oracles.random_zone(ab1, rng)
                    self._assert_matches_sampling(zone, cmax, variant)

    def test_matches_sampling_on_bounded_zones(self, ab):
        # two-letter zones with many free clocks take the reference
        # too long, so draw them bounded; three letters give six clocks
        # and up to fifteen fractional pairs, whose offered orders the
        # closure must refute where they are not transitive
        rng = random.Random(41)
        for alphabet, cmaxes, count in ((ab, (1, 2), 20), (ALPHABETS[2], (1,), 12)):
            for cmax in cmaxes:
                for variant in (CLASSIC, REFINED):
                    for _ in range(count):
                        zone = self._bounded_zone(alphabet, rng)
                        self._assert_matches_sampling(zone, cmax, variant)

    @staticmethod
    def _walk_key(r):
        """The walk's order on leaves, from the Region fields alone: each
        clock class (None first), then for each fractional ``x_b`` and each
        fractional ``x_a`` before it the rank of ``sv(x_a) - sv(x_b)``,
        then the recorded differences.  ``hi`` is a clock's next integer
        and ``level`` the index of its group in ``fracs``."""
        level = {i: k for k, group in enumerate(r.fracs) for i in group}
        hi = {i: r.classes[i] // 2 + 1 if r.alphabet.clocks[i].is_history else -(r.classes[i] // 2)
              for i in level}
        fractional = sorted(level)
        return (
            tuple(-1 if rank is None else rank for rank in r.classes),
            tuple(2 * (hi[a] - hi[b]) + (level[b] > level[a]) - (level[b] < level[a])
                  for k, b in enumerate(fractional) for a in fractional[:k]),
            tuple(rank for _, _, rank in r.diagonals),
        )

    def test_leaves_come_in_the_order_of_their_classes(self):
        rng = random.Random(53)
        ordered = 0
        for alphabet, cmaxes in zip(ALPHABETS, ((1, 2), (1, 2), (1,))):
            maker = oracles.random_zone if alphabet is ALPHABETS[0] else self._bounded_zone
            for cmax, variant in itertools.product(cmaxes, (CLASSIC, REFINED)):
                for _ in range(40):
                    leaves = decompose(maker(alphabet, rng), cmax, variant)
                    assert list(leaves) == sorted(leaves, key=self._walk_key)
                    assert len({self._walk_key(r) for r in leaves}) == len(leaves)
                    ordered += sum(sum(map(len, r.fracs)) >= 3 for r in leaves)
        # leaves whose order ranks three fractional clocks or more
        assert ordered > 1000, ordered

    def test_matches_sampling_on_the_zones_of_a_build(self, monkeypatch):
        zones = set()

        def recording(zone, cmax, variant):
            zones.add(zone)
            return decompose(zone, cmax, variant)

        monkeypatch.setattr(region_automaton, "decompose", recording)
        ainf = get_example("ainf")
        region_automaton.build(ainf, 2, region_automaton.EXISTS, REFINED)
        assert len(zones) > 1
        for zone in zones:
            self._assert_matches_sampling(zone, 2, REFINED)

    def test_matches_sampling_as_the_alphabet_and_cmax_alternate(self, ab):
        # the walk's class cells are kept for the last (alphabet, cmax)
        rng = random.Random(43)
        ab1 = Alphabet(("a",))
        keys = [(ab1, 1), (ab, 1), (ab1, 2), (ab, 2), (Alphabet(("a",)), 1)]
        misses = regions._vocabulary.cache_info().misses
        for k in range(40):
            alphabet, cmax = keys[k % len(keys)]
            maker = oracles.random_zone if alphabet is ab1 else self._bounded_zone
            self._assert_matches_sampling(maker(alphabet, rng), cmax, (CLASSIC, REFINED)[k // 5 % 2])
        assert regions._vocabulary.cache_info().misses >= misses + 32

    def test_offers_one_class_at_a_time(self, ab):
        # p.a is free in the initial zone: None, then ranks 0 to 2 * cmax + 1
        offers = _met(initial_zone(ab), 2, None, 10**15)
        assert list(itertools.islice(offers, 4)) == [None, 0, 1, 2]
        assert next(regions.walk(initial_zone(ab), 10**15)).classes == (None, None, None, None)

    @pytest.mark.parametrize("cmax", [2**61, 2**70])
    def test_a_cap_past_the_cell_limit_is_refused(self, ab, cmax):
        for variant in (CLASSIC, REFINED):
            with pytest.raises(PreconditionViolated, match="too large"):
                decompose(Edbm.empty(ab), cmax, variant)
        assert decompose(Edbm.empty(ab), 2**61 - 1) == ()

    def test_offers_are_exactly_the_classes_met(self):
        # decompose offers a class from the ranks the normal form gives
        # exactly when merging the class's cells leaves the zone nonempty
        rng = random.Random(47)
        alphabets = [Alphabet(("a",)), Alphabet(("a", "b")), Alphabet(("a", "b", "c"))]
        draws = refused = offered_pairs = 0
        while draws < 300:
            ab, cmax = alphabets[draws % 3], draws // 3 % 4
            zone = (oracles.random_zone if draws % 2 else oracles.full_zone)(ab, rng)
            if zone.is_empty():
                continue
            draws += 1
            clock_classes = [None, *range(2 * cmax + 2)]
            differences = range(-4 * cmax - 1, 4 * cmax + 2)
            n = len(ab.clocks)
            for i in range(n):
                met = [
                    cls for cls in clock_classes
                    if not zone.with_cells(class_cells(ab, i, cls, cmax)).is_empty()
                ]
                assert list(_met(zone, i, None, cmax)) == met, (zone, i, cmax)
                refused += len(clock_classes) - len(met)
            real = [i for i in range(n) if zone.with_cells(undefined_cells(i + 1)).is_empty()]
            for i in real:
                for j in real:
                    if i == j:
                        continue
                    met = [
                        d for d in differences
                        if not zone.with_cells(diagonal_cells(i, j, d, cmax)).is_empty()
                    ]
                    assert list(_met(zone, i, j, cmax)) == met, (zone, i, j, cmax)
                    refused += len(differences) - len(met)
                    offered_pairs += 1
        assert refused > 1000 and offered_pairs > 300, (refused, offered_pairs)

    def test_rows_built_zones_are_normalized_first(self):
        # unnormalized rows as in test_raw_matrices_keep_their_valuations:
        # ? and <inf, diagonals off <=0, bot on one border or both, and
        # undefined clocks that carry numeric cells; most denote the empty
        # zone, though their cell (0, 0) says otherwise.  The constructor
        # closes them, so the walk reads the zone they denote and meets
        # the regions that sampling finds
        rng = random.Random(307)
        tokens = ["<inf"] * 3 + ["<=0", "<0", "<1", "<=2", "<3", "<=-1"]
        diagonals = ["<=0"] * 4 + ["?", "<inf", "<0", "<1"]
        alphabets = [Alphabet(("a",)), Alphabet(("a", "b"))]
        unnormalized = emptied = 0
        for k in range(600):
            ab = alphabets[k % 2]
            size = len(ab.clocks) + 1
            density = 0.3 + 0.7 * rng.random()
            rows = [
                [rng.choice(tokens) if rng.random() < density else "?" for _ in range(size)]
                for _ in range(size)
            ]
            for i in range(size):
                rows[i][i] = rng.choice(diagonals)
            for i in range(1, size):
                if rng.random() < 0.3:
                    for r, c in rng.choice([[(i, 0)], [(0, i)], [(i, 0), (0, i)]]):
                        rows[r][c] = "bot"
            M = Edbm.from_tokens(ab, rows)
            assert M == M.normalize(), rows
            unnormalized += not M.is_empty() and M.to_tokens() != rows
            emptied += M.is_empty() and rows[0][0] != "<0"
            for variant in (CLASSIC, REFINED):
                for cmax in range(3 - len(ab.letters)):  # 0 and 1 over one letter, 0 over two
                    self._assert_matches_sampling(M, cmax, variant)
        assert unnormalized > 50 and emptied > 300, (unnormalized, emptied)

    def test_needs_cmax_at_least_constants(self, ab):
        from ecta.core import Clock

        zone = zone_from_constraints(ab, atoms=[(Clock.history("a"), "=", 3)])
        regions = decompose(zone, 3)
        sampled = region_to_zone(regions[0]).sample()
        assert sampled.value(Clock.history("a")) == 3


class TestWeakSuccessorWitness:
    def test_identity_pair_small_delay(self, ab):
        v = Valuation.of(ab, {"h.a": 0, "p.b": "3/2"})
        t2, v2 = weak_successor_witness(v, v, "1/2", 1)
        assert equivalent(v.elapse(Fraction(1, 2)), v2, 1)
        assert weak_successor_contains(v, t2, v2, 1)

    def test_prophecy_above_cap_is_reseeded(self, ab):
        # the delay drags p.b from above cmax to 1/2; the witness must
        # do the same from a different starting point above cmax
        v1 = Valuation.of(ab, {"h.a": 0, "p.b": "5/2"})
        v2 = Valuation.of(ab, {"h.a": 0, "p.b": 9})
        t2, w = weak_successor_witness(v1, v2, 2, 1)
        assert equivalent(v1.elapse(2), w, 1)
        assert weak_successor_contains(v2, t2, w, 1)

    def test_zero_delay(self, ab):
        v1 = Valuation.of(ab, {"h.b": "1/3"})
        v2 = Valuation.of(ab, {"h.b": "1/5"})
        t2, w = weak_successor_witness(v1, v2, 0, 1)
        assert equivalent(v1, w, 1)
        assert weak_successor_contains(v2, t2, w, 1)

    def test_random_pairs(self, ab):
        rng = random.Random(31)
        for cmax in (1, 2):
            for _ in range(100):
                v1 = oracles.random_valuation(ab, rng, cmax)
                v2 = oracles.region_mate(v1, rng, cmax)
                caps = [
                    val
                    for x, val in zip(ab.clocks, v1.values)
                    if x.is_prophecy and val is not None
                ]
                top = min([Fraction(3)] + caps)
                t1 = top * Fraction(rng.randint(0, 8), 8)
                t2, w = weak_successor_witness(v1, v2, t1, cmax)
                assert equivalent(v1.elapse(t1), w, cmax)
                assert weak_successor_contains(v2, t2, w, cmax)

    def test_crossing_instants_and_long_delays(self):
        """One and three letters, cmax 0 to 2, values in up to sixtieths,
        and delays that end where a clock at most cmax crosses an integer,
        that bring a prophecy clock to exactly 0, or that span several
        time units; each pair is matched in both directions."""
        rng = random.Random(36)
        seen = dict.fromkeys(("crossing", "zero", "long"), 0)
        for letters, cmax in itertools.product((("a",), ("a", "b", "c")), (0, 1, 2)):
            ab = Alphabet(letters)
            for _ in range(25):
                values = []
                for _ in ab.clocks:
                    d, top = rng.randint(1, 60), rng.choice((cmax + 1, cmax + 6))
                    values.append(None if rng.random() < 0.2 else Fraction(rng.randint(0, top * d), d))
                v = Valuation(ab, tuple(values))
                mate = oracles.region_mate(v, rng, cmax)
                for v1, v2 in ((v, mate), (mate, v)):
                    defined = [(x, val) for x, val in zip(ab.clocks, v1.values) if val is not None]
                    delays = {
                        "crossing": [v1.frac(x) + k for x, val in defined if val <= cmax for k in range(4)],
                        "zero": [val for x, val in defined if x.is_prophecy],
                        "long": [Fraction(rng.randint(60, 300), 60)],
                    }
                    for kind, ts in delays.items():
                        for t1 in filter(v1.can_elapse, ts):
                            seen[kind] += 1
                            t2, w = weak_successor_witness(v1, v2, t1, cmax)
                            assert equivalent(v1.elapse(t1), w, cmax), (v1, v2, t1)
                            assert weak_successor_contains(v2, t2, w, cmax), (v1, v2, t1)
        assert min(seen.values()) >= 50, seen

    def test_rejects_non_equivalent_pairs(self, ab):
        v1 = Valuation.of(ab, {"h.a": 0})
        v2 = Valuation.of(ab, {"h.a": "1/2"})
        with pytest.raises(NotEquivalent):
            weak_successor_witness(v1, v2, 1, 1)

    def test_rejects_undefined_elapse(self, ab):
        v = Valuation.of(ab, {"p.a": "1/2"})
        with pytest.raises(PreconditionViolated):
            weak_successor_witness(v, v, 1, 1)
