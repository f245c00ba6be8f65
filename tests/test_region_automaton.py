import dataclasses
import json
from collections import Counter

import pytest

from ecta.automaton import Ecta, Edge, get_example
from ecta.core import TRUE, Alphabet, CmaxTooSmall, parse_guard
from ecta.core import PreconditionViolated, TooManyStates, UnknownLetter
from ecta.regions import CLASSIC, REFINED
from ecta.region_automaton import (
    EXISTS,
    FORALL,
    build,
    language_empty,
    ra_accepts,
    ra_bounded_language,
    regions_bound,
    state_count_bound,
    to_dot,
    to_json_dict,
)


@pytest.fixture(scope="module")
def ainf():
    return get_example("ainf")


@pytest.fixture(scope="module")
def ras(ainf):
    return {
        (variant, quantifier): build(ainf, 2, quantifier, variant)
        for variant in (CLASSIC, REFINED)
        for quantifier in (EXISTS, FORALL)
    }


class TestBounds:
    def test_regions_bound_formula(self):
        import math

        for n, c in [(1, 0), (2, 1), (4, 3)]:
            assert regions_bound(n, c) == math.factorial(n) * 2**n * (
                2 * c + 2
            ) ** n

    def test_state_count_bound(self, ainf):
        # 2 locations, 4 clocks, constant budget cmax + 1 = 3
        assert state_count_bound(ainf, 2) == 2 * regions_bound(4, 3)
        assert state_count_bound(ainf, 2) == 3145728

    def test_built_sizes_stay_under_bound(self, ras, ainf):
        for R in ras.values():
            assert len(R.states) <= state_count_bound(ainf, 2)


class TestBuild:
    def test_known_sizes(self, ras):
        sizes = {
            (CLASSIC, EXISTS): (123, 122),
            (REFINED, EXISTS): (411, 400),
            (CLASSIC, FORALL): (98, 61),
            (REFINED, FORALL): (353, 322),
        }
        for key, (nstates, nedges) in sizes.items():
            R = ras[key]
            assert (len(R.states), len(R.edges)) == (nstates, nedges), key

    def test_metadata(self, ras):
        R = ras[(CLASSIC, EXISTS)]
        assert R.cmax == 2
        assert R.variant == CLASSIC
        assert R.quantifier == EXISTS
        assert R.initials
        assert all(s in R.states for s in R.initials)
        assert all(s in R.states for s in R.accepting)

    def test_initial_states_are_initial_regions(self, ras, ainf):
        for R in ras.values():
            for loc, region in R.initials:
                assert loc == ainf.initial
                assert region.is_initial()

    def test_accepting_states_are_final_regions(self, ras, ainf):
        for R in ras.values():
            for loc, region in R.accepting:
                assert loc in ainf.accepting
                assert region.is_final()

    def test_cmax_below_guard_constants_rejected(self, ainf):
        with pytest.raises(CmaxTooSmall):
            build(ainf, 0)

    def test_boolean_cmax_rejected(self, ainf):
        with pytest.raises(PreconditionViolated):
            build(ainf, True)

    def test_bad_quantifier_rejected(self, ainf):
        with pytest.raises(ValueError):
            build(ainf, 1, "both")

    def test_universal_edges_are_subset(self, ras):
        for variant in (CLASSIC, REFINED):
            exist = set(ras[(variant, EXISTS)].edges)
            univ = set(ras[(variant, FORALL)].edges)
            assert univ <= exist


class TestLanguages:
    def test_existential_bounded_language(self, ras):
        want = {tuple("b" * n) + ("a",) for n in range(1, 6)}
        for variant in (CLASSIC, REFINED):
            R = ras[(variant, EXISTS)]
            assert ra_bounded_language(R, 6) == want

    def test_universal_bounded_language(self, ras):
        # the one-sided edge filter drops words whose zones need
        # splitting, more aggressively in the coarser variant
        assert ra_bounded_language(ras[(CLASSIC, FORALL)], 6) == {
            ("b", "a"),
            ("b", "b", "a"),
        }
        assert ra_bounded_language(ras[(REFINED, FORALL)], 6) == {
            ("b", "a"),
            ("b", "b", "a"),
            ("b", "b", "b", "a"),
            ("b", "b", "b", "b", "a"),
        }

    def test_negative_length_rejected(self, ras):
        with pytest.raises(PreconditionViolated):
            ra_bounded_language(ras[(CLASSIC, EXISTS)], -1)

    def test_boolean_length_rejected(self, ras):
        with pytest.raises(PreconditionViolated):
            ra_bounded_language(ras[(CLASSIC, EXISTS)], True)

    def test_ra_accepts(self, ras):
        R = ras[(CLASSIC, EXISTS)]
        assert ra_accepts(R, ("b", "a"))
        assert ra_accepts(R, ("b", "b", "b", "a"))
        assert not ra_accepts(R, ("a",))
        assert not ra_accepts(R, ("b",))
        assert not ra_accepts(R, ())

    def test_ra_accepts_checks_every_letter_first(self, ras):
        # "a" alone leads nowhere, yet the unknown letter after it is reported
        R = ras[(CLASSIC, EXISTS)]
        for word in (("zzz",), ("a", "zzz"), ("b", "a", "zzz")):
            with pytest.raises(UnknownLetter):
                ra_accepts(R, word)
        assert not ra_accepts(R, iter(("a", "b")))

    def test_adjacency_is_kept_with_the_build_and_is_no_field(self, ras):
        R = ras[(REFINED, EXISTS)]
        fresh = dataclasses.replace(R)
        assert "_adjacency" not in vars(fresh)
        assert ra_accepts(R, ("b", "a")) and ra_bounded_language(R, 3)
        adj = R._adjacency
        assert R._adjacency is adj
        regrouped = [(s1, a, s2) for (s1, a), targets in adj.items() for s2 in targets]
        assert Counter(regrouped) == Counter(R.edges)
        assert R == fresh and hash(R) == hash(fresh)
        assert to_json_dict(R) == to_json_dict(fresh) and to_dot(R) == to_dot(fresh)

    def test_universal_misses_a_real_word(self, ras):
        assert not ra_accepts(ras[(CLASSIC, FORALL)], ("b", "b", "b", "a"))
        assert not ra_accepts(
            ras[(REFINED, FORALL)], ("b", "b", "b", "b", "b", "a")
        )

    def test_language_empty(self, ras):
        assert not language_empty(ras[(CLASSIC, EXISTS)])
        assert not language_empty(ras[(REFINED, FORALL)])

    def test_empty_language_detected(self):
        ab = Alphabet(("a", "b"))
        dead = Ecta(
            alphabet=ab,
            locations=("q0",),
            initial="q0",
            accepting=frozenset(),
            edges=(),
        )
        assert language_empty(build(dead, 1))
        # q1 is reached only with p.a defined, so no run ends there;
        # q2 accepts but cannot be reached
        one = Alphabet(("a",))
        late = Ecta(
            alphabet=one,
            locations=("q0", "q1", "q2"),
            initial="q0",
            accepting=frozenset({"q1", "q2"}),
            edges=(Edge("q0", "a", parse_guard("p.a = 1", one), "q1"),),
        )
        for variant in (CLASSIC, REFINED):
            for quantifier in (EXISTS, FORALL):
                assert language_empty(build(late, 1, quantifier, variant))


class TestStateBudget:
    def test_a_budget_it_fits_changes_nothing(self, ainf, ras):
        R = ras[(REFINED, FORALL)]
        assert build(ainf, 2, FORALL, REFINED, max_states=len(R.states)) == R

    def test_past_the_budget(self, ainf):
        full = len(build(ainf, 2).states)
        for budget in (0, 1, 50, full - 1):
            with pytest.raises(TooManyStates, match=f"more than {budget} ") as caught:
                build(ainf, 2, max_states=budget)
            assert budget < caught.value.states <= full

    def test_bad_budget(self, ainf):
        for budget in (-1, True, 2.0, "3"):
            with pytest.raises(PreconditionViolated, match="max_states must be a natural number"):
                build(ainf, 2, max_states=budget)


class TestOutput:
    def test_dot(self, ras):
        text = to_dot(ras[(CLASSIC, FORALL)])
        assert text.startswith("digraph")
        assert "doublecircle" in text
        assert text.count("->") >= len(ras[(CLASSIC, FORALL)].edges)

    def test_json_dict(self, ras):
        R = ras[(CLASSIC, EXISTS)]
        data = to_json_dict(R)
        json.dumps(data)
        assert data["state_count"] == len(R.states) == len(data["states"])
        assert data["edge_count"] == len(R.edges) == len(data["edges"])
        assert data["cmax"] == 2
        assert data["variant"] == CLASSIC
        assert data["quantifier"] == EXISTS
        assert data["state_bound"] == 3145728
