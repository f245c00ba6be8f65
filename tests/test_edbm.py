import copy
import pickle
import random
from fractions import Fraction

import pytest

import oracles
from ecta.core import Alphabet
from ecta.core import Clock, EmptyZone, UnknownClock, Valuation, parse_guard
from ecta.core import TRUE, And, Not, Or
from ecta.core import EctaError, PreconditionViolated
from ecta.analysis import final_zone, initial_zone, post_edge, pre_edge
from ecta.edbm import (
    ANY,
    BOT,
    INF,
    B_ANY,
    B_BOT,
    B_INF,
    B_ZERO,
    Cells,
    Edbm,
    ZoneCover,
    atom_cells,
    difference_cells,
    distinct_zones,
    guard_to_zones,
    guard_zones,
    subtract_all,
    undefined_cells,
    zone_from_constraints,
)
from ecta import edbm, region_automaton
from ecta.automaton import get_example
from ecta.regions import CLASSIC, REFINED, class_cells, diagonal_cells
from oracles import bound_le, bound_min

H_A = Clock.history("a")
H_B = Clock.history("b")
P_A = Clock.prophecy("a")
P_B = Clock.prophecy("b")

ALPHABETS = [Alphabet(("a",)), Alphabet(("a", "b")), Alphabet(("a", "b", "c"))]


def seeded_zones(seed: int, count: int):
    """Seeded random and fully pinned zones over one to three letters."""
    rng = random.Random(seed)
    for k in range(count):
        alphabet = ALPHABETS[k % 3]
        maker = oracles.random_zone if k % 2 else oracles.full_zone
        yield maker(alphabet, rng), rng


def raw_tokens(alphabet, rng):
    """Seeded token rows, mostly not a normal form: loose and tight
    bounds, ``?`` and ``<inf``, and ``bot`` on one border or both."""
    size = len(alphabet.clocks) + 1
    tokens = ["?"] * 6 + ["<inf", "<=0", "<1", "<=2", "<=5", "<0"]
    rows = [[rng.choice(tokens) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        rows[i][i] = "<=0"
    for i in range(1, size):
        if rng.random() < 0.2:
            if rng.random() < 0.9:
                for j in range(size):
                    rows[i][j] = rows[j][i] = "?"
            for r, c in rng.choice([[(i, 0)], [(0, i)], [(i, 0), (0, i)]]):
                rows[r][c] = "bot"
    return rows


# The running normalization example: matrix as entered, and its tightest
# equivalent form.  Clock order is h.a, h.b, p.a, p.b after the zero row.
EXAMPLE_INPUT = [
    ["<=0", "?", "?", "bot", "?"],
    ["?", "<=0", "<1", "?", "?"],
    ["?", "<0", "<=0", "?", "<=2"],
    ["bot", "?", "?", "?", "?"],
    ["<=0", "?", "?", "?", "<=0"],
]
EXAMPLE_TIGHT = [
    ["<=0", "<0", "<=0", "bot", "<=2"],
    ["<3", "<=0", "<1", "?", "<3"],
    ["<=2", "<0", "<=0", "?", "<=2"],
    ["bot", "?", "?", "?", "?"],
    ["<=0", "<0", "<=0", "?", "<=0"],
]


class TestBoundOrder:
    """The decoded cell order of ``tests/oracles.py``, which the merge's
    raw order is checked against."""

    def test_any_is_top(self):
        for b in (B_BOT, B_ZERO, B_INF, (3, True)):
            assert bound_le(b, B_ANY)
            assert not bound_le(B_ANY, b)
        assert bound_le(B_ANY, B_ANY)

    def test_numeric_order(self):
        assert bound_le((1, True), (1, False))
        assert not bound_le((1, False), (1, True))
        assert bound_le((-2, False), (1, True))
        assert bound_le((3, False), B_INF)

    def test_bot_incomparable_with_numerics(self):
        assert bound_le(B_BOT, B_BOT)
        for b in (B_ZERO, B_INF, (-1, True)):
            assert not bound_le(B_BOT, b)
            assert not bound_le(b, B_BOT)

    @pytest.mark.parametrize("bound", [(1.5, True), (INF, False), (BOT, True), (1, 0)])
    def test_malformed_bound_is_refused(self, bound):
        # the order is on the bounds that enter; the door refuses the rest
        with pytest.raises(PreconditionViolated):
            Edbm.unconstrained(Alphabet(("a",))).with_cells([(0, 1, bound)])

    def test_bound_min(self):
        assert bound_min((1, True), (1, False)) == (1, True)
        assert bound_min(B_ANY, (2, False)) == (2, False)
        assert bound_min(B_BOT, B_ANY) == B_BOT
        assert bound_min(B_BOT, (2, False)) is None


class TestTokens:
    def test_round_trip(self, ab):
        # rows enter as their normal form, which reads back unchanged
        D = Edbm.from_tokens(ab, EXAMPLE_INPUT)
        assert D.to_tokens() == EXAMPLE_TIGHT
        assert Edbm.from_tokens(ab, D.to_tokens()) == D

    def test_bad_token(self, ab):
        with pytest.raises(ValueError):
            Edbm.from_tokens(ab, [["<=x"] * 5] * 5)

    def test_bad_token_is_an_ecta_error(self, ab):
        for token in ("<=x", "<", "~3"):
            with pytest.raises(EctaError):
                Edbm.from_tokens(ab, [[token] * 5] * 5)

    @pytest.mark.parametrize("token", ["<=\u0661_0", "<=\u0661\u0660", "<=1_0", "<= 1", "<=+1", "<1 ", "<--1", "<=-"])
    def test_numbers_in_ascii_digits_only(self, token):
        # int() reads the first two as 10 and the next three as 10 and 1
        one = Alphabet(("a",))
        rows = [["<=0", "?", "?"], [token, "<=0", "?"], ["?", "?", "<=0"]]
        with pytest.raises(PreconditionViolated, match="bad bound token"):
            Edbm.from_tokens(one, rows)

    def test_negative_bounds_still_read(self):
        one = Alphabet(("a",))
        rows = [["<=0", "<-1", "?"], ["<=3", "<=0", "?"], ["?", "?", "<=0"]]
        assert Edbm.from_tokens(one, rows).to_tokens()[0][1] == "<-1"

    def test_non_string_token_is_an_ecta_error(self):
        with pytest.raises(EctaError, match="bad bound token 3"):
            Edbm.from_tokens(Alphabet(("a",)), [[3] * 3] * 3)

    def test_row_that_is_not_a_list(self):
        one = Alphabet(("a",))
        for rows in (["???"] * 3, [["?"] * 3, "???", ["?"] * 3], [{"?": 1}] * 3):
            with pytest.raises(PreconditionViolated, match="row"):
                Edbm.from_tokens(one, rows)

    def test_wrong_size(self, ab):
        with pytest.raises(ValueError):
            Edbm.from_tokens(ab, [["?"] * 4] * 4)
        with pytest.raises(ValueError):
            Edbm.from_tokens(ab, [["?"] * 5] * 4 + [["?"] * 4])

    def test_bot_away_from_the_borders(self, ab):
        rows = [list(r) for r in EXAMPLE_INPUT]
        rows[1][2] = "bot"
        with pytest.raises(ValueError):
            Edbm.from_tokens(ab, rows)


class TestConstructor:
    @pytest.mark.parametrize("value", [2**62, 2**63, -(2**62)])
    def test_value_beyond_the_raw_range(self, ab, value):
        rows = [list(r) for r in Edbm.unconstrained(ab).cells]
        rows[1][0] = (value, False)
        with pytest.raises(PreconditionViolated):
            Edbm(ab, rows)

    def test_bot_away_from_the_borders(self, ab):
        rows = [list(r) for r in Edbm.unconstrained(ab).cells]
        rows[1][2] = B_BOT
        with pytest.raises(PreconditionViolated):
            Edbm(ab, rows)

    def test_strict_bot(self, ab):
        rows = [list(r) for r in Edbm.unconstrained(ab).cells]
        rows[1][0] = (BOT, True)
        with pytest.raises(PreconditionViolated):
            Edbm(ab, rows)

    def test_wrong_size(self, ab):
        one = Alphabet(("a",))
        with pytest.raises(PreconditionViolated):
            Edbm(one, [[B_ZERO]])
        with pytest.raises(PreconditionViolated):
            Edbm(one, [[B_ZERO, B_ANY, B_ANY]] * 2 + [[B_ANY, B_ANY]])
        with pytest.raises(PreconditionViolated):
            Edbm(ab, Edbm.unconstrained(one).cells)

    def test_well_formed_rows_are_kept(self):
        for Z, _ in seeded_zones(2525, 300):
            assert Edbm(Z.alphabet, Z.cells) == Z

    def test_rows_are_closed_where_they_enter(self):
        # h.a >= 1 and h.a <= 0: the rows say nothing at (0, 0), the zone
        # is empty
        one = Alphabet(("a",))
        rows = [["<=0", "<=-1", "?"], ["<=0", "<=0", "?"], ["?", "?", "?"]]
        assert Edbm.from_tokens(one, rows).is_empty()
        assert Edbm.from_tokens(one, rows) == Edbm.empty(one)

    def test_rows_enter_as_their_normal_form(self):
        # equality and hash are zone equality on every instance
        rng = random.Random(2626)
        not_normal = 0
        for k in range(900):
            ab = ALPHABETS[k % 3]
            rows = raw_tokens(ab, rng)
            M = Edbm.from_tokens(ab, rows)
            N = M.normalize()
            assert M == N and hash(M) == hash(N) and M.undefined == N.undefined, rows
            assert M.cells == oracles.normal_form(ab, rows), rows
            not_normal += oracles.Rows.from_tokens(ab, rows).cells != M.cells
        assert not_normal > 800, not_normal


class TestNormalize:
    def test_running_example_tightens_exactly(self, ab):
        got = Edbm.from_tokens(ab, EXAMPLE_INPUT).normalize()
        assert got.to_tokens() == EXAMPLE_TIGHT

    def test_idempotent_on_example(self, ab):
        once = Edbm.from_tokens(ab, EXAMPLE_INPUT).normalize()
        assert once.normalize().cells == once.cells

    def test_preserves_membership(self, ab):
        rng = random.Random(101)
        for _ in range(150):
            rows = raw_tokens(ab, rng)
            # the rows as entered, read by the oracle, against their normal form
            D = oracles.Rows.from_tokens(ab, rows)
            N = Edbm.from_tokens(ab, rows)
            for v in oracles.grid_points(ab, rng, 8) + oracles.nudged_points(
                N, rng, 8
            ):
                assert oracles.in_zone(D, v) == oracles.in_zone(N, v)

    def test_raw_matrices_keep_their_valuations(self):
        # unnormalized input: bot on one border or both, ? and <inf,
        # diagonals off <=0, and undefined clocks that carry numeric cells
        rng = random.Random(303)
        tokens = ["?"] * 5 + ["<inf", "<inf", "<=0", "<0", "<1", "<=2", "<3"]
        tokens += ["<=-1", "<-2"]
        diagonals = ["?", "<inf", "<0", "<=-1", "<1"]
        nonempty = undefined_numeric = 0
        for k in range(3000):
            ab = ALPHABETS[k % 3]
            size = len(ab.clocks) + 1
            density = rng.random()
            rows = [
                [rng.choice(tokens) if rng.random() < density else "?" for _ in range(size)]
                for _ in range(size)
            ]
            for i in range(size):
                rows[i][i] = "<=0" if rng.random() < 0.8 else rng.choice(diagonals)
            for i in range(1, size):
                if rng.random() >= 0.3:
                    continue
                others = [j for j in range(size) if j != i]
                if rng.random() < 0.6:
                    for j in others:
                        rows[i][j] = rows[j][i] = "?"
                elif any(rows[i][j] != "?" or rows[j][i] != "?" for j in others):
                    undefined_numeric += 1
                for r, c in rng.choice([[(i, 0)], [(0, i)], [(i, 0), (0, i)]]):
                    rows[r][c] = "bot"
            D = oracles.Rows.from_tokens(ab, rows)
            N = Edbm.from_tokens(ab, rows)
            assert N.cells == oracles.normal_form(ab, rows), rows
            nonempty += not N.is_empty()
            for v in oracles.grid_points(ab, rng, 6) + oracles.nudged_points(N, rng, 6):
                assert oracles.in_zone(D, v) == oracles.in_zone(N, v), (rows, v)
        assert nonempty > 500 and undefined_numeric > 500, (nonempty, undefined_numeric)

    def test_unsatisfiable_single_bound_is_empty(self, ab):
        # a history below -1 is impossible for real values
        D = Edbm.unconstrained(ab).with_cells([(1, 0, (-1, True))])
        assert D.is_empty()

    def test_negative_cycle_is_empty(self, ab):
        D = Edbm.unconstrained(ab).with_cells(
            [(1, 2, (0, False)), (2, 1, (-1, False))]
        )
        assert D.is_empty()

    def test_bot_with_numeric_partner_is_empty(self, ab):
        D = Edbm.unconstrained(ab).with_cells(
            [(1, 0, (BOT, False)), (0, 1, (0, False))]
        )
        assert D.is_empty()

    def test_bot_with_constrained_interior_is_empty(self, ab):
        D = Edbm.unconstrained(ab).with_cells(
            [(1, 0, (BOT, False)), (1, 2, (1, False))]
        )
        assert D.is_empty()

    def test_sign_bound_is_restored_over_looser_cells(self, ab):
        # v-hat of a prophecy clock never exceeds 0; a looser explicit
        # cell must not survive normalization, or closure misses the
        # pair constraints that keep the time operations exact
        D = Edbm.unconstrained(ab).with_cells(
            [(4, 0, (2, True)), (0, 4, (0, False))]
        )
        assert D.cells[4][0] == (0, False)

    def test_normal_form_shape(self, ab):
        rng = random.Random(202)
        for _ in range(200):
            Z = oracles.random_zone(ab, rng)
            if Z.is_empty():
                continue
            cells = Z.cells
            for i in range(1, 5):
                lower, upper = cells[i][0], cells[0][i]
                assert (lower[0] is BOT) == (upper[0] is BOT)
                assert (lower[0] is ANY) == (upper[0] is ANY)
                if lower[0] is BOT or lower[0] is ANY:
                    assert all(
                        cells[i][j][0] is ANY and cells[j][i][0] is ANY
                        for j in range(1, 5)
                        if j != i
                    )
                else:
                    assert cells[i][i] == (0, False)

    def test_sign_bound_reaches_every_prophecy_history_pair(self):
        # only the border cells get the sign bound; the closure must
        # carry it to (p, h), since p <= 0 <= h
        rng = random.Random(2121)
        tokens = ["?"] * 4 + ["<inf", "<=0", "<0", "<1", "<=2", "<3", "<=-1"]
        checked = 0
        for k in range(1500):
            ab = ALPHABETS[k % 3]
            size = len(ab.clocks) + 1
            rows = [[rng.choice(tokens) for _ in range(size)] for _ in range(size)]
            for i in range(size):
                rows[i][i] = "<=0"
            for i in range(1, size):
                if rng.random() < 0.2:
                    rows[i] = ["?"] * size
                    for row in rows:
                        row[i] = "?"
                    rows[i][0] = rows[0][i] = "bot"
            cells = Edbm.from_tokens(ab, rows).normalize().cells
            real = [i for i in range(1, size) if cells[i][0][0] not in (BOT, ANY)]
            history = len(ab.letters)
            for p in (i for i in real if i > history):
                for h in (i for i in real if i <= history):
                    assert bound_le(cells[p][h], B_ZERO), (rows, p, h)
                    checked += 1
        assert checked > 300, checked


class TestContains:
    def test_bot_cell_requires_bot(self, ab):
        D = Edbm.unconstrained(ab).with_cells([(1, 0, B_BOT), (0, 1, B_BOT)])
        assert D.contains(Valuation.undefined(ab))
        assert not D.contains(Valuation.of(ab, {"h.a": 0}))

    def test_numeric_cell_requires_real(self, ab):
        D = zone_from_constraints(ab, atoms=[(H_A, "<", 2)])
        assert D.contains(Valuation.of(ab, {"h.a": 1}))
        assert not D.contains(Valuation.undefined(ab))

    def test_any_cells_allow_everything(self, ab):
        D = Edbm.unconstrained(ab)
        assert D.contains(Valuation.undefined(ab))
        assert D.contains(Valuation.of(ab, {"h.a": 7, "p.b": "1/3"}))

    def test_empty_contains_nothing(self, ab):
        assert not Edbm.empty(ab).contains(Valuation.undefined(ab))

    def test_valuation_over_another_alphabet_raises(self, ab):
        v = Valuation.undefined(Alphabet(("a", "c")))
        with pytest.raises(UnknownClock, match="membership"):
            Edbm.unconstrained(ab).contains(v)
        with pytest.raises(UnknownClock, match="membership"):
            Edbm.unconstrained(ab).future()[0].contains(v)


class TestTimeOperations:
    def test_future_exact_when_every_clock_is_pinned(self, ab):
        rng = random.Random(303)
        for _ in range(150):
            Z = oracles.full_zone(ab, rng)
            F = Z.future()
            P = Z.past()
            for v in oracles.grid_points(ab, rng, 6) + oracles.nudged_points(
                Z, rng, 6
            ):
                assert any(p.contains(v) for p in F) == oracles.in_future(Z, v)
                assert any(p.contains(v) for p in P) == oracles.in_past(Z, v)

    def test_free_rows_only_widen(self, ab):
        # on zones with completely free clocks the rewrites are exact,
        # since each free row is split into its undefined and its real
        # case (acceptance criterion 2 checks both directions); here:
        # they never lose a valuation
        rng = random.Random(404)
        for _ in range(150):
            Z = oracles.random_zone(ab, rng)
            F = Z.future()
            P = Z.past()
            for v in oracles.grid_points(ab, rng, 5) + oracles.nudged_points(
                Z, rng, 5
            ):
                if oracles.in_future(Z, v):
                    assert any(p.contains(v) for p in F)
                if oracles.in_past(Z, v):
                    assert any(p.contains(v) for p in P)

    def test_free_row_splits_into_two_disjoint_pieces(self, ab):
        # h.a free, h.b = 1: after time t, h.a is undefined or at
        # least t, so h.a >= h.b - 1 whenever h.a is real
        Z = zone_from_constraints(ab, atoms=[(H_B, "=", 1)])
        pieces = Z.future()
        assert len(pieces) == 2
        assert pieces[0].intersect(pieces[1]).is_empty()

        def member(values):
            return any(p.contains(Valuation.of(ab, values)) for p in pieces)

        assert member({"h.b": 3})
        assert member({"h.a": 2, "h.b": 3})
        assert not member({"h.a": 1, "h.b": 3})

    def test_empty_zone_has_no_pieces(self, ab):
        E = Edbm.empty(ab)
        assert E.future() == () and E.past() == ()

    def test_future_is_idempotent(self, ab):
        rng = random.Random(505)
        for _ in range(60):
            Z = oracles.random_zone(ab, rng)
            for elapse in (Edbm.future, Edbm.past):
                once = elapse(Z)
                assert {q for p in once for q in elapse(p)} == set(once)

    def test_membership_shifts_along_elapse(self, ab):
        Z = zone_from_constraints(
            ab, atoms=[(H_A, "=", 1), (P_B, "=", 2)], undefined=[H_B, P_A]
        )
        v = Valuation.of(ab, {"h.a": 1, "p.b": 2})
        assert any(p.contains(v.elapse(Fraction(3, 2))) for p in Z.future())
        assert any(p.contains(Valuation.of(ab, {"h.a": 0, "p.b": 3})) for p in Z.past())
        assert not any(p.contains(Valuation.of(ab, {"h.a": 0, "p.b": 2})) for p in Z.past())

    def test_elapse_pieces_are_normal_forms(self):
        for Z, _ in seeded_zones(1616, 1500):
            for pieces in (Z.future(), Z.past()):
                for n, piece in enumerate(pieces):
                    assert not piece.is_empty()
                    assert piece.normalize().cells == piece.cells
                    for other in pieces[n + 1:]:
                        assert piece.intersect(other).is_empty()

    @staticmethod
    def relaxed(Z, upper):
        """Z with each real clock's moving border loosened to its sign
        bound: the elapse before any closure."""
        history = len(Z.alphabet.letters)
        work = [list(row) for row in Z.cells]
        for i in range(1, len(work)):
            r, c = (i, 0) if upper else (0, i)
            if work[r][c][0] not in (BOT, ANY):
                work[r][c] = B_ZERO if (i > history) == upper else B_INF
        return Edbm(Z.alphabet, tuple(map(tuple, work)))

    def test_elapse_is_the_closure_of_the_loosened_border(self):
        rng = random.Random(1717)
        for k in range(900):
            Z = oracles.full_zone(ALPHABETS[k % 3], rng)
            if Z.is_empty():
                continue
            for upper, elapse in ((True, Z.future), (False, Z.past)):
                (piece,) = elapse()
                assert piece == self.relaxed(Z, upper).normalize()


class TestIntersect:
    def test_agrees_pointwise(self, ab):
        rng = random.Random(606)
        prev = oracles.random_zone(ab, rng)
        for _ in range(120):
            Z = oracles.random_zone(ab, rng)
            I = Z.intersect(prev)
            for v in oracles.nudged_points(Z, rng, 6) + oracles.nudged_points(
                prev, rng, 6
            ):
                assert I.contains(v) == (Z.contains(v) and prev.contains(v))
            prev = Z

    def test_bot_conflict_is_empty(self, ab):
        undef = zone_from_constraints(ab, undefined=[H_A])
        real = zone_from_constraints(ab, atoms=[(H_A, ">", 0)])
        assert undef.intersect(real).is_empty()

    def test_alphabet_mismatch(self, ab):
        from ecta.core import Alphabet

        other = Edbm.unconstrained(Alphabet(("a", "c")))
        with pytest.raises(UnknownClock):
            Edbm.unconstrained(ab).intersect(other)
        with pytest.raises(UnknownClock, match="inclusion"):
            Edbm.unconstrained(ab).includes(other)
        with pytest.raises(UnknownClock, match="subtraction"):
            Edbm.unconstrained(ab).subtract(other)

    def test_equals_with_cells_of_the_other_zone(self):
        # the raw path of ``intersect`` against the checked one
        rng = random.Random(2626)
        for k in range(900):
            ab = ALPHABETS[k % 3]
            Z, W = oracles.random_zone(ab, rng), oracles.random_zone(ab, rng)
            cells = [
                (i, j, b) for i, row in enumerate(W.cells) for j, b in enumerate(row) if b != B_ANY
            ]
            assert Z.intersect(W) == Z.with_cells(cells), (Z.brief(), W.brief())


class TestRelease:
    def test_result_is_a_normal_form(self):
        for Z, _ in seeded_zones(1313, 600):
            for clock in Z.alphabet.clocks:
                R = Z.release(clock)
                assert R.normalize().cells == R.cells

    def test_agrees_with_definition(self, ab):
        rng = random.Random(707)
        for k in range(120):
            Z = oracles.random_zone(ab, rng)
            clock = ab.clocks[k % 4]
            R = Z.release(clock)
            for v in oracles.grid_points(ab, rng, 5) + oracles.nudged_points(
                Z, rng, 5
            ):
                assert R.contains(v) == oracles.in_release(Z, clock, v)

    def test_release_clears_row_and_column(self, ab):
        Z = zone_from_constraints(ab, atoms=[(H_A, "=", 1), (H_B, "=", 2)])
        R = Z.release(H_A)
        assert all(R.cells[1][j] == B_ANY for j in range(5))
        assert all(R.cells[j][1] == B_ANY for j in range(5))
        assert R.contains(Valuation.of(ab, {"h.b": 2}))
        assert R.contains(Valuation.of(ab, {"h.a": 9, "h.b": 2}))

    def test_empty_zone_refuses_a_foreign_clock(self, ab):
        for clock in (Clock.history("z"), Clock.prophecy("z")):
            with pytest.raises(UnknownClock):
                Edbm.empty(ab).release(clock)
            with pytest.raises(UnknownClock):
                Edbm.empty(ab).reset(clock)


class TestReset:
    def test_equals_release_then_pin(self):
        nonempty = 0
        for Z, _ in seeded_zones(2121, 3600):
            ab = Z.alphabet
            nonempty += not Z.is_empty()
            for k, clock in enumerate(ab.clocks):
                R = Z.reset(clock)
                pinned = Z.release(clock).with_cells(atom_cells(ab, k + 1, "=", 0))
                assert R == pinned, (Z.brief(), clock)
                assert R.normalize().cells == R.cells
        assert nonempty >= 1500, nonempty

    def test_agrees_with_definition(self, ab):
        rng = random.Random(808)
        for k in range(120):
            Z = oracles.random_zone(ab, rng)
            clock = ab.clocks[k % 4]
            R = Z.reset(clock)
            for v in oracles.grid_points(ab, rng, 5) + oracles.nudged_points(
                R, rng, 5
            ):
                expect = v.value(clock) == 0 and oracles.in_release(Z, clock, v)
                assert R.contains(v) == expect


class TestPin:
    def test_equals_the_merge(self):
        nonempty = 0
        for Z, _ in seeded_zones(2323, 3600):
            ab = Z.alphabet
            nonempty += not Z.is_empty()
            for k, clock in enumerate(ab.clocks):
                R = Z.pin(clock)
                assert R == Z.with_cells(atom_cells(ab, k + 1, "=", 0)), (Z.brief(), clock)
                assert R.normalize().cells == R.cells
                assert R.pin(clock) is R
        assert nonempty >= 1500, nonempty

    def test_agrees_with_definition(self, ab):
        rng = random.Random(1717)
        for k in range(120):
            Z = oracles.random_zone(ab, rng)
            clock = ab.clocks[k % 4]
            R = Z.pin(clock)
            points = oracles.grid_points(ab, rng, 5) + oracles.nudged_points(R, rng, 5)
            points += [v.set(clock, Fraction(0)) for v in oracles.nudged_points(Z, rng, 5)]
            for v in points:
                assert R.contains(v) == (v.value(clock) == 0 and oracles.in_zone(Z, v))

    def test_release_then_pin_is_reset(self):
        for Z, _ in seeded_zones(2424, 900):
            for clock in Z.alphabet.clocks:
                assert Z.release(clock).pin(clock) == Z.reset(clock), (Z.brief(), clock)

    def test_empty_zone_and_foreign_clock(self, ab):
        E = Edbm.empty(ab)
        assert E.pin(H_A) is E
        with pytest.raises(UnknownClock):
            Edbm.unconstrained(ab).pin(Clock.history("z"))
        with pytest.raises(UnknownClock):
            E.pin(Clock.prophecy("z"))


class TestIncludes:
    def test_reflexive_and_extremes(self, ab):
        rng = random.Random(808)
        for _ in range(60):
            Z = oracles.random_zone(ab, rng)
            assert Z.includes(Z)
            assert Edbm.unconstrained(ab).includes(Z)
            assert Z.includes(Edbm.empty(ab))
            if not Z.is_empty():
                assert not Edbm.empty(ab).includes(Z)

    def test_intersection_is_included(self, ab):
        rng = random.Random(909)
        prev = oracles.random_zone(ab, rng)
        for _ in range(80):
            Z = oracles.random_zone(ab, rng)
            I = Z.intersect(prev)
            assert Z.includes(I)
            assert prev.includes(I)
            prev = Z

    def test_no_false_verdicts(self, ab):
        rng = random.Random(111)
        prev = oracles.random_zone(ab, rng)
        for _ in range(120):
            Z = oracles.random_zone(ab, rng)
            if Z.includes(prev):
                for v in oracles.nudged_points(prev, rng, 10):
                    if oracles.in_zone(prev, v):
                        assert oracles.in_zone(Z, v)
            else:
                pieces = prev.subtract(Z)
                assert pieces, "non-inclusion must have a witness region"
                w = pieces[0].sample()
                assert oracles.in_zone(prev, w)
                assert not oracles.in_zone(Z, w)
            prev = Z


class TestSubtract:
    def test_self_and_empty(self, ab):
        rng = random.Random(121)
        for _ in range(40):
            Z = oracles.random_zone(ab, rng)
            assert Z.subtract(Z) == []
            if not Z.is_empty():
                assert Z.subtract(Edbm.empty(ab)) == [Z]
            assert Edbm.empty(ab).subtract(Z) == []

    def test_disjoint_exact_cover(self, ab):
        def check(Z, other, rng):
            pieces = Z.subtract(other)
            pts = (
                oracles.grid_points(Z.alphabet, rng, 5)
                + oracles.nudged_points(Z, rng, 6)
                + oracles.nudged_points(other, rng, 4)
            )
            for v in pts:
                want = oracles.in_zone(Z, v) and not oracles.in_zone(other, v)
                hits = sum(1 for p in pieces if oracles.in_zone(p, v))
                assert hits == (1 if want else 0)

        rng = random.Random(131)
        prev = oracles.random_zone(ab, rng)
        for _ in range(120):
            Z = oracles.random_zone(ab, rng)
            check(Z, prev, rng)
            prev = Z
        # every alphabet, against zones that leave some clocks undefined
        # and others free
        rng = random.Random(137)
        for k in range(240):
            alphabet = ALPHABETS[k % 3]
            clocks = alphabet.clocks
            undefined = [x for x in clocks if rng.random() < 0.3]
            atoms = [
                (x, rng.choice(("<", "<=", "=", ">=", ">")), rng.randint(0, 3))
                for x in clocks
                if x not in undefined and rng.random() < 0.4
            ]
            other = zone_from_constraints(alphabet, atoms, undefined)
            if k % 2:
                other = other.intersect(oracles.random_zone(alphabet, rng))
            check(oracles.random_zone(alphabet, rng), other, rng)
            check(oracles.full_zone(alphabet, rng), other, rng)

    def test_subtract_all(self, ab):
        Z = zone_from_constraints(ab, atoms=[(H_A, "<", 3)])
        parts = [
            zone_from_constraints(ab, atoms=[(H_A, "<", 1)]),
            zone_from_constraints(ab, atoms=[(H_A, ">", 1)]),
        ]
        rest = subtract_all(Z, parts)
        # what is left is h.a = 1 (with the matching realness demands)
        assert rest
        for piece in rest:
            assert piece.sample().value(H_A) == 1
        assert subtract_all(Z, [Z]) == []

    def test_subtract_all_checks_every_alphabet(self, ab):
        other = Edbm.unconstrained(Alphabet(("a", "c")))
        for zone in (Edbm.empty(ab), Edbm.unconstrained(ab)):
            with pytest.raises(UnknownClock):
                subtract_all(zone, [other])
            with pytest.raises(UnknownClock):
                subtract_all(zone, [Edbm.unconstrained(ab), other])


MALFORMED_UPDATES = pytest.mark.parametrize(
    "update",
    [
        (1, 2, B_BOT),
        (1, 0, (BOT, True)),
        (1, 0, (INF, False)),
        (1, 0, (Fraction(1, 2), False)),
        (0, 1, (1.5, True)),
    ],
    ids=["bot-interior", "strict-bot", "nonstrict-inf", "fraction", "float"],
)


class TestWithCells:
    def test_incomparable_update_empties(self, ab):
        D = zone_from_constraints(ab, undefined=[H_A])
        assert D.with_cells([(1, 0, (1, False))]).is_empty()

    def test_updates_are_glb(self, ab):
        D = Edbm.unconstrained(ab).with_cells([(1, 0, (2, False))])
        tightened = D.with_cells([(1, 0, (3, False))])
        assert tightened.cells[1][0] == (2, False)

    @staticmethod
    def plain(Z, updates):
        """Merge every cell into the cells of a zone or of
        :class:`oracles.Rows` by greatest lower bound, then close the rows
        by :func:`oracles.normal_form`, which shares no code with the
        merge."""
        work = [list(row) for row in Z.cells]
        for i, j, bound in updates:
            cur = bound_min(work[i][j], bound)
            if cur is None:  # "undefined" meets "real": the empty zone
                work[0][0] = (-1, True)
            else:
                work[i][j] = cur
        return oracles.normal_form(Z.alphabet, work)

    @staticmethod
    def random_update(cells, rng):
        """A random cell for a zone whose decoded rows are ``cells``."""
        size = len(cells)
        i, j = rng.randrange(size), rng.randrange(size)
        roll = rng.random()
        if roll < 0.1:
            return (i, j, B_BOT if i == 0 or j == 0 else B_ANY)
        if roll < 0.2:
            return (i, j, B_ANY)
        if roll < 0.3:
            return (i, j, B_INF)
        m, s = cells[j][i]
        if roll < 0.45 and m is not ANY and m is not BOT and m != INF:
            # level with the opposite cell: refutes it or just meets it
            return (i, j, (-m, rng.random() < 0.5))
        m, s = cells[i][j]
        if roll < 0.55 and m is not ANY and m is not BOT and m != INF:
            # the zone's own bound, possibly loosened
            return (i, j, (m + rng.randint(0, 1), s or rng.random() < 0.5))
        return (i, j, (rng.randint(-3, 3), rng.random() < 0.5))

    def test_merges_into_rows_equal_merges_into_their_normal_form(self, ab):
        # closing rows and merging cells commute: cells merged into the
        # rows as entered, then closed, give the merge into their normal form
        rng = random.Random(3131)
        loose = [["<=0", "<=0", "<=3"], ["<=5", "<=0", "<inf"], ["<inf", "<inf", "<=0"]]
        matrices = [(ab, EXAMPLE_INPUT), (ALPHABETS[0], loose)]
        matrices += [(a, raw_tokens(a, rng)) for a in ALPHABETS for _ in range(300)]
        outcomes = {"kept": 0, "emptied": 0, "tightened": 0}
        for a, rows in matrices:
            R, N = oracles.Rows.from_tokens(a, rows), Edbm.from_tokens(a, rows)
            implied = [(i, j, b) for i, row in enumerate(N.cells) for j, b in enumerate(row)
                       if rng.random() < 0.5]
            tightening = [self.random_update(N.cells, rng) for _ in range(rng.randint(0, 2))]
            bounded = [(i, j, b) for i, row in enumerate(N.cells) for j, b in enumerate(row)
                       if i != j and (numeric(b) or b == B_INF)]
            if bounded:
                i, j, (m, s) = rng.choice(bounded)
                tightening.append((i, j, (m - 1, s) if m != INF else (rng.randint(0, 3), s)))
            for cells in ([], implied, tightening):
                got = N.with_cells(cells)
                assert got.cells == self.plain(R, cells), (rows, cells)
                other = Edbm.unconstrained(a).with_cells(cells)
                assert got == N.intersect(other) == other.intersect(N), (rows, cells)
                if not N.is_empty():
                    outcomes["kept" if got == N else "emptied" if got.is_empty() else "tightened"] += 1
        assert min(outcomes.values()) > 50, outcomes

    @staticmethod
    def merge_list(Z, rng):
        """Random cells plus one aimed case: a ``bot`` and a finite cell
        for one clock, a diagonal cell, a finite cell between an
        undefined clock and another clock, or ``<inf`` over ``?``."""
        rows = Z.cells
        size = len(rows)
        cells = [TestWithCells.random_update(rows, rng) for _ in range(rng.randint(0, 3))]
        c, d = rng.randrange(1, size), rng.randrange(size)
        finite = (rng.randint(-3, 3), rng.random() < 0.5)
        roll = rng.random()
        if roll < 0.2:
            cells += [rng.choice(undefined_cells(c)), rng.choice([(c, d, finite), (d, c, finite)])]
        elif roll < 0.35:
            cells.append((c, c, rng.choice([B_INF, B_ZERO, (-1, False), (0, True), (2, True)])))
        elif roll < 0.5:
            undefined = [u for u in range(1, size) if rows[u][0] == B_BOT]
            if undefined:
                u = rng.choice(undefined)
                e = rng.choice([e for e in range(1, size) if e != u])
                cells.append(rng.choice([(u, e, finite), (e, u, finite)]))
        elif roll < 0.65:
            free = [(i, j) for i in range(size) for j in range(size)
                    if i != j and rows[i][j] == B_ANY]
            if free:
                cells.append((*rng.choice(free), B_INF))
        rng.shuffle(cells)
        return cells

    @staticmethod
    def cases(Z, cells) -> set:
        """The cases of the merge that ``cells`` exercise on ``Z``."""
        found = {"empty self"} if Z.is_empty() else {"refuted"} if TestAdmits.refuted(Z, cells) else set()
        bot_clocks, rows = {i + j for i, j, b in cells if b == B_BOT}, Z.cells
        for i, j, b in cells:
            if b in (B_BOT, B_INF) and i != j and rows[i][j] == B_ANY:
                found.add("bot write" if b == B_BOT else "<inf over ?")
            if i == j and b != B_ANY:
                found.add("diagonal")
            if i != j and numeric(b):
                if bot_clocks & {i, j} - {0}:
                    found.add("finite and bot for one clock")
                if i and j and B_BOT in (rows[i][0], rows[j][0]):
                    found.add("finite on an undefined clock's inner cell")
        return found

    def test_agrees_with_the_plain_merge(self):
        # the merge closes written cells into a normal form, incrementally
        # or by ``normalize``; the full normalization of the merged matrix,
        # on decoded cells in ``oracles.normal_form``, is the definition
        outcomes = {"kept": 0, "emptied": 0, "tightened": 0}
        seen = dict.fromkeys([
            "bot write", "<inf over ?", "diagonal", "finite and bot for one clock",
            "finite on an undefined clock's inner cell", "refuted", "empty self",
        ], 0)
        merges = 0
        for Z, rng in seeded_zones(1212, 3300):
            for P in (Z, *Z.future(), *Z.past()):
                for _ in range(4):
                    cells = self.merge_list(P, rng)
                    got, want = P.with_cells(cells), self.plain(P, cells)
                    undefined = sum(1 << i for i, row in enumerate(want) if row[0] == B_BOT)
                    assert got.cells == want and got.undefined == undefined, (P, cells)
                    merges += 1
                    for case in self.cases(P, cells):
                        seen[case] += 1
                    if not P.is_empty():
                        key = "kept" if got is P else "emptied" if got.is_empty() else "tightened"
                        outcomes[key] += 1
        assert merges >= 30000 and min(seen.values()) >= 50, (merges, seen)
        assert min(outcomes.values()) > 50, outcomes

    def test_implied_cells_return_the_zone_itself(self):
        for Z, rng in seeded_zones(1414, 200):
            own = [
                (i, j, b)
                for i, row in enumerate(Z.cells)
                for j, b in enumerate(row)
                if rng.random() < 0.5
            ]
            assert Z.with_cells(own) is Z
            loose = [(i, j, B_ANY) for i, j, _ in own] + [
                (i, j, (m + 1, s))
                for i, j, (m, s) in own
                if m is not ANY and m is not BOT and m != INF
            ]
            assert Z.with_cells(loose) is Z

    @MALFORMED_UPDATES
    def test_malformed_update_is_rejected(self, ab, update):
        with pytest.raises(ValueError):
            Edbm.unconstrained(ab).with_cells([update])

    @pytest.mark.parametrize(
        "update",
        [
            (-1, 0, (1, False)),
            (5, 0, (1, False)),
            (True, 0, (1, False)),
            (1, 0, (True, False)),
            (1, 0, (1, 0)),
            (1, 0, (1, False, 3)),
            (1, 0, [1, False]),
            (1, 0),
            (1, 0, (1, False), 0),
            5,
        ],
        ids=["negative-row", "row-out-of-range", "bool-row", "bool-value",
             "int-strictness", "triple-bound", "list-bound", "pair",
             "quadruple", "not-a-tuple"],
    )
    def test_malformed_cell_is_a_precondition_violation(self, update):
        with pytest.raises(PreconditionViolated):
            Edbm.unconstrained(Alphabet(("a",))).with_cells([update])

    @pytest.mark.parametrize("value", [2**62, -(2**62), 10**30])
    def test_value_beyond_the_raw_range_is_rejected(self, value):
        with pytest.raises(PreconditionViolated):
            Edbm.unconstrained(Alphabet(("a",))).with_cells([(1, 0, (value, False))])
        Edbm.unconstrained(Alphabet(("a",))).with_cells([(1, 0, (2**62 - 1, False))])

    @pytest.mark.parametrize("atom", [(H_A, "!=", 1), (H_A, "<", True)])
    def test_malformed_atom_is_a_precondition_violation(self, atom):
        with pytest.raises(PreconditionViolated):
            zone_from_constraints(Alphabet(("a",)), [atom])


class TestRawBounds:
    """The flat integer storage against the decoded ``cells`` view."""

    @staticmethod
    def zones():
        """Seeded normalized zones, the empty ones, and zones that differ
        only in whether a clock is undefined or real."""
        zones = [z for z, _ in seeded_zones(2121, 900)]
        for ab in ALPHABETS:
            h = ab.clocks[0]
            zones += [
                Edbm.empty(ab),
                Edbm.unconstrained(ab),
                zone_from_constraints(ab, undefined=[h]),
                zone_from_constraints(ab, atoms=[(h, "=", 1)]),
                zone_from_constraints(ab, atoms=[(h, ">=", 0)]),
                zone_from_constraints(ab, atoms=[(h, "<", 2)], undefined=ab.clocks[1:]),
            ]
        return zones

    @staticmethod
    def pairs(zones, rng):
        for z1 in zones:
            same = [z for z in zones if z.alphabet == z1.alphabet]
            for z2 in rng.sample(same, 12) + [z1]:
                yield z1, z2

    def test_includes_is_the_cellwise_order(self):
        zones = self.zones()
        for z1, z2 in self.pairs(zones, random.Random(2222)):
            # every valuation of the empty zone lies in any zone
            expected = z2.is_empty() or all(
                bound_le(b2, b1)
                for r1, r2 in zip(z1.cells, z2.cells)
                for b1, b2 in zip(r1, r2)
            )
            assert z1.includes(z2) == expected, (z1, z2)

    def test_undefined_is_never_included_in_real(self):
        for ab in ALPHABETS:
            h = ab.clocks[0]
            undefined = zone_from_constraints(ab, undefined=[h])
            real = zone_from_constraints(ab, atoms=[(h, "=", 1)])
            assert not undefined.includes(real)
            assert not real.includes(undefined)

    def test_tokens_round_trip_through_normalize(self):
        for z in self.zones():
            assert Edbm.from_tokens(z.alphabet, z.to_tokens()).normalize() == z

    def test_equality_and_hash_follow_the_cells(self):
        rng = random.Random(2323)
        zones = self.zones() + [
            oracles.random_zone(ALPHABETS[0], rng, max_const=1) for _ in range(200)
        ]
        distinct_but_equal = 0
        for z1, z2 in self.pairs(zones, rng):
            assert (z1 == z2) == (z1.cells == z2.cells)
            if z1 == z2:
                distinct_but_equal += z1 is not z2
                assert hash(z1) == hash(z2)
            copy = Edbm(z1.alphabet, z1.cells)
            assert copy == z1 and hash(copy) == hash(z1)
        assert distinct_but_equal > 0


def numeric(b) -> bool:
    return b[0] is not ANY and b[0] is not BOT and b[0] != INF


class TestAdmits:
    """The cell lists the merge of ``with_cells`` refutes before any
    closure, against its refutation test restated on decoded cells.  The
    name is that of ``Edbm.admits``, the probe folded into the merge."""

    @staticmethod
    def refuted(Z, cells) -> bool:
        """Whether merging ``cells`` in order meets a cell incomparable
        with the present one, or a numeric cell whose sum with the
        numeric opposite cell of ``Z`` is below ``<=0``; implied cells
        are skipped."""
        rows = Z.cells
        work = [list(row) for row in rows]
        for i, j, b in cells:
            present, opposite = work[i][j], rows[j][i]
            if bound_le(present, b):
                continue
            if bound_min(present, b) is None:
                return True
            if numeric(b) and numeric(opposite):
                total = b[0] + opposite[0]
                if total < 0 or (total == 0 and (b[1] or opposite[1])):
                    return True
            work[i][j] = b
        return False

    @staticmethod
    def class_lists(alphabet, cmax):
        """The cells of every clock class and every difference class of
        the region walk at ``cmax``."""
        n = len(alphabet.clocks)
        for i in range(n):
            for rank in [None, *range(2 * cmax + 2)]:
                yield class_cells(alphabet, i, rank, cmax)
        for i in range(n):
            for j in range(i + 1, n):
                for rank in range(-4 * cmax - 1, 4 * cmax + 2):
                    yield diagonal_cells(i, j, rank, cmax)

    def test_refuses_exactly_what_the_merge_refutes(self, monkeypatch):
        # every merge that writes a cell closes it in ``_close``, whether
        # incrementally or by ``normalize``
        closures = 0
        close = Edbm._close

        def counted(Z, written):
            nonlocal closures
            closures += 1
            return close(Z, written)

        monkeypatch.setattr(Edbm, "_close", counted)
        outcomes = {"admitted": 0, "refused": 0}
        for Z, _ in seeded_zones(1616, 90):
            for cmax in range(4):
                for cells in self.class_lists(Z.alphabet, cmax):
                    refused = self.refuted(Z, cells)
                    before = closures
                    got = Z.with_cells(cells)
                    if refused:
                        assert got is Edbm.empty(Z.alphabet), (Z, cells)
                        assert closures == before, (Z, cells)
                    elif not Z.is_empty():
                        # a closure runs exactly when a cell was written
                        assert closures == before + (got is not Z), (Z, cells)
                    outcomes["refused" if refused else "admitted"] += 1
        assert min(outcomes.values()) > 1000, outcomes

    def test_cells_of_one_list_meet_each_other(self, ab):
        # on ``?`` each cell alone is admitted; together they conflict
        clash = [(1, 0, B_BOT), (1, 0, (1, False))]
        for cell in clash:
            assert not Edbm.unconstrained(ab).with_cells([cell]).is_empty()
        assert Edbm.unconstrained(ab).with_cells(clash) is Edbm.empty(ab)

    @MALFORMED_UPDATES
    def test_malformed_update_is_rejected(self, ab, update):
        # checked whatever the zone, the empty one included
        for Z in (Edbm.unconstrained(ab), Edbm.empty(ab)):
            with pytest.raises(PreconditionViolated):
                Z.with_cells([update])

    def test_every_cell_is_checked_after_a_refusal(self, ab):
        undefined = zone_from_constraints(ab, undefined=[H_A])
        with pytest.raises(PreconditionViolated):
            undefined.with_cells([(1, 0, (1, False)), (1, 2, B_BOT)])


class TestMarkers:
    def test_pickled_cells_keep_the_markers(self):
        a = Alphabet(("a",))
        cells = pickle.loads(pickle.dumps(undefined_cells(1)))
        assert cells[0][2][0] is BOT
        assert Edbm.unconstrained(a).with_cells(cells) == zone_from_constraints(a, undefined=[H_A])

    def test_copied_markers_are_the_singletons(self):
        assert copy.deepcopy(B_ANY)[0] is ANY
        assert copy.deepcopy(B_BOT)[0] is BOT
        assert copy.copy(ANY) is ANY

    def test_zone_pickled_after_its_cells_were_read(self, ab):
        Z = zone_from_constraints(ab, atoms=[(H_A, "<", 2)], undefined=[P_A])
        Z.cells
        back = pickle.loads(pickle.dumps(Z))
        assert back == Z and back.cells == Z.cells
        cells = [(i, j, b) for i, row in enumerate(back.cells) for j, b in enumerate(row)]
        assert Edbm.unconstrained(ab).with_cells(cells) == Z


def fraction_sample(Z) -> Valuation:
    """A sample point as exact fractions, read off the decoded cells:
    per constrained clock in order, a closed end of its interval from
    the clocks assigned so far, else one step inside its one bound, else
    the midpoint.  The reference for ``Edbm.sample``."""
    cells, history = Z.cells, len(Z.alphabet.letters)
    assigned = {0: Fraction(0)}
    for i in range(1, len(cells)):
        if not numeric(cells[i][0]) and cells[i][0] != B_INF:
            continue
        below = [(j, cells[j][i]) for j in assigned if numeric(cells[j][i])]
        above = [(j, cells[i][j]) for j in assigned if numeric(cells[i][j])]
        lo = max(((assigned[j] - m, s) for j, (m, s) in below), default=None)
        hi = min(((assigned[j] + m, s) for j, (m, s) in above),
                 key=lambda b: (b[0], not b[1]), default=None)
        if lo is None or hi is None:
            value, strict = lo or hi or (Fraction(0), False)
            assigned[i] = value if not strict else value + 1 if hi is None else value - 1
        elif not lo[1] or not hi[1]:
            assigned[i] = hi[0] if lo[1] else lo[0]
        else:
            assigned[i] = (lo[0] + hi[0]) / 2
    return Valuation(Z.alphabet, tuple(
        None if i not in assigned else assigned[i] if i <= history else -assigned[i]
        for i in range(1, len(cells))
    ))


class TestRanks:
    def test_ranks_read_the_normal_form(self, ab):
        # h.a in (1, 2], p.a = 0, h.b undefined, p.b free; ranks are
        # half-units, 2v for an integer v and 2k + 1 for (k, k + 1)
        Z = zone_from_constraints(
            ab, [(H_A, ">", 1), (H_A, "<=", 2), (P_A, "=", 0)], [H_B]
        )
        assert Z.ranks(1, 0) == (False, (3, 4))
        assert Z.ranks(0, 1) == (False, (-4, -3))
        assert Z.ranks(1, 3) == (False, (3, 4))  # sv(p.a) = -0
        assert Z.ranks(0, 3) == (False, (0, 0))  # a prophecy value is -sv
        assert Z.ranks(2, 0) == (True, None)
        assert Z.ranks(4, 0) == Z.ranks(0, 4) == (True, (None, None))
        assert Z.ranks(1, 2) == (True, None)
        assert zone_from_constraints(ab, [(H_A, ">", 1)]).ranks(1, 0) == (False, (3, None))


class TestFromRanks:
    def test_inverse_of_ranks(self, ab):
        # h.a in (1, 2), h.b undefined, p.a = 0 and p.b above the cap 2,
        # then h.a and p.b in (0, 1), sv(h.a) nearer its next integer 1
        # than sv(p.b) its next integer 0: 1 - h.a < p.b
        Z = Edbm.from_ranks(ab, (3, None, 0, 5), ((0,),), 2)
        assert Z == zone_from_constraints(
            ab, [(H_A, ">", 1), (H_A, "<", 2), (P_A, "=", 0), (P_B, ">", 2)], [H_B]
        )
        assert [Z.ranks(1, 0), Z.ranks(0, 3), Z.ranks(0, 4)] == [
            (False, (3, 3)), (False, (0, 0)), (False, (5, None))
        ]
        W = Edbm.from_ranks(ab, (1, None, None, 1), ((0,), (3,)), 2)
        assert W.contains(Valuation(ab, (Fraction(9, 10), None, None, Fraction(1, 2))))
        assert not W.contains(Valuation(ab, (Fraction(1, 2), None, None, Fraction(2, 5))))

    def test_refuses_the_wrong_number_of_classes(self, ab):
        for classes in [(), (0, 0, 0), (0, 0, 0, 0, 0)]:
            with pytest.raises(PreconditionViolated):
                Edbm.from_ranks(ab, classes, (), 1)

    def test_refuses_a_bad_rank(self, ab):
        # ranks run from 0 to 2 * cap + 1, as plain ints
        for rank in [-1, 4, True, 1.0, "1", Fraction(1)]:
            with pytest.raises(PreconditionViolated):
                Edbm.from_ranks(ab, (rank, None, None, None), (), 1)
        with pytest.raises(PreconditionViolated):
            Edbm.from_ranks(ab, (None,) * 4, (), -1)

    def test_refuses_fracs_that_do_not_partition_the_odd_clocks(self, ab):
        # h.a and p.b in (0, 1), h.b = 1, p.a above the cap 1
        classes = (1, 2, 3, 1)
        assert not Edbm.from_ranks(ab, classes, ((0, 3),), 1).is_empty()
        for fracs in [(), ((0,),), ((0, 3, 3),), ((0,), (0, 3)), ((0, 3), (1,)),
                      ((0, 3), (2,)), ((0,), (), (3,)), ([0, 3],), (0, 3)]:
            with pytest.raises(PreconditionViolated):
                Edbm.from_ranks(ab, classes, fracs, 1)


class TestSample:
    @staticmethod
    def check(Z):
        v = Z.sample()
        assert v == fraction_sample(Z), Z
        assert Z.contains(v), Z
        for value in v.values:
            if value is not None:
                d = value.denominator
                assert d & (d - 1) == 0, (Z, v)
        return v

    def test_seeded_zones_match_the_fraction_sample(self):
        nonempty = 0
        for Z, _ in seeded_zones(1818, 7500):
            if not Z.is_empty():
                self.check(Z)
                nonempty += 1
        assert nonempty >= 3000

    def test_sample_is_the_valuation_of_its_values(self):
        # sample builds its Valuation unchecked: the checked constructor
        # gives an equal one, with the same hash and repr, of Fractions
        for Z, _ in seeded_zones(1818, 7500):
            if not Z.is_empty():
                v = Z.sample()
                w = Valuation(Z.alphabet, v.values)
                assert (v, hash(v), repr(v)) == (w, hash(w), repr(w)), Z
                assert all(type(x) is Fraction for x in v.values if x is not None), Z
        # which still refuses floats, bools and negative values
        ab = Alphabet(("a",))
        for bad, error in ((0.5, TypeError), (True, TypeError), (Fraction(-1, 2), PreconditionViolated)):
            with pytest.raises(error):
                Valuation(ab, (bad, None))

    def test_each_clock_may_take_a_midpoint(self):
        # every clock lies strictly between the last signed value and 0,
        # the first history clock below 1 and the first prophecy clock
        # above the last history value minus 1
        for ab in ALPHABETS:
            n, history = len(ab.clocks), len(ab.letters)
            cells = []
            for i in range(1, n + 1):
                if i <= history:
                    cells += difference_cells(i, 0, ">", 0)
                    cells += difference_cells(i, 0, "<", 1) if i == 1 else difference_cells(i, i - 1, "<", 0)
                else:
                    cells += difference_cells(i, 0, "<", 0)
                    cells += difference_cells(i, i - 1, ">", -1 if i == history + 1 else 0)
            v = self.check(Edbm.unconstrained(ab).with_cells(cells))
            assert max(x.denominator for x in v.values) == 2**n

    def test_leaves_of_the_ainf_builds_match_the_fraction_sample(self, monkeypatch):
        leaves = []
        sample = Edbm.sample

        def recording(Z):
            leaves.append(Z)
            return sample(Z)

        monkeypatch.setattr(Edbm, "sample", recording)
        A = get_example("ainf")
        for cmax in (1, 2, 3):
            for variant in (CLASSIC, REFINED):
                for quantifier in (region_automaton.EXISTS, region_automaton.FORALL):
                    region_automaton.build(A, cmax, quantifier, variant)
        monkeypatch.undo()
        halves = 0
        for Z in set(leaves):
            v = self.check(Z)
            halves += any(x is not None and x.denominator > 1 for x in v.values)
        assert len(set(leaves)) > 900 and halves > 100

    def test_empty_raises(self, ab):
        with pytest.raises(EmptyZone):
            Edbm.empty(ab).sample()

    def test_respects_bot_and_bounds(self, ab):
        Z = zone_from_constraints(
            ab,
            atoms=[(H_A, ">", 1), (H_A, "<", 2), (P_B, "=", 0)],
            undefined=[P_A],
        )
        v = Z.sample()
        assert Z.contains(v)
        assert 1 < v.value(H_A) < 2
        assert v.value(P_A) is None
        assert v.value(P_B) == 0


class TestGuardZones:
    def test_atom_tables(self, ab):
        cases = [
            ("h.a < 2", {"h.a": 1}, True),
            ("h.a < 2", {"h.a": 2}, False),
            ("h.a = 2", {"h.a": 2}, True),
            ("h.a > 2", {"h.a": "5/2"}, True),
            ("p.a < 2", {"p.a": "3/2"}, True),
            ("p.a > 2", {"p.a": 2}, False),
        ]
        for text, entries, expect in cases:
            zones = guard_to_zones(parse_guard(text), ab)
            v = Valuation.of(ab, entries)
            assert any(z.contains(v) for z in zones) == expect, text

    def test_union_matches_guard_satisfaction(self, ab):
        rng = random.Random(141)
        for _ in range(200):
            g = oracles.random_guard(ab, rng)
            zones = guard_to_zones(g, ab)
            for v in oracles.grid_points(ab, rng, 10):
                assert any(z.contains(v) for z in zones) == v.satisfies(g)

    def test_negated_atom_includes_bot_branch(self, ab):
        zones = guard_to_zones(parse_guard("!(h.a = 1)"), ab)
        undef = Valuation.undefined(ab)
        assert any(z.contains(undef) for z in zones)
        assert not any(z.contains(Valuation.of(ab, {"h.a": 1})) for z in zones)
        assert any(z.contains(Valuation.of(ab, {"h.a": 2})) for z in zones)

    def test_same_zones_in_the_same_order_as_the_dnf(self):
        for Z, rng in seeded_zones(4242, 600):
            ab = Z.alphabet
            g = oracles.random_guard(ab, rng, depth=4)
            dnf = oracles.guard_dnf(g, ab)
            top = Edbm.unconstrained(ab)
            expected = distinct_zones(top.with_cells(c) for c in dnf)
            assert guard_to_zones(g, ab) == expected, g
            expected = distinct_zones(Z.with_cells(c) for c in dnf)
            assert guard_zones(Z, g) == expected, (Z.brief(), g)

    def test_unknown_clock_in_a_branch_left_unwalked(self, ab):
        # h.a < 0 is empty, so the walk never reaches the right side
        with pytest.raises(UnknownClock):
            guard_to_zones(parse_guard("h.a < 0 && h.c < 1"), ab)

    def test_long_guards_keep_few_zones(self):
        # 3^90 and 2^90 disjuncts in normal form, 4 zones and 1 zone met
        ab = Alphabet(("a",))
        negated = " && ".join(f"!(h.a = {k % 3})" for k in range(90))
        repeated = " && ".join(["(h.a < 1 || h.a < 1)"] * 90)
        cases = {
            negated: [
                zone_from_constraints(ab, [(H_A, ">", 0), (H_A, "<", 1)]),
                zone_from_constraints(ab, [(H_A, ">", 1), (H_A, "<", 2)]),
                zone_from_constraints(ab, [(H_A, ">", 2)]),
                zone_from_constraints(ab, undefined=[H_A]),
            ],
            repeated: [zone_from_constraints(ab, [(H_A, "<", 1)])],
        }
        for text, expected in cases.items():
            assert guard_to_zones(parse_guard(text), ab) == expected


def stepped_zones(seed: int, count: int):
    """Zones that ``post_edge`` and ``pre_edge`` reach within two steps
    from the initial and final zones of seeded automata over 2 and 3
    letters and of the built-in examples, ``count`` of them at most."""
    rng = random.Random(seed)
    automata = [get_example(name) for name in ("ainf", "backdiv", "nofinite")]
    automata += [oracles.random_automaton(ALPHABETS[1 + k % 2], rng, edges=(3, 6)) for k in range(20)]
    zones = []
    for A in automata:
        for step, start in ((post_edge, initial_zone), (pre_edge, final_zone)):
            frontier = [start(A.alphabet)]
            for _ in range(2):
                frontier = [z for Z in frontier for e in A.edges for z in step(A.alphabet, e, Z)]
                zones += frontier[:count // 40 + 1]
    return zones[:count]


def guards_and_zones(seed: int):
    """Seeded (guard, zone) pairs over 2 and 3 letters: the zones of
    :func:`stepped_zones` and random ``with_cells`` zones, each with a
    random guard of depth up to 4, ``<``, ``=`` and ``>`` atoms under
    ``!``, ``&&`` and ``||``."""
    rng = random.Random(seed)
    zones = stepped_zones(seed, 400)
    zones += [oracles.random_zone(ALPHABETS[1 + k % 2], rng) for k in range(300)]
    return [(oracles.random_guard(Z.alphabet, rng, max_const=3, depth=rng.randint(1, 4)), Z) for Z in zones]


class TestCells:
    def test_compiled_walk_matches_the_per_call_walk(self):
        pairs = guards_and_zones(2323)
        seen = {"letters": set(), "ops": set(), "nodes": set(), "nested": 0, "stepped": 0}
        for g, Z in pairs:
            expected = oracles.guard_zones_per_call(Z, g)
            assert guard_zones(Z, g) == expected, (Z.brief(), g)
            assert guard_zones(Z, g) == expected, (Z.brief(), g)  # compiled this time
            seen["letters"].add(len(Z.alphabet.letters))
            seen["ops"].update(a.op for a in g.atoms())
            seen["nodes"].update(type(n).__name__ for n in _subguards(g))
            seen["nested"] += any(isinstance(n, (And, Or)) and isinstance(m, (And, Or))
                                  for n in _subguards(g) for m in _subguards(n) if m is not n)
            seen["stepped"] += not Z.is_empty() and len(expected) > 1
        assert len(pairs) >= 500
        assert seen["letters"] == {2, 3} and seen["ops"] == {"<", "=", ">"}
        assert {"Not", "And", "Or", "Atom"} <= seen["nodes"]
        assert seen["nested"] >= 50 and seen["stepped"] >= 50

    def test_stepped_zones_come_from_the_searches(self):
        zones = stepped_zones(2323, 400)
        assert len(zones) == 400
        assert {len(Z.alphabet.letters) for Z in zones} >= {2, 3}
        assert len(set(zones)) > 100

    def test_one_guard_over_two_alphabets(self):
        g = parse_guard("!(h.a = 1) && p.a < 2")
        for ab in ALPHABETS:
            for _ in range(2):
                Z = Edbm.unconstrained(ab)
                assert guard_zones(Z, g) == oracles.guard_zones_per_call(Z, g)
        assert set(g._compiled) == set(ALPHABETS)

    def test_unknown_clock_on_every_call(self, ab):
        g = parse_guard("h.a < 0 && h.c < 1")  # h.a < 0 leaves h.c < 1 unwalked
        for zone in (Edbm.empty(ab), Edbm.unconstrained(ab), Edbm.empty(ab)):
            for _ in range(2):
                with pytest.raises(UnknownClock):
                    guard_zones(zone, g)
        assert ab not in g._compiled

    def test_not_a_guard(self, ab):
        for g in (Not(And(TRUE, "h.a < 1")), "h.a < 1"):
            with pytest.raises(TypeError, match="not a guard"):
                guard_zones(Edbm.unconstrained(ab), g)

    def test_merges_as_the_plain_list(self):
        for Z, rng in seeded_zones(2424, 300):
            updates = _random_cells(Z.alphabet, rng)
            assert Z.with_cells(Cells(Z.alphabet, updates)) == Z.with_cells(updates)

    def test_refused_over_another_alphabet(self):
        one, two, other = Alphabet(("a",)), Alphabet(("a", "b")), Alphabet(("b",))
        for cells, zone in ((Cells(one, []), Edbm.unconstrained(two)),
                            (Cells(one, undefined_cells(1)), Edbm.unconstrained(other)),
                            (Cells(two, atom_cells(two, 1, "<", 2)), Edbm.empty(one))):
            with pytest.raises(PreconditionViolated, match="another alphabet"):
                zone.with_cells(cells)
        assert Edbm.unconstrained(one).with_cells(Cells(one, undefined_cells(1))) == (
            zone_from_constraints(one, undefined=[H_A]))

    @pytest.mark.parametrize("cell", [
        (1, 2, B_BOT), (0, 5, (1, False)), (0, 1, (1, 1)), (0, 1, (INF, False)),
        (0, 1, (1 << 62, False)), (0, 1, (True, False)), (0, 1, (ANY, True)), (0, 1), "cell",
    ])
    def test_malformed_cell_refused_when_built(self, ab, cell):
        with pytest.raises(PreconditionViolated, match="bad cell"):
            Cells(ab, [(0, 1, (1, False)), cell])

    def test_survives_pickle_and_deepcopy(self, ab):
        cells = Cells(ab, undefined_cells(1) + [(0, 2, B_ANY), (2, 0, B_INF), (3, 4, (-2, True))])
        for back in (pickle.loads(pickle.dumps(cells)), copy.deepcopy(cells)):
            assert back == cells and hash(back) == hash(cells)
            Z = Edbm.unconstrained(ab)
            assert Z.with_cells(back) == Z.with_cells(cells) == Z.with_cells(
                undefined_cells(1) + [(0, 2, B_ANY), (2, 0, B_INF), (3, 4, (-2, True))])

    def test_immutable(self, ab):
        cells = Cells(ab, undefined_cells(1))
        with pytest.raises(AttributeError):
            cells.raw = ()


def _subguards(g):
    yield g
    for child in (getattr(g, "inner", None), getattr(g, "left", None), getattr(g, "right", None)):
        if child is not None:
            yield from _subguards(child)


def _random_cells(ab, rng):
    size = len(ab.clocks) + 1
    cells = []
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randrange(size), rng.randrange(size)
        if rng.random() < 0.15 and (i == 0 or j == 0):
            cells.append((i, j, rng.choice([B_BOT, B_ANY, B_INF])))
        else:
            cells.append((i, j, (rng.randint(-3, 3), rng.random() < 0.5)))
    return cells


NEAR_LIMIT = (1 << 62) - 1


def near_limit_zone(alphabet, rng):
    """Bounds of about -(2**62 - 1) chained in the order of signed values,
    prophecy clocks, then 0, then history clocks, so that the closure sums
    them to raw bounds past -2**63; and a few upper bounds of 2**62 - 1."""
    k = len(alphabet.letters)
    history, prophecy = list(range(1, k + 1)), list(range(k + 1, 2 * k + 1))
    rng.shuffle(history)
    rng.shuffle(prophecy)
    chain = prophecy + [0] + history
    cells = [
        (u, v, (-rng.choice((NEAR_LIMIT, NEAR_LIMIT - 1)), rng.random() < 0.5))
        for u, v in zip(chain, chain[1:])
        if rng.random() < 0.8
    ]
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(chain, 2)
        cells.append((u, v, (NEAR_LIMIT, rng.random() < 0.5)))
    return Edbm.unconstrained(alphabet).with_cells(cells)


def drifting_zone(alphabet, rng):
    """The zone after n rounds of letting time pass until ``h.b`` exceeds
    2**62 - 1 and resetting it, while ``h.a`` runs on: the bound on
    ``sv(h.b) - sv(h.a)`` falls below -n (2**62 - 1), and its raw bound
    past -2**70 once n reaches 129."""
    h_a, h_b = alphabet.clocks[:2]
    b = alphabet.index_of(h_b) + 1
    zone = zone_from_constraints(alphabet, [(h_a, "=", rng.randint(0, 3)), (h_b, "=", 0)])
    for _ in range(rng.randint(110, 140)):
        zone = zone.future()[-1].with_cells(atom_cells(alphabet, b, ">", NEAR_LIMIT))
        zone = zone.reset(h_b)
    return zone


def lowest_value(zone) -> int:
    return min(b[0] for row in zone.cells for b in row if type(b[0]) is int)


class TestZoneCover:
    """``ZoneCover.add`` against the plain scan it replaces: keep a zone
    unless a kept one includes it."""

    @staticmethod
    def sequence(alphabet, rng, length):
        """Seeded zones, tighter ones first so that most are kept, and a
        fifth of them moved to the end, where many are covered."""
        makers = [oracles.random_zone] * 8 + [oracles.full_zone] * 6 + [near_limit_zone] * 4
        makers += [drifting_zone, lambda ab, rng: Edbm.empty(ab)]
        zones = [rng.choice(makers)(alphabet, rng) for _ in range(length)]
        zones.sort(key=lambda z: sum(b[0] is ANY or b[0] == INF for row in z.cells for b in row))
        late = set(rng.sample(range(length), length // 5))
        return [z for k, z in enumerate(zones) if k not in late] + [zones[k] for k in late]

    @staticmethod
    def plain_add(kept, zone) -> bool:
        if any(k.includes(zone) for k in kept):
            return False
        kept.append(zone)
        return True

    @staticmethod
    def check_the_tree(cover):
        """Each top is the cellwise maximum of the raw tuples or tops of
        its block, a closed block holds ``_BLOCK`` entries and a level
        fewer open ones, no level is more than the kept zones need, and
        the leaves, read in order, are the kept zones, each once."""
        levels, size = cover._levels, edbm._BLOCK

        def leaves(depth, entries):
            if not depth:
                return list(entries)
            found = []
            for top, block in entries:
                assert len(block) == size
                rows = [z.raw for z in block] if depth == 1 else [t for t, _ in block]
                assert top == tuple(max(column) for column in zip(*rows))
                found += leaves(depth - 1, block)
            return found

        assert all(len(entries) < size for entries in levels)
        assert size ** (len(levels) - 1) <= max(1, len(cover.zones))
        found = [z for depth in reversed(range(len(levels))) for z in leaves(depth, levels[depth])]
        assert list(map(id, found)) == list(map(id, cover.zones))

    def agree_with_the_plain_scan(self, rng):
        seen, covered = [], 0
        for k in range(12):
            ab = ALPHABETS[1 + k % 2]
            cover, kept = ZoneCover(), []
            zones = self.sequence(ab, rng, 90)
            for z in zones:
                added = cover.add(z)
                assert added == self.plain_add(kept, z), z
                covered += not added
            assert cover.zones == kept
            self.check_the_tree(cover)
            seen.append((len(kept), zones))
        # every sequence keeps three blocks of 8 zones or more, many zones
        # are covered, and they hold raw bounds past -2**63 and past -2**70
        assert min(n for n, _ in seen) >= 24 and covered >= 300
        lows = [lowest_value(z) for _, zones in seen for z in zones if not z.is_empty()]
        assert sum(low < -(1 << 62) for low in lows) >= 100
        assert sum(low < -(1 << 69) for low in lows) >= 10

    def test_agrees_with_the_plain_scan(self):
        self.agree_with_the_plain_scan(random.Random(3434))

    @pytest.mark.parametrize("block", [2, 3])
    def test_agrees_with_the_plain_scan_in_small_blocks(self, block, monkeypatch):
        # deeper trees over the same zones; a block of 1 would close a
        # new level at every close, without end
        monkeypatch.setattr(edbm, "_BLOCK", block)
        self.agree_with_the_plain_scan(random.Random(3434))

    @staticmethod
    def pinned(ab, count):
        """Pairwise disjoint zones: ``h.a = k`` for each k below count."""
        return [zone_from_constraints(ab, [(ab.clocks[0], "=", k)]) for k in range(count)]

    def test_a_zone_covered_only_in_a_later_closed_block(self):
        ab, size = ALPHABETS[1], edbm._BLOCK
        count = size * size + size + size // 2
        cover = ZoneCover()
        assert all(map(cover.add, self.pinned(ab, count)))
        assert list(map(len, cover._levels)) == [size // 2, 1, 1]
        self.check_the_tree(cover)
        h_a, h_b = ab.clocks[:2]
        for k in (0, size, size * size - 1, size * size, size * size + size - 1, count - 1):
            # of the kept zones only h.a = k includes this one; it sits in
            # a block two levels down, in a block one level down or open
            inner = zone_from_constraints(ab, [(h_a, "=", k), (h_b, "<", 3)])
            assert not cover.add(inner), k
        assert cover.add(zone_from_constraints(ab, [(h_a, "=", count)]))

    def test_zones_with_cells_far_below_zero_sit_in_closed_blocks(self):
        rng = random.Random(3737)
        ab = ALPHABETS[1]
        deep = [drifting_zone(ab, rng) for _ in range(24)]
        deep = [z for z in deep if lowest_value(z) < -(1 << 69)]
        pinned = self.pinned(ab, 60)
        cover, kept = ZoneCover(), []
        # a raw bound past -2**70 is a cell like any other: the tops above
        # these zones hold the other zones' bounds there
        for z in pinned[:36] + deep + deep + pinned:
            assert cover.add(z) == self.plain_add(kept, z), z
        assert cover.zones == kept
        assert sum(z in kept for z in deep) >= 4 and not any(z in cover._levels[0] for z in deep)
        self.check_the_tree(cover)

    def test_the_empty_zone_is_covered_once_a_zone_is_kept(self):
        rng = random.Random(3535)
        for ab in ALPHABETS[1:]:
            for count in (0, 1, 60):
                cover, kept = ZoneCover(), []
                for z in self.sequence(ab, rng, count):
                    cover.add(z)
                    self.plain_add(kept, z)
                added = cover.add(Edbm.empty(ab))
                assert added == (not kept) == self.plain_add(kept, Edbm.empty(ab))

    def test_another_alphabet_raises(self):
        rng = random.Random(3636)
        for count in (1, 5, 60):
            ab, other = ALPHABETS[1], ALPHABETS[2]
            cover = ZoneCover()
            for z in self.sequence(ab, rng, count):
                cover.add(z)
            before = list(cover.zones)
            for z in (Edbm.unconstrained(other), Edbm.empty(other)):
                with pytest.raises(UnknownClock):
                    cover.add(z)
                with pytest.raises(UnknownClock):
                    any(k.includes(z) for k in before)
            assert cover.zones == before
