"""Seeded inputs for the benchmark: automata, relabelings and job lists.

The automata come from a fixed generator corpus: instance ``i`` is
always the same automaton, so the cost of a workload does not swing
with which instances a seed happens to draw.  The run's seed then
renames the letters and locations and reorders the edges of every
automaton, and orders the jobs.  Verdicts are invariant under
these changes, so they can be checked against one set of expectations;
costs move only as far as search order moves them.

Only ``<``, ``=`` and ``>`` atoms are generated: ``parse_guard`` and
``Atom`` reject ``<=`` and ``>=``, although the package README lists
them.
"""

from __future__ import annotations

import random
from pathlib import Path

from ecta import (
    CLASSIC,
    EXISTS,
    FORALL,
    REFINED,
    TRUE,
    Alphabet,
    And,
    Atom,
    Clock,
    Ecta,
    Edge,
    Not,
    Or,
    back_exact,
    build,
    format_ecta,
    forw_exact,
    get_example,
    language_empty,
    mirror,
    parse_ecta,
)

LETTERS = ("a", "b", "c")
GEN_CMAX = 2
REGION_CMAXES = (1, 2, 3)
# Automata shared by ``region`` and ``zone``: small enough that their
# region builds stay near a second each.
SHARED_SIZES = (3, 4)
SHARED_COUNT = 3
# Corpus instances per ``zone`` pass, alternating 2 and 3 letters.
ZONE_COUNT = 40
# Keeps a search that never concludes to about a second.
ZONE_FUEL = 300
DIVERGE_FUEL = 300
# Bounded-language length checked on every ainf ``exists`` build.
AINF_WORD_LENGTH = 4


def _literal(rng: random.Random, letters: tuple[str, ...]):
    kind = rng.choice((Clock.history, Clock.prophecy))
    atom = Atom(kind(rng.choice(letters)), rng.choice("<=>"), rng.randint(0, GEN_CMAX))
    return Not(atom) if rng.random() < 0.3 else atom


def generated(index: int, letter_count: int, sizes: tuple[int, int] = (5, 8)) -> Ecta:
    """Instance ``index`` of the corpus over ``letter_count`` letters.

    ``sizes`` bounds the number of locations.  The start is
    non-accepting, with a non-accepting start, one or two accepting
    locations, two or three edges out of every location, and guards made
    of one or two literals joined by ``&&``.
    """
    rng = random.Random(f"ecta-bench:{letter_count}:{sizes}:{index}")
    letters = LETTERS[:letter_count]
    locations = tuple(f"q{j}" for j in range(rng.randint(*sizes)))
    accepting = frozenset(rng.sample(locations[1:], rng.randint(1, 2)))
    edges = []
    for q in locations:
        for _ in range(rng.randint(2, 3)):
            guard = _literal(rng, letters)
            if rng.random() < 0.5:
                guard = And(guard, _literal(rng, letters))
            edges.append(Edge(q, rng.choice(letters), guard, rng.choice(locations)))
    return Ecta(Alphabet(letters), locations, locations[0], accepting, tuple(edges))


def _rename_guard(g, sigma: dict[str, str]):
    if g is TRUE:
        return g
    if isinstance(g, Atom):
        return Atom(Clock(sigma[g.clock.letter], g.clock.kind), g.op, g.bound)
    if isinstance(g, Not):
        return Not(_rename_guard(g.inner, sigma))
    if isinstance(g, (And, Or)):
        return type(g)(_rename_guard(g.left, sigma), _rename_guard(g.right, sigma))
    raise TypeError(f"not a guard: {g!r}")


def relabel(A: Ecta, rng: random.Random) -> tuple[Ecta, dict[str, str]]:
    """An isomorphic copy of ``A`` and the letter renaming it used.

    Letters and locations get new names and the edges a new order.  Each
    clock keeps its index: swapping the roles of the two letters of ainf
    in the alphabet order made ``build(ainf, 3, EXISTS, REFINED)`` call
    ``normalize`` 17% more often.
    """
    letters = list(A.alphabet.letters)
    sigma = dict(zip(letters, rng.sample(letters, len(letters))))
    names = rng.sample(range(len(A.locations)), len(A.locations))
    rename = {q: f"s{k}" for q, k in zip(A.locations, names)}
    edges = [
        Edge(rename[e.source], sigma[e.letter], _rename_guard(e.guard, sigma), rename[e.target])
        for e in A.edges
    ]
    rng.shuffle(edges)
    return (
        Ecta(
            Alphabet(tuple(sigma[x] for x in letters)),
            tuple(sorted(rename.values(), key=lambda s: int(s[1:]))),
            rename[A.initial],
            frozenset(rename[q] for q in A.accepting),
            tuple(edges),
        ),
        sigma,
    )


def write(A: Ecta, path: Path) -> str:
    """Write ``A`` in the ``ecta`` file format, checking the round trip."""
    text = format_ecta(A)
    back, cmax = parse_ecta(text)
    if back != A or cmax is not None or format_ecta(back) != text:
        raise AssertionError(f"format_ecta/parse_ecta round trip changed {path.name}")
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_jobs(
    workload: str, seed: int, workdir: Path, small: bool = False
) -> tuple[list[dict], dict[str, list[tuple[str, str]]]]:
    """The jobs of one workload pass and the parent-side reference verdicts.

    Each job names one input file.  ``expect`` holds a hand-written
    answer; jobs sharing a ``group`` run on the same automaton and must
    agree whenever they decide, with each other and with the reference
    verdicts listed for that group.  ``small`` gives the minimal pass
    the smoke test runs.
    """
    files: dict[str, str] = {}

    def file_of(name: str, A: Ecta) -> tuple[str, Ecta, dict[str, str]]:
        B, sigma = relabel(A, random.Random(f"{seed}:{name}"))
        files[name] = write(B, workdir / f"{name}.json")
        return files[name], B, sigma

    jobs: list[dict] = []
    refs: dict[str, list[tuple[str, str]]] = {}
    shared = [] if small else [generated(i, 2, SHARED_SIZES) for i in range(SHARED_COUNT)]

    if workload == "region":
        ainf, _, sigma = file_of("ainf", get_example("ainf"))
        words = sorted(sigma["b"] * n + sigma["a"] for n in range(1, AINF_WORD_LENGTH))
        for cmax in REGION_CMAXES[:1] if small else REGION_CMAXES:
            for variant in (CLASSIC, REFINED):
                for quantifier in (EXISTS, FORALL):
                    job = {
                        "id": f"ainf/{cmax}/{variant}/{quantifier}", "kind": "build",
                        "file": ainf, "cmax": cmax, "variant": variant,
                        "quantifier": quantifier, "expect": {"verdict": "non_empty"},
                    }
                    if quantifier == EXISTS:
                        job["words"] = AINF_WORD_LENGTH
                        job["expect"]["words"] = words
                    jobs.append(job)
        for i, A in enumerate(shared):
            path, B, _ = file_of(f"shared{i}", A)
            jobs.append({
                "id": f"shared{i}/build", "kind": "build", "file": path, "cmax": GEN_CMAX,
                "variant": CLASSIC, "quantifier": EXISTS, "group": f"shared{i}",
            })
            refs[f"shared{i}"] = [
                ("forw_exact", forw_exact(B, fuel=ZONE_FUEL).verdict),
                ("back_exact", back_exact(B, fuel=ZONE_FUEL).verdict),
            ]
    elif workload == "zone":
        for name in ("ainf", "backdiv"):
            _, B, _ = file_of(name, get_example(name))
            file_of(f"{name}-mirror", mirror(B))
        subjects = [(name, {"verdict": "non_empty"}) for name in files]
        for i, A in enumerate(shared):
            _, B, _ = file_of(f"shared{i}", A)
            empty = language_empty(build(B, GEN_CMAX, EXISTS, CLASSIC))
            refs[f"shared{i}"] = [("region exists", "empty" if empty else "non_empty")]
            subjects.append((f"shared{i}", None))
        for i in range(2 if small else ZONE_COUNT):
            file_of(f"gen{i}", generated(i, 2 + i % 2))
            subjects.append((f"gen{i}", None))
        for name, expect in subjects:
            for kind in ("forward", "backward"):
                jobs.append({
                    "id": f"{name}/{kind}", "kind": kind, "file": files[name],
                    "fuel": ZONE_FUEL, "literal": False, "group": name, "expect": expect,
                })
    elif workload == "diverge":
        # the paper's nonterminating searches, and the same searches
        # without literal acceptance, which conclude
        path, B, _ = file_of("ainf", get_example("ainf"))
        mirrored = write(mirror(B), workdir / "ainf-mirror.json")
        fuel = 20 if small else DIVERGE_FUEL
        for kind, file in (("backward", path), ("forward", mirrored)):
            jobs.append({
                "id": f"{kind}/literal", "kind": kind, "file": file, "fuel": fuel,
                "literal": True, "expect": {"verdict": "unknown", "dequeued": fuel},
            })
            jobs.append({
                "id": f"{kind}/overlap", "kind": kind, "file": file, "fuel": fuel,
                "literal": False, "expect": {"verdict": "non_empty"},
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return jobs, refs
