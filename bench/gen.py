"""Seeded request streams for the benchmark workloads.

Requests are plain data (names, Fractions, tuples); nothing here imports
kuwalls, so the library sees only the generated inputs.  Each in-process
workload is an endless stream of fixed-composition blocks: the seed chooses
the order inside a block and every free parameter, while the composition is
fixed so that the p50 and p90 of a run each sit inside one size class (the
reasoning is in README.md).  Block k of seed s is the same on every run.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import points_visited, span_class

DEGREES = (1, 2, 3, 4, 5)

#: Catalog names per degree, plus the two lattice generators ``lookup`` resolves.
BASE_NAMES = ("O", "O(1)", "O(-1)", "C_p", "I_p", "O_S", "I_p|S", "I_l", "E_p", "root_sheaf", "v", "w")
EXTRA_NAMES = {4: ("S_pm", "S_pm(-1)"), 5: ("S", "Q_dual")}

#: Targets of the large tail: torsion classes whose truncated character is
#: w's, (0, 1, -1/2).  On the paper's line beta = -1/2 they all give the same
#: search (1974 points and 501 candidates on (8, 128) with x_bound 40), so the
#: tail's cost is set by the wall search and the degree alone.  A seeded beta
#: would not do: the candidate count, and with it the cost, swings between 0
#: and 501 with beta, which would put p90 between two modes.
TORSION_W_FAMILY = ("w", "E_p", "I_p|S", "root_sheaf", "O_S")
LARGE_BETA = Fraction(-1, 2)

#: beta grid: multiples of 1/8 in [-3/2, 1/2].
BETAS = tuple(Fraction(k, 8) for k in range(-12, 5))

SCAN_LATTICES = ((2, 8), (2, 24), (2, 40))
SMALL_X_BOUND = 5
#: Explicit scan classes are redrawn until their search has at most this many
#: points, so that one rare class with thousands of candidates cannot move a
#: run's throughput or peak memory.  Catalog targets reach 912 (Q_dual at
#: d = 5 on (2, 40)); half of them have at most 11.
SCAN_POINT_CAP = 300
MID = ((4, 64), 10)
LARGE = ((8, 128), 40)

#: Root-enumeration block: (dp, saturate).  Sorted by cost the block reads
#: dp7, dp7+sat, dp6, dp6+sat, dp5, dp5, dp4 x3, dp3+sat, dp2, dp2+sat,
#: dp1 x3, dp1+sat, so p50 (ranks 8-9 of 16) is a plain dp4 request and
#: p90 (rank 14.4) a plain dp1 request.
ROOT_BLOCK = (
    (7, False), (7, True), (6, False), (6, True), (5, False), (5, False),
    (4, False), (4, False), (4, False), (3, True), (2, False), (2, True),
    (1, False), (1, False), (1, False), (1, True),
)

#: The cli-readme commands, keyed by metric name: the README's seven CLI
#: examples, ``roots --dp 1`` and ``--version``.
CLI_COMMANDS = (
    ("version", ("--version",)),
    ("euler_d2", ("euler", "--degree", "2")),
    ("walls_d2_w", ("walls", "--degree", "2", "--class", "w", "--beta", "-1/2", "--svg", "{svg}")),
    ("walls_d3_class", ("walls", "--degree", "3", "--class", "0,1,-1/2,-1/6", "--denoms", "2,24")),
    ("roots_dp2", ("roots", "--dp", "2", "--pairs", "--as-line-diff", "--nef-check")),
    ("catalog_d4", ("catalog", "--degree", "4")),
    ("check_all", ("check", "--all")),
    ("check_d5", ("check", "--degree", "5")),
    ("roots_dp1", ("roots", "--dp", "1")),
)
HEAVY_COMMANDS = ("roots_dp1", "check_all")
#: One round: every light command twice and the two heavy ones once, 16 in
#: all.  Sorted by cost a round reads version x2, the four light calls x2
#: (euler, walls x2, catalog), check --degree 5 x2, roots --dp 2 x2,
#: roots --dp 1, check --all; p50 (rank 8) falls inside the light calls and
#: p90 (rank 14.4) inside roots --dp 1.  With each command once, p50 and p90
#: both fall on the border between two commands and jump from run to run.
CLI_ROUND = tuple(name for name, _ in CLI_COMMANDS if name not in HEAVY_COMMANDS) * 2 + HEAVY_COMMANDS


@dataclass(frozen=True)
class WallQuery:
    """One wall-queries request.

    ``target`` is a catalog name resolved with ``catalog.lookup`` or four
    explicit rationals, as ``--class r,c1,c2,c3`` accepts.  ``span`` holds the
    (a, b) the bench used to build an explicit class as a v + b w.
    """

    degree: int
    target: str | tuple[Fraction, Fraction, Fraction, Fraction]
    beta: Fraction
    lattice: tuple[int, int]
    x_bound: int
    svg: bool
    size: str  # "small" | "large"
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class RootQuery:
    dp: int
    saturate: bool


def _rng(seed: int, stream: str, block: int) -> random.Random:
    return random.Random(f"{stream}:{seed}:{block}")


def _names(d: int) -> tuple[str, ...]:
    return BASE_NAMES + EXTRA_NAMES.get(d, ())


def _off_span_class(rng: random.Random) -> tuple[Fraction, ...]:
    """A small rational class; |ch1| <= 1 and |ch2| <= 1/2 keep the search small."""
    return (
        Fraction(rng.choice((-1, 0, 1))),
        Fraction(rng.randint(-2, 2), 2),
        Fraction(rng.randint(-4, 4), 8),
        Fraction(rng.randint(-6, 6), 24),
    )


def wall_block(seed: int, block: int) -> list[WallQuery]:
    """20 requests in three size classes.

    * 11 on the paper's line: beta = -1/2 on (2, 8) with x_bound 5, 2 with
      target w (checked against the paper's single wall) and 9 with a seeded
      catalog name of w's truncated class, which makes ``lookup`` rebuild the
      catalog.  Their cost is nearly the same in every degree, so p50 sits
      inside this class.
    * 4 scans: a seeded catalog name, a v + b w, or a free rational class, at
      a seeded beta on a seeded small lattice; their cost spreads from far
      below to far above the line class.
    * 5 large: 1 on (4, 64) with x_bound 10 and 4 on (8, 128) with x_bound 40,
      one per degree, all on the paper's line; p90 sits inside the (8, 128) four.
    """
    rng = _rng(seed, "walls", block)
    queries = []
    line_degrees = list(DEGREES) * 2 + [rng.choice(DEGREES)]
    rng.shuffle(line_degrees)
    for i, d in enumerate(line_degrees):
        target = "w" if i < 2 else rng.choice(TORSION_W_FAMILY[1:])
        queries.append(WallQuery(d, target, LARGE_BETA, (2, 8), SMALL_X_BOUND, False, "small"))
    for kind in ("name", "name", "span", "free"):
        d, beta, lattice = rng.choice(DEGREES), rng.choice(BETAS), rng.choice(SCAN_LATTICES)
        span = None
        if kind == "name":
            target = rng.choice(_names(d))
        while kind != "name":
            if kind == "span":
                span = (rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
                target = span_class(d, *span)
            else:
                target = _off_span_class(rng)
            if points_visited(target, beta, lattice, SMALL_X_BOUND) <= SCAN_POINT_CAP:
                break
        queries.append(WallQuery(d, target, beta, lattice, SMALL_X_BOUND, False, "small", span))
    degrees = list(DEGREES)
    rng.shuffle(degrees)
    for (lattice, x_bound), d in zip([MID] + [LARGE] * 4, degrees):
        queries.append(WallQuery(d, rng.choice(TORSION_W_FAMILY), LARGE_BETA, lattice, x_bound, False, "large"))
    # one seeded small and one seeded large request also render the SVG
    for lo, hi in ((0, 15), (15, 20)):
        i = rng.randrange(lo, hi)
        queries[i] = dataclasses.replace(queries[i], svg=True)
    rng.shuffle(queries)
    return queries


def root_block(seed: int, block: int) -> list[RootQuery]:
    rng = _rng(seed, "roots", block)
    queries = [RootQuery(dp, saturate) for dp, saturate in ROOT_BLOCK]
    rng.shuffle(queries)
    return queries


def cli_block(seed: int, block: int) -> list[str]:
    """One round of CLI_ROUND in a seeded order."""
    rng = _rng(seed, "cli", block)
    names = list(CLI_ROUND)
    rng.shuffle(names)
    return names


BLOCKS = {"wall-queries": wall_block, "root-enumeration": root_block, "cli-readme": cli_block}

#: Fixed warm-up requests for the in-process workloads: one per lattice size
#: and every dp, so each code path and cache the timed phase uses is filled.
WARMUP = {
    "wall-queries": [
        WallQuery(d, "w", Fraction(-1, 2), lattice, x_bound, lattice == (2, 8), size)
        for d, (lattice, x_bound, size) in zip(
            DEGREES,
            (((2, 8), 5, "small"), ((2, 24), 5, "small"), ((2, 40), 5, "small"), (MID[0], MID[1], "large"), (LARGE[0], LARGE[1], "large")),
        )
    ],
    "root-enumeration": [RootQuery(dp, False) for dp in range(1, 8)],
}
