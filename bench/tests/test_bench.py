"""Self-tests of the benchmark: seeded inputs, output checks and metric names.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracle
import run
from tracer import NullTracer
from workloads import RootEnumeration, WallQueries

BENCH = Path(__file__).resolve().parent.parent
NULL = NullTracer()


def test_generator_is_deterministic_per_seed():
    for block in (gen.wall_block, gen.root_block, gen.cli_block):
        assert block(7, 3) == block(7, 3)
        assert block(7, 3) != block(8, 3)
        assert block(7, 3) != block(7, 4)


def test_block_composition_is_fixed():
    for seed in range(20):
        queries = gen.wall_block(seed, 0)
        assert Counter(q.size for q in queries) == {"small": 15, "large": 5}
        assert Counter(q.lattice for q in queries if q.size == "large") == {(4, 64): 1, (8, 128): 4}
        assert sorted(q.degree for q in queries if q.size == "large") == [1, 2, 3, 4, 5]
        assert sum(q.svg for q in queries) == 2
        roots = gen.root_block(seed, 0)
        assert sorted((q.dp, q.saturate) for q in roots) == sorted(gen.ROOT_BLOCK)
        assert sorted(gen.cli_block(seed, 0)) == sorted(gen.CLI_ROUND)


def test_points_visited_matches_brute_force():
    def brute(target, beta, lattice, x_bound):
        r, t1, _ = oracle.twisted(target, beta)
        delta = oracle.discriminant(target)
        dy, dz = lattice
        count = 0
        for x in range(-x_bound, x_bound + 1):
            if x == 0 or (r == 0 and x < 0):
                continue
            for ky in range(1, math.ceil(t1 * dy) + 2):
                y = Fraction(ky, dy)
                if not 0 < y < t1:
                    continue
                for kz in range(-200 * dz, 200 * dz + 1):
                    z = Fraction(kz, dz)
                    count += 0 <= y * y - 2 * x * z <= delta
        return count

    cases = [
        (oracle.w_class(2), Fraction(-1, 2), (2, 8), 5),
        (oracle.v_class(3), Fraction(-3, 4), (2, 24), 5),
        ((Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(0)), Fraction(-1), (2, 8), 3),
    ]
    for target, beta, lattice, x_bound in cases:
        if oracle.twisted(target, beta)[1] > 0 and oracle.discriminant(target) >= 0:
            assert oracle.points_visited(target, beta, lattice, x_bound) == brute(target, beta, lattice, x_bound) > 0


@pytest.fixture(scope="module")
def walls_executor(tmp_path_factory):
    return WallQueries(tmp_path_factory.mktemp("svg") / "q.svg")


def _wall_outcome(executor, q):
    executor.prepare(q)
    return executor.outcome(q, executor.execute(q, NULL))


def test_wall_checks_pass_and_catch_a_shifted_candidate(walls_executor):
    paper = gen.WallQuery(2, "w", Fraction(-1, 2), (2, 8), 5, True, "small")
    other = gen.WallQuery(5, "O", Fraction(-9, 8), (2, 24), 5, False, "small")
    for q in (paper, other):
        out = _wall_outcome(walls_executor, q)
        assert oracle.check_wall_query(q, out) == []
        (alpha_sq, (first, *rest)), *tail = out.crossings
        x, y, z = first
        shifted = [(alpha_sq, [(x, y, z + Fraction(1, 8)), *rest]), *tail]
        assert oracle.check_wall_query(q, dataclasses.replace(out, crossings=shifted))


def test_wall_checks_catch_wrong_chi_and_missing_svg(walls_executor):
    q = gen.WallQuery(4, "S_pm(-1)", Fraction(-1, 4), (2, 40), 5, True, "small")
    out = _wall_outcome(walls_executor, q)
    assert out.euler is not None and oracle.check_wall_query(q, out) == []
    assert oracle.check_wall_query(q, dataclasses.replace(out, chi=out.chi + 1))
    assert oracle.check_wall_query(q, dataclasses.replace(out, euler=out.euler - 1))
    assert oracle.check_wall_query(q, dataclasses.replace(out, svg=None))
    assert oracle.check_wall_query(q, dataclasses.replace(out, svg=b"<svg"))


def test_every_generated_wall_query_passes(walls_executor):
    for block in range(2):
        for q in gen.wall_block(3, block):
            if q.size == "small":
                assert oracle.check_wall_query(q, _wall_outcome(walls_executor, q)) == [], q


def test_root_checks_catch_a_missing_root():
    executor = RootEnumeration()
    q = gen.RootQuery(1, False)
    out = executor.outcome(q, executor.execute(q, NULL))
    assert oracle.check_root_query(q, out) == []
    corrupted = dataclasses.replace(out, roots=out.roots[:-1])
    assert len(corrupted.roots) == 239
    assert oracle.check_root_query(q, corrupted)


def test_root_checks_catch_bad_saturation_and_dp2_facts():
    executor = RootEnumeration()
    q = gen.RootQuery(2, True)
    out = executor.outcome(q, executor.execute(q, NULL))
    assert oracle.check_root_query(q, out) == []
    assert oracle.check_root_query(q, dataclasses.replace(out, lines_sat=out.lines_sat[1:]))
    assert oracle.check_root_query(q, dataclasses.replace(out, nef=["boundary"] + out.nef[1:]))
    assert oracle.check_root_query(q, dataclasses.replace(out, decompositions=[None] + out.decompositions[1:]))
    assert oracle.check_root_query(q, dataclasses.replace(out, partners=out.lines))


def test_cli_checks_catch_a_failed_check_and_a_wrong_matrix():
    doc = {"command": "check", "degree": 0, "payload": {"checks": [{"degree": 1}], "passed": 1, "failed": 0}}
    assert oracle.check_cli_output("check_all", 0, json.dumps(doc)) == []
    doc["payload"].update(passed=0, failed=1)
    assert oracle.check_cli_output("check_all", 1, json.dumps(doc))
    euler = {"payload": {"matrix": [[-1, -1], [-1, -3]], "agreement": True, "matrix_from_riemann_roch": [["-1", "-1"], ["-1", "-3"]]}}
    assert oracle.check_cli_output("euler_d2", 0, json.dumps(euler))


def test_work_counts_repeat_for_a_seed(tmp_path):
    state = run.Run("wall-queries", 11, 1)
    executor = WallQueries(tmp_path / "q.svg")
    first = run.count_pass(state, executor, oracle.check_wall_query)
    assert first == run.count_pass(state, executor, oracle.check_wall_query)
    assert state.tally.failed == 0
    assert 0 < first["walls.candidates"] < first["walls.points_visited"]


def test_parse_importtime():
    sample = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       693 |       6046 |         concurrent.futures._base\n"
        "import time:       246 |       6525 |       concurrent.futures\n"
        "import time:      4172 |      15301 |     kuwalls.chern\n"
        "import time:       489 |      52099 |   kuwalls\n"
    )
    own = run.parse_importtime(sample)
    assert run.module_self_us(own, "concurrent.futures") == 939
    assert run.module_self_us(own, "kuwalls") == 489
    assert run.module_self_us(own, "kuwalls.chern") == 4172
    assert run.module_self_us(own, "argparse") == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "wall-queries", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
