"""CLI behaviour: documents, exit codes, determinism, SVG output."""

from __future__ import annotations

import json

import pytest

from kuwalls.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_euler_degree_two(capsys):
    doc = run_json(capsys, ["euler", "--degree", "2"])
    assert doc["schema_version"] == "1.0"
    assert doc["command"] == "euler"
    assert doc["degree"] == 2
    assert doc["payload"]["matrix"] == [[-1, -1], [-1, -2]]
    assert doc["payload"]["agreement"] is True


def test_euler_degree_five(capsys):
    doc = run_json(capsys, ["euler", "--degree", "5"])
    assert doc["payload"]["matrix"] == [[-1, -1], [-4, -5]]
    assert doc["payload"]["matrix_from_riemann_roch"] == [["-1", "-1"], ["-4", "-5"]]


def test_euler_out_of_range(capsys):
    code, out, err = run(capsys, ["euler", "--degree", "7"])
    assert code == 2
    assert "degree out of range" in err


def test_walls_for_w(capsys, tmp_path):
    svg_path = tmp_path / "walls.svg"
    doc = run_json(
        capsys, ["walls", "--degree", "2", "--class", "w", "--beta", "-1/2", "--svg", str(svg_path)]
    )
    payload = doc["payload"]
    assert payload["wall_count"] == 1
    assert payload["chamber_count"] == 2
    wall = payload["walls"][0]
    assert wall["alpha_sq"] == "1/4"
    assert wall["locus"] == {"kind": "semicircle", "center_beta": "-1/2", "radius_sq": "1/4"}
    assert wall["candidates"] == [{"x": 1, "y": "1/2", "z": "1/8"}]
    assert payload["decomposition_check"] == "PASS"
    assert payload["torsion_sign_rule"] is True

    svg = svg_path.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert "chamber 2" in svg


@pytest.mark.parametrize("degree", ["1", "3", "4", "5"])
def test_walls_are_degree_uniform(capsys, degree):
    doc = run_json(capsys, ["walls", "--degree", degree, "--class", "w", "--beta", "-1/2"])
    assert doc["payload"]["wall_count"] == 1
    assert doc["payload"]["walls"][0]["alpha_sq"] == "1/4"


def test_walls_for_structure_sheaf(capsys):
    doc = run_json(capsys, ["walls", "--degree", "2", "--class", "O", "--beta", "-1/2"])
    assert doc["payload"]["wall_count"] == 0
    assert doc["payload"]["torsion_sign_rule"] is False


def test_walls_with_raw_class_and_custom_lattice(capsys):
    doc = run_json(
        capsys,
        ["walls", "--degree", "2", "--class", "0,1,-1/2,-1/3", "--beta", "-1/2", "--denoms", "2,16"],
    )
    assert doc["payload"]["lattice"] == [2, 16]
    assert doc["payload"]["chern"] == ["0", "1", "-1/2", "-1/3"]


def test_raw_class_with_negative_rank_needs_no_equals_sign(capsys):
    spaced = run(capsys, ["walls", "--degree", "1", "--class", "-2,1/2,3,-3"])
    joined = run(capsys, ["walls", "--degree", "1", "--class=-2,1/2,3,-3"])
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["payload"]["chern"] == ["-2", "1/2", "3", "-3"]


def test_walls_rejects_unparsable_class(capsys):
    code, out, err = run(capsys, ["walls", "--degree", "2", "--class", "mystery"])
    assert code == 2
    assert "cannot parse class" in err
    code, out, err = run(capsys, ["walls", "--degree", "2", "--class", "1,2,3"])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--denoms", "0,8"], ["--x-bound", "-1"], ["--svg", "{tmp}/missing/walls.svg"]],
    ids=["zero-denominator", "negative-x-bound", "unwritable-svg"],
)
def test_walls_bad_arguments_are_usage_errors(capsys, tmp_path, flags):
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    code, out, err = run(capsys, ["walls", "--degree", "2", "--class", "w", *flags])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_walls_over_budget_lattice_is_refused(capsys):
    # the z window alone would hold about 2.9 * 10^10 lattice points
    code, out, err = run(capsys, ["walls", "--degree", "2", "--class", "w", "--denoms", "2,100000000000"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "budget" in err and "Traceback" not in err


def test_roots_counts(capsys):
    doc = run_json(capsys, ["roots", "--dp", "2"])
    assert doc["payload"]["root_count"] == 126
    assert doc["payload"]["line_count"] == 56
    doc = run_json(capsys, ["roots", "--dp", "3"])
    assert doc["payload"]["root_count"] == 72
    assert doc["payload"]["line_count"] == 27


def test_roots_nef_check(capsys):
    doc = run_json(capsys, ["roots", "--dp", "2", "--nef-check"])
    assert doc["payload"]["nef_check"] == "126/126 of D-2K interior"


def test_roots_pairs_and_differences(capsys):
    doc = run_json(capsys, ["roots", "--dp", "2", "--pairs", "--as-line-diff"])
    assert doc["payload"]["line_pair_count"] == 28
    diffs = doc["payload"]["line_differences"]
    assert len(diffs) == 126
    assert all(entry["lines"] is not None for entry in diffs)


def test_roots_list_includes_vectors(capsys):
    doc = run_json(capsys, ["roots", "--dp", "5", "--list"])
    payload = doc["payload"]
    assert len(payload["roots"]) == 20 and len(payload["lines"]) == 10
    assert all(len(vector) == 5 for vector in payload["roots"])
    assert payload["roots"] == sorted(payload["roots"])


def test_roots_flag_restrictions(capsys):
    code, out, err = run(capsys, ["roots", "--dp", "3", "--nef-check"])
    assert code == 2
    code, out, err = run(capsys, ["roots", "--dp", "9"])
    assert code == 2


def test_catalog_document(capsys):
    doc = run_json(capsys, ["catalog", "--degree", "4"])
    payload = doc["payload"]
    assert payload["verified"] is True
    names = [entry["name"] for entry in payload["entries"]]
    assert "S_pm(-1)" in names
    by_name = {entry["name"]: entry for entry in payload["entries"]}
    assert by_name["I_p|S"]["ku_class"] == {"a": 0, "b": 1}
    assert by_name["I_p|S"]["ext_table"] == [1, 7, 2, 0]
    assert by_name["O"]["in_ku"] is False


def test_check_single_degree_includes_identity_line(capsys):
    doc = run_json(capsys, ["check", "--degree", "4"])
    lines = [item["line"] for item in doc["payload"]["checks"]]
    assert "[S(-1)] = 2v-w: PASS" in lines
    assert doc["payload"]["failed"] == 0


def test_check_degree_five_line(capsys):
    doc = run_json(capsys, ["check", "--degree", "5"])
    lines = [item["line"] for item in doc["payload"]["checks"]]
    assert "w = 2[Q_dual]-3[S]: PASS" in lines


def test_check_all_passes(capsys):
    code, out, err = run(capsys, ["check", "--all"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["failed"] == 0
    assert doc["payload"]["passed"] > 0


def test_check_requires_degree_or_all(capsys):
    code, out, err = run(capsys, ["check"])
    assert code == 2


def test_exit_code_one_on_failing_check(capsys, monkeypatch):
    import kuwalls.checks as checks_module
    from kuwalls.checks import CheckResult

    def failing(d):
        return CheckResult(name="forced failure", degree=d, passed=False, detail="injected")

    monkeypatch.setattr(checks_module, "CHECKS", (failing,))
    monkeypatch.setattr("kuwalls.checks.run_checks", lambda d: [failing(d)])
    code, out, err = run(capsys, ["check", "--degree", "2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["payload"]["failed"] == 1


def test_output_is_byte_identical_across_runs(capsys, tmp_path):
    argv = ["walls", "--degree", "2", "--class", "w", "--beta", "-1/2"]
    outputs = []
    svgs = []
    for run_index in range(3):
        svg_path = tmp_path / f"diagram-{run_index}.svg"
        code, out, err = run(capsys, argv + ["--svg", str(svg_path)])
        assert code == 0
        outputs.append(out)
        svgs.append(svg_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert svgs[0] == svgs[1] == svgs[2]


def test_json_round_trip(capsys):
    doc = run_json(capsys, ["euler", "--degree", "3"])
    assert json.loads(json.dumps(doc)) == doc
