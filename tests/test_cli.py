import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from torhyp.cli import main

from test_classify import child_env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_hyperbolic_cell(capsys):
    code, data = run_json(
        capsys, "classify", "--case", "2.0.1", "--l", "2", "--coeffs", "3,4", "--bound", "4"
    )
    assert code == 0
    assert data["schema"] == "torhyp/1"
    assert data["derived"]["outcome"] == "Hyperbolic"
    assert data["table"]["outcome"] == "Hyperbolic"
    assert data["agree"] is True


def test_classify_degenerate_cell(capsys):
    code, data = run_json(
        capsys, "classify", "--case", "2.0.1", "--l", "0", "--coeffs", "0,5", "--bound", "4"
    )
    assert code == 0
    assert data["derived"]["outcome"] == "NotHyperbolic"


def test_faces_counts(capsys):
    code, data = run_json(
        capsys, "faces", "--case", "2.0.1", "--l", "2", "--coeffs", "2,4"
    )
    assert code == 0
    assert data["counts"] == [3, 21, 5, 5, 5]


def test_describe_and_determinism(capsys):
    code1, out1 = run(capsys, "describe", "--case", "3.1.5", "--b1", "2")
    code2, out2 = run(capsys, "describe", "--case", "3.1.5", "--b1", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["canonical"]["matches_reference"] is True
    assert data["splitting"] is False


def test_nef_verb(capsys):
    code, data = run_json(
        capsys, "nef", "--case", "2.0.1", "--l", "1", "--D", '{"coeffs": {"D_2": 2, "D_3": 3}}'
    )
    assert code == 0
    assert data["nef"] and data["ample"] and data["big"]


def test_polytope_and_points(capsys):
    code, data = run_json(
        capsys, "points", "--case", "2.0.1", "--l", "1", "--D", '{"coeffs": {"D_2": 1, "D_3": 1}}'
    )
    assert code == 0
    assert data["count"] == 9
    code, data = run_json(
        capsys, "polytope", "--case", "2.0.1", "--l", "0", "--D", '{"coeffs": {"D_2": 1, "D_3": 1}}'
    )
    assert code == 0
    assert data["dimension"] == 3
    assert data["volume"] == "1/2"


def test_idp_verb(capsys):
    code, data = run_json(
        capsys,
        "idp", "--case", "2.0.1", "--l", "2",
        "--E", '{"coeffs": {"D_2": 1}}', "--Eprime", '{"coeffs": {"D_3": 1}}',
    )
    assert code == 0
    assert data["idp"] is True


def test_markov_verb(capsys):
    code, data = run_json(capsys, "markov", "--case", "2.0.1", "--l", "1", "--bound", "4")
    assert code == 0
    assert data["B"] == [[1, 1, 0, 0, 0], [-1, 0, 1, 1, 1]]
    assert data["certificate"]["connected"] is True


def test_connected_sections_verb(capsys):
    code, data = run_json(
        capsys,
        "connected-sections", "--case", "2.0.1", "--l", "1", "--bound", "4",
        "--E", '{"coeffs": {"D_2": 1, "D_3": 1}}', "--Eprime", '{"coeffs": {"D_2": 1}}',
    )
    assert code == 0
    assert data["passes"] is True


def test_intersect_verb(capsys):
    code, data = run_json(
        capsys,
        "intersect", "--case", "3.0.1", "--r", "0", "--a", "0", "--b", "0",
        "--d1", '{"coeffs": {"D_1": 1}}', "--d2", '{"coeffs": {"D_4": 1}}',
        "--d3", '{"coeffs": {"D_6": 1}}',
    )
    assert code == 0
    assert data["product"] == 1


@pytest.mark.parametrize("case", ["3.1.1", "3.1.2", "3.1.5"])
def test_intersect_out_of_domain_is_integral(capsys, case):
    # At b1 = -1 the listed nef generators are not all nef; D^3 of an ample
    # class is still an integer and equals six times the volume of P(D).
    d = '{"coeffs": {"D_v1": 2, "D_u1": 1, "D_z1": 2}}'
    code, data = run_json(capsys, "intersect", "--case", case, "--b1", "-1",
                          "--d1", d, "--d2", d, "--d3", d)
    assert code == 0, data
    code, poly = run_json(capsys, "polytope", "--case", case, "--b1", "-1", "--D", d)
    assert code == 0
    assert data["product"] == 6 * Fraction(poly["volume"]) > 0


def test_enumeration_guard_exit1(capsys):
    code, data = run_json(capsys, "points", "--case", "2.0.1", "--l", "2",
                          "--D", '{"class": [300, 400]}')
    assert code == 1
    assert "budget" in data["error"]


def test_markov_degree_guard_exit1(capsys):
    # C(100005, 5) degree vectors: refused before any is enumerated.
    code, data = run_json(capsys, "markov", "--case", "2.0.1", "--l", "0", "--bound", "100000")
    assert code == 1
    assert "would enumerate" in data["error"]


def test_markov_large_coordinates(capsys):
    # Moves with entries near a thousand: the proof settles the certificate.
    code, data = run_json(capsys, "markov", "--case", "2.0.2", "--l1", "0", "--l2", "950",
                          "--bound", "2")
    assert code == 0
    assert data["certificate"] == {
        "bound": 2, "fibers_checked": 10, "connected": True, "failing_fiber": None
    }


@pytest.mark.parametrize("argv,message", [
    (["classify", "--case", "2.0.1", "--l", "x", "--coeffs", "1,2"], "invalid int value: 'x'"),
    (["classify", "--case", "2.0.1", "--l", "2", "--coeffs", "1,2", "--colour"],
     "unrecognized arguments: --colour"),
    (["classify", "--case", "2.0.1", "--l", "2"], "required: --coeffs"),
    ([], "required: verb"),
    (["--pretty"], "required: verb"),
    (["paint", "--case", "2.0.1"], "invalid choice: 'paint'"),
    (["sweep", "--case", "2.0.1", "--l", "2", "--out", "xml"], "invalid choice: 'xml'"),
])
def test_usage_errors_exit1(capsys, argv, message):
    # Argument errors end like every other invalid input: one JSON error
    # document on stdout, nothing on stderr, exit 1 (2 is reserved for
    # internal inconsistencies).
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    data = json.loads(captured.out)
    assert set(data) == {"schema", "error"} and message in data["error"], data


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: torhyp" in capsys.readouterr().out


def test_unknown_ray_label_message(capsys):
    code, data = run_json(capsys, "nef", "--case", "2.0.1", "--l", "2",
                          "--D", '{"coeffs": {"D_9": 1}}')
    assert code == 1
    assert data["error"] == "no ray labelled 'D_9'"


def test_sweep_error_prints_one_document(capsys):
    # Outside the reference domain a later cell fails; no CSV row may be
    # printed ahead of the error document.
    code, data = run_json(capsys, "sweep", "--case", "3.1.1", "--b1", "-1", "--range", "0..3",
                          "--bound", "2")
    assert code == 1
    assert set(data) == {"schema", "error"}


@pytest.mark.parametrize("text", ["0-3", "0..3..4", "a..b", ""])
def test_sweep_malformed_range_exit1(capsys, text):
    code, data = run_json(capsys, "sweep", "--case", "2.0.1", "--l", "2", "--range", text)
    assert code == 1
    assert "LO..HI" in data["error"]


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "2.0.1", "--l", "2", "--coeffs", "3,4", "--bound", "0"],
    ["markov", "--case", "2.0.1", "--l", "2", "--bound", "-3"],
    ["sweep", "--case", "2.0.1", "--l", "2", "--range", "0..2", "--bound", "0"],
])
def test_bound_below_one_exit1(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert "at least 1" in json.loads(out)["error"]


def test_env_bound_below_one_exit1(capsys, monkeypatch):
    monkeypatch.setenv("TORHYP_MARKOV_BOUND", "0")
    code, data = run_json(capsys, "classify", "--case", "2.0.1", "--l", "2", "--coeffs", "3,4")
    assert code == 1
    assert "at least 1" in data["error"]


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--case", "2.0.1", "--l", "2", "--range", "0..2",
                    "--bound", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,l,a,b,derived,table,agree"
    assert len(lines) == 10


def test_invalid_parameter_exit1(capsys):
    code, data = run_json(capsys, "classify", "--case", "2.0.2", "--l1", "3", "--l2", "1",
                          "--coeffs", "1,1")
    assert code == 1
    assert "error" in data


def test_unknown_case_exit1(capsys):
    code, data = run_json(capsys, "describe", "--case", "9.9.9")
    assert code == 1


def test_missing_param_exit1(capsys):
    code, data = run_json(capsys, "describe", "--case", "2.0.1")
    assert code == 1
    assert "error" in data


def test_env_bound_override(capsys, monkeypatch):
    monkeypatch.setenv("TORHYP_MARKOV_BOUND", "3")
    code, data = run_json(capsys, "markov", "--case", "2.0.1", "--l", "0")
    assert code == 0
    assert data["certificate"]["bound"] == 3


def test_internal_inconsistency_exit2(capsys, monkeypatch):
    # Corrupt the encoded presentation matrix: the recomputation must win
    # and the CLI must report the mismatch with exit status 2.
    import torhyp.toric_ideal as ti

    monkeypatch.setattr(
        ti, "encoded_gale_rows", lambda fan: [[9, 9, 9, 9, 9], [0, 0, 0, 0, 0]]
    )
    ti.gale_matrix.cache_clear()
    code, data = run_json(capsys, "markov", "--case", "2.0.1", "--l", "3", "--bound", "3")
    ti.gale_matrix.cache_clear()
    assert code == 2
    assert "internal_error" in data


@pytest.mark.parametrize("change", [
    # The complement D_1, D_2, D_3 of this basis has rank 2.
    {"pic_basis": ("D_4", "D_5")},
    # A basis label that names no ray.
    {"pic_basis": ("D_9", "D_3")},
    # These collections give cones of determinant 0 and 3.
    {"collections": ((0, 2), (1, 3, 4))},
])
def test_corrupt_catalog_record_exit2(capsys, monkeypatch, change):
    # Corrupt encoded data is an internal inconsistency, not invalid input.
    from dataclasses import replace

    from torhyp.catalog import CASES
    from torhyp.divisors import picard_basis
    from torhyp.fans import build_family_fan

    monkeypatch.setitem(CASES, "2.0.1", replace(CASES["2.0.1"], **change))
    build_family_fan.cache_clear()
    picard_basis.cache_clear()
    try:
        code, data = run_json(capsys, "describe", "--case", "2.0.1", "--l", "3")
    finally:
        monkeypatch.undo()
        build_family_fan.cache_clear()
        picard_basis.cache_clear()
    assert code == 2
    assert set(data) == {"schema", "internal_error"}


def test_bad_fan_geometry_exit1(tmp_path, capsys):
    # A hand-written fan that is not complete stays invalid input.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES[:3]}))
    code, data = run_json(capsys, "points", "--fan", str(path), "--D", '{"coeffs": {"D_1": 1}}')
    assert code == 1
    assert set(data) == {"schema", "error"}


@pytest.mark.parametrize("argv", [
    ["idp", "--case", "2.0.1", "--l", "1",
     "--E", '{"class": [30, 30]}', "--Eprime", '{"class": [30, 30]}'],
    ["connected-sections", "--case", "2.0.1", "--l", "1", "--skip-idp",
     "--E", '{"class": [1, 1]}', "--Eprime", '{"class": [30, 30]}'],
])
def test_point_pair_guard_exit1(capsys, argv):
    # 34,751 points a side: about 1.2e9 pairs, refused before any is formed.
    t0 = time.perf_counter()
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert set(data) == {"schema", "error"} and "exceed the budget" in data["error"]
    assert time.perf_counter() - t0 < 10


def test_catalog_config_past_pair_budget(capsys):
    # The configuration E' = D_2 of 2.0.1 at l = 44 has 1 + 45 * 46 / 2 =
    # 1,036 lattice points, so 1,036^2 differences: past the budget that
    # connected-sections sets for a user's E', yet the verdict is derived.
    code, data = run_json(capsys, "classify", "--case", "2.0.1", "--l", "44", "--coeffs", "2,0")
    assert code == 0
    assert data["derived"]["outcome"] == "Open" and data["agree"]
    (tried,) = data["derived"]["evidence"]["tried"]
    assert tried["config"] == "D_2"
    assert tried["connected_sections"] == {
        "bound": 6, "connected": True, "failing_fiber": None, "fibers_checked": 84,
    }


def test_sweep_grid_guard_exit1(capsys):
    # 1001^3 cells: refused before any row is derived.
    t0 = time.perf_counter()
    code, data = run_json(capsys, "sweep", "--case", "3.0.1", "--r", "1", "--a", "1", "--b", "1",
                          "--range", "0..1000")
    assert code == 1
    assert set(data) == {"schema", "error"} and "1003003001 cells" in data["error"]
    assert time.perf_counter() - t0 < 10


def test_generic_fan_input(tmp_path, capsys):
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1]],
        "max_cones": [[0, 2, 3], [0, 2, 4], [0, 3, 4], [1, 2, 3], [1, 2, 4], [1, 3, 4]],
    }))
    code, data = run_json(
        capsys, "points", "--fan", str(fan_file), "--D", '{"coeffs": {"D_2": 1, "D_3": 1}}'
    )
    assert code == 0
    assert data["count"] == 6


P3_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
P3_CONES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


@pytest.mark.parametrize("argv,fan_file,message", [
    (["nef", "--case", "2.0.1", "--l", "2", "--D", "5"], None, "must be an object"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"coeffs": [1, 2]}'], None, "'coeffs' must map"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"class": [1.5, 2]}'], None, "got 1.5"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"class": 2}'], None, "'class' must be a list"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"coeffs": {"D_2": 1.9}}'], None, "got 1.9"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"coeffs": {"D_2": true}}'], None, "got True"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"class": [1, false]}'], None, "got False"),
    (["nef", "--case", "2.0.1", "--l", "2", "--D", '{"coeffs": {"D_2": "1"}}'], None, "got '1'"),
    (["intersect", "--case", "2.0.1", "--l", "2", "--d1", "[]", "--d2", "{}", "--d3", "{}"],
     None, "must be an object"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'], "missing", "cannot read fan file"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'], [1, 2], "must be an object"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'], {"rays": P3_RAYS}, "'max_cones'"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'], {"max_cones": P3_CONES}, "'rays'"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'],
     {"rays": P3_RAYS, "max_cones": [[0, 1, 2], [0, 1, 7]]}, "outside 0..3"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'],
     {"rays": [[1, 0, 0.5]] + P3_RAYS[1:], "max_cones": P3_CONES}, "got 0.5"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'],
     {"rays": P3_RAYS, "max_cones": P3_CONES, "ray_labels": ["x"]}, "one string per ray"),
    (["polytope", "--D", '{"coeffs": {"D_1": 1}}'],
     {"case": "2.0.1", "params": {"l": 1.5}}, "got 1.5"),
])
def test_malformed_input_exit1(tmp_path, capsys, argv, fan_file, message):
    # Each malformed input ends in one JSON error document with exit 1:
    # no traceback, and no value silently truncated or coerced.
    if fan_file is not None:
        path = tmp_path / "fan.json"
        if fan_file != "missing":
            path.write_text(json.dumps(fan_file))
        argv = [*argv, "--fan", str(path)]
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert set(data) == {"schema", "error"} and message in data["error"], data


def test_well_formed_fan_file_still_reads(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES,
                                "ray_labels": ["x", "y", "z", "w"]}))
    code, data = run_json(capsys, "points", "--fan", str(path), "--D", '{"coeffs": {"w": 1}}')
    assert code == 0 and data["count"] == 4


def test_closed_stdout_exits_without_traceback():
    # A reader that closes the pipe early (`torhyp sweep ... | head -c0`):
    # exit 1 and nothing on stderr.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torhyp.cli", "sweep", "--case", "2.0.1", "--l", "2",
             "--range", "0..8", "--bound", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
