import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from torhyp.catalog import HYPERBOLIC, TableBlock, TableRow
from torhyp.cli import main

from test_classify import child_env
from test_fans import FOLDED_FAN, REPEATED_RAY_FAN, TWISTED_FAN, UNUSED_RAY_FAN, p3_subdivision


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
    # At b1 = -1, outside the tables' domain, D^3 of an ample class is an
    # integer and equals six times the volume of P(D).
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
    (["markov", "--bound", "3"], "give either --case with its parameters or --fan FILE"),
    (["faces", "--case", "2.0.1", "--l", "2"], "faces wants --coeffs or --D"),
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


# Two --help screens as printed when every verb added its own family
# flags; sharing them through one parent parser changes no byte.
HELP_SCREENS = {
    "markov": """\
usage: torhyp markov [-h] [--case CASE] [--fan FAN] [--l L] [--l1 L1]
                     [--l2 L2] [--r R] [--a A] [--b B] [--b1 B1] [--c2 C2]
                     [--b2 B2] [--bound BOUND]

options:
  -h, --help     show this help message and exit
  --case CASE    family case id, e.g. 2.0.1
  --fan FAN      path to a fan JSON file (generic input)
  --l L
  --l1 L1
  --l2 L2
  --r R
  --a A
  --b B
  --b1 B1
  --c2 C2
  --b2 B2
  --bound BOUND
""",
    "classify": """\
usage: torhyp classify [-h] [--case CASE] [--fan FAN] [--l L] [--l1 L1]
                       [--l2 L2] [--r R] [--a A] [--b B] [--b1 B1] [--c2 C2]
                       [--b2 B2] --coeffs COEFFS [--bound BOUND]

options:
  -h, --help       show this help message and exit
  --case CASE      family case id, e.g. 2.0.1
  --fan FAN        path to a fan JSON file (generic input)
  --l L
  --l1 L1
  --l2 L2
  --r R
  --a A
  --b B
  --b1 B1
  --c2 C2
  --b2 B2
  --coeffs COEFFS
  --bound BOUND
""",
}


@pytest.mark.parametrize("verb", sorted(HELP_SCREENS))
def test_help_text_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_SCREENS[verb]


def test_unknown_ray_label_message(capsys):
    code, data = run_json(capsys, "nef", "--case", "2.0.1", "--l", "2",
                          "--D", '{"coeffs": {"D_9": 1}}')
    assert code == 1
    assert data["error"] == "no ray labelled 'D_9'"


def test_sweep_error_prints_one_document(capsys, monkeypatch):
    # A cell that fails after earlier cells were derived leaves one error
    # document; no CSV row may be printed ahead of it.
    import torhyp.classify as classify

    derive = classify.derive_verdict

    def fail_late(spec, coeffs, bound):
        if coeffs == (3, 3):
            raise ValueError("a late cell fails")
        return derive(spec, coeffs, bound)

    monkeypatch.setattr(classify, "derive_verdict", fail_late)
    code, data = run_json(capsys, "sweep", "--case", "2.0.1", "--l", "2", "--range", "0..4",
                          "--bound", "2")
    assert code == 1
    assert data == {"schema": "torhyp/1", "error": "a late cell fails"}


@pytest.mark.parametrize("argv", [
    ["--case", "3.1.1", "--b1", "-1", "--coeffs", "0,1,0"],
    ["--case", "3.1.3", "--b1", "-2", "--c2", "1", "--coeffs", "0,3,4"],
], ids=["3.1.1", "3.1.3"])
def test_negative_twist_cells_are_answered(capsys, argv):
    # Below zero the nef cone read off the walls is not the printed one, so
    # every cell c >= 0 is nef and gets a derived outcome, with no table.
    code, data = run_json(capsys, "classify", *argv)
    assert code == 0
    assert data["table"]["outcome"] == "Unlisted"


def test_describe_prints_the_nef_cone_at_a_negative_twist(capsys):
    code, data = run_json(capsys, "describe", "--case", "3.1.1", "--b1", "-1")
    assert code == 0
    gens = data["nef_generators"]
    assert [g["class"]["coords"] for g in gens] == [[1, 0, 0], [1, 0, 1], [0, 1, 1]]
    assert all(g["nef"] is True for g in gens)


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


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--case", "2.0.1", "--l", "2", "--range", "0..2",
                    "--bound", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,l,a,b,derived,table,agree"
    assert len(lines) == 10


def test_sweep_json_rows_match_csv(capsys):
    argv = ["sweep", "--case", "2.0.1", "--l", "2", "--range", "0..2", "--bound", "4"]
    code, data = run_json(capsys, *argv, "--out", "json")
    assert code == 0 and set(data) == {"schema", "rows"}
    code, out = run(capsys, *argv)
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    assert len(csv_rows) == 9
    assert [{k: str(v) for k, v in row.items()} for row in data["rows"]] == csv_rows


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


def run_on_corrupt_record(capsys, monkeypatch, change, verb, *argv):
    """The CLI on case 2.0.1 at l = 3 with its catalog record changed; the
    caches that read the record are emptied before and after."""
    from torhyp.catalog import CASES
    from torhyp.classify import compiled_member
    from torhyp.divisors import eff_generators, nef_generators, picard_basis
    from torhyp.fans import build_family_fan
    from torhyp.toric_ideal import _proven_candidate

    caches = (build_family_fan, picard_basis, nef_generators, eff_generators, compiled_member,
              _proven_candidate)
    monkeypatch.setitem(CASES, "2.0.1", CASES["2.0.1"]._replace(**change))
    for cache in caches:
        cache.cache_clear()
    try:
        return run_json(capsys, verb, "--case", "2.0.1", "--l", "3", *argv)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()


VERBS = [["describe"], ["markov", "--bound", "3"], ["classify", "--coeffs", "1,1"]]


@pytest.mark.parametrize("rows", [
    # The last ray doubled: not primitive, and four cones of |det| 2.
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [6, -2, -2]],
    # Rows of length 2.
    [[1, 0], [-1, 0], [0, 1], [0, 0], [3, -1]],
    # Four rows: the cones on (0, 2), (0, 3), (1, 2), (1, 3) have no second side.
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]],
    # Unimodular cones that do not cover space once.
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [3, 1, 1]],
])
@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
def test_internal_inconsistency_exit2(capsys, monkeypatch, rows, argv):
    # The class map is read off the rays, so stored rays that give no
    # smooth complete fan are corrupt package data, whichever verb reads
    # them first.
    rays = tuple(",".join(map(str, row)) for row in rows)
    code, data = run_on_corrupt_record(capsys, monkeypatch, {"rays": rays}, *argv)
    assert code == 2
    assert set(data) == {"schema", "internal_error"}


@pytest.mark.parametrize("pic_basis", [
    # The complement D_3, D_4, D_5 has determinant 3 at l = 3.
    ("D_1", "D_2"),
    # The complement D_1, D_2, D_3 has rank 2.
    ("D_4", "D_5"),
], ids=["complement-det3", "complement-rank2"])
@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
def test_corrupt_pic_basis_exit2(capsys, monkeypatch, pic_basis, argv):
    # A Picard basis whose complement is no lattice basis gives no class
    # map; that is corrupt package data, whichever verb reads it first.
    code, data = run_on_corrupt_record(capsys, monkeypatch, {"pic_basis": pic_basis}, *argv)
    assert code == 2
    assert set(data) == {"schema", "internal_error"}


@pytest.mark.parametrize("change", [
    # The complement D_1, D_2, D_3 of this basis has rank 2.
    {"pic_basis": ("D_4", "D_5")},
    # A basis label that names no ray.
    {"pic_basis": ("D_9", "D_3")},
    # These collections give cones of determinant 0 and 3.
    {"collections": ((0, 2), (1, 3, 4))},
    # The complement D_3, D_4, D_5 has determinant 3 at l = 3: nonsingular,
    # but not unimodular.
    {"pic_basis": ("D_1", "D_2")},
    # A repeated label leaves four complement rays.
    {"pic_basis": ("D_2", "D_2")},
    # The same cones, but (0, 1, 2) holds the collection (0, 1) and so is
    # no minimal non-face.
    {"collections": ((0, 1), (2, 3, 4), (0, 1, 2))},
    # An effective cone tie label that names no ray.
    {"eff_ties": ("D_9",)},
    # Requirements that do not read: no such comparison, no such
    # parameter, no right-hand side.
    {"requires": ("l >> 0",)},
    {"requires": ("m >= 0",)},
    {"requires": ("l >=",)},
])
def test_corrupt_catalog_record_exit2(capsys, monkeypatch, change):
    # Corrupt encoded data is an internal inconsistency, not invalid input.
    code, data = run_on_corrupt_record(capsys, monkeypatch, change, "describe")
    assert code == 2
    assert set(data) == {"schema", "internal_error"}


@pytest.mark.parametrize("name", ["D_9", "D_2 + D_3"], ids=["no-such-ray", "spaced"])
def test_corrupt_configuration_name_exit2(capsys, monkeypatch, name):
    # A configuration whose name names no ray, or does not read as E', is
    # corrupt package data when a member is compiled.
    from torhyp.catalog import SectionConfig

    change = {"configs": (((), (SectionConfig(name),)),)}
    code, data = run_on_corrupt_record(capsys, monkeypatch, change, "classify", "--coeffs", "3,4")
    assert code == 2
    assert set(data) == {"schema", "internal_error"}


# Catalog text that does not read, with the verbs that read it: a ray
# entry that is no parameter, a character of two entries, and a table
# bound naming a parameter the case does not have.
UNREADABLE_TEXT = [
    ({"rays": ("1,0,0", "-1,0,0", "0,1,0", "0,0,1", "1,q,0")}, verb)
    for verb in VERBS
] + [
    ({"markov": ("1,0,0", "0,b", "0,0,1")}, ["markov", "--bound", "3"]),
    ({"markov": ("1,0,0", "0,b", "0,0,1")}, ["classify", "--coeffs", "3,4"]),
    ({"tables": (TableBlock("all", (), (TableRow(HYPERBOLIC, (("4-a-z", None), (0, None))),)),)},
     ["classify", "--coeffs", "3,4"]),
]


@pytest.mark.parametrize("change, argv", UNREADABLE_TEXT,
                         ids=["ray-describe", "ray-markov", "ray-classify", "character-markov",
                              "character-classify", "bound-classify"])
def test_unreadable_catalog_text_exit2(capsys, monkeypatch, change, argv):
    # Catalog text that does not read is corrupt package data: one JSON
    # document naming the case, exit 2.
    code, data = run_on_corrupt_record(capsys, monkeypatch, change, *argv)
    assert code == 2
    assert set(data) == {"schema", "internal_error"}
    assert "case 2.0.1" in data["internal_error"]


@pytest.mark.parametrize("member, wall, rays", [
    # A wall of form (-1, 0) on the basis (D_2, D_3) beside the unit forms:
    # the cone flattens to one ray.
    (["--case", "2.0.1", "--l", "3", "--coeffs", "1,1"], (1, 2, 0, 0, -1, 0), 1),
    # A wall of form (1, 1, -1) on (D_1, D_4, D_6) cuts a corner off the
    # first octant: four rays.
    (["--case", "3.0.1", "--r", "0", "--a", "0", "--b", "0", "--coeffs", "1,1,1"],
     (5, 1, 0, 3, -1, 0), 4),
], ids=["flat", "four-rays"])
def test_corrupt_wall_relations_exit2(capsys, monkeypatch, member, wall, rays):
    # The nef generators are read off the walls when a member is compiled:
    # a cone of other than rank-many rays is corrupt package data.
    import torhyp.divisors as divisors
    from torhyp.classify import compiled_member

    real = divisors.walls
    monkeypatch.setattr(divisors, "walls", lambda fan: real(fan) + (wall,))
    caches = (divisors.nef_generators, compiled_member)
    for cache in caches:
        cache.cache_clear()
    try:
        code, data = run_json(capsys, "classify", *member)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert code == 2
    assert f"the walls give {rays}" in data["internal_error"]


def test_non_spanning_catalog_characters_fall_to_the_search(capsys, monkeypatch):
    # Catalog characters that span a proper sublattice of Z^3 are not
    # proven: `markov` prints their moves with the bounded search's
    # certificate, and `classify` decides its configuration by searching
    # the difference set, which gives the document of the proven set.
    from torhyp.catalog import CASES
    from torhyp.classify import compiled_member
    from torhyp.fans import family_fan
    from torhyp.toric_ideal import _bounded_search, _proven_candidate

    classify = ["classify", "--case", "2.0.1", "--l", "3", "--coeffs", "3,4"]
    _, want = run_json(capsys, *classify)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 2)]
    monkeypatch.setitem(CASES, "2.0.1", CASES["2.0.1"]._replace(markov=("1,0,0", "0,1,0", "0,0,2")))
    caches = (_proven_candidate, compiled_member)
    for cache in caches:
        cache.cache_clear()
    try:
        fan = family_fan("2.0.1", l=3)
        assert _proven_candidate(fan) is None
        code, data = run_json(capsys, "markov", "--case", "2.0.1", "--l", "3", "--bound", "3")
        assert code == 0
        assert data["candidate"] == [[1, -1, 0, 0, 3], [0, 0, 1, 0, -1], [0, 0, 0, 2, -2]]
        assert data["certificate"] == _bounded_search(fan, deltas, 3).as_json()
        assert data["certificate"]["connected"] is False
        assert run_json(capsys, *classify) == (0, want)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()


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


LARGE_CONFIGURATIONS = [
    # E' = D_2 has 20,302 and 501,502 lattice points, and E' = D_6 - bD_4
    # of 3.0.2 at r = a = 30 has 14,012: far past the pair budget, yet the
    # proven moves decide each with a few existence scans.
    (["--case", "2.0.1", "--l", "200", "--coeffs", "3,4"], (0,)),
    (["--case", "2.0.1", "--l", "1000", "--coeffs", "3,4"], (0,)),
    (["--case", "3.0.2", "--r", "30", "--a", "30", "--b", "-30", "--coeffs", "2,2,2"], (0,)),
    (["--case", "3.0.2", "--r", "100", "--a", "100", "--b", "-100", "--coeffs", "2,2,2"], (0, 1)),
]


@pytest.mark.parametrize(
    "argv,codes", LARGE_CONFIGURATIONS, ids=["201-l200", "201-l1000", "302-r30", "302-r100"]
)
def test_large_catalog_configurations_end(argv, codes):
    proc = subprocess.run(
        [sys.executable, "-m", "torhyp.cli", "classify", *argv],
        capture_output=True, env=child_env(), text=True, timeout=10,
    )
    assert proc.returncode in codes and proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data["schema"] == "torhyp/1" and ("derived" in data) == (proc.returncode == 0)


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


def test_faces_on_a_generic_fan(tmp_path, capsys):
    # The quintic surface in P^3: each face of P(5 D_1) is a plane quintic,
    # of genus 6.
    fan_file = tmp_path / "p3.json"
    fan_file.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES}))
    code, data = run_json(capsys, "faces", "--fan", str(fan_file), "--D", '{"coeffs": {"D_1": 5}}')
    assert code == 0
    assert data["counts"] == [6, 6, 6, 6]


def test_intersect_on_a_generic_fan(tmp_path, capsys):
    # Three coordinate planes of P^3 meet in one point; the pulled-back
    # hyperplane class of a blow-up of P^3 at points has H^3 = 1.
    fan_file = tmp_path / "p3.json"
    fan_file.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES}))
    code, data = run_json(capsys, "intersect", "--fan", str(fan_file),
                          "--d1", '{"coeffs": {"D_1": 1}}', "--d2", '{"coeffs": {"D_2": 1}}',
                          "--d3", '{"coeffs": {"D_3": 1}}')
    assert code == 0 and data["product"] == 1
    document = p3_subdivision(24)
    fan_file.write_text(json.dumps(document))
    h = json.dumps({"coeffs": {f"D_{i + 1}": -min(u) for i, u in enumerate(document["rays"])
                               if min(u) < 0}})
    code, data = run_json(capsys, "intersect", "--fan", str(fan_file), "--d1", h, "--d2", h, "--d3", h)
    assert code == 0 and data["product"] == 1


def test_faces_refuses_a_principal_divisor_on_a_generic_fan(tmp_path, capsys):
    # D_1 - D_4 is the divisor of the character (1, 0, 0).
    fan_file = tmp_path / "p3.json"
    fan_file.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES}))
    code, data = run_json(
        capsys, "faces", "--fan", str(fan_file), "--D", '{"coeffs": {"D_1": 1, "D_4": -1}}'
    )
    assert code == 1
    assert data["error"] == "the zero class has no boundary profile"


@pytest.mark.parametrize("argv,needs", [
    (["nef", "--D", '{"class": [1]}'], '{"class": ...}'),
    (["polytope", "--D", '{"class": [1]}'], '{"class": ...}'),
    (["idp", "--E", '{"coeffs": {"D_1": 1}}', "--Eprime", '{"class": [1]}'], '{"class": ...}'),
    (["faces", "--coeffs", "1"], "--coeffs"),
    (["intersect", "--d1", '{"coeffs": {"D_1": 1}}', "--d2", '{"coeffs": {"D_2": 1}}',
      "--d3", '{"class": [1]}'], '{"class": ...}'),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_catalog_only_input_on_a_generic_fan_names_the_fix(tmp_path, capsys, argv, needs):
    # Class coordinates and table coefficients read a catalog fan's Picard
    # basis: on a fan file the error says so and points to ray coefficients.
    fan_file = tmp_path / "p3.json"
    fan_file.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES}))
    code, data = run_json(capsys, argv[0], "--fan", str(fan_file), *argv[1:])
    assert code == 1
    assert data["error"].startswith(f"{needs} needs a catalog fan (--case); ")
    assert data["error"].endswith('{"coeffs": {label: int}} works on any fan')


@pytest.mark.parametrize("member", [
    ["--case", "2.0.1", "--l", "2"],
    ["--case", "2.0.2", "--l1", "1", "--l2", "2"],
    ["--case", "3.0.2", "--r", "1", "--a", "1", "--b", "-2"],
    ["--case", "3.1.5", "--b1", "2"],
], ids=lambda member: member[1])
@pytest.mark.parametrize("generic", [False, True], ids=["as-written", "without-case"])
def test_faces_on_a_described_fan_matches_the_case(tmp_path, capsys, member, generic):
    # The fan that describe prints, read back by --fan, gives the document
    # --case gives; without its case and parameters it is a generic fan.
    code, described = run_json(capsys, "describe", *member)
    assert code == 0
    fan = described["fan"]
    if generic:
        del fan["case"], fan["params"]
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(fan))
    coeffs = {}
    for k, gen in enumerate(described["nef_generators"], start=2):
        for label, x in gen["divisor"].items():
            coeffs[label] = coeffs.get(label, 0) + k * x
    d = json.dumps({"coeffs": coeffs})
    by_fan = run(capsys, "faces", "--fan", str(fan_file), "--D", d)
    assert by_fan[0] == 0
    assert by_fan == run(capsys, "faces", *member, "--D", d)


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
    # Each 2-face lies in two cones, yet the one cone covers space twice.
    (["nef", "--D", '{"coeffs": {"D_1": 1}}'],
     {"rays": P3_RAYS[:3], "max_cones": [[0, 1, 2], [0, 1, 2]]}, "lies in 2 maximal cones"),
    # Every cone is fine, but a ray outside them all has no divisor.
    (["nef", "--D", '{"coeffs": {"D_5": -1}}'], UNUSED_RAY_FAN, "ray 4 lies in no maximal cone"),
    # Every 2-face lies in two cones, but one cone folds back over another.
    *[([verb, "--D", '{"coeffs": {"D_1": 1}}'], FOLDED_FAN,
       "2-face (0, 1) has both its cones on one side")
      for verb in ("nef", "polytope", "points", "faces")],
    # A label and its alias name one ray.
    (["nef", "--case", "3.1.1", "--b1", "0", "--D", '{"coeffs": {"D_v1": 1, "D_1": -5}}'],
     None, "ray 0 is given twice, as 'D_v1' and 'D_1'"),
    (["nef", "--D", '{"coeffs": {"y": 1, "D_2": 1}}'],
     {"rays": P3_RAYS, "max_cones": P3_CONES, "ray_labels": ["x", "y", "z", "w"]},
     "ray 1 is given twice, as 'y' and 'D_2'"),
    # Two rays of one label, and a label that is another ray's alias.
    (["polytope", "--D", '{"coeffs": {"y": 1}}'],
     {"rays": P3_RAYS, "max_cones": P3_CONES, "ray_labels": ["x", "x", "y", "z"]},
     "'x' names both ray 0 and ray 1"),
    (["polytope", "--D", '{"coeffs": {"y": 1}}'],
     {"rays": P3_RAYS, "max_cones": P3_CONES, "ray_labels": ["D_2", "y", "z", "w"]},
     "'D_2' names both ray 0 and ray 1"),
    # The aliases are D_1 ... D_n in ASCII digits, with no leading zero.
    *[(["nef", "--D", json.dumps({"coeffs": {label: 1}})], {"rays": P3_RAYS, "max_cones": P3_CONES},
       f"no ray labelled {label!r}") for label in ("D_02", "D_\u0662", "D_0", "D_+2", "D_5")],
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


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "2.0.1", "--l", "2", "--coeffs", "-1,2"],
    ["faces", "--case", "2.0.1", "--l", "2", "--coeffs", "-1,2"],
    ["sweep", "--case", "2.0.1", "--l", "1", "--range", "-1..1"],
])
def test_negative_leading_value_is_a_value(capsys, argv):
    # "--coeffs -1,2" reads like "--coeffs=-1,2", not like a flag -1,2.
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *argv) == run(capsys, *joined)
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data == {"schema": "torhyp/1", "error": "table coefficients are nonnegative"}


# Each integer flag with "{}" where its value goes, on an input that answers
# with any of 1, 10 and 3 there: every parameter flag on a member of a case
# that takes it, --bound of each verb that takes it, --coeffs of classify
# and faces, and either end of --range.
PARAMETER_FLAG_MEMBERS = {
    "2.0.1": {"l": 0}, "2.0.2": {"l1": 0, "l2": 10}, "3.0.1": {"r": 0, "a": 0, "b": 1},
    "3.1.3": {"b1": 0, "c2": 1}, "3.1.4": {"b1": 1, "b2": 1},
}
INTEGER_FLAGS = [
    *(["describe", "--case", case,
       *(x for p, v in params.items() for x in (f"--{p}", "{}" if p == name else str(v)))]
      for case, params in PARAMETER_FLAG_MEMBERS.items() for name in params),
    *([verb, "--case", "2.0.1", "--l", "2", *extra, "--bound", "{}"] for verb, extra in [
        ("markov", []), ("classify", ["--coeffs", "3,4"]), ("sweep", []),
        ("connected-sections", ["--E", '{"class": [2, 2]}', "--Eprime", '{"class": [1, 0]}']),
    ]),
    ["classify", "--case", "2.0.1", "--l", "2", "--coeffs", "3,{}"],
    ["faces", "--case", "2.0.1", "--l", "2", "--coeffs", "{},4"],
    ["sweep", "--case", "2.0.1", "--l", "2", "--range", "{}..3"],
    ["sweep", "--case", "2.0.1", "--l", "2", "--range", "0..{}"],
]


def _flag_id(argv):
    flag, value = next((a, b) for a, b in zip(argv, argv[1:]) if "{}" in b)
    return f"{argv[0]}:{argv[2]}:{flag}={value}"


@pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=_flag_id)
@pytest.mark.parametrize("value", ["١", "1_0", "٣"])
def test_integer_flags_read_ascii_digits_only(capsys, argv, value):
    # An integer flag reads as the catalog reads an integer, an optional
    # sign and then the digits 0-9; int() alone would read "١" as 1,
    # "1_0" as 10 and "٣" as 3, and each input answers there.
    code = main([arg.replace("{}", value) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert set(json.loads(captured.out)) == {"schema", "error"}


def test_faces_refuses_both_coeffs_and_d(capsys):
    code, data = run_json(capsys, "faces", "--case", "2.0.1", "--l", "2", "--coeffs", "2,4",
                          "--D", '{"coeffs": {"D_2": 1}}')
    assert code == 1
    assert data == {"schema": "torhyp/1", "error": "faces takes --coeffs or --D, not both"}


def test_many_ray_fan_file_ends_quickly(tmp_path):
    # 24 rays: nef and ample read the fan's 66 walls, and no ray set is
    # searched.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(p3_subdivision(24)))
    proc = subprocess.run(
        [sys.executable, "-m", "torhyp.cli", "nef", "--fan", str(path),
         "--D", '{"coeffs": {"D_1": 1}}'],
        capture_output=True, env=child_env(), text=True, timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["nef"] is False


def test_four_hundred_ray_fan_file_ends_within_a_second(tmp_path):
    # A cold process checks the fan and reads its 1,194 walls: linear in
    # the cones, where a search of ray pairs for primitive collections
    # took seconds at 96 rays.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(p3_subdivision(400)))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torhyp.cli", "nef", "--fan", str(path),
         "--D", '{"coeffs": {"D_1": 1}}'],
        capture_output=True, env=child_env(), text=True, timeout=10,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["nef"] is False
    assert elapsed < 1, elapsed


def run_on_hyperplane_class(tmp_path, verb, nrays, timeout):
    """A cold `verb --fan` on p3_subdivision(nrays) with the pulled-back
    hyperplane class, whose polytope is the unit simplex."""
    document = p3_subdivision(nrays)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(document))
    h = {f"D_{i + 1}": -min(u) for i, u in enumerate(document["rays"]) if min(u) < 0}
    return subprocess.run(
        [sys.executable, "-m", "torhyp.cli", verb, "--fan", str(path),
         "--D", json.dumps({"coeffs": h})],
        capture_output=True, env=child_env(), text=True, timeout=timeout,
    )


@pytest.mark.parametrize("verb", ["nef", "faces"])
def test_four_hundred_ray_fan_file_reads_a_big_class_within_a_second(tmp_path, verb):
    # The pulled-back hyperplane class is nef and big: its triple products
    # come from the 1,194 walls, where the cone recursion over ray triples
    # took seconds at 96 rays.
    proc = run_on_hyperplane_class(tmp_path, verb, 400, timeout=1)
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(proc.stdout)
    assert (data["big"] if verb == "nef" else data["boundary"]["big"]) is True


def test_four_hundred_ray_points_refuse_the_elimination(tmp_path):
    # Eliminating y from the plane projection would pair 18,913 lower with
    # 18,447 upper rows, 348,888,111 in all; the step is refused before any
    # row is formed.
    proc = run_on_hyperplane_class(tmp_path, "points", 400, timeout=10)
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "schema": "torhyp/1",
        "error": "18913 x 18447 elimination pairs exceed the budget of 1000000",
    }


def test_ninety_six_ray_points_answer(tmp_path):
    # 661,821 elimination pairs, inside the budget.
    proc = run_on_hyperplane_class(tmp_path, "points", 96, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["lattice_points"] == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_cone_repeating_a_ray_is_named(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(REPEATED_RAY_FAN))
    code, data = run_json(capsys, "nef", "--fan", str(path), "--D", '{"coeffs": {"D_1": 1}}')
    assert code == 1
    assert data == {"schema": "torhyp/1",
                    "error": "ray 2 lies in no maximal cone; cone (0, 0, 1) repeats a ray"}


def test_twisted_fan_has_no_ample_divisor(tmp_path, capsys):
    # The fan is smooth and complete but not projective: nef divisors
    # exist (-K among them), ample ones do not.
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(TWISTED_FAN))
    rng = random.Random("twisted")
    divisors = [{f"D_{i}": rng.randint(0, 2) for i in range(1, 8)} for _ in range(60)]
    nef = []
    for coeffs in [{f"D_{i}": 1 for i in range(1, 8)}, *divisors]:
        code, data = run_json(capsys, "nef", "--fan", str(path), "--D", json.dumps({"coeffs": coeffs}))
        assert code == 0 and data["ample"] is False, coeffs
        nef.append(data["nef"])
    assert nef[0] and 1 < sum(nef) < len(nef)


def test_well_formed_fan_file_still_reads(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES,
                                "ray_labels": ["x", "y", "z", "w"]}))
    code, data = run_json(capsys, "points", "--fan", str(path), "--D", '{"coeffs": {"w": 1}}')
    assert code == 0 and data["count"] == 4


@pytest.mark.parametrize("labels,label", [
    (["x", "y", "z", "w"], "D_4"),
    # A ray may carry its own alias, and a label that is no alias is free.
    (["D_1", "y", "z", "D_4"], "D_4"),
    (["x", "D_01", "z", "w"], "D_01"),
])
def test_fan_file_labels_and_aliases_read(tmp_path, capsys, labels, label):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"rays": P3_RAYS, "max_cones": P3_CONES, "ray_labels": labels}))
    d = json.dumps({"coeffs": {label: 1}})
    code, data = run_json(capsys, "points", "--fan", str(path), "--D", d)
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
