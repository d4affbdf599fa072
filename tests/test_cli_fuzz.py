"""Property test of the command line contract over generated argument vectors.

Every run ends in exit 0 or 1 with one parseable JSON document on stdout
(CSV for a successful sweep), nothing on stderr and no traceback.  Exit 2
is left out on purpose: it reports corrupt package data, and the shipped
catalog is consistent, so any input that reaches it is misreported.  Inputs
mix valid and invalid cases, parameters, divisors, bounds and ranges; the
parameters are small or huge, never in between, so no run does real work
for long.  The settings are fixed, so the examples are the same each run.
"""

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torhyp.catalog import CASES
from torhyp.cli import main

HUGE = 10**30
# Mostly small valid values, so that many runs get past argument checks.
PARAMS = st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, -1, 10**6, HUGE, -HUGE])
INTS = st.sampled_from([0, 1, 2, 3, -1, -3, 10**6, HUGE, -HUGE])
LABELS = sorted({lab for record in CASES.values() for lab in record.labels} | {"D_9"})
RANGES = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-1, 2)).map(lambda r: f"{r[0]}..{r[1]}"),
    st.sampled_from(["x", "1..", "0..1000", f"0..{HUGE}"]),
)
BOUNDS = st.sampled_from(["1", "2", "2", "3", "3", "0", "-1"])
OUTS = st.sampled_from(["csv", "json", "x"])


def divisors(rank: int):
    """Divisor JSON: classes of the case's rank or of any length, ray
    coefficients by label, and malformed documents."""
    classes = st.one_of(
        st.lists(st.integers(0, 3), min_size=rank, max_size=rank),
        st.lists(INTS, min_size=2, max_size=3),
    )
    return st.one_of(
        classes.map(lambda c: json.dumps({"class": c})),
        st.dictionaries(st.sampled_from(LABELS), INTS, max_size=3).map(
            lambda c: json.dumps({"coeffs": c})
        ),
        st.sampled_from(["x", "5", "[]", "{}", '{"class": [1.5, 2]}', '{"coeffs": {"D_2": true}}']),
    )


def coefficients(rank: int):
    lists = st.one_of(
        st.lists(st.integers(0, 9), min_size=rank, max_size=rank),
        st.lists(INTS, min_size=2, max_size=3),
    )
    return st.one_of(lists.map(lambda c: ",".join(map(str, c))), st.sampled_from(["x", "", "1,,2"]))


# Verb flags with their value strategies, given the case's Picard rank;
# None marks a switch.
VERB_FLAGS = {
    "describe": [],
    "nef": [("--D", divisors)],
    "polytope": [("--D", divisors)],
    "points": [("--D", divisors)],
    "faces": [("--D", divisors), ("--coeffs", coefficients)],
    "idp": [("--E", divisors), ("--Eprime", divisors)],
    "markov": [("--bound", lambda _: BOUNDS)],
    "connected-sections": [
        ("--E", divisors), ("--Eprime", divisors), ("--bound", lambda _: BOUNDS),
        ("--skip-idp", None),
    ],
    "intersect": [("--d1", divisors), ("--d2", divisors), ("--d3", divisors)],
    "classify": [("--coeffs", coefficients), ("--bound", lambda _: BOUNDS)],
    "sweep": [
        ("--range", lambda _: RANGES), ("--bound", lambda _: BOUNDS), ("--out", lambda _: OUTS),
    ],
}


@st.composite
def argument_vectors(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    argv = ["--pretty", verb] if draw(st.booleans()) else [verb]
    case = draw(st.sampled_from([*CASES, *CASES, "9.9.9", None]))
    if case is None:
        argv += ["--fan", "no-such-fan.json"]
    else:
        argv += ["--case", case]
        for name in CASES[case].params if case in CASES else ("l",):
            # A parameter is sometimes left out.
            if draw(st.integers(0, 19)):
                argv += [f"--{name}", str(draw(PARAMS))]
    rank = len(CASES[case].coeff_names) if case in CASES else 2
    for flag, values in VERB_FLAGS[verb]:
        if draw(st.integers(0, 19)):
            argv += [flag] if values is None else [flag, draw(values(rank))]
    return argv


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argument_vectors())
def test_every_argument_vector_ends_in_one_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, out.getvalue())
    assert err.getvalue() == "", argv
    text = out.getvalue()
    if code == 0 and "sweep" in argv[:2] and "json" not in argv:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and rows[0][0] == "case", argv
        assert all(len(row) == len(rows[0]) for row in rows), argv
        return
    data = json.loads(text)
    assert data["schema"] == "torhyp/1", argv
    if code:
        assert set(data) == {"schema", "error"}, (argv, data)
