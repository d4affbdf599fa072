import random
import re
from collections import deque

import pytest

import torhyp.toric_ideal as ti
from torhyp.classify import applicable_configs
from torhyp.catalog import CASES, integers
from torhyp.divisors import character, divisor, is_nef, picard_basis, ray_divisor
from torhyp.fans import ParameterError, build_family_fan, family_fan
from torhyp.intlin import IntMat
from torhyp.polytopes import EnumerationGuardError, lattice_points, polytope_of
from torhyp.toric_ideal import (
    _bounded_search,
    _degree_images,
    _grading,
    _markov_proof,
    _saturated_in,
    connected_sections_check,
    fiber_elements,
    gale_matrix,
    markov_candidate,
    markov_verify,
    section_certificate,
    section_difference_moves,
)

from oracles import PRINTED_MARKOV, pairwise_difference_moves
from test_acceptance import PARAM_GRIDS
from test_divisors import small_members
from test_polytopes import MEMBERS

GRID = [
    ("2.0.1", {"l": l}) for l in (0, 1, 2, 3)
] + [
    ("2.0.2", {"l1": l1, "l2": l2}) for l1 in (0, 1) for l2 in (l1, 3)
] + [
    ("3.0.1", {"r": r, "a": a, "b": b}) for r in (0, 2) for a in (0, 1) for b in (0, 2)
] + [
    ("3.0.2", {"r": r, "a": a, "b": b}) for r in (0, 1) for a in (0, 2) for b in (-1, -3)
] + [
    ("3.1.1", {"b1": b1}) for b1 in (-1, 0, 1, 2)
] + [
    ("3.1.2", {"b1": b1}) for b1 in (-1, 0, 1, 2)
] + [
    # Negative first parameters break the reference move sets in these two
    # cases (see test_markov_candidate_fails_negative_313), so the grid
    # stays nonnegative here.
    ("3.1.3", {"b1": b1, "c2": c2}) for b1 in (0, 2) for c2 in (0, 1)
] + [
    ("3.1.4", {"b1": b1, "b2": b2}) for b1 in (0, 2) for b2 in (0, 1)
] + [
    ("3.1.5", {"b1": b1}) for b1 in (-1, 0, 1, 2)
]


def fiber_graph_connected(fan, moves, image):
    """Oracle: connectivity of one fiber in v-space under the moves and
    their negatives, by breadth-first search over fiber_elements.  Every
    move must lie in ker(B)."""
    b = gale_matrix(fan)
    for mv in moves:
        if any(x != 0 for x in b.mul_vec(mv)):
            raise ValueError(f"move {mv} is not in the kernel of the class map")
    unseen = set(fiber_elements(fan, tuple(image)))
    queue = deque([unseen.pop()] if unseen else [])
    while queue:
        v = queue.popleft()
        for mv in moves:
            for w in (tuple(a + d for a, d in zip(v, mv)), tuple(a - d for a, d in zip(v, mv))):
                if w in unseen:
                    unseen.remove(w)
                    queue.append(w)
    return not unseen


def test_gale_201_printed():
    fan = family_fan("2.0.1", l=2)
    assert gale_matrix(fan).to_rows() == [[1, 1, 0, 0, 0], [-2, 0, 1, 1, 1]]
    assert picard_basis(fan).labels() == ("D_2", "D_3")
    assert fan.ray_labels == ("D_1", "D_2", "D_3", "D_4", "D_5")


def test_gale_301_shape_and_labels():
    fan = family_fan("3.0.1", r=1, a=2, b=3)
    b = gale_matrix(fan)
    assert b.rows == 3 and b.cols == 6
    assert picard_basis(fan).labels() == ("D_1", "D_4", "D_6")


@pytest.mark.parametrize("case,params", GRID, ids=str)
def test_gale_annihilates_rays_everywhere(case, params):
    fan = family_fan(case, **params)
    b = gale_matrix(fan)
    a = IntMat.from_rows(fan.rays)
    for j in range(3):
        assert b.mul_vec(a.col(j)) == (0,) * b.rows


@pytest.mark.parametrize("case,params", GRID, ids=str)
def test_candidate_in_kernel(case, params):
    fan = family_fan(case, **params)
    b = gale_matrix(fan)
    for mv in markov_candidate(fan):
        assert b.mul_vec(mv) == (0,) * b.rows


def test_fiber_of_single_variable_201():
    fan = family_fan("2.0.1", l=1)
    b = gale_matrix(fan)
    image = b.col(2)  # class of the third ray divisor
    fiber = fiber_elements(fan, image)
    assert set(fiber) == {
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    }
    moves = [(0, 0, 1, -1, 0), (0, 0, 0, 1, -1)]
    assert fiber_graph_connected(fan, moves, image)


def test_fiber_single_element_connected():
    # The zero class has the origin as its only fiber element.
    fan = family_fan("2.0.1", l=0)
    assert fiber_elements(fan, (0, 0)) == ((0, 0, 0, 0, 0),)
    assert fiber_graph_connected(fan, [], (0, 0))


def test_markov_candidate_fails_negative_313():
    # With a negative first parameter the reference move set is provably
    # not a Markov basis: a three-element fiber splits in two.
    fan = family_fan("3.1.3", b1=-1, c2=1)
    cert = markov_verify(fan, markov_candidate(fan), bound=4)
    assert not cert.connected
    assert len(fiber_elements(fan, cert.failing_fiber)) >= 2


def test_empty_moves_disconnect_two_element_fiber():
    fan = family_fan("2.0.1", l=0)
    b = gale_matrix(fan)
    image = b.col(2)
    assert len(fiber_elements(fan, image)) > 1
    assert not fiber_graph_connected(fan, [], image)


def test_move_outside_kernel_rejected():
    fan = family_fan("2.0.1", l=1)
    with pytest.raises(ValueError):
        fiber_graph_connected(fan, [(1, 0, 0, 0, 0)], (1, 0))


@pytest.mark.parametrize("case,params", GRID, ids=str)
def test_markov_candidates_verify_bound4(case, params):
    # Bound 4 keeps this quick; the acceptance suite runs the full bound-6
    # sweep over the complete grids.
    fan = family_fan(case, **params)
    cert = markov_verify(fan, markov_candidate(fan), bound=4)
    assert cert.connected, (case, params, cert)


@pytest.mark.parametrize("bound", [0, -3])
def test_bound_below_one_rejected(bound):
    # A bound below one checks at most the zero fiber and certifies nothing.
    fan = family_fan("2.0.1", l=2)
    with pytest.raises(ValueError):
        markov_verify(fan, markov_candidate(fan), bound=bound)


@pytest.mark.parametrize("move, message", [
    ((1, 0, 0, 0, 0), "is not in the kernel of the class map"),
    ((1, -1, 0, 0), "has 4 entries for 5 rays"),
])
def test_markov_verify_names_a_refused_move(move, message):
    fan = family_fan("2.0.1", l=2)
    with pytest.raises(ValueError, match=f"candidate move {re.escape(str(move))} {message}"):
        markov_verify(fan, [move], 2)


def test_dropping_essential_move_fails():
    fan = family_fan("2.0.1", l=1)
    full = markov_candidate(fan)
    weak = [m for m in full if m != (1, -1, 0, 0, 1)]
    cert = markov_verify(fan, weak, bound=4)
    assert not cert.connected
    assert cert.failing_fiber is not None
    fiber = fiber_elements(fan, cert.failing_fiber)
    assert len(fiber) > 1


def test_section_moves_201():
    fan = family_fan("2.0.1", l=2)
    moves = section_difference_moves(ray_divisor(fan, "D_2"))
    required = {(1, -1, 0, 0, 2), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)}
    normalised = set(moves)
    for m in required:
        neg = tuple(-x for x in m)
        assert m in normalised or neg in normalised


def test_section_difference_set_symmetric_with_zero():
    # The underlying difference set contains 0 and is closed under
    # negation; the stored moves are its sign-normalised nonzero half and
    # every one of them lies in the kernel of the class map.
    fan = family_fan("3.1.2", b1=1)
    eprime = divisor(fan, {"D_u1": 1, "D_z1": 1})
    moves = section_difference_moves(eprime)
    assert moves
    b = gale_matrix(fan)
    full = {m for m in moves} | {tuple(-x for x in m) for m in moves} | {(0,) * fan.nrays}
    for m in full:
        assert tuple(-x for x in m) in full
        assert b.mul_vec(m) == (0,) * b.rows


def test_connected_sections_201():
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": 2, "D_3": 2})
    eprime = ray_divisor(fan, "D_2")
    rep = connected_sections_check(d - eprime, eprime, bound=5)
    assert rep["passes"] and rep["idp_checked"]


def test_connected_sections_trivial_eprime_fails():
    fan = family_fan("2.0.1", l=1)
    e = divisor(fan, {"D_2": 1, "D_3": 1})
    rep = connected_sections_check(e, divisor(fan, {}), bound=4)
    assert not rep["passes"]
    assert rep["moves"] == []


def test_connected_sections_requires_nef():
    fan = family_fan("2.0.1", l=1)
    with pytest.raises(ValueError):
        connected_sections_check(divisor(fan, {"D_2": -1}), ray_divisor(fan, "D_2"))


def test_large_coordinates_pack_exactly():
    # Coordinates near a thousand: the fiber search on lattice points must
    # keep distinct fiber elements apart and certify the same fibers.
    fan = family_fan("2.0.2", l1=0, l2=950)
    cert = markov_verify(fan, markov_candidate(fan), bound=2)
    assert cert.as_json() == {
        "bound": 2, "fibers_checked": 10, "connected": True, "failing_fiber": None
    }
    fan = family_fan("3.1.3", b1=-950, c2=0)
    cert = markov_verify(fan, markov_candidate(fan), bound=1)
    assert not cert.connected
    assert cert.failing_fiber == (0, 0, 1)



def fiber_graph_loop(fan, moves, bound):
    """Oracle: the fibers in v-space, one fiber_graph_connected call each."""
    checked = 0
    packed, unpack = _degree_images(fan, bound)
    for image in map(unpack, packed):
        checked += 1
        if not fiber_graph_connected(fan, moves, image):
            return checked, image
    return checked, None


@pytest.mark.parametrize("case,params", MEMBERS, ids=str)
def test_markov_verify_matches_fiber_graph_loop(case, params):
    # The reference set and every set with one move dropped: the search on
    # lattice points of the character lattice must stop at the same fiber
    # as the v-space loop, and some weakened set must fail.
    fan = family_fan(case, **params)
    full = markov_candidate(fan)
    weakened = [full[:i] + full[i + 1:] for i in range(len(full))]
    certs = [markov_verify(fan, moves, bound=4) for moves in [full, *weakened]]
    for moves, cert in zip([full, *weakened], certs):
        assert (cert.fibers_checked, cert.failing_fiber) == fiber_graph_loop(fan, moves, 4)
    assert certs[0].connected
    assert not all(cert.connected for cert in certs[1:])


def characters(fan, moves):
    """The nonzero moves pulled back to Z^3, each pairing with the rays to
    give the move back."""
    return [character(fan, m) for m in moves if any(m)]


def test_reference_moves_are_the_printed_ones_on_small_members():
    # Every member with parameters in -4..4: the catalog's characters,
    # embedded by the ray matrix, are the move lists the paper prints, and
    # each printed move pulls back to its character.
    checked = 0
    for case, params, spec in small_members():
        fan = build_family_fan(spec)
        printed = [tuple(m) for m in PRINTED_MARKOV[case](**params)]
        assert list(markov_candidate(fan)) == printed, spec
        assert [character(fan, m) for m in printed] == [integers(t, params) for t in CASES[case].markov]
        checked += 1
    assert checked == 434
    # A move off the image of the ray matrix has no character.
    assert character(family_fan("2.0.1", l=1), (1, 0, 0, 0, 0)) is None


def test_degree_images_guarded():
    # C(100000 + 5, 5) vectors: refused before the enumeration starts.
    fan = family_fan("2.0.1", l=0)
    with pytest.raises(EnumerationGuardError):
        _degree_images(fan, 100000)


def degree_image_vectors(fan, bound):
    """Oracle: the degree images as vectors, level by level, sorted."""
    b = gale_matrix(fan)
    cols = {b.col(j) for j in range(fan.nrays)}
    level = {(0,) * b.rows}
    images = set(level)
    for _ in range(bound):
        level = {tuple(x + y for x, y in zip(t, c)) for t in level for c in cols}
        images |= level
    return sorted(images)


@pytest.mark.parametrize(
    "case,params", GRID + [("2.0.2", {"l1": 0, "l2": 950}), ("3.1.3", {"b1": -950, "c2": 0})],
    ids=str,
)
def test_packed_degree_images_match_the_vectors(case, params):
    # Packing is one to one and keeps the lexicographic order of the
    # vectors, large entries of B included: the packed images ascend and
    # decode to the vector images in their order.
    fan = family_fan(case, **params)
    for bound in (1, 2, 5):
        packed, unpack = _degree_images(fan, bound)
        assert packed == sorted(set(packed))
        assert list(map(unpack, packed)) == degree_image_vectors(fan, bound), bound


def bounded_certificate(fan, moves, bound):
    """Oracle: the fiber search over every degree image up to the bound,
    without the proven-basis certificate that markov_verify gives a set
    holding the proven moves."""
    return _bounded_search(fan, characters(fan, moves), bound)


def added(a, b, k=1):
    return tuple(x + k * y for x, y in zip(a, b))


@pytest.mark.parametrize("case", list(PARAM_GRIDS))
def test_markov_verify_matches_bounded_search(case):
    # Every criterion-1 member: the reference set (proven), every set with
    # one move dropped and every section configuration set (decided by
    # membership or searched) give the certificate of the bounded search.
    for params in PARAM_GRIDS[case]:
        fan = family_fan(case, **params)
        full = markov_candidate(fan)
        sets = [full] + [full[:i] + full[i + 1:] for i in range(len(full))]
        for config in applicable_configs(fan):
            sets.append(section_difference_moves(divisor(fan, config.eprime_coeffs(params))))
        for moves in sets:
            assert markov_verify(fan, moves, 4) == bounded_certificate(fan, moves, 4), (params, moves)
        assert _markov_proof(fan, characters(fan, full)), params


@pytest.mark.parametrize("case,params", MEMBERS, ids=str)
def test_grading_is_positive_on_the_move_lattice(case, params):
    fan = family_fan(case, **params)
    omega = _grading(fan)
    assert min(omega) >= 1
    for m in markov_candidate(fan):
        assert sum(w * x for w, x in zip(omega, m)) == 0


@pytest.mark.parametrize("case,params", MEMBERS, ids=str)
def test_non_spanning_sets_not_proven(case, params):
    # {2m} and a set with a move dropped span a proper sublattice of
    # ker(B); neither is proven, and both fall to the bounded search.
    fan = family_fan(case, **params)
    full = markov_candidate(fan)
    doubled = [tuple(2 * x for x in m) for m in full]
    for moves in (doubled, full[1:]):
        assert not _markov_proof(fan, characters(fan, moves))
        assert markov_verify(fan, moves, 3) == bounded_certificate(fan, moves, 3)
    assert not markov_verify(fan, doubled, 3).connected


def test_membership_decides_other_bases():
    # {m0, m1 + m0, m2} is another lattice basis of ker(B) on 2.0.2 and a
    # Markov basis there; on 2.0.1 it is not one.  It lacks the proven
    # move m1, so the bounded search tells the two apart.
    fan = family_fan("2.0.2", l1=0, l2=1)
    m = markov_candidate(fan)
    other = [m[0], added(m[1], m[0]), m[2]]
    cert = markov_verify(fan, other, 5)
    assert cert.connected and cert == bounded_certificate(fan, other, 5)
    fan = family_fan("2.0.1", l=1)
    m = markov_candidate(fan)
    other = [m[0], added(m[1], m[0]), m[2]]
    cert = markov_verify(fan, other, 5)
    assert not cert.connected and cert == bounded_certificate(fan, other, 5)


def test_unproven_candidate_falls_back_negative_313():
    fan = family_fan("3.1.3", b1=-1, c2=1)
    assert not _markov_proof(fan, characters(fan, markov_candidate(fan)))
    cert = markov_verify(fan, markov_candidate(fan), 4)
    assert cert == bounded_certificate(fan, markov_candidate(fan), 4)
    assert cert.failing_fiber == (-3, 0, 4)


def test_step_budget_falls_back(monkeypatch):
    # A Buchberger run past the budget leaves the proof undone; the bounded
    # search then gives the same certificate.
    fan = family_fan("3.1.4", b1=2, b2=1)
    full = markov_candidate(fan)
    monkeypatch.setattr(ti, "BUCHBERGER_STEP_BUDGET", 1)
    ti._proven_candidate.cache_clear()
    try:
        assert _saturated_in(full, _grading(fan), 0) is None
        assert not _markov_proof(fan, characters(fan, full))
        assert markov_verify(fan, full, 3) == bounded_certificate(fan, full, 3)
        assert markov_verify(fan, full, 3).connected
    finally:
        ti._proven_candidate.cache_clear()


SYMPY_MEMBERS = [
    ("2.0.1", {"l": 1}),
    ("2.0.2", {"l1": 0, "l2": 1}),
    ("3.0.2", {"r": 1, "a": 0, "b": -1}),
    ("3.1.1", {"b1": 0}),
    ("3.1.3", {"b1": -1, "c2": 1}),
]


@pytest.mark.parametrize("case,params", SYMPY_MEMBERS, ids=str)
def test_saturation_matches_sympy(case, params):
    # Second oracle: I_M : x_i^inf = I_M by sympy's Groebner bases (the
    # saturation as an elimination of t from I_M + <1 - t x_i>), on the
    # reference set and three other lattice bases of ker(B).
    sympy = pytest.importorskip("sympy")
    fan = family_fan(case, **params)
    xs = sympy.symbols(f"x0:{fan.nrays}")
    t = sympy.Symbol("t")

    def saturated(moves, var):
        gens = [
            sympy.Mul(*(x ** max(c, 0) for x, c in zip(xs, m)))
            - sympy.Mul(*(x ** max(-c, 0) for x, c in zip(xs, m)))
            for m in moves
        ]
        ideal = sympy.groebner(gens, *xs, order="grevlex")
        sat = sympy.groebner(gens + [1 - t * var], t, *xs, order="lex")
        return all(ideal.contains(g) for g in sat.exprs if t not in g.free_symbols)

    m = [mv for mv in markov_candidate(fan) if any(mv)]
    omega = _grading(fan)
    bases = [m, [m[0], added(m[1], m[0]), m[2]], [m[0], m[1], added(m[2], m[0], 2)],
             [added(m[0], m[1], -1), m[1], m[2]]]
    for moves in bases:
        per_variable = [_saturated_in(moves, omega, i) for i in range(fan.nrays)]
        assert per_variable == [saturated(moves, x) for x in xs], moves
        assert _markov_proof(fan, characters(fan, moves)) == all(per_variable)


def difference_set_certificate(eprime, bound):
    """Oracle: the Markov verification of the formed difference set."""
    return markov_verify(eprime.fan, section_difference_moves(eprime), bound)


def proven_moves_are_differences(eprime):
    """Whether the fan's moves are proven and each is a difference of
    lattice points of P(E'), up to sign; the difference set is checked
    against the pairwise oracle on the way."""
    proven = ti._proven_candidate(eprime.fan)
    moves = set(section_difference_moves(eprime))
    assert sorted(moves) == list(pairwise_difference_moves(eprime)), eprime.coeffs
    if proven is None:
        return False
    embedded = [ti._embed(eprime.fan, d) for d in proven]
    return all(m in moves or tuple(-x for x in m) in moves for m in embedded)


@pytest.mark.parametrize("case", list(PARAM_GRIDS))
def test_section_certificate_matches_difference_set(case):
    # Every criterion-1 configuration, each decided by the proven moves.
    for params in PARAM_GRIDS[case]:
        fan = family_fan(case, **params)
        for config in applicable_configs(fan):
            eprime = divisor(fan, config.eprime_coeffs(params))
            assert proven_moves_are_differences(eprime), (params, config.name)
            want = difference_set_certificate(eprime, 6)
            assert section_certificate(eprime, 6) == want, (params, config.name)


def larger_members(rng, per_case):
    """Seeded members of every case with parameters in -6..12."""
    out = []
    for case, record in CASES.items():
        while sum(c == case for c, _ in out) < per_case:
            params = {p: rng.randint(-6, 12) for p in record.params}
            try:
                out.append((case, family_fan(case, **params)))
            except ParameterError:
                pass
    return out


def test_section_certificate_matches_difference_set_off_the_grid():
    # Larger members with their configurations, plus the zero divisor and
    # the nef ray divisors, whose few points miss some proven move and so
    # take the fallback.  Only sets of at most 300 points are compared,
    # where the oracle finishes quickly.
    rng = random.Random("section-certificate")
    decided = fallback = 0
    for case, fan in larger_members(rng, 3):
        params = fan.family.as_dict()
        eprimes = [divisor(fan, c.eprime_coeffs(params)) for c in applicable_configs(fan)]
        eprimes += [divisor(fan, {})]
        eprimes += [d for d in (ray_divisor(fan, lab) for lab in fan.ray_labels) if is_nef(d)]
        for eprime in eprimes:
            if len(lattice_points(polytope_of(eprime))) > 300:
                continue
            want = difference_set_certificate(eprime, 3)
            assert section_certificate(eprime, 3) == want, (case, params, eprime.coeffs)
            if proven_moves_are_differences(eprime):
                decided += 1
            else:
                fallback += 1
    assert decided > 0 and fallback > 0, (decided, fallback)


def test_section_certificate_fallback_is_guarded(monkeypatch):
    # E' = D_2 of 2.0.1 at l = 44 has 1,036 points: the proven moves decide
    # it, and without them the difference set is refused, not formed.
    fan = family_fan("2.0.1", l=44)
    eprime = ray_divisor(fan, "D_2")
    assert section_certificate(eprime, 6).as_json() == {
        "bound": 6, "fibers_checked": 84, "connected": True, "failing_fiber": None,
    }
    monkeypatch.setattr(ti, "_proven_candidate", lambda fan: None)
    with pytest.raises(EnumerationGuardError, match="1036\\^2 point differences"):
        section_certificate(eprime, 6)
    with pytest.raises(ValueError, match="at least 1"):
        section_certificate(eprime, 0)
