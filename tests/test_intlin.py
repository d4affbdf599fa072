import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torhyp.intlin import (
    IntMat,
    UnderdeterminedSystemError,
    cone_rays,
    rational_rank,
    solve_3x3,
    solve_exact,
)
from torhyp.polytopes import _bounded

from oracles import det, identity, integer_kernel, mat_mul, smith_normal_form


def check_snf(m: IntMat) -> None:
    snf = smith_normal_form(m)
    assert mat_mul(mat_mul(snf.u, m), snf.v).entries == snf.s.entries
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    diag = snf.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.s[i, j] == 0
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    assert all(d >= 0 for d in diag)


def test_snf_dense_sweep_stays_small():
    # Dense matrices up to 6x6 with entries up to 40: reducing by the least
    # entry keeps every entry small, where pivoting without remainders ran
    # for minutes on this sweep.
    rng = random.Random(8)
    start = time.perf_counter()
    for _ in range(400):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        check_snf(IntMat.from_rows([[rng.randint(-40, 40) for _ in range(nc)] for _ in range(nr)]))
    assert time.perf_counter() - start < 20


def test_snf_identity():
    m = identity(3)
    snf = smith_normal_form(m)
    assert snf.s.entries == m.entries
    assert snf.u.entries == m.entries
    assert snf.v.entries == m.entries


def test_snf_diag_2_4():
    m = IntMat.from_rows([[2, 0], [0, 4]])
    snf = smith_normal_form(m)
    assert snf.diagonal() == (2, 4)
    check_snf(m)


def test_snf_divisibility_forced():
    m = IntMat.from_rows([[4, 0], [0, 6]])
    snf = smith_normal_form(m)
    assert snf.diagonal() == (2, 12)
    check_snf(m)


def test_snf_case_201_ray_matrix_free_cokernel():
    # Rays of the rank-2 family with one twist parameter, as rows; the
    # cokernel must be free of rank 2 whatever the twist.
    for twist in range(0, 5):
        m = IntMat.from_rows([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [twist, -1, -1]])
        snf = smith_normal_form(m)
        assert snf.diagonal() == (1, 1, 1)
        check_snf(m)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_random(nr, nc, data):
    entries = [data.draw(st.integers(-9, 9)) for _ in range(nr * nc)]
    m = IntMat(nr, nc, tuple(entries))
    check_snf(m)


def test_kernel_identity_empty():
    assert integer_kernel(identity(4)) == []


def test_kernel_case_201_gale():
    for twist in range(0, 4):
        b = IntMat.from_rows([[1, 1, 0, 0, 0], [-twist, 0, 1, 1, 1]])
        basis = integer_kernel(b)
        assert len(basis) == 3
        for v in basis:
            assert b.mul_vec(v) == (0, 0)
        # The displayed generators must lie in the span of the basis.
        targets = [(1, -1, 0, 0, twist), (0, 0, 1, 0, -1), (0, 0, 0, 1, -1)]
        span = IntMat.from_rows(basis)
        for tvec in targets:
            ext = IntMat.from_rows(list(span.to_rows()) + [list(tvec)])
            assert rational_rank(ext) == rational_rank(span)


def rational_nullspace_dim(m: IntMat) -> int:
    return m.cols - rational_rank(m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_random_2x4(data):
    entries = [data.draw(st.integers(-6, 6)) for _ in range(8)]
    m = IntMat(2, 4, tuple(entries))
    basis = integer_kernel(m)
    for v in basis:
        assert m.mul_vec(v) == (0, 0)
    assert len(basis) == rational_nullspace_dim(m)
    if basis:
        assert rational_rank(IntMat.from_rows(basis)) == len(basis)


def test_solve_exact_identity():
    m = identity(3)
    assert solve_exact(m, [5, -7, 2]) == (5, -7, 2)


def test_solve_exact_smooth_cone_is_integral():
    rng = random.Random(7)
    for _ in range(50):
        # Build a unimodular matrix from elementary operations.
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        mat = IntMat.from_rows(m)
        assert abs(det(mat)) == 1
        b = [rng.randint(-9, 9) for _ in range(3)]
        x = solve_exact(mat, b)
        assert all(xi.denominator == 1 for xi in x)
        # Cramer oracle.
        cramer = solve_3x3(m, b)
        assert cramer is not None
        nums, den = cramer
        assert tuple(Fraction(n, den) for n in nums) == x


def test_solve_exact_inconsistent():
    m = IntMat.from_rows([[1, 0], [1, 0], [0, 1]])
    assert solve_exact(m, [1, 2, 0]) is None


def test_solve_exact_underdetermined():
    m = IntMat.from_rows([[1, 1], [2, 2]])
    with pytest.raises(UnderdeterminedSystemError):
        solve_exact(m, [3, 6])


def test_solve_exact_substitution_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)]
        m = IntMat.from_rows(rows)
        b = [rng.randint(-5, 5) for _ in range(4)]
        try:
            x = solve_exact(m, b)
        except UnderdeterminedSystemError:
            continue
        if x is None:
            continue
        for i in range(4):
            assert sum(Fraction(m[i, j]) * x[j] for j in range(3)) == b[i]


def test_matrix_checks_its_shape():
    assert IntMat(rows=2, cols=1, entries=(3, 4)) == IntMat.from_rows([[3], [4]])
    with pytest.raises(ValueError, match="entry count does not match shape"):
        IntMat(2, 2, (1, 2, 3))


@pytest.mark.parametrize("forms, rays", [
    # The orthant of Z^3: the three unit rays.
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], {(1, 0, 0), (0, 1, 0), (0, 0, 1)}),
    # The cone over a square, x3 >= |x1| and x3 >= |x2|: four rays.
    ([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)],
     {(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)}),
    # A wedge of Z^2, x1 >= 0 and x1 + 2 x2 >= 0.
    ([(1, 0), (1, 2)], {(0, 1), (2, -1)}),
    # A redundant form and a repeated one change nothing.
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 0)],
     {(1, 0, 0), (0, 1, 0), (0, 0, 1)}),
], ids=["orthant", "square", "wedge", "redundant"])
def test_cone_rays_of_pointed_cones(forms, rays):
    assert set(cone_rays(forms)) == rays


def test_cone_rays_of_forms_in_a_plane_is_its_normal():
    # The set holds the line x1 = x2 = 0, so _bounded sees a recession line.
    forms = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
    assert set(cone_rays(forms)) == {(0, 0, 1), (0, 0, -1)}
    assert not _bounded(tuple(forms))


def test_parallel_forms_give_no_ray():
    # {x1 >= 0} holds a plane, yet no two forms are independent; this is why
    # _bounded also asks for a nonsingular triple of normals.
    forms = [(1, 0, 0), (2, 0, 0), (-1, 0, 0)]
    assert list(cone_rays(forms)) == []
    assert not _bounded(tuple(forms))


def test_cone_rays_are_extremal_on_random_cones():
    # Every ray yielded is primitive, in the cone and tight on two
    # independent forms.  When the cone is pointed and full, its rays span
    # Z^3, and the rays of the dual of the dual are its rays again, as
    # divisors.eff_generators reads them.
    rng = random.Random(32)
    full = 0
    for _ in range(300):
        forms = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(3, 6))]
        rays = set(cone_rays(forms))
        for ray in rays:
            degrees = [sum(f * x for f, x in zip(form, ray)) for form in forms]
            assert min(degrees) >= 0 and math.gcd(*ray) == 1, (forms, ray)
            tight = [form for form, d in zip(forms, degrees) if d == 0]
            assert rational_rank(IntMat.from_rows(tight)) >= 2, (forms, ray)
        pointed = rational_rank(IntMat.from_rows(forms)) == 3
        if pointed and len(rays) >= 3 and rational_rank(IntMat.from_rows(rays)) == 3:
            assert set(cone_rays(list(set(cone_rays(list(rays)))))) == rays, forms
            full += 1
    assert full >= 100
