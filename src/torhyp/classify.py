"""Hyperbolicity verdicts: boundary genus analysis, sufficient-condition
derivation, and comparison against the package's reference tables.

The derivation engine is one-sided: a Hyperbolic verdict carries a full
machine-checked certificate (boundary curve genera at least two, a passing
connected-sections move verification, nef adjoint class, strictly positive
pairing numbers), a NotHyperbolic verdict names a boundary curve of genus
at most one (or a degenerate surface class), and everything else is Open.
The reference tables record the sharper published classification; the
comparator only demands that the two never contradict each other.

Each family member is compiled once (``compiled_member``): its table
block into bit masks (``CompiledTable``) and its verdict numbers, the
cell's mask among them, into one generated integer function of the
cell's nef coordinates (``_evaluator_source``), whose nef tests of D + K
and D - E' read the levels of D on the wall curves (``fans.walls``).
``derive_verdict`` decides a cell, and raises every refusal, from those
numbers; the verdict keeps them and builds its evidence only when read.
``boundary_genus_profile``, ``positivity_certificate`` and ``table_lookup``
compute the same numbers for any cell and are the evaluator's oracles.
Cells outside every block of their case (negative parameters of the
five-collection cases) are Unlisted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .catalog import CASES, HYPERBOLIC, NOT_HYPERBOLIC, OPEN, SectionConfig, TableBlock, holds, within
from .divisors import (
    TDivisor,
    ample_reference,
    canonical_divisor,
    character,
    divisor,
    eff_generators,
    intersection_matrix,
    is_ample,
    is_nef,
    nef_combination,
    nef_generators,
    wall_degrees,
)
from .fans import (
    FAN_CACHE_SIZE,
    FamilySpec,
    Fan,
    InternalInconsistencyError,
    ParameterError,
    build_family_fan,
    family_record,
)
from .toric_ideal import DEFAULT_MARKOV_BOUND, check_bound, section_certificate

UNLISTED = "Unlisted"
AMBIGUOUS = "Ambiguous"


def _cell(case_id: str, names: tuple[str, ...], coeffs: Sequence[int]) -> tuple[int, ...]:
    """A cell's coordinates as ints, checked against the case's table
    parametrisation; anything else is a ParameterError."""
    try:
        cell = tuple(map(index, coeffs))
    except TypeError:
        raise ParameterError("table coefficients are integers") from None
    if len(cell) != len(names):
        raise ParameterError(f"case {case_id} takes coefficients {names}")
    if min(cell) < 0:
        raise ParameterError("table coefficients are nonnegative")
    return cell


def surface_divisor(fan: Fan, coeffs: Sequence[int]) -> TDivisor:
    """The surface class of a cell, in the case's table parametrisation.

    Coefficients are coordinates along the nef cone: nonnegative tuples are
    exactly the nef classes.
    """
    record, _ = family_record(fan)
    return nef_combination(fan, _cell(fan.family.case_id, record.coeff_names, coeffs))


# Boundary genus profiles.


def boundary_genus_profile(d: TDivisor) -> dict:
    """Per-ray minimum faces of P(D) with their interior lattice counts,
    read off the intersection form.

    D is big iff D^3 > 0.  The face of ray rho is the polytope of the nef
    restriction C = D|D_rho: it is 2-dimensional iff C^2 = D^2.D_rho > 0,
    and a point iff C has degree D.D_rho.D_k = 0 on every boundary curve
    D_rho.D_k of D_rho.  For a big D every one-dimensional face yields a
    rational boundary curve and every two-dimensional face a curve whose
    genus is the face's interior count, by adjunction on D_rho:
    2g - 2 = D.D_rho.(D + D_rho + K).  Zero-dimensional faces yield no
    curve.  A nontrivial divisor that is not big always has a genus-zero
    boundary curve, which the profile records by the big flag; its faces
    count zero interior points, P(D) being flat.  Returns the verdict's
    ``boundary`` document, rendered as a verdict renders its own.
    """
    if character(d.fan, d.coeffs) is not None:
        raise ValueError("the zero class has no boundary profile")
    if not is_nef(d):
        raise ValueError("boundary profiles assume a nef divisor")
    matrix = intersection_matrix(d)
    squares = [sum(x * m for x, m in zip(d.coeffs, row)) for row in matrix]
    faces = [sum(x * s for x, s in zip(d.coeffs, squares)) > 0]
    for i, (row, square) in enumerate(zip(matrix, squares)):
        faces += [square, sum(row) - row[i]]
    return boundary_json(tuple(zip(d.fan.ray_labels, range(1, len(faces), 2))), faces)


def _face(square: int, off: int) -> tuple[int, int]:
    """Dimension and genus of a ray's face (``boundary_genus_profile``) from
    D^2.D_rho and off = D.D_rho.(sum of the other D_k) = D^2.D_rho - (2g - 2)."""
    return (2, 1 + (square - off) // 2) if square > 0 else (1 if off else 0, 0)


def boundary_json(layout: Sequence[tuple[str, int]], faces: Sequence) -> dict:
    """The ``boundary`` document of faces = (big, then D^2.D_rho and off
    per slot), ``layout`` pairing each ray label with the position of its
    D^2.D_rho.  The interior count is the genus where D is big, else 0."""
    return {"big": faces[0], "entries": [
        {"ray": label, "face_dim": dim, "interior_count": genus if faces[0] else 0,
         "carries_curve": dim > 0}
        for label, k in layout for dim, genus in [_face(faces[k], faces[k + 1])]
    ]}


def applicable_configs(fan: Fan) -> list[SectionConfig]:
    record, p = family_record(fan)
    return list(record.configs_at(p))


def positivity_certificate(d: TDivisor, e: TDivisor, h: TDivisor) -> dict:
    """Pairings of E + K and degrees of H against the effective generators.

    alpha_i = (E+K) . D . F_i and beta_i = H . D . F_i over the effective
    cone generators F_i, which ``eff_generators`` reads off the ray
    classes.  When every alpha_i is at least one, epsilon is
    min(alpha_i / beta_i) capped at one, which bounds 2g - 2 from below by
    epsilon times the degree for every movable curve class.

    Every F_i is a ray divisor D_j, so both numbers are read off column j
    of the one matrix of D (symmetric, so column j is row j).  For a nef D
    and an ample H, beta_i = 0 only when D restricts trivially to F_i,
    and then alpha_i = 0 as well.  Returns the verdict's ``positivity``
    document, epsilon printed as its ``Fraction`` prints or None.
    """
    if not is_nef(d):
        raise ValueError("the positivity certificate assumes a nef divisor")
    if not is_ample(h):
        raise ValueError("the degree normaliser must be ample")
    fan = d.fan
    ek = (e + canonical_divisor(fan)).coeffs
    matrix = intersection_matrix(d)
    labels, alphas, betas = [], [], []
    for g in eff_generators(fan):
        j = g.coeffs.index(1)
        labels.append(fan.ray_labels[j])
        alphas.append(sum(x * m for x, m in zip(ek, matrix[j])))
        betas.append(sum(x * m for x, m in zip(h.coeffs, matrix[j])))
    epsilon = None
    if all(a >= 1 for a in alphas):
        if any(b < 1 for b in betas):
            raise InternalInconsistencyError("positive pairing with a degenerate degree")
        epsilon = str(min(min(Fraction(a, b) for a, b in zip(alphas, betas)), Fraction(1)))
    return {"pairings": alphas, "degrees": betas, "effective_generators": labels,
            "epsilon": epsilon}


class TableOutcome(NamedTuple):
    value: str
    matched: tuple[str, ...]
    block: str | None
    imported: bool
    ambiguous: bool

    def as_json(self) -> dict:
        return {
            "outcome": self.value,
            "matched": list(self.matched),
            "block": self.block,
            "imported_block": self.imported,
            "ambiguous": self.ambiguous,
        }


def table_lookup(spec: FamilySpec, coeffs: Sequence[int]) -> TableOutcome:
    """Verdict of the encoded reference tables for one cell, read from the
    member's compiled block (``CompiledTable``).

    Cells matching rows with conflicting outcomes, and cells that every
    matching row reaches only through its unresolved permutation reading,
    come back as Ambiguous; cells matching nothing are Unlisted.
    """
    m = compiled_member(spec)
    return m.table.lookup(_cell(spec.case_id, m.names, coeffs))


# Verdict derivation.


class Verdict:
    """A derived outcome with its evidence and the table's outcome, kept as
    the member, evaluator tuple and bound it was decided from until read
    (``_render_evidence``; ``as_json`` adds the boundary), or given as a
    dict (the trivial class, the tests' oracle).  Evidence is shared with
    the member, so it is read, never mutated.
    """

    __slots__ = ("outcome", "table", "_evidence", "_member", "_numbers", "_bound")

    def __init__(self, outcome: str, evidence: dict | None, table: TableOutcome,
                 member: CompiledMember | None = None, numbers: tuple | None = None,
                 bound: int = 0) -> None:
        self.outcome, self._evidence, self.table = outcome, evidence, table
        self._member, self._numbers, self._bound = member, numbers, bound

    @property
    def evidence(self) -> dict:
        if self._evidence is None:
            self._evidence = _render_evidence(self._member, self._numbers, self._bound)
        return self._evidence

    @property
    def boundary(self) -> tuple | None:
        """The (layout, faces) that ``as_json`` renders, if the kind has any."""
        out = self._numbers
        if out is not None and (out[3] is None or self.outcome != OPEN):
            return self._member.layout, out[1]
        return None

    @property
    def agree(self) -> bool:
        if self.table.value in (UNLISTED, AMBIGUOUS):
            return True
        return self.outcome == self.table.value

    @property
    def contradicts_table(self) -> bool:
        pair = {self.outcome, self.table.value}
        return pair == {HYPERBOLIC, NOT_HYPERBOLIC}

    def as_json(self) -> dict:
        evidence, boundary = self.evidence, self.boundary
        if boundary is not None:
            evidence = {**evidence, "boundary": boundary_json(*boundary)}
        return {
            "derived": {"outcome": self.outcome, "evidence": evidence},
            "table": self.table.as_json(),
            "agree": self.agree,
        }


# Compiled members.  On one family member every number the verdict reads is
# a small integer polynomial in the cell's nef coordinates c, D = sum c_a N_a
# (Fulton, Introduction to Toric Varieties, 5.2): D^2.D_rho is a quadratic
# form over the monomials c_a c_b, D^3 = D^2.D reads those, and D.D_rho.D_k,
# the levels D.V of D on the wall curves V, the degrees and the pairings of
# a configuration are linear forms.  Their coefficients come from the
# intersection matrix of each nef generator, once per member, and are
# written out as the source of one straight-line function of c.


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _sum_source(terms: Iterable[tuple[int, str]]) -> str:
    """Source of the sum of k * x over the terms, k an integer and x a
    product of local names: zero terms dropped and a factor one elided.

    Each k is formatted through ``operator.index``, so only an integer
    reaches the source; anything else is corrupt data."""
    text = ""
    for k, x in terms:
        try:
            k = index(k)
        except TypeError:
            raise InternalInconsistencyError(f"form coefficient {k!r} is not an integer") from None
        if k:
            term = x if abs(k) == 1 else f"{abs(k)}*{x}"
            text += f" - {term}" if k < 0 else f" + {term}"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _list_source(items: Sequence[str]) -> str:
    return f"[{', '.join(items)}]"


def _compile_numbers(source: str) -> Callable[..., tuple | None]:
    """The function ``numbers`` that the source defines, executed where no
    global or builtin name can be read."""
    namespace: dict = {"__builtins__": {}}
    exec(source, namespace)
    return namespace["numbers"]


Form = list[tuple[int, str]]


def _positive(terms: Form, pure: set[str]) -> bool:
    """Whether a form is positive at every cell c >= 0, c != 0: no
    coefficient is negative and each pure power c_a^n (``pure``) has a
    positive one."""
    return all(k >= 0 for k, _ in terms) and all(k > 0 for k, x in terms if x in pure)


def _mask_source(index: Sequence[Sequence[int]]) -> str:
    """Source of a cell's row mask (``CompiledTable``): per coordinate a tuple
    of constants, cut before the run of entries equal to its last."""
    parts = []
    for i, admit in enumerate(index):
        n = len(admit) - 1
        while n and admit[n - 1] == admit[-1]:
            n -= 1
        parts.append(f"({admit[:n]}[c{i}] if c{i} < {n} else {admit[-1]})" if n else str(admit[-1]))
    return " & ".join(parts) or "-1"


def _evaluator_source(
    r: int,
    index: Sequence[Sequence[int]],
    nef: Sequence[Sequence[int]],
    squares: Sequence[Form],
    offs: Sequence[Form],
    levels: Sequence[Form],
    adjoint: Sequence[int],
    betas: Sequence[Form],
    eff: Sequence[int],
    configs: Sequence[tuple[Sequence[Form], Sequence[int]] | None],
) -> tuple[str, list[int]]:
    """Source of ``numbers(c0, c1[, c2])`` (see ``CompiledMember``) from a
    member's table masks and its forms over the monomials q<a><b> = c_a c_b
    and the ray coefficients of its nef generators N_a, with each ray's
    position in the faces.

    The faces are D^2.D_rho and the off-diagonal sum off per ray (read by
    ``_face``): a curve iff either is nonzero, of genus <= 1 iff
    D^2.D_rho - off <= 1, which a face of dimension <= 1 always passes.
    A cell with a negative coordinate returns None.  Each distinct form is
    one local, however many rays share it, and no test is written whose
    outcome the coefficients fix on every cell: an off-diagonal sum
    positive at every c >= 0, c != 0, a level (>= 0, the generators being
    nef) against a constant <= 0, a ray whose numbers an earlier ray
    already tested.
    """
    cs = [f"c{a}" for a in range(r)]
    level_text = [_sum_source(f) for f in levels]
    lines = [f"def numbers({', '.join(cs)}):", f"    if {' | '.join(cs)} < 0:", "        return None"]

    def below(floor: Sequence[int]) -> list[str]:
        return [f"{t} < {k}" for t, k in zip(level_text, floor) if k > 0]

    # The locals, text -> name, in an order that defines each before use.
    local: dict[str, str] = {}

    def value(name: str, text: str) -> str:
        return text if text.isdigit() or text.isidentifier() else local.setdefault(text, name)

    sq = [value(f"s{rho}", _sum_source(f)) for rho, f in enumerate(squares)]
    of = [value(f"o{rho}", _sum_source(f)) for rho, f in enumerate(offs)]
    # D^3 = sum over a and rho of c_a N_a[rho] D^2.D_rho.
    volume = [(k, f"{ca}*{s}") for ca, x in zip(cs, nef) for k, s in zip(x, sq) if s != "0"]
    local[f"{_sum_source(volume)} > 0"] = "big"
    linear = set(cs)
    # Each distinct (D^2.D_rho, off) pair is one slot of the faces.
    slot: dict[tuple[str, str], int] = {}
    slots, tests = [], []
    for rho, (s, o) in enumerate(zip(sq, of)):
        # The first ray whose face carries a curve of genus <= 1 (a face
        # that is a point carries none); a ray with the numbers of one
        # already tested adds nothing.
        if (s, o) not in slot:
            slot[s, o] = 1 + 2 * len(slot)
            low = f"{_sum_source([(1, s), (-1, o)])} <= 1"
            carries = "" if _positive(offs[rho], linear) else f"({s} or {o}) and "
            tests.append(f"{rho} if {carries}{low}")
        slots.append(slot[s, o])
    faces = ", ".join(["big", *(x for pair in slot for x in pair)])
    body = [
        f"    mask = {_mask_source(index)}",
        f"    f = ({faces})",
        "    if not big:",
        "        return mask, f, None, None, None",
        f"    low = {' else '.join([*tests, 'None'])}",
        "    if low is not None:",
        "        return mask, f, low, None, None",
    ]
    adjoint_fails = below(adjoint)
    if adjoint_fails:
        body += [f"    if {' or '.join(adjoint_fails)}:", "        return mask, f, None, None, None"]
    pairings = []
    for config in configs:
        if config is None:
            pairings.append("None")
            continue
        forms, floor = config
        alphas = _list_source([_sum_source([(1, sq[j]), *f]) for j, f in zip(eff, forms)])
        fails = below(floor)
        pairings.append(f"None if {' or '.join(fails)} else {alphas}" if fails else alphas)
    betas_text = _list_source([_sum_source(f) for f in betas])
    body.append(f"    return mask, f, None, {betas_text}, {_list_source(pairings)}")
    text = "\n".join([*(f"    {name} = {form}" for form, name in local.items()), *body])
    # The monomials c_a c_b that some term reads, as locals q<a><b>.
    monomials = [
        f"    q{a}{b} = c{a}*c{b}" for a in range(r) for b in range(a, r) if f"q{a}{b}" in text
    ]
    return "\n".join([*lines, *monomials, text, ""]), slots


def _epsilon(alphas: Sequence[int], betas: Sequence[int]) -> str:
    """min(alpha_j / beta_j) capped at one, printed as ``Fraction`` prints
    it, for pairings of at least one over degrees of at least one.

    The least ratio p/q is kept as a pair, compared by cross-multiplying,
    and printed in lowest terms."""
    p, q = 1, 1
    for a, b in zip(alphas, betas):
        if a * q < p * b:
            p, q = a, b
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


BOUNDS_KEPT = 4  # certificates kept per configuration, the oldest bound dropped


class CompiledConfig:
    """One applicable configuration E' of a member: whether E' is nef, its
    labels, and the JSON of its Markov certificate per bound asked for."""

    __slots__ = ("name", "eprime", "labels", "nef", "certs")

    def __init__(self, name: str, eprime: TDivisor) -> None:
        self.name, self.eprime = name, eprime
        self.labels = eprime.label_dict()
        self.nef = is_nef(eprime)
        self.certs: dict[int, dict] = {}

    def certificate(self, bound: int) -> dict:
        cert = self.certs.get(bound)
        if cert is None:
            if len(self.certs) >= BOUNDS_KEPT:
                del self.certs[next(iter(self.certs))]
            cert = self.certs[bound] = section_certificate(self.eprime, bound).as_json()
        return cert


class CompiledTable:
    """A member's table block with its rows as bit masks.

    Bit b stands for one coordinate order of one row; rows whose condition
    fails at the member's parameters are dropped.  index[i][v] has bit b
    set iff order b admits the value v at coordinate i.  Every predicate
    reads all values above its threshold alike, so index[i] lists the
    values up to one past coordinate i's largest threshold and a larger
    value reads its last entry.  A cell matches the orders whose bits
    survive the and over its coordinates; the member's ``numbers`` reads
    that mask from its own copy of the tables, and ``lookup`` is its
    oracle.  The outcome of each mask is kept in ``memo``, which holds at
    most the product over the coordinates of their numbers of distinct
    entries.  Each row is (outcome, the bits of its orders, the bit of its
    printed order, whether a match through another order is unresolved).
    """

    __slots__ = ("block", "index", "rows", "memo")

    def __init__(self, block: TableBlock | None, index: tuple, rows: tuple) -> None:
        self.block, self.index, self.rows = block, index, rows
        self.memo: dict[int, TableOutcome] = {}

    def lookup(self, coeffs: tuple[int, ...]) -> TableOutcome:
        """Outcome of a cell of nonnegative ints."""
        mask = -1
        for admit, v in zip(self.index, coeffs):
            mask &= admit[v] if v < len(admit) else admit[-1]
        return self.memo.get(mask) or self.outcome(mask)

    def outcome(self, mask: int) -> TableOutcome:
        """Outcome of a row mask, kept in ``memo``."""
        block = self.block
        if block is None:
            return self.memo.setdefault(mask, TableOutcome(UNLISTED, (), None, False, False))
        hits = [
            (outcome, uncertain and not mask & printed)
            for outcome, orders, printed, uncertain in self.rows
            if mask & orders
        ]
        if block.hyp_yields_to_nothyp and any(o == NOT_HYPERBOLIC for o, _ in hits):
            hits = [(o, u) for o, u in hits if o != HYPERBOLIC]
        matched = tuple(dict.fromkeys(o for o, _ in hits))
        ambiguous = len(matched) > 1 or (bool(hits) and all(u for _, u in hits))
        value = AMBIGUOUS if ambiguous else matched[0] if matched else UNLISTED
        outcome = TableOutcome(value, matched, block.name, block.imported, ambiguous)
        return self.memo.setdefault(mask, outcome)


def _compile_table(block: TableBlock | None, params: dict[str, int]) -> CompiledTable:
    if block is None:
        return CompiledTable(None, (), ())
    rows = [(r, r.orders(params)) for r in block.rows if holds(r.cond, params)]
    orders = [order for _, row_orders in rows for order in row_orders]

    def admits(i: int) -> tuple[int, ...]:
        column = [order[i] for order in orders]
        top = max(max(lo if hi is None else hi for lo, hi in column) + 1, 0)
        return tuple(
            sum(1 << b for b, pred in enumerate(column) if within(v, pred))
            for v in range(top + 1)
        )

    compiled, b = [], 0
    for r, row_orders in rows:
        n = len(row_orders)
        compiled.append((r.outcome, ((1 << n) - 1) << b, 1 << b, r.uncertain_permutation))
        b += n
    index = tuple(admits(i) for i in range(len(orders[0]) if orders else 0))
    return CompiledTable(block, index, tuple(compiled))


class CompiledMember(NamedTuple):
    """Everything ``derive_verdict`` reads about one family member.

    ``numbers(c0, c1[, c2])`` is an integer function of the cell,
    generated from the member's table masks and forms
    (``_evaluator_source``; ``source`` keeps its text).  It returns None
    for a cell with a negative coordinate, and otherwise (mask, faces,
    low, degrees, pairings): the cell's row mask (the key of
    ``table.memo``); the faces that ``boundary_json`` renders with
    ``layout``, the big flag and then D^2.D_rho and the off-diagonal sum
    per distinct pair of ray forms; ``low``, the index of the first ray
    whose face carries a curve of genus at most one; and, only
    when D is big, has no such ray and D + K is nef, the degrees H.D.F_j
    over the effective generators F_j and per configuration the pairings
    (E + K).D.F_j = D^2.F_j + (K - E').D.F_j, None for a configuration
    whose E' or D - E' is not nef.  Where it returns early the degrees
    and pairings are None.
    """

    names: tuple[str, ...]
    table: CompiledTable
    layout: tuple[tuple[str, int], ...]
    eff_labels: list[str]
    configs: tuple[CompiledConfig, ...]
    source: str
    numbers: Callable[..., tuple | None]


@lru_cache(maxsize=FAN_CACHE_SIZE)
def compiled_member(spec: FamilySpec) -> CompiledMember:
    """Compile a member's table block and verdict forms.

    The nef generators are the rank-many extremal rays of the nef cone
    (``nef_generators``, which refuses any other count), so their classes
    are independent and c != 0 is a nonzero class, c >= 0 is a nef D, and
    their sum H is ample: a nonzero wall form that is >= 0 on a spanning
    set is positive on its sum.
    """
    fan = build_family_fan(spec)
    record, params = family_record(fan)
    gens = nef_generators(fan)
    h = ample_reference(fan)
    # mats[a][rho][s] = N_a.D_rho.D_s, so _dot(x, mats[a][rho]) = X.N_a.D_rho,
    # and triple[a][b][rho] = N_a.N_b.D_rho.
    mats = [intersection_matrix(g) for g in gens]
    triple = [[[_dot(g.coeffs, row) for row in m] for g in gens] for m in mats]
    r = len(gens)
    cs = [f"c{a}" for a in range(r)]
    pairs = [(a, b) for a in range(r) for b in range(a, r)]

    def form(x: Sequence[int], rho: int) -> list[tuple[int, str]]:
        return [(_dot(x, m[rho]), ca) for m, ca in zip(mats, cs)]

    squares = [
        [((1 if a == b else 2) * triple[a][b][rho], f"q{a}{b}") for a, b in pairs]
        for rho in range(fan.nrays)
    ]
    offs = [[(sum(m[rho]) - m[rho][rho], ca) for m, ca in zip(mats, cs)] for rho in range(fan.nrays)]
    # The level D.V of D on a wall curve V is the form f = (N_a.V)_a in c.
    # Walls of one form are one curve class (the generator classes are a
    # basis), so each distinct form is tested once, against the floor X.V
    # (X = -K or E') of its first wall.  Every form is >= 0, the generators
    # being nef.  When every unit form occurs, on curves V_a, a form f is
    # the class sum f_a V_a, so X.V = sum f_a X.V_a and the unit tests
    # c_a >= X.V_a imply f(c) >= X.V: only the units are kept.
    first: dict[tuple[int, ...], int] = {}
    for w, f in enumerate(zip(*(wall_degrees(fan, g.coeffs) for g in gens))):
        first.setdefault(f, w)
    units = {tuple(int(a == b) for b in range(r)) for a in range(r)}
    every_unit = units <= first.keys()
    kept = [(f, w) for f, w in first.items() if not every_unit or f in units]

    def floor(x: Sequence[int]) -> list[int]:
        degrees = wall_degrees(fan, x)
        return [degrees[w] for _, w in kept]

    levels = [list(zip(f, cs)) for f, _ in kept]
    eff = [g.coeffs.index(1) for g in eff_generators(fan)]
    canonical = canonical_divisor(fan).coeffs
    try:
        table = _compile_table(record.block_at(params), params)
        configs = [CompiledConfig(c.name, divisor(fan, c.eprime_coeffs(params)))
                   for c in applicable_configs(fan)]
    except ValueError as exc:
        raise InternalInconsistencyError(f"case {spec.case_id}: {exc}") from None
    # Per configuration: None where E' is not nef, else its (K - E').D.F_j
    # forms and the levels of E', which D must reach for D - E' to be nef.
    config_forms = []
    for config in configs:
        if not config.nef:
            config_forms.append(None)
            continue
        k_minus = tuple(k - e for k, e in zip(canonical, config.eprime.coeffs))
        config_forms.append(([form(k_minus, j) for j in eff], floor(config.eprime.coeffs)))
    source, slots = _evaluator_source(
        r, table.index, [g.coeffs for g in gens], squares, offs, levels,
        [-k for k in floor(canonical)],
        [form(h.coeffs, j) for j in eff], eff, config_forms,
    )
    return CompiledMember(
        names=record.coeff_names,
        table=table,
        layout=tuple(zip(fan.ray_labels, slots)),
        eff_labels=[fan.ray_labels[j] for j in eff],
        configs=tuple(configs),
        source=source,
        numbers=_compile_numbers(source),
    )


def derive_verdict(
    spec: FamilySpec, coeffs: Sequence[int], bound: int = DEFAULT_MARKOV_BOUND
) -> Verdict:
    """Machine-checked verdict for one surface class.

    NotHyperbolic when the boundary contains a curve of genus at most one
    (or the class is trivial or not big); Hyperbolic when the boundary is
    clean and some listed configuration passes the connected-sections,
    adjoint-nef, and positivity checks; Open otherwise.  Decided from one
    call of the member's compiled ``numbers`` and the connectivity of its
    certificates at the bound; the evidence is built when read.  Every
    refusal is raised here, as ``_cell`` and the oracles raise it: a bound
    below one, a bad cell, a degenerate degree.
    """
    check_bound(bound)
    m = compiled_member(spec)
    c = coeffs
    try:
        if type(c) is not tuple:  # the cell is read again below, so not an iterator
            c = tuple(c)
        out = m.numbers(*map(index, c))
    except TypeError:  # not integers, or not the case's number of them
        out = None
    if out is None:  # numbers refuses only the cells that _cell refuses
        _cell(spec.case_id, m.names, c)
    mask, faces, low, betas, pairings = out
    table = m.table.memo.get(mask) or m.table.outcome(mask)
    if betas is None:
        # The generator classes are independent (``nef_generators``), so
        # only the zero combination is the trivial class.
        if not faces[0] and not any(c):
            return Verdict(NOT_HYPERBOLIC, {"reason": "trivial class"}, table)
        # Big with no low-genus ray: the adjoint class is not nef.
        return Verdict(OPEN if faces[0] and low is None else NOT_HYPERBOLIC, None, table, m, out)
    for config, alphas in zip(m.configs, pairings):
        if alphas is None or not config.certificate(bound)["connected"]:
            continue
        if min(alphas) >= 1:
            if min(betas) < 1:
                raise InternalInconsistencyError("positive pairing with a degenerate degree")
            return Verdict(HYPERBOLIC, None, table, m, out, bound)
    return Verdict(OPEN, None, table, m, out, bound)


def _render_evidence(m: CompiledMember, out: tuple, bound: int) -> dict:
    """The evidence but the boundary of a verdict decided from the member's
    evaluator tuple at the bound, configurations walked in catalog order."""
    _, faces, low, betas, pairings = out
    if betas is None:
        if low is not None:
            label, k = m.layout[low]
            dim, genus = _face(faces[k], faces[k + 1])
            return {"reason": "boundary curve of genus <= 1", "ray": label, "face_dim": dim,
                    "genus": genus}
        return {"reason": "adjoint class not nef" if faces[0]
                else "class not big: genus 0 boundary curve"}
    tried: list[dict] = []
    for config, alphas in zip(m.configs, pairings):
        tried.append(record := {"config": config.name})
        if not config.nef or alphas is None:
            # E' is not nef only out of the catalog's parameter domain.
            record["skip"] = "E = D - E' not nef" if config.nef else "E' not nef"
            continue
        cert = record["connected_sections"] = config.certificate(bound)
        if not cert["connected"]:
            continue
        pos = record["positivity"] = {"pairings": alphas, "degrees": betas,
                                      "effective_generators": m.eff_labels, "epsilon": None}
        if min(alphas) >= 1:
            epsilon = pos["epsilon"] = _epsilon(alphas, betas)
            return {"config": config.name, "eprime": config.labels, "connected_sections": cert,
                    "adjoint_nef": True, "positivity": pos, "epsilon": epsilon}
    return {"reason": "no derivation applies", "tried": tried}


def sweep(
    spec: FamilySpec,
    coeff_range: Sequence[int],
    bound: int = DEFAULT_MARKOV_BOUND,
) -> Iterable[dict]:
    """Derived and reference verdicts over a coefficient grid."""
    from itertools import product

    names = CASES[spec.case_id].coeff_names
    for coeffs in product(coeff_range, repeat=len(names)):
        v = derive_verdict(spec, coeffs, bound)
        yield {"case": spec.case_id, **spec.as_dict(), **dict(zip(names, coeffs)),
               "derived": v.outcome, "table": v.table.value, "agree": v.agree}
