"""The nine classified cases, one record each.

A record holds every stored fact about one case: parameter names and the
parameter domain, rays, ray labels and primitive collections (rays in the
printed order, so divisor indices are stable across the whole package),
the Picard basis, the Markov moves (as characters in Z^3), the
connected-sections configurations and the reference verdict table.
The record holds no functions: rays, characters, requirements,
configurations and the parameter-dependent table bounds are stored as
printed and read only here; the conditions choosing a table block, row or
configuration group are integer intervals, per coefficient or per
parameter (a box).

Facts that follow from these are derived where they are used: the class
map B is read off the rays and the Picard basis
(``divisors.picard_basis``), the nef cone generators off the walls
(``divisors.nef_generators``), the effective cone generators off the ray
classes (``divisors.eff_generators``), surface classes and the ample
reference class are combinations of the nef generators, the canonical
class is the class of K = -sum D_rho, the Markov moves are the characters
embedded by the ray matrix A, so they lie in ker B = im A, and the table
coefficient names follow from the Picard rank.

This module imports nothing from the package.
"""

from __future__ import annotations

import re
from itertools import permutations
from typing import Mapping, NamedTuple

Params = Mapping[str, int]

HYPERBOLIC = "Hyperbolic"
NOT_HYPERBOLIC = "NotHyperbolic"
OPEN = "Open"


# A condition is an integer interval (lo, hi), hi None where unbounded: per
# coefficient in a table row's predicate, where a bound may be text such as
# "4-a-r", and per parameter in a box, the (parameter, interval) pairs that
# must all hold.  Coefficients are nonnegative, so _le(n) = (0, n) serves
# row predicates only, and a printed set (_in) lists consecutive values.
Interval = tuple[int, int | None]
Box = tuple[tuple[str, Interval], ...]


def within(v: int, interval: Interval) -> bool:
    lo, hi = interval
    return lo <= v and (hi is None or v <= hi)


def holds(box: Box, params: Params) -> bool:
    return all(within(params[name], interval) for name, interval in box)


def _box(**intervals: Interval) -> Box:
    return tuple(intervals.items())


def _ge(n):
    return (n, None)


def _le(n):
    return (0, n)


def _eq(n):
    return (n, n)


def _in(*vals):
    return (vals[0], vals[-1])


_ANY = (0, None)


def _terms(text: str, params: Params) -> dict[str, int]:
    """Catalog text, ASCII, as label -> coefficient: a sum of terms
    [sign][coefficient][label], a sign before every later term, a
    coefficient digits or a parameter (1 if absent), a label a ray's D_ name
    or none ("" sums the constants).  Any other text is a ValueError."""
    coeffs: dict[str, int] = {}
    for term in re.split(r"(?<=.)(?=[+-])", text):
        match = re.fullmatch(r"([+-]?)(?:([0-9]+)|([a-z][a-z0-9]*))?(D_[A-Za-z0-9]+)?", term)
        sign, digits, name, label = match.groups("") if match else ("",) * 4
        value = int(digits) if digits else params.get(name) if name else 1
        if not (digits or name or label) or value is None or label and label in coeffs:
            raise ValueError(f"{text!r} does not read as catalog text")
        coeffs[label] = coeffs.get(label, 0) + (-value if sign == "-" else value)
    return coeffs


def integers(text: str, params: Params, n: int = 3) -> tuple[int, ...]:
    """The n comma-separated integers of text, such as "-1,r,a" or "4-a-r"."""
    entries = [_terms(entry, params) for entry in text.split(",")]
    if len(entries) != n or any(entry.keys() != {""} for entry in entries):
        raise ValueError(f"{text!r} does not read as {n} integer(s)")
    return tuple(entry[""] for entry in entries)


def satisfied(requirement: str, params: Params) -> bool:
    """Whether a printed requirement "x >= y" or "x < y" holds; other text is a ValueError."""
    x, op, y = requirement.split(" ")
    if op not in (">=", "<"):
        raise ValueError(f"no comparison {op!r}")
    return (integers(x, params, 1) >= integers(y, params, 1)) == (op == ">=")


class SectionConfig(NamedTuple):
    """A listed auxiliary nef divisor E'; it splits the surface class as D = E + E'."""

    name: str  # E' as printed, e.g. "D_6-bD_4"

    def eprime_coeffs(self, params: Params) -> dict[str, int]:
        """E' read off the name: labelled terms, the first unsigned; other names are a ValueError."""
        coeffs = _terms(self.name, params)
        if "" in coeffs or self.name[:1] in "+-":
            raise ValueError(f"configuration name {self.name!r} does not read as E'")
        return coeffs


class TableRow(NamedTuple):
    outcome: str
    preds: tuple
    permute: bool = False
    # The printed row leaves open whether it holds in every coordinate
    # order; a cell it matches only through a reordering stays unresolved.
    uncertain_permutation: bool = False
    cond: Box = ()

    def orders(self, params: Params) -> tuple:
        """The printed order, text bounds read at the parameters, then every
        other distinct order of a permuted row; read once per member."""
        preds = tuple(tuple(integers(x, params, 1)[0] if isinstance(x, str) else x for x in p)
                      for p in self.preds)
        orders = dict.fromkeys(permutations(preds)) if self.permute else {}
        orders.pop(preds, None)
        return (preds, *orders)


class TableBlock(NamedTuple):
    """A printed table, serving the members in its domain that no earlier block serves."""

    name: str
    domain: Box
    rows: tuple[TableRow, ...]
    imported: bool = False
    # The general rank-3 splitting block lists its hyperbolic region as
    # "everything with e,f >= 2 except the not-hyperbolic column"; the same
    # proviso governs its parameter-dependent threshold rows, so in this
    # block a not-hyperbolic match silences every hyperbolic row.
    hyp_yields_to_nothyp: bool = False


def _configs(*groups):  # (box, name, ...) groups
    return tuple((box, tuple(map(SectionConfig, names))) for box, *names in groups)


def _rows(hyp, nothyp, open_):
    rows = [TableRow(HYPERBOLIC, p) for p in hyp]
    rows += [TableRow(NOT_HYPERBOLIC, p) for p in nothyp]
    rows += [TableRow(OPEN, p) for p in open_]
    return tuple(rows)


class Case(NamedTuple):
    """Everything stored about one case; see the module docstring.

    rays and markov hold each ray and each character as its printed entries
    ("-1,r,a"); requires holds the printed requirements ("x >= y" or
    "x < y"), the first that fails naming the violation.  The first block
    or configuration group whose box holds is chosen, so a printed union is
    a box after the boxes it excludes.  K gives the canonical class.
    eff_ties names the printed one of two ray divisors on one effective ray.
    """

    params: tuple[str, ...]
    requires: tuple[str, ...]
    rays: tuple[str, ...]
    labels: tuple[str, ...]
    collections: tuple[tuple[int, ...], ...]
    pic_basis: tuple[str, ...]
    markov: tuple[str, ...]  # a character delta per move A delta
    configs: tuple[tuple[Box, tuple[SectionConfig, ...]], ...]
    tables: tuple[TableBlock, ...]
    eff_ties: tuple[str, ...] = ()

    def block_at(self, params: Params) -> TableBlock | None:
        """The first block whose domain holds; None leaves the cells Unlisted."""
        return next((b for b in self.tables if holds(b.domain, params)), None)

    def configs_at(self, params: Params) -> tuple[SectionConfig, ...]:
        return next((group for box, group in self.configs if holds(box, params)), ())

    @property
    def coeff_names(self) -> tuple[str, ...]:
        """Table coefficient names, one per nef generator."""
        return ("a", "b") if len(self.pic_basis) == 2 else ("d", "e", "f")


# Rank 2.

_CASE_201 = Case(
    params=("l",),
    requires=("l >= 0",),
    rays=("1,0,0", "-1,0,0", "0,1,0", "0,0,1", "l,-1,-1"),
    labels=("D_1", "D_2", "D_3", "D_4", "D_5"),
    collections=((0, 1), (2, 3, 4)),
    pic_basis=("D_2", "D_3"),
    markov=("1,0,0", "0,1,0", "0,0,1"),
    configs=_configs((_box(l=_eq(0)), "D_2+D_3"), (_box(l=_ge(1)), "D_2")),
    tables=(
        TableBlock(
            "l=0",
            _box(l=_eq(0)),
            _rows(
                [(_ge(3), _ge(4)), (_eq(2), _ge(5))],
                [(_le(1), _ANY), (_ANY, _le(3)), (_eq(2), _eq(4))],
                [],
            ),
            imported=True,
        ),
        TableBlock(
            "l=1",
            _box(l=_eq(1)),
            _rows(
                [(_ge(3), _ge(4)), (_eq(2), _ge(5)), (_ge(5), _eq(0))],
                [(_le(1), _ANY), (_ANY, _in(1, 2, 3)), (_le(4), _eq(0))],
                [],
            ),
            imported=True,
        ),
        TableBlock(
            "l=2",
            _box(l=_eq(2)),
            _rows(
                [(_ge(3), _ge(4)), (_eq(2), _ge(7)), (_ge(4), _eq(0))],
                [(_le(1), _ANY), (_ANY, _in(1, 2, 3)), (_eq(2), _eq(0))],
                [(_eq(2), _in(4, 5, 6)), (_eq(3), _eq(0))],
            ),
        ),
        TableBlock(
            "l=3",
            _box(l=_eq(3)),
            _rows(
                [(_ge(3), _ge(4)), (_eq(2), _ge(7)), (_ge(4), _eq(0))],
                [(_le(1), _ANY), (_ANY, _in(1, 2, 3))],
                [(_eq(2), _in(4, 5, 6)), (_in(2, 3), _eq(0))],
            ),
        ),
        TableBlock(
            "l>=4",
            _box(l=_ge(4)),
            _rows(
                [(_ge(3), _ge(4)), (_eq(2), _ge(7)), (_ge(3), _eq(0))],
                [(_le(1), _ANY), (_ANY, _in(1, 2, 3))],
                [(_eq(2), _in(4, 5, 6)), (_eq(2), _eq(0))],
            ),
        ),
    ),
)

_CASE_202 = Case(
    params=("l1", "l2"),
    requires=("l1 >= 0", "l2 >= l1"),
    rays=("1,0,0", "0,1,0", "-1,-1,0", "0,0,1", "l1,l2,-1"),
    labels=("D_1", "D_2", "D_3", "D_4", "D_5"),
    collections=((0, 1, 2), (3, 4)),
    pic_basis=("D_3", "D_4"),
    eff_ties=("D_2",),  # D_1 ~ D_2 at l1 = l2
    markov=("1,-1,0", "0,1,0", "0,0,1"),
    configs=_configs((_box(l1=_eq(0), l2=_eq(0)), "D_3+D_4"), (_box(l2=_ge(1)), "D_3")),
    tables=(
        TableBlock(
            "l1=l2=0",
            _box(l1=_eq(0), l2=_eq(0)),
            _rows(
                [(_ge(4), _ge(3)), (_ge(5), _eq(2))],
                [(_le(3), _ANY), (_ANY, _le(1)), (_eq(4), _eq(2))],
                [],
            ),
            imported=True,
        ),
        TableBlock(
            "l1=0,l2>=1",
            _box(l1=_eq(0), l2=_ge(1)),
            _rows(
                [(_ge(5), _ge(2))],
                [(_le(3), _ANY), (_ANY, _le(1))],
                [(_eq(4), _ge(2))],
            ),
        ),
        TableBlock(
            "l1>=1",
            _box(l1=_ge(1)),
            _rows(
                [(_ge(5), _ANY)],
                [(_le(3), _ANY)],
                [(_eq(4), _ANY)],
            ),
        ),
    ),
)


# Rank 3 splitting fans: 3.0.1 (b >= 0) and 3.0.2 (b < 0) share the fan
# and the basis.


_CASE_301 = Case(
    params=("r", "a", "b"),
    requires=("r >= 0", "a >= 0", "b >= 0"),
    rays=("1,0,0", "-1,r,a", "0,1,0", "0,-1,b", "0,0,1", "0,0,-1"),
    labels=("D_1", "D_2", "D_3", "D_4", "D_5", "D_6"),
    collections=((0, 1), (2, 3), (4, 5)),
    pic_basis=("D_1", "D_4", "D_6"),
    markov=("1,0,0", "0,1,0", "0,b,1"),
    configs=_configs(
        (_box(r=_eq(0), a=_eq(0), b=_eq(0)), "D_1+D_4+D_6"),
        # Past the first group b = 0 means r + a >= 1; past the second, b >= 1.
        (_box(b=_eq(0)), "D_4+D_6"), (_box(r=_eq(0), a=_eq(0)), "D_1+D_6"), ((), "D_6"),
    ),
    tables=(
        TableBlock(
            "(0,0,0)",
            _box(r=_eq(0), a=_eq(0), b=_eq(0)),
            (
                TableRow(HYPERBOLIC, (_ge(3), _ge(3), _ge(3)), permute=True),
                TableRow(
                    HYPERBOLIC, (_eq(2), _ge(4), _ge(4)), permute=True, uncertain_permutation=True
                ),
                TableRow(NOT_HYPERBOLIC, (_le(1), _ANY, _ANY), permute=True),
                # The product symmetry extends the next row to all coordinate
                # orders, matching the low-genus boundary locus exactly.
                TableRow(NOT_HYPERBOLIC, (_eq(2), _le(3), _ANY), permute=True),
            ),
            imported=True,
        ),
        TableBlock(
            "(>=1,0,0)",
            _box(r=_ge(1), a=_eq(0), b=_eq(0)),
            (
                TableRow(HYPERBOLIC, (_ge(2), _ge(3), _ge(3))),
                TableRow(HYPERBOLIC, (_ge(3), _ge(4), _eq(2))),
                # Printed for r != 1, which is r >= 2 in this block.
                TableRow(HYPERBOLIC, (_ge(2), _eq(2), _ge(4)), cond=_box(r=_ge(2))),
                TableRow(HYPERBOLIC, (_ge(3), _eq(2), _ge(4)), cond=_box(r=_eq(1))),
                TableRow(NOT_HYPERBOLIC, (_le(1), _ANY, _ANY), permute=True),
                TableRow(NOT_HYPERBOLIC, (_ANY, _eq(2), _in(2, 3))),
                TableRow(NOT_HYPERBOLIC, (_ANY, _eq(3), _eq(2))),
                TableRow(NOT_HYPERBOLIC, (_eq(2), _ANY, _eq(2))),
                TableRow(NOT_HYPERBOLIC, (_eq(2), _eq(2), _ge(1)), cond=_box(r=_eq(1))),
            ),
            imported=True,
        ),
        TableBlock(
            "(>=3,>=3,>=1)",
            _box(r=_ge(3), a=_ge(3), b=_ge(1)),
            (
                TableRow(HYPERBOLIC, (_ANY, _ge(2), _ge(3))),
                TableRow(NOT_HYPERBOLIC, (_ANY, _le(1), _ANY)),
                TableRow(NOT_HYPERBOLIC, (_ANY, _ANY, _le(1))),
                TableRow(OPEN, (_ANY, _ge(2), _eq(2))),
            ),
        ),
        TableBlock(
            "general",
            (),
            hyp_yields_to_nothyp=True,
            rows=(
                TableRow(NOT_HYPERBOLIC, (_le(0), _le(1), _ANY)),
                TableRow(NOT_HYPERBOLIC, (_ANY, _ANY, _le(1))),
                TableRow(NOT_HYPERBOLIC, (_ANY, _eq(2), _eq(2)), cond=_box(b=_eq(0))),
                TableRow(NOT_HYPERBOLIC, (_eq(1), _ANY, _ANY), cond=_box(a=_eq(0))),
                TableRow(NOT_HYPERBOLIC, (_eq(2), _ANY, _eq(2)), cond=_box(a=_eq(0))),
                TableRow(NOT_HYPERBOLIC, (_le(1), _ANY, _eq(2)), cond=_box(a=_eq(1))),
                TableRow(NOT_HYPERBOLIC, (_eq(0), _ANY, _eq(2)), cond=_box(a=_eq(2))),
                TableRow(NOT_HYPERBOLIC, (_le(1), _ANY, _ANY), cond=_box(r=_eq(0))),
                TableRow(NOT_HYPERBOLIC, (_eq(2), _eq(2), _ANY), cond=_box(r=_eq(0))),
                TableRow(NOT_HYPERBOLIC, (_le(1), _eq(2), _ANY), cond=_box(r=_eq(1))),
                TableRow(NOT_HYPERBOLIC, (_eq(0), _eq(2), _ANY), cond=_box(r=_eq(2))),
                # The thresholds (4-a-r, 4-b, 3), (4-a-r, 3-b, 4) and (3-a-r, 4-b, 4),
                # e and f at least 2: the whole column is guarded by e, f >= 2.
                TableRow(HYPERBOLIC, (_ge("4-a-r"), _ge(4), _ge(3)), cond=_box(b=_eq(0))),
                TableRow(HYPERBOLIC, (_ge("4-a-r"), _ge(3), _ge(3)), cond=_box(b=_eq(1))),
                TableRow(HYPERBOLIC, (_ge("4-a-r"), _ge(2), _ge(3)), cond=_box(b=_ge(2))),
                TableRow(HYPERBOLIC, (_ge("4-a-r"), _ge(3), _ge(4)), cond=_box(b=_eq(0))),
                TableRow(HYPERBOLIC, (_ge("4-a-r"), _ge(2), _ge(4)), cond=_box(b=_ge(1))),
                TableRow(HYPERBOLIC, (_ge("3-a-r"), _ge(4), _ge(4)), cond=_box(b=_eq(0))),
                TableRow(HYPERBOLIC, (_ge("3-a-r"), _ge(3), _ge(4)), cond=_box(b=_eq(1))),
                TableRow(HYPERBOLIC, (_ge("3-a-r"), _ge(2), _ge(4)), cond=_box(b=_ge(2))),
            ),
        ),
    ),
)

_CASE_302 = _CASE_301._replace(
    requires=("r >= 0", "a >= 0", "b < 0"),
    # Past the first group r + a >= 1.
    configs=_configs((_box(r=_eq(0), a=_eq(0)), "D_1+D_6-bD_4"), ((), "D_6-bD_4")),
    tables=(
        TableBlock(
            "(0,0)",
            _box(r=_eq(0), a=_eq(0)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [
                    (_ANY, _ANY, _le(1)),
                    (_ANY, _le(1), _ANY),
                    (_le(1), _ge(2), _ge(2)),
                    (_eq(2), _eq(2), _ge(2)),
                    (_eq(2), _ge(2), _eq(2)),
                ],
                [(_eq(2), _ge(3), _ge(3)), (_eq(3), _ge(2), _ge(2)), (_ge(4), _ge(2), _in(2, 3))],
            ),
        ),
        TableBlock(
            "(0,>=1)",
            _box(r=_eq(0), a=_ge(1)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [(_ANY, _ANY, _le(1)), (_ANY, _le(1), _ANY), (_le(1), _ge(2), _ge(2))],
                [(_in(2, 3), _ge(2), _ge(2)), (_ge(4), _ge(2), _in(2, 3))],
            ),
        ),
        TableBlock(
            "(>=1,0)",
            _box(r=_ge(1), a=_eq(0)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [
                    (_ANY, _ANY, _le(1)),
                    (_ANY, _le(1), _ANY),
                    (_le(1), _ge(2), _ge(2)),
                    (_eq(2), _ge(2), _eq(2)),
                ],
                [(_eq(2), _ge(2), _ge(3)), (_eq(3), _ge(2), _ge(2)), (_ge(4), _ge(2), _eq(3))],
            ),
        ),
        TableBlock(
            "(>=1,1)",
            _box(r=_ge(1), a=_eq(1)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [(_ANY, _ANY, _le(1)), (_ANY, _le(1), _ANY), (_le(1), _ge(2), _eq(2))],
                [(_le(3), _ge(2), _ge(3)), (_ge(4), _ge(2), _in(2, 3))],
            ),
        ),
        TableBlock(
            "(>=1,2)",
            _box(r=_ge(1), a=_eq(2)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [(_ANY, _ANY, _le(1)), (_ANY, _le(1), _ANY), (_eq(0), _ge(2), _eq(2))],
                [
                    (_eq(0), _ge(2), _ge(3)),
                    (_in(1, 2, 3), _ge(2), _ge(2)),
                    (_ge(4), _ge(2), _in(2, 3)),
                ],
            ),
        ),
        TableBlock(
            "(>=1,>=3)",
            _box(r=_ge(1), a=_ge(3)),
            _rows(
                [(_ge(4), _ge(2), _ge(4))],
                [(_ANY, _ANY, _le(1)), (_ANY, _le(1), _ANY)],
                [(_le(3), _ge(2), _ge(2)), (_ge(4), _ge(2), _in(2, 3))],
            ),
        ),
    ),
)


# Rank 3 with five primitive collections (3.1.1 - 3.1.5).  Parameters are
# unrestricted integers; the basis and the shape of the configuration list
# are shared.  The tables cover nonnegative parameters only: below zero the
# nef cone the walls cut out is not the printed one, so no block applies
# there and such cells are Unlisted.


def _five_collection_configs(zero: Box, z1: Box):
    return _configs((zero, "D_u1+D_z1", "D_v1+D_z1"), (z1, "D_z1"))


_FIVE_COLLECTION = dict(
    requires=(),
    pic_basis=("D_v1", "D_u1", "D_z1"),
)

# 3.1.1, 3.1.2 and 3.1.5 have the one twist b1 and share everything else
# but the rays, labels, collections and tables.
_ONE_TWIST = dict(
    _FIVE_COLLECTION,
    params=("b1",),
    markov=("1,0,0", "0,1,0", "0,0,1"),
    configs=_five_collection_configs(_box(b1=_eq(0)), _box(b1=_ge(2))),
)


def _blocks_311():
    hyp = [(_ge(4), _ge(3), _ge(2)), (_ge(4), _eq(2), _ge(3)), (_ge(4), _eq(0), _ge(5))]
    nothyp = [(_in(1, 2, 3), _ANY, _ANY), (_ANY, _ANY, _le(1)), (_ANY, _eq(1), _ANY)]
    open_ = [(_ge(4), _eq(2), _eq(2)), (_ge(4), _eq(0), _in(2, 3, 4))]
    return (
        TableBlock(
            "b1=0",
            _box(b1=_eq(0)),
            _rows(
                hyp,
                nothyp + [(_eq(0), _eq(0), _le(3)), (_eq(0), _ge(2), _le(3))],
                open_ + [(_eq(0), _ge(2), _ge(4)), (_eq(0), _eq(0), _ge(4))],
            ),
        ),
        TableBlock(
            "b1=1",
            _box(b1=_eq(1)),
            _rows(
                hyp,
                nothyp + [(_eq(0), _eq(0), _le(2)), (_eq(0), _ge(2), _le(2))],
                open_ + [(_eq(0), _ge(2), _ge(3)), (_eq(0), _eq(0), _ge(3))],
            ),
        ),
        TableBlock(
            "b1>=2",
            _box(b1=_ge(2)),
            _rows(
                hyp,
                nothyp,
                open_ + [(_eq(0), _ge(2), _ge(2)), (_eq(0), _eq(0), _ge(2))],
            ),
        ),
    )


def _blocks_312():
    hyp = [(_ge(4), _ge(4), _ge(1))]
    nothyp = [(_in(1, 2, 3), _ANY, _ANY), (_ANY, _in(1, 2, 3), _ANY)]
    open_ = [(_ge(4), _ge(4), _eq(0)), (_ge(4), _eq(0), _ge(2))]
    return (
        TableBlock(
            "b1=0",
            _box(b1=_eq(0)),
            _rows(
                hyp,
                nothyp
                + [(_eq(0), _ge(4), _le(1)), (_ge(4), _eq(0), _le(1)), (_eq(0), _eq(0), _le(3))],
                open_ + [(_eq(0), _ge(4), _ge(2)), (_eq(0), _eq(0), _ge(4))],
            ),
        ),
        TableBlock(
            "b1=1",
            _box(b1=_eq(1)),
            _rows(
                hyp,
                nothyp + [(_ge(4), _eq(0), _le(1)), (_eq(0), _eq(0), _le(2))],
                open_ + [(_eq(0), _ge(4), _ANY), (_eq(0), _eq(0), _ge(3))],
            ),
        ),
        TableBlock(
            "b1>=2",
            _box(b1=_ge(2)),
            _rows(
                hyp,
                nothyp + [(_ge(4), _eq(0), _le(1)), (_eq(0), _eq(0), _le(1))],
                open_ + [(_eq(0), _ge(4), _ANY), (_eq(0), _eq(0), _ge(2))],
            ),
        ),
    )


_CASE_311 = Case(
    **_ONE_TWIST,
    rays=("1,0,0", "0,1,0", "-1,-1,b1", "-1,-1,b1+1", "0,0,1", "0,0,-1"),
    labels=("D_v1", "D_v2", "D_u1", "D_y1", "D_t1", "D_z1"),
    collections=((0, 1, 3), (3, 5), (4, 5), (2, 4), (0, 1, 2)),
    tables=_blocks_311(),
)

_CASE_312 = Case(
    **_ONE_TWIST,
    rays=("1,0,0", "-1,0,b1", "-1,-1,b1+1", "0,1,0", "0,0,1", "0,0,-1"),
    labels=("D_v1", "D_u1", "D_y1", "D_y2", "D_t1", "D_z1"),
    collections=((0, 2, 3), (2, 3, 5), (4, 5), (1, 4), (0, 1)),
    tables=_blocks_312(),
)

_CASE_313 = Case(
    **_FIVE_COLLECTION,
    params=("b1", "c2"),
    rays=("1,0,0", "-1,b1,c2", "-1,b1+1,c2", "0,1,0", "0,-1,-1", "0,0,1"),
    labels=("D_v1", "D_u1", "D_y1", "D_t1", "D_z1", "D_z2"),
    eff_ties=("D_z2",),  # D_z1 ~ D_z2 at c2 = 0, b1 < 0
    collections=((0, 2), (2, 4, 5), (3, 4, 5), (1, 3), (0, 1)),
    markov=("1,0,0", "0,1,0", "0,1,-1"),
    configs=_five_collection_configs(_box(b1=_eq(0), c2=_eq(0)), ()),
    tables=(
        TableBlock(
            "c2=0",
            _box(c2=_eq(0), b1=_ge(0)),
            _rows(
                [(_ge(2), _ge(4), _ge(2))],
                [
                    (_ANY, _in(1, 2, 3), _ANY),
                    (_ANY, _ANY, _le(1)),
                    (_le(1), _ge(4), _ge(2)),
                    (_ANY, _eq(0), _le(3)),
                    (_le(1), _eq(0), _ANY),
                ],
                [(_ge(2), _eq(0), _ge(4))],
            ),
        ),
        TableBlock(
            "b1=0,c2=1",
            _box(b1=_eq(0), c2=_eq(1)),
            _rows(
                [(_ge(1), _ge(4), _ge(2))],
                [(_ANY, _in(1, 2, 3), _ANY), (_ANY, _ANY, _le(1)), (_ANY, _eq(0), _le(3))],
                [(_eq(0), _ge(4), _ge(2)), (_ANY, _eq(0), _ge(4))],
            ),
        ),
        TableBlock(
            # b1 = 0, c2 >= 2 or b1 >= 1, c2 >= 1: the rest of the quadrant.
            "c2-positive",
            _box(b1=_ge(0), c2=_ge(1)),
            _rows(
                [(_ANY, _ge(4), _ge(2))],
                [(_ANY, _in(1, 2, 3), _ANY), (_ANY, _ANY, _le(1)), (_ANY, _eq(0), _le(3))],
                [(_ANY, _eq(0), _ge(4))],
            ),
        ),
    ),
)

_CASE_314 = Case(
    **_FIVE_COLLECTION,
    params=("b1", "b2"),
    rays=("1,0,0", "-1,b1,b2", "-1,b1+1,b2+1", "0,1,0", "0,0,1", "0,-1,-1"),
    labels=("D_v1", "D_u1", "D_y1", "D_t1", "D_t2", "D_z1"),
    collections=((0, 2), (2, 5), (3, 4, 5), (1, 3, 4), (0, 1)),
    markov=("1,0,0", "0,1,0", "0,1,-1"),
    configs=_five_collection_configs(_box(b1=_eq(0), b2=_eq(0)), ()),
    tables=(
        TableBlock(
            "b1=b2=0",
            _box(b1=_eq(0), b2=_eq(0)),
            _rows(
                [(_ge(1), _ge(2), _ge(4))],
                [
                    (_ANY, _ANY, _in(1, 2, 3)),
                    (_ANY, _le(1), _ANY),
                    (_ANY, _le(3), _eq(0)),
                    (_le(1), _ANY, _eq(0)),
                ],
                [(_eq(0), _ge(2), _ge(4)), (_ge(2), _ge(4), _eq(0))],
            ),
        ),
        TableBlock(
            "both-positive",
            _box(b1=_ge(1), b2=_ge(1)),
            _rows(
                [(_ANY, _ge(2), _ge(4))],
                [(_ANY, _ANY, _in(1, 2, 3)), (_ANY, _le(1), _ANY), (_ANY, _le(3), _eq(0))],
                [(_ANY, _ge(4), _eq(0))],
            ),
        ),
        TableBlock(
            # b1 >= 1, b2 = 0 or b1 = 0, b2 >= 1: the rest of the quadrant.
            "one-positive",
            _box(b1=_ge(0), b2=_ge(0)),
            _rows(
                [(_ANY, _ge(2), _ge(4))],
                [
                    (_ANY, _ANY, _in(1, 2, 3)),
                    (_ANY, _le(1), _ANY),
                    (_ANY, _le(3), _eq(0)),
                    (_le(1), _ANY, _eq(0)),
                ],
                [(_ge(2), _ge(4), _eq(0))],
            ),
        ),
    ),
)

_CASE_315 = Case(
    **_ONE_TWIST,
    rays=("1,0,0", "-1,-1,b1", "0,1,0", "-1,0,b1+1", "0,0,1", "0,0,-1"),
    labels=("D_v1", "D_u1", "D_u2", "D_y1", "D_t1", "D_z1"),
    collections=((0, 3), (3, 5), (4, 5), (1, 2, 4), (0, 1, 2)),
    tables=(
        TableBlock(
            "all",
            _box(b1=_ge(0)),
            _rows(
                [(_ge(2), _ANY, _ge(5)), (_ge(2), _ge(1), _eq(4))],
                [
                    (_ANY, _ANY, _in(1, 2, 3)),
                    (_in(0, 1), _ANY, _ANY),
                    (_in(2, 3), _ANY, _eq(0)),
                    (_ANY, _in(0, 1), _eq(0)),
                ],
                [(_ge(2), _eq(0), _eq(4)), (_ge(4), _ge(2), _eq(0))],
            ),
        ),
    ),
)

CASES: dict[str, Case] = {
    "2.0.1": _CASE_201,
    "2.0.2": _CASE_202,
    "3.0.1": _CASE_301,
    "3.0.2": _CASE_302,
    "3.1.1": _CASE_311,
    "3.1.2": _CASE_312,
    "3.1.3": _CASE_313,
    "3.1.4": _CASE_314,
    "3.1.5": _CASE_315,
}
