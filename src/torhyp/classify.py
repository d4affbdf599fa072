"""Hyperbolicity verdicts: boundary genus analysis, sufficient-condition
derivation, and comparison against the package's reference tables.

The derivation engine is one-sided: a Hyperbolic verdict carries a full
machine-checked certificate (boundary curve genera at least two, a passing
connected-sections move verification, nef adjoint class, strictly positive
pairing numbers), a NotHyperbolic verdict names a boundary curve of genus
at most one (or a degenerate surface class), and everything else is Open.
The reference tables record the sharper published classification; the
comparator only demands that the two never contradict each other.

Each job runs once per cell.  The surface class is solved only inside the
boundary profile; the profile and the positivity certificate each read
the one intersection matrix of D they need; the table block is read in a
single pass over its rows, whose coordinate orders are built with the
catalog.  Cells outside every block of their case (negative parameters
of the five-collection cases, for instance) are Unlisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .catalog import CASES, HYPERBOLIC, NOT_HYPERBOLIC, OPEN, SectionConfig
from .divisors import (
    TDivisor,
    ample_reference,
    canonical_divisor,
    class_of,
    divisor,
    is_ample,
    is_nef,
    nef_combination,
)
from .fans import (
    FamilySpec,
    Fan,
    InternalInconsistencyError,
    ParameterError,
    build_family_fan,
    family_record,
)
from .polytopes import intersection_matrix
from .toric_ideal import (
    DEFAULT_MARKOV_BOUND,
    FiberCertificate,
    markov_verify,
    section_difference_moves,
)

UNLISTED = "Unlisted"
AMBIGUOUS = "Ambiguous"


def surface_divisor(fan: Fan, coeffs: Sequence[int]) -> TDivisor:
    """The surface class of a cell, in the case's table parametrisation.

    Coefficients are coordinates along the nef cone: nonnegative tuples are
    exactly the nef classes.
    """
    record, _ = family_record(fan)
    names = record.coeff_names
    if len(coeffs) != len(names):
        raise ParameterError(f"case {fan.family.case_id} takes coefficients {names}")
    if any(c < 0 for c in coeffs):
        raise ParameterError("table coefficients are nonnegative")
    return nef_combination(fan, coeffs)


# Boundary genus profiles.


@dataclass(frozen=True)
class BoundaryEntry:
    ray_index: int
    label: str
    face_dim: int
    interior_count: int

    @property
    def carries_curve(self) -> bool:
        """A zero-dimensional face means the restriction is trivial and the
        very general surface misses that boundary divisor entirely."""
        return self.face_dim >= 1


@dataclass(frozen=True)
class BoundaryProfile:
    divisor: TDivisor
    big: bool
    entries: tuple[BoundaryEntry, ...]

    def low_genus_entry(self) -> BoundaryEntry | None:
        for e in self.entries:
            if e.carries_curve and e.interior_count <= 1:
                return e
        return None

    def as_json(self) -> dict:
        return {
            "big": self.big,
            "entries": [
                {
                    "ray": e.label,
                    "face_dim": e.face_dim,
                    "interior_count": e.interior_count,
                    "carries_curve": e.carries_curve,
                }
                for e in self.entries
            ],
        }


def boundary_genus_profile(d: TDivisor) -> BoundaryProfile:
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
    count zero interior points, P(D) being flat.
    """
    if class_of(d).is_zero():
        raise ValueError("the zero class has no boundary profile")
    if not is_nef(d):
        raise ValueError("boundary profiles assume a nef divisor")
    matrix = intersection_matrix(d)
    squares = [sum(x * m for x, m in zip(d.coeffs, row)) for row in matrix]
    big = sum(x * s for x, s in zip(d.coeffs, squares)) > 0
    entries = []
    for i, (row, square) in enumerate(zip(matrix, squares)):
        if square > 0:
            dim = 2
        else:
            dim = 1 if any(m for k, m in enumerate(row) if k != i) else 0
        # K = -(sum of all D_k), so D.D_rho.(D + D_rho + K) reads off the row.
        count = 1 + (square + row[i] - sum(row)) // 2 if big and dim == 2 else 0
        entries.append(BoundaryEntry(i, d.fan.ray_labels[i], dim, count))
    return BoundaryProfile(d, big, tuple(entries))


def applicable_configs(fan: Fan) -> list[SectionConfig]:
    record, p = family_record(fan)
    return [c for c in record.configs if c.applies(p)]


@lru_cache(maxsize=None)
def _config_certificate(fan: Fan, eprime_key: tuple[int, ...], bound: int) -> FiberCertificate:
    """Markov verification of the difference move set of one E'.

    This is independent of the surface class, so it is cached per family
    member and auxiliary divisor.
    """
    eprime = TDivisor(fan, eprime_key)
    moves = section_difference_moves(eprime)
    return markov_verify(fan, moves, bound)


# Genus-bound machinery.


def noether_lefschetz_applicable(d: TDivisor) -> bool:
    """The adjoint class D + K must be nef for the class-restriction step."""
    return is_nef(d + canonical_divisor(d.fan))


def genus_bound_class(d: TDivisor, e: TDivisor):
    """Class of E + K, the pairing partner in the genus bound."""
    return class_of(e + canonical_divisor(d.fan))


@dataclass(frozen=True)
class PositivityCertificate:
    pairings: tuple[int, ...]
    degrees: tuple[int, ...]
    eff_labels: tuple[str, ...]
    epsilon: Fraction | None

    def as_json(self) -> dict:
        return {
            "pairings": list(self.pairings),
            "degrees": list(self.degrees),
            "effective_generators": list(self.eff_labels),
            "epsilon": str(self.epsilon) if self.epsilon is not None else None,
        }


def positivity_certificate(d: TDivisor, e: TDivisor, h: TDivisor) -> PositivityCertificate:
    """Pairings of E + K and degrees of H against the effective generators.

    alpha_i = (E+K) . D . F_i and beta_i = H . D . F_i over the effective
    cone generators F_i.  When every alpha_i is at least one, epsilon is
    min(alpha_i / beta_i) capped at one, which bounds 2g - 2 from below by
    epsilon times the degree for every movable curve class.

    Every F_i is a ray divisor D_j, so both numbers are read off column j
    of the one matrix of D (symmetric, so column j is row j).  For a nef D
    and an ample H, beta_i = 0 only when D restricts trivially to F_i,
    and then alpha_i = 0 as well.
    """
    if not is_nef(d):
        raise ValueError("the positivity certificate assumes a nef divisor")
    if not is_ample(h):
        raise ValueError("the degree normaliser must be ample")
    fan = d.fan
    ek = (e + canonical_divisor(fan)).coeffs
    record, params = family_record(fan)
    matrix = intersection_matrix(d)
    labels, alphas, betas = [], [], []
    for label in record.eff(**params):
        j = fan.label_index(label)
        labels.append(fan.ray_labels[j])
        alphas.append(sum(x * m for x, m in zip(ek, matrix[j])))
        betas.append(sum(x * m for x, m in zip(h.coeffs, matrix[j])))
    epsilon: Fraction | None = None
    if all(a >= 1 for a in alphas):
        if any(b < 1 for b in betas):
            raise InternalInconsistencyError("positive pairing with a degenerate degree")
        epsilon = min(min(Fraction(a, b) for a, b in zip(alphas, betas)), Fraction(1))
    return PositivityCertificate(tuple(alphas), tuple(betas), tuple(labels), epsilon)


@dataclass(frozen=True)
class TableOutcome:
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
    """Verdict of the encoded reference tables for one cell, in one pass
    over the rows of its block.

    Cells matching rows with conflicting outcomes, and cells that every
    matching row reaches only through its unresolved permutation reading,
    come back as Ambiguous; cells matching nothing are Unlisted.
    """
    params = spec.as_dict()
    coeffs = tuple(int(c) for c in coeffs)
    block = next((b for b in CASES[spec.case_id].tables if b.applies(params)), None)
    if block is None:
        return TableOutcome(UNLISTED, (), None, False, False)
    rows = block.rows if block.param_rows is None else block.rows + tuple(block.param_rows(params))
    hits = [(row.outcome, u) for row in rows if (u := row.match(coeffs, params)) is not None]
    if block.hyp_yields_to_nothyp and any(o == NOT_HYPERBOLIC for o, _ in hits):
        hits = [(o, u) for o, u in hits if o != HYPERBOLIC]
    matched = tuple(dict.fromkeys(o for o, _ in hits))
    ambiguous = len(matched) > 1 or (bool(hits) and all(u for _, u in hits))
    value = AMBIGUOUS if ambiguous else matched[0] if matched else UNLISTED
    return TableOutcome(value, matched, block.name, block.imported, ambiguous)


# Verdict derivation.


@dataclass(frozen=True)
class Verdict:
    outcome: str
    evidence: dict
    table: TableOutcome

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
        return {
            "derived": {"outcome": self.outcome, "evidence": self.evidence},
            "table": self.table.as_json(),
            "agree": self.agree,
        }


def derive_verdict(
    spec: FamilySpec, coeffs: Sequence[int], bound: int = DEFAULT_MARKOV_BOUND
) -> Verdict:
    """Machine-checked verdict for one surface class.

    NotHyperbolic when the boundary contains a curve of genus at most one
    (or the class is trivial or not big); Hyperbolic when the boundary is
    clean and some listed configuration passes the connected-sections,
    adjoint-nef, and positivity checks; Open otherwise.
    """
    fan = build_family_fan(spec)
    table = table_lookup(spec, coeffs)
    d = surface_divisor(fan, coeffs)
    # The nef generators are a basis of Pic (x) Q, so only the zero
    # combination is the trivial class.
    if not any(coeffs):
        return Verdict(NOT_HYPERBOLIC, {"reason": "trivial class"}, table)
    profile = boundary_genus_profile(d)
    if not profile.big:
        return Verdict(
            NOT_HYPERBOLIC,
            {"reason": "class not big: genus 0 boundary curve", "boundary": profile.as_json()},
            table,
        )
    low = profile.low_genus_entry()
    if low is not None:
        return Verdict(
            NOT_HYPERBOLIC,
            {
                "reason": "boundary curve of genus <= 1",
                "ray": low.label,
                "face_dim": low.face_dim,
                "genus": low.interior_count,
                "boundary": profile.as_json(),
            },
            table,
        )
    tried: list[dict] = []
    if not noether_lefschetz_applicable(d):
        return Verdict(
            OPEN,
            {"reason": "adjoint class not nef", "boundary": profile.as_json()},
            table,
        )
    h = ample_reference(fan)
    for config in applicable_configs(fan):
        eprime = divisor(fan, config.eprime_coeffs(fan.family.as_dict()))
        e = d - eprime
        record = {"config": config.name}
        if not is_nef(eprime):
            # Out of the catalog's parameter domain (negative twists).
            record["skip"] = "E' not nef"
            tried.append(record)
            continue
        if not is_nef(e):
            record["skip"] = "E = D - E' not nef"
            tried.append(record)
            continue
        cert = _config_certificate(fan, eprime.coeffs, bound)
        record["connected_sections"] = cert.as_json()
        if not cert.connected:
            tried.append(record)
            continue
        pos = positivity_certificate(d, e, h)
        record["positivity"] = pos.as_json()
        tried.append(record)
        if pos.epsilon is not None:
            evidence = {
                "config": config.name,
                "eprime": eprime.label_dict(),
                "connected_sections": cert.as_json(),
                "adjoint_nef": True,
                "positivity": pos.as_json(),
                "epsilon": str(pos.epsilon),
                "boundary": profile.as_json(),
            }
            return Verdict(HYPERBOLIC, evidence, table)
    return Verdict(OPEN, {"reason": "no derivation applies", "tried": tried}, table)


def sweep(
    spec: FamilySpec,
    coeff_range: Sequence[int],
    bound: int = DEFAULT_MARKOV_BOUND,
) -> Iterable[dict]:
    """Derived and reference verdicts over a coefficient grid."""
    from itertools import product

    names = CASES[spec.case_id].coeff_names
    for coeffs in product(coeff_range, repeat=len(names)):
        verdict = derive_verdict(spec, coeffs, bound)
        row = {"case": spec.case_id}
        row.update(spec.as_dict())
        row.update(dict(zip(names, coeffs)))
        row["derived"] = verdict.outcome
        row["table"] = verdict.table.value
        row["agree"] = verdict.agree
        yield row
