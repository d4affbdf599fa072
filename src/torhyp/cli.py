"""Command line front end.

Every verb prints a single JSON document (sorted keys) on stdout, or CSV
for sweeps.  Exit status 0 on success, 1 on invalid input (argument
errors included) and 2 when an internal consistency check fails (the
package's encoded tables disagreeing with a recomputation).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from . import classify as _classify
from . import divisors as _div
from . import fans as _fans
from . import polytopes as _poly
from . import toric_ideal as _ti
from .catalog import CASES

SCHEMA = "torhyp/1"


class CliError(Exception):
    pass


def _integer(text: str) -> int:
    """An integer as the catalog reads one: an optional sign, then ASCII
    digits; ``int`` alone also reads other scripts' digits, underscores
    and spaces."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"invalid literal for an integer: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so they end in one JSON document with
    exit 1 like every other invalid input; --help still prints and exits 0.
    An argument that starts with a minus and a digit is a value, as in
    ``--coeffs -1,2`` or ``--range -1..1``: no flag looks like that.  Every
    ``type=int`` flag reads its value with ``_integer``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]")
        self.register("type", int, _integer)

    def error(self, message):
        raise CliError(message)


def _emit(data: dict, pretty: bool) -> None:
    data = {"schema": SCHEMA, **data}
    print(json.dumps(data, sort_keys=True, indent=2 if pretty else None))


def _family_flags() -> argparse.ArgumentParser:
    """The fan flags every verb takes, built once and shared as a parent."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--case", help="family case id, e.g. 2.0.1")
    p.add_argument("--fan", help="path to a fan JSON file (generic input)")
    for name in dict.fromkeys(n for record in CASES.values() for n in record.params):
        p.add_argument(f"--{name}", type=int, default=None)
    return p


def _fan_from_args(args, need_catalog: bool = False) -> _fans.Fan:
    if args.case:
        if args.case not in CASES:
            raise CliError(f"unknown case {args.case!r}; choose from {', '.join(CASES)}")
        params = {name: getattr(args, name) for name in CASES[args.case].params}
        missing = [n for n, v in params.items() if v is None]
        if missing:
            raise CliError(f"case {args.case} needs --{' --'.join(missing)}")
        return _fans.family_fan(args.case, **params)
    if args.fan:
        if need_catalog:
            raise CliError("this verb needs a catalog fan (--case)")
        try:
            with open(args.fan) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read fan file {args.fan!r}: {exc.strerror}")
        return _fans.fan_from_json_str(text)
    raise CliError("give either --case with its parameters or --fan FILE")


# Class coordinates and table coefficients are read in a catalog fan's
# Picard basis; ray coefficients need no basis.
_COEFFS_ON_ANY_FAN = '{"coeffs": {label: int}} works on any fan'


def _divisor_from_flag(fan: _fans.Fan, text: str) -> _div.TDivisor:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"divisor must be JSON ({exc})")
    if fan.family is None and isinstance(data, dict) and "class" in data and "coeffs" not in data:
        raise CliError(f'{{"class": ...}} needs a catalog fan (--case); {_COEFFS_ON_ANY_FAN}')
    return _div.divisor_from_json(fan, data)


def _coeffs_from_flag(text: str) -> tuple[int, ...]:
    try:
        coeffs = tuple(map(_integer, text.split(",")))
    except ValueError:
        raise CliError("--coeffs wants a comma-separated integer list")
    return coeffs


def _class_json(d: _div.TDivisor) -> dict:
    return {"basis": list(_div.picard_basis(d.fan).labels()), "coords": list(_div.class_of(d))}


def cmd_describe(args) -> dict:
    fan = _fan_from_args(args, need_catalog=True)
    basis = _div.picard_basis(fan)
    nef = _div.nef_generators(fan)
    eff = _div.eff_generators(fan)
    k_class = _class_json(_div.canonical_divisor(fan))
    record, _ = _fans.family_record(fan)
    return {
        "fan": _fans.fan_to_json(fan),
        "splitting": _fans.is_splitting(record.collections),
        "picard": {
            "rank": basis.rank,
            "basis": list(basis.labels()),
        },
        "nef_generators": [
            {"divisor": g.label_dict(), "class": _class_json(g), "nef": _div.is_nef(g)}
            for g in nef
        ],
        "eff_generators": [
            {"divisor": g.label_dict(), "class": _class_json(g)} for g in eff
        ],
        # The class of K is derived, not stored; the reference keys stay
        # for the schema.
        "canonical": {
            "divisor": {lab: -1 for lab in fan.ray_labels},
            "class": k_class,
            "reference_coords": k_class["coords"],
            "matches_reference": True,
        },
    }


def cmd_nef(args) -> dict:
    fan = _fan_from_args(args)
    d = _divisor_from_flag(fan, args.D)
    res = {"divisor": d.label_dict(), "nef": _div.is_nef(d), "ample": _div.is_ample(d)}
    if res["nef"]:
        res["big"] = _div.is_big(d)
    return res


def cmd_polytope(args) -> dict:
    fan = _fan_from_args(args)
    d = _divisor_from_flag(fan, args.D)
    p = _poly.polytope_of(d)
    out = _poly.polytope_json(p)
    out["volume"] = str(_poly.volume(p))
    return out


def cmd_points(args) -> dict:
    fan = _fan_from_args(args)
    d = _divisor_from_flag(fan, args.D)
    pts = _poly.lattice_points(_poly.polytope_of(d))
    return {"lattice_points": [list(m) for m in pts], "count": len(pts)}


def cmd_faces(args) -> dict:
    if args.coeffs and args.D:
        raise CliError("faces takes --coeffs or --D, not both")
    fan = _fan_from_args(args)
    if args.coeffs:
        if fan.family is None:
            raise CliError(f"--coeffs needs a catalog fan (--case); --D {_COEFFS_ON_ANY_FAN}")
        d = _classify.surface_divisor(fan, _coeffs_from_flag(args.coeffs))
    elif args.D:
        d = _divisor_from_flag(fan, args.D)
    else:
        raise CliError("faces wants --coeffs or --D")
    profile = _classify.boundary_genus_profile(d)
    counts = [e["interior_count"] for e in profile["entries"]]
    return {"divisor": d.label_dict(), "boundary": profile, "counts": counts}


def cmd_idp(args) -> dict:
    fan = _fan_from_args(args)
    e = _divisor_from_flag(fan, args.E)
    ep = _divisor_from_flag(fan, args.Eprime)
    witness = _poly.idp_check(e, ep)
    return {
        "E": e.label_dict(),
        "Eprime": ep.label_dict(),
        "idp": witness is None,
        "witness": None if witness is None else list(witness),
    }


def cmd_markov(args) -> dict:
    fan = _fan_from_args(args, need_catalog=True)
    candidate = _ti.markov_candidate(fan)
    cert = _ti.markov_verify(fan, candidate, args.bound)
    return {
        "B": _ti.gale_matrix(fan).to_rows(),
        "column_labels": list(fan.ray_labels),
        "row_labels": list(_div.picard_basis(fan).labels()),
        "candidate": [list(m) for m in candidate],
        "certificate": cert.as_json(),
    }


def cmd_connected_sections(args) -> dict:
    fan = _fan_from_args(args, need_catalog=True)
    e = _divisor_from_flag(fan, args.E)
    ep = _divisor_from_flag(fan, args.Eprime)
    rep = _ti.connected_sections_check(e, ep, args.bound, verify_idp=not args.skip_idp)
    return {"E": e.label_dict(), "Eprime": ep.label_dict(), **rep}


def cmd_intersect(args) -> dict:
    fan = _fan_from_args(args)
    ds = [_divisor_from_flag(fan, t) for t in (args.d1, args.d2, args.d3)]
    prod = _poly.triple_intersection(*ds)
    return {"divisors": [d.label_dict() for d in ds], "product": prod}


def cmd_classify(args) -> dict:
    fan = _fan_from_args(args, need_catalog=True)
    coeffs = _coeffs_from_flag(args.coeffs)
    verdict = _classify.derive_verdict(fan.family, coeffs, args.bound)
    out = {"case": fan.family.case_id, "params": fan.family.as_dict()}
    out.update(dict(zip(CASES[fan.family.case_id].coeff_names, coeffs)))
    out.update(verdict.as_json())
    return out


def _range_from_flag(text: str) -> range:
    try:
        lo, hi = map(_integer, text.split(".."))
    except ValueError:
        raise CliError(f"--range wants LO..HI, e.g. 0..8, got {text!r}")
    return range(lo, hi + 1)


def cmd_sweep(args) -> int:
    fan = _fan_from_args(args, need_catalog=True)
    record = CASES[fan.family.case_id]
    coeff_range = _range_from_flag(args.range)
    # len() of a range overflows past sys.maxsize.
    cells = max(coeff_range.stop - coeff_range.start, 0) ** len(record.coeff_names)
    if cells > _poly.LATTICE_SCAN_GUARD:
        raise CliError(f"a grid of {cells} cells exceeds the budget of {_poly.LATTICE_SCAN_GUARD}")
    # Every row is derived before any is written, so an error leaves one
    # JSON document on stdout rather than a partial CSV.
    rows = list(_classify.sweep(fan.family, coeff_range, args.bound))
    names = ["case", *record.params, *record.coeff_names, "derived", "table", "agree"]
    if args.out == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        print(json.dumps({"schema": SCHEMA, "rows": rows}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="torhyp",
        description="Exact computations on the nine classified toric threefold "
        "families: fans, divisor polytopes, move-set verification, and "
        "hyperbolicity verdicts.",
    )
    top.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = top.add_subparsers(dest="verb", required=True)
    family = _family_flags()

    def verb(name, fn, **kw):
        p = sub.add_parser(name, parents=[family], **kw)
        p.set_defaults(fn=fn)
        return p

    verb("describe", cmd_describe,
         help="rays, cones, collections, Picard basis, nef and effective generators, canonical class")
    p = verb("nef", cmd_nef, help="nef/ample/big tests for a divisor")
    p.add_argument("--D", required=True, help='divisor JSON, e.g. {"coeffs": {"D_2": 1}}')
    p = verb("polytope", cmd_polytope, help="H-representation, vertices, points, volume")
    p.add_argument("--D", required=True)
    p = verb("points", cmd_points, help="lattice points of the divisor polytope")
    p.add_argument("--D", required=True)
    p = verb("faces", cmd_faces, help="per-ray minimum faces with interior counts")
    p.add_argument("--D")
    p.add_argument("--coeffs", help="surface-class coefficients, e.g. 2,4")
    p = verb("idp", cmd_idp, help="integer decomposition check for a nef pair")
    p.add_argument("--E", required=True)
    p.add_argument("--Eprime", required=True)
    p = verb("markov", cmd_markov, help="verify the reference move set up to a bound")
    p.add_argument("--bound", type=int, default=_ti.DEFAULT_MARKOV_BOUND)
    p = verb("connected-sections", cmd_connected_sections, help="sufficient criterion report")
    p.add_argument("--E", required=True)
    p.add_argument("--Eprime", required=True)
    p.add_argument("--bound", type=int, default=_ti.DEFAULT_MARKOV_BOUND)
    p.add_argument("--skip-idp", action="store_true")
    p = verb("intersect", cmd_intersect, help="triple intersection number")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--d3", required=True)
    p = verb("classify", cmd_classify, help="derived verdict and reference-table comparison")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--bound", type=int, default=_ti.DEFAULT_MARKOV_BOUND)
    p = verb("sweep", cmd_sweep, help="grid comparison, CSV or JSON")
    p.add_argument("--range", default="0..8")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--bound", type=int, default=_ti.DEFAULT_MARKOV_BOUND)
    return top


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`torhyp sweep ... | head`).  Point
        # the descriptor at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        _ti.check_bound(getattr(args, "bound", 1))
        if args.verb == "sweep":
            return cmd_sweep(args)
        out = args.fn(args)
        _emit(out, args.pretty)
        return 0
    except (CliError, _fans.ParameterError, ValueError, _poly.EnumerationGuardError) as exc:
        _emit({"error": str(exc)}, getattr(args, "pretty", False))
        return 1
    except _fans.InternalInconsistencyError as exc:
        _emit({"internal_error": str(exc)}, getattr(args, "pretty", False))
        return 2


if __name__ == "__main__":
    sys.exit(main())
