"""Slower independent algorithms kept as test oracles of the package.

``reference_verdict`` derives a verdict the way ``classify.derive_verdict``
did before members were compiled: from the surface divisor's own
intersection matrix (``boundary_genus_profile``, ``positivity_certificate``)
and the nef tests of ``divisors`` on each divisor.  The table lookup has
its own oracle in ``test_classify``.
"""

from torhyp.catalog import HYPERBOLIC, NOT_HYPERBOLIC, OPEN
from torhyp.classify import (
    Verdict,
    _config_certificate,
    applicable_configs,
    boundary_genus_profile,
    noether_lefschetz_applicable,
    positivity_certificate,
    surface_divisor,
    table_lookup,
)
from torhyp.divisors import ample_reference, divisor, is_nef
from torhyp.fans import build_family_fan
from torhyp.toric_ideal import DEFAULT_MARKOV_BOUND


def reference_verdict(spec, coeffs, bound: int = DEFAULT_MARKOV_BOUND) -> Verdict:
    fan = build_family_fan(spec)
    table = table_lookup(spec, coeffs)
    d = surface_divisor(fan, coeffs)
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
