#!/usr/bin/env python3
"""Rewrite ``bench/reference.json``, the pinned answers the benchmark checks.

    python3 bench/pin.py

Pins the value of every structured ``search`` instance, the values of the
first random draws of the default seed, every ``audit`` row as it stands
(refuted table entries included) and every ``sweep`` result.  Run it only
when a change of answers is intended, and review the diff.
"""

from __future__ import annotations

import dataclasses
import json

from harness import OK, call_with_limit, import_domchrom
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, as_json

DRAW_LIMIT_S = 120.0


def main() -> None:
    dc = import_domchrom()
    search, audit, sweep = WORKLOADS["search"], WORKLOADS["audit"], WORKLOADS["sweep"]
    ref: dict = {"search": {}, "audit": {}, "sweep": {}}

    for text in search.STRUCTURED:
        ref["search"][text] = dc.dom_chromatic(dc.generate(dc.parse_family(text)))[0]
    passes = search.make_passes(dc, DEFAULT_SEED)
    for row in passes[: search.PINNED_DRAWS]:
        draw = row[-1]
        status, answer, seconds = call_with_limit(
            lambda: dc.dom_chromatic(draw.payload), DRAW_LIMIT_S
        )
        print(f"{draw.name}: {status} {seconds:.2f} s", flush=True)
        if status == OK:
            ref["search"][draw.ref_key] = answer[0]

    for inst in audit.make_passes(dc, DEFAULT_SEED)[0]:
        row = dc.audit_specs([inst.payload], solver_cap=audit.SOLVER_CAP).rows[0]
        ref["audit"][inst.ref_key] = as_json(dataclasses.asdict(row))

    for inst in sweep.make_passes(dc, DEFAULT_SEED)[0]:
        ref["sweep"][inst.ref_key] = as_json(dataclasses.asdict(sweep.solve(dc, inst, None)))

    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
