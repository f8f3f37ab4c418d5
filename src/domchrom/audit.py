"""Adjudication of the closed-form tables against the exact solver.

For every requested family instance the audit records the prediction, the
solver's ground truth and, on small graphs, the independent brute-force
oracle.  Rows are never silently corrected: refuted printed values stay
visible with status ``suspect`` and the errata table supplies the value
the audit expects instead.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .errors import NoPredictionError
from .families import FamilySpec, generate
from .predictions import (
    PROVED,
    SUSPECT,
    Prediction,
    erratum_for,
    predict_dom_chromatic,
)
from .solver import dom_chromatic, dom_chromatic_oracle

DEFAULT_SOLVER_CAP = 18


@dataclass(frozen=True)
class AuditRow:
    spec: str
    kind: str
    status: str
    predicted: int | tuple[int, int] | None
    expected: int | None = None
    errata: bool = False
    solver: int | None = None
    oracle: int | None = None
    agree: bool | None = None
    skip: str | None = None
    note: str = ""

    @property
    def failed(self) -> bool:
        """True when this row should fail the audit run.

        Suspect, non-errata rows are informational; proved rows must match
        the printed value and errata rows the corrected one.  A solver /
        oracle split always fails: it would mean the solver itself is wrong.
        """
        if self.solver is not None and self.oracle is not None:
            if self.solver != self.oracle:
                return True
        if self.skip is not None or self.agree is not False:
            return False
        return self.status == PROVED or self.errata


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(row.failed for row in self.rows)


def _audit_one(
    fs: FamilySpec, solver_cap: int, oracle_cap: int, backend: str | None
) -> AuditRow:
    try:
        prediction: Prediction | None = predict_dom_chromatic(fs)
    except NoPredictionError as exc:
        return AuditRow(
            spec=str(fs), kind="exact", status=SUSPECT, predicted=None,
            skip=f"no rule: {exc}",
        )
    g = generate(fs)
    erratum = erratum_for(fs)
    expected = erratum.corrected if erratum else prediction.value
    note = prediction.note
    if erratum:
        note = erratum.reason
    if g.n > solver_cap:
        return AuditRow(
            spec=str(fs),
            kind=prediction.kind,
            status=prediction.status,
            predicted=prediction.value,
            expected=expected,
            errata=erratum is not None,
            skip=f"size cap: {g.n} > {solver_cap} vertices",
            note=note,
        )
    solver_value = dom_chromatic(g, backend=backend)[0]
    oracle_value = dom_chromatic_oracle(g, cap=oracle_cap) if g.n <= oracle_cap else None
    return AuditRow(
        spec=str(fs),
        kind=prediction.kind,
        status=prediction.status,
        predicted=prediction.value,
        expected=expected,
        errata=erratum is not None,
        solver=solver_value,
        oracle=oracle_value,
        agree=solver_value == expected,
        note=note,
    )


def audit_specs(
    specs: list[FamilySpec],
    *,
    solver_cap: int = DEFAULT_SOLVER_CAP,
    oracle_cap: int = 10,
    budget_ms: int | None = None,
    backend: str | None = None,
) -> AuditReport:
    """Audit the given instances in order; rows mirror the input order."""
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    rows = []
    for fs in specs:
        if deadline is not None and time.monotonic() > deadline:
            rows.append(
                AuditRow(
                    spec=str(fs), kind="exact", status=SUSPECT, predicted=None,
                    skip="budget exceeded",
                )
            )
            continue
        rows.append(_audit_one(fs, solver_cap, oracle_cap, backend))
    summary = {
        "instances": len(rows),
        "agree": sum(1 for r in rows if r.agree is True),
        "disagree": sum(1 for r in rows if r.agree is False),
        "suspect": sum(1 for r in rows if r.status == SUSPECT and r.skip is None),
        "suspect_confirmed": sum(
            1
            for r in rows
            if r.status == SUSPECT
            and r.solver is not None
            and r.predicted is not None
            and r.solver != r.predicted
        ),
        "errata": sum(1 for r in rows if r.errata),
        "skipped": sum(1 for r in rows if r.skip is not None),
    }
    return AuditReport(tuple(rows), summary)


def report_to_dict(report: AuditReport, *, version: str, solver_cap: int,
                   oracle_cap: int, budget_ms: int | None) -> dict:
    """JSON-ready representation with stable key order."""
    return {
        "version": version,
        "solver_cap": solver_cap,
        "oracle_cap": oracle_cap,
        "budget_ms": budget_ms,
        "ok": report.ok,
        "summary": report.summary,
        "instances": [asdict(r) for r in report.rows],
    }
