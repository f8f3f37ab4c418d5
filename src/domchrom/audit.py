"""Adjudication of the closed-form tables against the exact solver.

For every requested family instance the audit records the prediction, the
solver's ground truth and, on graphs of at most ``oracle_cap`` vertices,
the independent oracle.  The ground truth is ``solver.dom_chromatic_value``:
a row keeps no certificate, so a closed bound bracket is read without a
kernel search.  The oracle is an exact minimum cover by maximal admissible
classes that shares no search with the solver (see
``solver.dom_chromatic_oracle``).  The default cap stays at 10 vertices, so
the ``oracle`` column of a default report does not change.  Rows are never
silently corrected: refuted printed values stay visible with status
``suspect`` and the errata table supplies the value the audit expects
instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import __version__
from .errors import Deadline, NoPredictionError
from .families import FamilySpec, _order, generate
from .predictions import PROVED, SUSPECT, predict_dom_chromatic
from .solver import DEFAULT_ORACLE_CAP, dom_chromatic_oracle, dom_chromatic_value
from .solver import dom_chromatic  # noqa: F401  (the benchmark tracer wraps it by name)

DEFAULT_SOLVER_CAP = 18


@dataclass(frozen=True)
class AuditRow:
    spec: str
    kind: str
    status: str
    predicted: int | None
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
    """The rows, in input order, and the limits ``audit_specs`` ran with."""

    rows: tuple[AuditRow, ...]
    solver_cap: int
    oracle_cap: int
    budget_ms: int | None

    @property
    def ok(self) -> bool:
        return not any(row.failed for row in self.rows)

    @property
    def summary(self) -> dict:
        rows = self.rows
        return {
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


def _skipped(fs: FamilySpec, reason: str) -> AuditRow:
    """A row for an instance left before its prediction: no rule, or no time."""
    return AuditRow(spec=str(fs), kind="exact", status=SUSPECT, predicted=None, skip=reason)


def _audit_one(
    fs: FamilySpec, solver_cap: int, oracle_cap: int, backend: str | None
) -> AuditRow:
    try:
        prediction = predict_dom_chromatic(fs)
    except NoPredictionError as exc:
        return _skipped(fs, f"no rule: {exc}")
    erratum = prediction.erratum
    expected = erratum.corrected if erratum else prediction.value
    common = dict(
        spec=str(fs),
        kind=prediction.kind,
        status=prediction.status,
        predicted=prediction.value,
        expected=expected,
        errata=erratum is not None,
        note=erratum.reason if erratum else prediction.note,
    )
    # the count comes from the parameters: a family graph costs O(n^2) bits
    order = _order(fs)
    if order > solver_cap:
        return AuditRow(**common, skip=f"size cap: {order} > {solver_cap} vertices")
    g = generate(fs)
    solver_value = dom_chromatic_value(g, backend=backend)
    oracle_value = dom_chromatic_oracle(g, cap=oracle_cap) if g.n <= oracle_cap else None
    return AuditRow(
        **common, solver=solver_value, oracle=oracle_value, agree=solver_value == expected
    )


def audit_specs(
    specs: list[FamilySpec],
    *,
    solver_cap: int = DEFAULT_SOLVER_CAP,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    budget_ms: int | None = None,
    backend: str | None = None,
) -> AuditReport:
    """Audit the given instances in order; rows mirror the input order.
    Once ``budget_ms`` has passed, every remaining row is skipped."""
    deadline = Deadline(budget_ms)
    rows = tuple(
        _skipped(fs, "budget exceeded") if deadline.expired()
        else _audit_one(fs, solver_cap, oracle_cap, backend)
        for fs in specs
    )
    return AuditReport(rows, solver_cap, oracle_cap, budget_ms)


def report_to_dict(report: AuditReport) -> dict:
    """JSON-ready representation with stable key order, headed by the
    package version and the limits the report was made with."""
    return {
        "version": __version__,
        "solver_cap": report.solver_cap,
        "oracle_cap": report.oracle_cap,
        "budget_ms": report.budget_ms,
        "ok": report.ok,
        "summary": report.summary,
        "instances": [asdict(r) for r in report.rows],
    }
