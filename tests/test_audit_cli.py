"""Audit rows/summary semantics and the command-line surface."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domchrom as dc
from domchrom.cli import main
from corpus import AUDIT_RANGES


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- audit machinery -----------------------------------------------------------------


def test_audit_cycles_all_agree():
    report = dc.audit_specs(dc.parse_family_range("cycle:4..12"))
    assert report.ok
    assert report.summary["instances"] == 9
    assert report.summary["agree"] == 9
    assert report.summary["disagree"] == 0


def test_audit_marks_circulant_errata_row():
    report = dc.audit_specs(dc.parse_family_range("circulant:6..16:1,3"))
    assert report.ok
    by_spec = {r.spec: r for r in report.rows}
    row6 = by_spec["circulant:6:1,3"]
    assert row6.errata and row6.status == "suspect"
    assert row6.predicted == 3 and row6.expected == 2 and row6.solver == 2
    assert row6.agree is True
    row11 = by_spec["circulant:11:1,3"]
    assert row11.errata and row11.solver == 3 and row11.agree is True


def test_audit_triangle_circulants_carry_the_cycle_erratum():
    # C_3(1), C_3(2) and C_3(1, 2) are all the triangle, so each row
    # expects the corrected cycle:3 value that the solver and oracle give
    specs = [dc.spec("circulant", 3, *conn) for conn in [(1,), (2,), (1, 2)]]
    reason = dc.erratum_for(dc.spec("cycle", 3)).reason
    for row in dc.audit_specs(specs).rows:
        assert (row.expected, row.errata, row.agree) == (3, True, True), row.spec
        assert (row.status, row.note) == ("suspect", reason)


def test_audit_ladder_suspect_row_does_not_fail_run():
    report = dc.audit_specs(dc.parse_family_range("ladder:2..4"))
    assert report.ok
    row = {r.spec: r for r in report.rows}["ladder:4"]
    assert row.status == "suspect" and row.solver >= 3


def test_audit_skips_oversized_instances():
    report = dc.audit_specs(dc.parse_family_range("path:30"), solver_cap=18)
    row = report.rows[0]
    assert row.skip is not None and "cap" in row.skip
    assert row.solver is None and report.ok


def test_audit_skips_rows_without_rules():
    report = dc.audit_specs(dc.parse_family_range("tchain:1"))
    assert report.rows[0].skip is not None and report.ok


def test_audit_budget_skips_remaining_rows():
    report = dc.audit_specs(dc.parse_family_range("cycle:4..12"), budget_ms=0)
    assert all(r.skip == "budget exceeded" for r in report.rows)


def test_audit_oracle_cross_check_runs_on_small_instances():
    report = dc.audit_specs(dc.parse_family_range("cycle:4..12"), oracle_cap=10)
    oracles = {r.spec: r.oracle for r in report.rows}
    assert oracles["cycle:9"] == dc.dom_chromatic_oracle(dc.generate(dc.spec("cycle", 9)))
    assert oracles["cycle:12"] is None


def test_audit_fails_on_wrong_proved_row(monkeypatch):
    # sabotage one proved rule to confirm disagreement fails the run
    import domchrom.audit as audit_mod
    from domchrom.predictions import Prediction

    real = audit_mod.predict_dom_chromatic

    def broken(fs):
        p = real(fs)
        if str(fs) == "cycle:5":
            return Prediction("exact", "proved", p.rule, value=p.value + 1)
        return p

    monkeypatch.setattr(audit_mod, "predict_dom_chromatic", broken)
    report = dc.audit_specs(dc.parse_family_range("cycle:4..6"))
    assert not report.ok
    assert {r.spec: r.agree for r in report.rows}["cycle:5"] is False


def test_cli_audit_exit_one_on_wrong_proved_row(monkeypatch, capsys):
    import domchrom.audit as audit_mod
    from domchrom.predictions import Prediction

    real = audit_mod.predict_dom_chromatic

    def broken(fs):
        p = real(fs)
        if str(fs) == "cycle:5":
            return Prediction("exact", "proved", p.rule, value=p.value + 1)
        return p

    monkeypatch.setattr(audit_mod, "predict_dom_chromatic", broken)
    code = main(["audit", "--family", "cycle:4..6"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_report_dict_shape():
    report = dc.audit_specs(dc.parse_family_range("path:4..5"))
    payload = dc.report_to_dict(report)
    assert payload["ok"] is True and payload["version"] == "0.1.0"
    assert [row["spec"] for row in payload["instances"]] == ["path:4", "path:5"]
    assert set(payload["summary"]) == {
        "instances", "agree", "disagree", "suspect", "suspect_confirmed",
        "errata", "skipped",
    }


def test_report_header_is_the_limits_the_audit_ran_with():
    specs = dc.parse_family_range("path:2..7")
    payload = dc.report_to_dict(dc.audit_specs(specs, solver_cap=5, oracle_cap=3))
    header = {key: payload[key] for key in ("solver_cap", "oracle_cap", "budget_ms")}
    assert header == {"solver_cap": 5, "oracle_cap": 3, "budget_ms": None}
    assert [row["skip"] is not None for row in payload["instances"]] == [
        False, False, False, False, True, True,
    ]
    assert [row["oracle"] is not None for row in payload["instances"]] == [
        True, True, False, False, False, False,
    ]


def test_report_summary_is_derived_from_the_rows():
    report = dc.audit_specs(dc.parse_family_range("path:4..5"), budget_ms=60_000)
    assert "summary" not in {f.name for f in dataclasses.fields(report)}
    assert report.budget_ms == 60_000
    assert dc.report_to_dict(report)["summary"] == report.summary


# -- CLI ------------------------------------------------------------------------------


def test_cli_gen_writes_edge_list(capsys):
    code = main(["gen", "path:3"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "3 2\n0 1\n1 2\n"


def test_cli_gen_round_trip(capsys):
    code = main(["gen", "circulant:8:1,3"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert dc.parse_edge_list(out) == dc.generate(dc.spec("circulant", 8, 1, 3))


def test_cli_solve_family_spec(capsys):
    code = main(["solve", "--domchrom", "path:7"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and payload["k"] == 4
    assert sorted(v for cls in payload["classes"] for v in cls) == list(range(7))
    assert set(payload["dominators"]) <= {str(c) for c in range(1, 5)}


def test_cli_solve_deterministic_bytes(capsys):
    code1 = main(["solve", "path:6"])
    out1, _ = capsys.readouterr()
    code2 = main(["solve", "path:6"])
    out2, _ = capsys.readouterr()
    assert code1 == code2 == 0 and out1 == out2


def test_cli_solve_stdin_pipe(monkeypatch, capsys):
    code = main(["gen", "circulant:6:1,3"])
    edge_list, _ = capsys.readouterr()
    code, out, _ = run_cli(
        ["solve", "--domchrom", "-"], stdin_text=edge_list,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0 and json.loads(out)["k"] == 2


def test_cli_solve_invariants(capsys):
    for invariant, value in [("chi", 3), ("gamma", 2), ("gammat", 3)]:
        code = main(["solve", "--invariant", invariant, "cycle:5"])
        out, _ = capsys.readouterr()
        assert code == 0 and json.loads(out)["value"] == value


@pytest.mark.parametrize(
    "text,witness",
    [
        ("circulant:9:1,3", [1, 2, 1, 2, 3, 2, 3, 1, 3]),
        ("circulant:11:1,3", [1, 2, 1, 2, 1, 2, 3, 2, 3, 1, 3]),
        ("cycle:5", [1, 2, 1, 2, 3]),  # k = 2 is refuted; the first-fit witness stays
    ],
)
def test_cli_solve_chi_witness_bytes(text, witness, capsys):
    code = main(["solve", "--invariant", "chi", text])
    out, _ = capsys.readouterr()
    want = {"invariant": "chi", "value": max(witness), "witness": witness}
    assert code == 0 and out == json.dumps(want, indent=2) + "\n"


def test_cli_solve_dimacs_file(tmp_path, capsys):
    doc = tmp_path / "tri.col"
    doc.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code = main(["solve", "--format", "dimacs", str(doc)])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["k"] == 3


def test_cli_unknown_family_is_usage_error(capsys):
    code = main(["solve", "gadget:9"])
    _, err = capsys.readouterr()
    assert code == 2 and "unknown family" in err


def test_cli_audit_range_too_long_to_list_is_usage_error(capsys):
    code = main(["audit", "--family", "path:1..99999999999999999999"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: bad range token: '1..99999999999999999999'\n"


@pytest.mark.parametrize("command", [["solve"], ["perturb", "--mode", "edge"]])
@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_cli_missing_file_with_format_is_usage_error(tmp_path, capsys, command, fmt):
    missing = str(tmp_path / "nope")
    code = main(command + ["--format", fmt, missing])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: file not found: {missing}\n"


def test_cli_malformed_file_is_usage_error(tmp_path, capsys):
    doc = tmp_path / "bad.txt"
    doc.write_text("not an edge list\n")
    code = main(["solve", str(doc)])
    _, err = capsys.readouterr()
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "fmt,doc",
    [
        ("edgelist", "1000000000000000 0\n"),
        ("dimacs", "p edge 1000000000000000 0\n"),
        ("edgelist", "99999999999999999999 0\n"),  # beyond an index: no allocation tried
        ("dimacs", "p edge 99999999999999999999 0\n"),
    ],
)
def test_cli_absurd_vertex_count_is_usage_error(fmt, doc, monkeypatch, capsys):
    code, out, err = run_cli(["solve", "--format", fmt, "-"], doc, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == f"error: vertex count too large: {doc.split()[-2]}\n"


@pytest.mark.parametrize(
    "argv", [["gen", "path:99999999999999999999"], ["solve", "circulant:99999999999999999999:1"]]
)
def test_cli_absurd_family_order_is_usage_error(argv, monkeypatch, capsys):
    # refused from the parameters alone: building anything would raise TypeError
    monkeypatch.setattr("domchrom.families.make_graph", None)
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: vertex count too large: 99999999999999999999\n"


def test_cli_second_dimacs_problem_line_is_usage_error(monkeypatch, capsys):
    doc = "p edge 3 1\ne 1 2\np edge 2 0\n"
    code, out, err = run_cli(["solve", "--format", "dimacs", "-"], doc, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == "error: duplicate problem line\n"


def test_cli_dimacs_edge_count_that_is_not_a_number_is_usage_error(monkeypatch, capsys):
    doc = "p edge 3 x\ne 1 2\n"
    code, out, err = run_cli(["solve", "--format", "dimacs", "-"], doc, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == "error: bad problem line: p edge 3 x\n"


def test_cli_directory_target_is_usage_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 2 and err.startswith("error: ")


def test_cli_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    code = main(["solve", "path:4", "--out", str(tmp_path / "missing" / "x.json")])
    _, err = capsys.readouterr()
    assert code == 2 and err.startswith("error: ")


def test_cli_budget_exceeded_is_usage_error(capsys):
    code = main(["perturb", "--mode", "vertex", "--budget", "0", "cycle:8"])
    _, err = capsys.readouterr()
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("spec", ["cycle:1000", "path:999"])
def test_cli_chi_of_long_bipartite_input_needs_no_search(spec, capsys):
    # A greedy clique of 2 already matches the first-fit coloring, so the
    # recursive kernel never runs and the input's length does not matter.
    assert main(["solve", "--invariant", "chi", spec]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


@pytest.mark.parametrize(
    "argv", [["solve", "path:1000"], ["solve", "--invariant", "chi", "cycle:1001"]]
)
def test_cli_input_too_deep_to_recurse_is_usage_error(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: input too large for the recursive search\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--family", "path:3", "--solver-cap", "-1"],
        ["audit", "--family", "path:3", "--oracle-cap", "-3"],
        ["perturb", "--mode", "vertex", "--budget", "-1", "path:4"],
    ],
)
def test_cli_negative_cap_or_budget_is_usage_error(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "must be non-negative" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(dc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-m", "domchrom", "gen", "path:3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "3 2\n0 1\n1 2\n"


def test_cli_audit_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["audit", "--family", "cycle:4..12", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["ok"] and len(payload["instances"]) == 9


def test_cli_audit_errata_exit_zero(capsys):
    code = main(["audit", "--family", "circulant:6..8:1,3"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"][0]["errata"] is True


def test_cli_audit_multiple_families(capsys):
    code = main(["audit", "--family", "path:4..6", "--family", "wheel:4..5"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert [r["spec"] for r in payload["instances"]] == [
        "path:4", "path:5", "path:6", "wheel:4", "wheel:5",
    ]


# sha256 over the exit code and the JSON bytes `domchrom audit` prints
# over AUDIT_RANGES, at the default caps and with the solver cap raised
_AUDIT_DIGESTS = {
    (): "06627ccd26b41e545fe9971e650e76b601ae2dd3281090c80b64ffe3fc9bcd3b",
    ("--solver-cap", "36"): "75e43247deae8294af79c1b5ad2b646627507ab5291cb2ad7e6ff9f485f56c20",
}


@pytest.mark.parametrize("caps", sorted(_AUDIT_DIGESTS))
def test_audit_report_bytes_are_pinned(caps, capsys):
    argv = ["audit", *caps]
    for text in AUDIT_RANGES:
        argv += ["--family", text]
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == _AUDIT_DIGESTS[caps]


@pytest.mark.parametrize(
    "text", ["circulant:0:1", "circulant:1:1", "circulant:2:1", "circulant:-5:1"]
)
def test_cli_audit_skips_circulants_below_three_vertices(text, capsys):
    code = main(["audit", "--family", text])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (row,) = json.loads(out)["instances"]
    assert row["skip"] == "no rule: circulant rule needs n >= 3"


def test_cli_audit_reads_coprime_circulants_as_cycles(capsys):
    # C_n(a) with gcd(a, n) = 1 is the n-cycle, so the cycle rule covers it
    specs = ["circulant:5:2", "circulant:7:3", "circulant:8:3"]
    code = main(["audit", *(arg for text in specs for arg in ("--family", text))])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = json.loads(out)["instances"]
    assert [r["spec"] for r in rows] == specs
    for row, n in zip(rows, (5, 7, 8)):
        assert row["skip"] is None and row["agree"] is True
        assert row["predicted"] == row["solver"] == row["oracle"] == (n + 1) // 2


@pytest.mark.parametrize("command", [["gen"], ["audit", "--family"]])
@pytest.mark.parametrize("text,n", [("circulant:3:1,3", 3), ("circulant:7:0", 7)])
def test_cli_circulant_loop_value_is_usage_error(command, text, n, capsys):
    code = main(command + [text])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: connection value {text[-1]} is divisible by {n} (loop)\n"


def test_cli_perturb_vertex(capsys):
    code = main(["perturb", "--mode", "vertex", "path:7"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and payload["found"] and payload["size"] == 2
    assert payload["mode"] == "vertex"


def test_cli_perturb_edge_no_witness(tmp_path, capsys):
    doc = tmp_path / "k2.txt"
    doc.write_text("2 1\n0 1\n")
    code = main(["perturb", "--mode", "edge", str(doc)])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and payload["found"] is False and payload["size"] is None


def test_cli_requires_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == dc.__version__
