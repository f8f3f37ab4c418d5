#!/usr/bin/env python3
"""The domchrom benchmark.

    python3 bench/run.py [--workload search|audit|sweep|tail|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--backend NAME]

Runs one workload (or all three in turn) in this process on one thread,
as a closed loop, for ``--seconds``, then checks every answer.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same passes untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
environment stamp, one row per attempted instance, the summary and (traced)
the first spans go, one JSON object a line, to
``bench/results/<workload>-seed<N>-trace<T>.jsonl``.

Exit status: 0 when every answer is correct (instances that ran out of
time count as failed but are not wrong), 1 on any wrong answer or error
inside an instance, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from array import array
from pathlib import Path

import tracing
from harness import (
    OK,
    PROBE_REF_S,
    BenchError,
    environment,
    import_domchrom,
    min_samples_for,
    peak_rss_mb,
    percentile,
    run_passes,
    speed_factors,
    timed_setup,
)
from workloads import DEFAULT_SEED, EXTRA, WORKLOADS, load_reference

RESULTS = Path(__file__).with_name("results")
SETUP_REPEATS = 15
SPAN_LIMIT = 20000  # spans written per traced run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.calls": "count/pass",
    "kernel.infeasible_calls": "count/pass",
    "kernel.ms": "ms/pass",
    "kernel.infeasible_ms": "ms/pass",
    "kernel.useful_share": "ratio",
    "bound.gap": "count/pass",
    "bound.won_clique": "count/pass",
    "bound.won_count": "count/pass",
    "bound.won_gamma_t": "count/pass",
    "invariants.gamma_t_ms": "ms/pass",
    "invariants.gamma_t_calls": "count/pass",
    "invariants.clique_ms": "ms/pass",
    "graph.components_ms": "ms/pass",
    "graph.components_calls": "count/pass",
    "graph.edit_ms": "ms/pass",
    "graph.edit_calls": "count/pass",
    "solver.calls": "count/pass",
    "solver.self_ms": "ms/pass",
    "oracle.ms": "ms/pass",
    "oracle.calls": "count/pass",
    "predictions.ms": "ms/pass",
    "families.generate_ms": "ms/pass",
    "perturb.subsets": "count/pass",
    "perturb.solves": "count/pass",
    "perturb.miss_share": "ratio",
    "perturb.self_ms": "ms/pass",
    "trace.overhead_share": "ratio",
}


@dataclasses.dataclass
class Outcome:
    workload: str
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: dict


def _row(workload, sample, backend: str) -> dict:
    inst = sample.instance
    ok = sample.status == OK
    return {
        "pass": sample.pass_index,
        "instance": inst.name,
        "n": inst.n,
        "m": inst.m,
        "value": workload.value(sample.answer) if ok else None,
        "ms": sample.seconds * 1e3,
        "status": sample.status,
        "reason": sample.reason,
        "backend": backend,
        "nodes": None,  # the kernels do not count search nodes yet
        **sample.facts,
    }


class Recorder:
    """Handles each sample off the clock: checks the answer, counts the
    failure kinds and streams the row to the results file, so memory does
    not grow with the length of the run."""

    def __init__(self, workload, dc, ref: dict, backend: str, stream):
        self.workload, self.dc, self.ref = workload, dc, ref
        self.backend, self.stream = backend, stream
        # pass, probe segment and seconds of each sample, kept compact so
        # that memory does not grow with the number of samples
        self.pass_of, self.segment_of = array("l"), array("l")
        self.seconds = array("d")
        self.failures: dict[str, int] = {}
        self.tracer = None
        self.answers: list | None = None  # kept when a traced replay follows
        self.expected: list | None = None  # answers a traced replay must repeat

    def __call__(self, sample) -> None:
        if self.tracer is not None:
            if self.workload.row_components:
                sample.facts["components"] = [c.as_row() for c in self.tracer.take_components()]
            self.tracer.begin_instance()
            self.tracer.keep_spans = len(self.tracer.spans) < SPAN_LIMIT
        index = len(self.seconds)
        if sample.status == OK:
            reason, facts = self.workload.check(self.dc, sample.instance, sample.answer, self.ref)
            # a replay compares with every answer the untraced phase got in time
            expected = self.expected[index] if self.expected is not None else None
            if reason is None and expected is not None and sample.answer != expected:
                reason = "traced answer differs from the untraced one"
            if reason is not None:
                sample.status, sample.reason = "wrong", reason
            sample.facts = {**facts, **sample.facts}
        if self.answers is not None:
            self.answers.append(sample.answer if sample.status == OK else None)
        self.pass_of.append(sample.pass_index)
        self.segment_of.append(sample.segment)
        self.seconds.append(sample.seconds)
        if sample.status != OK:
            self.failures[sample.status] = self.failures.get(sample.status, 0) + 1
        self.stream.write(json.dumps(_row(self.workload, sample, self.backend), default=str) + "\n")

    def instance_ms(self, factors: list[float]) -> list[float]:
        return [t * 1e3 * factors[seg] for seg, t in zip(self.segment_of, self.seconds)]

    def pass_seconds(self, factors: list[float]) -> list[float]:
        """Each pass's time: the sum of its instance times."""
        totals: dict[int, float] = {}
        for p, seg, t in zip(self.pass_of, self.segment_of, self.seconds):
            totals[p] = totals.get(p, 0.0) + t * factors[seg]
        return list(totals.values())


def measure(workload, args) -> Outcome:
    def make():
        dc = import_domchrom()
        return dc, workload.make_passes(dc, args.seed)

    (dc, passes), raw_setup_s, setup_s = timed_setup(make, SETUP_REPEATS)
    backend = args.backend or dc.solver.DEFAULT_BACKEND
    if backend not in dc.available_backends():
        raise BenchError(
            f"backend {backend!r} is not available; have {', '.join(dc.available_backends())}"
        )
    ref = load_reference().get(workload.name, {})
    env = environment(dc, backend, args.seed)

    def solve(inst):
        return workload.solve(dc, inst, backend)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.jsonl"
    with out.open("w") as stream:
        stream.write(json.dumps({"workload": workload.name, "trace": args.trace,
                                 "env": env, "limit_s": workload.limit_s}) + "\n")
        plain = Recorder(workload, dc, ref, backend, stream)
        if not args.trace:
            probes = run_passes(passes, solve, workload.limit_s, plain,
                                seconds=args.seconds, min_samples=min_samples_for(90))
            rss = peak_rss_mb()
            recorders = [plain]
        else:
            plain.answers = []
            probes = run_passes(passes, solve, workload.limit_s, plain, seconds=args.seconds / 2)
            traced = Recorder(workload, dc, ref, backend, stream)
            traced.expected = plain.answers
            traced.tracer = tracer = tracing.install(dc)
            tracer.record_components = workload.row_components
            tracer.keep_spans = True
            try:
                traced_probes = run_passes(passes, solve, workload.limit_s, traced, seconds=0,
                                           pass_count=plain.pass_of[-1] + 1)
            finally:
                tracer.uninstall()
            recorders = [plain, traced]

        attempted = sum(len(r.seconds) for r in recorders)
        failures: dict[str, int] = {}
        for r in recorders:
            for kind, count in r.failures.items():
                failures[kind] = failures.get(kind, 0) + count
        failed = sum(failures.values())
        correct = not (failures.get("wrong") or failures.get("raised"))

        factors = speed_factors(probes)
        unscaled = [1.0] * len(factors)
        walls = plain.pass_seconds(factors)
        raw = {"setup_s": raw_setup_s, "wall_s": statistics.median(plain.pass_seconds(unscaled))}
        if not args.trace:
            try:
                p50, p90 = (percentile(plain.instance_ms(factors), q) for q in (50, 90))
                raw["instance_ms_p50"], raw["instance_ms_p90"] = (
                    percentile(plain.instance_ms(unscaled), q) for q in (50, 90)
                )
            except ValueError as exc:
                raise BenchError(f"{workload.name}: {exc}") from None
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "instance_ms_p50": p50,
                "instance_ms_p90": p90,
                "ok_share": 1.0 - failed / attempted,
                "peak_rss_mb": rss,
            }
        else:
            traced_factors = speed_factors(traced_probes)
            traced_walls = traced.pass_seconds(traced_factors)
            metrics = tracing.layer_metrics(
                tracer, len(traced_walls), statistics.median(traced_factors),
                (sum(traced_walls) - sum(walls)) / sum(walls),
            )

        notes = {
            "env": env,
            "passes": len(walls),
            "samples": len(plain.seconds),
            "limit_s": workload.limit_s,
            "fail_share": failed / attempted,
            "failures": failures,
            "speed": PROBE_REF_S / statistics.median(probes),
            "raw": raw,
        }
        stream.write(json.dumps({"summary": True, **notes, "metrics": metrics}) + "\n")
        if args.trace:
            stream.write(json.dumps({"spans": tracer.spans}) + "\n")
    return Outcome(workload.name, metrics, attempted, failed, correct, notes)


def report(outcome: Outcome, trace: int) -> None:
    n = outcome.notes
    env = n["env"]
    print(f"{outcome.workload}: seed {env['seed']}, backend {env['backend']}, "
          f"{n['passes']} passes, {n['samples']} instances per phase, "
          f"limit {n['limit_s']:g} s per instance, host at {n['speed']:.2f}x reference speed")
    units = PER_LAYER if trace else END_TO_END
    for name, value in outcome.metrics.items():
        extra = ""
        if name == "wall_s":
            extra = f"median of {n['passes']} passes"
        elif name.startswith("instance_ms"):
            extra = f"{n['samples']} samples"
        elif name == "setup_s":
            extra = f"median of {SETUP_REPEATS} set-ups"
        if name in n["raw"]:
            extra += f"; {n['raw'][name]:.4f} {units[name]} unscaled"
        print(f"  {name:<26} {value:>12.4f} {units[name]:<10} {extra}")
    failures = ", ".join(f"{k} {v}" for k, v in sorted(n["failures"].items())) or "none"
    print(f"  {'fail_share':<26} {n['fail_share']:>12.4f} {'ratio':<10} "
          f"{outcome.failed} of {outcome.attempted} ({failures})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, *EXTRA, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--backend", default=None,
                        help="search kernel to use (default: the library's default)")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = [measure({**WORKLOADS, **EXTRA}[name], args) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        report(outcome, args.trace)

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(outcomes) > 1
    metrics = {
        (f"{o.workload}.{name}" if prefix else name): {"value": value, "unit": units[name]}
        for o in outcomes
        for name, value in o.metrics.items()
    }
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
