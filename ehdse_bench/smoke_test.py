#!/usr/bin/env python3
"""Smoke test of the ehdse benchmark.

    python3 ehdse_bench/smoke_test.py

Runs every workload BENCHMARK.json names, untraced and traced, for a
handful of requests, and asserts that:
  * the last stdout line is the summary object with exactly the keys
    correct / attempted / failed / metrics, correct, nothing failed;
  * it carries every end-to-end (untraced) or per-layer (traced) metric
    BENCHMARK.json names, each with its declared unit, and no other;
  * the full result record before it carries the host fingerprint and
    shows that the workload's output checks ran.
Exit 0 when all of that holds.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Requests: two flows, and two simulates per connection.
REQUESTS = {"paper_flow": 2, "svc_simulate_cold": 2}
CHECKS = {
    "paper_flow": ["flow.sim_ok", "flow.validated_vs_baseline"],
    "svc_simulate_cold": ["svc.spec_hash", "svc.sim_ok", "svc.recheck_transmissions",
                          "svc.accounting", "svc.one_terminal_frame", "svc.accepted_ids"],
}
FINGERPRINT = ["nproc", "compiler", "build_type", "native_arch", "git_sha",
               "source_digest", "workload_seed", "request_digest"]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "ehdse_bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "60", "--trace", str(trace),
           "--requests", str(REQUESTS[workload])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, trace, spec):
    record, summary = run(workload, trace)
    errors = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"summary keys {sorted(summary)}")
    if summary.get("correct") is not True or summary.get("failed") != 0:
        errors.append(f"correct={summary.get('correct')} failed={summary.get('failed')}: "
                      f"{record.get('problems')}")
    if not isinstance(summary.get("attempted"), int) or summary["attempted"] < 1:
        errors.append(f"attempted={summary.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m.get("unit") for name, m in summary.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
        errors.append(f"metrics missing {missing} extra {extra} wrong unit {wrong}")
    for name, m in summary.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name} value {m.get('value')!r}")
    fingerprint = record.get("fingerprint", {})
    errors += [f"fingerprint lacks {k}" for k in FINGERPRINT if k not in fingerprint]
    checks = record.get("checks", {})
    errors += [f"check {c} did not run" for c in CHECKS[workload] if checks.get(c, 0) < 1]
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            try:
                errors = check(workload, trace, spec)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                errors = [str(e)]
            status = "ok" if not errors else "FAIL"
            print(f"{status:4} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
