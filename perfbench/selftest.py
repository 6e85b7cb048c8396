#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few minutes).

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with --tiny untraced and
traced, and asserts that
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct true and attempted >= 1;
  * untraced, exactly the end_to_end metrics of BENCHMARK.json are
    emitted, and traced exactly its per_layer metrics, each with the
    declared unit; every end-to-end value and every time is above 0;
  * the diagnostics line carries the workload's own numbers
    (DIAGNOSTICS below).
It also checks that a tampered model_id in one serve reply fails the
serve correctness check, and that the benchmark exits non-zero without a
result in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TIME_UNITS = ("s", "ms", "us", "ns")

# Numbers of layers that only one workload drives, printed on the
# diagnostics line (untraced, traced).
DIAGNOSTICS = {
    "train": (["train_s", "train_visits", "auc_pr", "full_visits"], []),
    "serve": (
        ["open_samples", "open_p99_ms", "open_tail_q", "open_tail_ms",
         "generator_late_max_ms", "generator_late_p99_ms", "serve.sent",
         "serve.ok", "serve.error", "serve.refused", "serve.unanswered",
         "rows_per_unique"],
        ["net.stage.%s_ms.%s" % (stage, phase)
         for stage in ("queue", "batch_wait", "compute", "write")
         for phase in ("open", "closed")]
        + ["serve.mean_batch.open", "serve.mean_batch.closed",
           "serve.selection_ms"]),
    "stream": (
        ["selection_events", "drift_events", "batch_p99_ms",
         "batch_samples"],
        ["stream.ingest_ns_per_point", "stream.rescores",
         "stream.rescore_ms", "stream.recomputes", "stream.batch_p99_ms"]),
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL:", message)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def result_of(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(set(w["name"] for w in bench["workloads"]) == set(DIAGNOSTICS),
          "BENCHMARK.json workloads differ from the self-test's")

    for workload, diag_names in DIAGNOSTICS.items():
        for trace, declared in (("0", e2e_units), ("1", layer_units)):
            tag = "%s --trace %s" % (workload, trace)
            code, out, err = run(["--workload", workload, "--seed", "7",
                                  "--seconds", "1", "--trace", trace,
                                  "--tiny"])
            res = result_of(out)
            check(code == 0, "%s exited %d: %s" % (tag, code, err[-500:]))
            if res is None:
                check(False, "%s printed no result" % tag)
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s result keys %s" % (tag, sorted(res)))
            check(res.get("correct") is True, "%s not correct" % tag)
            check(isinstance(res.get("attempted"), int) and
                  res["attempted"] >= 1, "%s attempted < 1" % tag)
            check(isinstance(res.get("failed"), int), "%s failed" % tag)
            metrics = res.get("metrics", {})
            check(set(metrics) == set(declared),
                  "%s metrics mismatch: missing %s, extra %s" %
                  (tag, sorted(set(declared) - set(metrics)),
                   sorted(set(metrics) - set(declared))))
            for name, m in metrics.items():
                unit = m.get("unit")
                value = m.get("value")
                check(unit == declared.get(name),
                      "%s %s unit %r, declared %r" %
                      (tag, name, unit, declared.get(name)))
                check(isinstance(value, (int, float)),
                      "%s %s has no numeric value" % (tag, name))
                if trace == "0" or unit in TIME_UNITS:
                    check(isinstance(value, (int, float)) and value > 0,
                          "%s %s is not above 0: %r" % (tag, name, value))
            lines = [l for l in out.strip().splitlines() if l.strip()]
            diag = (json.loads(lines[-2]).get("diagnostics", {})
                    if len(lines) >= 2 else {})
            wanted = diag_names[0] + (diag_names[1] if trace == "1" else [])
            missing = [n for n in wanted if n not in diag]
            check(not missing, "%s diagnostics missing %s" % (tag, missing))
            print("ok:", tag, "(%d metrics)" % len(metrics))

    code, out, _ = run(["--workload", "serve", "--seed", "7", "--seconds",
                        "1", "--trace", "0", "--tiny", "--tamper-model-id"])
    res = result_of(out)
    check(code != 0 and res is not None and res["correct"] is False,
          "a tampered model_id did not fail the serve check")
    print("ok: tampered model_id fails the serve check")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_free = dict(os.environ)
    env_free.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
        env=env_free)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark did not fail cleanly without the sources")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the library sources")

    if failures:
        print("%d self-test failure(s)" % len(failures))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
