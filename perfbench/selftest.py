"""Self-tests of the benchmark harness.

Usage: python3 perfbench/selftest.py   (from the root of a checkout; ~40 s)

1. Two traced runs of the same invocations give identical counts.
2. A forced failure (a nonexistent config key, which the CLI rejects with
   exit code 2) is counted as a failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits 0 when all pass, 1 otherwise.
"""

import shutil
import subprocess
import sys

import run

COUNTS = (
    "processes.chain_steps", "processes.far1_steps", "regression.distance_calls",
    "concentration.truncate_calls", "mixing.alpha_calls",
)
# Small invocations that together reach every count above.
SMALL = {
    "chain": {"suite": "concentration", "workers": 1, "reps": 100, "config": {
        "process.burn_in": "100", "grid.n": "50,100", "grid.epsilon": "0.1",
        "grid.A": "14"}},
    "far1": {"suite": "fkr", "workers": 1, "reps": 100, "config": {
        "process.burn_in": "100", "grid.n": "100,200", "grid_size": "16"}},
    "verify": {"suite": "verify-all", "workers": 1, "config": {}},
}


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok: {message}")


def traced_counts(name, wl, out):
    env = run.child_env()
    totals = dict.fromkeys(COUNTS, 0)
    for k in range(2):
        spans_file = out / f"{name}{k}.marshal"
        argv = [sys.executable, str(run.HERE / "traced.py"), str(spans_file),
                *run.cli_args(wl, 7, out / f"{name}{k}", 1)]
        op = run.spawn(argv, env, out / f"{name}{k}")
        values, _ = run.span_metrics(spans_file, op["wall_s"])
        check(values["cli.report_calls"] >= 2, f"{name}: the suite ran to its reports")
        counts = {key: values[key] for key in COUNTS}
        if k == 0:
            first = counts
    check(counts == first, f"{name}: traced counts repeat exactly {counts}")
    return counts


def main():
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        seen = dict.fromkeys(COUNTS, 0)
        for name, wl in SMALL.items():
            for key, value in traced_counts(name, wl, out).items():
                seen[key] += value
        check(all(seen.values()), f"every count is reached: {seen}")

        broken = {"suite": "verify-all", "workers": 1, "config": {"no.such.key": "1"},
                  "reports": {"verify_report.csv": 1605}}
        inv = run.Invocation("forced-failure", broken, 7)
        try:
            run.run_e2e(inv, 0)
        finally:
            shutil.rmtree(inv.work, ignore_errors=True)
        check([op["exit"] for op in inv.ops] == [2] * len(inv.ops),
              "a nonexistent config key exits 2")
        check(inv.failed == len(inv.ops), f"failed_frac = {inv.failed}/{len(inv.ops)}")

        bare = out / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.*"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-gate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory exits {proc.returncode} without a result")
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
