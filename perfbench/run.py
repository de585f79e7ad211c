"""Benchmark of the betamix CLI suites, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Workloads are defined in perfbench/workloads.json, metrics in BENCHMARK.json.

One operation is one CLI suite run in a fresh interpreter, with the workload's
config and a program seed as its master seed. A workload with K =
"program_seeds" cycles its operations through the program seeds seed * K + j,
j < K (K = 1: the program seed is the given seed); oracle-gate uses K = 12,
because the random models of its sweep, and so its work, change with the seed.
An operation fails if its exit code is not 0, if its manifest or reports are
malformed, or if a report body differs from the first report of the same
program seed; each body's SHA-256 is recorded, so a deliberate output change
shows across commits.

--trace 0 reports the end-to-end metrics: setup_s is the median of
SETUP_REPEATS fresh interpreters importing betamix.cli and resolving the
workload's config; wall_s, cpu_s (user + sys of the suite and its reaped pool
workers) and peak_rss_mb are medians over the operations run in --seconds
(at least MIN_OPS).

--trace 1 reports the per-layer metrics. It runs `python -X importtime`
once, one untraced operation at the workload's workers (the reference
bodies), then pairs of untraced and traced (perfbench/traced.py) operations
at workers = 1 until --seconds is spent. Every body must equal the reference,
which checks worker invariance, and every count must repeat exactly. "<span>_s"
is the time inside the outermost calls of a span, "<span>_calls" their number,
"<layer>.self_s" a layer's span time minus its child spans, and trace.other_s
the traced wall time outside every span; the last two sum to trace.wall_s.
Times are medians over the traced operations.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (environment, every operation, report
digests, the spans of the last traced operation) go to .perfbench-out/.
"""

import argparse
import hashlib
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
MIN_OPS = 2
LAYERS = ("import", "cli", "mixing", "processes", "concentration", "regression")
# Counts that must repeat exactly across traced operations of one invocation.
EXACT = ("_calls", "_steps", ".checks_failed", ".chain_kept_frac", ".defined_frac", ".spans")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SETUP_PROBE = """
import json, sys
import betamix.cli
from betamix.config import resolve_config
from betamix.errors import ConfigError
try:
    resolve_config({}, json.loads(sys.argv[1]))
except ConfigError:
    pass  # every operation then fails and is counted
import numpy, scipy
try:
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
except (AttributeError, KeyError):
    blas = None
print(json.dumps({"betamix": betamix.cli.__file__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (not a setup or program failure)."""


def load_workloads():
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def overrides(wl, seed, out_dir, workers):
    """The workload's config as resolve_config overrides."""
    ov = {"suite": wl["suite"], "seed": str(seed), "output": str(out_dir),
          "workers": str(workers)}
    if "reps" in wl:
        ov["reps"] = str(wl["reps"])
    ov.update(wl["config"])
    return ov


def cli_args(wl, seed, out_dir, workers):
    args = [wl["suite"], "--seed", str(seed), "--output", str(out_dir),
            "--workers", str(workers)]
    if "reps" in wl:
        args += ["--reps", str(wl["reps"])]
    for key, value in wl["config"].items():
        args += ["--set", f"{key}={value}"]
    return args


def spawn(argv, env, log_dir):
    """Run argv to completion; wall time, CPU and peak RSS from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def probe_setup(wl, seed, env, log_dir):
    overrides_json = json.dumps(overrides(wl, seed, log_dir, wl["workers"]))
    run = spawn([sys.executable, "-c", SETUP_PROBE, overrides_json], env, log_dir)
    if run["exit"] != 0:
        raise BenchError(f"setup probe failed: {tail(log_dir / 'stderr.txt')}")
    info = json.loads((log_dir / "stdout.txt").read_text())
    if not Path(info["betamix"]).resolve().is_relative_to(SRC):
        raise BenchError(f"betamix imported from {info['betamix']}, not {SRC}")
    return run["wall_s"], info


def import_times(env, log_dir):
    """Seconds spent importing numpy, scipy.signal and betamix's own modules."""
    run = spawn([sys.executable, "-X", "importtime", "-c", "import betamix.cli"], env, log_dir)
    if run["exit"] != 0:
        raise BenchError(f"import failed: {tail(log_dir / 'stderr.txt')}")
    self_us, cumulative_us = {}, {}
    for line in (log_dir / "stderr.txt").read_text().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            own = int(parts[0].split(":")[1])
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        self_us[name], cumulative_us[name] = own, cumulative
    own_betamix = sum(us for name, us in self_us.items()
                      if name == "betamix" or name.startswith("betamix."))
    return {
        "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
        "import.scipy_signal_s": cumulative_us.get("scipy.signal", 0) / 1e6,
        "import.betamix_s": own_betamix / 1e6,
    }


def tail(path, lines=5):
    return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])


def check_reports(wl, out_dir):
    """SHA-256 of every report, or a list of problems with the outputs."""
    problems = []
    manifest_path = out_dir / f"{wl['suite'].replace('-', '_')}_manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"manifest unreadable: {exc}"]
    failing = [c["name"] for c in manifest.get("checks", []) if not c.get("passed")]
    if failing or not manifest.get("checks"):
        problems.append(f"checks failed or missing: {failing}")
    if sorted(manifest.get("reports", [])) != sorted(wl["reports"]):
        problems.append(f"reports {manifest.get('reports')} != {sorted(wl['reports'])}")
    digests = {}
    for name, rows in wl["reports"].items():
        try:
            body = (out_dir / name).read_bytes()
        except OSError as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        digests[name] = hashlib.sha256(body).hexdigest()
        lines = body.count(b"\n")
        if lines != rows + 1:
            problems.append(f"{name}: {lines - 1} rows, expected {rows}")
    return digests, problems


def program_seeds(wl, seed):
    k = wl.get("program_seeds", 1)
    return [seed * k + j for j in range(k)]


class Invocation:
    """Operations of one benchmark run, checked against the first report bodies
    of each program seed."""

    def __init__(self, name, wl, seed):
        self.wl = wl
        self.seeds = program_seeds(wl, seed)
        self.env = child_env()
        self.work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
        self.ops = []
        self.reference = {}

    def operation(self, seed, workers, spans_file=None):
        out_dir = self.work / f"op{len(self.ops)}"
        argv = [sys.executable]
        if spans_file is not None:
            argv += [str(HERE / "traced.py"), str(spans_file)]
        else:
            argv += ["-m", "betamix.cli"]
        argv += cli_args(self.wl, seed, out_dir, workers)
        op = spawn(argv, self.env, out_dir)
        op.update(program_seed=seed, workers=workers, traced=spans_file is not None)
        digests, problems = check_reports(self.wl, out_dir)
        if op["exit"] != 0:
            problems.insert(0, f"exit {op['exit']}: {tail(out_dir / 'stderr.txt')}")
        elif not problems:
            if seed not in self.reference:
                self.reference[seed] = digests
            elif digests != self.reference[seed]:
                problems.append("report bodies differ from the first operation")
        op.update(sha256=digests, problems=problems)
        self.ops.append(op)
        shutil.rmtree(out_dir)
        return op

    @property
    def failed(self):
        return sum(1 for op in self.ops if op["problems"])


def run_e2e(inv, seconds):
    wl = inv.wl
    setups = []
    for k in range(SETUP_REPEATS):
        wall, env_info = probe_setup(wl, inv.seeds[0], inv.env, inv.work / f"setup{k}")
        setups.append(wall)
    start = time.perf_counter()
    while True:
        inv.operation(inv.seeds[len(inv.ops) % len(inv.seeds)], wl["workers"])
        elapsed = time.perf_counter() - start
        typical = statistics.median(op["wall_s"] for op in inv.ops)
        if len(inv.ops) >= MIN_OPS and elapsed + typical > seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(op[key] for op in inv.ops)
    return metrics, env_info, {"setup_s": setups}


def span_metrics(spans_file, wall):
    """Per-span and per-layer values of one traced operation."""
    with open(spans_file, "rb") as fh:
        names, name_idx, starts, ends, parents, counters = marshal.load(fh)
    dur = [end - start for start, end in zip(starts, ends)]
    child = [0.0] * len(dur)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += dur[i]
    values = {f"{name}_s": 0.0 for name in names}
    values.update({f"{name}_calls": 0 for name in names})
    values.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    roots = 0.0
    for i, k in enumerate(name_idx):
        name = names[k]
        values[f"{name}_calls"] += 1
        values[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
        ancestor = parents[i]
        while ancestor >= 0 and name_idx[ancestor] != k:
            ancestor = parents[ancestor]
        if ancestor < 0:
            values[f"{name}_s"] += dur[i]
        if parents[i] < 0:
            roots += dur[i]
    steps = counters.get("processes.chain_steps", 0)
    nw_calls = values["regression.nw_calls"]
    values.update({
        "processes.chain_steps": steps,
        "processes.chain_kept_frac":
            counters.get("processes.chain_kept", 0) / steps if steps else 0.0,
        "processes.far1_steps": counters.get("processes.far1_steps", 0),
        "regression.defined_frac":
            counters.get("regression.nw_defined", 0) / nw_calls if nw_calls else 0.0,
        "cli.checks_failed": counters.get("cli.checks_failed", 0),
        "trace.wall_s": wall,
        "trace.other_s": wall - roots,
        "trace.spans": len(dur),
    })
    return values, (names, name_idx, starts, ends, parents)


def run_trace(inv, seconds):
    wl = inv.wl
    start = time.perf_counter()
    _, env_info = probe_setup(wl, inv.seeds[0], inv.env, inv.work / "setup")
    imports = import_times(inv.env, inv.work / "importtime")
    seed = inv.seeds[0]
    base = inv.operation(seed, wl["workers"])
    untraced = [base["wall_s"]] if wl["workers"] == 1 else []
    traced, spans = [], None
    while True:
        if len(untraced) <= len(traced):
            untraced.append(inv.operation(seed, 1)["wall_s"])
        spans_file = inv.work / f"spans{len(traced)}.marshal"
        op = inv.operation(seed, 1, spans_file)
        if op["exit"] == 0:
            values, spans = span_metrics(spans_file, op["wall_s"])
            if traced:
                moved = {k: (traced[0][k], v) for k, v in values.items()
                         if k.endswith(EXACT) and traced[0][k] != v}
                if moved:
                    op["problems"].append(f"counts differ between traced operations: {moved}")
            traced.append(values)
        if not traced or time.perf_counter() - start + op["wall_s"] * 2 > seconds:
            break
    metrics = dict(imports)
    if traced:
        for key, first in traced[0].items():
            metrics[key] = first if key.endswith(EXACT) else statistics.median(
                t[key] for t in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(t["trace.wall_s"] for t in traced)
            / statistics.median(untraced) - 1.0
        )
    return metrics, env_info, {"traced_wall_s": [t["trace.wall_s"] for t in traced],
                               "untraced_wall_s": untraced}, spans


def environment(info, load_before):
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True).stdout
    except OSError:
        getconf = ""
    caches = dict(line.split(None, 1) for line in getconf.splitlines()
                  if "CACHE_SIZE" in line and len(line.split()) == 2)
    return {
        "python": sys.version.split()[0],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "blas": info["blas"],
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": cores,
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,
        "loadavg_before": load_before,
    }


def write_spans(path, spans):
    names, name_idx, starts, ends, parents = spans
    with open(path, "w") as fh:
        for k, start, end, parent in zip(name_idx, starts, ends, parents):
            fh.write(json.dumps([names[k], start, end, parent]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "betamix" / "cli.py").is_file():
        print(f"error: no betamix sources under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if not all(0 <= s < 2**64 for s in program_seeds(workloads[args.workload], args.seed)):
        print("error: program seeds must fit an unsigned 64-bit integer", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_before = os.getloadavg()
    inv = Invocation(args.workload, workloads[args.workload], args.seed)
    try:
        if args.trace:
            values, info, samples, spans = run_trace(inv, args.seconds)
        else:
            values, info, samples = run_e2e(inv, args.seconds)
            spans = None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not inv.failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    values.update(dict.fromkeys(missing, 0.0))  # no traced operation succeeded

    env = environment(info, load_before)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "argv": [cli_args(inv.wl, s, "<out>", inv.wl["workers"]) for s in inv.seeds],
        "env": env, "operations": inv.ops, "samples": samples,
        "failed_frac": inv.failed / len(inv.ops), "values": values,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        write_spans(OUT / f"{tag}-spans.jsonl", spans)
    for op in inv.ops:
        for problem in op["problems"]:
            print(f"failed operation: {problem}", file=sys.stderr)
    print(f"{len(inv.ops)} operations, {inv.failed} failed; details in {OUT / tag}.json")
    result = {
        "correct": inv.failed == 0,
        "attempted": len(inv.ops),
        "failed": inv.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
