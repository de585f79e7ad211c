"""SHA-256 digests of the reports of fixed CLI runs: the byte-identity contract.

The runs are every row of the worker-invariance step of the tier1 workflow
(seed 5) and the tail-mc, forecast and oracle-gate workloads of
perfbench/workloads.json at benchmark seed 7, each at workers 1. The reports
do not depend on the worker count, which the workflow checks. Their bits do
depend on the build: report_digests.json holds the digests of each build that
has recorded them, keyed by numpy's version, its BLAS and the SIMD extensions
it found. A change that moves a report on purpose records them again and says
why in CHANGES.md:

    PYTHONPATH=src python tests/digests.py

writes this build's digests over its entry in report_digests.json.
"""

import functools
import hashlib
import json
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np

from betamix.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("report_digests.json")
CI_SEED = 5
BENCH_SEED = 7
BENCH_WORKLOADS = ("tail-mc", "forecast", "oracle-gate")


def ci_rows(base: str) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every row `same_at_workers <name> $<base> [flag ...]`
    of the worker-invariance step of the tier1 workflow, `base` being conc or fkr."""
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    text = workflow.read_text().replace("\\\n", " ")
    suite = shlex.split(re.search(rf'\b{base}="([^"]*)"', text).group(1))
    rows = [line.split() for line in text.splitlines()]
    return [(words[1], suite + words[3:]) for words in rows
            if words[:1] == ["same_at_workers"] and words[2] == f"${base}"]


def bench_rows() -> list[tuple[str, list[str]]]:
    """(<workload>-<program seed>, CLI arguments) of each program seed of the
    benchmark's workloads at BENCH_SEED, as perfbench/run.py runs them."""
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    rows = []
    for name in BENCH_WORKLOADS:
        wl = workloads[name]
        argv = [wl["suite"], *(["--reps", str(wl["reps"])] if "reps" in wl else [])]
        argv += [word for kv in wl["config"].items() for word in ("--set", "=".join(kv))]
        k = wl.get("program_seeds", 1)
        rows += [(f"{name}-{seed}", [*argv, "--seed", str(seed)])
                 for seed in range(BENCH_SEED * k, BENCH_SEED * k + k)]
    return rows


@functools.cache
def runs() -> dict[str, list[str]]:
    """Every recorded run: {name: CLI arguments but --workers and --output}."""
    ci = {name: [*argv, "--seed", str(CI_SEED)] for name, argv in ci_rows("conc") + ci_rows("fkr")}
    return {**ci, **dict(bench_rows())}


@functools.cache
def reports(name: str) -> dict[str, bytes]:
    """{file name: body} of every CSV that run `name` writes at workers 1;
    cached, so the tests that read a run share one."""
    with tempfile.TemporaryDirectory() as out:
        code = main([*runs()[name], "--workers", "1", "--output", out])
        assert code == 0, f"run {name} exited {code}"
        return {path.name: path.read_bytes() for path in sorted(Path(out).glob("*.csv"))}


def digests(name: str) -> dict[str, str]:
    """{<run>/<file name>: SHA-256} of run `name`'s reports."""
    return {f"{name}/{csv}": hashlib.sha256(body).hexdigest()
            for csv, body in reports(name).items()}


def build() -> str:
    """numpy's version, the BLAS it reports, and the SIMD extensions it found
    on this CPU, which choose the kernels of its elementwise functions."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return f"numpy {np.__version__}"
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return f"numpy {np.__version__}; {blas['name']} {blas.get('version', '')}; simd {simd}"


def committed() -> dict[str, str]:
    """This build's entry of the table; {} when it has none."""
    return json.loads(TABLE.read_text()).get(build(), {}) if TABLE.exists() else {}


def record() -> None:
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    table[build()] = {key: value for name in runs() for key, value in digests(name).items()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
