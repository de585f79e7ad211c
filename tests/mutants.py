"""Hand mutants of the chain, coupling, centred-sum and mixing helpers: tier-1
must kill every one.

Each mutant is one exact text substitution in one file of src/betamix. It is
applied to a temporary copy of the package, and tier-1 runs on that copy with
--hypothesis-seed=0 and -x. The script exits 1 when a mutant survives, when the
text a mutant replaces does not occur exactly once in its file, or when a run
ends other than passing or failing (a collection or usage error):

    python tests/mutants.py

With --count, each run takes the whole suite, without -x, and prints the
number of test ids that fail on the mutant, its killers, and then each of them.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, text, replacement)
MUTANTS = [
    ("burn-in one row long", "processes.py",
     "burn = spec.burn_in - 1", "burn = spec.burn_in"),
    ("last burn-in chunk one row short", "processes.py",
     "buffer[:min(BURN_ROWS, rows - start)]", "buffer[:min(BURN_ROWS, rows - start - 1)]"),
    ("streamed chunk one row short", "processes.py",
     "paths[:n - start]", "paths[:n - start - 1]"),
    ("streamed chunk state not copied", "processes.py",
     "[-1].copy()", "[-1]"),
    ("uniform fill shifts before it scales", "processes.py",
     "    out *= 2.0 * half\n    out -= half\n", "    out -= 0.5\n    out *= 2.0 * half\n"),
    ("truncated Gaussian with sigma and trunc swapped", "processes.py",
     "_truncated_gaussian(spec.sigma, spec.trunc, rng, out)",
     "_truncated_gaussian(spec.trunc, spec.sigma, rng, out)"),
    ("K floor 64", "processes.py",
     "max(128, math.ceil(", "max(64, math.ceil("),
    ("skip one block too long", "processes.py",
     "(burn - keep) // block * block", "((burn - keep) // block + 1) * block"),
    ("skip with any generator", "processes.py",
     "skips = burn > keep and math.isfinite(bound) and _advances_exactly(gens)",
     "skips = burn > keep and math.isfinite(bound)"),
    ("bounds meet at zero", "processes.py",
     "(low == high) & (low != 0)", "(low == high)"),
    ("coupled state when any bound pair met", "processes.py",
     "if met.all():", "if met.any():"),
    ("generator not restored when the bounds stay apart", "processes.py",
     "    rng.bit_generator.state = saved\n    return None\n", "    return None\n"),
    ("X_t one row early, whole path", "concentration.py",
     "x_t = paths[t - 1].copy()", "x_t = paths[t - 2].copy()"),
    ("X_t one row early, coupled", "concentration.py",
     "process.burn_in + t - 1, len(indices)", "process.burn_in + t - 2, len(indices)"),
    ("running sum into the last row", "concentration.py",
     "states[0] += sums", "states[-1] += sums"),
    ("centre taken n - 1 times", "concentration.py",
     "sums - n * fspec.center(x_t)", "sums - (n - 1) * fspec.center(x_t)"),
    ("alpha takes the negative part", "mixing.py",
     "np.maximum(block, 0.0, out=block)", "np.maximum(-block, 0.0, out=block)"),
    ("alpha enumerates the longer side", "mixing.py",
     "if dev.shape[0] > dev.shape[1]:", "if dev.shape[0] < dev.shape[1]:"),
    ("subset sums in ascending row order", "mixing.py",
     "enumerate(rows[::-1])", "enumerate(rows)"),
    ("reachability one squaring short", "mixing.py",
     "range(adj.shape[0].bit_length())", "range(adj.shape[0].bit_length() - 1)"),
    ("reachability without the empty path", "mixing.py",
     "(adj | np.eye(adj.shape[0], dtype=bool))", "adj"),
    ("beta at lag 1 without the copy", "mixing.py",
     "c.transition.copy() if n == 1 else np.linalg.matrix_power(c.transition, n)",
     "np.linalg.matrix_power(c.transition, n)"),
]


def run(name: str, file: str, text: str, replacement: str, count: bool) -> bool:
    """Run tier-1 on a copy of the package with the mutant applied; whether it was killed."""
    package = ROOT / "src" / "betamix"
    source = (package / file).read_text()
    if source.count(text) != 1:
        print(f"{name}: the text occurs {source.count(text)} times in {file}, not once")
        return False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src" / "betamix"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)  # a test reads it beside the package
        (copy / file).write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy.parent), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"))
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *([] if count else ["-x"])]
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        print(f"{name}: pytest exited {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
        return False
    killers = re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    shown = len(killers) if count else (killers[0] if killers else "none")
    print(f"{name}: {'killed' if out.returncode else 'SURVIVED'} ({shown})", flush=True)
    if count:
        print("".join(f"    {killer}\n" for killer in killers), end="", flush=True)
    return out.returncode == 1


def main(argv: list[str]) -> int:
    count = argv == ["--count"]
    if argv and not count:
        print(__doc__)
        return 2
    results = [run(*mutant, count) for mutant in MUTANTS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
