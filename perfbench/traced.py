"""Run one betamix CLI invocation with a span around every call into a layer.

Usage: python3 perfbench/traced.py SPANS_FILE SUITE [CLI ARGS...]

The package is not edited: after `import betamix.cli` (itself recorded as the
span "import"), each function in LAYER_CALLS is replaced, in every betamix
module that holds it, by a wrapper that records a span (name, start, end,
parent span). Spans and counters stay in memory and are written to SPANS_FILE
with `marshal` when the suite returns; the process exits with the CLI's exit
code. Run it with workers = 1, so every layer call lands in this process.
"""

import functools
import inspect
import marshal
import sys
import time

# (module, attribute, span name). A dotted attribute is a method of a class.
# The span name is the metric prefix: "<span>_s" and "<span>_calls".
LAYER_CALLS = [
    ("mixing", "_alpha_table", "mixing.alpha"),
    ("mixing", "ibragimov_check", "mixing.ibragimov"),
    ("mixing", "davydov_check", "mixing.davydov"),
    ("mixing", "beta_exact", "mixing.beta"),
    ("mixing", "markov_beta_lag", "mixing.beta"),
    ("mixing", "FiniteChain.from_transition", "mixing.chain_build"),
    ("processes", "_simulate_chain_columns", "processes.chain_sim"),
    ("processes", "simulate_far1", "processes.far1"),
    ("processes", "make_regression_sample", "processes.regression_sample"),
    ("processes", "estimate_chain_mixing", "processes.mixing_estimate"),
    ("concentration", "make_fspec", "concentration.pilot"),
    ("concentration", "tail_deviations", "concentration.tail"),
    ("concentration", "empirical_laplace", "concentration.laplace_mc"),
    ("concentration", "calibrate_corollary", "concentration.calibrate"),
    ("concentration", "calibrate_laplace_constant", "concentration.calibrate"),
    ("concentration", "corollary_bound", "concentration.bound_eval"),
    ("concentration", "laplace_bound", "concentration.bound_eval"),
    ("concentration", "unbounded_bound", "concentration.bound_eval"),
    ("concentration", "truncate", "concentration.truncate"),
    ("regression", "dynamic_forecast_experiment", "regression.forecast"),
    ("regression", "curve_distances", "regression.distance"),
    ("regression", "estimate_small_ball", "regression.small_ball"),
    ("regression", "bandwidth_schedule", "regression.bandwidth"),
    ("regression", "RegressionFit.evaluate", "regression.nw"),
    ("regression", "m_constant", "regression.m_constant"),
    ("cli", "resolve_config", "cli.config"),
    ("cli", "load_config_file", "cli.config"),
    ("cli", "_write_csv", "cli.report"),
    ("cli", "_write_manifest", "cli.report"),
    ("cli", "run_suite", "cli.suite"),
]


def _chain_steps(args, result):
    cols = len(args["seeds"])
    return {
        "processes.chain_steps": (args["spec"].burn_in + args["n"]) * cols,
        "processes.chain_kept": args["n"] * cols,
    }


def _far1_steps(args, result):
    return {"processes.far1_steps": args["spec"].burn_in + args["n"]}


def _nw_defined(args, result):
    return {"regression.nw_defined": int(result.defined)}


def _checks_failed(args, result):
    return {"cli.checks_failed": sum(not c.passed for c in result.checks)}


# Counters taken from a call's arguments or result, by span name.
NOTES = {
    "processes.chain_sim": _chain_steps,
    "processes.far1": _far1_steps,
    "regression.nw": _nw_defined,
    "cli.suite": _checks_failed,
}


class Tracer:
    """In-memory spans: parallel lists of name index, start, end, parent."""

    def __init__(self):
        self.names = []
        self.name_idx, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = {}
        self._stack = []

    def name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name, start, end):
        self.name_idx.append(self.name_index(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._stack[-1] if self._stack else -1)

    def wrap(self, name, fn):
        index = self.name_index(name)
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pos = len(self.starts)
            self.name_idx.append(index)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self._stack.append(pos)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[pos] = time.perf_counter()
                self._stack.pop()
            if note:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in note(bound.arguments, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return wrapper

    def install(self, modules):
        for module_name, attr, name in LAYER_CALLS:
            module = modules[f"betamix.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self.wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in modules.items():
                if mod_name == "betamix" or mod_name.startswith("betamix."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump(
                (self.names, self.name_idx, self.starts, self.ends, self.parents,
                 self.counters),
                fh,
            )


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import betamix.cli

    tracer.record("import", start, time.perf_counter())
    tracer.install(sys.modules)
    code = tracer.wrap("cli.main", betamix.cli.main)(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
