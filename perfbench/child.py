"""Run one `isolab` command in this fresh interpreter and report on it.

    python3 perfbench/child.py SRC RESULT_JSON MODE [-- ARGS...]

Imports `isolab.cli` from SRC and writes RESULT_JSON with the time at which
the import returned. MODE `setup` stops there. MODE `run` then calls
`isolab.cli.main(ARGS)`, with the command's output on this process's
stdout, and adds its exit code, wall time, the harmonic mean time of the
speed probe over the call (see Speedometer), peak resident memory and
backend. MODE `trace` does the same after wrapping each layer's entry
points where their callers look them up, and adds the spans, aggregated
per (name, parent).
"""

from __future__ import annotations

import signal
import sys
import time

# Layer entry points, as (module, attribute, span name). Each is replaced in
# the module its caller reads it from, so every call goes through the wrapper.
SPANS = (
    ("isolab._backend", "canon_form", "kernels.canon_form"),
    ("isolab._backend", "has_isolating_set", "kernels.has_isolating_set"),
    ("isolab._backend", "has_dominating_set", "kernels.has_dominating_set"),
    ("isolab.cli", "parse_graph6", "graphs.parse_graph6"),
    ("isolab.lab", "parse_graph6", "graphs.parse_graph6"),
    ("isolab.cli", "isolation_number", "solvers.isolation_number"),
    ("isolab.cli", "domination_number", "solvers.domination_number"),
    ("isolab.cli", "partition3", "partition.partition3"),
    ("isolab.family", "recognize_family", "family.recognize_family"),
    ("isolab.lab", "find_reducing_star", "lab.find_reducing_star"),
    ("isolab.lab", "enumerate_connected", "lab.enumerate_connected"),
    ("isolab.lab", "enumerate_all", "lab.enumerate_all"),
)
# Predicates of the witness scan: counted, not timed, so that their time
# stays in the solver's self time.
COUNTS = (
    ("isolab.solvers", "is_isolating", "solvers.is_isolating"),
    ("isolab.solvers", "is_dominating", "solvers.is_dominating"),
)
# Spans whose individual durations are kept, for percentiles.
SAMPLED = {"solvers.isolation_number", "solvers.domination_number"}

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 1000


class Speedometer:
    """Times a fixed pure-Python loop every PROBE_INTERVAL_S of wall time.

    On a shared machine the speed at which Python runs changes by tens of
    percent within seconds. The loop's times over a command measure
    that speed over the same interval, so the benchmark can scale the
    command's wall time to a fixed speed. It runs from a SIGALRM handler,
    in this thread, and costs about 1 % of the command's time.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, *_):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            x = (i * 2654435761) & 0xFFFFFFFF
            acc ^= x.bit_count() + (x & -x).bit_length()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    def harmonic_mean(self) -> float:
        # Samples are evenly spaced in wall time, so work done scales with the
        # mean speed, 1 / probe time. A probe stalled by a page fault or a
        # collection hardly moves that mean.
        return len(self.samples) / sum(1 / s for s in self.samples)


class Tracer:
    """Spans aggregated in memory per (name, parent): calls, total, child time."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.agg: dict[tuple[str, str], list] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        samples = self.samples.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += frame[1]
                if samples is not None:
                    samples.append(took)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.span(name, getattr(mod, attr)))
        for module, attr, name in COUNTS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counter(name, getattr(mod, attr)))

    def report(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": t - ch}
                for (n, p), (c, t, ch) in sorted(self.agg.items())
            ],
            "samples": self.samples,
            "counts": self.counts,
        }


def main(argv: list[str]) -> int:
    src, result_path, mode = argv[:3]
    sys.path.insert(0, src)
    import isolab.cli

    result = {"imported_at": time.time()}
    if mode != "setup":
        result.update(run(argv[argv.index("--") + 1 :], mode == "trace"))

    import json

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run(cli_args: list[str], trace: bool) -> dict:
    import logging
    import resource

    import isolab.cli
    from isolab._backend import backend_name

    fallbacks = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: fallbacks.append(record.getMessage())
    logging.getLogger("isolab.partition").addHandler(handler)
    tracer = Tracer() if trace else None
    main_fn = isolab.cli.main
    if tracer:
        tracer.install()
        main_fn = tracer.span("cli." + cli_args[0], main_fn)
    with Speedometer() as speed:
        start = time.perf_counter()
        rc = main_fn(cli_args)
        sys.stdout.flush()
        wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall,
        "probe_s": speed.harmonic_mean(),
        "isolab_file": isolab.cli.__file__,
        "backend": backend_name(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fallbacks": fallbacks,
    }
    if tracer:
        result.update(tracer.report())
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
