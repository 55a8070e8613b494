"""Seeded end-to-end benchmark of the `isolab` command line.

    python3 perfbench/run.py --workload enum8|solve|construct --seed N \
        --seconds S --trace 0|1

Run from a checkout that holds `src/isolab`. Each `isolab` command runs
through `isolab.cli.main` in a fresh interpreter, at `--threads 1`, with
ISOLAB_CACHE_DIR unset, on inputs generated from the seed. The workloads,
their commands and the layers they stress are described in README.md.

--trace 0 runs every command once, then repeats commands, the one with the
least time measured first, until S seconds are used, and prints the
end-to-end metrics as medians over each command's runs. Times are scaled
to a fixed machine speed measured during each run (see child.Speedometer).
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics. All output is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit code is 1 when
any output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import checks
import inputs as I

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text())
SETUP_PROBES = 11
COMMAND_TIMEOUT_S = 170
# Timings are scaled to the speed at which child.Speedometer's probe loop
# takes this long, about its time on an idle core of a 2.1 GHz Xeon.
PROBE_NOMINAL_S = 0.00025

# solve: many small graphs, where parsing and decisions dominate, and a
# minority of sparse graphs, where the witness scan dominates. Each sparse
# graph is drawn until its lex-least dominating and isolating sets sit at
# scan positions in these ranges, so that every seed asks for the same
# amount of scanning.
SOLVE_SMALL = 6000
SOLVE_SPARSE = 40
DOM_SCAN = (20_000, 40_000)
ISO_SCAN = (500, 1_500)
# construct: counts per kind of input.
CONSTRUCT_KINDS = {"family": 1000, "random": 1000, "deg3": 1000,
                   "c5": 20, "disconnected": 20, "tiny": 20}


@dataclass
class Command:
    """One `isolab` call of a workload: the metric it is timed as, its
    arguments, how many graphs it answers, how its output lines are checked
    (returning the number of wrong graphs) and its expected exit code."""

    slot: str
    args: list[str]
    answers: int
    check: Callable[[list[str]], int]
    expected_rc: int = 0


# ---------------------------------------------------------------------------
# workloads


def _write(work: Path, name: str, items) -> str:
    # Commands run in the work directory, so arguments name files in it.
    (work / name).write_text("".join(item[0] + "\n" for item in items))
    return name


def enum8(seed, work, tally):
    # The catalog does not depend on the seed.
    def catalog(order, connected, count):
        args = ["enum", "--order", str(order), "--quiet"] + ["--connected"] * connected
        check = lambda lines: checks.check_catalog(lines, order, connected, count)
        return args, count, check

    return [
        Command("cmd1_s", *catalog(8, True, 11117)),
        Command("cmd2_s", *catalog(7, False, 1044)),
        Command("cmd3_s", *catalog(7, True, 853)),
    ]


def _solve_item(adj, kind):
    expected = {"iota": I.min_isolating(adj), "gamma": I.min_dominating(adj)}
    return (I.encode(adj), adj, kind, expected)


def cells(count, *axes):
    """count parameter tuples cycling through every combination of the axes,
    so that the seed changes the graphs but not the mix of sizes."""
    grid = list(product(*axes))
    return [grid[i % len(grid)] for i in range(count)]


def solve(seed, work, tally):
    rng = random.Random(seed)
    small = [
        _solve_item(I.random_connected(rng, n, p), "small")
        for n, p in cells(SOLVE_SMALL, range(9, 15), (0.1, 0.2, 0.35, 0.5, 0.7))
    ]
    sparse = []
    while len(sparse) < SOLVE_SPARSE:
        n = rng.randint(16, 24)
        item = _solve_item(I.random_connected(rng, n, 0.05), "sparse")
        dom, iso = (I.combo_rank(n, item[3][k]) for k in ("gamma", "iota"))
        if DOM_SCAN[0] <= dom <= DOM_SCAN[1] and ISO_SCAN[0] <= iso <= ISO_SCAN[1]:
            sparse.append(item)
    every = small + sparse
    rng.shuffle(every)
    iso_check = checks.check_min_set("iota", I.isolates)
    dom_check = checks.check_min_set("gamma", I.dominates)
    return [
        Command("cmd1_s", ["iso", _write(work, "solve.g6", every)], len(every),
                lambda lines: iso_check(every, lines)),
        Command("cmd2_s", ["dom", _write(work, "small.g6", small)], len(small),
                lambda lines: dom_check(small, lines)),
        Command("cmd3_s", ["dom", _write(work, "sparse.g6", sparse)], len(sparse),
                lambda lines: dom_check(sparse, lines)),
    ]


# Pendant-family cells (base order, C5 pendants, base density) of order 9..30.
FAMILY_CELLS = [(b, c, p) for b in range(3, 11) for c in range(b // 2 + 1)
                for p in (0.0, 0.2, 0.5) if 3 <= b + c <= 10]


def _construct_items(rng, kind, count):
    if kind == "family":
        return [I.pendant_family(rng, b, c, p) for ((b, c, p),) in cells(count, FAMILY_CELLS)]
    if kind == "random":
        grid = cells(count, range(9, 31), (0.0, 0.05, 0.1, 0.2, 0.3))
        return [I.random_connected(rng, n, p) for n, p in grid]
    if kind == "deg3":
        grid = cells(count, range(9, 31), (0.0, 0.05, 0.1))
        return [I.raise_min_degree(rng, I.random_connected(rng, n, p), 3) for n, p in grid]
    if kind == "c5":
        return [I.relabel(I.from_edges(5, I.C5_EDGES), rng) for _ in range(count)]
    if kind == "disconnected":
        out = []
        for a, b in cells(count, range(3, 11), range(1, 11)):
            left, right = I.random_connected(rng, a, 0.3), I.random_connected(rng, b, 0.3)
            out.append(I.relabel(left + [row << a for row in right], rng))
        return out
    # order below 3: K1, K2 and two isolated vertices
    tiny = ((1, ()), (2, ((0, 1),)), (2, ()))
    return [I.from_edges(n, e) for ((n, e),) in cells(count, tiny)]


def construct(seed, work, tally):
    rng = random.Random(seed)
    items = [
        (I.encode(adj), adj, kind, None)
        for kind, count in CONSTRUCT_KINDS.items()
        for adj in _construct_items(rng, kind, count)
    ]
    rng.shuffle(items)
    path = _write(work, "construct.g6", items)
    rules = tally.setdefault("rules", {})
    family = tally.setdefault("family", {})
    return [
        Command("cmd1_s", ["partition3", "--trace", path], len(items),
                lambda lines: checks.check_partition3(items, lines, rules), 1),
        Command("cmd2_s", ["recognize-g", path], len(items),
                lambda lines: checks.check_recognize(items, lines, family)),
        Command("cmd3_s", ["star", path], len(items),
                lambda lines: checks.check_star(items, lines), 1),
    ]


WORKLOADS = {"enum8": enum8, "solve": solve, "construct": construct}

# Layers each workload must reach; a traced pass with zero calls to one of
# them fails instead of reporting 0.
EXPECTED_SPANS = {
    "enum8": ("kernels.canon_form", "lab.enumerate_connected", "lab.enumerate_all"),
    "solve": ("graphs.parse_graph6", "solvers.isolation_number",
              "solvers.domination_number", "kernels.has_isolating_set",
              "kernels.has_dominating_set"),
    "construct": ("graphs.parse_graph6", "partition.partition3",
                  "family.recognize_family", "lab.find_reducing_star"),
}


# ---------------------------------------------------------------------------
# running


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ISOLAB_CACHE_DIR", None)
    return env


def run_command(cmd: Command, work: Path, trace: bool) -> dict:
    out, err, res = (work / f"{cmd.slot}.{ext}" for ext in ("out", "err", "json"))
    res.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(res),
            "trace" if trace else "run", "--", *cmd.args, "--threads", "1"]
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo,
                                stderr=fe, env=_env(), cwd=work)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    data = out.read_bytes()
    result = json.loads(res.read_text()) if res.exists() else {"rc": None}
    result["sha256"] = hashlib.sha256(data).hexdigest()
    result["lines"] = data.decode("ascii", errors="replace").splitlines()
    result["stderr"] = err.read_text(errors="replace")[-2000:]
    if result["rc"] is not None and not Path(result["isolab_file"]).is_relative_to(SRC):
        raise SystemExit(f"isolab imported from {result['isolab_file']}, not {SRC}")
    return result


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the fixed speed at which the probe loop takes PROBE_NOMINAL_S,
    for a time measured while the probe took probe_s."""
    return seconds * PROBE_NOMINAL_S / probe_s


def setup_time(work: Path) -> float:
    """Seconds from starting a fresh interpreter until `import isolab.cli` returns."""
    res = work / "setup.json"
    start = time.time()
    subprocess.run([sys.executable, str(HERE / "child.py"), str(SRC), str(res), "setup"],
                   env=_env(), check=True, stdin=subprocess.DEVNULL)
    return json.loads(res.read_text())["imported_at"] - start


def check_pass(seed, commands, results, stored) -> tuple[int, int, list[str]]:
    """Check each command's output; return (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    for cmd, res, ref in zip(commands, results, stored or [None] * len(commands)):
        attempted += cmd.answers
        name = " ".join(cmd.args)
        if res["rc"] != cmd.expected_rc:
            problems.append(f"{name}: exit code {res['rc']}, expected "
                            f"{cmd.expected_rc}\n{res['stderr']}")
            failed += cmd.answers
            continue
        bad = cmd.check(res["lines"])
        if ref and ref["sha256"] != res["sha256"]:
            problems.append(f"{name}: stdout sha256 {res['sha256']} differs from "
                            f"the reference {ref['sha256']} for seed {seed}")
            bad = max(bad, 1)
        elif bad:
            problems.append(f"{name}: {bad} wrong output records")
        failed += min(bad, cmd.answers)
    return attempted, failed, problems


def reference_for(workload: str, seed: int):
    ref = REFERENCE.get(workload)
    if ref and (ref["seed"] is None or ref["seed"] == seed):
        return ref["commands"]
    return None


def end_to_end(commands, runs, setups) -> dict:
    """Medians over each command's repeated runs."""
    walls = [statistics.median(scaled(r["wall_s"], r["probe_s"]) for r in rs) for rs in runs]
    answers = sum(c.answers for c in commands)
    # An import is too short to probe on its own; its time is scaled by
    # the machine speed over the whole run.
    probe = statistics.median(r["probe_s"] for rs in runs for r in rs)
    metrics = {
        "setup_s": (scaled(statistics.median(setups), probe), "s"),
        "graphs_per_s": (answers / sum(walls), "1/s"),
    }
    for cmd, wall in zip(commands, walls):
        metrics[cmd.slot] = (wall, "s")
    rss = max(statistics.median(r["maxrss_kb"] for r in rs) for rs in runs)
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    return metrics


def per_layer(workload, commands, untraced, traced, tally) -> tuple[dict, list[str]]:
    spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
    samples, counts = [], {}
    for res in traced:
        for s in res["spans"]:
            rec = spans.setdefault(s["name"], [0, 0.0, 0.0])
            rec[0] += s["calls"]
            rec[1] += s["total_s"]
            rec[2] += s["self_s"]
        for values in res["samples"].values():
            samples.extend(values)
        for k, v in res["counts"].items():
            counts[k] = counts.get(k, 0) + v
    problems = [f"layer {name} recorded no calls on {workload}"
                for name in EXPECTED_SPANS[workload] if name not in spans]

    def calls(name):
        return spans.get(name, [0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("kernels.canon_form", "kernels.has_isolating_set",
                 "kernels.has_dominating_set", "graphs.parse_graph6",
                 "partition.partition3", "family.recognize_family",
                 "lab.find_reducing_star"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    classes = sum(c.answers for c in commands if c.args[0] == "enum")
    m["lab.canon_per_class"] = (ratio(calls("kernels.canon_form"), classes), "ratio")
    m["lab.enumerate_connected.self_s"] = (self_s("lab.enumerate_connected"), "s")
    m["lab.enumerate_all.self_s"] = (self_s("lab.enumerate_all"), "s")
    solvers = ("solvers.isolation_number", "solvers.domination_number")
    for name in solvers:
        m[name + ".self_s"] = (self_s(name), "s")
    solver_total = sum(spans.get(n, [0, 0.0])[1] for n in solvers)
    m["solvers.witness_share"] = (ratio(sum(self_s(n) for n in solvers), solver_total), "ratio")
    m["solvers.checks_per_solve"] = (ratio(sum(counts.values()), sum(calls(n) for n in solvers)), "ratio")
    samples.sort()
    for q in (50, 99):
        value = samples[min(len(samples) - 1, len(samples) * q // 100)] * 1e3 if samples else 0.0
        m[f"solvers.solve_p{q}_ms"] = (value, "ms")
    rules = tally.get("rules", {})
    for kind in checks.TRACE_KINDS + ("other",):
        m["partition.rule." + kind] = (rules.get(kind, 0), "count")
    m["partition.fallbacks"] = (sum(len(r["fallbacks"]) for r in traced), "count")
    if workload == "construct":
        problems += [f"partition rule {k} never fired on construct"
                     for k in checks.REACHED_KINDS if not rules.get(k)]
    members = tally.get("family", {}).get("members", 0)
    recognized = sum(c.answers for c in commands if c.args[0] == "recognize-g")
    m["family.accept_ratio"] = (ratio(members, recognized), "ratio")
    for cli in ("enum", "iso", "dom", "partition3", "recognize-g", "star"):
        m[f"cli.{cli}.self_s"] = (self_s("cli." + cli), "s")
    plain = sum(scaled(r["wall_s"], r["probe_s"]) for r in untraced)
    m["trace.overhead"] = (ratio(sum(scaled(r["wall_s"], r["probe_s"]) for r in traced), plain) - 1, "ratio")
    return m, problems


def commit():
    """The checkout's git commit, or None where it is not a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isolab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "isolab" / "cli.py").is_file():
        sys.stderr.write(f"no isolab sources under {SRC}\n")
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        tally: dict = {}
        commands = WORKLOADS[args.workload](args.seed, work, tally)
        stored = reference_for(args.workload, args.seed)
        setup_time(work)  # the first import also writes the bytecode caches
        setups: list[float] = []

        def timed(cmd, trace=False):
            # Setup probes are spread over the run like the commands.
            if not args.trace and len(setups) < SETUP_PROBES:
                setups.append(setup_time(work))
            return run_command(cmd, work, trace)

        started = time.perf_counter()
        first = [timed(cmd) for cmd in commands]
        attempted, failed, problems = check_pass(args.seed, commands, first, stored)
        runs = [[r] for r in first]
        metrics = {}
        if args.trace and not failed:
            traced = [timed(cmd, trace=True) for cmd in commands]
            for rs, r in zip(runs, traced):
                rs.append(r)
        # Repeat the command with the least time measured so far, so that
        # each command's samples spread over the whole run.
        while not args.trace and not failed:
            i = min(range(len(commands)), key=lambda j: sum(r["wall_s"] for r in runs[j]))
            if time.perf_counter() - started + runs[i][-1]["wall_s"] > args.seconds:
                break
            runs[i].append(timed(commands[i]))
        for cmd, rs in zip(commands, runs):
            if any(r["sha256"] != rs[0]["sha256"] or r["rc"] != rs[0]["rc"] for r in rs):
                problems.append(" ".join(cmd.args) + ": output differs between runs"
                                + (" (traced and untraced)" if args.trace else ""))
                failed = max(failed, 1)
        if not failed and args.trace:
            metrics, more = per_layer(args.workload, commands, first, traced, tally)
            problems += more
        elif not failed:
            metrics = end_to_end(commands, runs, setups)

    info = {
        "workload": args.workload, "seed": args.seed,
        "backend": first[0].get("backend"), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(), "source_sha256": source_digest(),
        "commands": [{"slot": c.slot, "args": " ".join(c.args),
                      "lines": len(rs[0]["lines"]), "sha256": rs[0]["sha256"],
                      "wall_s": [round(r.get("wall_s", 0), 4) for r in rs],
                      "probe_ms": [round(r.get("probe_s", 0) * 1e3, 4) for r in rs]}
                     for c, rs in zip(commands, runs)],
    }
    print(json.dumps(info))
    for problem in problems:
        sys.stderr.write(problem + "\n")
    correct = not problems and not failed
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
