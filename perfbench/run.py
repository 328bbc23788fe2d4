#!/usr/bin/env python3
"""Run one workload of the fthresh benchmark and print its metrics.

    python3 perfbench/run.py --workload fpt_search --seed 1 --seconds 17 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the list once untraced and once
traced, reports the per-layer metrics of the traced pass, writes its spans to
``.perfbench-out/`` and prints the tracing overhead on standard error.

The timed phase is a fixed list of calls, never a clock window: ``--seconds``
only sets how many rounds of the list run, at the nominal round length
measured on the reference machine (README.md).  Every round builds its inputs
in rings of its own, with fresh variable names, so the module-level caches of
fthresh and the cached bases on ideal handles never see an input twice.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# seconds one round of each list takes on the reference machine (README.md)
ROUND_SECONDS = {"fpt_search": 17.0, "nu_ideals": 7.5, "special_dispatch": 8.0}
# input builds per run; set-up time takes their median
SETUP_REPEATS = 5


def load_fthresh():
    src = ROOT / "src"
    if not (src / "fthresh" / "__init__.py").is_file():
        sys.exit(f"fthresh sources not found under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    importlib.import_module("fthresh")
    import_s = time.perf_counter() - start
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"fthresh.{name}")
           for name in ("arith", "parsing", "groebner", "fptdriver", "nu")}
    )
    return mods, import_s


def build(instances, mods, tag: str):
    """One copy of the workload's inputs, each in a ring of its own.

    The calls look their functions up on the modules when they run, so a
    tracer installed later still sees them.
    """
    calls = []
    for j, inst in enumerate(instances):
        case = inst.case
        names = tuple(f"{v}{tag}_{j}" for v in case.names)
        rename = dict(zip(case.names, names))
        ring = mods.arith.Ring(case.p, names)

        def parse(text, ring=ring, rename=rename):
            return mods.parsing.parse_polynomial(workloads.substitute(text, rename), ring)

        opts = dict(case.options)
        if case.op == "fpt":
            f = parse(inst.text)
            calls.append(lambda f=f, opts=opts: mods.fptdriver.fpt(f, **opts))
        elif case.op == "nu":
            f = parse(inst.text)
            calls.append(lambda f=f, e=case.e: mods.nu.nu(e, f))
        else:
            I = mods.groebner.Ideal(ring, [parse(g) for g in inst.gens])
            J = mods.groebner.Ideal(ring, [parse(g) for g in case.J]) if case.J else None
            calls.append(lambda I=I, J=J, e=case.e, opts=opts: mods.nu.nu(e, I, J, **opts))
    return calls


def run_calls(calls, on_call=None):
    """Run the calls in order; returns answers (an exception for a call that
    raised), the wall time of each call, and the wall time of the whole list.

    Each call is dropped from the list once it has run, so the caches an
    input's handles hold are freed before the next round, as they are for
    a user whose inputs go out of scope.
    """
    answers, times = [], []
    start = time.perf_counter()
    for k, call in enumerate(calls):
        if on_call is not None:
            on_call(k)
        t0 = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # a call that raises counts as failed
            answer = exc
        times.append(time.perf_counter() - t0)
        answers.append(answer)
        calls[k] = call = None
    return answers, times, time.perf_counter() - start


def check_answers(instances, answers):
    """Returns (failed, wrong): calls that raised or failed a check, and the
    calls among them that returned a wrong answer.  Rounds repeat the same
    inputs, so an answer already checked for its input is not checked again."""
    failed = wrong = 0
    per_round = len(instances)
    verdicts = {}
    for start in range(0, len(answers), per_round):
        chunk = list(zip(instances, answers[start:start + per_round]))
        for j, (inst, answer) in enumerate(chunk):
            if isinstance(answer, Exception):
                failed += 1
                print(f"FAILED {inst.case.label}: {answer!r}", file=sys.stderr)
                continue
            key = (j, str(answer))
            if key not in verdicts:
                verdicts[key] = checks.check(inst, answer)
            problems = verdicts[key]
            if problems:
                failed += 1
                wrong += 1
                print(f"WRONG {inst.case.label}: {'; '.join(problems)}", file=sys.stderr)
        for problem in checks.check_pairs(chunk):
            wrong += 1
            failed += 1
            print(f"WRONG {problem}", file=sys.stderr)
    return failed, wrong


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    mods, import_s = load_fthresh()
    instances = workloads.instances(args.workload, args.seed)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))

    timed_calls, build_s = [], []
    for k in range(max(rounds, SETUP_REPEATS)):
        start = time.perf_counter()
        calls = build(instances, mods, f"r{k}")
        build_s.append(time.perf_counter() - start)
        if k < rounds:
            timed_calls += calls
    del calls
    setup_s = import_s + rounds * statistics.median(build_s)
    attempted = len(timed_calls)
    answers, times, wall = run_calls(timed_calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced_calls = [call for k in range(rounds)
                        for call in build(instances, mods, f"t{k}")]

        def on_call(k):
            tracer.call = k

        traced_answers, _, traced_wall = run_calls(traced_calls, on_call)
        answers += traced_answers
        overhead = traced_wall / wall
        print(f"trace: untraced {wall:.3f} s, traced {traced_wall:.3f} s, "
              f"overhead x{overhead:.3f}", file=sys.stderr)
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                           "untraced_s": wall, "traced_s": traced_wall,
                           "calls": [inst.case.label for inst in instances] * rounds})
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / wall, "1/s"),
            "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failed, wrong = check_answers(instances, answers)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(answers),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
