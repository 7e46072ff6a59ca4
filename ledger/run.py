#!/usr/bin/env python3
"""The benchmark ledger: builds the engine from source and runs its paper
workloads, each in its own process.

Run from the root of the repository:

  python3 ledger/run.py                         # every workload, seed 1
  python3 ledger/run.py --workload tasky_oltp --seed 3 --trace 0
  python3 ledger/run.py --trace 1               # per-layer metrics + JSONL spans
  python3 ledger/run.py --smoke                 # every workload at tiny scale
  python3 ledger/run.py --out base.json         # also write the results to a file
  python3 ledger/run.py --compare base*.json -- new*.json

The last line printed is one JSON object. For one workload it is that
workload's result, {"correct", "attempted", "failed", "metrics"}; for
several it maps each workload name to its result. The exit code is 0 only
when the build succeeded and every answer check passed (for --compare:
when no metric regressed).

The workloads issue fixed counts of operations, chosen so that a timed
phase lasts about BENCHMARK.json's run_seconds. A caller may state that
length with --seconds; any other value is refused rather than changing the
work.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
EXE = os.path.join(ROOT, "_build", "default", "ledger", "ledger.exe")
# one run of one workload stays well inside three minutes
CHILD_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the ledger with dune. Temporary files and dune's own state stay
    inside the checkout; returns whether the build succeeded."""
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"), DUNE_CACHE="disabled")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./ledger/ledger.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"ledger: cannot run dune: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_workload(name, args):
    """Run one workload in a child process; returns (exit code, result)."""
    cmd = [EXE, "--workload", name, "--seed", str(args.seed),
           "--trace", str(args.trace), "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        raise
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    except (ValueError, IndexError):
        result = None
    for line in lines:
        print(line)
    if result is None:
        print(f"ledger: {name} printed no result (exit {child.returncode})")
        return (child.returncode or 1), None
    return child.returncode, result


# --- comparing result files ---------------------------------------------------

def load_results(paths):
    """workload -> metric -> list of values, over every result file."""
    acc = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for workload, result in doc["workloads"].items():
            for metric, m in result["metrics"].items():
                if m["value"] is not None:
                    acc.setdefault(workload, {}).setdefault(metric, []).append(m["value"])
    return acc


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """improved / unchanged / regressed / unresolved, and the share of
    (old, new) pairs the new side wins."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(a, b) for a in old for b in new]
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0) / len(pairs)
    if bound is None:
        return "no bound", wins
    # quartiles of fewer than three runs say nothing about the spread
    if min(len(old), len(new)) < 3:
        return "unresolved", wins
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    base = abs(omed) or 1.0
    worse = sign * (nmed - omed) / base
    spread = max((oq3 - oq1) / base, (nq3 - nq1) / (abs(nmed) or 1.0))
    # a spread wider than the bound cannot tell a regression from noise,
    # unless every new run reads better than every old one
    if spread > bound and wins < 1.0:
        return "unresolved", wins
    if worse > bound:
        return "regressed", wins
    if wins >= 0.9 and -worse > (oq3 - oq1) / base:
        return "improved", wins
    return "unchanged", wins


def compare(old_paths, new_paths):
    s = spec()
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in s["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in s["per_layer"]})
    old, new = load_results(old_paths), load_results(new_paths)
    regressed = 0
    print(f"{'workload':<14} {'metric':<28} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'wins':>5}  verdict")
    for workload in sorted(set(old) & set(new)):
        for metric in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][metric], new[workload][metric]
            better, bound = bounds.get(metric, ("lower", None))
            v, wins = verdict(a, b, better, bound)
            regressed += v == "regressed"
            (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
            print(f"{workload:<14} {metric:<28} {am:>12.5g} [{aq1:.4g}, {aq3:.4g}]"
                  f"{'':>2} {bm:>12.5g} [{bq1:.4g}, {bq3:.4g}] {wins:>5.2f}  {v}")
    return 1 if regressed else 0


# --- main -----------------------------------------------------------------------

def main():
    argv = sys.argv[1:]
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            sys.exit("usage: run.py --compare OLD.json [...] -- NEW.json [...]")
        cut = rest.index("--")
        if cut == 0 or cut == len(rest) - 1:
            sys.exit("usage: run.py --compare OLD.json [...] -- NEW.json [...]")
        sys.exit(compare(rest[:cut], rest[cut + 1:]))

    p = argparse.ArgumentParser(description="Run the benchmark ledger.")
    p.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="the expected length of a timed phase: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny scale, every check")
    p.add_argument("--out", help="write the results to this file")
    args = p.parse_args(argv)

    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        s = spec()
    except (OSError, ValueError) as e:
        sys.exit(f"ledger: cannot read BENCHMARK.json: {e}")
    if args.seconds is not None and args.seconds != s["run_seconds"]:
        sys.exit(f"ledger: the op counts are fixed for run_seconds = {s['run_seconds']}; "
                 f"--seconds {args.seconds:g} is not supported")
    names = [w["name"] for w in s["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"ledger: unknown workload {args.workload}; known: {', '.join(names)}")
    if not build():
        sys.exit("ledger: build failed")

    selected = [args.workload] if args.workload else names
    code, results = 0, {}
    for name in selected:
        c, result = run_workload(name, args)
        code = code or c
        if result is not None:
            results[name] = result
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "smoke": args.smoke, "trace": args.trace,
                       "workloads": results}, f, indent=1)
    if args.workload:
        if args.workload in results:
            print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    sys.exit(code)


if __name__ == "__main__":
    main()
