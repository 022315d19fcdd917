"""rsplfr benchmark: run one seeded workload, check its outputs, report metrics.

    python3 bench/run.py --workload toy_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --workload mid_sweep --quick   # minimum size

One workload runs in one process with ``jobs=1``.  Passes of the
workload's timed calls repeat until ``--seconds`` have passed, and every
pass is checked against ground truth.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and reports the per-layer metrics (see bench/README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
with the environment and workload definition goes to bench/results/.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7  # at least; one more per pass beyond that
REFERENCE_BURST_S = 0.3
ALL = ("toy_sweep", "mid_sweep", "audit_micro")

# per-layer metrics of the traced run, by kind
CALLS_AND_SELF = ("rscode.decode", "protocol.user_decode", "protocol.recover_library",
                  "protocol.adversary_signal", "protocol.adversary_content",
                  "protocol.server_signal", "protocol.make_query",
                  "protocol.build_storage", "protocol.place_user",
                  "protocol.library_random", "protocol.randomness_sample",
                  "audit.exact_mi")
SELF_ONLY = ("sim.sweep", "audit.server_security", "audit.signal_security",
             "audit.demand_privacy")
INCLUSIVE = ("audit.server_security", "audit.signal_security", "audit.demand_privacy",
             "audit.robustness")
COUNTED = ("rscode.decode.failures", "rscode.decode.flagged",
           "protocol.user_decode.failures", "protocol.recover_library.failures",
           "ff.prime_field.builds", "sim.configs", "audit.outcomes")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="minimum-size workloads, for the self-test")
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": sys.version, "platform": platform.platform(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


def setup_probe(args) -> float:
    """One setup_s sample, from a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
           str(args.seed), "1" if args.quick else "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def reference_unit() -> None:
    """Fixed pure-Python work that shares no code with rsplfr.

    Gauss-Jordan elimination of a 10x10 system mod 13, 300 times: the
    same kind of interpreter work as the program's decoder.
    """
    q, n = 13, 10
    rows = [[(i * 7 + j * 5 + i * j) % q for j in range(n)] + [(3 * i + 1) % q]
            for i in range(n)]
    for _ in range(300):
        a = [list(r) for r in rows]
        for c in range(n):
            p = next((i for i in range(c, n) if a[i][c]), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            inv = pow(a[c][c], q - 2, q)
            a[c] = [v * inv % q for v in a[c]]
            for i in range(n):
                if i != c and a[i][c]:
                    f = a[i][c]
                    a[i] = [(x - f * y) % q for x, y in zip(a[i], a[c])]


def reference_s() -> float:
    """Median time of the reference unit over a burst of REFERENCE_BURST_S."""
    times = []
    deadline = time.perf_counter() + REFERENCE_BURST_S
    while not times or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(work, seconds: float, before=None, after=None) -> list[tuple[float, object]]:
    """(wall seconds, Pass) for each pass; at least one, then until time is up."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if before is not None:
            before(len(passes) + 1)
        t0 = time.perf_counter()
        outcome = work.run_pass()
        passes.append((time.perf_counter() - t0, outcome))
        if after is not None:
            after(len(passes))
    return passes


def untraced_run(args, workloads):
    """Passes with a set-up sample before each and a reference burst around each."""
    setup, refs = [], []

    def before(n):
        if n == 1:
            refs.append(reference_s())
        setup.append(setup_probe(args))

    work = workloads.build(args.workload, args.seed, args.quick)
    passes = run_passes(work, args.seconds, before, lambda n: refs.append(reference_s()))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    # each pass is timed against the mean of the bursts just before and after it
    units = [w / ((refs[k] + refs[k + 1]) / 2) for k, (w, _) in enumerate(passes)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_ref": {"value": statistics.median(units), "unit": "ref"},
        "ops_per_ref": {"value": statistics.median(
            p.attempted / u for u, (_, p) in zip(units, passes)), "unit": "1/ref"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    raw = {"wall_s": statistics.median(w for w, _ in passes),
           "ops_per_s": statistics.median(p.attempted / w for w, p in passes),
           "reference_s": statistics.median(refs)}
    record = {"setup_samples_s": setup, "reference_bursts_s": refs, "raw": raw}
    return passes, metrics, record


def traced_run(args, workloads, tracing):
    """Untraced passes, then traced ones; returns (passes, metrics, record, checks)."""
    tracer = tracing.Tracer()
    with tracer.installed():
        work = workloads.build(args.workload, args.seed, args.quick)  # pass 0
    untraced = run_passes(work, args.seconds / 2)

    def start_pass(n):
        tracer.pass_no = n

    with tracer.installed():
        traced = run_passes(work, args.seconds / 2, before=start_pass)
    numbers = list(range(1, len(traced) + 1))
    summary = tracer.summary([0] + numbers)
    per_pass, durations = summary["per_pass"], summary["durations"]

    calls = [dict(per_pass[n]["calls"]) for n in numbers]
    counted = [tracer.pass_counts(n) for n in numbers]
    repeat = all(c == calls[0] for c in calls) and all(c == counted[0] for c in counted)
    layer_id = {name: i for i, name in enumerate(tracing.LAYERS)}

    def seconds(kind, layer):
        return statistics.median(per_pass[n][kind][layer_id[layer]] for n in numbers)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in CALLS_AND_SELF:
        put(f"{layer}.calls", calls[0].get(layer_id[layer], 0), "count")
        put(f"{layer}.self_s", seconds("self_s", layer), "s")
    for layer in SELF_ONLY:
        put(f"{layer}.self_s", seconds("self_s", layer), "s")
    for layer in INCLUSIVE:
        put(f"{layer}.s", seconds("s", layer), "s")
    for layer in ("rscode.decode", "protocol.user_decode"):
        for pct in (50, 99):
            put(f"{layer}.p{pct}_us",
                tracing.percentile_us(durations[layer_id[layer]], pct), "us")
    for name in COUNTED:
        put(name, counted[0].get(name, 0), "count")
    put("rscode.decode.per_op",
        calls[0].get(layer_id["rscode.decode"], 0) / traced[0][1].attempted, "calls/op")
    put("pda.build.self_s", per_pass[0]["self_s"][layer_id["pda.build"]], "s")
    overhead = (statistics.median(w for w, _ in traced)
                - statistics.median(w for w, _ in untraced))
    put("trace.overhead_s", overhead, "s")

    self_sums = [sum(per_pass[n]["self_s"].values()) for n in numbers]
    spans_path = RESULTS / f"{args.workload}{'-quick' if args.quick else ''}.spans.json.gz"
    tracer.write(spans_path)
    record = {"untraced_wall_s": [w for w, _ in untraced],
              "traced_wall_s": [w for w, _ in traced],
              "traced_self_sum_s": self_sums,
              "counts_repeat_across_passes": repeat,
              "spans": str(spans_path.relative_to(ROOT)),
              "span_count": len(tracer.start)}
    checks = [] if repeat else ["traced counts differ between passes"]
    return untraced + traced, metrics, record, checks


def record_path(args, workload: str) -> Path:
    return RESULTS / (f"{workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-quick' if args.quick else ''}.json")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    checks = []
    if args.trace:
        passes, metrics, record, checks = traced_run(args, workloads, tracing)
    else:
        passes, metrics, record = untraced_run(args, workloads)
    attempted = sum(p.attempted for _, p in passes)
    failed = sum(p.failed for _, p in passes) + len(checks)
    checks += [c for _, p in passes for c in p.failed_checks]
    correct = failed == 0
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "definition": workloads.definition(args.workload, args.quick),
        "environment": environment(),
        "passes": [{"wall_s": w, "attempted": p.attempted, "failed": p.failed}
                   for w, p in passes],
        "failed_checks": checks[:20],
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": metrics})
    path = record_path(args, args.workload)
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:g}")
    for check in checks[:5]:
        print(f"  FAILED CHECK: {check}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in record.get("raw", {}).items():
        print(f"  {key} = {value:.6g} (not gated)")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another, then a table."""
    records = {}
    for name in ALL:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if not done.stdout.rstrip().endswith("}"):
            raise RuntimeError(f"{name} printed no result (exit {done.returncode})")
        records[name] = json.loads(record_path(args, name).read_text())
    rows = {key: [r["metrics"][key]["value"] for r in records.values()]
            for key in records[ALL[0]]["metrics"]}
    for key in records[ALL[0]].get("raw", {}):
        rows[key] = [r["raw"][key] for r in records.values()]
    rows["failed_frac"] = [r["failed_frac"] for r in records.values()]
    print(f"{'metric':34}" + "".join(f"{n:>14}" for n in ALL))
    for key, values in rows.items():
        print(f"{key:34}" + "".join(f"{v:14.6g}" for v in values))
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{n}.{k}": m for n, r in records.items()
                    for k, m in r["metrics"].items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rsplfr" / "__init__.py").is_file():
        print(f"bench: no rsplfr sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
