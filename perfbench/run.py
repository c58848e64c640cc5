"""drivedml benchmark: closed-loop workloads, end-to-end and per-layer metrics.

One run measures one workload in this process, one client, one op at a
time, for --seconds of wall time. Each op gets its own input, generated
before it; only the op is timed.

    python3 perfbench/run.py --workload study_presets --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's public functions in spans (see tracing.py) and reports the
per-layer metrics. The last line of standard output is one JSON object
with the metrics BENCHMARK.json names; the line before it, prefixed
``perfbench-report:``, holds every metric measured plus provenance.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload once untraced and twice traced, each in its own
process, prints every metric with unit and sample count, the tracing
overhead, and checks that the counters repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("study_presets", "plm_fit", "drive_extract")
REPORT_PREFIX = "perfbench-report: "

# op_tail_s is the highest percentile with TAIL_BEYOND ops above it,
# reported only when a run holds at least TAIL_MIN_OPS ops
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# the import is timed here once and in IMPORT_PROBES fresh interpreters;
# setup_s takes the median
IMPORT_PROBES = 2
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t = time.perf_counter(); "
    "import tracing; tracing.import_modules(); print(time.perf_counter() - t)"
)


def import_program() -> float:
    """Import drivedml from this checkout's src; return the median import time."""
    if not (SRC / "drivedml" / "__init__.py").is_file():
        fail(f"no drivedml package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tracing

    tracing.import_modules()
    samples = [time.perf_counter() - t0]
    import drivedml

    if Path(drivedml.__file__).resolve().parent != SRC / "drivedml":
        fail(f"imported drivedml from {drivedml.__file__}, not {SRC}")
    code = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, timeout=120)
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "drivedml").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_revision(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_revision() -> str | None:
    """HEAD's commit from .git in this checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metric(value, unit, n=None, **extra) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    out.update(extra)
    return out


def measure(workload, seed: int, seconds: int, tracer) -> dict:
    """Closed loop: prepare, run and check one op after another.

    New ops start until ``seconds`` of wall time have passed (input
    generation included) and at least ``count_ops`` ops have run.
    """
    from hostref import HostSampler, reference_s
    from workloads import OpResult

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.run(name, fn, *args)

    kernel = reference_s if tracer is None else tracer.span("hostref.sample", reference_s)

    run_dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = []
    timed = 0.0
    start = time.perf_counter()
    try:
        while len(ops) < workload.count_ops or time.perf_counter() - start < seconds:
            i = len(ops)
            op_dir = run_dir / f"op{i}"
            op_dir.mkdir()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            inp = call("setup", workload.prepare, seed, i, op_dir)
            setup_s = time.perf_counter() - t0
            error = None
            with HostSampler(kernel) as host:
                t0 = time.perf_counter()
                try:
                    out = call("op", workload.run, inp)
                except Exception:
                    out = None
                    error = traceback.format_exc()
                op_s = time.perf_counter() - t0
            timed += op_s
            if error is None:
                try:
                    result = workload.check(inp, out)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                result = OpResult(False, [error])
            if tracer is not None and hasattr(workload, "traced_counts"):
                tracer.counts_by_op[i].update(
                    workload.traced_counts(inp, tracer.take_captured())
                )
            if not result.ok:
                print(f"op {i} failed: {'; '.join(result.problems)}", file=sys.stderr)
            ops.append({"op_s": op_s, "ref_s": host.ref_s, "sampler_s": host.overhead_s,
                        "setup_s": setup_s, "ok": result.ok,
                        "digest": result.digest, "facts": result.facts})
            del inp, out
            shutil.rmtree(op_dir, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"ops": ops, "timed_s": timed}


def end_to_end(workload, run: dict, import_s: float) -> dict:
    """Op times are corrected for host speed (hostref.py); *_wall_s and setup_s are not."""
    from hostref import corrected

    ops = run["ops"]
    times = [corrected(o["op_s"], o["sampler_s"], o["ref_s"]) for o in ops]
    correct = sum(o["ok"] for o in ops)
    n = len(ops)
    input_s = statistics.median(o["setup_s"] for o in ops)
    m = {
        "ops_per_s": metric(correct / run["timed_s"], "1/s", n),
        "op_p50_s": metric(statistics.median(times), "s", n),
        "op_p50_wall_s": metric(statistics.median(o["op_s"] for o in ops), "s", n),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": metric(import_s + input_s, "s", n),
        "import_s": metric(import_s, "s", 1 + IMPORT_PROBES),
        "input_s": metric(input_s, "s", n),
        "host_ref_ms": metric(1e3 * statistics.median(o["ref_s"] for o in ops), "ms", n),
        "sampler_share": metric(sum(o["sampler_s"] for o in ops) / run["timed_s"], "ratio", n),
        "fail_frac": metric((n - correct) / n, "ratio", n),
    }
    if n >= TAIL_MIN_OPS:
        ordered = sorted(times)
        m["op_tail_s"] = metric(ordered[n - TAIL_BEYOND - 1], "s", n,
                                percentile=round(100.0 * (n - TAIL_BEYOND) / n, 2))
    errs = [o["facts"]["ate_abs_err"] for o in ops if "ate_abs_err" in o["facts"]]
    if errs:
        m["ate_abs_err"] = metric(statistics.fmean(errs), "effect", len(errs))
    return m


def per_layer(workload, run: dict, tracer, span_names) -> dict:
    """Counts per op over the first count_ops ops; self times per op over all."""
    from hostref import corrected
    from tracing import span_cost

    ops = run["ops"]
    n = len(ops)
    k = workload.count_ops
    counts = sum((tracer.counts_by_op[i] for i in range(k)), Counter())
    all_counts = sum((tracer.counts_by_op[i] for i in range(n)), Counter())
    selfs = tracer.self_times()
    self_total = sum((Counter(selfs[i]) for i in range(n)), Counter())

    m = {}
    for name in span_names:
        m[f"{name}.calls"] = metric(counts.get(f"{name}.calls", 0) / k, "count", k)
        m[f"{name}.self_s"] = metric(self_total.get(name, 0.0) / n, "s", n)
    for name in ("boosting.tree_nodes", "boosting.row_feature_visits",
                 "dml.models_retained", "dml.trees_retained", "dml.estimates",
                 "cate_tree.nodes", "study_data.rows_loaded", "study_data.rows_dropped",
                 "report.bytes_written", "io.bytes_read", "signals.samples_in",
                 "signals.nonfinite_features", "signals.r_peaks_true"):
        m[name] = metric(counts.get(name, 0) / k, "count", k)
    matched = counts.get("signals.r_peaks_matched", 0)
    true = counts.get("signals.r_peaks_true", 0)
    m["signals.r_peaks_matched_frac"] = metric(matched / true if true else 0.0, "ratio", k,
                                               base=true)
    visits = all_counts.get("boosting.row_feature_visits", 0)
    fit_tree_s = self_total.get("boosting.fit_tree", 0.0)
    m["boosting.fit_tree.us_per_visit"] = metric(
        1e6 * fit_tree_s / visits if visits else 0.0, "us", n, base=visits)
    # host samples taken inside an op are not the program's time; their
    # number depends on timing, so they stay out of the span count too
    op_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == "op")
    op_total -= sum(end - start for name, start, end, parent, _ in tracer.spans
                    if name == "hostref.sample" and parent >= 0)
    boosting = sum(v for key, v in self_total.items() if key.startswith("boosting."))
    m["op.traced_s"] = metric(
        statistics.median(corrected(o["op_s"], o["sampler_s"], o["ref_s"]) for o in ops), "s", n)
    m["boosting.share"] = metric(boosting / op_total if op_total else 0.0, "ratio", n)
    spans_per_op = sum(1 for s in tracer.spans if s[4] < k and s[0] != "hostref.sample") / k
    m["trace.spans"] = metric(spans_per_op, "count", k)
    m["trace.overhead_est_s"] = metric(spans_per_op * span_cost(), "s", k)
    return m


def dump_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, f)


def declared_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    import_s = import_program()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    span_names = []
    if args.trace:
        tracer = tracing.Tracer()
        span_names = tracing.install(tracer)
    run = measure(workload, args.seed, args.seconds, tracer)
    ops = run["ops"]
    if tracer is None:
        metrics = end_to_end(workload, run, import_s)
    else:
        metrics = per_layer(workload, run, tracer, span_names)
        dump_spans(tracer, WORK / f"spans-{workload.name}-s{args.seed}.json")

    k = workload.count_ops
    digest = hashlib.sha256("".join(o["digest"] for o in ops[:k]).encode()).hexdigest()
    failed = sum(not o["ok"] for o in ops)
    info = provenance(workload.name, args.seed, args.seconds, bool(args.trace))
    info.update({"ops": len(ops), "count_ops": k, "estimates_digest": digest,
                 "op_s": [o["op_s"] for o in ops], "ref_s": [o["ref_s"] for o in ops],
                 "sampler_s": [o["sampler_s"] for o in ops],
                 "input_s": [o["setup_s"] for o in ops],
                 "op_digests": [o["digest"] for o in ops[:k]]})
    if workload.name == "study_presets":
        from workloads import STUDY_TREES

        info["study_trees_per_gbm"] = STUDY_TREES

    declared = declared_metrics(bool(args.trace))
    result = {}
    for d in declared:
        m = metrics.get(d["name"])
        if m is None or m["unit"] != d["unit"]:
            fail(f"metric {d['name']} ({d['unit']}) not measured as declared")
        result[d["name"]] = {"value": m["value"], "unit": m["unit"]}

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {len(ops)}  failed {failed}")
    print_metrics(metrics, keep=set(result))
    print(f"  estimates digest (first {k} ops): {digest}")
    print(REPORT_PREFIX + json.dumps({"metrics": metrics, "provenance": info,
                                      "attempted": len(ops), "failed": failed}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


def print_metrics(metrics: dict, keep=()) -> None:
    """One line per metric; zero-valued ones only when named in ``keep``."""
    for name, m in metrics.items():
        if m["value"] == 0 and name not in keep:
            continue
        extra = "".join(f"  {k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{extra}")


def child_report(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
            report["exit_code"] = proc.returncode
            return report
    fail(f"{workload} trace={trace} printed no report (exit {proc.returncode})")
    return {}


def exact_counts(report: dict) -> dict:
    return {k: v["value"] for k, v in report["metrics"].items()
            if v["unit"] == "count" or k == "signals.r_peaks_matched_frac"}


def run_all(args) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        plain = child_report(name, args.seed, args.seconds, 0)
        traced = [child_report(name, args.seed, args.seconds, 1) for _ in range(2)]
        overhead = (statistics.fmean(r["metrics"]["op.traced_s"]["value"] for r in traced)
                    - plain["metrics"]["op_p50_s"]["value"])
        repeat = exact_counts(traced[0]) == exact_counts(traced[1])
        digests_repeat = len({r["provenance"]["estimates_digest"] for r in [plain, *traced]}) == 1
        checks_pass = all(r["failed"] == 0 and r["exit_code"] == 0 for r in [plain, *traced])
        ok = ok and repeat and digests_repeat and checks_pass
        print(f"\n== {name}  (seed {args.seed}, {args.seconds} s, "
              f"{plain['attempted']} ops untraced, {traced[0]['attempted']} traced)")
        print_metrics(plain["metrics"], keep=set(plain["metrics"]))
        print(f"  {'trace_overhead_s':42s} {overhead:.6g} s  "
              "(mean traced op p50 of two runs - untraced op p50)")
        print_metrics(traced[0]["metrics"])
        print(f"  checks pass: {checks_pass}   counters repeat across two traced runs: {repeat}"
              f"   estimates digest repeats: {digests_repeat}")
        print(f"  estimates digest: {plain['provenance']['estimates_digest']}")
    print(f"\nall checks pass: {ok}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
