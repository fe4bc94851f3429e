"""attokit benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload small-fresh --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's ``src`` directory.  The process pins BLAS to one
thread, sets the workload up from the seed, then sends requests for
``--seconds`` seconds, and on until the workload's counted prefix of
requests is complete, and checks every result against ground truth.  Set-up
is repeated on fresh inputs at even intervals through the loop, outside the
request timing, and its median is reported.

Standard output ends with two JSON lines: a report with every metric by name
and unit, the run environment and the failures by type, and then the result
line ``{"correct", "attempted", "failed", "metrics"}``, whose counts cover
the counted prefix, so that one seed always gives the same counts.  With
``--trace 0`` the result metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a run that alternates untraced and traced
cycles of requests, and the spans go to ``.bench_trace/`` in the checkout.
The exit code is 0 when the correctness gate holds, 1 when it does not and 2
when the checkout holds no attokit sources.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
TRACE_DIR = ".bench_trace"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("failure_ratio", "ratio", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("decision_margin_digits", "digits", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)
# The end-to-end metrics of the result line, each with a regression bound in
# BENCHMARK.json.  failure_ratio is 0 on some runs of small-fresh and swings
# with which spaces a seed draws; decision_margin_digits is a minimum that
# tends to 0 as verdicts accumulate.  Neither can hold a relative bound, so
# both are printed in the report line only (failures of the counted prefix
# also reach the result line as "failed").
BOUNDED = ("setup_s", "requests_per_s", "latency_p50_ms", "latency_tail_ms",
           "accuracy_digits", "peak_rss_mib")
# Metrics made of CPU times.  They are reported in nominal seconds of the
# speed reference (bench/reference.py); the report line also gives them in
# CPU seconds of the run.
SCALED = ("setup_s", "requests_per_s", "latency_p50_ms", "latency_tail_ms")

# Per traced request: calls and busy seconds of each operation the
# workloads time, and the calls, busy and self seconds of each layer.
TIMED_OPS = (
    "blaschke.clark_points", "modelspace.build_basis",
    "operators.atto_matrix.quadrature", "operators.atto_matrix.closed",
)
BUSY_OPS = TIMED_OPS + (
    "modelspace.kernel", "modelspace.conj_kernel", "modelspace.conjugation",
    "modelspace.change_of_basis", "operators.compressed_shift",
    "operators.clark_unitary", "operators.in_bases", "membership.clark_pairing",
    "membership.clark_recurrence", "membership.rank_two_residual",
    "membership.conjugate_residual", "membership.shift_invariance",
    "membership.recover_witness", "rankone.decompose", "rankone.classify_vector",
    "serialize.roundtrip", "cli.selftest",
)
LAYERS = ("blaschke", "modelspace", "operators", "membership", "rankone",
          "instances", "serialize", "cli")
# Operations and layers that every workload calls in its timed requests.  The
# result line carries their times; a time that is 0 on every run of a
# workload that never calls the operation would read as a measurement.
SHARED_OPS = ("modelspace.build_basis", "operators.atto_matrix.quadrature",
              "membership.rank_two_residual", "membership.conjugate_residual",
              "membership.shift_invariance")
SHARED_LAYERS = ("modelspace", "operators", "membership", "instances")
GAUGES = (
    ("blaschke.boundary_residual_max", "abs", "lower"),
    ("blaschke.clark_separation_min", "abs", "higher"),
    ("modelspace.conjugation.involution_defect_max", "rel", "lower"),
    ("modelspace.reproducing_defect_max", "rel", "lower"),
    ("modelspace.basis_cond_max", "cond", "lower"),
    ("operators.closed_vs_quadrature_max", "rel", "lower"),
    ("operators.clark_unitary.unitarity_defect_max", "abs", "lower"),
    ("membership.member_residual_max", "rel", "lower"),
    ("membership.nonmember_residual_min", "rel", "higher"),
    ("rankone.w_error_max", "abs", "lower"),
    ("serialize.roundtrip.bytes", "bytes", "lower"),
    ("cli.selftest.exit_nonzero", "count", "lower"),
)
COUNTS = (
    ("membership.verdicts", "count", "higher"),
    ("membership.indeterminate", "count", "lower"),
    ("membership.wrong_verdicts", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_metrics(shared_only: bool = True):
    """Per-layer metrics with unit and direction.  The result line of a
    traced run carries the shared ones; its report line carries them all,
    0 where a workload does not call the operation or layer."""
    def units(name):             # the cli layer runs once per run, after the loop
        return ("count", "s") if name.startswith("cli.") else ("1/req", "s/req")

    out = [(f"{op}.calls", units(op)[0], "lower") for op in TIMED_OPS]
    out += [(f"{op}.busy_s", units(op)[1], "lower") for op in BUSY_OPS
            if not shared_only or op in SHARED_OPS]
    for layer in LAYERS:
        calls, secs = units(layer)
        out.append((f"{layer}.calls", calls, "lower"))
        if not shared_only or layer in SHARED_LAYERS:
            out += [(f"{layer}.busy_s", secs, "lower"), (f"{layer}.self_s", secs, "lower")]
    return out + list(GAUGES) + list(COUNTS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads_requested": BLAS_THREADS,
            "blas_threads": threads,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "seed": seed}


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, lay, seed: int, rep: int):
    """One set-up repetition on fresh inputs: (state, CPU seconds, failed
    warm-up requests)."""
    from harness import clock
    start = clock()
    state = wl.setup(lay, seed, rep)
    failed = wl.warm(lay, state, rep)
    return state, clock() - start, failed


def run_requests(wl, lay_for, state, tally, seconds, interlude, reference,
                 recorder=None):
    """Closed loop for ``seconds``, and on past them until the workload's
    counted prefix of requests is complete.  ``lay_for(index)`` picks the
    Layers object of a request.  ``interlude(k)`` runs between requests once
    the run is k / SETUP_REPS through, for k = 1 .. SETUP_REPS - 1, and after
    the loop for any k not reached.  The speed reference is sampled between
    requests.  Returns per-request (index, latency, ok) and, as they stood at
    the end of the counted prefix, a copy of the tally and the peak RSS."""
    from harness import TYPED_ERRORS, clock

    records = []
    begin = time.perf_counter()
    deadline = begin + seconds
    counted = wl.counted(seconds)
    index = 0
    k = 1
    while time.perf_counter() < deadline or index < counted:
        if k < SETUP_REPS and time.perf_counter() - begin >= seconds * k / SETUP_REPS:
            interlude(k)
            k += 1
        lay = lay_for(index)
        if recorder is not None:
            recorder.request = index
        out = {}
        start = clock()
        try:
            wl.request(lay, state, index, out)
        except Exception as exc:  # every failure is counted by type, typed or not
            latency, ok = clock() - start, False
            tally.failure(exc, typed=type(exc).__name__ in TYPED_ERRORS,
                          where=f"request {index}")
            wl.check_verdicts(tally, out)
        else:
            latency = clock() - start
            try:
                ok = wl.check(tally, out)
            except Exception as exc:  # a check that cannot run fails its request
                ok = False
                tally.failure(exc, typed=False, where=f"check of request {index}")
        records.append((index, latency, ok))
        reference.after(latency)
        index += 1
        if index == counted:
            prefix = (copy.deepcopy(tally), peak_rss_mib())
    for rest in range(k, SETUP_REPS):
        interlude(rest)
    return records, prefix


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attokit" / "__init__.py").is_file():
        print(f"error: no attokit sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)          # before numpy loads
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import harness
    from reference import NOMINAL_S, SpeedReference
    from workloads import TOL, WORKLOADS, Layers
    import_s = time.process_time()        # CPU time since the process started

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    plain = Layers()
    reference = SpeedReference()
    reference.work()                      # warm-up, not a sample

    # Set-up repetition 0 makes the inputs of the loop; the others run spread
    # over the loop, so that their median samples the machine over the
    # whole run rather than over its first seconds.
    state, spent, warm_failures = timed_setup(wl, plain, args.seed, 0)
    setup_times = [spent]

    def interlude(rep):
        nonlocal warm_failures
        _, spent, failed = timed_setup(wl, plain, args.seed, rep)
        setup_times.append(spent)
        warm_failures += failed

    tally = harness.Tally(TOL.decision, TOL.reject_band)
    wl.check_setup(tally, state)
    if args.trace:
        recorder = harness.Recorder()
        traced = Layers(recorder)
        records, (prefix, prefix_rss) = run_requests(
            wl, lambda i: traced if (i // wl.cycle) % 2 else plain,
            state, tally, args.seconds, interlude, reference, recorder)
        recorder.request = -1
        wl.finish(traced, tally, state)
    else:
        records, (prefix, prefix_rss) = run_requests(
            wl, lambda i: plain, state, tally, args.seconds, interlude, reference)
        wl.finish(plain, tally, state)

    # The result line counts the prefix every run completes; the report line
    # counts every request of the run.
    prefix_records = records[:wl.counted(args.seconds)]
    attempted = len(prefix_records)
    failed = sum(not ok for _, _, ok in prefix_records)
    report = {"workload": wl.name, "trace": args.trace,
              "environment": environment(args.seed),
              "attempted": attempted, "failed": failed,
              "failed_requests": [i for i, _, ok in prefix_records if not ok],
              "requests": len(records),
              "requests_failed": sum(not ok for _, _, ok in records),
              "failures_by_type": dict(tally.failures),
              "accuracy_digits_by_check": {kind: harness.digits(v)
                                           for kind, v in sorted(prefix.defects.items())},
              "unexpected_errors": tally.unexpected[:10],
              "gate_errors": tally.gate_errors[:10],
              "setup_reps_s": setup_times, "import_s": import_s,
              "peak_rss_mib_whole_run": peak_rss_mib(),
              "warm_failures": warm_failures}
    correct = not tally.gate_errors
    if not reference.samples:
        reference.sample()
    scale = reference.scale()
    report["speed_reference"] = {"samples": len(reference.samples),
                                 "median_s": harness.median(reference.samples),
                                 "nominal_s": NOMINAL_S, "scale": scale}
    if args.trace:
        metrics = layer_metrics(wl, records, recorder, tally, scale)
        write_spans(recorder.spans, wl.name, args.seed)
        report["per_layer_all"] = {name: {"value": metrics[name], "unit": unit}
                                   for name, unit, _ in per_layer_metrics(shared_only=False)}
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics, tail = end_to_end_metrics(records, prefix, attempted, prefix_rss,
                                           import_s, setup_times, scale)
        report["latency_tail"] = {"percentile": tail[0], "samples": tail[2]}
        report["end_to_end"] = {name: {"value": metrics[name], "unit": unit}
                                for name, unit, _ in END_TO_END}
        cpu, _ = end_to_end_metrics(records, prefix, attempted, prefix_rss,
                                    import_s, setup_times, 1.0)
        report["end_to_end_cpu"] = {name: cpu[name] for name in SCALED}
        units = {name: unit for name, unit, _ in END_TO_END if name in BOUNDED}
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


def end_to_end_metrics(records, prefix, counted, prefix_rss, import_s, setup_times,
                       scale):
    """The end-to-end metrics.  Times cover every request, multiplied by
    ``scale``.  Outcomes and memory cover set-up and the first ``counted``
    requests, whose tally is ``prefix`` and peak RSS ``prefix_rss``: over
    every request, a run on a faster machine would make more requests, fail
    more of them, meet a worse identity defect and fill the library's
    caches further."""
    import harness
    latencies = [scale * lat for _, lat, _ in records]
    failed = sum(not ok for _, _, ok in records[:counted])
    # The percentile follows from the counted prefix, which every run
    # completes, so it is the same on every run whatever the machine's speed.
    tail = (harness.tail_percentile(latencies, within=counted)
            or (100, max(latencies), len(latencies)))
    metrics = {
        "setup_s": scale * (import_s + harness.median(setup_times)),
        "requests_per_s": len(records) / sum(latencies),
        "latency_p50_ms": 1e3 * harness.median(latencies),
        "latency_tail_ms": 1e3 * tail[1],
        "failure_ratio": failed / counted,
        "accuracy_digits": prefix.accuracy_digits(),
        "decision_margin_digits": prefix.margin_digits(),
        "peak_rss_mib": prefix_rss,
    }
    return metrics, tail


def layer_metrics(wl, records, recorder, tally, scale):
    """Per-layer figures of the traced cycles, per traced request, times
    multiplied by ``scale``; the cli layer runs once after the loop and is
    reported per run."""
    import harness
    traced_ids = {i for i, _, _ in records if (i // wl.cycle) % 2}
    per_request = harness.summarize_spans(
        [s for s in recorder.spans if s[4] in traced_ids or s[4] < 0])
    metrics = {}
    for name, _, _ in per_layer_metrics(shared_only=False):
        value = per_request.get(name, 0.0)
        if not name.startswith("cli."):
            value /= max(1, len(traced_ids))
        if name.endswith(("busy_s", "self_s")):
            value *= scale
        metrics[name] = value
    for name, _, _ in GAUGES:
        metrics[name] = tally.gauge_max.get(name, tally.gauge_min.get(name, 0.0))
    metrics["membership.verdicts"] = tally.verdicts
    metrics["membership.indeterminate"] = tally.indeterminate
    metrics["membership.wrong_verdicts"] = tally.wrong
    metrics["trace.overhead_pct"] = tracing_overhead_pct(wl, records)
    return metrics


def tracing_overhead_pct(wl, records) -> float:
    """Mean time of a traced cycle over that of an untraced one, complete
    cycles only, as a percentage above 100."""
    cycles: dict[int, list] = {}
    for index, latency, _ in records:
        cycles.setdefault(index // wl.cycle, []).append(latency)
    sums = {0: [], 1: []}
    for cyc, lats in cycles.items():
        if len(lats) == wl.cycle:
            sums[cyc % 2].append(sum(lats))
    if not sums[0] or not sums[1]:
        return 0.0
    plain = sum(sums[0]) / len(sums[0])
    traced = sum(sums[1]) / len(sums[1])
    return 100.0 * (traced / plain - 1.0)


def write_spans(spans, workload: str, seed: int) -> None:
    out_dir = ROOT / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    rows = [{"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "request": request}
            for name, start, end, parent, request in spans]
    with open(out_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


if __name__ == "__main__":
    sys.exit(main())
