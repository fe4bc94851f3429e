"""Measurement machinery of the benchmark: span recording around calls into
attokit's layers, self time from nested spans, tail percentiles and the
tally of identity checks, verdicts and failures.

Nothing here imports attokit, so the statistics can be tested on their own.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

# Requests, set-up and spans are timed in CPU time of the process: on an idle
# machine it equals wall time for this single-threaded work, and on a shared
# one it leaves out the time the process waits for a processor.
clock = time.process_time

# Known typed refusals of the library: a request raising one of these is
# counted as failed and the run goes on.
TYPED_ERRORS = ("IndeterminateError", "ToleranceBreakdown", "QuadratureError",
                "RootCollisionError", "MethodDisagreement", "RuntimeError")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Recorder:
    """In-memory span log: one (name, start, end, parent, request) tuple per
    wrapped call, where ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.request)
        return traced


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval covered by its
    direct children (overlapping children are merged, so nothing is counted
    twice and nothing outside the parent is subtracted)."""
    children = defaultdict(list)
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize_spans(spans) -> dict:
    """Per span name: calls and busy seconds.  Per layer: calls, busy seconds
    of its outermost spans (a layer span nested in a span of the same layer
    is not counted twice) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of(name)
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += end - start
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += selfs[idx]
        anc = parent
        while anc >= 0 and layer_of(spans[anc][0]) != layer:
            anc = spans[anc][3]
        if anc < 0:
            out[f"{layer}.busy_s"] += end - start
    return dict(out)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail_percentile(values, beyond: int = 10, within: int | None = None):
    """The highest whole percentile q that leaves at least ``beyond`` samples
    strictly above the reported value's rank in ``within`` samples (default:
    all of them), with its value over all the samples.

    The value is the order statistic of rank ceil(q/100 * n); q is the largest
    whole number with m - ceil(q/100 * m) >= beyond, m = min(within, n).
    Fixing m fixes q, so a run that makes more requests reports the same
    percentile, more precisely.  Returns (q, value, n), or None when fewer
    than beyond + 1 samples exist.
    """
    vals = sorted(values)
    n = len(vals)
    m = n if within is None else min(within, n)
    if m < beyond + 1:
        return None
    for q in range(99, 0, -1):
        if m - max(1, math.ceil(q * m / 100)) >= beyond:
            return q, vals[max(1, math.ceil(q * n / 100)) - 1], n
    return None


def digits(defect: float) -> float:
    """-log10 of a relative defect; an exact zero counts as 17 digits."""
    return 17.0 if defect <= 1e-17 else -math.log10(defect)


# ---------------------------------------------------------------------------
# checks, verdicts and failures
# ---------------------------------------------------------------------------

class Tally:
    """Accumulates the outcome of every request: identity-check defects by
    kind, verdicts against ground truth, failures by type and gauges."""

    def __init__(self, decision: float, reject_band: float):
        self.decision = decision            # the library's accept and reject
        self.reject_band = reject_band      # thresholds, for decision margins
        self.defects: dict[str, float] = {}
        self.gauge_max: dict[str, float] = {}
        self.gauge_min: dict[str, float] = {}
        self.failures = Counter()
        self.margins: list[float] = []
        self.verdicts = 0
        self.indeterminate = 0
        self.wrong = 0
        self.gate_errors: list[str] = []
        self.unexpected: list[str] = []

    def defect(self, kind: str, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.defects[kind] = max(self.defects.get(kind, 0.0), value)

    def high(self, name: str, value: float) -> None:
        self.gauge_max[name] = max(self.gauge_max.get(name, -math.inf), float(value))

    def low(self, name: str, value: float) -> None:
        self.gauge_min[name] = min(self.gauge_min.get(name, math.inf), float(value))

    def verdict(self, is_member: bool, residual: float, expect_member: bool) -> bool:
        """Record one verdict; returns False when it contradicts ground truth."""
        self.verdicts += 1
        residual = max(float(residual), 1e-300)
        if is_member != expect_member:
            self.wrong += 1
            self.gate_errors.append(
                f"wrong verdict: member={is_member} expected={expect_member} "
                f"residual={residual:.3e}")
            return False
        if is_member:
            self.margins.append(math.log10(self.decision / residual))
            self.high("membership.member_residual_max", residual)
        else:
            self.margins.append(math.log10(residual / self.reject_band))
            self.low("membership.nonmember_residual_min", residual)
        return True

    def failure(self, exc: BaseException, typed: bool, where: str) -> None:
        name = type(exc).__name__
        self.failures[name] += 1
        if name == "IndeterminateError":
            self.indeterminate += 1
        if not typed:
            self.unexpected.append(f"{where}: {name}: {exc}")

    def gate(self, ok: bool, message: str) -> bool:
        if not ok:
            self.gate_errors.append(message)
        return ok

    def accuracy_digits(self) -> float:
        """Digits of the worst identity check; 0 when nothing was checked."""
        return min((digits(v) for v in self.defects.values()), default=0.0)

    def margin_digits(self) -> float:
        """Distance in decades of the closest verdict to its threshold; 0
        when no verdict was reached."""
        return min(self.margins, default=0.0)
