"""Tests of the benchmark's own statistics and input generation.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json
import math

import numpy as np
import pytest

import harness
import reference
import run
from workloads import WORKLOADS, Layers


class TestTailPercentile:
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))            # 1..100
        q, value, n = harness.tail_percentile(values)
        assert (q, value, n) == (90, 90, 100)
        assert sum(v > value for v in values) == 10

    def test_is_the_highest_such_percentile(self):
        for n in (11, 12, 37, 100, 250, 1000, 4321):
            values = np.random.default_rng(n).random(n)
            q, value, _ = harness.tail_percentile(values)
            assert sum(v > value for v in values) >= 10
            if q < 99:
                rank = math.ceil((q + 1) * n / 100)
                assert n - rank < 10

    def test_caps_at_99(self):
        q, _, _ = harness.tail_percentile(range(100_000))
        assert q == 99

    def test_percentile_fixed_by_within(self):
        q, value, n = harness.tail_percentile(range(1, 1001), within=100)
        assert (q, value, n) == (90, 900, 1000)
        for more in (100, 250, 1000):
            assert harness.tail_percentile(range(more), within=100)[0] == 90
        assert harness.tail_percentile(range(50), within=100)[0] == 80

    def test_too_few_samples(self):
        assert harness.tail_percentile(range(10)) is None
        assert harness.tail_percentile(range(11))[:2] == (9, 0)


def span(name, start, end, parent=-1, request=0):
    return (name, start, end, parent, request)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [span("membership.run_all", 0.0, 10.0),
                 span("operators.in_bases", 1.0, 2.0, parent=0),
                 span("membership.shift_invariance", 3.0, 9.0, parent=0),
                 span("modelspace.build_basis", 4.0, 5.0, parent=2)]
        assert harness.self_times(spans) == pytest.approx([3.0, 1.0, 5.0, 1.0])
        out = harness.summarize_spans(spans)
        assert out["membership.self_s"] == pytest.approx(8.0)
        # the nested membership span is inside the outer one: busy counts it once
        assert out["membership.busy_s"] == pytest.approx(10.0)
        assert out["membership.calls"] == 2
        assert out["membership.shift_invariance.busy_s"] == pytest.approx(6.0)
        assert out["operators.busy_s"] == pytest.approx(1.0)

    def test_overlapping_children_are_merged_and_clipped(self):
        spans = [span("a.x", 0.0, 10.0),
                 span("b.y", 2.0, 6.0, parent=0),
                 span("b.z", 5.0, 12.0, parent=0)]
        assert harness.self_times(spans)[0] == pytest.approx(2.0)

    def test_recorder_nesting(self):
        rec = harness.Recorder()
        inner = rec.wrap("modelspace.kernel", lambda: 1)
        outer = rec.wrap("membership.run_all", lambda: inner() + inner())
        rec.request = 7
        assert outer() == 2
        names = [s[0] for s in rec.spans]
        assert names == ["membership.run_all", "modelspace.kernel", "modelspace.kernel"]
        assert [s[3] for s in rec.spans] == [-1, 0, 0]
        assert {s[4] for s in rec.spans} == {7}
        selfs = harness.self_times(rec.spans)
        assert all(t >= 0 for t in selfs)
        assert sum(selfs) == pytest.approx(rec.spans[0][2] - rec.spans[0][1])


def zeros_of(obj):
    return [tuple(b.zeros) for b in obj]


class TestSeeds:
    def test_pooled_setup_is_reproducible(self):
        lay = Layers()
        wl = WORKLOADS["decide-shared"]
        a = wl.setup(lay, 5, 0)["pool"]
        b = wl.setup(lay, 5, 0)["pool"]
        assert zeros_of(p[0] for p in a) == zeros_of(p[0] for p in b)
        assert zeros_of(p[1] for p in a) == zeros_of(p[1] for p in b)
        for other in (wl.setup(lay, 6, 0)["pool"], wl.setup(lay, 5, 1)["pool"]):
            assert zeros_of(p[0] for p in a) != zeros_of(p[0] for p in other)

    @pytest.mark.parametrize("name,index", [("small-fresh", 0), ("small-fresh", 3),
                                            ("decide-shared", 1), ("high-degree", 2)])
    def test_request_inputs_are_reproducible(self, name, index):
        wl = WORKLOADS[name]
        lay = Layers()
        outs = [{}, {}]
        for out in outs:
            wl.request(lay, wl.setup(lay, 9, 0), index, out)
        assert np.array_equal(outs[0]["member"].entries, outs[1]["member"].entries)
        assert outs[0]["member"].alpha == outs[1]["member"].alpha


    def test_small_fresh_mix_is_the_same_for_every_seed(self):
        wl = WORKLOADS["small-fresh"]
        lay = Layers()
        degrees = []
        for seed in (1, 2):
            outs = [{} for _ in range(8)]
            for index, out in enumerate(outs):
                wl.request(lay, wl.setup(lay, seed, 0), index, out)
            degrees.append([(o["alpha"].degree, o["beta"].degree) for o in outs])
        assert degrees[0] == degrees[1]


class TestCountedPrefix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_whole_cycles_at_least_one(self, name):
        wl = WORKLOADS[name]
        for seconds in (0.1, 1, 7, 35, 60):
            k = wl.counted(seconds)
            assert k >= wl.cycle and k % wl.cycle == 0
        assert wl.counted(60) >= wl.counted(35)


class TestSpeedReference:
    def test_scale_is_nominal_over_median(self):
        ref = reference.SpeedReference()
        ref.samples = [0.04, 0.01, 0.02]
        assert ref.scale() == pytest.approx(reference.NOMINAL_S / 0.02)

    def test_samples_once_per_interval_of_work(self):
        ref = reference.SpeedReference()
        ref.after(0.4 * reference.EVERY_S)
        assert ref.samples == []
        ref.after(0.7 * reference.EVERY_S)
        assert len(ref.samples) == 1 and ref.samples[0] > 0
        ref.after(0.5 * reference.EVERY_S)
        assert len(ref.samples) == 1

    def test_work_is_fixed(self):
        assert reference.SpeedReference().work() == reference.SpeedReference().work()


def test_split_run_all_matches_library():
    """The traced stand-in for run_all gives the library's verdicts."""
    import attokit as ak
    wl = WORKLOADS["small-fresh"]
    lay = Layers()
    out = {}
    wl.request(lay, wl.setup(lay, 3, 0), 0, out)
    split = Layers(harness.Recorder())
    for matrix in (out["member"],):
        ours = split.run_all(matrix, out["pairing"])
        theirs = ak.run_all(matrix, out["pairing"])
        assert list(ours["methods"]) == list(theirs["methods"])
        assert ours["member"] == theirs["member"]
        for key, verdict in theirs["methods"].items():
            assert ours["methods"][key].max_residual == verdict.max_residual


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == {n: (u, b) for n, u, b in run.END_TO_END if n in run.BOUNDED}
    assert layer == {n: (u, b) for n, u, b in run.per_layer_metrics()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
