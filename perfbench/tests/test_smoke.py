import json
import math

import pytest

import run as bench
import workloads as W


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(name, trace):
    result = bench.run(name, seed=7, seconds=0.0, trace=trace,
                       spec=W.tiny(W.WORKLOADS[name]))
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    end_to_end, per_layer = bench.declared_metrics()
    assert set(result["metrics"]) == set(per_layer if trace else end_to_end)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace and W.WORKLOADS[name].trains:
        for key, metric in result["metrics"].items():
            if key.startswith(("model.", "losses.")) and key.endswith("fwd_ms"):
                assert metric["value"] > 0.0, key
        assert result["metrics"]["tensor.tape_nodes"]["value"] > 0
    if not trace:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_declared_workloads_exist():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(declared) == sorted(W.WORKLOADS)


def test_ref_scaled_divides_by_the_mean_reference_time():
    # a host running the reference task at half speed halves the scale
    ref = W.REF_S[1]
    assert W.ref_scaled(1.0, ref, ref) == 1.0
    assert W.ref_scaled(1.0, 2 * ref, 2 * ref) == 0.5
    assert W.ref_scaled(3.0, ref, 2 * ref) == 2.0
    assert W.ref_scaled(1.0, W.REF_S[2], W.REF_S[2], threads=2) == 1.0


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_clock_keeps_the_reference_out_of_its_samples(threads):
    clock = W.SampleClock(threads)
    for _ in range(3):
        clock.lap()
    assert len(clock.seconds) == len(clock.scaled) == 3
    # each lap runs the reference task, which takes longer than an
    # empty sample; none of it may land in the next sample
    assert max(clock.seconds) < min(W.REF_TIMES[threads][-4:])
    assert all(t > 0.0 for t in clock.scaled)
