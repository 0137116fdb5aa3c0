"""Smoke tests of the benchmark on tiny lattices of every workload shape."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, tmp_path):
    return run.run_workload(workload.tiny(), seed=7, seconds=0, trace=trace,
                            outroot=tmp_path / "out", setup_repeats=1,
                            spans_path=tmp_path / "spans.jsonl")


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def _bindings():
    """Every callable bound in a bandlab module or in a traced class."""
    import bandlab  # noqa: F401

    found = {}
    for mod in tracing.bandlab_modules():
        for attr, val in vars(mod).items():
            if callable(val):
                found[(mod.__name__, attr)] = val
    for layer, classes in tracing.METHODS.items():
        mod = sys.modules[f"bandlab.{layer}"]
        for cls_name, methods in classes.items():
            for meth in methods:
                found[(cls_name, meth)] = vars(getattr(mod, cls_name))[meth]
    return found


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = _run(WORKLOADS[name], False, tmp_path)["result"]
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"]
                              for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_restores(name, tmp_path):
    before = _bindings()
    result = _run(WORKLOADS[name], True, tmp_path)["result"]
    after = _bindings()
    assert tracing.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"]
                              for m in BENCHMARK["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    workload = WORKLOADS[name]
    mc_commands = [c for c in workload.commands if c in run.MC_COMMANDS]
    # tiny Monte Carlo steps draw 3 replicas per command
    assert values["montecarlo.sample_H.calls"] == 3 * len(mc_commands)
    assert (values["montecarlo.rng_draws"] > 0) == bool(mc_commands)
    lu = values["deterministic.theta_entrywise.calls"]
    assert (lu > 0) == ("theta" in workload.commands
                        or "diffusion" in workload.commands)
    assert values["reporting.bytes_written"] > 0

    spans = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == values["trace.spans"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= parent["end"]
    assert {s["name"] for s in spans} >= {f"command.{c}"
                                          for c in workload.commands}


def test_tracer_restores_every_binding_after_install():
    import bandlab.montecarlo as mc

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mc.theta_entrywise is not before[("bandlab.montecarlo",
                                                 "theta_entrywise")]
        assert tracing.leftover_wrappers()
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_the_union_of_child_spans():
    parent = tracing.Span("montecarlo.run_ensemble", None, 1)
    parent.start, parent.end = 0.0, 10.0
    # two replicas on two worker threads overlap in [3, 4]
    a = tracing.Span(tracing.REPLICA, parent, 2)
    a.start, a.end = 1.0, 4.0
    b = tracing.Span(tracing.REPLICA, parent, 3)
    b.start, b.end = 3.0, 6.0
    own = tracing.self_times([parent, a, b])
    assert own[id(parent)] == pytest.approx(5.0)
    assert own[id(a)] == pytest.approx(3.0)


def test_philox_words_counts_64_bit_draws():
    rng = np.random.Generator(np.random.Philox(11))
    start = tracing.philox_words(rng)
    rng.random(7)
    assert tracing.philox_words(rng) - start == 7
    rng.random(6)
    assert tracing.philox_words(rng) - start == 13


@pytest.mark.parametrize("trace", [False, True])
def test_failed_ratio_counts_an_injected_replica_failure(trace, tmp_path,
                                                         monkeypatch):
    import bandlab.montecarlo as mc

    original = mc.locallaw_replica_fn

    @functools.wraps(original)
    def failing_factory(*args, **kwargs):
        fn, reducers = original(*args, **kwargs)

        def replica(index, rng):
            if index == 0:
                raise mc.GreenSolveError("injected failure")
            return fn(index, rng)
        return replica, reducers

    monkeypatch.setattr(mc, "locallaw_replica_fn", failing_factory)
    out = _run(WORKLOADS["d1-resolvent"], trace, tmp_path)
    result = out["result"]
    # every pass (the reference and the timed ones) has one failed locallaw
    # replica among 2 commands and 2 x 3 replicas
    passes = 1 + run.MIN_PASSES
    assert result["correct"]
    assert result["failed"] == passes
    assert result["attempted"] == passes * (2 + 6)
    assert out["summary"]["failed_ratio"][0] == pytest.approx(1 / 8)
    if trace:
        assert result["metrics"]["montecarlo.replica_failures"]["value"] == 1
        assert result["metrics"]["command.failed_ratio"]["value"] \
            == pytest.approx(1 / 8)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "d1-resolvent",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
