"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload runs with no failed check, that a repeat with
the same seed gives the same fingerprint, that a unit whose outputs do
not repeat is counted as failed, that timings take each operation at its
median over the units, that a traced run alternates traced and untraced
units and puts the originals back, that BENCHMARK.json names exactly the
metrics the run prints, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402

TINY = workloads.Sizes(datagen_per_mix=6, datagen_chunks=2, datagen_warmup=2, preq_batches=2,
                       preq_eval_batch=3, preq_warmup=2, train_pool=8,
                       decode_count=2, train_epochs=1, train_warmup=1)


@pytest.fixture
def workdir():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(name, seed, workdir, units=2):
    setup, unit = workloads.WORKLOADS[name]
    state = setup(seed, TINY, workdir)
    m = workloads.Measure()
    for _ in range(units):
        m.units.append(workloads.UnitTimes())
        unit(state, m)
    return m


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_and_repeats(name, workdir):
    first = _run(name, 3, workdir)
    assert first.failed == 0, first.failures
    assert first.attempted > 0 and first.unit.build_s and first.unit.use_s
    assert 0.0 <= first.quality <= 1.0
    again = _run(name, 3, workdir, units=1)
    assert again.fingerprint == first.fingerprint


def test_unit_with_other_outputs_fails():
    m = workloads.Measure()
    for fingerprint in ("a", "a", "b"):
        m.units.append(workloads.UnitTimes())
        m.outputs(fingerprint, 0.5, "fake")
    assert m.failed == 1 and m.fingerprint == "a"


def test_timings_take_each_operation_at_its_median():
    m = workloads.Measure(units=[
        workloads.UnitTimes(build_s=[0.3, 0.1], use_s=[0.2], phase_s={"write": 0.4}, instance_ops=3),
        workloads.UnitTimes(build_s=[0.1, 0.2], use_s=[0.1], phase_s={"write": 0.5}, instance_ops=3),
        workloads.UnitTimes(build_s=[0.2, 0.9], use_s=[0.3], phase_s={"write": 0.6}, instance_ops=3),
    ])
    metrics, _ = run.end_to_end(m, [1.0, 2.0, 3.0])
    assert metrics["build_inst_per_s"][0] == pytest.approx(2 / 0.4)
    assert metrics["inst_per_s"][0] == pytest.approx(3 / 1.1)
    assert metrics["setup_s"][0] == 2.0
    halved, _ = run.end_to_end(m, [1.0, 2.0, 3.0], scale=0.5)
    assert halved["build_ms_p50"][0] == pytest.approx(0.5 * metrics["build_ms_p50"][0])
    assert halved["inst_per_s"][0] == pytest.approx(2 * metrics["inst_per_s"][0])
    m.units.append(workloads.UnitTimes(build_s=[0.1], instance_ops=3))
    run.drop_unequal_units(m)
    assert len(m.units) == 3 and m.failed == 1


def _lookup(owner, attr):
    if owner == "navmodel.NavModel":
        return workloads.navmodel.NavModel.__dict__[attr]
    return getattr(workloads.MODULES[owner], attr)


def test_traced_unit_records_layers_and_restores(workdir):
    originals = {(owner, attr): _lookup(owner, attr)
                 for sites in LAYER_FUNCTIONS.values() for owner, attr in sites}
    setup, unit = workloads.WORKLOADS["prequential"]
    tracer = Tracer()
    setup_s, plain, traced = run.run(setup, unit, 5, TINY, workdir, 0.01, tracer)
    assert len(setup_s) == run.SETUP_REPEATS
    assert len(plain.units) == len(traced.units) == run.MIN_UNITS
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert traced.fingerprint == plain.fingerprint
    for (owner, attr), fn in originals.items():
        assert _lookup(owner, attr) is fn, (owner, attr)
    layers = tracer.layer_metrics(units=len(traced.units))
    for name in ("nnet.lstm_cell", "navmodel.NavModel.train_on", "percept.encode_grid",
                 "worldsim.generate_world", "langgen.generate_dataset.next",
                 "evalbench.learning_efficiency"):
        assert layers[f"{name}.calls"][0] > 0, name
        assert 0 <= layers[f"{name}.self_ms"][0] <= layers[f"{name}.total_ms"][0]
    assert layers["nnet.global_grad_norm.per_step"][0] == 2.0
    assert layers["evalbench.learning_efficiency.calls"][0] == 1


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = workloads.Measure(units=[workloads.UnitTimes(build_s=[0.1], use_s=[0.1])])
    metrics, _ = run.end_to_end(m, [1.0])
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    layer_names = set(Tracer().layer_metrics()) | {"datastore.jsonl_bytes_per_inst"}
    layer_names |= {f"tracing.{name}.delta" for name in run.OVERHEAD_METRICS}
    layer_names |= {"tracing.spans", "tracing.overhead_ms", "tracing.overhead_share"}
    assert {e["name"] for e in spec["per_layer"]} == layer_names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "datagen",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
