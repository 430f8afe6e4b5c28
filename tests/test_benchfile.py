"""tools/benchfile.py on small synthetic perfbench record sets."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchfile", ROOT / "tools" / "benchfile.py")
benchfile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchfile)


def record(workload, seed, digest, build_ms, rate, fingerprint, trace=0, scale=1.0):
    """A run record with the fields perfbench/run.py writes that the writer reads."""
    def figures(factor):
        return {"build_ms_p50": {"value": build_ms * factor, "unit": "ms"},
                "build_inst_per_s": {"value": rate / factor, "unit": "1/s"},
                "success_rate": {"value": 1.0, "unit": "ratio"}}
    out = {"workload": workload, "seed": seed, "trace": trace,
           "environment": {"python": "3.11.7", "git_revision": "unknown",
                           "source_sha256": digest},
           "fingerprint": fingerprint, "metrics": figures(scale), "raw_metrics": figures(1.0),
           "host_scale": scale, "workload_names": {"build_ms_p50": "gen_ms_p50"}}
    if trace:
        out["per_layer"] = {"worldsim.generate_world.calls": {"value": 10, "unit": "count"}}
    return out


def write(directory: Path, records):
    directory.mkdir()
    for r in records:
        name = f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        (directory / name).write_text(json.dumps(r))
    return directory


@pytest.fixture
def sides(tmp_path):
    # Parent build times 10..14 ms; the change is faster on seeds 0-3 and
    # slower on seed 4, with one fingerprint that differs (seed 2).
    parent = write(tmp_path / "parent", [
        *(record("datagen", s, "aaa", 10.0 + s, 100.0 - s, f"fp{s}", scale=1.1) for s in range(5)),
        record("datagen", 0, "aaa", 10.0, 100.0, "fp0", trace=1)])
    change_ms = [8.0, 8.5, 9.0, 9.5, 20.0]
    change = write(tmp_path / "change", [
        record("datagen", s, "bbb", ms, 120.0, "other" if s == 2 else f"fp{s}")
        for s, ms in enumerate(change_ms)])
    return parent, change


def test_schema_medians_and_wins(sides):
    bench = benchfile.build(*sides, "synthetic", ["a note"])
    assert bench["schema"] == benchfile.SCHEMA and bench["label"] == "synthetic"
    assert bench["notes"] == ["a note"]
    assert bench["parent"]["source_sha256"] == "aaa" and bench["change"]["source_sha256"] == "bbb"
    assert bench["parent"]["records"] == 6
    block = bench["workloads"]["datagen"]
    assert block["seeds"] == {"parent": [0, 1, 2, 3, 4], "change": [0, 1, 2, 3, 4]}
    assert block["fingerprints_equal"] == {"0": True, "1": True, "2": False, "3": True, "4": True}
    assert block["host_scale"] == {"parent": 1.1, "change": 1.0}
    build = block["metrics"]["build_ms_p50"]
    assert build["unit"] == "ms" and build["better"] == "lower" and build["alias"] == "gen_ms_p50"
    raw = build["raw"]
    assert raw["parent"]["median"] == 12.0 and raw["change"]["median"] == 9.0
    assert raw["parent"]["q1"] == 11.0 and raw["parent"]["q3"] == 13.0
    assert raw["parent"]["iqr"] == 2.0 and raw["change"]["n"] == 5
    assert raw["parent"]["by_seed"]["4"] == 14.0
    assert raw["pairs"] == 5 and raw["wins"] == 4
    assert raw["ratio"] == pytest.approx(0.75)
    assert raw["gain_shown"] is False  # 4 of 5 pairs is under nine tenths
    corrected = build["corrected"]
    assert corrected["parent"]["median"] == pytest.approx(12.0 * 1.1)
    # Higher is better for a rate: the change's 120/s beats 96-100/s everywhere.
    rate = block["metrics"]["build_inst_per_s"]["raw"]
    assert rate["wins"] == 5 and rate["gain_shown"] is True
    # Equal figures count for neither side.
    assert block["metrics"]["success_rate"]["raw"]["wins"] == 0
    assert block["per_layer"]["parent"]["seed"] == 0
    assert block["per_layer"]["parent"]["worldsim.generate_world.calls"]["value"] == 10
    assert block["per_layer"]["change"] is None


def test_previous_file_gives_the_earlier_medians(sides):
    earlier = benchfile.build(*sides, "earlier", [])
    bench = benchfile.build(*sides, "later", [], previous=earlier)
    assert bench["previous_label"] == "earlier"
    entry = bench["workloads"]["datagen"]["metrics"]["build_ms_p50"]
    assert entry["previous"] == {"corrected": 9.0, "raw": 9.0}


def test_mixed_source_digests_are_refused(sides, tmp_path, capsys):
    parent, change = sides
    (change / "datagen-seed9-trace0.json").write_text(
        json.dumps(record("datagen", 9, "ccc", 9.0, 120.0, "fp9")))
    with pytest.raises(benchfile.RecordError, match="2 different sources"):
        benchfile.build(parent, change, "mixed", [])
    out = tmp_path / "BENCH_mixed.json"
    assert benchfile.main(["--parent", str(parent), "--change", str(change),
                           "--label", "mixed", "--out", str(out)]) == 2
    assert "different sources" in capsys.readouterr().err
    assert not out.exists()


def test_main_writes_the_file(sides, tmp_path):
    out = tmp_path / "BENCH_x.json"
    assert benchfile.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                           "--label", "x", "--note", "n1", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["label"] == "x" and bench["notes"] == ["n1"]
    assert set(bench["workloads"]) == {"datagen"}
