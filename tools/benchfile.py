"""Write a BENCH_<label>.json file from the run records of perfbench.

    python3 tools/benchfile.py --parent DIR --change DIR --label LABEL \
        [--previous BENCH_old.json] [--note TEXT ...] [--out PATH]

Each directory holds the records that `perfbench/run.py` writes to
`.perfbench/results/` (`<workload>-seed<S>-trace<T>.json`), one directory
per side: the parent commit and the change, each run from its own
checkout. A directory whose records were measured on different sources
(their `source_sha256` differ) is refused, since its figures would not
describe one program.

For every workload and end-to-end metric the file holds, for the host-speed
corrected figures and for the figures as timed, each side's values by seed,
their median and quartiles, and the pairs (runs of the same workload and
seed on both sides) that the change won. A pair whose figures are equal
counts for neither side. It also holds, per seed, whether both sides'
outputs had the same fingerprint, each side's environment, the per-layer
block of a traced run when one was recorded, and with `--previous`, the
change's medians from an earlier BENCH file. The file is written at the
repository root unless `--out` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1


class RecordError(ValueError):
    """A results directory that cannot be summarised."""


def load_records(directory: Path) -> list[dict]:
    """The run records in `directory`, refusing mixed source digests."""
    paths = sorted(directory.glob("*-seed*-trace*.json"))
    if not paths:
        raise RecordError(f"{directory}: no perfbench run records")
    records = [json.loads(path.read_text()) for path in paths]
    digests = {r["environment"]["source_sha256"] for r in records}
    if len(digests) != 1:
        raise RecordError(f"{directory}: records of {len(digests)} different sources "
                          f"(source_sha256 {', '.join(sorted(digests))}); keep one side's "
                          "runs per directory")
    return records


def directions(benchmark: Path) -> dict[str, str]:
    """'lower' or 'higher' per end-to-end metric, as BENCHMARK.json declares."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; equal to the value for one run)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def compare(parent: dict[int, float], change: dict[int, float], better: str | None) -> dict:
    """Both sides' figures by seed and summarised, and the change's pair wins."""
    out = {"parent": {"by_seed": {str(s): v for s, v in sorted(parent.items())},
                      **summary(list(parent.values()))},
           "change": {"by_seed": {str(s): v for s, v in sorted(change.items())},
                      **summary(list(change.values()))}}
    base = out["parent"]["median"]
    out["ratio"] = out["change"]["median"] / base if base else None
    paired = sorted(parent.keys() & change.keys())
    out["pairs"] = len(paired)
    if better is None:
        out["wins"] = None
        out["gain_shown"] = None
        return out
    sign = 1 if better == "higher" else -1
    out["wins"] = sum(sign * (change[s] - parent[s]) > 0 for s in paired)
    # The gain rule: the change wins at least nine tenths of the pairs, and
    # the medians differ by more than the parent's interquartile range.
    gain = sign * (out["change"]["median"] - base)
    out["gain_shown"] = bool(paired) and out["wins"] >= 0.9 * len(paired) \
        and gain > out["parent"]["iqr"]
    return out


def workload_block(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """One workload's figures, fingerprints and per-layer blocks, both sides."""
    plain = {side: {r["seed"]: r for r in records if r["trace"] == 0}
             for side, records in (("parent", parent), ("change", change))}
    block: dict = {"seeds": {side: sorted(runs) for side, runs in plain.items()}}
    paired = sorted(plain["parent"].keys() & plain["change"].keys())
    block["fingerprints_equal"] = {
        str(s): plain["parent"][s]["fingerprint"] == plain["change"][s]["fingerprint"]
        for s in paired}
    block["host_scale"] = {
        side: statistics.median(r["host_scale"] for r in runs.values()) if runs else None
        for side, runs in plain.items()}
    metrics = {}
    if plain["parent"] and plain["change"]:
        first = next(iter(plain["change"].values()))
        for metric, entry in first["metrics"].items():
            metrics[metric] = {"unit": entry["unit"], "better": better.get(metric),
                               "alias": first["workload_names"].get(metric)}
            for kind in ("metrics", "raw_metrics"):
                sides = {side: {s: r[kind][metric]["value"] for s, r in runs.items()}
                         for side, runs in plain.items()}
                metrics[metric]["corrected" if kind == "metrics" else "raw"] = compare(
                    sides["parent"], sides["change"], better.get(metric))
    block["metrics"] = metrics
    traced = {side: next((r for r in records if r["trace"] == 1 and "per_layer" in r), None)
              for side, records in (("parent", parent), ("change", change))}
    block["per_layer"] = {side: None if r is None else {"seed": r["seed"], **r["per_layer"]}
                          for side, r in traced.items()}
    return block


def side_info(records: list[dict]) -> dict:
    env = records[0]["environment"]
    return {"source_sha256": env["source_sha256"], "git_revision": env["git_revision"],
            "records": len(records), "environment": env}


def build(parent_dir: Path, change_dir: Path, label: str, notes: list[str],
          previous: dict | None = None, benchmark: Path = ROOT / "BENCHMARK.json") -> dict:
    parent, change = load_records(parent_dir), load_records(change_dir)
    better = directions(benchmark)
    names = sorted({r["workload"] for r in parent} | {r["workload"] for r in change})
    workloads = {}
    for name in names:
        block = workload_block([r for r in parent if r["workload"] == name],
                               [r for r in change if r["workload"] == name], better)
        if previous is not None:
            before = previous.get("workloads", {}).get(name, {}).get("metrics", {})
            for metric, entry in block["metrics"].items():
                old = before.get(metric, {})
                entry["previous"] = {kind: old[kind]["change"]["median"]
                                     for kind in ("corrected", "raw") if kind in old}
        workloads[name] = block
    return {"schema": SCHEMA, "label": label, "notes": notes,
            "previous_label": None if previous is None else previous.get("label"),
            "parent": side_info(parent), "change": side_info(change),
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--previous", type=Path)
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    previous = json.loads(args.previous.read_text()) if args.previous else None
    try:
        bench = build(args.parent, args.change, args.label, args.note, previous)
    except RecordError as exc:
        print(f"benchfile: {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, block in bench["workloads"].items():
        print(f"{name}: fingerprints equal on {sum(block['fingerprints_equal'].values())}"
              f" of {len(block['fingerprints_equal'])} seeds")
        for metric, entry in block["metrics"].items():
            for kind in ("corrected", "raw"):
                c = entry[kind]
                print(f"  {metric:<18} {kind:<9} parent {c['parent']['median']:12.6g} "
                      f"change {c['change']['median']:12.6g} ratio {c['ratio']} "
                      f"wins {c['wins']}/{c['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
