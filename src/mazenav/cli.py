"""Command-line entry point: gen / train / eval / bench / hpo / render.

Exit codes: 0 success, 2 usage or file errors, 3 numerical failure.
Every file-producing command writes a replayable run manifest alongside
its primary artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import datastore, evalbench, langgen, navmodel, nnet, percept, render, worldsim
from .langgen import GenerationError, TaskCategory, TemplateError

VARIANT_ALIASES = {"full": "full", "lo": "languageOnly", "bof": "bagOfFeatures",
                   "languageOnly": "languageOnly", "bagOfFeatures": "bagOfFeatures"}

MIX_PRESETS = {
    "sail": langgen.DEFAULT_MIX,
    "uniform": {cat: 1.0 / len(TaskCategory) for cat in TaskCategory},
    "norestriction": None,
}


def default_seed() -> int:
    text = os.environ.get("MAZENAV_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"MAZENAV_SEED must be an integer, got {text!r}") from None


def resolve_mix(spec: str) -> Optional[dict[TaskCategory, float]]:
    """Preset name or a JSON file of {categoryName: weight}."""
    if spec in MIX_PRESETS:
        return MIX_PRESETS[spec]
    if spec == "fixed105k":
        return MIX_PRESETS["sail"]
    if not os.path.exists(spec):
        raise ValueError(f"unknown mix preset and no such file: {spec!r}")
    with open(spec, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not raw:
        raise ValueError(f"mix file {spec!r} must hold a nonempty JSON object")
    mix = {}
    for name, weight in raw.items():
        try:
            cat = TaskCategory(name)
        except ValueError as exc:
            raise ValueError(f"mix file {spec!r}: unknown category {name!r}") from exc
        # json reads NaN and Infinity as floats, true is an int to isinstance,
        # and an int above the float range would overflow float() below
        if type(weight) not in (int, float) or not 0 <= weight <= sys.float_info.max:
            raise ValueError(f"mix file {spec!r}: bad weight for {name!r}: {weight!r} "
                             f"(a weight is a finite number >= 0)")
        mix[cat] = float(weight)
    total = sum(mix.values())
    if not 0 < total < math.inf:  # an overflowed sum would pick only the last category
        raise ValueError(f"mix file {spec!r}: weights sum to {'zero' if total == 0 else total}")
    return mix


# The source checkout this package runs from, when it runs from one.
_CHECKOUT = Path(__file__).resolve().parents[2]


def _git_revision() -> Optional[str]:
    """HEAD of the checkout, read from its .git directory without running
    git; None outside a checkout."""
    git = _CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    """What a run's numbers depend on besides its flags: the code's git
    revision, the Python and numpy versions, the BLAS numpy was built with,
    the usable CPUs, and the process's peak resident memory so far."""
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    try:
        import resource
    except ImportError:  # not a Unix system
        peak_rss_mb = None
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_rss_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes or KiB
    return {"gitRevision": _git_revision(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "usableCpus": nnet._usable_cpus(),
            "peakRssMb": peak_rss_mb}


def write_manifest(artifact: str, command: str, args: argparse.Namespace,
                   started: float, extra_artifacts: Sequence[str] = ()) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "masterSeed": getattr(args, "seed", None),
        "artifacts": [artifact, *extra_artifacts],
        "timestamps": {"start": started, "end": time.time()},
        "environment": _environment(),
    }
    with datastore.atomic_write(artifact + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _world_config(args: argparse.Namespace) -> worldsim.WorldConfig:
    """World flags, rejected up front unless every world fits the percept grid."""
    if args.width < 1 or args.height < 1:
        raise ValueError(f"--width and --height must be >= 1, got {args.width}x{args.height}")
    percept.check_grid_fits(args.width, args.height)
    return worldsim.WorldConfig(width=args.width, height=args.height,
                                p_item=args.p_item, min_dist=args.min_dist)


def _model_config(args: argparse.Namespace, vocab_size: int) -> navmodel.ModelConfig:
    variant = VARIANT_ALIASES.get(args.variant)
    if variant is None:
        raise ValueError(f"unknown variant {args.variant!r}")
    config = navmodel.ModelConfig(variant=variant, vocab_size=vocab_size)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = replace(navmodel.ModelConfig.from_dict(json.load(fh)),
                                 variant=variant, vocab_size=vocab_size)
                config.validate()
            except ValueError as exc:
                raise ValueError(f"--config {args.config}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    started = time.time()
    mix = resolve_mix(args.mix)
    count = args.count
    if count is None:
        count = 105000 if args.mix == "fixed105k" else 1000
    stream = langgen.generate_dataset(mix, count, args.seed,
                                      config=_world_config(args))
    n = datastore.write_instances(stream, args.out)
    write_manifest(args.out, "gen", args, started)
    print(json.dumps({"written": n, "out": args.out}))
    return 0


def _load_instances(path: str, limit: Optional[int] = None) -> list:
    stream = datastore.read_instances(path)
    return list(islice(stream, limit) if limit else stream)


def _check_grids_fit(path: str, instances: Sequence) -> None:
    """Raise ValueError, naming the instance, when a world's lines of sight
    do not fit the percept grid. train and eval check a full model's data
    with it up front; a decode would otherwise fail mid-run, at the first
    pose whose view overflows."""
    for inst in instances:
        try:
            percept.check_grid_fits(inst.world.width, inst.world.height)
        except percept.GridOverflowError as exc:
            raise ValueError(f"{path}: instance {inst.id}: {exc}") from None


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    instances = _load_instances(args.data, args.limit)
    if not instances:
        raise ValueError(f"no instances in {args.data}")
    split = datastore.split_dataset(instances, seed=args.seed)
    if not split.train or not split.dev:
        # early stopping scores dev success, which an empty dev set pins at 0
        raise ValueError(
            f"{args.data}: {len(instances)} instances split into {len(split.train)} train, "
            f"{len(split.dev)} dev and {len(split.test)} test; training needs at "
            f"least one train and one dev instance")
    by_id = {inst.id: inst for inst in instances}
    train_set = [by_id[i] for i in split.train]
    dev_set = [by_id[i] for i in split.dev]
    if args.dev_limit:
        dev_set = dev_set[:args.dev_limit]
    vocab = datastore.build_vocab(train_set)
    config = _model_config(args, len(vocab))
    if config.variant == "full":
        _check_grids_fit(args.data, instances)
    model = navmodel.NavModel(config, vocab, seed=args.seed)
    parent = os.path.dirname(args.out_checkpoint)
    if parent:
        os.makedirs(parent, exist_ok=True)
    history_path = args.out_checkpoint + ".history.csv"
    result = navmodel.train(model, train_set, dev_set, max_epochs=args.max_epochs,
                            lr=args.lr, seed=args.seed, log_path=history_path)
    navmodel.save_checkpoint(model, args.out_checkpoint)
    write_manifest(args.out_checkpoint, "train", args, started,
                   extra_artifacts=[history_path])
    print(json.dumps({
        "epochs": result.epochs_run,
        "bestDevSuccess": result.best_dev_success,
        "checkpoint": args.out_checkpoint,
    }))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    # checkpoints first: a bad one fails before a large data file is parsed
    models = [navmodel.load_checkpoint(p) for p in args.checkpoint]
    instances = _load_instances(args.data, args.limit)
    if not instances:
        raise ValueError(f"no instances in {args.data}")
    if any(m.config.variant == "full" for m in models):
        _check_grids_fit(args.data, instances)
    mode = "singleSentence" if args.mode == "single" else "paragraph"
    rate = evalbench.evaluate_ensemble(models, instances, mode=mode,
                                       beam_width=args.beam)
    summary = {"instances": len(instances), "mode": mode,
               "beam": args.beam, "successRate": rate}
    if args.out:
        with datastore.atomic_write(args.out) as fh:
            json.dump(summary, fh, indent=2)
        write_manifest(args.out, "eval", args, started)
    print(json.dumps(summary))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.time()
    mix = resolve_mix(args.mix)
    bank = langgen.TemplateBank.load_default()
    vocab = datastore.Vocabulary(bank.vocabulary())
    config = _model_config(args, len(vocab))

    def factory() -> evalbench.ModelRunner:
        model = navmodel.NavModel(config, vocab, seed=args.seed)
        return evalbench.ModelRunner(model, beam_width=args.beam)

    def on_batch(consumed: int, acc: float, ma: float) -> None:
        if args.progress and (consumed // args.eval_batch) % 10 == 0:
            print(f"instances={consumed} batchAcc={acc:.3f} ma={ma:.3f}",
                  file=sys.stderr)

    report = evalbench.learning_efficiency(
        factory, mix, threshold=args.threshold, cap=args.cap,
        eval_batch=args.eval_batch, seed=args.seed,
        world_config=_world_config(args), mix_id=args.mix, bank=bank,
        on_batch=on_batch)
    if args.out:
        report.save(args.out)
        write_manifest(args.out, "bench", args, started)
    print(json.dumps({
        "mix": args.mix,
        "instancesToThreshold": report.instances_to_threshold,
        "capExceeded": report.cap_exceeded,
        "finalMa": report.ma_trace[-1] if report.ma_trace else 0.0,
    }))
    return 0


HPO_PARAMS = ("lr", "embed_dim", "encoder_hidden", "attention_hidden",
              "conv_channels")


def cmd_hpo(args: argparse.Namespace) -> int:
    started = time.time()
    if args.param not in HPO_PARAMS:
        raise ValueError(f"--param must be one of {HPO_PARAMS}")
    mix = resolve_mix(args.mix)
    bank = langgen.TemplateBank.load_default()
    vocab = datastore.Vocabulary(bank.vocabulary())
    base = _model_config(args, len(vocab))

    def objective(log_value: float) -> float:
        value = 10.0 ** log_value
        lr = args.lr
        config = base
        if args.param == "lr":
            lr = value
        else:
            config = replace(base, **{args.param: max(2, round(value))})

        def factory() -> evalbench.ModelRunner:
            model = navmodel.NavModel(config, vocab, seed=args.seed)
            runner = evalbench.ModelRunner(model, beam_width=args.beam)
            runner.train_on = lambda inst: model.train_on(inst, lr=lr)[0]
            return runner

        report = evalbench.learning_efficiency(
            factory, mix, threshold=args.threshold, cap=args.budget,
            eval_batch=args.eval_batch, seed=args.seed,
            world_config=_world_config(args), bank=bank)
        final_ma = report.ma_trace[-1] if report.ma_trace else 0.0
        return -final_ma  # minimize the negated score

    result = evalbench.golden_section(objective, math.log10(args.lo),
                                      math.log10(args.hi), tol=args.tol,
                                      max_evals=args.max_evals)
    summary = {"param": args.param, "best": 10.0 ** result.x,
               "score": -result.value, "evals": result.evals,
               "converged": result.converged}
    if args.out:
        with datastore.atomic_write(args.out) as fh:
            json.dump(summary, fh, indent=2)
        write_manifest(args.out, "hpo", args, started)
    print(json.dumps(summary))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    started = time.time()
    if args.index < 0:
        raise ValueError(f"--index must be >= 0, got {args.index}")
    seen = 0  # non-blank lines before the one at --index
    with open(args.map, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if seen == args.index:
                break
            seen += 1
        else:
            if not seen:
                raise ValueError(f"{args.map} is empty")
            raise ValueError(f"--index {args.index} out of range ({seen} lines)")
    parsed = datastore.parse_line(args.map, lineno, line)
    if isinstance(parsed, worldsim.WorldMap):
        world, pose, gold = parsed, None, []
    else:
        world, pose, gold = parsed.world, parsed.start, parsed.actions
    actions: list[worldsim.Action] = []
    if args.path:
        actions = [worldsim.Action(tok.strip().upper())
                   for tok in args.path.split(",") if tok.strip()]
    elif args.gold:
        actions = gold
    overlay = render.trace_path(world, pose, actions) if (actions and pose) else None
    if args.format == "ascii":
        text = render.render_ascii(world, pose, overlay)
    else:
        text = render.render_svg(world, pose, overlay)
    if args.out:
        with datastore.atomic_write(args.out) as fh:
            fh.write(text + "\n")
        write_manifest(args.out, "render", args, started)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_world_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--p-item", type=_probability, default=0.25, dest="p_item")
    p.add_argument("--min-dist", type=_positive_int, default=4, dest="min_dist")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--variant", default="full", help="full|lo|bof")
    p.add_argument("--config", default=None,
                   help="path to a JSON file of model-config overrides")


def _add_stream_flags(p: argparse.ArgumentParser) -> None:
    """Flags of a streaming learning-efficiency run (bench, hpo)."""
    p.add_argument("--mix", default="sail")
    p.add_argument("--threshold", type=_fraction, default=0.90)
    p.add_argument("--eval-batch", type=_positive_int, default=100, dest="eval_batch")
    p.add_argument("--beam", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    _add_model_flags(p)
    _add_world_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazenav",
        description="Procedural navigation-instruction lab: generate worlds "
                    "with paired instructions, train and evaluate models, "
                    "benchmark learning efficiency.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance dataset (JSONL)")
    p.add_argument("--count", type=_positive_int, default=None)
    p.add_argument("--mix", default="sail",
                   help="preset (sail|uniform|norestriction|fixed105k) or JSON file")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--out", required=True, help="output JSONL file path")
    _add_world_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model on a fixed dataset")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    p.add_argument("--out-checkpoint", required=True, dest="out_checkpoint")
    p.add_argument("--max-epochs", type=_positive_int, default=200, dest="max_epochs")
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--dev-limit", type=_positive_int, default=None, dest="dev_limit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints (ensemble) on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, nargs="+")
    p.add_argument("--mode", choices=("single", "paragraph"), default="single")
    p.add_argument("--beam", type=_positive_int, default=4)
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="streaming learning-efficiency benchmark")
    p.add_argument("--cap", type=_positive_int, default=250000)
    p.add_argument("--progress", action="store_true")
    _add_stream_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hpo", help="golden-section search over one hyperparameter")
    p.add_argument("--param", required=True, help="|".join(HPO_PARAMS))
    p.add_argument("--lo", type=_positive_float, required=True)
    p.add_argument("--hi", type=_positive_float, required=True)
    p.add_argument("--tol", type=_positive_float, default=0.05)
    p.add_argument("--max-evals", type=int, default=20, dest="max_evals")
    p.add_argument("--budget", type=_positive_int, default=2000,
                   help="instance cap per probe run")
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    _add_stream_flags(p)
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("render", help="draw a map (ascii or svg)")
    p.add_argument("--map", required=True,
                   help="JSONL file; each line holds an instance or a bare map")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    overlay = p.add_mutually_exclusive_group()
    overlay.add_argument("--path", default=None,
                         help="comma-separated actions to overlay")
    overlay.add_argument("--gold", action="store_true",
                         help="overlay the instance's gold actions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a bad flag exits 2 from argparse
        return args.func(args)
    except (OSError, ValueError, KeyError, datastore.DatasetError,
            TemplateError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
