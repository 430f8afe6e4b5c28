"""Command-line entry point: gen / train / eval / bench / hpo / render.

Exit codes: 0 success, 2 usage or file errors, 3 numerical failure.
Every file-producing command writes a replayable run manifest alongside
its primary artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from itertools import islice
from typing import Optional, Sequence

from . import datastore, evalbench, langgen, navmodel, percept, render, worldsim
from .langgen import GenerationError, TaskCategory, TemplateError

VARIANT_ALIASES = {"full": "full", "lo": "languageOnly", "bof": "bagOfFeatures",
                   "languageOnly": "languageOnly", "bagOfFeatures": "bagOfFeatures"}

MIX_PRESETS = {
    "sail": langgen.DEFAULT_MIX,
    "uniform": {cat: 1.0 / len(TaskCategory) for cat in TaskCategory},
    "norestriction": None,
}


def default_seed() -> int:
    return int(os.environ.get("MAZENAV_SEED", "0"))


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
        if not isinstance(weight, (int, float)) or weight < 0:
            raise ValueError(f"mix file {spec!r}: bad weight for {name!r}")
        mix[cat] = float(weight)
    if sum(mix.values()) <= 0:
        raise ValueError(f"mix file {spec!r}: weights sum to zero")
    return mix


def write_manifest(artifact: str, command: str, args: argparse.Namespace,
                   started: float, extra_artifacts: Sequence[str] = ()) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "masterSeed": getattr(args, "seed", None),
        "artifacts": [artifact, *extra_artifacts],
        "timestamps": {"start": started, "end": time.time()},
    }
    with open(artifact + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _world_config(args: argparse.Namespace) -> worldsim.WorldConfig:
    """World flags, rejected up front unless every world fits the percept grid."""
    if args.width < 1 or args.height < 1:
        raise ValueError(f"--width and --height must be >= 1, got {args.width}x{args.height}")
    percept.check_grid_fits(args.width, args.height)
    return worldsim.WorldConfig(width=args.width, height=args.height,
                                p_item=args.p_item, min_dist=args.min_dist)


def _model_config(args: argparse.Namespace, vocab_size: int) -> navmodel.ModelConfig:
    config = navmodel.ModelConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        config = navmodel.ModelConfig.from_dict({**config.to_dict(), **overrides})
    variant = VARIANT_ALIASES.get(args.variant)
    if variant is None:
        raise ValueError(f"unknown variant {args.variant!r}")
    return replace(config, variant=variant, vocab_size=vocab_size)


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


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    parent = os.path.dirname(args.out_checkpoint)
    if parent:
        os.makedirs(parent, exist_ok=True)
    instances = _load_instances(args.data, args.limit)
    if not instances:
        raise ValueError(f"no instances in {args.data}")
    split = datastore.split_dataset(instances, seed=args.seed)
    by_id = {inst.id: inst for inst in instances}
    train_set = [by_id[i] for i in split.train]
    dev_set = [by_id[i] for i in split.dev]
    if args.dev_limit:
        dev_set = dev_set[:args.dev_limit]
    vocab = datastore.build_vocab(train_set)
    config = _model_config(args, len(vocab))
    if config.variant == "full":
        for inst in instances:
            try:
                percept.check_grid_fits(inst.world.width, inst.world.height)
            except percept.GridOverflowError as exc:
                raise ValueError(f"{args.data}: instance {inst.id}: {exc}") from None
    model = navmodel.NavModel(config, vocab, seed=args.seed)
    history_path = args.out_checkpoint + ".history.csv"
    result = navmodel.train(model, train_set, dev_set, max_epochs=args.max_epochs,
                            lr=args.lr, seed=args.seed, log_path=history_path)
    navmodel.save_checkpoint(model, args.out_checkpoint)
    write_manifest(args.out_checkpoint, "train", args, started,
                   extra_artifacts=[history_path])
    print(json.dumps({
        "epochs": result.epochs_run,
        "bestDevSuccess": result.best_dev_success if result.epochs_run else None,
        "checkpoint": args.out_checkpoint,
    }))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    instances = _load_instances(args.data, args.limit)
    if not instances:
        raise ValueError(f"no instances in {args.data}")
    models = [navmodel.load_checkpoint(p) for p in args.checkpoint]
    mode = "singleSentence" if args.mode == "single" else "paragraph"
    rate = evalbench.evaluate_ensemble(models, instances, mode=mode,
                                       beam_width=args.beam)
    summary = {"instances": len(instances), "mode": mode,
               "beam": args.beam, "successRate": rate}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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
    import math

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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        write_manifest(args.out, "hpo", args, started)
    print(json.dumps(summary))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    started = time.time()
    with open(args.map, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{args.map} is empty")
    if args.index >= len(lines):
        raise ValueError(f"--index {args.index} out of range ({len(lines)} lines)")
    data = json.loads(lines[args.index])
    if "map" in data:
        inst = datastore.instance_from_dict(data)
        world, pose = inst.world, inst.start
        gold = inst.actions
    else:
        world, pose, gold = worldsim.world_from_dict(data), None, []
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
        with open(args.out, "w", encoding="utf-8") as fh:
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


def _add_world_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--p-item", type=float, default=0.25, dest="p_item")
    p.add_argument("--min-dist", type=int, default=4, dest="min_dist")


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
    p.add_argument("--variant", default="full", help="full|lo|bof")
    p.add_argument("--config", default=None, help="path to a JSON file of model-config overrides")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--out-checkpoint", required=True, dest="out_checkpoint")
    p.add_argument("--max-epochs", type=int, default=200, dest="max_epochs")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--dev-limit", type=int, default=None, dest="dev_limit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints (ensemble) on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, nargs="+")
    p.add_argument("--mode", choices=("single", "paragraph"), default="single")
    p.add_argument("--beam", type=_positive_int, default=4)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="streaming learning-efficiency benchmark")
    p.add_argument("--mix", default="sail")
    p.add_argument("--threshold", type=float, default=0.90)
    p.add_argument("--cap", type=int, default=250000)
    p.add_argument("--eval-batch", type=int, default=100, dest="eval_batch")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--variant", default="full")
    p.add_argument("--config", default=None,
                   help="path to a JSON file of model-config overrides")
    p.add_argument("--beam", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--progress", action="store_true")
    _add_world_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hpo", help="golden-section search over one hyperparameter")
    p.add_argument("--param", required=True, help="|".join(HPO_PARAMS))
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--max-evals", type=int, default=20, dest="max_evals")
    p.add_argument("--budget", type=int, default=2000,
                   help="instance cap per probe run")
    p.add_argument("--mix", default="sail")
    p.add_argument("--threshold", type=float, default=0.90)
    p.add_argument("--eval-batch", type=int, default=100, dest="eval_batch")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--variant", default="full")
    p.add_argument("--config", default=None,
                   help="path to a JSON file of model-config overrides")
    p.add_argument("--beam", type=_positive_int, default=1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    _add_world_flags(p)
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("render", help="draw a map (ascii or svg)")
    p.add_argument("--map", required=True,
                   help="instance JSONL or a bare map JSON file")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
