"""The three benchmark workloads, each a closed loop run by one client.

A workload has a set-up (data, vocabulary, models and an untimed warm-up)
and a unit of work that the run repeats until the measuring time is up.
Every unit of a run does exactly the same work on the same inputs, so its
outputs must repeat and each of its timed operations can be compared with
the same operation in the other units. Every workload times two operations
on single instances: one that *builds* (generates an instance, or trains on
one) and one that *uses* what was built (reads an instance back, or
decodes one); the rest of a unit is timed in named phases. Output checks
run outside the timed regions and count each failed operation against the
operations attempted.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from mazenav import datastore, evalbench, langgen, navmodel, nnet, percept, worldsim

MODULES = {
    "worldsim": worldsim, "percept": percept, "langgen": langgen,
    "datastore": datastore, "nnet": nnet, "navmodel": navmodel,
    "evalbench": evalbench,
}

LANGUAGE_ONLY_MIX = {langgen.TaskCategory.LANGUAGE_ONLY: 1.0}

# The criterion-10 `full` model (180k parameters with the template vocabulary).
# Its runs, like criterion 10, start from model seed 0; the workload seed
# varies the instances only.
CRIT10_MODEL = dict(embed_dim=32, encoder_hidden=64, attention_hidden=32,
                    conv_width=5, conv_channels=16, extra_convs=((5, 5, 8),),
                    variant="full")


@dataclass(frozen=True)
class Sizes:
    """Work per unit and per set-up; the smoke test shrinks these."""
    datagen_per_mix: int = 300   # instances of each of `sail` and `norestriction`
    datagen_chunks: int = 4      # datasets of that size per unit, one after another
    datagen_warmup: int = 60
    preq_batches: int = 8
    preq_eval_batch: int = 100
    preq_warmup: int = 40
    train_pool: int = 60         # `sail` corpus split 70/15/15 into train/dev/test
    decode_count: int = 100      # held-out `sail` instances decoded per unit
    train_epochs: int = 1
    train_warmup: int = 20


@dataclass
class UnitTimes:
    """The timings of one unit, in seconds."""
    build_s: list[float] = field(default_factory=list)   # per build operation
    use_s: list[float] = field(default_factory=list)     # per use operation
    # Other timed phases. `build_rest` and `use_rest` are the parts of the
    # build and use phases outside the timed operations.
    phase_s: dict[str, float] = field(default_factory=dict)
    instance_ops: int = 0        # instance operations in the timed parts
    # Called after each timed operation, outside it (the runner samples the
    # host's speed there); its time is kept in pause_s so that phases timed
    # around operations can leave it out.
    between_ops: Optional[Callable[[], None]] = None
    pause_s: float = 0.0

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_s[name] = self.phase_s.get(name, 0.0) + seconds

    def timed(self, times: list[float], seconds: float) -> None:
        """Record one operation's time in `times` (build_s or use_s)."""
        times.append(seconds)
        if self.between_ops is not None:
            start = perf_counter()
            self.between_ops()
            self.pause_s += perf_counter() - start


@dataclass
class Measure:
    """What the units of one run measured, plus their check outcomes."""
    units: list[UnitTimes] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    quality: float = math.nan    # success rate of the unit's outputs
    fingerprint: str = ""        # sha256 of the first unit's outputs
    extra: dict = field(default_factory=dict)  # workload-specific figures

    @property
    def unit(self) -> UnitTimes:
        return self.units[-1]

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def outputs(self, fingerprint: str, quality: float, what: str) -> None:
        """Record the first unit's outputs; a later unit must repeat them."""
        if len(self.units) == 1:
            self.fingerprint, self.quality = fingerprint, quality
        elif fingerprint != self.fingerprint:
            self.fail(1, f"{what}: unit {len(self.units) - 1} gave other outputs than unit 0")


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return digest.hexdigest()


def _warmup_seed(seed: int) -> int:
    """A seed no measured unit of a run with `seed` uses."""
    return seed + 1_000_003


def _chunk_seed(seed: int, chunk: int) -> int:
    return seed * 1009 + chunk


def _timed_next(iterator, u: UnitTimes, times: list[float]):
    """Consume `iterator`, recording each next() call's wall time in `times`."""
    items = []
    while True:
        start = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return items
        u.timed(times, perf_counter() - start)
        items.append(item)


# ---------------------------------------------------------------------------
# datagen: `mazenav gen` for the `sail` and `norestriction` mixes, then the
# load path of `mazenav train` (read back, split, vocabulary).


@dataclass
class DatagenState:
    seed: int
    sizes: Sizes
    workdir: str
    bank: langgen.TemplateBank
    config: worldsim.WorldConfig


DATAGEN_MIXES = (("sail", langgen.DEFAULT_MIX), ("norestriction", None))


def datagen_setup(seed: int, sizes: Sizes, workdir: str) -> DatagenState:
    state = DatagenState(seed, sizes, workdir, langgen.TemplateBank.load_default(),
                         worldsim.WorldConfig())
    warm = Measure(units=[UnitTimes()])
    _datagen_pass(state, _warmup_seed(seed), sizes.datagen_warmup, warm)
    return state


def datagen_unit(state: DatagenState, m: Measure) -> None:
    # A few small datasets rather than one big one: the instances of a
    # dataset stay in memory until it is indexed, and a bigger heap makes
    # every operation slower and its garbage collections longer.
    fingerprints, gold_ok, instances, jsonl_bytes = [], 0, 0, 0
    for chunk in range(state.sizes.datagen_chunks):
        fingerprint, ok, count, size = _datagen_pass(state, _chunk_seed(state.seed, chunk),
                                                     state.sizes.datagen_per_mix, m)
        fingerprints.append(fingerprint)
        gold_ok, instances, jsonl_bytes = gold_ok + ok, instances + count, jsonl_bytes + size
    m.extra.update(instances=instances, jsonl_bytes=jsonl_bytes)
    m.outputs(_sha256(fingerprints), gold_ok / max(instances, 1), "datagen")


def _datagen_pass(state: DatagenState, master_seed: int, count: int, m: Measure):
    """Generate, write, read, split and index `count` instances of each mix.

    Returns the sha256 of the JSONL bytes, the number of instances whose
    gold actions reach STOPPED, the number of instances and of JSONL bytes.
    """
    u = m.unit
    jsonl_chunks = []
    gold_ok = instances_total = 0
    for mix_name, mix in DATAGEN_MIXES:
        path = os.path.join(state.workdir, f"{mix_name}.jsonl")
        m.attempted += 3 * count + 2  # generate, write and read each; split; vocab

        start = perf_counter()
        generated = langgen.generate_dataset(mix, count, master_seed, config=state.config,
                                             bank=state.bank)
        u.add_phase("build_rest", perf_counter() - start)
        instances = _timed_next(generated, u, u.build_s)
        for inst in instances:
            try:
                evalbench.gold_final_pose(inst)
                gold_ok += 1
            except ValueError as exc:  # gold actions do not reach STOPPED
                m.fail(1, f"datagen {mix_name}: {exc}")
        instances_total += len(instances)

        start = perf_counter()
        datastore.write_instances(instances, path)
        u.add_phase("write", perf_counter() - start)

        start = perf_counter()
        reader = datastore.read_instances(path)
        u.add_phase("use_rest", perf_counter() - start)
        back = _timed_next(reader, u, u.use_s)
        if len(back) != len(instances):
            m.fail(abs(len(instances) - len(back)), f"datagen {mix_name}: read "
                   f"{len(back)} of {len(instances)} instances")
        for a, b in zip(instances, back):
            if datastore.instance_to_dict(a) != datastore.instance_to_dict(b):
                m.fail(1, f"datagen {mix_name}: instance {a.id} changed in the round trip")

        start = perf_counter()
        split = datastore.split_dataset(back, seed=master_seed)
        u.add_phase("split", perf_counter() - start)
        parts = [set(split.train), set(split.dev), set(split.test)]
        if sum(map(len, parts)) != len(back) or set().union(*parts) != {i.id for i in back}:
            m.fail(1, f"datagen {mix_name}: split is not a disjoint cover")

        train_ids = set(split.train)
        start = perf_counter()
        vocab = datastore.build_vocab(i for i in back if i.id in train_ids)
        u.add_phase("vocab", perf_counter() - start)
        if any(datastore.UNK_INDEX in vocab.encode(i.instruction)
               for i in back if i.id in train_ids):
            m.fail(1, f"datagen {mix_name}: vocabulary misses a training token")

        with open(path, "rb") as fh:
            jsonl_chunks.append(fh.read())
        u.instance_ops += 3 * len(instances)
    return _sha256(jsonl_chunks), gold_ok, instances_total, sum(map(len, jsonl_chunks))


# ---------------------------------------------------------------------------
# prequential: criterion 10's test-then-train stream, crit-10 `full` model,
# greedy decoding, a fixed number of eval batches.


@dataclass
class PrequentialState:
    seed: int
    sizes: Sizes
    bank: langgen.TemplateBank
    vocab: datastore.Vocabulary
    config: navmodel.ModelConfig


class _TimedRunner:
    """The benchmark's client: a greedy ModelRunner whose two calls are timed."""

    def __init__(self, runner: evalbench.ModelRunner, u: UnitTimes):
        self._runner = runner
        self._u = u
        self.losses: list[float] = []

    def predict(self, instance):
        start = perf_counter()
        actions = self._runner.predict(instance)
        self._u.timed(self._u.use_s, perf_counter() - start)
        return actions

    def train_on(self, instance):
        start = perf_counter()
        loss = self._runner.train_on(instance)
        self._u.timed(self._u.build_s, perf_counter() - start)
        self.losses.append(loss)
        return loss


def prequential_setup(seed: int, sizes: Sizes, workdir: str) -> PrequentialState:
    bank = langgen.TemplateBank.load_default()
    vocab = datastore.Vocabulary(bank.vocabulary())
    config = navmodel.ModelConfig(vocab_size=len(vocab), **CRIT10_MODEL)
    runner = evalbench.ModelRunner(navmodel.NavModel(config, vocab, seed=_warmup_seed(seed)),
                                   beam_width=1)
    for inst in langgen.generate_dataset(LANGUAGE_ONLY_MIX, sizes.preq_warmup,
                                         _warmup_seed(seed), bank=bank):
        runner.predict(inst)
        runner.train_on(inst)
    return PrequentialState(seed, sizes, bank, vocab, config)


def prequential_unit(state: PrequentialState, m: Measure) -> None:
    sizes = state.sizes
    u = m.unit
    runners: list[_TimedRunner] = []

    def factory():
        model = navmodel.NavModel(state.config, state.vocab, seed=0)
        runners.append(_TimedRunner(evalbench.ModelRunner(model, beam_width=1), u))
        return runners[-1]

    n = sizes.preq_batches * sizes.preq_eval_batch
    m.attempted += 2 * n
    start = perf_counter()
    try:
        report = evalbench.learning_efficiency(
            factory, LANGUAGE_ONLY_MIX, threshold=0.90, cap=n,
            eval_batch=sizes.preq_eval_batch, seed=state.seed, bank=state.bank,
            mix_id="languageOnly")
    except FloatingPointError as exc:  # non-finite loss
        m.fail(2 * n, f"prequential: {exc}")
        return
    elapsed = perf_counter() - start
    # Stream generation, success scoring and bookkeeping between the calls.
    u.add_phase("stream_rest", elapsed - sum(u.build_s) - sum(u.use_s) - u.pause_s)
    u.instance_ops += 2 * n

    losses = runners[0].losses
    bad = sum(not math.isfinite(x) for x in losses)
    if bad or len(losses) != n:
        m.fail(max(bad, 1), f"prequential: {bad} non-finite of {len(losses)} losses")
    if len(report.accuracy_trace) != sizes.preq_batches or not report.cap_exceeded:
        m.fail(1, "prequential: stream did not run its fixed number of batches")
    ma = 0.0
    for acc, got in zip(report.accuracy_trace, report.ma_trace):
        ma = 0.95 * ma + 0.05 * acc
        if ma != got:
            m.fail(1, "prequential: moving average does not recompute from accuracy")
            break
    m.extra["accuracy_trace"] = report.accuracy_trace
    m.outputs(_sha256(repr(a) for a in report.accuracy_trace),
              sum(report.accuracy_trace) / len(report.accuracy_trace), "prequential")


# ---------------------------------------------------------------------------
# train_eval: `mazenav train` of two default-size `full` members on a `sail`
# split, a checkpoint round trip, and beam-4 ensemble decoding.


@dataclass
class TrainEvalState:
    sizes: Sizes
    workdir: str
    vocab: datastore.Vocabulary
    config: navmodel.ModelConfig
    train_set: list
    dev_set: list
    decode_set: list


# train_eval is one fixed job: the corpus, the member seeds (0 and 1) and the
# held-out instances are the same for every workload seed, so every run does
# the same updates and decodes. A few dozen updates leave the members barely
# trained; with seed-dependent members or held-out sets, how far their beams
# wander (which sets the decode time) and the ensemble success on 100
# instances both moved by 15-40% between seeds.
CORPUS_SEED = 0
HELDOUT_SEED = 2_000_003


def train_eval_setup(seed: int, sizes: Sizes, workdir: str) -> TrainEvalState:
    path = os.path.join(workdir, "corpus.jsonl")
    datastore.write_instances(
        langgen.generate_dataset(langgen.DEFAULT_MIX, sizes.train_pool, CORPUS_SEED), path)
    corpus = list(datastore.read_instances(path))
    split = datastore.split_dataset(corpus, seed=CORPUS_SEED)
    by_id = {inst.id: inst for inst in corpus}
    train_set = [by_id[i] for i in split.train]
    dev_set = [by_id[i] for i in split.dev]
    vocab = datastore.build_vocab(train_set)
    decode_set = list(langgen.generate_dataset(langgen.DEFAULT_MIX, sizes.decode_count,
                                               HELDOUT_SEED))
    config = navmodel.ModelConfig(vocab_size=len(vocab))
    warm = navmodel.NavModel(config, vocab, seed=_warmup_seed(seed))
    for inst in train_set[:sizes.train_warmup]:
        warm.train_on(inst)
    for inst in decode_set[:2]:
        evalbench.evaluate_ensemble([warm, warm], [inst], beam_width=4)
    return TrainEvalState(sizes, workdir, vocab, config, train_set, dev_set, decode_set)


def _timed_method(obj, name: str, u: UnitTimes, times: list[float]) -> None:
    method = getattr(obj, name)

    def timed(*args, **kwargs):
        start = perf_counter()
        result = method(*args, **kwargs)
        u.timed(times, perf_counter() - start)
        return result

    setattr(obj, name, timed)


def train_eval_unit(state: TrainEvalState, m: Measure) -> None:
    sizes = state.sizes
    u = m.unit
    updates = 2 * sizes.train_epochs * len(state.train_set)
    dev_decodes = 2 * sizes.train_epochs * len(state.dev_set)
    m.attempted += updates + dev_decodes + 2 + len(state.decode_set)
    members = []
    for j in range(2):  # member seeds 0 and 1
        model = navmodel.NavModel(state.config, state.vocab, seed=j)
        _timed_method(model, "train_on", u, u.build_s)
        trained_before, paused_before = sum(u.build_s), u.pause_s
        start = perf_counter()
        try:
            navmodel.train(model, state.train_set, state.dev_set,
                           max_epochs=sizes.train_epochs, patience=sizes.train_epochs,
                           seed=j)
        except FloatingPointError as exc:  # non-finite loss
            m.fail(updates + dev_decodes + 2 + len(state.decode_set), f"train_eval: {exc}")
            return
        # Dev passes, shuffling and keeping the best parameters.
        u.add_phase("build_rest", perf_counter() - start - (sum(u.build_s) - trained_before)
                    - (u.pause_s - paused_before))
        members.append(model)

    loaded = []
    start = perf_counter()
    for j, model in enumerate(members):
        path = os.path.join(state.workdir, f"member{j}.npz")
        navmodel.save_checkpoint(model, path)
        loaded.append(navmodel.load_checkpoint(path))
    u.add_phase("checkpoint", perf_counter() - start)
    for model, back in zip(members, loaded):
        trained, reloaded = model.state_dict(), back.state_dict()
        if trained.keys() != reloaded.keys() or any(
                trained[k].dtype != reloaded[k].dtype
                or trained[k].tobytes() != reloaded[k].tobytes() for k in trained):
            m.fail(1, "train_eval: reloaded checkpoint differs from the trained parameters")

    # evaluate_ensemble returns only the success rate; the predicted actions
    # for the fingerprint are taken from its beam_search call. The decode
    # uses the model's own beam width 4 and action budget, as `mazenav eval`.
    predictions: list[list] = []
    beam_search = navmodel.beam_search

    def keep_prediction(*args, **kwargs):
        actions = beam_search(*args, **kwargs)
        predictions.append(actions)
        return actions

    wins = 0.0
    navmodel.beam_search = keep_prediction
    try:
        for inst in state.decode_set:
            start = perf_counter()
            wins += evalbench.evaluate_ensemble(loaded, [inst], beam_width=4)
            u.timed(u.use_s, perf_counter() - start)
    finally:
        navmodel.beam_search = beam_search
    u.instance_ops += updates + dev_decodes + len(state.decode_set)
    m.outputs(_sha256(" ".join(a.value for a in p) + "\n" for p in predictions),
              wins / len(state.decode_set), "train_eval")


WORKLOADS = {
    "datagen": (datagen_setup, datagen_unit),
    "prequential": (prequential_setup, prequential_unit),
    "train_eval": (train_eval_setup, train_eval_unit),
}
