"""In-memory span tracer that wraps mazenav's public layer functions.

Each wrapped call records one span (id, parent id, name, start, end) in a
list; nothing is written until the run ends. A function is wrapped under
every name its callers look it up by: `langgen` imports `generate_world`
and friends by name and `navmodel` imports `encode_grid` and `step`, so
wrapping only the defining module would miss those calls. No code under
`src/` is edited; the originals are put back by `Tracer.restore`.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

# Span name -> the (module, attribute) pairs through which callers reach it.
LAYER_FUNCTIONS = {
    "worldsim.generate_world": [("langgen", "generate_world"), ("worldsim", "generate_world")],
    "worldsim.sample_endpoints": [("langgen", "sample_endpoints"), ("worldsim", "sample_endpoints")],
    "worldsim.shortest_path": [("langgen", "shortest_path"), ("worldsim", "shortest_path")],
    "worldsim.step": [("navmodel", "step"), ("worldsim", "step")],
    "worldsim.execute": [("evalbench", "execute"), ("worldsim", "execute")],
    "langgen.generate_instance": [("langgen", "generate_instance")],
    "langgen.match_pattern": [("langgen", "match_pattern")],
    "langgen.realize_binding": [("langgen", "realize_binding")],
    "langgen.generate_dataset.next": [("evalbench", "generate_dataset"),
                                      ("langgen", "generate_dataset")],
    "datastore.write_instances": [("datastore", "write_instances")],
    "datastore.read_instances.next": [("datastore", "read_instances")],
    "datastore.split_dataset": [("datastore", "split_dataset")],
    "datastore.build_vocab": [("datastore", "build_vocab")],
    "percept.encode_grid": [("navmodel", "encode_grid"), ("percept", "encode_grid")],
    "nnet.lstm_cell": [("nnet", "lstm_cell")],
    "nnet.conv2d_valid": [("nnet", "conv2d_valid")],
    "nnet.backward": [("nnet", "backward")],
    "nnet.global_grad_norm": [("nnet", "global_grad_norm")],
    "nnet.clip_global_norm": [("nnet", "clip_global_norm")],
    "nnet.adam_step": [("nnet", "adam_step")],
    "navmodel.NavModel.encode": [("navmodel.NavModel", "encode")],
    "navmodel.NavModel.attend": [("navmodel.NavModel", "attend")],
    "navmodel.NavModel.perceive": [("navmodel.NavModel", "perceive")],
    "navmodel.NavModel.decode_step": [("navmodel.NavModel", "decode_step")],
    "navmodel.NavModel.sequence_loss": [("navmodel.NavModel", "sequence_loss")],
    "navmodel.NavModel.train_on": [("navmodel.NavModel", "train_on")],
    "navmodel.train": [("navmodel", "train")],
    "navmodel.beam_search": [("navmodel", "beam_search")],
    "evalbench.success": [("evalbench", "success")],
    "evalbench.learning_efficiency": [("evalbench", "learning_efficiency")],
    "evalbench.evaluate_ensemble": [("evalbench", "evaluate_ensemble")],
}

# Generator functions: each next() on them is one span.
ITERATORS = {"langgen.generate_dataset.next", "datastore.read_instances.next"}


def _count_hit(counters, args, result):
    counters["langgen.match_pattern.hits"] += result is not None


def _count_clip(counters, args, result):
    counters["nnet.clip_global_norm.active"] += result < 1.0


def _count_trained_actions(counters, args, result):
    counters["actions.trained"] += len(args[1].actions)  # (self, instance, ...)


def _count_decoded_actions(counters, args, result):
    counters["actions.decoded"] += len(result)


# Counters that the ratios below need, taken at the call boundary.
ON_RESULT = {
    "langgen.match_pattern": _count_hit,
    "nnet.clip_global_norm": _count_clip,
    "navmodel.NavModel.train_on": _count_trained_actions,
    "navmodel.beam_search": _count_decoded_actions,
}


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self._stack = [0]  # span id 0 is the root (the benchmark itself)
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(tracer.counters, args, result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        """Wrap a generator function so that each next() is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = tracer.wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                tracer.counters[name + ".items"] += 1
                yield item

        return traced

    def install(self, modules: dict) -> None:
        """Replace every entry of LAYER_FUNCTIONS in `modules` (name -> module)."""
        for name, sites in LAYER_FUNCTIONS.items():
            for owner_path, attr in sites:
                head, _, cls = owner_path.partition(".")
                owner = getattr(modules[head], cls) if cls else modules[head]
                original = owner.__dict__[attr]
                if name in ITERATORS:
                    wrapped = self.wrap_iter(name, original)
                else:
                    wrapped = self.wrap(name, original, ON_RESULT.get(name))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self, units: int = 1) -> dict[str, tuple[float, str]]:
        """Per-function calls, total and self time per unit (the recorded
        spans cover `units` units), plus the layer ratios."""
        index = {span[0]: span for span in self.spans}
        child_ns: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent in index:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[span_id]
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls[name] / units, "count")
            out[f"{name}.total_ms"] = (total_ns[name] / 1e6 / units, "ms")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / units, "ms")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out["worldsim.worlds_per_instance"] = (
            ratio(calls["worldsim.generate_world"], c["langgen.generate_dataset.next.items"]),
            "ratio")
        out["langgen.match_pattern.hit_ratio"] = (
            ratio(c["langgen.match_pattern.hits"], calls["langgen.match_pattern"]), "ratio")
        out["percept.encode_grid.per_action"] = (
            ratio(calls["percept.encode_grid"], c["actions.trained"] + c["actions.decoded"]),
            "ratio")
        out["navmodel.decode_step.per_decode"] = (
            ratio(self._calls_under("navmodel.NavModel.decode_step", "navmodel.beam_search", index),
                  calls["navmodel.beam_search"]),
            "ratio")
        out["nnet.global_grad_norm.per_step"] = (
            ratio(calls["nnet.global_grad_norm"], calls["nnet.adam_step"]), "ratio")
        out["nnet.clip_rate"] = (
            ratio(c["nnet.clip_global_norm.active"], calls["nnet.clip_global_norm"]), "ratio")
        return out

    @staticmethod
    def _calls_under(name: str, ancestor: str, index: dict) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        count = 0
        for span in index.values():
            if span[2] != name:
                continue
            parent = index.get(span[1])
            while parent is not None and parent[2] != ancestor:
                parent = index.get(parent[1])
            count += parent is not None
        return count

    @staticmethod
    def span_cost_ns(calls: int = 20000, trials: int = 5) -> float:
        """Wall time the wrapper adds to one call, measured on a function
        that does nothing (the fastest of `trials` runs of `calls` calls)."""
        def noop(*args, **kwargs):
            return None

        best = float("inf")
        for _ in range(trials):
            traced = Tracer().wrap("noop", noop)
            start = perf_counter_ns()
            for _ in range(calls):
                noop(1, key=2)
            middle = perf_counter_ns()
            for _ in range(calls):
                traced(1, key=2)
            end = perf_counter_ns()
            best = min(best, ((end - middle) - (middle - start)) / calls)
        return best

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
