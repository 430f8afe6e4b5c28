"""Serialization, splitting, and vocabulary tests."""

import gc
import json
import os
import random
import stat

import pytest

from mazenav.datastore import (
    DatasetError,
    UNK,
    UNK_INDEX,
    Vocabulary,
    build_vocab,
    instance_from_dict,
    instance_to_dict,
    read_instances,
    split_dataset,
    write_instances,
)
from mazenav.langgen import DEFAULT_MIX, Instance, TaskCategory, generate_dataset
from mazenav.worldsim import (
    Action,
    Direction,
    Pose,
    WorldConfig,
    _grid,
    generate_world,
    shortest_path,
    world_from_dict,
    world_to_dict,
)


def sample_instances(n, seed=0):
    return list(generate_dataset(DEFAULT_MIX, n, master_seed=seed))


def fake_instance(inst_id, category, world):
    return Instance(id=inst_id, seed=inst_id, category=category, world=world,
                    start=Pose(0, 0, Direction.NORTH),
                    instruction=["go"], actions=[Action.STOP])


class TestSerialization:
    def test_round_trip_structural_identity(self, tmp_path):
        instances = sample_instances(50)
        path = str(tmp_path / "data.jsonl")
        n = write_instances(instances, path)
        assert n == 50
        loaded = list(read_instances(path))
        assert len(loaded) == 50
        for a, b in zip(instances, loaded):
            assert a.id == b.id and a.seed == b.seed
            assert a.category is b.category
            assert a.start == b.start
            assert a.instruction == b.instruction
            assert a.actions == b.actions
            assert a.world.items == b.world.items
            assert a.world.edge_attrs == b.world.edge_attrs

    def test_dict_key_order_stable(self):
        inst = sample_instances(1)[0]
        assert list(instance_to_dict(inst)) == [
            "id", "seed", "category", "start", "instruction", "actions", "map"]

    def test_empty_file_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(read_instances(str(path))) == []

    def test_truncated_line_names_line_number(self, tmp_path):
        instances = sample_instances(3)
        path = tmp_path / "broken.jsonl"
        lines = [json.dumps(instance_to_dict(i)) for i in instances]
        lines[1] = lines[1][:40]  # cut mid-object
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            list(read_instances(str(path)))

    def test_missing_field_names_line_number(self, tmp_path):
        inst = sample_instances(1)[0]
        d = instance_to_dict(inst)
        del d["actions"]
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            list(read_instances(str(path)))

    def test_write_is_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_instances(sample_instances(20, seed=5), p1)
        write_instances(sample_instances(20, seed=5), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestSplit:
    def test_partition_and_determinism(self):
        instances = sample_instances(200)
        s1 = split_dataset(instances, seed=3)
        s2 = split_dataset(instances, seed=3)
        assert (s1.train, s1.dev, s1.test) == (s2.train, s2.dev, s2.test)
        all_ids = sorted(s1.train + s1.dev + s1.test)
        assert all_ids == sorted(i.id for i in instances)
        assert not (set(s1.train) & set(s1.dev))
        assert not (set(s1.train) & set(s1.test))
        assert not (set(s1.dev) & set(s1.test))

    def test_seed_changes_assignment(self):
        instances = sample_instances(200)
        s1 = split_dataset(instances, seed=1)
        s2 = split_dataset(instances, seed=2)
        assert s1.train != s2.train

    def test_global_sizes_exact_on_105000_shape(self):
        # synthetic instances with the generator's category behavior but
        # arbitrary per-category counts; global sizes must come out exact
        world = generate_world(random.Random(0))
        cats = list(TaskCategory)
        counts = [33285, 7361, 14049, 1817, 5418, 10122, 9145, 23803]
        assert sum(counts) == 105000
        instances = []
        k = 0
        for cat, c in zip(cats, counts):
            for _ in range(c):
                instances.append(fake_instance(k, cat, world))
                k += 1
        split = split_dataset(instances)
        assert len(split.train) == 73500
        assert len(split.dev) == 15750
        assert len(split.test) == 15750

    def test_per_category_within_one_of_target(self):
        instances = sample_instances(400)
        split = split_dataset(instances)
        for cat, (n_train, n_dev, n_test) in split.by_category.items():
            n = n_train + n_dev + n_test
            assert abs(n_dev - 0.15 * n) < 1.0 + 1e-9
            assert abs(n_test - 0.15 * n) < 1.0 + 1e-9

    def test_single_category_ten_instances(self):
        world = generate_world(random.Random(0))
        instances = [fake_instance(i, TaskCategory.LANGUAGE_ONLY, world)
                     for i in range(10)]
        split = split_dataset(instances)
        assert len(split.train) == 7
        assert len(split.dev) + len(split.test) == 3
        assert {len(split.dev), len(split.test)} <= {1, 2}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([])

    def test_bad_fractions_rejected(self):
        instances = sample_instances(10)
        with pytest.raises(ValueError):
            split_dataset(instances, fractions=(0.5, 0.2, 0.2))


class TestVocabulary:
    def test_first_occurrence_ordering(self):
        world = generate_world(random.Random(0))
        insts = [fake_instance(0, TaskCategory.LANGUAGE_ONLY, world),
                 fake_instance(1, TaskCategory.LANGUAGE_ONLY, world)]
        insts[0].instruction = ["a", "b", "a"]
        insts[1].instruction = ["c", "b"]
        vocab = build_vocab(insts)
        assert vocab.index["a"] == 1
        assert vocab.index["b"] == 2
        assert vocab.index["c"] == 3
        assert vocab.tokens[UNK_INDEX] == UNK

    def test_unseen_token_maps_to_unk(self):
        vocab = Vocabulary(["alpha", "beta"])
        assert vocab.encode(["alpha", "gamma"]) == [1, UNK_INDEX]

    def test_round_trip_list_form(self):
        vocab = Vocabulary(["x", "y", "z"])
        clone = Vocabulary.from_list(vocab.to_list())
        assert clone.index == vocab.index

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_generated_vocab_within_template_closure(self):
        from mazenav.langgen import TemplateBank
        closure = set(TemplateBank.load_default().vocabulary())
        vocab = build_vocab(sample_instances(300, seed=9))
        assert set(vocab.tokens[1:]) <= closure


def line_instance(width=3, height=1, seed=0):
    """A one-instance dict on a width x height map, as a JSONL line holds it."""
    world = generate_world(random.Random(seed), WorldConfig(width, height, p_item=1.0))
    inst = Instance(id=0, seed=0, category=TaskCategory.LANGUAGE_ONLY, world=world,
                    start=Pose(0, 0, Direction.EAST), instruction=["go"],
                    actions=[Action.MOVE, Action.STOP])
    return instance_to_dict(inst)


def read_one(tmp_path, data):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(data) + "\n")
    return list(read_instances(str(path)))


# Faults in the map of a line_instance() line: each mutation of the map dict
# and the cause the reader names. The 3x1 map's edges are ids 0 and 1. Its
# ids run from 0 to 5, and ids 2 (x = width - 1) and 3 to 5 (vertical, on a
# map one node high) are slots that hold no edge.
MAP_FAULTS = [
    (lambda m: m["edgeAttrs"].update(blue={"fish": [4]}),
     r"edge \[1, 0, 1, 1\] \(id 4\) does not join grid neighbours of the 3x1 map"),
    (lambda m: m["edgeAttrs"].update(blue={"fish": [2]}),
     r"edge \[2, 0, 3, 0\] \(id 2\) does not join grid neighbours of the 3x1 map"),
    (lambda m: m["edgeAttrs"].update(blue={"fish": [-1]}),
     r"edge id -1 is out of range for the 3x1 map \(ids run from 0 to 5\)"),
    (lambda m: m["edgeAttrs"].update(blue={"fish": [6]}),
     r"edge id 6 is out of range for the 3x1 map \(ids run from 0 to 5\)"),
    (lambda m: m["edgeAttrs"].update(blue={"fish": [True]}), r"edge id True is not an integer"),
    (lambda m: m["edgeAttrs"].update(blue={"fish": [1.0]}), r"edge id 1\.0 is not an integer"),
    (lambda m: m.update(edgeAttrs={"blue": {"fish": [0, 1, 1]}}), r"edge id 1 is listed twice"),
    (lambda m: m.update(edgeAttrs={"blue": {"fish": [0, 1]}, "wood": {"tower": [0]}}),
     r"edge id 0 is listed twice"),
    (lambda m: m["items"].update({"3,0": "lamp"}), r"item node '3,0' is outside the 3x1 map"),
    (lambda m: m.update(width=0), r"map sides must be integers >= 1, got 0 x 1"),
    (lambda m: m.update(height=-2), r"map sides must be integers >= 1"),
    (lambda m: m["items"].update({"1,0": "piano"}), r"unknown item 'piano'"),
    (lambda m: m["edgeAttrs"].update(lava=m["edgeAttrs"].popitem()[1]), r"unknown floor 'lava'"),
    (lambda m: (w := next(iter(m["edgeAttrs"].values()))).update(moon=w.popitem()[1]),
     r"unknown wall 'moon'"),
    (lambda m: m.update(edgeAttrs="x"),
     r"edgeAttrs must map floors to paintings to edge-id lists, got 'x'"),
    (lambda m: m.update(edgeAttrs={"blue": [0, 1]}),
     r"edgeAttrs floor 'blue' must map paintings to edge-id lists, got \[0, 1\]"),
    (lambda m: m.update(edgeAttrs={"blue": {"fish": 5}}),
     r"edgeAttrs 'blue' 'fish' must be a list of edge ids, got 5"),
    (lambda m: m.update(edgeAttrs={"blue": {"fish": "01"}}),
     r"edgeAttrs 'blue' 'fish' must be a list of edge ids, got '01'"),
]


def earlier_layout(data, version):
    """A copy of the instance dict `data` as a JSONL version 1, 2 or 3 line
    held its map: edgeAttrs a list of {edge, floor, wall} entries, with an
    edges list in versions 1 and 2 and halls and areas blocks in version 1."""
    world = world_from_dict(data["map"])
    old = json.loads(json.dumps(data))
    m = old["map"]
    m["edgeAttrs"] = [{"edge": [a[0], a[1], b[0], b[1]], "floor": floor, "wall": wall}
                      for (a, b), (floor, wall) in sorted(world.edge_attrs.items())]
    if version in ("v1", "v2"):
        m["edges"] = [entry["edge"] for entry in m["edgeAttrs"]]
    if version == "v1":
        m["halls"] = [{"axis": "horizontal", "edges": [[0, 0, 1, 0]], "floor": "blue"}]
        m["areas"] = [{"id": 0, "nodes": [[0, 0]], "wall": "fish"}]
    return old


class TestReaderValidation:
    def test_valid_line_reads(self, tmp_path):
        (inst,) = read_one(tmp_path, line_instance())
        assert inst.world.width == 3 and inst.start == Pose(0, 0, Direction.EAST)

    @pytest.mark.parametrize("mutate, cause", [
        *[(lambda d, f=fault: f(d["map"]), cause) for fault, cause in MAP_FAULTS],
        (lambda d: d["start"].update(x=3), r"start \(3, 0\) is outside the 3x1 map"),
        (lambda d: d["start"].update(y=-1), r"start \(0, -1\) is outside the 3x1 map"),
        (lambda d: d["actions"].insert(0, "JUMP"), r"unknown action 'JUMP'"),
        (lambda d: d["start"].update(dir="UP"), r"unknown direction 'UP'"),
        (lambda d: d.update(category="Dance"), r"unknown category 'Dance'"),
    ])
    def test_malformed_map_names_cause(self, tmp_path, mutate, cause):
        data = line_instance()
        mutate(data)
        with pytest.raises(DatasetError, match=r"one\.jsonl: line 1: " + cause):
            read_one(tmp_path, data)

    def test_world_from_dict_raises_value_error(self):
        data = line_instance()["map"]
        data["edgeAttrs"]["blue"] = {"fish": [4]}
        with pytest.raises(ValueError, match="does not join grid neighbours"):
            world_from_dict(data)

    def test_missing_key_still_named(self, tmp_path):
        data = line_instance()
        del data["map"]["edgeAttrs"]
        with pytest.raises(DatasetError, match="line 1: 'edgeAttrs'"):
            read_one(tmp_path, data)

    def test_bare_map_line_is_not_an_instance(self, tmp_path):
        with pytest.raises(DatasetError, match="line 1: a bare map, not an instance"):
            read_one(tmp_path, line_instance()["map"])

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_earlier_layouts_are_refused_by_name(self, tmp_path, version):
        # Versions 1 to 3 held edgeAttrs as a list of {edge, floor, wall}
        # entries. The reader names the layout and how to remake the file,
        # rather than failing on the first entry.
        old = earlier_layout(line_instance(4, 3, seed=1), version)
        with pytest.raises(DatasetError, match=r"one\.jsonl: line 1: edgeAttrs is a list of "
                           r"\{edge, floor, wall\} entries, the map layout of JSONL versions "
                           r"1 to 3, which is not read any more; regenerate the file with "
                           r"`mazenav gen` and the arguments in its \.manifest\.json"):
            read_one(tmp_path, old)
        with pytest.raises(ValueError, match="the map layout of JSONL versions 1 to 3"):
            instance_from_dict(old)


class TestAtomicWrite:
    def test_failed_stream_leaves_target_and_no_temp(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_instances(sample_instances(3), str(path))
        before = path.read_bytes()

        def failing():
            yield from sample_instances(2, seed=4)
            raise RuntimeError("generator died")

        with pytest.raises(RuntimeError, match="generator died"):
            write_instances(failing(), str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_new_file_appears_only_when_complete(self, tmp_path):
        path = tmp_path / "new.jsonl"

        def failing():
            yield sample_instances(1)[0]
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            write_instances(failing(), str(path))
        assert list(tmp_path.iterdir()) == []
        assert write_instances(sample_instances(2), str(path)) == 2
        assert len(list(read_instances(str(path)))) == 2

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.jsonl"
        real.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(real)
        assert write_instances(sample_instances(2), str(link)) == 2
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert len(list(read_instances(str(real)))) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_failed_manifest_write_keeps_the_old_manifest(self, tmp_path):
        from argparse import Namespace

        from mazenav.cli import write_manifest

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot print")

        artifact = str(tmp_path / "data.jsonl")
        write_manifest(artifact, "gen", Namespace(seed=1), started=0.0)
        manifest = tmp_path / "data.jsonl.manifest.json"
        before = manifest.read_bytes()
        # json.dump has written the command and part of the config when
        # the unprintable value stops it
        with pytest.raises(RuntimeError, match="cannot print"):
            write_manifest(artifact, "gen", Namespace(seed=2, z=Unprintable()), started=0.0)
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl.manifest.json"]

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("old\n")
        path.chmod(0o640)
        write_instances(sample_instances(1), str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


class TestReadBackEquivalence:
    def test_read_world_equals_generated_across_sizes(self, tmp_path):
        instances = []
        for width in range(1, 11):
            for height in range(1, 11):
                for p_item in (0.0, 0.25, 1.0):
                    rng = random.Random(width * 100 + height * 7 + int(p_item * 4))
                    world = generate_world(rng, WorldConfig(width, height, p_item))
                    instances.append(fake_instance(len(instances), TaskCategory.ORIENT, world))
        path = str(tmp_path / "sizes.jsonl")
        write_instances(instances, path)
        for inst, back in zip(instances, read_instances(path), strict=True):
            plain = world_from_dict(json.loads(json.dumps(world_to_dict(inst.world))))
            width, height = inst.world.width, inst.world.height
            ends = [(0, 0), (width - 1, height - 1), (width // 2, height // 2), (width - 1, 0)]
            for world in (back.world, plain):
                assert world == inst.world
                for a in ends:
                    for b in ends:
                        assert shortest_path(world, a, b) == shortest_path(inst.world, a, b)
            assert instance_to_dict(back) == instance_to_dict(inst)


class TestGcBudget:
    def tracked(self, world):
        objects = [("edge_attrs", world.edge_attrs), ("items", world.items)]
        return [name for name, obj in objects if gc.is_tracked(obj)]

    def test_world_data_drops_out_of_the_collector(self, tmp_path):
        # A collection untracks a tuple only if its items are untracked when
        # it is visited, so a tuple made from an edge table built since the
        # last collection can need a second one. Outside a fresh process the
        # table is older than the worlds, as it is made old here (earlier
        # tests may have pushed the 8x8 table out of the cache).
        _grid(8, 8)
        gc.collect()
        instances = sample_instances(20, seed=2)
        path = str(tmp_path / "gc.jsonl")
        write_instances(instances, path)
        back = list(read_instances(path))
        gc.collect()
        for inst in instances + back:
            assert self.tracked(inst.world) == []
        for inst in instances + back:
            grid = _grid(inst.world.width, inst.world.height)
            for e in inst.world.edge_attrs:
                assert grid.edge_ids[grid.rank[e]] is e
            width = inst.world.width
            assert all(k is grid.nodes[k[1] * width + k[0]] for k in inst.world.items)

    def test_read_instances_keep_few_tracked_objects(self, tmp_path):
        # Objects a kept read instance leaves for the collector to scan at
        # each full collection: the instance, its world, its instruction
        # and action lists and a cached start pose (4.6-5.5 measured over
        # seeds 1-7). A stored edge frozenset would add 1 more, stored areas
        # about 3, and stored halls about 37.
        path = str(tmp_path / "kept.jsonl")
        write_instances(sample_instances(40, seed=3), path)
        _grid(8, 8)
        gc.collect()
        before = len(gc.get_objects())
        back = list(read_instances(path))
        gc.collect()
        per_instance = (len(gc.get_objects()) - before) / len(back)
        assert per_instance < 7
