"""Generator output pinned per seed.

The digests below were computed from the generator before its table-driven
rewrite. Any change to the RNG call order, the rejection loop, the world
layout or the serialized form moves them. Two digests are kept:

- the compact JSONL bytes `datastore.write_instances` produces, which
  pins the file format byte for byte;
- a semantic digest of what a navigator can observe (category,
  instruction, gold actions, start pose, edges, items and edge
  attributes), which a leaner file format must keep unchanged.

The JSONL digests were re-pinned when map lines stopped holding halls and
areas, again when they stopped holding an edge list besides `edgeAttrs`,
and again when `edgeAttrs` became lists of edge ids grouped by floor and
wall painting (JSONL v4). The semantic digests have not moved since they
were pinned.
"""

import hashlib
import json

import pytest

from mazenav import cli, datastore, langgen

MASTER_SEEDS = (0, 1, 20240607)
COUNT = 500

JSONL_SHA256 = {
    "sail": "66939fac489f896c872c364a45b52eb4b2768d9d154d2a87113b332b489257c7",
    "uniform": "797a78c647b123a7b50fa2780ce342c1ff3d29f69a52ae99b2a49c9f10006e79",
    "norestriction": "e83f38a1ce2d14b00b2b44537db808afadd29dc0b5db4ecb6d1ac6d61a726af8",
}

SEMANTIC_SHA256 = {
    "sail": "49acc528a68019a8d0e58f9160b393ca4e3a7403dc4c73fff1d5ea5c4d987369",
    "uniform": "8523bdf9788a0f0fdfec70cca2547d74b1cacb0577249097a686ebc8817db0fa",
    "norestriction": "dc50dfad98fa0082c9cbce04ca28494ad5b037b5e95d59479a17a885a085c03a",
}


def semantic_record(inst: langgen.Instance) -> str:
    world = inst.world
    edges = sorted(world.edge_attrs)
    return json.dumps([
        inst.category.value,
        inst.instruction,
        [a.value for a in inst.actions],
        [inst.start.x, inst.start.y, inst.start.dir.name],
        [[a[0], a[1], b[0], b[1]] for a, b in edges],
        [[x, y, world.items[(x, y)]] for x, y in sorted(world.items)],
        [list(world.edge_attrs[e]) for e in edges],
    ], separators=(",", ":"))


def digests(mix_name: str) -> tuple[str, str]:
    jsonl, semantic = hashlib.sha256(), hashlib.sha256()
    for seed in MASTER_SEEDS:
        for inst in langgen.generate_dataset(cli.MIX_PRESETS[mix_name], COUNT, seed):
            line = json.dumps(datastore.instance_to_dict(inst), separators=(",", ":"))
            jsonl.update(line.encode() + b"\n")
            semantic.update(semantic_record(inst).encode() + b"\n")
    return jsonl.hexdigest(), semantic.hexdigest()


@pytest.mark.parametrize("mix_name", sorted(JSONL_SHA256))
def test_generator_output_is_pinned(mix_name):
    jsonl, semantic = digests(mix_name)
    assert jsonl == JSONL_SHA256[mix_name]
    assert semantic == SEMANTIC_SHA256[mix_name]
