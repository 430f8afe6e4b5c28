"""Renderer output and command-line workflow tests.

The CLI tests drive main() in-process so exit codes and artifacts can be
checked cheaply; one subprocess test confirms the module entry point.
"""

import contextlib
import io
import json
import pickle
import platform
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from mazenav import cli, datastore, navmodel
from mazenav.cli import MIX_PRESETS, build_parser, default_seed, main, resolve_mix
from mazenav.langgen import DEFAULT_MIX, TaskCategory, generate_dataset, generate_instance
from mazenav.navmodel import ModelConfig, NavModel, save_checkpoint
from mazenav.render import (
    AGENT_CHARS,
    ITEM_CHARS,
    render_ascii,
    render_svg,
    trace_path,
)
from mazenav.worldsim import (
    Action,
    WorldConfig,
    execute,
    generate_world,
    world_to_dict,
)
from test_datastore import MAP_FAULTS, earlier_layout, line_instance
from test_navmodel import rewrite_metadata


# Model-config values of the wrong type or an impossible size, by test id.
BAD_CONFIG_VALUES = {"str int": {"embed_dim": "x"}, "bool int": {"embed_dim": True},
                     "float int": {"beam_width": 2.5}, "two-int conv": {"extra_convs": [[5, 5]]},
                     "action count": {"action_count": 5}, "zero beam": {"beam_width": 0},
                     "zero conv": {"extra_convs": [[5, 5, 0]]}}


@pytest.fixture(scope="module")
def sample():
    return list(generate_dataset(None, 8, master_seed=13,
                                 config=WorldConfig(width=5, height=5)))


def padded_lines(text, width):
    return [line.ljust(width) for line in text.splitlines()]


class TestRenderAscii:
    def test_box_dimensions(self, sample):
        world = sample[0].world
        text = render_ascii(world)
        lines = text.splitlines()
        assert len(lines) == 2 * world.height - 1
        assert max(len(line) for line in lines) <= 4 * world.width - 2

    def test_agent_marker_position(self, sample):
        inst = sample[0]
        lines = padded_lines(render_ascii(inst.world, inst.start),
                             4 * inst.world.width - 2)
        x, y = inst.start.x, inst.start.y
        assert lines[2 * y][4 * x] == AGENT_CHARS[inst.start.dir]

    def test_item_markers(self, sample):
        world = next(i.world for i in sample if i.world.items)
        lines = padded_lines(render_ascii(world), 4 * world.width - 2)
        hits = 0
        for (x, y), item in world.items.items():
            if lines[2 * y][4 * x] == ITEM_CHARS[item]:
                hits += 1
        assert hits >= len(world.items) - 0  # agent absent: all must show

    def test_edges_and_gaps(self, sample):
        world = sample[0].world
        lines = padded_lines(render_ascii(world), 4 * world.width - 2)
        from mazenav.render import FLOOR_CHARS, WALL_CHARS
        from mazenav.worldsim import norm_edge

        for x in range(world.width - 1):
            for y in range(world.height):
                seg = lines[2 * y][4 * x + 1:4 * x + 4]
                edge = norm_edge((x, y), (x + 1, y))
                if edge in world.edge_attrs:
                    floor, wall = world.edge_attrs[edge]
                    assert seg == FLOOR_CHARS[floor] + WALL_CHARS[wall] + FLOOR_CHARS[floor]
                else:
                    assert seg == "   "
        for x in range(world.width):
            for y in range(world.height - 1):
                seg = lines[2 * y + 1][4 * x:4 * x + 2]
                edge = norm_edge((x, y), (x, y + 1))
                if edge in world.edge_attrs:
                    floor, wall = world.edge_attrs[edge]
                    assert seg == FLOOR_CHARS[floor] + WALL_CHARS[wall]
                else:
                    assert seg == "  "

    def test_path_overlay(self, sample):
        inst = next(i for i in sample
                    if sum(a is Action.MOVE for a in i.actions) >= 2)
        visited = trace_path(inst.world, inst.start, inst.actions)
        lines = padded_lines(render_ascii(inst.world, inst.start, visited),
                             4 * inst.world.width - 2)
        for (x, y) in visited[1:]:
            assert lines[2 * y][4 * x] in "*" + AGENT_CHARS[inst.start.dir]


class TestTracePath:
    def test_follows_gold_to_final_pose(self, sample):
        for inst in sample:
            visited = trace_path(inst.world, inst.start, inst.actions)
            final, _ = execute(inst.world, inst.start, inst.actions)
            assert visited[0] == (inst.start.x, inst.start.y)
            assert visited[-1] == (final.x, final.y)
            moves = sum(a is Action.MOVE for a in inst.actions)
            assert len(visited) == moves + 1

    def test_consecutive_nodes_adjacent(self, sample):
        inst = sample[0]
        visited = trace_path(inst.world, inst.start, inst.actions)
        for a, b in zip(visited, visited[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


class TestRenderSvg:
    def test_document_structure(self, sample):
        inst = sample[0]
        visited = trace_path(inst.world, inst.start, inst.actions)
        svg = render_svg(inst.world, inst.start, visited)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<line ") >= len(inst.world.edge_attrs)
        assert svg.count("<circle ") >= inst.world.width * inst.world.height
        if len(visited) > 1:
            assert "<polyline " in svg

    def test_items_labeled(self, sample):
        world = next(i.world for i in sample if i.world.items)
        svg = render_svg(world)
        for item in set(world.items.values()):
            assert f">{item}</text>" in svg


# Mix files with one bad weight beside a good one; json reads NaN and
# Infinity as floats and true passes isinstance(int).
BAD_WEIGHTS = ['{"TurnToX": NaN, "MoveToX": 1.0}', '{"TurnToX": Infinity, "MoveToX": 1.0}',
               '{"TurnToX": -Infinity, "MoveToX": 1.0}', '{"TurnToX": true, "MoveToX": 1.0}',
               '{"TurnToX": "1", "MoveToX": 1.0}', '{"TurnToX": 1%s, "MoveToX": 1.0}' % ("0" * 400)]


class TestMixResolution:
    def test_presets(self):
        assert resolve_mix("sail") == DEFAULT_MIX
        assert resolve_mix("fixed105k") == DEFAULT_MIX
        assert resolve_mix("norestriction") is None
        uniform = resolve_mix("uniform")
        assert set(uniform) == set(TaskCategory)
        assert all(w == pytest.approx(1 / 8) for w in uniform.values())

    def test_json_file(self, tmp_path):
        spec = tmp_path / "mix.json"
        spec.write_text(json.dumps({"LanguageOnly": 3, "MoveToX": 1}))
        mix = resolve_mix(str(spec))
        assert mix == {TaskCategory.LANGUAGE_ONLY: 3.0,
                       TaskCategory.MOVE_TO_X: 1.0}

    def test_bad_specs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            resolve_mix("notapreset")
        bad_cat = tmp_path / "bad.json"
        bad_cat.write_text(json.dumps({"Teleport": 1}))
        with pytest.raises(ValueError, match="unknown category"):
            resolve_mix(str(bad_cat))
        bad_weight = tmp_path / "weight.json"
        bad_weight.write_text(json.dumps({"MoveToX": -2}))
        with pytest.raises(ValueError, match="bad weight"):
            resolve_mix(str(bad_weight))
        for text in BAD_WEIGHTS:
            bad_weight.write_text(text)
            with pytest.raises(ValueError, match="bad weight for 'TurnToX'"):
                resolve_mix(str(bad_weight))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"MoveToX": 0}))
        with pytest.raises(ValueError, match="sum to zero"):
            resolve_mix(str(zero))
        zero.write_text('{"TurnToX": 1e308, "MoveToX": 1e308}')
        with pytest.raises(ValueError, match="sum to inf"):
            resolve_mix(str(zero))

    def test_env_var_seed_default(self, monkeypatch):
        monkeypatch.setenv("MAZENAV_SEED", "321")
        assert default_seed() == 321
        args = build_parser().parse_args(["gen", "--out", "x.jsonl"])
        assert args.seed == 321

    def test_bad_env_var_seed_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("MAZENAV_SEED", "abc")
        out = tmp_path / "x.jsonl"
        assert main(["gen", "--count", "2", "--out", str(out)]) == 2
        assert "error: MAZENAV_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One gen+train round shared by the workflow tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["gen", "--count", "30", "--mix", "uniform", "--seed", "5",
                   "--out", str(data), "--width", "5", "--height", "5"])
        assert rc == 0
        config = root / "model.json"
        config.write_text(json.dumps({"embed_dim": 8, "encoder_hidden": 8}))
        ckpt = root / "model.npz"
        rc = main(["train", "--data", str(data), "--variant", "lo",
                   "--config", str(config), "--seed", "1",
                   "--out-checkpoint", str(ckpt), "--max-epochs", "2"])
        assert rc == 0
    return {"root": root, "data": data, "config": config, "ckpt": ckpt}


class TestCliWorkflow:
    def test_gen_writes_dataset_and_manifest(self, workspace):
        data = workspace["data"]
        lines = data.read_text().strip().splitlines()
        assert len(lines) == 30
        manifest = json.loads((str(data) + ".manifest.json")
                              and open(str(data) + ".manifest.json").read())
        assert manifest["command"] == "gen"
        assert manifest["masterSeed"] == 5
        assert str(data) in manifest["artifacts"]
        assert manifest["config"]["count"] == 30
        assert manifest["timestamps"]["end"] >= manifest["timestamps"]["start"]
        env = manifest["environment"]
        assert sorted(env) == ["blas", "gitRevision", "numpy", "peakRssMb", "python",
                               "usableCpus"]
        assert env["gitRevision"] == cli._git_revision()
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] is None or sorted(env["blas"]) == ["name", "version"]
        assert env["usableCpus"] >= 1
        assert env["peakRssMb"] > 1.0

    def test_gen_is_reproducible(self, workspace, tmp_path, capsys):
        again = tmp_path / "again.jsonl"
        rc = main(["gen", "--count", "30", "--mix", "uniform", "--seed", "5",
                   "--out", str(again), "--width", "5", "--height", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["written"] == 30
        assert again.read_bytes() == workspace["data"].read_bytes()

    def test_gen_different_seed_differs(self, workspace, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        main(["gen", "--count", "30", "--mix", "uniform", "--seed", "6",
              "--out", str(other), "--width", "5", "--height", "5"])
        capsys.readouterr()
        assert other.read_bytes() != workspace["data"].read_bytes()

    def test_train_artifacts(self, workspace):
        ckpt = workspace["ckpt"]
        assert ckpt.exists()
        config = navmodel.load_checkpoint(str(ckpt)).config
        assert config.variant == "languageOnly"
        assert config.embed_dim == 8
        history = (str(ckpt) + ".history.csv")
        lines = open(history).read().strip().splitlines()
        assert lines[0] == "epoch,trainLoss,devSuccess"
        assert len(lines) == 3  # header + 2 epochs

    def test_eval_reports_rate(self, workspace, capsys, tmp_path):
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(workspace["data"]),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--beam", "1", "--limit", "10", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["instances"] == 10
        assert 0.0 <= summary["successRate"] <= 1.0
        assert json.loads(out.read_text()) == summary

    def test_eval_paragraph_mode(self, workspace, capsys):
        rc = main(["eval", "--data", str(workspace["data"]),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--mode", "paragraph", "--beam", "1", "--limit", "5"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["mode"] == "paragraph"

    def test_render_gold_overlay(self, workspace, capsys):
        rc = main(["render", "--map", str(workspace["data"]), "--index", "1",
                   "--gold"])
        assert rc == 0
        text = capsys.readouterr().out
        assert len(text.strip().splitlines()) == 2 * 5 - 1

    def test_render_svg_to_file(self, workspace, tmp_path):
        out = tmp_path / "map.svg"
        rc = main(["render", "--map", str(workspace["data"]),
                   "--format", "svg", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg ")

    def test_render_bare_map_json(self, tmp_path, capsys):
        import random

        world = generate_world(random.Random(3), WorldConfig(width=4, height=4))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(world_to_dict(world)))
        rc = main(["render", "--map", str(path)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7

    def test_render_explicit_path_overlay(self, workspace, capsys):
        rc = main(["render", "--map", str(workspace["data"]), "--index", "0",
                   "--path", "RIGHT,STOP"])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_bench_small_cap(self, capsys, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"embed_dim": 8, "encoder_hidden": 8}))
        out = tmp_path / "bench.json"
        rc = main(["bench", "--mix", "uniform", "--cap", "20",
                   "--eval-batch", "10", "--seed", "3", "--variant", "lo",
                   "--config", str(config), "--width", "5", "--height", "5",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["capExceeded"] is True
        assert summary["instancesToThreshold"] is None
        report = json.loads(out.read_text())
        assert len(report["accuracyTrace"]) == 2

    def test_hpo_smoke(self, capsys, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"embed_dim": 8, "encoder_hidden": 8}))
        rc = main(["hpo", "--param", "lr", "--lo", "1e-3", "--hi", "1e-2",
                   "--tol", "0.6", "--max-evals", "3", "--budget", "10",
                   "--eval-batch", "5", "--mix", "uniform", "--seed", "2",
                   "--variant", "lo", "--config", str(config),
                   "--width", "5", "--height", "5"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 1e-3 <= summary["best"] <= 1e-2
        assert summary["evals"] == 3


class TestGitRevision:
    HASH = "0123456789abcdef0123456789abcdef01234567"

    def test_checkout_head(self):
        # HEAD of the tests' own checkout, or None where the package runs from
        # no checkout; git itself is the reference where it can read the checkout
        revision = cli._git_revision()
        if not (cli._CHECKOUT / ".git").exists():
            assert revision is None
            return
        assert re.fullmatch("[0-9a-f]{40}([0-9a-f]{24})?", revision)
        try:
            expected = subprocess.run(
                ["git", "--git-dir", str(cli._CHECKOUT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return  # no git to compare with
        assert revision == expected

    @pytest.mark.parametrize("layout", ["detached", "loose", "packed", "unborn", "none"])
    def test_reads_head_without_git(self, tmp_path, monkeypatch, layout):
        git = tmp_path / ".git"
        if layout != "none":
            (git / "refs" / "heads").mkdir(parents=True)
            head = self.HASH if layout == "detached" else "ref: refs/heads/main"
            (git / "HEAD").write_text(head + "\n")
        if layout == "loose":
            (git / "refs" / "heads" / "main").write_text(self.HASH + "\n")
        if layout == "packed":
            (git / "packed-refs").write_text(
                "# pack-refs with: peeled fully-peeled sorted\n"
                f"{'f' * 40} refs/heads/other\n{self.HASH} refs/heads/main\n")
        monkeypatch.setattr(cli, "_CHECKOUT", tmp_path)
        expected = None if layout in ("unborn", "none") else self.HASH
        assert cli._git_revision() == expected


class TestCliErrors:
    def test_unknown_mix_exits_2(self, tmp_path, capsys):
        rc = main(["gen", "--count", "1", "--mix", "nope",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", BAD_WEIGHTS,
                             ids=["nan", "infinity", "-infinity", "bool", "string", "huge int"])
    def test_bad_mix_weight_exits_2(self, tmp_path, capsys, text):
        mix = tmp_path / "mix.json"
        mix.write_text(text)
        rc = main(["gen", "--count", "3", "--mix", str(mix), "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert f"error: mix file {str(mix)!r}: bad weight for 'TurnToX'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.json"]

    def test_eval_accepts_either_checkpoint_handle(self, workspace, capsys, tmp_path):
        from mazenav.navmodel import load_checkpoint, save_checkpoint

        # workspace["ckpt"] was saved as `model.npz`, beside the model-config
        # file `model.json`; save a copy as `bare`
        model = load_checkpoint(str(workspace["ckpt"]))
        save_checkpoint(model, str(tmp_path / "bare"))
        assert [p.name for p in tmp_path.iterdir()] == ["bare.npz"]
        handles = [str(workspace["ckpt"]), str(workspace["root"] / "model"),
                   str(tmp_path / "bare"), str(tmp_path / "bare.npz")]
        rates = []
        for handle in handles:
            rc = main(["eval", "--data", str(workspace["data"]), "--checkpoint", handle,
                       "--beam", "1", "--limit", "5"])
            assert rc == 0, handle
            rates.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
        assert all(r == rates[0] for r in rates)

    def test_train_with_bare_handle_keeps_same_named_config(self, workspace, tmp_path,
                                                            capsys):
        config = tmp_path / "m.json"
        config.write_text(workspace["config"].read_text())
        rc = main(["train", "--data", str(workspace["data"]), "--variant", "lo",
                   "--config", str(config), "--out-checkpoint", str(tmp_path / "m"),
                   "--max-epochs", "1"])
        assert rc == 0
        capsys.readouterr()
        assert config.read_text() == workspace["config"].read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.history.csv", "m.json", "m.manifest.json", "m.npz"]

    @pytest.mark.parametrize("size", [["--width", "12", "--height", "12"],
                                      ["--width", "0"], ["--height", "-3"]])
    def test_gen_rejects_world_size_up_front(self, size, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        rc = main(["gen", "--count", "3", "--out", str(out), *size])
        assert rc == 2
        err = capsys.readouterr().err
        assert "percept grid holds 20" in err or "must be >= 1" in err
        assert not out.exists()

    def test_bench_rejects_too_large_world(self, capsys):
        rc = main(["bench", "--cap", "10", "--width", "11", "--height", "4"])
        assert rc == 2
        assert "11x4" in capsys.readouterr().err

    def test_train_full_rejects_too_large_world(self, tmp_path, capsys):
        data = tmp_path / "big.jsonl"
        datastore.write_instances(
            generate_dataset(DEFAULT_MIX, 4, 3, config=WorldConfig(width=12, height=12)),
            str(data))
        ckpt = tmp_path / "m.npz"
        rc = main(["train", "--data", str(data), "--out-checkpoint", str(ckpt),
                   "--max-epochs", "1"])
        assert rc == 2
        assert "12x12" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("variants, rc", [(("full",), 2),
                                              (("languageOnly", "full"), 2),
                                              (("languageOnly", "bagOfFeatures"), 0)],
                             ids=["full", "lo+full", "lo+bof"])
    def test_eval_checks_full_members_grids_before_decoding(self, tmp_path, capsys,
                                                            monkeypatch, variants, rc):
        # 14x14 worlds have lines of sight of up to 27 cells: a full member
        # cannot encode them, the other variants read no grid
        data = tmp_path / "big.jsonl"
        datastore.write_instances(
            [generate_instance(None, WorldConfig(width=14, height=14), random.Random(k),
                               instance_id=k) for k in range(6)], str(data))
        vocab = datastore.Vocabulary(["go", "left", "right"])
        handles = []
        for k, variant in enumerate(variants):
            config = ModelConfig(vocab_size=len(vocab), embed_dim=8, encoder_hidden=8,
                                 attention_hidden=8, conv_channels=4,
                                 extra_convs=((3, 3, 4),), variant=variant)
            handles.append(str(tmp_path / f"m{k}"))
            save_checkpoint(NavModel(config, vocab, seed=k), handles[-1])
        decodes = []
        real_beam_search = navmodel.beam_search

        def counted(*args, **kwargs):
            decodes.append(1)
            return real_beam_search(*args, **kwargs)

        monkeypatch.setattr(navmodel, "beam_search", counted)
        assert main(["eval", "--data", str(data), "--checkpoint", *handles]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert f"error: {data}: instance 0: a 14x14 world has lines of sight of up to " \
                   "27 cells, the percept grid holds 20" in err
            assert not decodes
        else:
            assert json.loads(out.strip().splitlines()[-1])["instances"] == 6
            assert len(decodes) == 6

    def test_train_rejects_malformed_map_before_model(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        inst = next(iter(generate_dataset(DEFAULT_MIX, 1, 3, config=WorldConfig(3, 1, min_dist=1))))
        line = datastore.instance_to_dict(inst)
        line["map"]["edgeAttrs"].setdefault("blue", {}).setdefault("fish", []).append(2)
        data.write_text(json.dumps(line) + "\n")
        ckpt = tmp_path / "m.npz"
        rc = main(["train", "--data", str(data), "--out-checkpoint", str(ckpt),
                   "--max-epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{data}: line 1: edge [2, 0, 3, 0] (id 2) does not join grid neighbours "
                "of the 3x1 map") in err
        assert not ckpt.exists() and not (tmp_path / "m.npz.history.csv").exists()

    @pytest.mark.parametrize("fault, cause", MAP_FAULTS)
    def test_render_names_each_map_fault(self, tmp_path, capsys, fault, cause):
        data = line_instance()
        fault(data["map"])
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(data) + "\n")
        assert main(["render", "--map", str(path)]) == 2
        assert re.search(f"error: {re.escape(str(path))}: line 1: {cause}",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_train_and_eval_refuse_earlier_layouts_by_name(self, workspace, tmp_path, capsys,
                                                         version):
        data = tmp_path / "old.jsonl"
        data.write_text(json.dumps(earlier_layout(line_instance(), version)) + "\n")
        ckpt = tmp_path / "m.npz"
        for argv in (["train", "--out-checkpoint", str(ckpt)],
                     ["eval", "--checkpoint", str(workspace["ckpt"])]):
            assert main([*argv, "--data", str(data)]) == 2
            err = capsys.readouterr().err
            assert (f"error: {data}: line 1: edgeAttrs is a list of {{edge, floor, wall}} "
                    "entries, the map layout of JSONL versions 1 to 3") in err
            assert "regenerate the file with `mazenav gen`" in err
        assert not ckpt.exists()

    def test_train_rejects_empty_dev_split(self, tmp_path, capsys):
        # two instances split 2/0/0: no dev success can be measured, so
        # training would report 0.0 and keep its first epoch's parameters
        data = tmp_path / "two.jsonl"
        assert main(["gen", "--count", "2", "--seed", "0", "--out", str(data)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "m"
        rc = main(["train", "--data", str(data), "--out-checkpoint", str(ckpt),
                   "--max-epochs", "30"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2 instances split into 2 train, 0 dev and 0 test" in err
        assert not (tmp_path / "run").exists()

    def test_nonpositive_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "-5", "--out", str(out)])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--data", "d.jsonl", "--out-checkpoint", "m", "--limit", "-3"], "--limit"),
        (["train", "--data", "d.jsonl", "--out-checkpoint", "m", "--dev-limit", "-1"],
         "--dev-limit"),
        (["eval", "--data", "d.jsonl", "--checkpoint", "m", "--limit", "0"], "--limit"),
        (["bench", "--eval-batch", "-1"], "--eval-batch"),
        (["bench", "--cap", "0"], "--cap"),
        (["hpo", "--param", "lr", "--lo", "1", "--hi", "2", "--eval-batch", "0"],
         "--eval-batch"),
        (["hpo", "--param", "lr", "--lo", "1", "--hi", "2", "--budget", "-10"], "--budget"),
        (["train", "--data", "d.jsonl", "--out-checkpoint", "m", "--max-epochs", "0"],
         "--max-epochs"),
        (["gen", "--out", "d.jsonl", "--min-dist", "0"], "--min-dist"),
        (["bench", "--min-dist", "-2"], "--min-dist"),
    ])
    def test_nonpositive_count_flags_rejected(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        *(("train", "--lr", v) for v in ("nan", "-0.01", "0", "inf")),
        *(("bench", "--threshold", v) for v in ("nan", "0", "1.5", "inf", "-0.5")),
        ("hpo", "--lr", "nan"), ("hpo", "--threshold", "nan"), ("hpo", "--threshold", "0"),
        ("hpo", "--tol", "0"), ("hpo", "--tol", "nan"), ("hpo", "--lo", "0"),
        ("hpo", "--lo", "nan"), ("hpo", "--hi", "-2"), ("hpo", "--hi", "inf"),
        *(("gen", "--p-item", v) for v in ("nan", "-1", "1.5", "inf")),
        ("bench", "--p-item", "-1"), ("hpo", "--p-item", "1.5"),
    ], ids=lambda x: x)
    def test_bad_numeric_flags_rejected(self, command, flag, value, capsys):
        # at the start, before any data is read or any model trains
        argv = {"train": ["train", "--data", "d.jsonl", "--out-checkpoint", "m"],
                "gen": ["gen", "--count", "3", "--out", "d.jsonl"],
                "bench": ["bench"],
                "hpo": ["hpo", "--param", "lr", "--lo", "1", "--hi", "2"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        rule = {"--threshold": "must be in (0, 1]",
                "--p-item": "must be in [0, 1]"}.get(flag, "must be finite and > 0")
        assert f"argument {flag}: {rule}, got {value}" in capsys.readouterr().err

    def test_numeric_flags_accept_their_bounds(self):
        args = build_parser().parse_args(
            ["hpo", "--param", "lr", "--lo", "1e-4", "--hi", "1", "--tol", "0.01",
             "--lr", "0.5", "--threshold", "1"])
        assert (args.lo, args.hi, args.tol, args.lr, args.threshold) == (1e-4, 1, 0.01, 0.5, 1)
        for p_item in (0, 1):
            args = build_parser().parse_args(["gen", "--out", "d.jsonl", "--p-item", str(p_item)])
            assert args.p_item == p_item

    def test_missing_data_exits_2(self, capsys):
        rc = main(["eval", "--data", "/nonexistent.jsonl",
                   "--checkpoint", "also-missing"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, cause", [
        ("missing", "No such file or directory"),
        ("corrupt", "Bad CRC-32"),
        ("pickled", "contains pickled (object) data"),
        ("npy", "not an npz archive"),
        ("plain npz", "no '__checkpoint__' entry"),
        ("version 1", "which kept its config and vocabulary in a separate JSON file"),
        ("version 99", "unsupported checkpoint version 99"),
        ("unknown key", "unknown model-config keys ['bogus']"),
        ("str int", "model-config key 'embed_dim' must be of type int, got 'x'"),
        ("bool int", "model-config key 'embed_dim' must be of type int, got True"),
        ("float int", "model-config key 'beam_width' must be of type int, got 2.5"),
        ("two-int conv", "model-config key 'extra_convs' must be a list of "
                         "[height, width, channels] int lists, got [[5, 5]]"),
        ("action count", "model-config key 'action_count' must be 4, the number of actions, "
                         "got 5"),
        ("zero beam", "model-config key 'beam_width' must be >= 1, got 0"),
        ("zero conv", "model-config key 'extra_convs' must hold sizes >= 1, got [[5, 5, 0]]"),
    ], ids=["missing", "corrupt", "pickled", "npy", "plain npz", "version 1", "version 99",
            "unknown key", "str int", "bool int", "float int", "two-int conv", "action count",
            "zero beam", "zero conv"])
    def test_eval_checks_checkpoints_before_reading_data(self, workspace, tmp_path, capsys,
                                                         fault, cause):
        # the data file's last line is malformed; a bad checkpoint is named
        # before the data file is parsed, so that line is never reached
        from mazenav.navmodel import load_checkpoint, save_checkpoint

        data = tmp_path / "data.jsonl"
        data.write_text(workspace["data"].read_text() + "{notjson\n")
        handle = str(tmp_path / fault.replace(" ", "_"))
        path = handle + ".npz"
        model = load_checkpoint(str(workspace["ckpt"]))
        if fault == "corrupt":
            save_checkpoint(model, handle)
            body = bytearray(open(path, "rb").read())
            body[len(body) // 2] ^= 1  # a byte of an entry's data
            open(path, "wb").write(body)
        elif fault == "pickled":
            with open(path, "wb") as fh:
                pickle.dump(model.state_dict(), fh)
        elif fault == "npy":
            with open(path, "wb") as fh:
                np.save(fh, model.param("out_b").data)
        elif fault in ("plain npz", "version 1"):
            np.savez(path, **model.state_dict())
            if fault == "version 1":  # with its sidecar, as version 1 saved it
                sidecar = {"version": 1, "config": model.config.to_dict(),
                           "vocab": model.vocab.to_list()}
                open(path + ".json", "w").write(json.dumps(sidecar))
        elif fault == "version 99":
            save_checkpoint(model, handle)
            rewrite_metadata(path, version=99)
        elif fault == "unknown key":
            save_checkpoint(model, handle)
            rewrite_metadata(path, config={**model.config.to_dict(), "bogus": 1})
        elif fault in BAD_CONFIG_VALUES:
            save_checkpoint(model, handle)
            rewrite_metadata(path, config={**model.config.to_dict(), **BAD_CONFIG_VALUES[fault]})
        rc = main(["eval", "--data", str(data),
                   "--checkpoint", str(workspace["ckpt"]), handle])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {handle!r}: {path}: " in err and cause in err
        assert str(data) not in err

    @pytest.mark.parametrize("text, cause", [
        ('{"embed_dim": 8, "bogus": 1}', "unknown model-config keys ['bogus']"),
        ("[1, 2]", "a model config is a JSON object, not list"),
        ("{notjson", "Expecting property name"),
        ('{"embed_dim": "x"}', "model-config key 'embed_dim' must be of type int, got 'x'"),
        ('{"embed_dim": true}', "model-config key 'embed_dim' must be of type int, got True"),
        ('{"beam_width": 2.5}', "model-config key 'beam_width' must be of type int, got 2.5"),
        ('{"variant": 1}', "model-config key 'variant' must be of type str, got 1"),
        ('{"extra_convs": [[5, 5]]}', "model-config key 'extra_convs' must be a list of "
                                      "[height, width, channels] int lists, got [[5, 5]]"),
        ('{"extra_convs": [[5, 5, 2.0]]}', "model-config key 'extra_convs' must be a list of "
                                           "[height, width, channels] int lists, got "
                                           "[[5, 5, 2.0]]"),
        ('{"action_count": 5}', "model-config key 'action_count' must be 4, the number of "
                                "actions, got 5"),
        ('{"max_actions": 0}', "model-config key 'max_actions' must be >= 1, got 0"),
        ('{"beam_width": 0}', "model-config key 'beam_width' must be >= 1, got 0"),
        ('{"embed_dim": 0}', "model-config key 'embed_dim' must be >= 1, got 0"),
        ('{"attention_hidden": 0}', "model-config key 'attention_hidden' must be >= 1, got 0"),
        ('{"conv_channels": 0}', "model-config key 'conv_channels' must be >= 1, got 0"),
        ('{"encoder_hidden": -1}', "model-config key 'encoder_hidden' must be >= 1, got -1"),
        ('{"extra_convs": [[0, 0, 0]]}', "model-config key 'extra_convs' must hold sizes >= 1, "
                                         "got [[0, 0, 0]]"),
        ('{"extra_convs": [[5, 5, 0]]}', "model-config key 'extra_convs' must hold sizes >= 1, "
                                         "got [[5, 5, 0]]"),
    ], ids=["unknown key", "list", "not json", "str int", "bool int", "float int", "int str",
            "two-int conv", "float conv", "action count", "zero max_actions", "zero beam_width",
            "zero embed_dim", "zero attention_hidden", "zero conv_channels",
            "negative encoder_hidden", "zero conv kernel", "zero conv channels"])
    @pytest.mark.parametrize("command", ["train", "bench", "hpo"])
    def test_bad_config_file_exits_2(self, workspace, tmp_path, capsys, command, text, cause):
        config = tmp_path / "config.json"
        config.write_text(text)
        argv = {"train": ["train", "--data", str(workspace["data"]),
                          "--out-checkpoint", str(tmp_path / "m")],
                "bench": ["bench", "--cap", "10"],
                "hpo": ["hpo", "--param", "lr", "--lo", "1e-4", "--hi", "1e-2",
                        "--budget", "10"]}[command]
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"error: --config {config}: {cause}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_bad_variant_exits_2(self, workspace, tmp_path, capsys):
        rc = main(["train", "--data", str(workspace["data"]),
                   "--variant", "cnnplus",
                   "--out-checkpoint", str(tmp_path / "m.npz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_render_index_out_of_range_exits_2(self, workspace, capsys):
        rc = main(["render", "--map", str(workspace["data"]), "--index", "99"])
        assert rc == 2
        assert re.search(r"out of range \(\d+ lines\)", capsys.readouterr().err)

    @pytest.mark.parametrize("index", ["-1", "-100"])
    def test_render_negative_index_exits_2(self, workspace, capsys, index):
        rc = main(["render", "--map", str(workspace["data"]), "--index", index])
        assert rc == 2
        assert f"--index must be >= 0, got {index}" in capsys.readouterr().err


    def test_corrupt_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{notjson\n")
        rc = main(["render", "--map", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, cause", [
        (lambda m: m.update(items=[]), "'list' object has no attribute 'items'"),
        (lambda m: [1, 2], "list indices must be integers"),
    ])
    def test_render_malformed_line_names_file_and_line(self, tmp_path, capsys,
                                                       mutate, cause):
        import random

        bare = world_to_dict(generate_world(random.Random(3), WorldConfig(4, 4)))
        good = json.dumps(bare)
        bad = json.dumps(mutate(bare) or bare)
        path = tmp_path / "map.jsonl"
        path.write_text(f"\n{good}\n{bad}\n")
        rc = main(["render", "--map", str(path), "--index", "1"])
        assert rc == 2
        assert f"error: {path}: line 3: {cause}" in capsys.readouterr().err

    def test_render_indented_map_exits_2_naming_line_1(self, tmp_path, capsys):
        import random

        world = generate_world(random.Random(3), WorldConfig(4, 4))
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(world_to_dict(world), indent=2))
        rc = main(["render", "--map", str(path)])
        assert rc == 2
        assert f"error: {path}: line 1: " in capsys.readouterr().err

    def test_render_help_names_the_line_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["render", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "each line holds an instance or a bare map" in help_text

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "mazenav.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "bench" in proc.stdout
