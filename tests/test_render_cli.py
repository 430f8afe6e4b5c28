"""Renderer output and command-line workflow tests.

The CLI tests drive main() in-process so exit codes and artifacts can be
checked cheaply; one subprocess test confirms the module entry point.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from mazenav import datastore
from mazenav.cli import MIX_PRESETS, build_parser, default_seed, main, resolve_mix
from mazenav.langgen import DEFAULT_MIX, TaskCategory, generate_dataset
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
                if edge in world.edges:
                    floor, wall = world.edge_attrs[edge]
                    assert seg == FLOOR_CHARS[floor] + WALL_CHARS[wall] + FLOOR_CHARS[floor]
                else:
                    assert seg == "   "
        for x in range(world.width):
            for y in range(world.height - 1):
                seg = lines[2 * y + 1][4 * x:4 * x + 2]
                edge = norm_edge((x, y), (x, y + 1))
                if edge in world.edges:
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
        assert svg.count("<line ") >= len(inst.world.edges)
        assert svg.count("<circle ") >= inst.world.width * inst.world.height
        if len(visited) > 1:
            assert "<polyline " in svg

    def test_items_labeled(self, sample):
        world = next(i.world for i in sample if i.world.items)
        svg = render_svg(world)
        for item in set(world.items.values()):
            assert f">{item}</text>" in svg


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
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"MoveToX": 0}))
        with pytest.raises(ValueError, match="sum to zero"):
            resolve_mix(str(zero))

    def test_env_var_seed_default(self, monkeypatch):
        monkeypatch.setenv("MAZENAV_SEED", "321")
        assert default_seed() == 321
        args = build_parser().parse_args(["gen", "--out", "x.jsonl"])
        assert args.seed == 321


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
        sidecar = json.loads((workspace["root"] / "model.npz.json").read_text())
        assert sidecar["config"]["variant"] == "languageOnly"
        assert sidecar["config"]["embed_dim"] == 8
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


class TestCliErrors:
    def test_unknown_mix_exits_2(self, tmp_path, capsys):
        rc = main(["gen", "--count", "1", "--mix", "nope",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_accepts_either_checkpoint_handle(self, workspace, capsys, tmp_path):
        from mazenav.navmodel import load_checkpoint, save_checkpoint

        # workspace["ckpt"] was saved as `model.npz`, beside the model-config
        # file `model.json`; save a copy as `bare`, and one with its sidecar
        # under the older name `<handle>.json`.
        model = load_checkpoint(str(workspace["ckpt"]))
        save_checkpoint(model, str(tmp_path / "bare"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.npz", "bare.npz.json"]
        save_checkpoint(model, str(tmp_path / "old"))
        (tmp_path / "old.npz.json").rename(tmp_path / "old.json")
        handles = [str(workspace["ckpt"]), str(workspace["root"] / "model"),
                   str(tmp_path / "bare"), str(tmp_path / "bare.npz"),
                   str(tmp_path / "old"), str(tmp_path / "old.npz")]
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
        assert (tmp_path / "m.npz").exists() and (tmp_path / "m.npz.json").exists()

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

    def test_nonpositive_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "-5", "--out", str(out)])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_exits_2(self, capsys):
        rc = main(["eval", "--data", "/nonexistent.jsonl",
                   "--checkpoint", "also-missing"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_variant_exits_2(self, workspace, tmp_path, capsys):
        rc = main(["train", "--data", str(workspace["data"]),
                   "--variant", "cnnplus",
                   "--out-checkpoint", str(tmp_path / "m.npz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_render_index_out_of_range_exits_2(self, workspace, capsys):
        rc = main(["render", "--map", str(workspace["data"]), "--index", "99"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


    def test_corrupt_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{notjson\n")
        rc = main(["render", "--map", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "mazenav.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "bench" in proc.stdout
