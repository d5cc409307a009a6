import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hnf
import hnf.cli
import hnf.layers
import hnf.trainer
from hnf.cli import main
from hnf.data import make_synthetic_blobs
from hnf.layers import load_network, save_network
from hnf.errors import DataError
from hnf.solvers import embed_previous_map, load_output_map, save_output_map


def run_module(*argv):
    """``python -m hnf ARGV`` in a child that imports this same package."""
    src = str(Path(hnf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hnf", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_train(tmp_path, *extra):
    out = tmp_path / "run"
    argv = ["train", "--data", "blobs", "--n1", "16", "--depth", "3",
            "--weights", "random", "--seed", "1", "--out", str(out), *extra]
    code = main(argv)
    return code, out


class TestTrainCommand:
    def test_blobs_run_writes_artifacts(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4
        rows = [json.loads(l) for l in lines]
        assert [r["layer"] for r in rows] == [0, 1, 2, 3]

        assert (out / "manifest.json").is_file()
        assert (out / "network.json").is_file()
        assert (out / "report.jsonl").is_file()
        assert (out / "report.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotonicity_certified"] is True
        net = load_network(out / manifest["artifacts"]["network"])
        assert net.depth == 3
        for rel in manifest["artifacts"]["maps"]:
            load_output_map(out / rel)

    def test_missing_data_path_exits_3(self, tmp_path, capsys):
        code = main(["train", "--data", "csv:/nonexistent/file.csv",
                     "--n1", "4", "--depth", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_depth_zero_exits_2(self, tmp_path):
        code = main(["train", "--data", "blobs", "--n1", "16",
                     "--depth", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_n1_below_input_dim_exits_2(self, tmp_path):
        code = main(["train", "--data", "blobs", "--n1", "2",
                     "--depth", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_split_zero_exits_2(self, tmp_path, capsys):
        src = tmp_path / "four.csv"
        src.write_text("1,2,A\n3,4,B\n2,1,A\n4,3,B\n")
        code = main(["train", "--data", f"csv:{src}", "--split", "0",
                     "--n1", "2", "--depth", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_train" in capsys.readouterr().err

    def test_memory_budget_env_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HNF_MEM_BUDGET", "10000")
        code, _ = run_train(tmp_path)
        assert code == 5

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "data = blobs\n"
            "n1 = 16\n"
            "depth = 2   # flags override this\n"
            "seed = 1\n"
            f"out = {tmp_path / 'cfg_run'}\n"
        )
        code = main(["train", "--config", str(cfgfile), "--depth", "3"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4

    def test_config_file_unknown_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "data = blobs\n"
            "n1 = 16\n"
            "depth = 2\n"
            "admm_iters = 100\n"
            f"out = {tmp_path / 'cfg_run'}\n"
        )
        assert main(["train", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert f"{cfgfile}:4: unknown key 'admm_iters'" in err
        assert "eps_schedule" in err
        assert not (tmp_path / "cfg_run").exists()

    @pytest.mark.parametrize("text, named", [
        (b"data = blobs\nn1 = \xff\n", "run.cfg"),
        (b"data = blobs\nn1 = abc\ndepth = 1\n", "n1 = 'abc'"),
    ], ids=["non-utf8", "bad-int"])
    def test_config_file_unreadable_value_exits_2(self, tmp_path, capsys,
                                                  text, named):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(text + f"out = {tmp_path / 'x'}\n".encode())
        assert main(["train", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "run.cfg" in err and named in err

    def test_retrain_leaves_no_stale_files(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        assert (out / "maps" / "map03.bin").is_file()
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                       if p.is_file())
        assert files == ["manifest.json", "maps/map00.bin", "maps/map00.json",
                         "maps/map01.bin", "maps/map01.json", "network.json",
                         "report.csv", "report.jsonl", "weights/w00.hnfw"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_non_run_out_dir_untouched(self, tmp_path, capsys):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        code, _ = run_train(tmp_path, "--out", str(out))
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes"]

    @pytest.mark.parametrize("manifest", [
        '{"name": "my-app", "version": "1.0"}', "not json", "[]"],
        ids=["foreign", "malformed", "list"])
    def test_foreign_manifest_dir_untouched(self, tmp_path, capsys,
                                            manifest):
        out = tmp_path / "app"
        out.mkdir()
        (out / "manifest.json").write_text(manifest)
        (out / "index.html").write_text("mine")
        code, _ = run_train(tmp_path, "--out", str(out))
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["index.html",
                                                         "manifest.json"]
        assert (out / "manifest.json").read_text() == manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["app"]

    def test_out_rechecked_before_swap(self, tmp_path, capsys, monkeypatch):
        _, out = run_train(tmp_path)
        real_save = save_network

        def save_then_foreign(net, run):
            real_save(net, run)
            (out / "manifest.json").write_text('{"name": "my-app"}')

        monkeypatch.setattr("hnf.cli.save_network", save_then_foreign)
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "1",
                     "--seed", "1", "--out", str(out)]) == 2
        assert "not replacing" in capsys.readouterr().err
        assert (out / "manifest.json").read_text() == '{"name": "my-app"}'
        assert (out / "maps" / "map03.bin").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_symlinked_out_replaces_target(self, tmp_path, capsys):
        _, real = run_train(tmp_path)
        link = tmp_path / "link"
        link.symlink_to(real, target_is_directory=True)
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "1",
                     "--seed", "1", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert not (real / "maps" / "map03.bin").exists()
        assert (real / "maps" / "map01.bin").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "run"]

    def test_failed_write_keeps_previous_run(self, tmp_path, capsys,
                                             monkeypatch):
        _, out = run_train(tmp_path)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real_save = save_output_map

        def save_then_fail(om, prefix):
            real_save(om, prefix)
            if om.layer_index == 1:
                raise OSError("disk full")

        monkeypatch.setattr("hnf.cli.save_output_map", save_then_fail)
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "2",
                     "--seed", "2", "--out", str(out)]) == 3
        assert "disk full" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_uncertified_chain_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "hnf.trainer.embed_previous_map",
            lambda o_prev, w: 0.5 * embed_previous_map(o_prev, w))
        code, out = run_train(tmp_path)
        assert code == 4
        assert "certification FAILED" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotonicity_certified"] is False

    def test_elm_train(self, tmp_path, capsys):
        out = tmp_path / "elm"
        code = main(["train", "--data", "blobs", "--n1", "32", "--depth", "2",
                     "--elm", "--out", str(out)])
        assert code == 0
        rows = [json.loads(l) for l in
                capsys.readouterr().out.splitlines() if l.strip()]
        assert [r["layer"] for r in rows] == [0, 2]
        assert rows[0]["nodes_cumulative"] == 32


class TestEvalCommand:
    def test_reproduces_report_numbers(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        report_rows = [json.loads(l) for l in
                       (out / "report.jsonl").read_text().splitlines()]
        capsys.readouterr()

        code = main(["eval", "--run", str(out)])
        assert code == 0
        table = capsys.readouterr().out.splitlines()
        body = [l for l in table[1:] if l.strip()]
        assert len(body) == 4
        for line, rec in zip(body, report_rows):
            cols = line.split()
            assert int(cols[0]) == rec["layer"]
            assert float(cols[1]) == pytest.approx(rec["train_cost"],
                                                   rel=1e-9)
            assert float(cols[2]) == pytest.approx(rec["train_acc"],
                                                   rel=1e-9)
            assert float(cols[4]) == pytest.approx(rec["test_acc"], rel=1e-9)

    def test_missing_manifest_exits_3(self, tmp_path):
        assert main(["eval", "--run", str(tmp_path / "nope")]) == 3

    def test_walks_each_split_once(self, trained_run, capsys, monkeypatch):
        calls = []
        real = hnf.layers.layer_forward
        monkeypatch.setattr("hnf.layers.layer_forward",
                            lambda *a: calls.append(1) or real(*a))
        assert main(["eval", "--run", str(trained_run)]) == 0
        assert len(calls) == 6  # depth 3, once per split
        calls.clear()
        assert main(["eval", "--run", str(trained_run), "--layer", "1"]) == 0
        assert len(calls) == 2

    def test_unknown_layer_exits_2(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--run", str(out), "--layer", "99"]) == 2

    def test_single_layer(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--run", str(out), "--layer", "2"]) == 0
        body = [l for l in capsys.readouterr().out.splitlines()[1:]
                if l.strip()]
        assert len(body) == 1

    def test_standardized_run_round_trips(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "--standardize")
        assert code == 0
        report_rows = [json.loads(l) for l in
                       (out / "report.jsonl").read_text().splitlines()]
        capsys.readouterr()
        assert main(["eval", "--run", str(out)]) == 0
        body = [l for l in capsys.readouterr().out.splitlines()[1:]
                if l.strip()]
        for line, rec in zip(body, report_rows):
            cols = line.split()
            assert float(cols[1]) == pytest.approx(rec["train_cost"],
                                                   rel=1e-9)

    def test_custom_delimiter_csv(self, tmp_path, capsys):
        src = tmp_path / "semi.csv"
        src.write_text("1;2;A\n3;4;B\n2;1;A\n4;3;B\n")
        out = tmp_path / "semirun"
        code = main(["train", "--data", f"csv:{src}", "--delimiter", ";",
                     "--n1", "2", "--depth", "1", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert main(["eval", "--run", str(out)]) == 0


class TestVerifyCommand:
    def test_fresh_network_passes(self, capsys):
        code = main(["verify", "--data", "blobs", "--n1", "16",
                     "--depth", "3", "--trials", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance_sandwich_lower" in out
        assert "inversion_round_trip" in out

    def test_saved_run_passes(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--run", str(out), "--data", "blobs",
                     "--trials", "25"]) == 0

    def test_dct_network_passes(self, capsys):
        assert main(["verify", "--data", "blobs", "--weights", "dct",
                     "--n1", "16", "--depth", "2", "--trials", "20"]) == 0

    def test_corrupted_weight_fails_with_4(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        capsys.readouterr()
        from hnf.matrixgen import WeightMatrix, load_weight, save_weight

        wpath = out / "weights" / "w01.hnfw"
        w = load_weight(wpath)
        entries = w.entries.copy()
        entries[:, 1] = entries[:, 0]
        save_weight(WeightMatrix(w.rows, w.cols, entries, w.kind, w.seed),
                    wpath)
        code = main(["verify", "--run", str(out), "--data", "blobs",
                     "--trials", "10"])
        assert code == 4

    def test_non_finite_weight_fails_with_nan_margins(self, tmp_path, capsys):
        """A NaN entry reaches every check: each counts its violations and
        reports nan, not a finite margin, as its worst."""
        out = tmp_path / "run"
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "2",
                     "--out", str(out)]) == 0
        from hnf.matrixgen import WeightMatrix, load_weight, save_weight

        wpath = out / "weights" / "w01.hnfw"
        w = load_weight(wpath)
        entries = w.entries.copy()
        entries[3, 2] = float("nan")
        save_weight(WeightMatrix(w.rows, w.cols, entries, w.kind, w.seed),
                    wpath)
        capsys.readouterr()
        assert main(["verify", "--run", str(out), "--trials", "300"]) == 4
        rows = {line.split()[0]: line.split()[1:4] for line in
                capsys.readouterr().out.splitlines()[1:]}
        assert len(rows) == 5
        assert rows["inversion_round_trip"][:2] == ["300", "300"]
        for name, (_, violations, margin) in rows.items():
            assert int(violations) > 0, name
            assert margin == "nan", name

    def test_zero_trials_exits_2(self):
        assert main(["verify", "--data", "blobs", "--trials", "0"]) == 2

    def test_fresh_network_is_built_not_trained(self, capsys, monkeypatch):
        argv = ["verify", "--data", "blobs", "--n1", "16", "--depth", "3",
                "--trials", "25"]
        assert main(argv) == 0
        table = capsys.readouterr().out

        def no_training(*args, **kwargs):
            raise AssertionError("verify trained a network")

        monkeypatch.setattr("hnf.cli.train", no_training)
        assert main(argv) == 0
        assert capsys.readouterr().out == table

    def test_fresh_network_over_budget_exits_5(self, capsys, monkeypatch):
        built = []
        real_make = hnf.trainer.make_random_orthonormal

        def make(rows, cols, seed):
            built.append(seed)
            return real_make(rows, cols, seed)

        monkeypatch.setattr("hnf.trainer.make_random_orthonormal", make)
        # 600 blob columns: layer 2 needs 316416 bytes, layer 3 656384
        monkeypatch.setenv("HNF_MEM_BUDGET", "400000")
        assert main(["verify", "--data", "blobs", "--n1", "16", "--depth",
                     "6", "--trials", "5"]) == 5
        assert "layer 3" in capsys.readouterr().err
        assert built == [1, 2]

    @pytest.mark.parametrize("budget,code,message", [
        ("1000", 5, "layer 1"), ("abc", 2, "HNF_MEM_BUDGET")])
    def test_fresh_network_reads_env_budget(self, monkeypatch, capsys,
                                            budget, code, message):
        monkeypatch.setenv("HNF_MEM_BUDGET", budget)
        assert main(["verify", "--data", "blobs", "--trials", "5"]) == code
        assert message in capsys.readouterr().err

    def test_run_without_data_checks_its_own_data(self, tmp_path, capsys,
                                                   monkeypatch):
        _, out = run_train(tmp_path, "--blob-p", "5")
        capsys.readouterr()
        seen = []
        real = hnf.cli.verify_invariants

        def recording(net, data, *args):
            seen.append(data)
            return real(net, data, *args)

        monkeypatch.setattr("hnf.cli.verify_invariants", recording)
        assert main(["verify", "--run", str(out), "--trials", "5"]) == 0
        expected = make_synthetic_blobs(5, 3, 600, 10.0, 1)
        assert seen[0].X.tobytes() == expected.X.tobytes()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    code, out = run_train(tmp_path_factory.mktemp("trained"))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def manifest_runs(trained_run, tmp_path_factory):
    """Runs whose manifests the corruption tests edit: plain blobs,
    standardized blobs, and a csv: source with --split."""
    base = tmp_path_factory.mktemp("manifest_runs")
    src = base / "data.csv"
    src.write_text("".join(f"{i % 5},{i * 7 % 11},{'AB'[i % 2]}\n"
                           for i in range(12)))
    code, std = run_train(base / "std", "--standardize")
    assert code == 0
    assert main(["train", "--data", f"csv:{src}", "--split", "8", "--n1", "4",
                 "--depth", "2", "--out", str(base / "csv")]) == 0
    return {"blobs": trained_run, "std": std, "csv": base / "csv"}


def corrupt_copy(trained_run, tmp_path, rel, edit):
    """A copy of the trained run with ``edit`` applied to the bytes of ``rel``."""
    run = tmp_path / "copy"
    shutil.copytree(trained_run, run)
    (run / rel).write_bytes(edit((run / rel).read_bytes()))
    return run


class TestCorruptArtifacts:
    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + b"\0" * 8],
                             ids=["truncated", "oversized"])
    def test_map_size_mismatch_exits_3(self, trained_run, tmp_path, capsys,
                                       edit):
        run = corrupt_copy(trained_run, tmp_path, "maps/map01.bin", edit)
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--data", "blobs",
                     "--trials", "5"]) == 3
        assert "map01.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("rel, key", [
        ("manifest.json", "artifacts"),
        ("network.json", "layers"),
        ("maps/map01.json", "rows"),
    ])
    @pytest.mark.parametrize("damage", ["malformed", "incomplete"])
    def test_bad_json_exits_3(self, trained_run, tmp_path, capsys, rel, key,
                              damage):
        def edit(raw):
            if damage == "malformed":
                return raw[: len(raw) // 2]
            doc = json.loads(raw)
            del doc[key]
            return json.dumps(doc).encode()

        run = corrupt_copy(trained_run, tmp_path, rel, edit)
        assert main(["eval", "--run", str(run)]) == 3
        assert rel.split("/")[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("rel, edit, named", [
        ("maps/map01.json", lambda d: d.update(matrix_file=""), "map01.json"),
        ("manifest.json", lambda d: d["artifacts"].update(network=""),
         "Is a directory"),
        ("manifest.json", lambda d: d["artifacts"]["maps"].__setitem__(1, "maps"),
         "Is a directory"),
        ("network.json", lambda d: d["layers"][0].update(activation="tanh"),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(file=""),
         "network.json"),
    ], ids=["map-file-empty", "network-empty", "map-entry-dir",
            "unknown-activation", "weight-file-empty"])
    def test_unreadable_artifact_path_exits_3(self, trained_run, tmp_path,
                                              capsys, rel, edit, named):
        def rewrite(raw):
            doc = json.loads(raw)
            edit(doc)
            return json.dumps(doc).encode()

        run = corrupt_copy(trained_run, tmp_path, rel, rewrite)
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--data", "blobs",
                     "--trials", "5"]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("run, edit", [
        ("std", lambda d: d.update(standardize_params="abc")),
        ("std", lambda d: d["standardize_params"]["mu"].__setitem__(0, "x")),
        ("std", lambda d: d["standardize_params"].pop("sigma")),
        ("std", lambda d: d["standardize_params"].update(mu=[0.0])),
        ("std", lambda d: d["standardize_params"]["sigma"].__setitem__(0, 0.0)),
        ("blobs", lambda d: d.update(data_options=[1])),
        ("blobs", lambda d: d["data_options"]["blobs"].update(p="abc")),
        ("blobs", lambda d: d["data_options"].update(blobs=[1])),
        ("csv", lambda d: d["data_options"].update(split="abc")),
        ("csv", lambda d: d["data_options"].update(split=20.5)),
        ("csv", lambda d: d["data_options"].update(label_col=[1])),
    ], ids=["std-not-object", "mu-not-number", "sigma-missing", "mu-short",
            "sigma-zero", "options-list", "blob-p-text", "blobs-list",
            "split-text", "split-fraction", "label-col-list"])
    def test_bad_manifest_field_exits_3(self, manifest_runs, tmp_path, capsys,
                                        run, edit):
        def rewrite(raw):
            doc = json.loads(raw)
            edit(doc)
            return json.dumps(doc).encode()

        copy = corrupt_copy(manifest_runs[run], tmp_path, "manifest.json",
                            rewrite)
        assert main(["eval", "--run", str(copy)]) == 3
        assert main(["verify", "--run", str(copy), "--trials", "5"]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("run", ["blobs", "std"])
    def test_data_of_another_width_exits_2(self, manifest_runs, tmp_path,
                                           capsys, run):
        def rewrite(raw):
            doc = json.loads(raw)
            doc["data_options"]["blobs"]["p"] = 5
            return json.dumps(doc).encode()

        copy = corrupt_copy(manifest_runs[run], tmp_path, "manifest.json",
                            rewrite)
        assert main(["eval", "--run", str(copy)]) == 2
        assert "5 features" in capsys.readouterr().err

    def test_missing_map_bin_is_data_error(self, trained_run, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(trained_run, run)
        (run / "maps" / "map01.bin").unlink()
        with pytest.raises(DataError, match="map01"):
            load_output_map(run / "maps" / "map01.json")

    @pytest.mark.parametrize("delimiter", [",", " "], ids=["comma", "space"])
    def test_non_utf8_csv_exits_3(self, tmp_path, capsys, delimiter):
        src = tmp_path / "bytes.csv"
        src.write_bytes(b"1.0,2.0,a\n\xff\xfe,3,b\n".replace(
            b",", delimiter.encode()))
        code = main(["train", "--data", f"csv:{src}", "--delimiter", delimiter,
                     "--n1", "2", "--depth", "1", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "bytes.csv" in capsys.readouterr().err

    def test_non_finite_csv_feature_exits_3(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("1,2,A\n3,nan,B\n2,1,A\n4,3,B\n")
        code = main(["train", "--data", f"csv:{src}", "--n1", "2",
                     "--depth", "1", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "row 2, column 2" in capsys.readouterr().err


class TestArgumentHandling:
    def test_bad_flag_exits_2(self):
        assert main(["train", "--no-such-flag"]) == 2

    @pytest.mark.parametrize("flag", ["--admm-iters=5", "--admm-penalty=1",
                                      "--admm-tol=0", "--warm-start"])
    def test_removed_solver_flags_exit_2(self, tmp_path, flag):
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "1",
                     "--out", str(tmp_path / "x"), flag]) == 2

    def test_retired_curves_command_exits_2(self, tmp_path):
        assert main(["curves", "--run", str(tmp_path)]) == 2

    def test_missing_required_configuration_exits_2(self, tmp_path):
        assert main(["train", "--data", "blobs",
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_data_scheme_exits_3(self, tmp_path):
        assert main(["train", "--data", "ftp:whatever", "--n1", "8",
                     "--depth", "1", "--out", str(tmp_path / "x")]) == 3

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "run"
        proc = run_module("train", "--data", "blobs", "--n1", "8",
                          "--depth", "1", "--seed", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").is_file()


class TestReproducibility:
    def test_model_artifacts_byte_identical_across_processes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_module("train", "--data", "blobs", "--n1", "16",
                              "--depth", "2", "--seed", "11", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        a, b = outs
        for rel in sorted(p.relative_to(a) for p in a.rglob("*")
                          if p.suffix in (".hnfw", ".bin")):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        rows_a = [json.loads(l) for l in
                  (a / "report.jsonl").read_text().splitlines()]
        rows_b = [json.loads(l) for l in
                  (b / "report.jsonl").read_text().splitlines()]
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("wall_ms"), rb.pop("wall_ms")
            assert ra == rb
