import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import hnf
import hnf.cli
import hnf.trainer
from hnf.cli import (load_network, load_output_map, main, save_network,
                     save_output_map)
from hnf.data import Dataset, load_csv, make_synthetic_blobs, split_dataset
from hnf.layers import HnfNetwork
from hnf.errors import DataError, ResourceError
from hnf.matrixgen import WeightMatrix
from hnf.solvers import embed_previous_map
from hnf.trainer import TrainConfig, build_network, verify_invariants

from conftest import ERROR_CLASSES, count_walk, exit_code_rows


def run_module(*argv, python=("-m", "hnf"), env=None):
    """``python -m hnf ARGV`` (or ``python PYTHON ARGV``) in a child that
    imports this same package, with ENV (by default this process's) as its
    environment."""
    env = os.environ if env is None else env
    src = str(Path(hnf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python, *argv],
                          capture_output=True, text=True,
                          env={**env, "PYTHONPATH": path})


def without_thread_timeout():
    """This process's environment without ``OPENBLAS_THREAD_TIMEOUT``."""
    return {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_THREAD_TIMEOUT"}


#: ``hnf ARGV`` with ``hnf.cli.FN`` probed (``python -c RSS_PROBE FN
#: ARGV...``): prints, as JSON, its exit code and how far each FN call
#: raised the process's peak RSS, in KiB. The peak is VmHWM, its own
#: address space's: on Linux a child's ru_maxrss starts at the peak of the
#: process that started it, here the test runner's.
RSS_PROBE = """
import json, sys
import hnf.cli
def peak():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
name, argv = sys.argv[1], sys.argv[2:]
real, growth = getattr(hnf.cli, name), []
def probed(*args):
    before = peak()
    result = real(*args)
    growth.append(peak() - before)
    return result
setattr(hnf.cli, name, probed)
print(json.dumps([hnf.cli.main(argv), growth]))
"""

#: ``hnf train`` arguments of a blobs run whose widest expanded train
#: features take 128 MiB: 64 rows on 262144 train columns.
BIG_BLOBS_RUN = ("--data", "blobs", "--blob-p", "4", "--blob-q", "2",
                 "--blob-n", "393216", "--n1", "4", "--depth", "4",
                 "--seed", "1")
BIG_BLOBS_FEATURES = 64 * 262144 * 8

#: ``hnf train`` arguments of a wide standardized blobs run, whose train
#: split's inputs take 32 MiB: 64 rows on 65536 train columns.
WIDE_STANDARDIZED_RUN = ("--data", "blobs", "--blob-p", "64", "--blob-q",
                         "2", "--blob-n", "98304", "--n1", "64", "--depth",
                         "1", "--seed", "1", "--standardize")
WIDE_TRAIN_INPUTS = 64 * 65536 * 8

#: ``hnf train`` arguments of a Letter-shaped blobs run (P = 16, Q = 26,
#: 2000 train columns, n1 = 250, features up to d = 2000). Without a
#: release of freed heap, glibc keeps about 24 MiB of the temporaries that
#: carry layer 2's Gram into layer 3's resident through the last solve.
LETTER_BLOBS_RUN = ("--data", "blobs", "--blob-p", "16", "--blob-q", "26",
                    "--blob-n", "3000", "--n1", "250", "--depth", "3",
                    "--seed", "1")

#: What a train call's peak RSS holds beyond the count build_network checks:
#: library code and OpenBLAS thread buffers first touched in the call
#: (2.7-3.1 MiB for a depth-1 run on 300 columns, 2 cores), and beside the
#: walk a block's targets and products and a solve's workspace (1.1 MiB of
#: numpy buffers beyond the count, traced on LETTER_BLOBS_RUN).
RSS_SLACK = 12 * 2 ** 20


def run_train(tmp_path, *extra):
    out = tmp_path / "run"
    argv = ["train", "--data", "blobs", "--n1", "16", "--depth", "3",
            "--weights", "random", "--seed", "1", "--out", str(out), *extra]
    code = main(argv)
    return code, out


def idx_parts(tmp_path) -> str:
    """A four-part ``idx:`` source: 60 train and 20 test images of 2 x 2
    pixels."""
    rng = np.random.default_rng(5)
    parts = []
    for name, n in (("train", 60), ("test", 20)):
        img, lbl = (tmp_path / f"{name}-{kind}.idx" for kind in "IL")
        img.write_bytes(struct.pack(">IIII", 0x803, n, 2, 2)
                        + rng.integers(0, 256, 4 * n, np.uint8).tobytes())
        lbl.write_bytes(struct.pack(">II", 0x801, n)
                        + (np.arange(n) % 10).astype(np.uint8).tobytes())
        parts += [str(img), str(lbl)]
    return "idx:" + ",".join(parts)


def refuse_data_reads(monkeypatch):
    """Make any read of data or of a run fail the test."""
    for name in ("_load_data", "_load_run"):
        monkeypatch.setattr(f"hnf.cli.{name}", lambda *a, **k: pytest.fail(
            "the data was read"))


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

    @pytest.mark.parametrize("source, sizes, rest", [
        ("blobs", [8, 3, 400, 200], ["separation", "seed", "source"]),
        ("csv", [2, 3, 20, 10], ["source", "csv_sha256", "split_seed"]),
        ("idx", [4, 10, 40, 20], ["source", "image_shape", "split_seed"]),
        ("idx4", [4, 10, 60, 20], ["source", "image_shape"]),
    ])
    def test_manifest_dataset_record(self, tmp_path, capsys, source, sizes,
                                     rest):
        """The manifest's ``dataset`` record: the name, P, Q, the split
        sizes and the label names, read from the dataset, then its
        provenance in the order its loader gives it."""
        src = tmp_path / "h.csv"
        src.write_text("f1,cls,f2\n" + "".join(
            f"{i % 7}.5,{'xyz'[i % 3]},{i % 5}\n" for i in range(30)))
        spec = idx_parts(tmp_path)
        data = {"blobs": ["blobs"],
                "csv": [f"csv:{src}", "--label-col", "cls", "--split", "20"],
                "idx": [",".join(spec.split(",")[:2]), "--split", "40"],
                "idx4": [spec]}[source]
        out = tmp_path / "run"
        assert main(["train", "--data", *data, "--n1", "8", "--depth", "1",
                     "--out", str(out)]) == 0
        record = json.loads((out / "manifest.json").read_text())["dataset"]
        assert list(record) == ["name", "P", "Q", "N_train", "N_test",
                                "label_names", *rest]
        assert [record[k] for k in ("P", "Q", "N_train", "N_test")] == sizes
        assert len(record["label_names"]) == sizes[1]

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

    def test_split_below_range_exits_2(self, tmp_path, capsys):
        src = tmp_path / "four.csv"
        src.write_text("1,2,A\n3,4,B\n2,1,A\n4,3,B\n")
        code = main(["train", "--data", f"csv:{src}", "--split", "-5",
                     "--n1", "2", "--depth", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("source", ["blobs", "idx"])
    def test_split_of_a_divided_source_exits_2(self, tmp_path, capsys,
                                               monkeypatch, source, via):
        """blobs and a four-part ``idx:`` source bring their own train/test
        division: a split of either, by flag or config line, is refused
        before any data is read, where it used to be ignored."""
        spec = "blobs" if source == "blobs" else idx_parts(tmp_path)
        out = tmp_path / "run"
        argv = ["train", "--n1", "8", "--depth", "1", "--out", str(out)]
        if via == "flag":
            argv += ["--data", spec, "--split", "99999"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"data = {spec}\nsplit = 99999\n")
            argv += ["--config", str(cfg)]
        refuse_data_reads(monkeypatch)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: --split (or split =) does not apply to" in err
        assert not out.exists()

    def test_idx_image_size_no_array_can_hold_exits_3(self, tmp_path,
                                                       capsys):
        """0 images of (2**32 - 1) x (2**32 - 1) pixels are a corrupt
        image file, named, not a numpy traceback."""
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1))
        lbl.write_bytes(struct.pack(">II", 0x801, 0))
        assert main(["train", "--data", f"idx:{img},{lbl}", "--n1", "4",
                     "--depth", "1", "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {img}: images of 4294967295 x ")
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_idx_label_count_not_its_bytes_exits_3(self, tmp_path, capsys):
        """A label file whose header counts 5 labels but holds 4 is named."""
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 5, 2, 2) + bytes(20))
        lbl.write_bytes(struct.pack(">II", 0x801, 5) + bytes(4))
        assert main(["train", "--data", f"idx:{img},{lbl}", "--n1", "4",
                     "--depth", "1", "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {lbl}: expected 5 labels, got 4\n"
        assert not (tmp_path / "run").exists()

    def test_idx_test_images_of_another_size_exit_3(self, tmp_path, capsys):
        """Test images of 3 x 3 pixels cannot join train images of 2 x 2."""
        parts = idx_parts(tmp_path).split(",")
        img = tmp_path / "test-3x3.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 20, 3, 3) + bytes(180))
        parts[2] = str(img)
        assert main(["train", "--data", ",".join(parts), "--n1", "4",
                     "--depth", "1", "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: train and test parts have mismatched "
                              "input dims: 4 vs 9")
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_standardize_trains_a_feature_near_1e200(self, tmp_path):
        """A feature scaled by 1e200 has a standard deviation past float64,
        but its statistics are formed at its own power of two: train
        certifies the run, and its own eval reads the recorded mu and
        sigma back and prints every train cost of the report."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 3)) * [1e200, 1.0, 1.0]
        src = tmp_path / "huge.csv"
        np.savetxt(src, np.column_stack([x, np.arange(60) % 3]),
                   fmt=["%.17g"] * 3 + ["%d"], delimiter=",")
        out = tmp_path / "run"
        proc = run_module("train", "--data", f"csv:{src}", "--split", "40",
                          "--n1", "4", "--depth", "2", "--standardize",
                          "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())[
            "monotonicity_certified"]
        proc = run_module("eval", "--run", str(out))
        assert proc.returncode == 0, proc.stderr
        printed = [line.split()[1] for line in proc.stdout.splitlines()[1:]]
        assert printed == [f"{json.loads(l)['train_cost']:.12e}" for l in
                           (out / "report.jsonl").read_text().splitlines()]

    def test_saturated_sigmoid_front_trains_under_warnings_as_errors(
            self, tmp_path):
        """Blobs 2000 apart drive a sigmoid front to exactly 0 and 1."""
        proc = run_module(
            "train", "--data", "blobs", "--blob-sep", "2000", "--n1", "16",
            "--depth", "2", "--elm", "--elm-activation", "sigmoid",
            "--out", str(tmp_path / "run"),
            env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_failed_eigensolve_exits_4(self, tmp_path, capsys, monkeypatch):
        """``dsyevr`` reporting ``info`` 1 fails the baseline's solve, which
        the eigensolver alone makes: a solver error naming the layer."""
        import hnf.solvers
        lapack = hnf.solvers._lapack()
        real = lapack.dsyevr
        monkeypatch.setattr(lapack, "dsyevr",
                            lambda *a, **k: (*real(*a, **k)[:-1], 1))
        code, out = run_train(tmp_path)
        assert code == 4 and not out.exists()
        err = capsys.readouterr().err
        assert err == "error: layer 0: solver failed: dsyevr failed: info 1\n"

    @pytest.mark.parametrize("suffix", ["e25", "e-25", "e100", "e-100",
                                        "e-150"])
    def test_features_far_from_unit_scale_train(self, tmp_path, capsys,
                                                suffix):
        """A CSV whose feature fields carry a suffix from ``e25`` to
        ``e-150`` trains, certified, to every cost of the plain CSV within
        1e-6 relative: the train features are prescaled by a power of two,
        so neither the float32 ``|z|`` products nor the Newton iterates
        overflow (exit 3 or 4) or underflow (a final cost 40% higher, or
        exit 2), and no floor binds the radii."""
        ds = make_synthetic_blobs(4, 3, 600, separation=3.0, seed=2)
        costs = []
        for name, tail in (("plain", ""), ("scaled", suffix)):
            src, out = tmp_path / f"{name}.csv", tmp_path / name
            src.write_text("".join(
                ",".join([*(f"{v:.6f}{tail}" for v in col), str(label)])
                + "\n" for col, label in zip(ds.X.T, ds.labels)))
            assert main(["train", "--data", f"csv:{src}", "--n1", "8",
                         "--depth", "3", "--seed", "1", "--out", str(out)]
                        ) == 0
            assert json.loads((out / "manifest.json").read_text())[
                "monotonicity_certified"]
            costs.append([json.loads(l)["train_cost"] for l in
                          (out / "report.jsonl").read_text().splitlines()])
        assert costs[1] == pytest.approx(costs[0], rel=1e-6, abs=0)

    def test_split_zero_exits_2(self, tmp_path, capsys):
        src = tmp_path / "four.csv"
        src.write_text("1,2,A\n3,4,B\n2,1,A\n4,3,B\n")
        code = main(["train", "--data", f"csv:{src}", "--split", "0",
                     "--n1", "2", "--depth", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "n_train" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads VmHWM from /proc/self/status")
    def test_train_peak_holds_half_the_widest_features(self, tmp_path):
        """The run's widest expanded train features would take 128 MiB;
        holding its pre-activations instead, half that, raises the peak
        RSS of the train call by less than three quarters of it."""
        out = tmp_path / "run"
        proc = run_module("train", "train", *BIG_BLOBS_RUN, "--out", str(out),
                          python=("-c", RSS_PROBE))
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(growth_kib) == 1
        assert json.loads((out / "manifest.json").read_text())[
            "dataset"]["N_train"] * 64 * 8 == BIG_BLOBS_FEATURES
        assert growth_kib[0] * 1024 < BIG_BLOBS_FEATURES * 3 / 4

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads VmHWM from /proc/self/status")
    def test_train_peak_is_within_the_budget_count(self, tmp_path):
        """Freed heap is handed back before each solve and pass, so the
        train call raises the peak RSS by less than the count build_network
        checks plus RSS_SLACK: a budget that far below the growth refuses
        the network."""
        out = tmp_path / "run"
        proc = run_module("train", "train", *LETTER_BLOBS_RUN,
                          "--out", str(out), python=("-c", RSS_PROBE))
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(growth_kib) == 1
        n_train = json.loads((out / "manifest.json").read_text())[
            "dataset"]["N_train"]
        budget = growth_kib[0] * 1024 - RSS_SLACK
        with pytest.raises(ResourceError, match="block buffer.*carry"):
            build_network(16, TrainConfig(n1=250, depth=3,
                                          memory_budget=budget), n_train)

    def test_memory_budget_env_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HNF_MEM_BUDGET", "10000")
        code, _ = run_train(tmp_path)
        assert code == 5

    @pytest.mark.parametrize("budget,code,message", [
        ("1000", 5, "layer 1"), ("abc", 2, "HNF_MEM_BUDGET"),
        ("0", 2, "memory_budget must be positive")])
    def test_reads_env_budget(self, tmp_path, monkeypatch, capsys, budget,
                              code, message):
        monkeypatch.setenv("HNF_MEM_BUDGET", budget)
        assert run_train(tmp_path)[0] == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    def test_config_file_booleans_in_any_case(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "cfg_run"
        cfgfile.write_text("data = blobs\nn1 = 16\ndepth = 1\n"
                           f"standardize = ON\nelm = No\nout = {out}\n")
        assert main(["train", "--config", str(cfgfile)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["standardize"], config["elm_front"]) == (True, False)

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
        (b"data = blobs\nn1 = 16\ndepth = 1\nstandardize = ture\n",
         "standardize = 'ture'"),
        (b"data = blobs\nn1 16\n", "run.cfg:2: expected 'key = value'"),
        (b"data = blobs\nn1 = 16\ndepth = 1\nlabel_col =  # none\n",
         "run.cfg:4: label_col has no value"),
        (b"data = blobs\nwarm_start =\n", "run.cfg:2: unknown key"),
        (b"data = blobs\nn1 = 16\ndepth = 2\nweights = foo\n",
         "run.cfg: weights = 'foo' is not one of ('random', 'dct')"),
        (b"data = blobs\nn1 = 16\ndepth = 2\nelm = on\n"
         b"elm_activation = tanh\n",
         "run.cfg: elm_activation = 'tanh' is not one of ('relu', 'sigmoid')"),
        (b"data = blobs\nn1 = 16\ndepth = 2\neps_schedule = halving\n",
         "run.cfg: eps_schedule = 'halving' is not one of ('exact', "
         "'doubling')"),
    ], ids=["non-utf8", "bad-int", "bad-bool", "no-equals", "empty-value",
            "unknown-empty", "bad-weights", "bad-elm-activation",
            "bad-eps-schedule"])
    def test_config_file_unreadable_value_exits_2(self, tmp_path, capsys,
                                                  text, named):
        """Each bad line fails alone, in one error line naming the file."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(text + f"out = {tmp_path / 'x'}\n".encode())
        assert main(["train", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "run.cfg" in err and named in err and err.count("error:") == 1
        assert not (tmp_path / "x").exists()

    def test_config_file_whitespace_delimiter_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        """Config values are stripped, so a tab delimiter there is an empty
        value: refused before the data is read, not taken as ','. Only the
        flag gives the tab."""
        src = tmp_path / "tab.csv"
        src.write_text("".join(f"{i % 5}\t{i % 3}\t{'AB'[i % 2]}\n"
                               for i in range(20)))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data = csv:{src}\nn1 = 4\ndepth = 1\n"
                           f"delimiter = \t\nout = {tmp_path / 'x'}\n")
        monkeypatch.setattr("hnf.cli.load_csv", lambda *a, **k: pytest.fail(
            "the data was read"))
        assert main(["train", "--config", str(cfgfile)]) == 2
        assert "run.cfg:4: delimiter has no value" in capsys.readouterr().err
        monkeypatch.undo()
        cfgfile.write_text(f"data = csv:{src}\nn1 = 4\ndepth = 1\n"
                           f"out = {tmp_path / 'x'}\n")
        assert main(["train", "--config", str(cfgfile),
                     "--delimiter", "\t"]) == 0

    @pytest.mark.parametrize("flag", ["--delimiter", "--label-col"])
    @pytest.mark.parametrize("command", ["train", "verify"])
    def test_empty_data_option_flag_exits_2(self, tmp_path, capsys,
                                            monkeypatch, command, flag):
        """An empty data-option flag is refused before the data is read, as
        an empty config value is: ``--delimiter ""`` is not taken as ','."""
        src = tmp_path / "tab.csv"
        src.write_text("".join(f"{i % 5}\t{i % 3}\t{'AB'[i % 2]}\n"
                               for i in range(6)))
        monkeypatch.setattr("hnf.cli.load_csv", lambda *a, **k: pytest.fail(
            "the data was read"))
        rest = (["--n1", "4", "--depth", "1", "--out", str(tmp_path / "x")]
                if command == "train" else ["--run", str(tmp_path / "run")])
        assert main([command, "--data", f"csv:{src}", flag, "", *rest]) == 2
        assert f"error: {flag} has no value" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--run", "RUN"], ["verify", "--run", "RUN"]],
        ids=["eval", "verify-run"])
    def test_empty_data_flag_exits_2(self, tmp_path, capsys, monkeypatch,
                                     argv):
        """An empty ``--data`` is refused before any data or run is read,
        not taken as the run's own source."""
        refuse_data_reads(monkeypatch)
        argv = [str(tmp_path / "run") if a == "RUN" else a for a in argv]
        assert main([*argv, "--data", ""]) == 2
        assert "error: --data has no value" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "verify"])
    def test_non_finite_blob_separation_exits_2(self, tmp_path, capsys,
                                                monkeypatch, trained_run,
                                                command, sep):
        """A NaN or infinite ``--blob-sep`` is a bad flag, refused before
        any blob is drawn, network built or invariant checked: it neither
        reads as a failed invariant check (exit 4) nor as non-finite data
        (exit 3)."""
        for name in ("train", "verify_invariants"):
            monkeypatch.setattr(f"hnf.cli.{name}", lambda *a, **k: pytest.fail(
                "the network was built"))
        monkeypatch.setattr("numpy.random.PCG64", lambda *a: pytest.fail(
            "the blobs were drawn"))
        rest = (["--n1", "4", "--depth", "1", "--out", str(tmp_path / "x")]
                if command == "train" else ["--run", str(trained_run)])
        assert main([command, "--data", "blobs", "--blob-sep", sep,
                     *rest]) == 2
        assert ("error: separation must be finite and >= 0, got "
                f"{float(sep)}") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, message", [
        ("n1 = 16\ndepth = 1\nout = {out}\n", "no data source"),
        ("data = blobs\nn1 = 16\ndepth = 1\n", "no output directory"),
        ("data = blobs\nn1 = 16\ndepth = 1\nweights = qr\nout = {out}\n",
         "run.cfg: weights = 'qr' is not one of ('random', 'dct')"),
    ], ids=["no-data", "no-out", "unknown-weights"])
    def test_config_file_settings_checked_exit_2(self, tmp_path, capsys,
                                                 text, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text.format(out=tmp_path / "x"))
        assert main(["train", "--config", str(cfgfile)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra, code, message", [
        (["--data", "csv:"], 3, "csv: needs a path"),
        (["--data", "idx:a"], 3, "idx: needs IMAGES,LABELS"),
        (["--delimiter", "ab"], 2, "delimiter must be one character"),
        (["--n1", "0"], 2, "n1 must be >= 1"),
    ], ids=["csv-no-path", "idx-one-part", "long-delimiter", "n1-zero"])
    def test_bad_data_or_network_flag_exits(self, tmp_path, capsys, extra,
                                            code, message):
        src = tmp_path / "four.csv"
        src.write_text("1,2,A\n3,4,B\n2,1,A\n4,3,B\n")
        assert main(["train", "--data", f"csv:{src}", "--n1", "2",
                     "--depth", "1", "--out", str(tmp_path / "x"),
                     *extra]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("target, exc, message", [
        ("hnf.cli.train", MemoryError(), "MemoryError"),
        ("hnf.trainer.least_squares", MemoryError("Unable to allocate 8 EiB"),
         "Unable to allocate 8 EiB"),
    ], ids=["train", "solve"])
    def test_out_of_memory_exits_5(self, tmp_path, capsys, monkeypatch,
                                   target, exc, message):
        """Running out of memory is a resource problem, in the solve too,
        and no traceback; no run directory is written."""
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, exhausted)
        code, out = run_train(tmp_path)
        assert code == 5
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_idx_train_and_test_parts_round_trip(self, tmp_path, capsys):
        """A four-part ``idx:`` source keeps its own split: 60 train and
        20 test images of 2 x 2 pixels. ``eval --run`` reproduces the
        report and ``verify --run`` passes."""
        out = tmp_path / "run"
        assert main(["train", "--data", idx_parts(tmp_path), "--n1", "8",
                     "--depth", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["dataset"]["N_train"],
                manifest["dataset"]["N_test"]) == (60, 20)
        rows = [json.loads(l) for l in
                (out / "report.jsonl").read_text().splitlines()]
        capsys.readouterr()
        assert main(["eval", "--run", str(out)]) == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert len(body) == len(rows) == 3
        for line, rec in zip(body, rows):
            assert float(line.split()[1]) == pytest.approx(rec["train_cost"],
                                                           rel=1e-9)
        assert main(["verify", "--run", str(out), "--trials", "5"]) == 0

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
        def halved(o_prev, w):
            witness, eps = embed_previous_map(o_prev, w)
            return 0.5 * witness, eps

        monkeypatch.setattr("hnf.trainer.embed_previous_map", halved)
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

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads VmHWM from /proc/self/status")
    def test_eval_peak_holds_no_split_sized_features(self, tmp_path):
        """The run's widest train features would take 128 MiB (64 x 262144
        float64); scoring a split a block of columns at a time raises the
        peak RSS of each evaluate call by less than a quarter of that."""
        out = tmp_path / "run"
        proc = run_module("train", *BIG_BLOBS_RUN, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())[
            "dataset"]["N_train"] * 64 * 8 == BIG_BLOBS_FEATURES
        proc = run_module("evaluate", "eval", "--run", str(out),
                          python=("-c", RSS_PROBE))
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(growth_kib) == 2
        assert max(growth_kib) * 1024 < BIG_BLOBS_FEATURES / 4

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads VmHWM from /proc/self/status")
    def test_eval_peak_holds_no_copy_of_the_inputs(self, tmp_path):
        """The run's train inputs take 32 MiB (64 x 65536 float64). Each
        block is read from the data and standardized on its own, with no
        copy of the split, so each evaluate call raises the peak RSS by
        less than a quarter of them."""
        out = tmp_path / "run"
        proc = run_module("train", *WIDE_STANDARDIZED_RUN, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())[
            "dataset"]["N_train"] * 64 * 8 == WIDE_TRAIN_INPUTS
        proc = run_module("evaluate", "eval", "--run", str(out),
                          python=("-c", RSS_PROBE))
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(growth_kib) == 2
        assert max(growth_kib) * 1024 < WIDE_TRAIN_INPUTS / 4

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="reads VmHWM from /proc/self/status")
    def test_blobs_hold_one_copy_of_their_data(self, tmp_path):
        """Blobs of 64 x 131072 inputs (64 MiB) and 4 x 131072 targets
        (4 MiB) raise the peak RSS of their making by at most both plus
        16 MiB: the class means are added in place, not gathered into a
        second copy of the inputs."""
        x_bytes, t_bytes = 64 * 131072 * 8, 4 * 131072 * 8
        run, blobs = tmp_path / "run", ["--data", "blobs", "--blob-p", "64",
                                        "--blob-q", "4"]
        assert main(["train", *blobs, "--blob-n", "200", "--n1", "64",
                     "--depth", "1", "--out", str(run)]) == 0
        proc = run_module("make_synthetic_blobs", "verify", "--run", str(run),
                          *blobs, "--blob-n", "131072", "--trials", "1",
                          python=("-c", RSS_PROBE))
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(growth_kib) == 1
        assert growth_kib[0] * 1024 <= x_bytes + t_bytes + 16 * 2 ** 20

    def test_walks_each_split_once(self, trained_run, capsys, monkeypatch):
        calls = count_walk(monkeypatch)
        assert main(["eval", "--run", str(trained_run)]) == 0
        assert len(calls) == 6  # depth 3, once per split
        calls.clear()
        assert main(["eval", "--run", str(trained_run), "--layer", "1"]) == 0
        assert len(calls) == 2

    @staticmethod
    def labelled_csv(path, labels):
        """60 rows of 4 features, class B shifted from class A; ``labels``
        gives the two names used for A and B."""
        rng = np.random.Generator(np.random.PCG64(5))
        rows = [(rng.standard_normal(4) + 1.5 * (i % 2), labels[i % 2])
                for i in range(60)]
        path.write_text("".join(",".join(f"{v:.6f}" for v in x) + f",{lab}\n"
                                for x, lab in rows))
        return path

    @staticmethod
    def correct_count(stdout):
        """Rows classified right over both splits (40 train, 20 test)."""
        cols = stdout.splitlines()[1].split()
        return round(40 * float(cols[2]) + 20 * float(cols[4]))

    def test_labels_in_another_order_keep_their_classes(self, tmp_path,
                                                       capsys):
        ab = self.labelled_csv(tmp_path / "ab.csv", "AB")
        lines = ab.read_text().splitlines(keepends=True)
        ba = tmp_path / "ba.csv"  # the same rows, rotated so B comes first
        ba.write_text("".join(lines[1:] + lines[:1]))
        run = tmp_path / "rab"
        assert main(["train", "--data", f"csv:{ab}", "--split", "40",
                     "--n1", "4", "--depth", "1", "--out", str(run)]) == 0
        capsys.readouterr()
        counts = []
        for src in (ab, ba):
            assert main(["eval", "--run", str(run), "--data",
                         f"csv:{src}"]) == 0
            counts.append(self.correct_count(capsys.readouterr().out))
        assert counts[0] == counts[1] >= 45

    def test_label_the_run_never_saw_exits_2(self, tmp_path, capsys):
        run = tmp_path / "rab"
        assert main(["train", "--data",
                     f"csv:{self.labelled_csv(tmp_path / 'ab.csv', 'AB')}",
                     "--split", "40", "--n1", "4", "--depth", "1",
                     "--out", str(run)]) == 0
        ac = self.labelled_csv(tmp_path / "ac.csv", "AC")
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", f"csv:{ac}"]) == 2
        err = capsys.readouterr().err
        assert "'C'" in err and "Traceback" not in err

    def test_file_without_one_of_the_run_s_classes(self, tmp_path, capsys):
        """A file lacking one of the run's classes is scored with its labels
        mapped onto the run's label_names: eval prints the scores evaluate
        gives the relabeled data. A label the run never saw exits 2."""
        rng = np.random.Generator(np.random.PCG64(7))
        rows = [(rng.standard_normal(4) + 1.5 * (i % 3), "ABC"[i % 3])
                for i in range(90)]
        src, sub = tmp_path / "abc.csv", tmp_path / "ac.csv"
        for path, keep in ((src, "ABC"), (sub, "AC")):
            path.write_text("".join(
                ",".join(f"{v:.6f}" for v in x) + f",{lab}\n"
                for x, lab in rows if lab in keep))
        run = tmp_path / "rabc"
        assert main(["train", "--data", f"csv:{src}", "--split", "45",
                     "--n1", "4", "--depth", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", f"csv:{sub}"]) == 0
        body = capsys.readouterr().out.splitlines()[1:]
        data, transform, net, maps, names = hnf.cli._load_run(
            str(run), f"csv:{sub}")
        assert data.label_names == ["A", "C"] and names == ["A", "B", "C"]
        data = data.relabel(names)
        train, test = (hnf.trainer.evaluate(net, maps, data, split, transform)
                       for split in ("train", "test"))
        assert [line.split() for line in body] == [
            [str(k), f"{train[k].cost:.12e}", f"{train[k].accuracy:.10f}",
             f"{test[k].cost:.12e}", f"{test[k].accuracy:.10f}"]
            for k in sorted(train)]
        sub.write_text(sub.read_text().replace(",C\n", ",D\n"))
        assert main(["eval", "--run", str(run), "--data", f"csv:{sub}"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "['D']" in err

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
    def test_saved_run_passes(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--run", str(out), "--data", "blobs",
                     "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "distance_sandwich_lower" in out
        assert "inversion_round_trip" in out

    def test_fresh_network_passes(self):
        """A network built but not trained is checked in Python, not by the
        command: ``build_network`` plus ``verify_invariants`` passes every
        check on blobs."""
        data = make_synthetic_blobs(8, 3, 600, 10.0, 0)
        net = build_network(8, TrainConfig(n1=16, depth=3),
                            len(data.train_idx))
        report = verify_invariants(net, data, 25)
        assert [c.name for c in report.checks] == list(
            hnf.trainer.CHECK_NAMES)
        assert report.passed
        assert all(c.count > 0 for c in report.checks)

    def test_dct_network_passes(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", "blobs", "--weights", "dct", "--n1",
                     "16", "--depth", "2", "--out", str(run)]) == 0
        assert main(["verify", "--run", str(run), "--trials", "20"]) == 0

    @pytest.mark.parametrize("flags, cfg", [
        (["--seed", "4"], TrainConfig(n1=16, depth=3, seed=4)),
        (["--weights", "dct"], TrainConfig(n1=16, depth=3, weight_kind="dct")),
        (["--n1", "24", "--seed", "2", "--elm", "--elm-activation",
          "sigmoid"], TrainConfig(n1=24, depth=3, seed=2, elm_front=True,
                                  elm_activation="sigmoid")),
    ], ids=["random", "dct", "elm"])
    def test_run_checks_the_network_its_config_builds(self, tmp_path, capsys,
                                                      flags, cfg):
        """A run's network, loaded back, checks as the network its config
        builds on the same data, trials and seed do: ``train``, then
        ``verify --run``, checks what ``build_network`` gives."""
        run = tmp_path / "run"
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "3",
                     *flags, "--out", str(run)]) == 0
        data = make_synthetic_blobs(8, 3, 600, 10.0, cfg.seed)
        built = build_network(8, cfg, len(data.train_idx))
        loaded = load_network(run / "network.json")
        assert verify_invariants(loaded, data, 60, 7) == verify_invariants(
            built, data, 60, 7)

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
        """In memory, a NaN entry reaches every check: each counts its
        violations and reports nan, not a finite margin, as its worst. In a
        run's weight file it is a corrupt file: verify exits 3 naming it."""
        blobs = make_synthetic_blobs(8, 3, 500, separation=6.0, seed=3)
        net = build_network(8, TrainConfig(n1=16, depth=2), 1)
        w = net.layers[0].weight
        entries = w.entries.copy()
        entries[3, 2] = float("nan")
        net = HnfNetwork((replace(net.layers[0], weight=WeightMatrix(
            w.rows, w.cols, entries, w.kind, w.seed)), *net.layers[1:]))
        report = verify_invariants(net, blobs, trials=300)
        assert len(report.checks) == 5
        by_name = {c.name: c for c in report.checks}
        inversion = by_name["inversion_round_trip"]
        assert (inversion.count, inversion.violations) == (300, 300)
        for c in report.checks:
            assert c.violations > 0, c.name
            assert math.isnan(c.worst_margin), c.name

        out = tmp_path / "run"
        assert main(["train", "--data", "blobs", "--n1", "16", "--depth", "2",
                     "--out", str(out)]) == 0
        wpath = out / "weights" / "w01.hnfw"
        raw = bytearray(wpath.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        wpath.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["verify", "--run", str(out), "--trials", "300"]) == 3
        err = capsys.readouterr().err
        assert "w01.hnfw" in err and "Traceback" not in err

    def test_unchecked_check_prints_no_nan(self, tmp_path, capsys):
        """On all-zero features the norm check has no input to check: it
        prints a count of 0 and no margin, not the nan of a violation, and
        the sandwich counts only the pairs drawn apart."""
        src, run = tmp_path / "zero.csv", tmp_path / "run"
        src.write_text("0,0,A\n0,0,B\n0,0,A\n0,0,B\n")
        assert main(["train", "--data", f"csv:{src}", "--n1", "2",
                     "--depth", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["verify", "--run", str(run), "--trials", "5"]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1:] for line in
                out.splitlines()[1:]}
        assert rows["norm_preservation"] == ["0", "0", "-"]
        assert 0 < int(rows["distance_sandwich_lower"][0]) < 5
        assert "nan" not in out

    def test_zero_trials_exits_2(self, tmp_path, capsys, monkeypatch):
        refuse_data_reads(monkeypatch)
        assert main(["verify", "--run", str(tmp_path / "run"),
                     "--trials", "0"]) == 2
        assert "--trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["default", "blobs", "idx", "run"])
    def test_split_of_a_divided_source_exits_2(self, tmp_path, capsys,
                                               monkeypatch, trained_run,
                                               source):
        """As for train, a split of blobs, of a four-part ``idx:`` source,
        or of the run's own source (a blobs run's here) is refused before
        any data or run is read, whether the run exists or not."""
        norun = ["--run", str(tmp_path / "no-run")]
        data = {"default": norun, "blobs": [*norun, "--data", "blobs"],
                "idx": [*norun, "--data", idx_parts(tmp_path)],
                "run": ["--run", str(trained_run), "--data", "blobs"]}[source]
        refuse_data_reads(monkeypatch)
        assert main(["verify", *data, "--split", "99999", "--trials",
                     "5"]) == 2
        assert "does not apply to" in capsys.readouterr().err

    def test_recorded_split_of_a_divided_source_still_loads(
            self, trained_run, tmp_path, capsys):
        """A run whose manifest recorded a split that train then ignored
        still loads in eval and verify --run, as it always did."""
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        TestCsvSnapshot.edit_record(
            run, lambda d: d["data_options"].update(split=99999))
        got = audit(run, capsys)
        assert got == audit(trained_run, capsys)
        assert [code for code, _ in got] == [0, 0]

    def test_overflowing_inputs_exit_3(self, tmp_path, capsys, monkeypatch,
                                       trained_run, recwarn):
        """Finite blobs whose squares overflow float64 are a data problem
        for both commands: train names their largest magnitude, past the
        2^500 its prescale takes, and verify, which checks squared norms at
        the inputs' scale, refuses them before it walks, with no margin of
        nan, exit 4 or RuntimeWarning."""
        out = tmp_path / "run"
        assert main(["train", "--data", "blobs", "--blob-sep", "1e200",
                     "--n1", "16", "--depth", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        # every blob sits 1e200 / sqrt(2) from 0 along one axis
        assert f"magnitude, {1e200 / math.sqrt(2):g}, is not" in err
        assert not out.exists()
        monkeypatch.setattr("hnf.trainer.walk", lambda *a: pytest.fail(
            "verify walked the network"))
        assert main(["verify", "--run", str(trained_run), "--data", "blobs",
                     "--blob-sep", "1e200", "--trials", "20"]) == 3
        out, err = capsys.readouterr()
        assert "squared norm overflows float64" in err
        assert out == "" and "Traceback" not in err
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command, message", [
        ("train", "empty train split"), ("verify", "no samples")],
        ids=["train", "verify"])
    def test_empty_dataset_exits_3(self, tmp_path, capsys, command, message):
        """An IDX pair of 0 images of 2 x 2 pixels leaves nothing to train
        on or, for a run of 4 inputs, draw trials from: a data problem for
        both commands."""
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 0, 2, 2))
        lbl.write_bytes(struct.pack(">II", 0x801, 0))
        if command == "train":
            rest = ["--n1", "4", "--depth", "2", "--out",
                    str(tmp_path / "run")]
        else:
            assert run_train(tmp_path, "--blob-p", "4")[0] == 0
            rest = ["--run", str(tmp_path / "run")]
            capsys.readouterr()
        assert main([command, *rest, "--data", f"idx:{img},{lbl}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert str(img) in err and "Traceback" not in err

    def test_one_feature_csv_passes(self, tmp_path, capsys):
        src, run = tmp_path / "one.csv", tmp_path / "run"
        src.write_text("".join(f"{i % 7 - 3},{'AB'[i % 2]}\n" for i in range(40)))
        assert main(["train", "--data", f"csv:{src}", "--n1", "4",
                     "--depth", "2", "--out", str(run)]) == 0
        assert main(["verify", "--run", str(run), "--trials", "50"]) == 0

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


def count_parses(monkeypatch) -> list:
    """Patch np.loadtxt, which every CSV parse calls, to log its calls."""
    calls, real = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def audit(run, capsys, data=(), split=("--split", "40")):
    """``(exit code, stdout)`` of ``eval`` and ``verify`` of ``run``, each
    with ``data`` (and ``split`` for verify) when given; no traceback."""
    results = []
    for argv in (["eval", "--run", str(run), *data],
                 ["verify", "--run", str(run), *data, *(data and split),
                  "--trials", "5"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        results.append((code, out))
    return results


def without_snapshot(run, tmp_path):
    """A copy of ``run`` with its table snapshot deleted, so that its
    audits parse the CSV."""
    copy = tmp_path / "parsed"
    shutil.copytree(run, copy)
    (copy / hnf.cli.SNAPSHOT_FILE).unlink(missing_ok=True)
    return copy


class TestCsvSnapshot:
    """``train`` on a csv: source writes the parsed table into the run;
    ``eval`` and ``verify --run`` read it only while the CSV's bytes and
    parse options are the ones it was keyed to, and print what a parse
    would make them print in every case."""

    @pytest.fixture
    def csv_run(self, tmp_path, capsys):
        src = TestEvalCommand.labelled_csv(tmp_path / "ab.csv", "AB")
        run = tmp_path / "run"
        assert main(["train", "--data", f"csv:{src}", "--split", "40",
                     "--n1", "4", "--depth", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        assert (run / hnf.cli.SNAPSHOT_FILE).is_file()
        return src, run

    def test_unchanged_csv_is_not_parsed(self, csv_run, capsys, monkeypatch,
                                         tmp_path):
        src, run = csv_run
        parses = count_parses(monkeypatch)
        got = audit(run, capsys) + audit(run, capsys, ("--data", f"csv:{src}"))
        assert parses == []
        assert got == 2 * audit(without_snapshot(run, tmp_path), capsys)

    def test_manifest_empty_delimiter_still_loads(self, csv_run, capsys):
        """A run whose manifest records ``delimiter: ""`` (as a train given
        ``--delimiter ""`` wrote) still reads its data with ','."""
        _, run = csv_run
        want = audit(run, capsys)
        TestCsvSnapshot.edit_record(
            run, lambda d: d["data_options"].update(delimiter=""))
        assert audit(run, capsys) == want
        assert [code for code, _ in want] == [0, 0]

    def test_eval_puts_labels_in_the_run_order(self, csv_run, capsys,
                                               monkeypatch, tmp_path):
        """eval reads the snapshot, whose labels are in the run's order,
        and splits it: two datasets, each checked in full. Data whose
        labels come in another order is parsed and split, and only then
        are its labels renumbered to the run's order, by name: a third."""
        src, run = csv_run
        lines = src.read_text().splitlines(keepends=True)
        ba = tmp_path / "ba.csv"  # the same rows, rotated so B comes first
        ba.write_text("".join(lines[1:] + lines[:1]))
        built, scored, real = [], [], Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__",
                            lambda ds: built.append(ds) or real(ds))
        real_evaluate = hnf.cli.evaluate
        monkeypatch.setattr("hnf.cli.evaluate", lambda net, maps, data, *a:
                            scored.append(data) or real_evaluate(
                                net, maps, data, *a))
        for path, datasets in ((src, 2), (ba, 3)):
            built.clear()
            scored.clear()
            data = () if path == src else ("--data", f"csv:{path}")
            assert main(["eval", "--run", str(run), *data]) == 0
            assert len(built) == datasets
            names = [line.rsplit(",", 1)[1].strip()
                     for line in path.read_text().splitlines()]
            want = [["A", "B"].index(name) for name in names]
            assert [d.labels.tolist() for d in scored] == [want, want]
        assert built[0].label_names == ["B", "A"]

    def test_changed_byte_is_parsed_again(self, csv_run, capsys, monkeypatch,
                                          tmp_path):
        src, run = csv_run
        text = src.read_text()
        at = text.index(".") + 1  # the first feature's first decimal
        src.write_text(text[:at] + "9876543210"[int(text[at])]
                       + text[at + 1:])
        parses = count_parses(monkeypatch)
        got = audit(run, capsys)
        assert parses
        assert got == audit(without_snapshot(run, tmp_path), capsys)
        assert [code for code, _ in got] == [0, 0]

    def test_key_is_the_content_not_the_path(self, csv_run, capsys,
                                             monkeypatch, tmp_path):
        src, run = csv_run
        copy = tmp_path / "copy.csv"
        shutil.copyfile(src, copy)
        other = tmp_path / "ba.csv"  # the same rows, B first
        lines = src.read_text().splitlines(keepends=True)
        other.write_text("".join(lines[1:] + lines[:1]))
        parsed = without_snapshot(run, tmp_path)
        for path, hit in ((copy, True), (other, False)):
            parses = count_parses(monkeypatch)
            data = ("--data", f"csv:{path}")
            got = audit(run, capsys, data)
            assert bool(parses) != hit
            monkeypatch.undo()
            assert got == audit(parsed, capsys, data)
        # meta names the file given, not the one the run was trained on
        data, *_ = hnf.cli._load_run(str(run), f"csv:{copy}")
        assert (data.meta["name"], data.meta["source"]) == (
            "copy.csv", str(copy))

    @pytest.mark.parametrize("text, flags, label, delimiter", [
        ("f1,cls,f2\n" + "".join(f"{i % 7}.5,{'xyz'[i % 3]},{i % 5}\n"
                                 for i in range(30)),
         ("--label-col", "cls"), "cls", ","),
        ("".join(f"{i % 7};{i * 3 % 11};{'AB'[i % 2]}\n" for i in range(30)),
         ("--delimiter", ";"), -1, ";"),
        ("".join(f'{i % 7},{i * 3 % 11},"{"AB"[i % 2]}\n{i % 2}, x"\n'
                 for i in range(30)), (), -1, ","),
        ("".join(f"{i % 7 * 100},{i * 3 % 11},{'AB'[i % 2]}\n"
                 for i in range(30)), ("--standardize",), -1, ","),
    ], ids=["header-name", "semicolon", "quoted-multiline", "standardize"])
    def test_snapshot_table_is_the_parsed_table(self, tmp_path, capsys,
                                                monkeypatch, text, flags,
                                                label, delimiter):
        src = tmp_path / "data.csv"
        src.write_text(text)
        run = tmp_path / "run"
        assert main(["train", "--data", f"csv:{src}", *flags, "--split", "20",
                     "--split-seed", "4", "--n1", "4", "--depth", "1",
                     "--out", str(run)]) == 0
        capsys.readouterr()
        parses = count_parses(monkeypatch)
        data, *_ = hnf.cli._load_run(str(run))
        assert parses == []
        monkeypatch.undo()
        want = split_dataset(load_csv(src, label, delimiter,
                                      isinstance(label, str)), 20, 4)
        assert data.X.tobytes() == want.X.tobytes()
        assert data.X.strides == want.X.strides
        assert data.labels.tobytes() == want.labels.tobytes()
        assert data.n_classes == want.n_classes
        assert data.label_names == want.label_names
        assert data.train_idx.tobytes() == want.train_idx.tobytes()
        assert data.test_idx.tobytes() == want.test_idx.tobytes()
        assert data.meta == want.meta
        assert audit(run, capsys) == audit(without_snapshot(run, tmp_path),
                                           capsys)

    @staticmethod
    def edit_record(run, edit):
        doc = json.loads((run / "manifest.json").read_text())
        edit(doc)
        (run / "manifest.json").write_text(json.dumps(doc))

    @staticmethod
    def edit_snapshot(run, edit):
        snap = run / hnf.cli.SNAPSHOT_FILE
        snap.write_bytes(edit(snap.read_bytes()))

    @pytest.mark.parametrize("damage", [
        lambda run: (run / hnf.cli.SNAPSHOT_FILE).unlink(),
        lambda run: TestCsvSnapshot.edit_snapshot(run, lambda b: b[:-8]),
        lambda run: TestCsvSnapshot.edit_snapshot(
            run, lambda b: b[:len(b) // 2] + bytes([b[len(b) // 2] ^ 4])
            + b[len(b) // 2 + 1:]),
        lambda run: TestCsvSnapshot.edit_snapshot(run, lambda b: b + bytes(8)),
        lambda run: TestCsvSnapshot.edit_snapshot(  # features: 9 rows, not 4
            run, lambda b: b.replace(b"'shape': (4,", b"'shape': (9,")),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d.update(data_snapshot=[1])),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d["data_snapshot"].update(sha256=5)),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d["data_snapshot"].update(label_col=True)),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d["data_snapshot"].update(sha256="0" * 64)),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d["data_snapshot"].update(csv_sha256="0" * 64)),
        lambda run: TestCsvSnapshot.edit_record(
            run, lambda d: d["data_snapshot"].update(delimiter=";")),
        None,
    ], ids=["missing", "truncated", "bit-flipped", "trailing-bytes",
            "header-shape-past-the-end", "record-not-object",
            "digest-not-text", "label-col-bool", "wrong-digest",
            "wrong-csv-digest", "other-delimiter", "csv-rewritten-in-train"])
    def test_unusable_snapshot_is_ignored(self, tmp_path, capsys,
                                          monkeypatch, damage):
        src = TestEvalCommand.labelled_csv(tmp_path / "ab.csv", "AB")
        parsed = src.read_bytes()
        if damage is None:  # the file changes once the parse has read it
            real = hnf.cli.load_csv

            def parse_then_rewrite(path, **kw):
                ds = real(path, **kw)
                src.write_text("".join(src.read_text().splitlines(
                    keepends=True)[1:]))
                return ds

            monkeypatch.setattr(hnf.cli, "load_csv", parse_then_rewrite)
        run = tmp_path / "run"
        assert main(["train", "--data", f"csv:{src}", "--split", "40",
                     "--n1", "4", "--depth", "2", "--out", str(run)]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        if damage is None:  # keyed to the bytes parsed, which are gone
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["data_snapshot"]["csv_sha256"] == (
                hashlib.sha256(parsed).hexdigest())
        else:
            damage(run)
        parses = count_parses(monkeypatch)
        got = audit(run, capsys)
        assert parses
        assert got == audit(without_snapshot(run, tmp_path), capsys)
        assert [code for code, _ in got] == [0, 0]

    @pytest.mark.parametrize("renamed", [False, True],
                             ids=["in-place", "renamed-over"])
    def test_csv_rewritten_mid_parse(self, tmp_path, capsys, monkeypatch,
                                     renamed):
        """A CSV rewritten while train parses it, after the parse has read
        its first lines, gets a snapshot keyed to the bytes the parse read:
        all old ones when a new file is renamed over it, old then new ones
        when it is rewritten in place. Whether the old or the new bytes are
        then in the file, eval and verify print what a parse prints, and
        only the bytes parsed read the snapshot. Rows share one layout, so
        any mix of the two files parses."""
        rows = [f"{i % 7}.25,{i * 3 % 10}.5,{'AB'[i % 2]}\n"
                for i in range(6000)]
        old, new = "".join(rows), "".join(rows[3:] + rows[:3])
        src, run = tmp_path / "big.csv", tmp_path / "run"
        src.write_text(old)
        real = np.loadtxt

        def rewrite_mid_parse(lines, *args, **kwargs):
            if not isinstance(lines, list):  # the parse, not a field split
                lines = iter(lines)
                first = [next(lines) for _ in range(10)]
                (tmp_path / "new.csv").write_text(new)
                if renamed:
                    os.replace(tmp_path / "new.csv", src)
                else:
                    src.write_text(new)
                lines = chain(first, lines)
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewrite_mid_parse)
        assert main(["train", "--data", f"csv:{src}", "--split", "40",
                     "--n1", "4", "--depth", "2", "--out", str(run)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        key = json.loads((run / "manifest.json").read_text())["data_snapshot"]
        digests = {hashlib.sha256(text.encode()).hexdigest(): text
                   for text in (old, new)}
        assert digests.get(key["csv_sha256"]) == (old if renamed else None)
        parsed = without_snapshot(run, tmp_path)
        for text in (new, old):
            src.write_text(text)
            parses = count_parses(monkeypatch)
            got = audit(run, capsys)
            assert bool(parses) != (renamed and text == old)
            monkeypatch.undo()
            assert got == audit(parsed, capsys)
            assert [code for code, _ in got] == [0, 0]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    code, out = run_train(tmp_path_factory.mktemp("trained"))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def manifest_runs(trained_run, tmp_path_factory):
    """Runs whose manifests the corruption tests edit: plain blobs,
    standardized blobs, blobs behind an ELM front, and a csv: source with
    --split."""
    base = tmp_path_factory.mktemp("manifest_runs")
    src = base / "data.csv"
    src.write_text("".join(f"{i % 5},{i * 7 % 11},{'AB'[i % 2]}\n"
                           for i in range(12)))
    code, std = run_train(base / "std", "--standardize")
    assert code == 0
    code, elm = run_train(base / "elm", "--elm")
    assert code == 0
    assert main(["train", "--data", f"csv:{src}", "--split", "8", "--n1", "4",
                 "--depth", "2", "--out", str(base / "csv")]) == 0
    return {"blobs": trained_run, "std": std, "elm": elm, "csv": base / "csv"}


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

    @pytest.mark.parametrize("rel", ["maps/map02.bin", "weights/w02.hnfw"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_artifact_exits_3(self, trained_run, tmp_path, capsys,
                                         rel, value):
        """A map or weight file holding a NaN or infinity is corrupt: eval
        and verify exit 3 naming it, and print no cost or margin."""
        def edit(raw):
            return raw[:-8] + np.array([value], dtype="<f8").tobytes()

        run = corrupt_copy(trained_run, tmp_path, rel, edit)
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--data", "blobs",
                     "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(Path(rel).name) == 2
        assert "Traceback" not in captured.err

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
        ("network.json", lambda d: d["layers"][1].update(
            activation="sigmoid"), "network.json"),
        ("network.json", lambda d: d["layers"][0].update(file=""),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(expand="no"),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(expand=None),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(activation=1),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(rows=16.0),
         "network.json"),
        ("network.json", lambda d: d["layers"][0].update(cols=True),
         "network.json"),
        ("maps/map01.json", lambda d: d.update(rows=3.0), "map01.json"),
        ("maps/map01.json", lambda d: d.update(cols="32"), "map01.json"),
        ("maps/map01.json", lambda d: d.update(layer_index=True), "map01.json"),
        ("maps/map01.json", lambda d: d.update(layer_index="1"), "map01.json"),
        ("maps/map01.json", lambda d: d.update(layer_index=2), "map01.json"),
        ("maps/map01.json", lambda d: d.update(layer_index=9), "map01.json"),
        ("maps/map01.json", lambda d: d.update(epsilon=-1), "map01.json"),
        ("maps/map01.json", lambda d: d.update(epsilon="1"), "map01.json"),
        ("maps/map01.json", lambda d: d.update(train_cost="0.5"),
         "map01.json"),
        ("manifest.json", lambda d: d["dataset"].update(
            label_names=[0, 1, 2]), "manifest.json"),
        ("manifest.json", lambda d: d["dataset"].update(
            label_names=["0", "1", None]), "manifest.json"),
        ("manifest.json", lambda d: d["dataset"].update(
            label_names=["0", "1", "1"]), "manifest.json"),
        ("manifest.json", lambda d: d["dataset"].update(
            label_names=["2", "1", "0", "9"]), "manifest.json"),
    ], ids=["map-file-empty", "network-empty", "map-entry-dir",
            "unknown-activation", "expanding-sigmoid", "weight-file-empty",
            "expand-text", "expand-null", "activation-number", "rows-float",
            "cols-bool", "map-rows-float", "map-cols-text", "layer-index-bool",
            "layer-index-text", "layer-index-wider", "layer-index-beyond",
            "epsilon-negative", "epsilon-text",
            "train-cost-text", "label-names-ints", "label-names-null-entry",
            "label-names-repeat", "label-names-count"])
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

    def test_relabeled_expanding_weight_exits_3(self, trained_run, tmp_path,
                                                capsys):
        """w01's header kind byte (offset 12) and its network.json record
        both relabeled RAW_GAUSSIAN: an expanding layer must be orthonormal,
        so eval and verify exit 3 naming network.json, and verify skips no
        check on such a network."""
        run = corrupt_copy(trained_run, tmp_path, "weights/w01.hnfw",
                           lambda raw: raw[:12] + b"\x02" + raw[13:])
        doc = json.loads((run / "network.json").read_text())
        doc["layers"][1]["kind"] = "RAW_GAUSSIAN"
        (run / "network.json").write_text(json.dumps(doc))
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("network.json") == 2
        assert "Traceback" not in captured.err

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
        ("csv", lambda d: d["data_options"].update(split=-5)),
        ("csv", lambda d: d["data_options"].update(split=13)),
        ("blobs", lambda d: d["data_options"]["blobs"].update(p=0)),
        ("blobs", lambda d: d["artifacts"]["maps"].append("maps/map02.json")),
        ("blobs", lambda d: d["artifacts"]["maps"].clear()),
        ("elm", lambda d: d["artifacts"]["maps"].pop(0)),
        ("blobs", lambda d: d.pop("data_source")),
        ("csv", lambda d: d["data_options"].update(split_seed=-1)),
        ("blobs", lambda d: d["data_options"]["blobs"].update(seed=-1)),
    ], ids=["std-not-object", "mu-not-number", "sigma-missing", "mu-short",
            "sigma-zero", "options-list", "blob-p-text", "blobs-list",
            "split-text", "split-fraction", "label-col-list",
            "split-negative", "split-over-rows", "blob-p-zero",
            "map-layer-twice", "maps-empty", "map-missing", "no-data-source",
            "split-seed-negative",
            "blob-seed-negative"])
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

    def test_negative_blob_seed_with_data_exits_3(self, trained_run, tmp_path,
                                                   capsys):
        """``eval --data blobs`` still takes the manifest's blob options."""
        def rewrite(raw):
            doc = json.loads(raw)
            doc["data_options"]["blobs"]["seed"] = -1
            return json.dumps(doc).encode()

        copy = corrupt_copy(trained_run, tmp_path, "manifest.json", rewrite)
        assert main(["eval", "--run", str(copy), "--data", "blobs"]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "seed must be >= 0" in err

    @pytest.mark.parametrize("argv, recorded", [
        (["train", "--blob-n", str(2**62)], None),
        (["train", "--blob-n", str(2**70)], None),
        (["verify", "--data", "blobs", "--blob-p", str(2**62), "--trials", "2"],
         None),
        (["eval"], "n"), (["verify", "--trials", "2"], "n"),
        (["eval"], "p"), (["verify", "--trials", "2"], "p"),
    ], ids=["train-blob-n-2^62", "train-blob-n-2^70", "verify-blob-p-2^62",
            "eval-recorded-n", "verify-recorded-n", "eval-recorded-p",
            "verify-recorded-p"])
    def test_unaddressable_blob_size_exits_5(self, trained_run, tmp_path,
                                             capsys, argv, recorded):
        """A blob size whose p x n float64 inputs no array can address, by
        flag or recorded in a manifest as 2**70, is refused before any
        allocation."""
        def rewrite(raw):
            doc = json.loads(raw)
            doc["data_options"]["blobs"][recorded] = 2**70
            return json.dumps(doc).encode()

        if recorded:
            argv = [*argv, "--run", str(corrupt_copy(
                trained_run, tmp_path, "manifest.json", rewrite))]
        elif argv[0] == "verify":
            argv = [*argv, "--run", str(trained_run)]
        elif argv[0] == "train":
            argv = [*argv, "--data", "blobs", "--n1", "16", "--depth", "1",
                    "--out", str(tmp_path / "run")]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "bytes an array can hold" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("run", ["blobs", "std", "elm"])
    def test_data_of_another_width_exits_2(self, manifest_runs, tmp_path,
                                           capsys, run):
        """eval and verify refuse data of another width than the run's,
        with or without an ELM front before the walk's first map."""
        def rewrite(raw):
            doc = json.loads(raw)
            doc["data_options"]["blobs"]["p"] = 5
            return json.dumps(doc).encode()

        copy = corrupt_copy(manifest_runs[run], tmp_path, "manifest.json",
                            rewrite)
        assert main(["eval", "--run", str(copy)]) == 2
        assert main(["verify", "--run", str(copy), "--trials", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == err.count("5 features") == 2
        assert "Traceback" not in err

    def test_other_class_count_exits_2(self, trained_run, tmp_path, capsys):
        """Data of another class count whose labels the run's label_names do
        not name exits 2, naming them."""
        src = tmp_path / "two.csv"  # 8 features like the run, 2 classes not 3
        src.write_text("".join(f"{','.join(str(i * j % 7) for j in range(8))},"
                               f"{'AB'[i % 2]}\n" for i in range(6)))
        assert main(["eval", "--run", str(trained_run), "--data",
                     f"csv:{src}"]) == 2
        err = capsys.readouterr().err
        assert "['A', 'B'] are not among ['0', '1', '2']" in err
        assert "Traceback" not in err

    def test_map_of_another_layer_exits_3(self, trained_run, tmp_path, capsys):
        run = corrupt_copy(trained_run, tmp_path, "maps/map02.bin",
                           lambda b: (trained_run / "maps/map01.bin").read_bytes())
        meta = json.loads((run / "maps/map02.json").read_text())
        first = json.loads((run / "maps/map01.json").read_text())
        meta.update(rows=first["rows"], cols=first["cols"])
        (run / "maps/map02.json").write_text(json.dumps(meta))
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--data", "blobs",
                     "--trials", "5"]) == 3
        err = capsys.readouterr().err
        assert err.count("map02.json") == 2 and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda b: b[:12] + bytes([2]) + b[13:],
        lambda b: b[:13] + struct.pack("<Q", struct.unpack_from("<Q", b, 13)[0]
                                       + 1) + b[21:],
    ], ids=["kind", "seed"])
    def test_weight_header_off_its_record_exits_3(self, trained_run, tmp_path,
                                                  capsys, edit):
        """A weight file whose header (``<4sIIBQ``: the kind byte at offset
        12, the seed at 13-20) is not the layer network.json records is not
        the run's weight."""
        run = corrupt_copy(trained_run, tmp_path, "weights/w01.hnfw", edit)
        assert main(["eval", "--run", str(run)]) == 3
        assert main(["verify", "--run", str(run), "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("w01.hnfw") == 2
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("outside", [None, 1e-9], ids=["x10", "1e-9"])
    def test_map_outside_its_ball_exits_4(self, trained_run, tmp_path, capsys,
                                          outside):
        """A stored map scaled by 10, or to 1e-9 relative outside its ball,
        fails the run's certificate."""
        meta = json.loads((trained_run / "maps/map03.json").read_text())

        def edit(raw):
            o = np.frombuffer(raw, dtype="<f8")
            scale = 10.0 if outside is None else math.sqrt(
                meta["epsilon"] * (1.0 + outside) / float(np.sum(o * o)))
            return (o * scale).astype("<f8").tobytes()

        run = corrupt_copy(trained_run, tmp_path, "maps/map03.bin", edit)
        assert main(["eval", "--run", str(run)]) == 4
        assert main(["verify", "--run", str(run), "--trials", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("map03") == 2
        assert "Traceback" not in captured.err

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

    def test_overflowing_csv_feature_exits_3(self, tmp_path, capsys):
        """1e200 is finite, but past the 2^500 train's prescale takes,
        and its square would overflow in the Gram: train names it."""
        src = tmp_path / "big.csv"
        src.write_text("1,2,A\n3,1e200,B\n2,1,A\n4,3,B\n")
        code = main(["train", "--data", f"csv:{src}", "--n1", "2",
                     "--depth", "1", "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("error: the train features' largest magnitude, "
                       "1e+200, is not finite or not within 2^-501 .. "
                       "2^500\n")
        assert not (tmp_path / "run").exists()


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

    def test_verify_without_run_exits_2(self, capsys, monkeypatch):
        refuse_data_reads(monkeypatch)
        assert main(["verify", "--trials", "5"]) == 2
        assert ("the following arguments are required: --run"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [
        ["--n1", "99"], ["--depth", "7"], ["--weights", "dct"],
        ["--n1", "99", "--depth", "7", "--weights", "dct"]],
        ids=["n1", "depth", "weights", "all"])
    def test_network_flag_is_unknown_to_verify(self, tmp_path, capsys,
                                               monkeypatch, flags):
        """verify checks a run's own network: it takes no flag describing
        one, and refuses each before the run is read."""
        refuse_data_reads(monkeypatch)
        assert main(["verify", "--run", str(tmp_path / "run"), *flags,
                     "--trials", "5"]) == 2
        assert ("unrecognized arguments: " + " ".join(flags)
                in capsys.readouterr().err)

    def test_missing_required_configuration_exits_2(self, tmp_path):
        assert main(["train", "--data", "blobs",
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_data_scheme_exits_3(self, tmp_path):
        assert main(["train", "--data", "ftp:whatever", "--n1", "8",
                     "--depth", "1", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_each_error_exits_with_its_readme_code(self, monkeypatch, capsys,
                                                   cls):
        """Every error a command raises leaves through main as one error
        line and the code of the README row that names its class."""
        def fail(args):
            raise cls("boom")

        monkeypatch.setitem(hnf.cli._COMMANDS, "eval", fail)
        [code] = [code for code, names in exit_code_rows()
                  if cls.__name__ in names]
        assert main(["eval", "--run", "x"]) == code
        assert capsys.readouterr() == ("", "error: boom\n")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "run"
        proc = run_module("train", "--data", "blobs", "--n1", "8",
                          "--depth", "1", "--seed", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").is_file()


#: A value each data option's flag would take where it applies.
OPTION_VALUES = {"label_col": "0", "delimiter": ";", "split": "5",
                 "split_seed": "1", "blob_p": "3", "blob_q": "2",
                 "blob_n": "50", "blob_sep": "2"}


def missing_source(tmp_path, kind) -> str:
    """A ``--data`` value of this kind naming files that do not exist, so
    that reading it would exit 3."""
    files = [str(tmp_path / f"missing-{i}") for i in range(4)]
    return {"blobs": "blobs", "csv": f"csv:{files[0]}",
            "idx": "idx:" + ",".join(files[:2]),
            "idx4": "idx:" + ",".join(files)}[kind]


def inapplicable_options():
    """(command, source kind, option, via) for each data option the code's
    table says the source does not take; "run" is ``verify --run`` without
    ``--data``, whose manifest picks the data, and via is the flag or, for
    train, a config line."""
    kinds = ("blobs", "csv", "idx", "idx4")
    for command, kind, via in [*(("train", k, v) for k in kinds
                                 for v in ("flag", "config")),
                               *(("verify", k, "flag") for k in kinds),
                               ("verify", "run", "flag")]:
        for dest, (*_, sources, _) in hnf.cli._DATA_OPTIONS.items():
            if kind not in sources:
                yield pytest.param(command, kind, dest, via,
                                   id=f"{command}-{kind}-{dest}-{via}")


class TestDataOptions:
    """Each data option applies to the kinds of source the table in
    ``hnf.cli`` names; anywhere else it is refused before any read."""

    def test_every_option_has_a_value(self):
        assert OPTION_VALUES.keys() == hnf.cli._DATA_OPTIONS.keys()

    @pytest.mark.parametrize("command, kind, dest, via",
                             inapplicable_options())
    def test_option_the_source_does_not_take_exits_2(
            self, tmp_path, capsys, monkeypatch, command, kind, dest, via):
        refuse_data_reads(monkeypatch)
        out = tmp_path / "run"
        data = [] if kind == "run" else ["--data", missing_source(tmp_path,
                                                                   kind)]
        flag = "--" + dest.replace("_", "-")
        argv = [command, *data, *(["--n1", "4", "--depth", "1", "--out",
                                   str(out)] if command == "train" else
                                  ["--run", str(tmp_path / "no-run")])]
        if via == "flag":
            argv += [flag, OPTION_VALUES[dest]]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{dest} = {OPTION_VALUES[dest]}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
        source = "verify --run without --data" if kind == "run" else data[1]
        assert f"does not apply to {source}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["train", "--data", "blobs", "--seed", "-1"], "--seed (or seed =)"),
        (["train", "--data", "csv:MISSING", "--split", "100", "--split-seed",
          "-1"], "--split-seed (or split_seed =)"),
        (["train", "CONFIG", "data = blobs\nseed = -1\n"],
         "--seed (or seed =)"),
        (["train", "CONFIG", "data = csv:MISSING\nsplit = 100\n"
          "split_seed = -1\n"], "--split-seed (or split_seed =)"),
        (["verify", "--run", "MISSING", "--data", "blobs", "--seed", "-1",
          "--trials", "3"], "--seed"),
        (["verify", "--run", "MISSING", "--data", "csv:MISSING", "--split",
          "100", "--split-seed", "-1"], "--split-seed"),
        (["verify", "--run", "MISSING", "--seed", "-1"], "--seed"),
    ], ids=["train-seed", "train-split-seed", "train-config-seed",
            "train-config-split-seed", "verify-seed", "verify-split-seed",
            "verify-run-seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, argv,
                                   named):
        """A negative seed is refused before any data is read, by flag or
        config line, not left to numpy's ValueError traceback (exit 1)."""
        refuse_data_reads(monkeypatch)
        missing, out = str(tmp_path / "missing"), tmp_path / "run"
        argv = [a.replace("MISSING", missing) for a in argv]
        if argv[1] == "CONFIG":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv.pop(2))
            argv[1:2] = ["--config", str(cfg)]
        if argv[0] == "train":
            argv += ["--n1", "16", "--depth", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named} must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train"])  # the one that builds
    def test_seed_range_is_u64(self, tmp_path, capsys, command):
        """The largest u64 seed builds a network, whose layers' seeds wrap
        modulo 2**64; one past it exits 2 naming the value given."""
        argv = [command, "--data", "blobs", "--n1", "8", "--depth", "2",
                "--out", str(tmp_path / "run")]
        assert main([*argv, "--seed", str(2 ** 64 - 1)]) == 0
        capsys.readouterr()
        assert main([*argv, "--seed", str(2 ** 64)]) == 2
        assert capsys.readouterr().err == (
            "error: seed must be in 0..2**64-1, got 18446744073709551616\n")

    @pytest.mark.parametrize("source", ["blobs", "csv"])
    def test_recorded_options_the_source_does_not_take_still_load(
            self, trained_run, tmp_path, capsys, source):
        """A manifest holding options its source does not take, as older
        trains recorded them (label_col and delimiter on a blobs run,
        blob options on a csv: run), still loads in eval and verify --run,
        which print what they print without them."""
        if source == "blobs":
            run, extra = tmp_path / "run", {"label_col": "7", "delimiter": ";"}
            shutil.copytree(trained_run, run)
        else:
            src = TestEvalCommand.labelled_csv(tmp_path / "ab.csv", "AB")
            run, extra = tmp_path / "run", {"blobs": {"seed": 0, "p": 3,
                                                      "separation": 2.0}}
            assert main(["train", "--data", f"csv:{src}", "--split", "40",
                         "--n1", "4", "--depth", "2", "--out", str(run)]) == 0
            capsys.readouterr()
        want = audit(run, capsys)
        TestCsvSnapshot.edit_record(
            run, lambda d: d["data_options"].update(extra))
        assert audit(run, capsys) == want
        assert [code for code, _ in want] == [0, 0]

    @pytest.mark.parametrize("argv, options", [
        (["--data", "blobs", "--blob-p", "5"], {"blobs": {"seed": 1, "p": 5}}),
        (["--data", "CSV", "--split", "40"],
         {"label_col": None, "delimiter": ",", "split": 40, "split_seed": 0,
          "blobs": {"seed": 1}}),
    ], ids=["blobs", "csv"])
    def test_manifest_records_the_options_its_source_took(
            self, tmp_path, capsys, argv, options):
        src = TestEvalCommand.labelled_csv(tmp_path / "ab.csv", "AB")
        run = tmp_path / "run"
        argv = [f"csv:{src}" if a == "CSV" else a for a in argv]
        assert main(["train", *argv, "--n1", "8", "--depth", "1", "--seed",
                     "1", "--out", str(run)]) == 0
        doc = json.loads((run / "manifest.json").read_text())
        assert doc["data_options"] == options


class TestReproducibility:
    def test_model_artifacts_byte_identical_across_processes(self, tmp_path):
        """Also whatever OpenBLAS's idle threads spin for: "a" runs with
        ``OPENBLAS_THREAD_TIMEOUT`` unset, so hnf's own 4, "b" under 28,
        OpenBLAS's default."""
        src = TestEvalCommand.labelled_csv(tmp_path / "ab.csv", "AB")
        plain = without_thread_timeout()
        envs = {"a": plain, "b": {**plain, "OPENBLAS_THREAD_TIMEOUT": "28"}}
        for data in (["blobs"], ["blobs", "--elm"], ["blobs", "--standardize"],
                     [f"csv:{src}", "--split", "40"]):
            outs = []
            for name, env in envs.items():
                out = tmp_path / name
                proc = run_module("train", "--data", *data, "--n1", "16",
                                  "--depth", "2", "--seed", "11",
                                  "--out", str(out), env=env)
                assert proc.returncode == 0, proc.stderr
                outs.append(out)
            a, b = outs
            rels = sorted(p.relative_to(a) for p in a.rglob("*")
                          if p.suffix in (".hnfw", ".bin", ".snap"))
            assert (Path(hnf.cli.SNAPSHOT_FILE) in rels) == (data[0] != "blobs")
            for rel in rels:
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
            rows_a = [json.loads(l) for l in
                      (a / "report.jsonl").read_text().splitlines()]
            rows_b = [json.loads(l) for l in
                      (b / "report.jsonl").read_text().splitlines()]
            for ra, rb in zip(rows_a, rows_b):
                ra.pop("wall_ms"), rb.pop("wall_ms")
                assert ra == rb


    def test_thread_counts_certify_alike(self, tmp_path):
        """Under ``OPENBLAS_NUM_THREADS`` 1 and 2, which may split a float32
        product's sums differently, a run wide enough for two threads
        certifies, and every cost agrees within 1e-9 relative."""
        costs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = run_module(
                "train", "--data", "blobs", "--blob-n", "6000", "--n1", "64",
                "--depth", "3", "--seed", "3", "--out", str(out),
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            assert json.loads((out / "manifest.json").read_text())[
                "monotonicity_certified"]
            costs.append([json.loads(l)["train_cost"] for l in
                          (out / "report.jsonl").read_text().splitlines()])
        assert costs[1] == pytest.approx(costs[0], rel=1e-9, abs=0)


#: Imports ``hnf.cli``, runs one least-squares solve, and prints, as JSON,
#: what ``OPENBLAS_THREAD_TIMEOUT`` was when numpy and scipy's compiled
#: LAPACK module were loaded: each loads its OpenBLAS then (numpy at import,
#: the LAPACK module at the first solve), and OpenBLAS reads the variable
#: only when it loads. Either load raises the interpreter's "import" audit
#: event.
IMPORT_ORDER_PROBE = """
import json, os, sys
seen = {}
def spy(event, args):
    if event == "import" and args[0] in ("numpy", "scipy.linalg._flapack"):
        seen.setdefault(args[0], os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.addaudithook(spy)
import hnf.cli
import numpy as np
hnf.solvers.least_squares(np.eye(2), np.ones((1, 2)), 2)
print(json.dumps(seen))
"""

#: ``python -c LAPACK_PROBE FAULT RUN``: with scipy's LAPACK file made
#: missing or unloadable (FAULT ``missing`` or ``unloadable``; ``none`` for
#: neither), imports ``hnf.cli``, trains a blobs run into RUN, evaluates
#: and verifies it, and prints, as JSON, the exit codes and the sorted
#: ``scipy.linalg`` modules loaded; then imports ``scipy.linalg`` and
#: prints whether its ``lapack.dpotrf`` is hnf's and its ``eigh`` works.
LAPACK_PROBE = """
import importlib.machinery, importlib.util, json, sys
fault, run = sys.argv[1:]
if fault == "missing":
    importlib.machinery.EXTENSION_SUFFIXES = [
        ".missing" + s for s in importlib.machinery.EXTENSION_SUFFIXES]
elif fault == "unloadable":
    real = importlib.util.module_from_spec
    def module_from_spec(spec):
        if spec.name == "scipy.linalg._flapack":
            raise ImportError("does not load alone")
        return real(spec)
    importlib.util.module_from_spec = module_from_spec
import hnf.cli
codes = [hnf.cli.main(argv) for argv in (
    ["train", "--data", "blobs", "--n1", "16", "--depth", "3", "--seed", "1",
     "--out", run], ["eval", "--run", run], ["verify", "--run", run])]
loaded = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
import numpy as np, scipy.linalg
import hnf.solvers
lam = scipy.linalg.eigh(np.diag([2.0, 1.0]), eigvals_only=True)
same = scipy.linalg.lapack.dpotrf is hnf.solvers._lapack().dpotrf
print(json.dumps([codes, loaded, same, lam.tolist()]))
"""


#: ``python -c FLAPACK_PROBE ARGV...``: runs ``hnf ARGV`` in a fresh
#: interpreter and prints, as JSON, its exit code and whether scipy's
#: compiled LAPACK module was loaded.
FLAPACK_PROBE = """
import json, sys
import hnf.cli
code = hnf.cli.main(sys.argv[1:])
print(json.dumps([code, "scipy.linalg._flapack" in sys.modules]))
"""


def lapack_probe(fault, run):
    proc = run_module(fault, str(run), python=("-c", LAPACK_PROBE))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def lapack_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("lapack") / "run"
    return run, lapack_probe("none", run)


class TestLapackLoader:
    def test_cli_loads_no_scipy_linalg_module_but_flapack(self, lapack_run):
        """train, eval and verify run on scipy's LAPACK module alone."""
        _, (codes, loaded, _, _) = lapack_run
        assert codes == [0, 0, 0]
        assert loaded == ["scipy.linalg._flapack"]

    def test_only_a_solve_loads_lapack(self, tmp_path):
        """scipy's LAPACK module, and its OpenBLAS, load at the first
        solve: train loads them, eval and verify of its run never do."""
        run = str(tmp_path / "run")
        for argv, loaded in (
                (["train", "--data", "blobs", "--n1", "16", "--depth", "2",
                  "--out", run], True),
                (["eval", "--run", run], False),
                (["verify", "--run", run, "--trials", "20"], False)):
            proc = run_module(*argv, python=("-c", FLAPACK_PROBE))
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]

    def test_scipy_linalg_imports_after_hnf(self, lapack_run):
        """A later ``import scipy.linalg`` works and reuses the module hnf
        loaded: its routines are hnf's."""
        _, (_, _, same, lam) = lapack_run
        assert same is True
        assert lam == [1.0, 2.0]

    @pytest.mark.parametrize("fault", ["missing", "unloadable"])
    def test_fallback_writes_the_same_run(self, lapack_run, tmp_path, fault):
        """Where the LAPACK file is missing or does not load alone, hnf
        takes the routines from ``scipy.linalg.lapack``, to the same
        bytes."""
        run, (codes, _, _, _) = lapack_run
        fallback = tmp_path / "run"
        got, loaded, same, _ = lapack_probe(fault, fallback)
        assert got == codes and same is True
        assert "scipy.linalg.lapack" in loaded
        rels = sorted(p.relative_to(run) for p in run.rglob("*.*")
                      if p.parent.name in ("maps", "weights"))
        assert rels and rels == sorted(
            p.relative_to(fallback) for p in fallback.rglob("*.*")
            if p.parent.name in ("maps", "weights"))
        for rel in rels:
            assert (run / rel).read_bytes() == (fallback / rel).read_bytes()


class TestThreadTimeout:
    @pytest.mark.parametrize("given, seen", [(None, "4"), ("28", "28")],
                             ids=["unset", "user-set"])
    def test_set_before_numpy_and_scipy_load(self, given, seen):
        """hnf sets the timeout before anything it imports loads numpy, or
        its first solve scipy's LAPACK module, and keeps a value the user
        set."""
        env = without_thread_timeout()
        if given is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = given
        proc = run_module(python=("-c", IMPORT_ORDER_PROBE), env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"numpy": seen,
                                           "scipy.linalg._flapack": seen}
