import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradate.cli as cli
import gradate.pipeline as pipeline
from gradate import LabeledGraphDataset, build_cost, io
from gradate.cli import main
from gradate.pipeline import SelectionConfig

from conftest import count_lps, path_graph, random_graph
from oracles import brute_force_ot


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRADATE_CACHE_DIR", raising=False)
    return tmp_path


def write_two_domain_json(path, seed=0, n_dense=8, n_sparse=8, n_val_extra=4):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for _ in range(n_sparse):
        graphs.append(random_graph(rng, n_nodes=int(rng.integers(6, 9)),
                                   edge_prob=0.15, feature_dim=0))
        labels.append(0)
    for _ in range(n_dense + n_val_extra):
        graphs.append(random_graph(rng, n_nodes=int(rng.integers(6, 9)),
                                   edge_prob=0.75, feature_dim=0))
        labels.append(1)
    ds = LabeledGraphDataset(graphs, labels, label_set=[0, 1])
    io.save_dataset_json(ds, path)
    return ds


def write_copies_json(path, n=10):
    ds = LabeledGraphDataset([path_graph(3)] * n, [0] * n, label_set=[0])
    io.save_dataset_json(ds, path)
    return ds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_cached(path):
    """A cache file's matrix, decoded with the key stored in its own header."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    return io.load_matrix_cache(path, json.loads(blob[8:8 + header_len])["key"])


class TestSplit:
    def test_writes_disjoint_split(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        code, out, _ = run(capsys, "split", "ds.json", "--by", "density",
                           "--out", "split.json")
        assert code == 0
        summary = json.loads(out)
        assert summary["sizes"] == {"train": 12, "val": 4, "test": 4}
        split = io.load_split(workdir / "split.json")
        assert set(split.train_idx) | set(split.val_idx) | set(split.test_idx) \
            == set(range(20))

    def test_too_small_dataset_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "tiny.json", n=3)
        code, out, err = run(capsys, "split", "tiny.json", "--out", "s.json")
        assert code == 2
        assert out == ""
        assert "at least 5" in err

    def test_byte_identical_across_runs(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "a.json")
        run(capsys, "split", "ds.json", "--out", "b.json")
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_usage_error_exits_2(self, workdir, capsys):
        assert main(["split", "ds.json"]) == 2  # missing --out
        capsys.readouterr()


class TestGdd:
    def test_identical_measures_print_zero(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        code, out, err = run(capsys, "gdd", "copies.json", "split.json", "--c", "0")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert abs(payload["gdd"]) <= 1e-8
        assert payload["config"]["c"] == 0
        assert "resolved config" in err

    def test_warm_cache_skips_embedding_and_matches(self, workdir, capsys, monkeypatch):
        write_two_domain_json(workdir / "ds.json", seed=3)
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out1, _ = run(capsys, "gdd", "ds.json", "split.json", "--c", "0")
        assert code == 0
        assert list((workdir / ".gradate_cache").glob("D-*.gdd"))
        # At c=0, D-tilde is D: nothing else is cached.
        assert not list((workdir / ".gradate_cache").glob("Dtilde-*.gdd"))

        def boom(*a, **k):
            raise AssertionError("cross block recomputed despite a warm cache")

        monkeypatch.setattr(pipeline, "cross_linear_fgw", boom)
        code, out2, _ = run(capsys, "gdd", "ds.json", "split.json", "--c", "0")
        assert code == 0
        assert json.loads(out1)["gdd"] == json.loads(out2)["gdd"]

    def test_solver_switch_on_a_warm_cache_matches_a_cold_run(self, workdir, capsys):
        # At c > 0 the label distances depend on the OT solver, so an exact
        # run's D-tilde must not be served to a sinkhorn run.
        write_two_domain_json(workdir / "ds.json", seed=9)
        run(capsys, "split", "ds.json", "--by", "density", "--out", "split.json")
        sinkhorn = ["--c", "1", "--solver", "sinkhorn", "--epsilon", "0.5"]
        code, cold, _ = run(capsys, "gdd", "ds.json", "split.json", *sinkhorn,
                            "--cache-dir", "cold")
        assert code == 0
        code, _, _ = run(capsys, "gdd", "ds.json", "split.json", "--c", "1",
                         "--cache-dir", "warm")
        assert code == 0
        code, warm, _ = run(capsys, "gdd", "ds.json", "split.json", *sinkhorn,
                            "--cache-dir", "warm")
        assert code == 0
        assert json.loads(warm)["gdd"] == json.loads(cold)["gdd"]
        assert len(list((workdir / "warm").glob("D-*.gdd"))) == 1

    def test_cached_d_matches_the_library_when_test_holds_the_top_degree(
            self, workdir, capsys):
        # Featureless graphs split by density; the test split holds the
        # largest degree, so featurizing it too would widen the one-hots.
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, n_nodes=int(rng.integers(5, 9)),
                               edge_prob=rng.uniform(0.2, 0.8), feature_dim=0)
                  for _ in range(20)]
        ds = LabeledGraphDataset(graphs, [0] * 20)
        io.save_dataset_json(ds, "ds.json")
        run(capsys, "split", "ds.json", "--by", "density", "--out", "split.json")
        split = io.load_split("split.json")

        def max_degree(idx):
            return max(int(ds.graphs[i].degrees().max()) for i in idx)

        assert max_degree(split.test_idx) > max(max_degree(split.train_idx),
                                                max_degree(split.val_idx))
        code, _, _ = run(capsys, "gdd", "ds.json", "split.json", "--cache-dir", "cache")
        assert code == 0
        (cached,) = (workdir / "cache").glob("D-*.gdd")
        library = build_cost(ds.subset(split.train_idx), ds.subset(split.val_idx),
                             SelectionConfig(tau=1.0)).base
        assert np.array_equal(read_cached(cached), library)

    def test_toy_instance_matches_transport_oracle(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=5, n_dense=3, n_sparse=3,
                              n_val_extra=2)
        split = {"by": "size", "train": [0, 1, 2], "val": [3, 4], "test": [5, 6, 7]}
        (workdir / "split.json").write_text(json.dumps(split))
        code, out, _ = run(capsys, "gdd", "ds.json", "split.json", "--c", "0",
                           "--cache-dir", "cache")
        assert code == 0
        value = json.loads(out)["gdd"]
        # At c=0 the cost is D itself, the one matrix cached.
        (d_file,) = (workdir / "cache").glob("D-*.gdd")
        assert not list((workdir / "cache").glob("Dtilde-*.gdd"))
        blob = d_file.read_bytes()
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8:8 + header_len])
        D = np.frombuffer(blob[8 + header_len:], dtype="<f8").reshape(
            header["rows"], header["cols"])
        assert value == pytest.approx(brute_force_ot(D, [2, 2, 2], [3, 3]), abs=1e-9)

    def test_weights_file_reweights_the_training_side(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=6, n_dense=3, n_sparse=3,
                              n_val_extra=2)
        split = {"by": "size", "train": [0, 1, 2], "val": [3, 4], "test": [5, 6, 7]}
        (workdir / "split.json").write_text(json.dumps(split))
        (workdir / "w.json").write_text("[0.0, 0.0, 1.0]")
        _, out_uniform, _ = run(capsys, "gdd", "ds.json", "split.json")
        _, out_point, _ = run(capsys, "gdd", "ds.json", "split.json",
                              "--weights", "w.json")
        assert json.loads(out_point)["gdd"] != json.loads(out_uniform)["gdd"]

    def test_env_cache_dir_override(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("GRADATE_CACHE_DIR", str(workdir / "envcache"))
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        code, _, _ = run(capsys, "gdd", "copies.json", "split.json")
        assert code == 0
        assert list((workdir / "envcache").glob("D-*.gdd"))
        assert not (workdir / ".gradate_cache").exists()

    def test_config_file_with_flag_precedence(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / "cfg.json").write_text(json.dumps({"alpha": 0.9, "c": 5.0}))
        _, out, _ = run(capsys, "gdd", "copies.json", "split.json",
                        "--config", "cfg.json", "--c", "0")
        config = json.loads(out)["config"]
        assert config["alpha"] == 0.9  # from the file
        assert config["c"] == 0.0      # flag wins

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / "cfg.json").write_text(json.dumps({"learning_rate": 1.0}))
        code, _, err = run(capsys, "gdd", "copies.json", "split.json",
                           "--config", "cfg.json")
        assert code == 2
        assert "unknown config keys" in err
        code, _, err = run(capsys, "gdd", "copies.json", "split.json", "--jobs", "1")
        assert code == 2
        assert "unrecognized arguments: --jobs 1" in err
        (workdir / "cfg.json").write_text(json.dumps({"order": 2}))
        code, _, err = run(capsys, "gdd", "copies.json", "split.json",
                           "--config", "cfg.json")
        assert code == 2
        assert "unknown config keys ['order']" in err

    @pytest.mark.parametrize("command, file_cfg", [
        ("gdd", {"alpha": "x"}),
        ("gdd", {"alpha": None}),
        ("gdd", {"nbar": 3.5}),
        ("gdd", {"seed": True}),
        ("gdd", {"solver": "lbfgs"}),
        ("gdd", {"val_labels": 1}),
        ("gdd", []),
        ("select", {"method": "bogus"}),
        ("select", {"T": "10"}),
    ], ids=["alpha-str", "alpha-null", "nbar-float", "seed-bool", "solver-choice",
            "val_labels-int", "not-an-object", "method-choice", "T-str"])
    def test_config_value_outside_its_flag_exits_2(self, workdir, capsys, command, file_cfg):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / "cfg.json").write_text(json.dumps(file_cfg))
        extra = ("--method", "lava", "--tau", "0.5", "--out", "s.json")
        code, out, err = run(capsys, command, "copies.json", "split.json",
                             "--config", "cfg.json", *(extra if command == "select" else ()))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not (workdir / "s.json").exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("gdd", ["--c", "nan"], "c must be finite"),
        ("gdd", ["--c", "inf"], "c must be finite"),
        ("gdd", ["--solver", "sinkhorn", "--epsilon", "nan"], "epsilon must be finite"),
        ("gdd", ["--solver", "sinkhorn", "--epsilon", "inf"], "epsilon must be finite"),
        ("gdd", ["--epsilon", "nan"], "epsilon must be finite"),
        ("gdd", ["--epsilon=-inf"], "epsilon must be finite"),
        ("select", ["--eta", "nan"], "eta must be finite"),
        ("select", ["--eta", "inf"], "eta must be finite"),
        ("select", ["--method", "random", "--c", "nan", "--eta", "inf"], "c must be finite"),
    ], ids=["c-nan", "c-inf", "epsilon-nan", "epsilon-inf", "exact-epsilon-nan",
            "exact-epsilon-minus-inf", "eta-nan", "eta-inf", "random-c-nan"])
    def test_non_finite_setting_exits_2_before_any_work(self, workdir, capsys, command,
                                                        flags, named):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        extra = ("--method", "gradate", "--tau", "0.5", "--out", "s.json")
        code, out, err = run(capsys, command, "copies.json", "split.json",
                             *(extra if command == "select" else ()), *flags)
        assert code == 2
        assert out == ""
        assert named in err
        assert not (workdir / ".gradate_cache").exists()
        assert not (workdir / "s.json").exists()

    def test_config_values_a_flag_could_set_are_accepted(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / "cfg.json").write_text(json.dumps(
            {"alpha": 1, "nbar": None, "solver": "exact", "val_labels": False}))
        code, out, _ = run(capsys, "gdd", "copies.json", "split.json", "--config", "cfg.json")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["alpha"], config["val_labels"]) == (1, False)

    @pytest.mark.parametrize("flag, kind", [("c", "Dtilde"), ("alpha", "D")])
    def test_integer_config_value_resolves_as_its_flag(self, workdir, capsys, flag, kind):
        # {"c": 1} must key the cache as --c 1 does, or the matrix is built twice.
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / "cfg.json").write_text(json.dumps({flag: 1}))
        code, by_flag, _ = run(capsys, "gdd", "copies.json", "split.json", f"--{flag}", "1")
        assert code == 0
        code, by_file, _ = run(capsys, "gdd", "copies.json", "split.json",
                               "--config", "cfg.json")
        assert code == 0
        assert by_file == by_flag
        assert json.loads(by_file)["config"][flag] == 1.0
        assert len(list((workdir / ".gradate_cache").glob(f"{kind}-*.gdd"))) == 1

    @pytest.mark.parametrize("option, name", [("--config", "cfg.json"),
                                              ("--weights", "w.json")])
    def test_malformed_json_option_file_names_its_line(self, workdir, capsys, option, name):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        (workdir / name).write_text('{"c": 1,\n}')
        code, out, err = run(capsys, "gdd", "copies.json", "split.json", option, name)
        assert code == 2
        assert out == ""
        assert f"error: {name}:2: " in err

    @pytest.mark.parametrize("weights, message", [
        ("[NaN, 0.5, 0.5]", "non-finite"),
        ('["a", 0.5, 0.5]', "weights must be numbers"),
    ], ids=["nan", "string"])
    def test_weights_that_are_not_finite_numbers_exit_2(self, workdir, capsys, weights,
                                                         message):
        write_two_domain_json(workdir / "ds.json", seed=6, n_dense=3, n_sparse=3,
                              n_val_extra=2)
        split = {"by": "size", "train": [0, 1, 2], "val": [3, 4], "test": [5, 6, 7]}
        (workdir / "split.json").write_text(json.dumps(split))
        (workdir / "w.json").write_text(weights)
        code, out, err = run(capsys, "gdd", "ds.json", "split.json", "--weights", "w.json")
        assert code == 2
        assert out == ""
        assert message in err

    def test_selection_weight_of_the_wrong_type_exits_2(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=15)
        run(capsys, "split", "ds.json", "--out", "split.json")
        run(capsys, "select", "ds.json", "split.json", "--method", "random",
            "--tau", "0.5", "--seed", "2", "--out", "sel.json")
        payload = json.loads((workdir / "sel.json").read_text())
        payload["weights"][0] = "a"
        (workdir / "sel.json").write_text(json.dumps(payload))
        code, out, err = run(capsys, "gdd", "ds.json", "split.json", "--weights", "sel.json")
        assert code == 2
        assert out == ""
        assert "selection weights must be a list of numbers" in err

    def test_dataset_that_is_not_utf8_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        text = (workdir / "copies.json").read_bytes()
        (workdir / "copies.json").write_bytes(text.replace(b'"label_set"', b'"label_\xffset"'))
        code, out, err = run(capsys, "gdd", "copies.json", "split.json")
        assert code == 2
        assert out == ""
        assert "error: copies.json:1: not UTF-8 text (byte 0xff)" in err

    @pytest.mark.parametrize("fault, message", [
        ("dangling-edge", "edge (0, -1) leaves the nodes 0..2"),
        ("nan-feature", "feature entries must be finite"),
        ("three-d-features", "features must be an (n, d) matrix, got shape (3, 1, 1)"),
        ("label-outside-label-set", "labels [7] not in label_set"),
        ("label-not-an-integer", "graph 4: label must be an integer, got 0.9"),
        ("label-set-entry-not-an-integer", 'label_set entry must be an integer, got "x"'),
    ], ids=["dangling-edge", "nan-feature", "three-d-features", "label-outside-label-set",
            "label-not-an-integer", "label-set-entry-not-an-integer"])
    def test_malformed_dataset_exits_2(self, workdir, capsys, fault, message):
        ds = LabeledGraphDataset([path_graph(3, feature_dim=1)] * 10, [0] * 10)
        io.save_dataset_json(ds, "ds.json")
        payload = json.loads((workdir / "ds.json").read_text())
        graph = payload["graphs"][4]
        if fault == "dangling-edge":
            graph["edges"].append([0, -1])
        elif fault == "nan-feature":
            graph["features"][1] = [float("nan")]
        elif fault == "three-d-features":
            graph["features"] = [[row] for row in graph["features"]]
        elif fault == "label-not-an-integer":
            graph["label"] = 0.9
        elif fault == "label-set-entry-not-an-integer":
            payload["label_set"].append("x")
        else:
            graph["label"] = 7
        (workdir / "ds.json").write_text(json.dumps(payload))
        split = {"by": "size", "train": list(range(6)), "val": [6, 7], "test": [8, 9]}
        (workdir / "split.json").write_text(json.dumps(split))
        code, out, err = run(capsys, "gdd", "ds.json", "split.json", "--c", "1")
        assert code == 2
        assert out == ""
        assert message in err

    def test_graph_without_nodes_exits_2_naming_the_file_and_graph(self, workdir, capsys):
        ds = LabeledGraphDataset([path_graph(3, feature_dim=1)] * 10, [0] * 10)
        io.save_dataset_json(ds, "ds.json")
        payload = json.loads((workdir / "ds.json").read_text())
        payload["graphs"][4].update(n=0, edges=[], features=[])
        (workdir / "ds.json").write_text(json.dumps(payload))
        split = {"by": "size", "train": list(range(6)), "val": [6, 7], "test": [8, 9]}
        (workdir / "split.json").write_text(json.dumps(split))
        code, out, err = run(capsys, "gdd", "ds.json", "split.json")
        assert code == 2
        assert out == ""
        assert "ds.json: malformed dataset JSON (graph 4: n must be at least 1, got 0)" in err

    def test_split_without_a_hash_that_misses_graphs_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json", n=10)
        split = {"by": "size", "train": list(range(6)), "val": [6], "test": [7]}
        (workdir / "split.json").write_text(json.dumps(split))
        code, out, err = run(capsys, "gdd", "copies.json", "split.json")
        assert code == 2
        assert out == ""
        assert "split covers 8 graphs but the dataset has 10" in err

    @pytest.mark.parametrize("source, message", [
        ("list", "w.json: 2 weights for 4 training graphs"),
        ("selection", "w.json: selection index 5 outside the train split"),
    ], ids=["list", "selection"])
    def test_weights_that_do_not_fit_the_train_split_exit_2(self, workdir, capsys,
                                                            source, message):
        write_two_domain_json(workdir / "ds.json", seed=6, n_dense=3, n_sparse=3,
                              n_val_extra=2)
        run(capsys, "split", "ds.json", "--by", "size", "--out", "split.json")
        if source == "list":
            (workdir / "w.json").write_text("[0.5, 0.5]")
        else:
            run(capsys, "select", "ds.json", "split.json", "--method", "random",
                "--tau", "0.4", "--out", "w.json")
            payload = json.loads((workdir / "w.json").read_text())
            payload["indices"] = [5]
            (workdir / "w.json").write_text(json.dumps(payload))
        code, out, err = run(capsys, "gdd", "ds.json", "split.json", "--weights", "w.json")
        assert code == 2
        assert out == ""
        assert message in err

    def test_reference_size_below_one_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        code, out, err = run(capsys, "gdd", "copies.json", "split.json", "--nbar", "0")
        assert code == 2
        assert out == ""
        assert "nbar must be >= 1, got 0" in err
        assert not (workdir / ".gradate_cache").exists()

    def test_split_of_another_dataset_exits_2(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=0)
        write_two_domain_json(workdir / "other.json", seed=99)
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, err = run(capsys, "gdd", "other.json", "split.json")
        assert code == 2
        assert out == ""
        assert "split was made for dataset" in err

    def test_corrupt_cache_header_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        assert run(capsys, "gdd", "copies.json", "split.json")[0] == 0
        (path,) = (workdir / ".gradate_cache").glob("D-*.gdd")
        blob = bytearray(path.read_bytes())
        blob[9] = 0xFF  # not UTF-8
        path.write_bytes(bytes(blob))
        code, out, err = run(capsys, "gdd", "copies.json", "split.json")
        assert code == 2
        assert out == ""
        assert "cache header is unreadable" in err


class TestSelect:
    def test_random_is_byte_identical_across_runs(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        for name in ("a.json", "b.json"):
            code, _, _ = run(capsys, "select", "ds.json", "split.json",
                             "--method", "random", "--tau", "0.5",
                             "--seed", "7", "--out", name)
            assert code == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_selection_size_is_floor_n_tau(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, _ = run(capsys, "select", "ds.json", "split.json",
                           "--method", "random", "--tau", "0.4",
                           "--out", "sel.json")
        assert code == 0
        sel = io.load_selection(workdir / "sel.json")
        assert len(sel.indices) == 4  # floor(12 * 0.4)

    def test_gradate_writes_trace_with_monotone_support(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=2)
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, _ = run(capsys, "select", "ds.json", "split.json",
                           "--method", "gradate", "--tau", "0.25",
                           "--out", "sel.json", "--trace", "trace.csv")
        assert code == 0
        rows = (workdir / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,gdd,support"
        body = [r.split(",") for r in rows[1:]]
        supports = [int(r[2]) for r in body]
        assert supports == sorted(supports, reverse=True)
        gdds = [float(r[1]) for r in body]
        sel = io.load_selection(workdir / "sel.json")
        assert len(sel.indices) == 3
        assert gdds[-1] <= gdds[0] + 1e-9

    def test_gradate_is_byte_identical_and_cache_backed(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=4)
        run(capsys, "split", "ds.json", "--out", "split.json")
        for name in ("a.json", "b.json"):
            code, _, _ = run(capsys, "select", "ds.json", "split.json",
                             "--method", "gradate", "--tau", "0.5",
                             "--seed", "1", "--out", name)
            assert code == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_lava_and_gradate_share_the_output_schema(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=8)
        run(capsys, "split", "ds.json", "--out", "split.json")
        payloads = {}
        for method in ("gradate", "lava", "random"):
            run(capsys, "select", "ds.json", "split.json", "--method", method,
                "--tau", "0.5", "--out", f"{method}.json")
            payloads[method] = json.loads((workdir / f"{method}.json").read_text())
        keys = {tuple(sorted(p)) for p in payloads.values()}
        assert len(keys) == 1
        assert {p["method"] for p in payloads.values()} == {"gradate", "lava", "random"}

    def test_missing_method_exits_2(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, _, err = run(capsys, "select", "ds.json", "split.json",
                           "--tau", "0.5", "--out", "x.json")
        assert code == 2
        assert not (workdir / "x.json").exists()

    def test_missing_tau_exits_2(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, err = run(capsys, "select", "ds.json", "split.json",
                             "--method", "lava", "--out", "x.json")
        assert code == 2
        assert out == ""
        assert "--tau is required" in err
        assert not (workdir / "x.json").exists()

    def test_missing_dataset_exits_2(self, workdir, capsys):
        code, _, _ = run(capsys, "select", "missing.json", "split.json",
                         "--method", "random", "--tau", "0.5", "--out", "x.json")
        assert code == 2

    def test_stdout_is_single_line_json(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        _, out, _ = run(capsys, "select", "ds.json", "split.json",
                        "--method", "random", "--tau", "0.5", "--out", "s.json")
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 1
        json.loads(lines[0])

    def test_default_config_bytes_are_pinned(self, workdir, capsys):
        # The resolved defaults reach stderr and selection provenance.
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        _, _, err = run(capsys, "gdd", "ds.json", "split.json")
        assert err == (
            'resolved config: {"alpha": 0.5, "c": 0.0, "dataset": "ds.json", '
            '"epsilon": 0.01, "nbar": null, "seed": 0, "solver": "exact", '
            '"split": "split.json", "val_labels": true}\n')
        _, _, err = run(capsys, "select", "ds.json", "split.json",
                        "--method", "random", "--tau", "0.5", "--out", "s.json")
        config = ('{"T": 10, "alpha": 0.5, "c": 0.0, "dataset": "ds.json", '
                  '"epsilon": 0.01, "eta": 0.0001, "method": "random", '
                  '"nbar": null, "seed": 0, "solver": "exact", '
                  '"split": "split.json", "tau": 0.5, "val_labels": true}')
        assert err == "resolved config: " + config + "\n"
        assert '"config": ' + config + ", " in (workdir / "s.json").read_text()

    @pytest.mark.parametrize("method", ["gradate", "lava", "random"])
    @pytest.mark.parametrize("tau", ["2", "0", "-0.5"])
    def test_tau_outside_unit_interval_exits_2(self, workdir, capsys, method, tau):
        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, err = run(capsys, "select", "ds.json", "split.json",
                             "--method", method, "--tau", tau, "--out", "x.json")
        assert code == 2
        assert out == ""
        assert f"tau must be in (0, 1], got {float(tau)}" in err
        assert not (workdir / "x.json").exists()

    def test_remark_one_alignment_when_val_labels_unavailable(self, workdir, capsys):
        # Without validation labels the run is the label-free one, c = 0.
        write_two_domain_json(workdir / "ds.json", seed=6, n_dense=5, n_sparse=5)
        run(capsys, "split", "ds.json", "--out", "split.json")
        outputs = {}
        for name, flags in (("off", ["--c", "5", "--no-val-labels"]), ("zero", ["--c", "0"])):
            cache = ["--cache-dir", f"cache-{name}"]
            code, _, _ = run(capsys, "select", "ds.json", "split.json", "--method", "gradate",
                             "--tau", "0.4", *flags, *cache, "--out", f"{name}.json")
            assert code == 0
            code, out, _ = run(capsys, "gdd", "ds.json", "split.json", *flags, *cache,
                               "--weights", f"{name}.json")
            assert code == 0
            sel = json.loads((workdir / f"{name}.json").read_text())
            outputs[name] = (sel["indices"], sel["weights"], json.loads(out)["gdd"])
            assert not list((workdir / f"cache-{name}").glob("Dtilde-*.gdd"))
        assert outputs["off"] == outputs["zero"]

    def test_numerical_failure_exits_3_and_suppresses_output(self, workdir, capsys,
                                                             monkeypatch):
        from gradate.errors import NonConvergence

        write_two_domain_json(workdir / "ds.json")
        run(capsys, "split", "ds.json", "--out", "split.json")

        def diverge(*a, **k):
            raise NonConvergence("sinkhorn stalled")

        monkeypatch.setattr(cli, "gradate", diverge)
        code, out, err = run(capsys, "select", "ds.json", "split.json",
                             "--method", "gradate", "--tau", "0.5",
                             "--out", "sel.json")
        assert code == 3
        assert out == ""
        assert "sinkhorn stalled" in err
        assert not (workdir / "sel.json").exists()

    def test_sinkhorn_solver_flag_works_end_to_end(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=14)
        run(capsys, "split", "ds.json", "--out", "split.json")
        code, out, _ = run(capsys, "gdd", "ds.json", "split.json",
                           "--solver", "sinkhorn", "--epsilon", "0.05")
        assert code == 0
        assert json.loads(out)["gdd"] >= 0.0

    def test_tau_point_two_on_337_train_gives_67_indices(self, workdir, capsys):
        from gradate import AttributedGraph, LabeledGraphDataset

        g = AttributedGraph(np.zeros((1, 1)))
        io.save_dataset_json(LabeledGraphDataset([g] * 563, [0] * 563), "big.json")
        run(capsys, "split", "big.json", "--by", "size", "--out", "split.json")
        code, _, _ = run(capsys, "select", "big.json", "split.json",
                         "--method", "random", "--tau", "0.2", "--out", "sel.json")
        assert code == 0
        sel = io.load_selection(workdir / "sel.json")
        assert len(sel.indices) == 67  # floor(337 * 0.2)

    def test_selection_file_as_weights_verifies_the_hash(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=15)
        run(capsys, "split", "ds.json", "--out", "split.json")
        run(capsys, "select", "ds.json", "split.json", "--method", "random",
            "--tau", "0.5", "--seed", "2", "--out", "sel.json")

        code, out, _ = run(capsys, "gdd", "ds.json", "split.json",
                           "--weights", "sel.json")
        assert code == 0
        assert json.loads(out)["gdd"] >= 0.0

        # A selection taken on different data is rejected unless forced.
        write_two_domain_json(workdir / "other.json", seed=99)
        run(capsys, "split", "other.json", "--out", "osplit.json")
        code, _, err = run(capsys, "gdd", "other.json", "osplit.json",
                           "--weights", "sel.json")
        assert code == 2
        assert "dataset" in err
        with pytest.warns(RuntimeWarning, match="mismatch"):
            code, _, _ = run(capsys, "gdd", "other.json", "osplit.json",
                             "--weights", "sel.json", "--force")
        assert code == 0


class TestOtCache:
    SELECT = ("select", "ds.json", "split.json", "--c", "1")

    def test_warm_commands_run_no_lp_and_repeat_their_bytes(self, workdir, capsys,
                                                             monkeypatch):
        write_two_domain_json(workdir / "ds.json", seed=21)
        run(capsys, "split", "ds.json", "--out", "split.json")
        commands = {
            "a": [*self.SELECT, "--method", "gradate", "--tau", "0.25",
                  "--out", "a.json", "--trace", "a.csv"],
            "lava": [*self.SELECT, "--method", "lava", "--tau", "0.25",
                     "--out", "lava.json", "--trace", "lava.csv"],
            "gdd": ["gdd", "ds.json", "split.json", "--c", "1", "--weights", "a.json"],
        }

        def outputs(label):
            code, out, err = run(capsys, *commands[label])
            assert code == 0
            files = [workdir / f"{label}.{ext}" for ext in ("json", "csv")]
            return out, err, [f.read_bytes() for f in files if f.exists()]

        cold = {label: outputs(label) for label in commands}
        calls = count_lps(monkeypatch)
        warm = {label: outputs(label) for label in commands}
        assert calls == []
        assert warm == cold

    def test_every_entry_is_the_value_and_the_duals(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=24)
        run(capsys, "split", "ds.json", "--out", "split.json")
        commands = [[*self.SELECT, "--method", "gradate", "--tau", "0.25", "--out", "a.json"],
                    ["gdd", "ds.json", "split.json", "--c", "1", "--solver", "sinkhorn",
                     "--epsilon", "0.5"]]

        def outputs():
            stdout = []
            for argv in commands:
                code, out, _ = run(capsys, *argv)
                assert code == 0
                stdout.append(out)
            return stdout, (workdir / "a.json").read_bytes()

        cold = outputs()
        assert outputs() == cold
        solvers = set()
        for path in (workdir / ".gradate_cache").glob("OT-*.gdd"):
            blob = path.read_bytes()
            header_len = int.from_bytes(blob[4:8], "little")
            key = json.loads(blob[8:8 + header_len])["key"]
            n, m = key["shape"]
            assert len(blob) - 8 - header_len == 8 * (1 + n + m)
            solvers.add(key["solver"])
        assert solvers == {"exact", "sinkhorn"}

    def test_a_second_tau_shares_the_first_three_solves(self, workdir, capsys, monkeypatch):
        write_two_domain_json(workdir / "ds.json", seed=22)
        run(capsys, "split", "ds.json", "--out", "split.json")
        select = [*self.SELECT, "--method", "gradate", "--out", "sel.json"]
        assert run(capsys, *select, "--tau", "0.2", "--cache-dir", "shared")[0] == 0
        # The same D and D-tilde, without the OT entries of the tau = 0.2 run.
        (workdir / "fresh").mkdir()
        for path in (workdir / "shared").glob("D*.gdd"):
            (workdir / "fresh" / path.name).write_bytes(path.read_bytes())
        counts = {}
        for cache in ("shared", "fresh"):
            calls = count_lps(monkeypatch)
            assert run(capsys, *select, "--tau", "0.4", "--cache-dir", cache)[0] == 0
            counts[cache] = len(calls)
        assert counts == {"shared": 7, "fresh": 10}  # T - 1 iterations and the final solve

    def test_negative_weight_on_a_warm_cache_exits_2(self, workdir, capsys):
        write_two_domain_json(workdir / "ds.json", seed=23)
        run(capsys, "split", "ds.json", "--out", "split.json")
        run(capsys, *self.SELECT, "--method", "gradate", "--tau", "0.25", "--out", "a.json")
        assert run(capsys, "gdd", "ds.json", "split.json", "--c", "1",
                   "--weights", "a.json")[0] == 0
        selection = io.load_selection(workdir / "a.json")
        w = np.zeros(12)
        w[list(selection.indices)] = selection.weights
        w[np.flatnonzero(w == 0)[0]] = -0.5
        (workdir / "w.json").write_text(json.dumps(w.tolist()))
        code, out, err = run(capsys, "gdd", "ds.json", "split.json", "--c", "1",
                             "--weights", "w.json")
        assert code == 2
        assert out == ""
        assert "source marginal p has negative entries" in err

    def test_truncated_ot_entry_exits_2(self, workdir, capsys):
        write_copies_json(workdir / "copies.json")
        run(capsys, "split", "copies.json", "--out", "split.json")
        assert run(capsys, "gdd", "copies.json", "split.json")[0] == 0
        (path,) = (workdir / ".gradate_cache").glob("OT-*.gdd")
        path.write_bytes(path.read_bytes()[:-8])
        code, out, err = run(capsys, "gdd", "copies.json", "split.json")
        assert code == 2
        assert out == ""
        assert "payload has" in err


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        ds_path = tmp_path / "ds.json"
        write_two_domain_json(ds_path)
        # The child imports the same package as this process, installed or not.
        package_root = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "gradate.cli", "split", str(ds_path),
             "--out", str(tmp_path / "split.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)
