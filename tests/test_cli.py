import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import evoarch
import evoarch.cli as cli
from evoarch.engine import EvolutionConfig
from evoarch.fitness import TrainedEvaluator
from evoarch.genome import (
    chain_genome,
    conv_node,
    dropout_node,
    fc_node,
    genome_doc,
    maxpool_node,
    new_seed_genome,
    serialize,
)
from evoarch.mutation import apply_mutation
from evoarch.trainer import TrainPlan
from helpers import build_mnist_dir, spoil_file, write_idx_labels


def one_conv_genome_file(tmp_path):
    g = apply_mutation(new_seed_genome("global_pool"), "add_convolution",
                       np.random.default_rng(0))
    path = tmp_path / "one_conv.json"
    path.write_text(serialize(g))
    return path


def mnist_genome_file(tmp_path):
    path = tmp_path / "mnist_seed.json"
    path.write_text(serialize(new_seed_genome("global_pool", (1, 28, 28), 10)))
    return path


# ------------------------------------------------------------------- help

def test_help_exits_zero(capsys):
    for argv in (["--help"], ["evolve", "--help"], ["compare-selection", "--help"],
                 ["grad-check", "--help"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out


def test_help_names_each_default_at_most_once(capsys):
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for name in commands:
        with pytest.raises(SystemExit):
            cli.main([name, "--help"])
        out = capsys.readouterr().out
        assert "(default: None)" not in out, name
        for entry in re.split(r"\n(?=  -)", out):
            assert entry.count("(default") <= 1, (name, entry)
        if name == "grad-check":
            assert "(default: 0)" in out


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as e:
        cli.main(["evolve", "--bogus"])
    assert e.value.code == 1


def test_missing_command_exits_one():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 1


# ----------------------------------------------------------------- evolve

def test_evolve_surrogate_run(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["evolve", "--fitness", "surrogate", "--generations", "6",
                     "--seed", "7", "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "best_fitness" in printed
    assert (out / "stats.csv").exists()
    assert (out / "best_genome.json").exists()


def test_evolve_deterministic_across_invocations(tmp_path):
    args = ["evolve", "--generations", "8", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(a)]) == 0
    assert cli.main(args + ["--out-dir", str(b)]) == 0
    assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()
    assert (a / "best_genome.json").read_bytes() == (b / "best_genome.json").read_bytes()


def test_evolve_k_exceeding_population(tmp_path, capsys):
    code = cli.main(["evolve", "--k", "20", "--population", "10",
                     "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "k must not exceed population size" in capsys.readouterr().err


def test_evolve_trained_without_data(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EVOARCH_DATA_DIR", raising=False)
    code = cli.main(["evolve", "--fitness", "trained", "--dataset", "mnist",
                     "--out-dir", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("argv,named", [(["evolve", "--k", "0"], "k must be at least 1"),
                                         (["compare-selection", "--k-sweep", "1,x"], "--k-sweep"),
                                         (["compare-selection", "--strategies", "bogus"], "'bogus'"),
                                         (["compare-selection", "--k-sweep", "1,11"], "k=11")],
                         ids=["k-0", "k-sweep-not-int", "unknown-strategy", "k-sweep-over-population"])
def test_trained_bad_flag_exits_one_before_reading_data(tmp_path, monkeypatch, capsys, argv, named):
    argv = [*argv, "--fitness", "trained", "--generations", "1", "--out-dir", str(tmp_path / "out")]
    monkeypatch.delenv("EVOARCH_DATA_DIR", raising=False)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    loads = []
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    monkeypatch.setattr("evoarch.data.load_dataset", lambda *a, **kw: loads.append(a))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == err
    assert loads == [] and not (tmp_path / "out").exists()


# ------------------------------------------------------------- comparison

def test_compare_k_sweep(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main(["compare-selection", "--k-sweep", "1,2", "--seeds", "2",
                     "--generations", "5", "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("label,strategy,k,")
    table = (out / "comparison.csv").read_text()
    assert table.splitlines()[1].startswith("k=1,aggressive,")
    curves = (out / "curves.csv").read_text()
    assert curves.splitlines()[0] == "generation,k=1,k=2"
    assert json.loads((out / "config.json").read_text())["configs"]["k=1"]["max_generations"] == 5


def test_compare_config_records_each_entry_run_config(tmp_path):
    out = tmp_path / "cmp"
    code = cli.main(["compare-selection", "--population", "4", "--k-sweep", "1,2", "--seeds", "2",
                     "--generations", "3", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["seeds"] == 2
    assert sorted(doc["configs"]) == ["k=1", "k=2"]
    for label, config in doc["configs"].items():
        assert config["population_size"] == 4 and config["saturation_window"] is None
        assert config["k"] == int(label[2:]) and config["seed"] == 0


def test_compare_refuses_a_bad_entry_before_any_run(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli.engine, "run", lambda *a, **kw: runs.append(a))
    out = tmp_path / "out"
    code = cli.main(["compare-selection", "--k-sweep", "1,2,11", "--seeds", "20", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: k=11: k must not exceed population size\n"
    assert not out.exists()
    assert runs == []


def test_compare_unknown_strategy(tmp_path, capsys):
    code = cli.main(["compare-selection", "--strategies", "aggressive,roulette2",
                     "--seeds", "1", "--generations", "3",
                     "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "roulette2" in capsys.readouterr().err


def test_compare_k_sweep_and_strategies_exclusive(tmp_path, capsys):
    code = cli.main(["compare-selection", "--k-sweep", "1,2",
                     "--strategies", "aggressive", "--seeds", "1",
                     "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_compare_rejects_zero_seeds(tmp_path):
    code = cli.main(["compare-selection", "--k-sweep", "1", "--seeds", "0",
                     "--generations", "3", "--out-dir", str(tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize("flag", ["--k-sweep", "--strategies"])
@pytest.mark.parametrize("value", [",", ""], ids=["commas", "empty"])
def test_compare_empty_list_exits_one(tmp_path, capsys, flag, value):
    code = cli.main(["compare-selection", flag, value, "--seeds", "1", "--generations", "3",
                     "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,value,label", [("--k-sweep", "1,1", "k=1"),
                                              ("--strategies", "tournament,tournament", "tournament")])
def test_compare_repeated_entry_exits_one(tmp_path, capsys, flag, value, label):
    code = cli.main(["compare-selection", flag, value, "--seeds", "2", "--generations", "3",
                     "--population", "4", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: a comparison names {label!r} more than once\n"
    assert not (tmp_path / "x").exists()


def test_compare_trained_mnist(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    out = tmp_path / "cmp"
    code = cli.main(["compare-selection", "--fitness", "trained", "--dataset", "mnist",
                     "--iters", "1", "--generations", "1", "--seeds", "1",
                     "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = (out / "comparison.csv").read_text().splitlines()
    assert len(rows) == 5  # header plus the four default strategies


def test_evolve_trained_records_its_data_and_plan(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    out = tmp_path / "run"
    code = cli.main(["evolve", "--fitness", "trained", "--dataset", "mnist", "--subset", "40", "--iters", "2",
                     "--generations", "1", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    record = json.loads((out / "config.json").read_text())["evaluator"]
    assert {key: record[key] for key in ("kind", "dataset", "subset_n", "split_seed", "max_iters", "batch_size")} == {
        "kind": "trained", "dataset": "mnist", "subset_n": 40, "split_seed": 0, "max_iters": 2, "batch_size": 64}
    assert re.fullmatch("[0-9a-f]{64}", record["split_sha256"])


def test_evaluation_failure_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))

    def broken(self, genome, run_seed, individual_id):
        raise ValueError("boom")

    monkeypatch.setattr(TrainedEvaluator, "evaluate", broken)
    code = cli.main(["evolve", "--fitness", "trained", "--iters", "1",
                     "--generations", "1", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 10 evaluation(s) failed;") and "boom" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--iters", "-5"), ("--iters", "0"),
                                        ("--subset", "0"), ("--subset", "1"),
                                        ("--subset", "-5")])
@pytest.mark.parametrize("command", ["eval-genome", "evolve", "compare-selection"])
def test_bad_training_flags_exit_one(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    # a value below one is refused under surrogate fitness too; --subset 1 is
    # refused only by the dataset split, which surrogate fitness never loads
    for fitness in ("trained",) if value == "1" else ("trained", "surrogate"):
        argv = [command, "--fitness", fitness, "--dataset", "mnist", flag, value]
        if command == "eval-genome":
            argv.append(str(one_conv_genome_file(tmp_path)))
        else:
            argv += ["--generations", "1", "--out-dir", str(tmp_path / "out")]
        code = cli.main(argv)
        assert code == 1, fitness
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--population", "1", "error: population size must be at least 2\n"),
    ("--threshold", "-1", "error: distance threshold must be non-negative\n"),
    ("--generations", "0", "error: need at least one generation\n"),
    ("--workers", "0", "error: workers must be positive\n"),
])
@pytest.mark.parametrize("command", ["evolve", "compare-selection"])
def test_bad_search_flags_exit_one(tmp_path, capsys, command, flag, value, message):
    argv = [command, "--generations", "1", "--out-dir", str(tmp_path / "out"), flag, value]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "compare-selection"])
def test_search_flags_set_the_config_fields_they_name(command):
    args = cli.build_parser().parse_args([command])
    assert cli._run_config(args) == EvolutionConfig()
    assert args.iters == TrainPlan().max_iters
    args = cli.build_parser().parse_args([command, "--population", "4", "--k", "2", "--threshold", "0",
                                          "--generations", "3", "--workers", "2", "--seed", "5"])
    assert cli._run_config(args) == EvolutionConfig(population_size=4, k=2, distance_threshold=0, max_generations=3,
                                                    workers=2, seed=5)


def test_bad_k_sweep_value_exits_one(tmp_path, capsys):
    argv = ["compare-selection", "--k-sweep", "1,x", "--generations", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --k-sweep value: ") and "'x'" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--workers", "2"), ("--out-dir", "elsewhere")])
def test_eval_genome_refuses_run_only_flags(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as e:
        cli.main(["eval-genome", flag, value, str(one_conv_genome_file(tmp_path))])
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: " in captured.err and flag in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "one_conv.json" not in captured.err


def test_bad_flag_value_is_one_error_line(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["evolve", "--population", "x"])
    assert e.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --population: invalid int value: 'x'\n"


@pytest.mark.parametrize("command,fitness", [("grad-check", None), ("evolve", "surrogate"),
                                             ("compare-selection", "surrogate"),
                                             ("eval-genome", "surrogate"), ("eval-genome", "trained")])
def test_negative_seed_exits_one(tmp_path, monkeypatch, capsys, command, fitness):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    argv = [command, "--seed", "-1"]
    if fitness:
        argv += ["--fitness", fitness, "--iters", "1"]
    if command == "eval-genome":
        argv.append(str(one_conv_genome_file(tmp_path)))
    elif command != "grad-check":
        argv += ["--generations", "1", "--out-dir", str(tmp_path / "out")]
    if command == "compare-selection":
        argv += ["--seeds", "1"]
    code = cli.main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "compare-selection"])
def test_out_dir_that_cannot_be_made_exits_one_before_any_run(tmp_path, monkeypatch, capsys, command):
    runs = []
    monkeypatch.setattr(cli.engine, "run", lambda *a, **kw: runs.append(a))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    argv = [command, "--generations", "1", "--out-dir", str(taken)]
    if command == "compare-selection":
        argv += ["--seeds", "1"]
    code = cli.main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1
    assert runs == []


def test_dataset_too_small_to_split_blames_the_data(tmp_path, monkeypatch, capsys):
    data_dir = build_mnist_dir(tmp_path / "mnist", n_train=4)
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(data_dir))
    argv = ["evolve", "--fitness", "trained", "--generations", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data_dir) in err and " 4" in err and "--subset" not in err
    assert err.count("\n") == 1
    assert cli.main(argv + ["--subset", "4"]) == 1
    assert capsys.readouterr().err == "error: --subset 4: cannot carve 0 validation samples out of 4\n"
    assert not (tmp_path / "out").exists()


def trained_argv(tmp_path, command):
    argv = [command, "--fitness", "trained", "--iters", "1"]
    if command == "eval-genome":
        return argv + [str(mnist_genome_file(tmp_path))]
    return argv + ["--generations", "1", "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["eval-genome", "evolve"])
def test_mnist_label_out_of_range_exits_two(tmp_path, monkeypatch, capsys, command):
    data_dir = build_mnist_dir(tmp_path / "mnist")
    labels = data_dir / "train-labels-idx1-ubyte"
    values = np.frombuffer(labels.read_bytes(), np.uint8, offset=8).copy()
    values[5] = 200
    write_idx_labels(labels, values)
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(data_dir))
    assert cli.main(trained_argv(tmp_path, command)) == 2
    assert capsys.readouterr().err == f"error: {labels}: record 5 has label 200\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sizes", [(-1, 28, 28), (64, -28, 28)])
def test_negative_idx_header_sizes_exit_two(tmp_path, monkeypatch, capsys, sizes):
    data_dir = build_mnist_dir(tmp_path / "mnist")
    images = data_dir / "train-images-idx3-ubyte"
    raw = images.read_bytes()
    images.write_bytes(raw[:4] + struct.pack(">iii", *sizes) + raw[16:])
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(data_dir))
    assert cli.main(trained_argv(tmp_path, "eval-genome")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {images}: ") and str(sizes) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fault", ["not-gzip", "truncated-gzip", "corrupt-gzip", "directory"])
def test_unreadable_dataset_file_exits_two(tmp_path, monkeypatch, capsys, fault):
    data_dir = build_mnist_dir(tmp_path / "mnist")
    path = spoil_file(data_dir / "t10k-labels-idx1-ubyte", fault)
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(data_dir))
    assert cli.main(trained_argv(tmp_path, "eval-genome")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read: ") and err.count("\n") == 1


# ---------------------------------------------------- export and evaluate

def test_export_dot(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text(serialize(new_seed_genome("global_pool")))
    assert cli.main(["export-dot", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph genome {")
    assert out.count("[label=") == 3


def blas_threads_reported(tmp_path, cli_argv, **env):
    """OpenBLAS's thread count in a fresh process under env, after cli.main(cli_argv) if cli_argv."""
    script = ("import sys; from evoarch import cli, trainer\n"
              "if sys.argv[1:]: cli.main(sys.argv[1:])\n"
              "print(trainer._blas_threads())")
    clean = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    clean["PYTHONPATH"] = os.path.dirname(os.path.dirname(evoarch.__file__))
    out = subprocess.run([sys.executable, "-c", script, *cli_argv], env={**clean, **env}, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return out.splitlines()[-1]


def test_cli_runs_one_blas_thread_unless_the_user_sets_one(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(serialize(new_seed_genome("global_pool")))
    if blas_threads_reported(tmp_path, []) == "None":
        pytest.skip("numpy's BLAS does not report its thread count")
    assert blas_threads_reported(tmp_path, ["export-dot", str(path)]) == "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        # what the library makes of the user's value, without the CLI
        theirs = blas_threads_reported(tmp_path, [], **{var: "2"})
        assert blas_threads_reported(tmp_path, ["export-dot", str(path)], **{var: "2"}) == theirs


def test_eval_genome_surrogate_value(tmp_path, capsys):
    path = one_conv_genome_file(tmp_path)
    assert cli.main(["eval-genome", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0.139292"


def test_eval_genome_trained_uses_the_seed_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    seeds = []

    def record(genome, split, plan):
        seeds.append(plan.seed)
        return 0.25

    monkeypatch.setattr(cli, "evaluate_trained", record)
    code = cli.main(["eval-genome", "--fitness", "trained", "--iters", "1", "--seed", "7",
                     str(mnist_genome_file(tmp_path))])
    assert code == 0
    assert seeds == [7]
    assert capsys.readouterr().out.strip() == "0.250000"


def test_eval_genome_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert cli.main(["eval-genome", str(path)]) == 2
    assert cli.main(["eval-genome", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["export-dot", str(path)]) == 2
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc["edges"] = 7
    path.write_text(json.dumps(doc))
    assert cli.main(["eval-genome", str(path)]) == 2
    assert cli.main(["export-dot", str(path)]) == 2


@pytest.mark.parametrize("command", [["export-dot"], ["eval-genome", "--fitness", "trained", "--iters", "1"]],
                         ids=["export-dot", "eval-genome-trained"])
def test_float_genome_param_exits_two(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    g = apply_mutation(new_seed_genome("global_pool", (1, 28, 28), 10), "add_convolution",
                       np.random.default_rng(0))
    doc = json.loads(serialize(g))
    conv = next(n for n in doc["nodes"] if n["kind"] == "conv")
    conv["params"]["channels"] = float(conv["params"]["channels"])
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert cli.main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: node {conv['id']}: param channels must be an integer\n"


def test_eval_genome_shape_that_does_not_match_the_dataset_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(build_mnist_dir(tmp_path / "mnist")))
    argv = ["eval-genome", "--fitness", "trained", "--iters", "1", str(one_conv_genome_file(tmp_path))]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: genome expects input (3, 32, 32) with 10 classes, "
                            "dataset provides (1, 28, 28) with 10\n")


def full_chain_doc():
    """Document of input -> conv(1) -> maxpool(2) -> fc(3) -> dropout(4) -> head(5)."""
    middle = [conv_node(4), maxpool_node(), fc_node(8), dropout_node(0.5)]
    return genome_doc(chain_genome(middle, (3, 32, 32), 10))


def _set_param(index, param, value):
    def edit(doc):
        doc["nodes"][index]["params"][param] = value
        return doc
    return edit


def _edit_node(index, **fields):
    return lambda doc: {**doc, "nodes": [{**n, **fields} if j == index else n for j, n in enumerate(doc["nodes"])]}


# out-of-range params (caught by validate) and malformed documents (by the parser)
BAD_GENOME_FILES = {
    "conv-channels": (_set_param(1, "channels", 0), "node 1: conv channels must be positive"),
    "conv-stride": (_set_param(1, "stride", 3), "node 1: conv stride must be one of (1, 2)"),
    "conv-pad": (_set_param(1, "pad", -1), "node 1: conv pad must be non-negative"),
    "pool-kernel": (_set_param(2, "kernel", 0), "node 2: pool kernel and stride must be positive"),
    "pool-stride": (_set_param(2, "stride", 0), "node 2: pool kernel and stride must be positive"),
    "fc-units": (_set_param(3, "units", 0), "node 3: fc units must be positive"),
    "dropout-ratio": (_set_param(4, "ratio", 1.0), "node 4: dropout ratio must be in (0, 1)"),
    "top-level-list": (lambda doc: [doc], "top level must be a JSON object"),
    "input-shape": (lambda doc: {**doc, "input_shape": [3, 32]}, "input_shape must be three positive integers"),
    "input-shape-bool": (lambda doc: {**doc, "input_shape": [True, 32, 32]},
                         "input_shape must be three positive integers"),
    "num-classes": (lambda doc: {**doc, "num_classes": 1}, "num_classes must be an integer of at least 2"),
    "node-entry": (lambda doc: {**doc, "nodes": doc["nodes"] + [{"id": 9}]},
                   "node entries need exactly id/kind/params, got {'id': 9}"),
    "node-id": (_edit_node(1, id=-1), "node id must be a non-negative integer, got -1"),
    "node-id-bool": (_edit_node(1, id=True), "node id must be a non-negative integer, got True"),
    "edge-endpoint-bool": (lambda doc: {**doc, "edges": [[True, 2] if e == [1, 2] else e for e in doc["edges"]]},
                           "edges must be [src, dst] pairs of node ids, got [True, 2]"),
    "kind": (_edit_node(1, kind="deconv"), "node 1: unknown kind 'deconv'"),
    "param-keys": (_edit_node(1, params={"channels": 4}),
                   "node 1: params for conv must be ['channels', 'filter', 'pad', 'stride']"),
}


@pytest.mark.parametrize("case", list(BAD_GENOME_FILES))
def test_bad_genome_file_exits_two(tmp_path, capsys, case):
    edit, message = BAD_GENOME_FILES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(full_chain_doc())))
    assert cli.main(["export-dot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


UNREADABLE_GENOME_BYTES = {"not-utf8": b"\xff\xfe", "nested-too-deeply": b"[" * 200000 + b"]" * 200000 + b"\n"}


@pytest.mark.parametrize("command", ["export-dot", "eval-genome"])
@pytest.mark.parametrize("case", list(UNREADABLE_GENOME_BYTES))
def test_unreadable_genome_bytes_exit_two(tmp_path, capsys, case, command):
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE_GENOME_BYTES[case])
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_eval_genome_invalid_structure(tmp_path):
    doc = json.loads(serialize(new_seed_genome("global_pool")))
    doc["nodes"][2]["params"]["classes"] = 7  # disagrees with num_classes
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["eval-genome", str(path)]) == 2


# -------------------------------------------------------------- grad-check

def test_grad_check_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gradient_check_suite",
                        lambda seed: [("case_a", 2.0e-9), ("case_b", 8.0e-7)])
    assert cli.main(["grad-check", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "case_a 2.000e-09" in out
    assert "max_rel_err 8.000e-07" in out
    monkeypatch.setattr(cli, "gradient_check_suite",
                        lambda seed: [("case_a", 3.0e-3)])
    assert cli.main(["grad-check"]) == 1
