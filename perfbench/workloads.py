"""The two benchmark workloads, their four kinds of operation, and the output checks.

Every workload is a closed loop: one benchmark process drives one
operation at a time and the next starts when the previous one returns.
An operation is fixed work derived from the workload seed and its index
(one evolution run, one ``compare_strategies`` call, one training run,
one ``evaluate_batch`` call), so the i-th operation of a seed does the
same thing on every commit.  ``search`` interleaves ``evolve`` and
``compare_strategies`` operations in fixed groups, ``train`` interleaves
single-genome trainings and population evaluations.  ``setup`` is what
``setup_s`` times: loading the generated inputs and deserializing the
fixture genomes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

import synthdata

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
BENCH_GENOME = os.path.join(FIXTURES, "bench_genome.json")
BENCH_SEQUENCE = "ICCCKCSCCGH"
POPULATION_DIR = os.path.join(FIXTURES, "population")

K_VALUES = (1, 2, 10)


@dataclass
class OpResult:
    """What one operation did, as the benchmark measured and checked it."""

    wall: float
    attempted: int
    failed: int = 0
    steps: list = field(default_factory=list)  # the program's own per-step walls, seconds
    work: float = 0.0  # generations or training samples
    work_time: float = 0.0  # seconds the work took
    digest: str = ""
    errors: list = field(default_factory=list)
    kind: str = ""  # name of the workload class that ran the operation


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def read_genome(path):
    from evoarch.genome import deserialize, validate

    with open(path) as fh:
        genome = deserialize(fh.read())
    validate(genome)
    return genome


class Workload:
    name = ""
    step = ""  # what one entry of OpResult.steps is
    digest_of = ""  # what OpResult.digest is a digest of
    work_unit = ""  # what OpResult.work counts
    trace_ops = 1  # operations in each pass of a traced run
    attempts_per_op = 1
    # Untraced runs do a fixed number of operations: --seconds divided by
    # this nominal cost (measured on a 2-core Xeon at the commit that added
    # the benchmark), rounded to whole groups.  Fixing the work, instead of
    # looping until a deadline, keeps the measured set of operations the same
    # on every run and every commit.
    nominal_op_s = 1.0
    op_group = 1
    trained = False  # digests of trained fitness may change in float32 low bits

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.data_dir = os.path.join(tmp_dir, "data")

    def op_count(self, seconds):
        groups = max(1, round(seconds / (self.nominal_op_s * self.op_group)))
        return groups * self.op_group

    def member(self, i):
        """The workload that runs operation i, and the operation's index there."""
        return self, i

    def write_inputs(self):
        """Generate the run's input files; not part of set-up time."""

    def setup(self):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# search workloads


def _check_stats_rows(rows, generations):
    errors = []
    if [int(r[0]) for r in rows] != list(range(generations + 1)):
        errors.append("stats rows do not cover generations 0..N")
    best = [float(r[1]) for r in rows]
    if any(b2 < b1 for b1, b2 in zip(best, best[1:])):
        errors.append("best fitness decreased")
    if any(not 0.0 <= b <= 1.0 for b in best):
        errors.append("best fitness outside [0, 1]")
    return errors


class SearchEvolve(Workload):
    name = "search-evolve"
    step = "generation (run_meta.json per_generation_wall)"
    digest_of = "stats.csv"
    work_unit = "generations"
    generations = 40
    nominal_op_s = 0.85

    def setup(self):
        from evoarch import cli

        self.cli = cli

    def op(self, i):
        evo_seed = self.seed * 1000 + i // len(K_VALUES)
        k = K_VALUES[i % len(K_VALUES)]
        out_dir = os.path.join(self.tmp_dir, f"evolve-{i}")
        argv = ["evolve", "--fitness", "surrogate", "--seed", str(evo_seed), "--k", str(k),
                "--generations", str(self.generations), "--out-dir", out_dir]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        res = OpResult(wall=time.perf_counter() - start, attempted=1)
        try:
            if code != 0:
                res.errors.append(f"evolve exited {code}")
            else:
                self._check(out_dir, res)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        res.failed = 1 if res.errors else 0
        return res

    def _check(self, out_dir, res):
        from evoarch.fitness import evaluate_surrogate
        from evoarch.genome import parameter_count

        with open(os.path.join(out_dir, "stats.csv")) as fh:
            stats_text = fh.read()
        with open(os.path.join(out_dir, "run_meta.json")) as fh:
            meta = json.load(fh)
        res.digest = sha256_text(stats_text)
        lines = stats_text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        generations = meta["generations"]
        res.errors += _check_stats_rows(rows, generations)
        walls = meta["per_generation_wall"]
        if len(walls) != generations + 1:
            res.errors.append("run_meta per_generation_wall length disagrees with generations")
        res.steps = walls[1:]
        res.work = len(res.steps)
        res.work_time = sum(res.steps)
        best = read_genome(os.path.join(out_dir, "best_genome.json"))
        if int(rows[-1][3]) != parameter_count(best):
            res.errors.append("best_params disagrees with best_genome.json")
        if abs(evaluate_surrogate(best) - float(rows[-1][1])) > 1e-8:
            res.errors.append("best fitness disagrees with the surrogate of best_genome.json")
        for g in range(5, generations + 1, 5):
            if not os.path.exists(os.path.join(out_dir, f"checkpoint_gen{g}.json")):
                res.errors.append(f"checkpoint_gen{g}.json missing")
        for log in ("mutation", "selection", "fitness"):
            if os.path.getsize(os.path.join(out_dir, f"{log}.jsonl")) == 0:
                res.errors.append(f"{log}.jsonl empty")


class SearchKsweep(Workload):
    name = "search-ksweep"
    step = "generation (GenerationStats.wall_seconds)"
    digest_of = "comparison.csv"
    work_unit = "generations"
    generations = 30
    seeds_per_op = 2
    attempts_per_op = len(K_VALUES) * seeds_per_op
    nominal_op_s = 1.75

    def setup(self):
        from evoarch import engine

        self.engine = engine
        self.config = engine.EvolutionConfig(max_generations=self.generations)
        self.specs = engine.k_sweep_specs(list(K_VALUES), self.config)

    def op(self, i):
        engine = self.engine
        cfg = replace(self.config, seed=self.seed * 1000 + self.seeds_per_op * i)
        runs = []
        inner = engine.run

        def tap(*args, **kwargs):
            result = inner(*args, **kwargs)
            runs.append(result)
            return result

        engine.run = tap
        try:
            start = time.perf_counter()
            result = engine.compare_strategies(cfg, self.specs, self.seeds_per_op)
            wall = time.perf_counter() - start
        finally:
            engine.run = inner
        res = OpResult(wall=wall, attempted=len(self.specs) * self.seeds_per_op)
        res.steps = [s.wall_seconds for r in runs for s in r.stats[1:]]
        res.work = len(res.steps)
        res.work_time = sum(res.steps)
        res.digest = sha256_text(engine.comparison_csv_text(result))
        self._check(result, runs, res)
        res.failed = res.attempted if res.errors else 0
        return res

    def _check(self, result, runs, res):
        from evoarch.genome import deserialize, serialize

        g = self.generations
        if [row["label"] for row in result.rows] != [s.label for s in self.specs]:
            res.errors.append("comparison rows do not match the k sweep")
        for row in result.rows:
            if row["seeds"] != self.seeds_per_op or not 0 <= row["reached"] <= self.seeds_per_op:
                res.errors.append(f"{row['label']}: bad seed or reached count")
            if not 0 <= row["q1_generations"] <= row["median_generations"] <= row["q3_generations"] <= g + 1:
                res.errors.append(f"{row['label']}: quartiles out of order")
        if len(runs) != res.attempted:
            res.errors.append(f"{len(runs)} evolution runs, expected {res.attempted}")
        finals = []
        for r in runs:
            rows = [(s.generation, s.best_fitness) for s in r.stats]
            res.errors += _check_stats_rows(rows, g)
            finals.append(r.stats[-1].best_fitness)
            if deserialize(serialize(r.best.genome)) != r.best.genome:
                res.errors.append("best genome does not survive a serialize round trip")
        if finals and not math.isclose(result.tau, 0.9 * max(finals)):
            res.errors.append("tau is not 0.9 of the best final fitness")
        if any(len(c) != g + 1 for c in result.curves.values()):
            res.errors.append("median curves have the wrong length")


# ---------------------------------------------------------------------------
# training workloads


def _finite_unit(value):
    return math.isfinite(value) and 0.0 <= value <= 1.0


class TrainFixed(Workload):
    name = "train-fixed"
    step = "training run (trainer.train wall)"
    digest_of = "accuracy and weights"
    work_unit = "training samples"
    trained = True
    iterations = 2
    nominal_op_s = 5.2
    mnist_train = 640
    mnist_test = 100

    def write_inputs(self):
        os.makedirs(self.data_dir, exist_ok=True)
        synthdata.write_mnist(self.data_dir, self.seed, self.mnist_train, self.mnist_test)

    def setup(self):
        from evoarch import data, trainer
        from evoarch.genome import canonical_node_sequence

        self.trainer = trainer
        self.split = data.load_dataset("mnist", self.data_dir, seed=self.seed)
        self.genome = read_genome(BENCH_GENOME)
        if canonical_node_sequence(self.genome) != BENCH_SEQUENCE:
            raise ValueError(f"{BENCH_GENOME} is not the {BENCH_SEQUENCE} genome")
        self.plan = trainer.TrainPlan.desk_scale(self.iterations, seed=self.seed)
        self.batch = min(self.plan.batch_size, len(self.split.train_x))

    def op(self, i):
        start = time.perf_counter()
        try:
            model, acc = self.trainer.train(self.genome, self.split, self.plan)
        except self.trainer.DivergedTraining as err:
            wall = time.perf_counter() - start
            return OpResult(wall=wall, attempted=1, failed=1, errors=[f"diverged: {err}"])
        wall = time.perf_counter() - start
        res = OpResult(wall=wall, attempted=1, steps=[wall],
                       work=self.iterations * self.batch, work_time=wall)
        h = hashlib.sha256(repr(float(acc)).encode())
        for i_node in sorted(model.params):
            for name in sorted(model.params[i_node]):
                w = model.params[i_node][name]
                if not np.isfinite(w).all():
                    res.errors.append(f"node {i_node} {name} has non-finite weights")
                h.update(np.ascontiguousarray(w).tobytes())
        if not _finite_unit(float(acc)):
            res.errors.append(f"accuracy {acc} is not a finite value in [0, 1]")
        res.digest = h.hexdigest()
        res.failed = 1 if res.errors else 0
        return res


class TrainPopulation(Workload):
    name = "train-population"
    step = "trained evaluation (evaluate_batch audit wall_seconds)"
    digest_of = "fitness vector"
    work_unit = "training samples"
    trained = True
    nominal_op_s = 1.95
    iterations = 2
    workers = 2
    cifar_per_batch = 128

    def write_inputs(self):
        os.makedirs(self.data_dir, exist_ok=True)
        synthdata.write_cifar10(self.data_dir, self.seed, self.cifar_per_batch)

    def setup(self):
        from evoarch import data, fitness, trainer
        from evoarch.genome import Individual

        self.fitness = fitness
        split = data.load_dataset("cifar10", self.data_dir, seed=self.seed)
        paths = sorted(os.path.join(POPULATION_DIR, f) for f in os.listdir(POPULATION_DIR))
        genomes = [read_genome(p) for p in paths]
        for path, genome in zip(paths, genomes):
            if genome.input_shape != split.input_shape or genome.num_classes != split.num_classes:
                raise ValueError(f"{path} does not fit the CIFAR-10 split")
        plan = trainer.TrainPlan.desk_scale(self.iterations)
        self.evaluator = fitness.TrainedEvaluator(split, plan)
        self.individuals = [Individual(i, g) for i, g in enumerate(genomes)]
        self.attempts_per_op = len(self.individuals)
        self.batch = min(plan.batch_size, len(split.train_x))

    def op(self, i):
        audit = []
        n = len(self.individuals)
        start = time.perf_counter()
        try:
            out = self.fitness.evaluate_batch(self.individuals, self.evaluator, self.seed, self.workers, audit)
        except self.fitness.EvaluationError as err:
            wall = time.perf_counter() - start
            return OpResult(wall=wall, attempted=n, failed=len(err.failures),
                            errors=[f"EvaluationError: {err}"])
        wall = time.perf_counter() - start
        res = OpResult(wall=wall, attempted=n, steps=[row["wall_seconds"] for row in audit],
                       work=n * self.iterations * self.batch, work_time=wall)
        values = [ind.fitness for ind in out]
        bad = [v for v in values if not _finite_unit(v)]
        if bad:
            res.errors.append(f"fitness outside [0, 1] or not finite: {bad}")
        if len(audit) != n:
            res.errors.append(f"{len(audit)} audit rows for {n} evaluations")
        res.failed = len(bad) + (n if len(audit) != n else 0)
        res.digest = sha256_text(json.dumps(values))
        return res


# ---------------------------------------------------------------------------
# the benchmark's workloads: operation kinds of one loop, interleaved


class Composite(Workload):
    """Operations of several workloads, interleaved in fixed groups.

    Each group runs ``n`` operations of each part in turn, so every run
    and every commit sees the same mix, and each part's operations keep
    the indices they would have on their own.
    """

    parts = ()  # (workload class, operations per group)

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        self.members = [(cls(seed, tmp_dir), n) for cls, n in self.parts]
        self.op_group = sum(n for _, n in self.parts)
        self.trace_ops = self.op_group
        self.nominal_op_s = sum(cls.nominal_op_s * n for cls, n in self.parts) / self.op_group
        self.trained = self.members[0][0].trained
        self.work_unit = self.members[0][0].work_unit
        self.step = "; ".join(f"{wl.name}: {wl.step}" for wl, _ in self.members)

    def member(self, i):
        group, j = divmod(i, self.op_group)
        for wl, n in self.members:
            if j < n:
                return wl, group * n + j
            j -= n
        raise AssertionError("unreachable")

    def write_inputs(self):
        for wl, _ in self.members:
            wl.write_inputs()

    def setup(self):
        for wl, _ in self.members:
            wl.setup()


class Search(Composite):
    name = "search"
    parts = ((SearchEvolve, len(K_VALUES)), (SearchKsweep, 1))


class Train(Composite):
    name = "train"
    parts = ((TrainFixed, 1), (TrainPopulation, 2))


WORKLOADS = {cls.name: cls for cls in (Search, Train)}


# ---------------------------------------------------------------------------
# traced runs also pass once through every traced function on tiny inputs,
# so each layer reports measured numbers on every workload


def layer_probe(tmp_dir):
    """Deterministic pass through every traced layer on tiny inputs."""
    from evoarch import cli, data, engine, fitness, trainer
    from evoarch.genome import GLOBALPOOL, HEAD, INPUT, Genome, Individual, Node, conv_node

    out_dir = os.path.join(tmp_dir, "probe-evolve")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["evolve", "--fitness", "surrogate", "--seed", "0", "--population", "4",
                  "--generations", "5", "--out-dir", out_dir])
    shutil.rmtree(out_dir, ignore_errors=True)

    config = engine.EvolutionConfig(population_size=4, max_generations=2)
    engine.compare_strategies(config, engine.k_sweep_specs([1, 2], config), 1)

    data_dir = os.path.join(tmp_dir, "probe-data")
    os.makedirs(data_dir, exist_ok=True)
    synthdata.write_mnist(data_dir, 0, n_train=40, n_test=8, side=8)
    split = data.load_dataset("mnist", data_dir)
    nodes = {0: Node(INPUT, {}), 1: conv_node(4, 3), 2: Node(GLOBALPOOL, {}), 3: Node(HEAD, {"classes": 10})}
    genome = Genome((1, 8, 8), 10, nodes, {0: (), 1: (0,), 2: (1,), 3: (2,)})
    evaluator = fitness.TrainedEvaluator(split, trainer.TrainPlan.desk_scale(2, batch_size=8))
    fitness.evaluate_batch([Individual(0, genome)], evaluator)
    shutil.rmtree(data_dir, ignore_errors=True)
