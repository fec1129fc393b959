"""Command-line front end: evolution runs, strategy comparisons, exports.

Exit codes: 0 success, 1 configuration, check or evaluation failure, 2
unreadable or malformed data (dataset files, genome files).  All primary
outputs are deterministic for a given flag set; wall-clock times live
only in run_meta.json and in the wall_seconds field of each
fitness.jsonl row.  BLAS runs each call on one thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says otherwise: trainings use the
other CPUs through fitness workers and the trainer's helper thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from evoarch import data as datamod
from evoarch import engine
from evoarch.engine import ConfigError, EvolutionConfig
from evoarch.fitness import (EvaluationError, SurrogateEvaluator, TrainedEvaluator, evaluate_surrogate, evaluate_trained,
                             split_misfit)
from evoarch.genome import InvalidGenome, ParseError, ShapeError, deserialize, to_dot, validate
from evoarch.trainer import TrainPlan, gradient_check_suite, set_blas_threads

GRAD_TOL = 1e-4


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a flag's default unless it is None or the help text states one."""

    def _get_help_string(self, action):
        if action.default is None or "(default" in (action.help or ""):
            return action.help
        return super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """Help lists each flag's default; a bad flag is a config failure (1), not argparse's 2."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _add_run_flags(p):
    p.add_argument("--fitness", choices=("surrogate", "trained"), default="surrogate",
                   help="fitness evaluator")
    p.add_argument("--dataset", choices=("mnist", "cifar10"), default="mnist",
                   help="dataset for trained fitness")
    p.add_argument("--subset", type=int, default=None,
                   help="cap on training records before the validation split")
    p.add_argument("--iters", type=int, default=600,
                   help="training iterations per evaluated individual")
    p.add_argument("--seed", type=int, default=0, help="run seed")


def _add_search_flags(p, k_help, generations_help):
    p.add_argument("--workers", type=int, default=1, help="parallel evaluations")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default derives from command and seed)")
    p.add_argument("--k", type=int, default=1, help=k_help)
    p.add_argument("--population", type=int, default=10, help="population size")
    p.add_argument("--threshold", type=int, default=1, help="selection distance threshold")
    p.add_argument("--generations", type=int, default=100, help=generations_help)


def build_parser():
    parser = _Parser(prog="evoarch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("evolve", help="run one evolution")
    _add_run_flags(p)
    _add_search_flags(p, "survivors per generation", "generation cap")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare-selection", help="race selection settings")
    _add_run_flags(p)
    _add_search_flags(p, "k for the aggressive entry", "generations per run")
    p.add_argument("--strategies", default=None,
                   help=f"comma-separated strategy names (default: {','.join(engine.STRATEGIES)})")
    p.add_argument("--seeds", type=int, default=20, help="seeds per entry")
    p.add_argument("--k-sweep", dest="k_sweep", default=None,
                   help="comma-separated k values; replaces --strategies")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-dot", help="print a genome as DOT")
    p.add_argument("genome", help="genome JSON file")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("eval-genome", help="evaluate one genome file")
    _add_run_flags(p)
    p.add_argument("genome", help="genome JSON file")
    p.set_defaults(func=cmd_eval_genome)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.set_defaults(func=cmd_grad_check)
    return parser


def _trained_pieces(args):
    data_dir = datamod.resolve_data_dir()
    try:
        split = datamod.load_dataset(args.dataset, data_dir, subset_n=args.subset, seed=args.seed)
    except ValueError as err:  # too few records for a train/validation split
        if args.subset is None:
            raise datamod.DataError(f"{args.dataset} training records under {data_dir}: {err}") from err
        raise ConfigError(f"--subset {args.subset}: {err}") from err
    return split, TrainPlan.desk_scale(args.iters, seed=args.seed)


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err.strerror}") from err
    return path


def _read_genome(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read genome file {path}: {err}") from err
    genome = deserialize(text)
    validate(genome)
    return genome


def _run_config(args):
    """EvolutionConfig for evolve and compare-selection, from the flags alone; ConfigError on a bad flag."""
    return EvolutionConfig(
        population_size=args.population,
        k=args.k,
        distance_threshold=args.threshold,
        max_generations=args.generations,
        seed=args.seed,
        workers=args.workers,
    )


def _with_evaluator(config, args):
    """config and its evaluator.  Trained fitness loads the dataset split, and
    the genomes take their input shape and class count from it."""
    if args.fitness == "surrogate":
        return config, SurrogateEvaluator()
    split, plan = _trained_pieces(args)
    config = replace(config, input_shape=split.input_shape, num_classes=split.num_classes)
    return config, TrainedEvaluator(split, plan)


def cmd_evolve(args):
    config, evaluator = _with_evaluator(_run_config(args), args)
    out_dir = _make_out_dir(args.out_dir or f"runs/evolve-{args.fitness}-s{args.seed}")
    state = engine.run(config, out_dir=out_dir, evaluator=evaluator)
    print(f"generations {state.stats[-1].generation}")
    print(f"best_fitness {state.best.fitness:.6f}")
    print(f"best_genome {os.path.join(out_dir, 'best_genome.json')}")
    return 0


def cmd_compare(args):
    if args.k_sweep is not None and args.strategies is not None:
        raise ConfigError("--k-sweep and --strategies are mutually exclusive")
    config = _run_config(args)
    if args.k_sweep is not None:
        try:
            ks = [int(v) for v in args.k_sweep.split(",") if v]
        except ValueError as err:
            raise ConfigError(f"bad --k-sweep value: {err}") from err
        specs = engine.k_sweep_specs(ks, config)
    else:
        names = engine.STRATEGIES if args.strategies is None else args.strategies.split(",")
        specs = engine.default_specs([s.strip() for s in names if s.strip()], config)
    if not specs:
        flag = "--strategies" if args.k_sweep is None else "--k-sweep"
        raise ConfigError(f"{flag} names nothing to compare")
    engine.check_comparison(config, specs, args.seeds)
    config, evaluator = _with_evaluator(config, args)

    out_dir = _make_out_dir(args.out_dir or f"runs/compare-{args.fitness}-s{args.seed}")
    result = engine.compare_strategies(config, specs, args.seeds, evaluator=evaluator)
    sys.stdout.write(engine.comparison_csv_text(result))
    engine.write_comparison(result, out_dir)
    return 0


def cmd_export_dot(args):
    sys.stdout.write(to_dot(_read_genome(args.genome)))
    return 0


def cmd_eval_genome(args):
    genome = _read_genome(args.genome)
    if args.fitness == "surrogate":
        fitness = evaluate_surrogate(genome)
    else:
        split, plan = _trained_pieces(args)
        misfit = split_misfit(TrainedEvaluator(split, plan), genome.input_shape, genome.num_classes)
        if misfit is not None:
            raise ConfigError(misfit)
        fitness = evaluate_trained(genome, split, plan)
    print(f"{fitness:.6f}")
    return 0


def cmd_grad_check(args):
    results = gradient_check_suite(seed=args.seed)
    for name, err in results:
        print(f"{name} {err:.3e}")
    worst = max(err for _, err in results)
    print(f"max_rel_err {worst:.3e}")
    return 0 if worst <= GRAD_TOL else 1


def main(argv=None):
    if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        set_blas_threads(1)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # an unknown flag's value may have filled a positional slot, so name only the flags
        parser.error(f"unrecognized arguments: {' '.join([t for t in extra if t.startswith('-')] or extra)}")
    try:
        if getattr(args, "seed", 0) < 0:  # every command that takes --seed
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "iters", 1) < 1:  # refused whatever --fitness says
            raise ConfigError(f"--iters must be positive, got {args.iters}")
        if getattr(args, "subset", None) is not None and args.subset < 1:
            raise ConfigError(f"--subset must be positive, got {args.subset}")
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except EvaluationError as err:
        ind, cause = err.failures[0]
        print(f"error: {len(err.failures)} evaluation(s) failed; individual {ind}: {cause!r}", file=sys.stderr)
        return 1
    except (datamod.DataError, ParseError, ShapeError, InvalidGenome) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
