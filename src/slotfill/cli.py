"""Command-line interface: train, tune, run, score.

The SF_SEED environment variable overrides the seed of ``train`` (its
``--seed``); tune, run and score draw no random numbers.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

log = logging.getLogger(__name__)

DEFAULT_SEED = 13


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    value = os.environ.get("SF_SEED")
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        log.warning("ignoring non-integer SF_SEED=%r", value)
        return default


def _cmd_train(args) -> int:
    from . import resources
    from .corpus import ingest_documents
    from .traindata import SelectionConfig, load_examples, load_kb_instances
    from .trainer import (
        ModelTrainingConfig,
        apply_selection,
        build_distant_dataset,
        train_slot_model,
    )

    slot_configs = resources.default_slot_configs()
    if args.slot not in slot_configs:
        print(f"error: unknown slot {args.slot!r}", file=sys.stderr)
        return 1
    canonical = slot_configs[args.slot].canonical_slot
    if slot_configs[canonical].classifier_less and args.model != "pattern":
        print(f"error: slot {args.slot} is classifier-less; only patterns "
              "apply", file=sys.stderr)
        return 1
    if args.model == "pattern":
        patterns = resources.default_patterns().get(canonical, [])
        print(f"{len(patterns)} patterns on file for {canonical} "
              "(patterns are data; nothing to train)")
        return 0
    if not (args.examples or args.corpus and args.kb):
        print("error: train needs --examples, or --corpus and --kb",
              file=sys.stderr)
        return 1
    if args.select and not args.seed_data:
        print("error: train --select needs --seed-data", file=sys.stderr)
        return 1

    seed = seed_from_env(args.seed)
    if args.examples:
        examples = [ex for ex in load_examples(args.examples)
                    if ex.slot in (args.slot, canonical)]
    else:
        store = ingest_documents(args.corpus)
        kb = load_kb_instances(args.kb)
        triggers = resources.default_triggers()
        examples = build_distant_dataset(store, kb, canonical, slot_configs,
                                         resources.default_gazetteers(),
                                         triggers)
    if args.select:
        seed_data = load_examples(args.seed_data)
        examples = apply_selection(
            examples, seed_data, SelectionConfig(k=args.batches, tau=args.tau,
                                                 seed=seed))
    cfg = ModelTrainingConfig(
        dim=args.dim, filters=args.filters, cnn_hidden=args.cnn_hidden,
        rnn_hidden=args.rnn_hidden, epochs=args.epochs,
        learning_rate=args.learning_rate, seed=seed,
        embedding_file=args.embeddings)
    written = train_slot_model(examples, canonical, args.model, args.out_dir,
                               cfg)
    print(f"trained {args.model} for {canonical} on {len(examples)} examples")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _cmd_tune(args) -> int:
    from . import resources
    from .classify import combine_scores, match_patterns
    from .pipeline import ModelRegistry, classifier_scores, classifier_view
    from .traindata import load_examples, tune_interpolation_weights, tune_thresholds

    slot_configs = resources.default_slot_configs()
    patterns = resources.default_patterns()
    registry = ModelRegistry.from_dir(args.models)
    dev = load_examples(args.dev)
    if not dev:
        print(f"error: {args.dev}: no dev examples", file=sys.stderr)
        return 1

    # the examples of one canonical slot are scored in one batch
    rows: dict[str, list[int]] = {}
    scores: list[dict[str, float]] = []
    views = []
    for i, ex in enumerate(dev):
        slot_cfg = slot_configs[ex.slot]
        canonical = slot_cfg.canonical_slot
        rows.setdefault(canonical, []).append(i)
        views.append(classifier_view(ex, slot_cfg.swapped))
        scores.append({"pattern": match_patterns(
            views[-1], patterns.get(canonical, []))})
    for canonical, idx in rows.items():
        by_kind = classifier_scores(registry, canonical,
                                    [views[i] for i in idx],
                                    registry.kinds_for(canonical))
        for kind, values in by_kind.items():
            for i, value in zip(idx, values):
                scores[i][kind] = value
    scored_rows = [(ex.slot, s, ex.label) for ex, s in zip(dev, scores)]

    weights = tune_interpolation_weights([(s, y) for _, s, y in scored_rows])
    by_slot: dict[str, list[tuple[float, int]]] = {}
    for slot, scores, label in scored_rows:
        by_slot.setdefault(slot, []).append(
            (combine_scores(scores, weights), label))
    thresholds = tune_thresholds(by_slot)

    payload = {"weights": weights, "thresholds": thresholds}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"tuned weights {weights} -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    from .pipeline import (
        ModelMissingError,
        configure_run,
        load_queries,
        load_system,
        run_queries,
        write_answers,
    )

    state = load_system(args.corpus, coref_path=args.coref,
                        models_dir=args.models, tuned_path=args.tuned)
    cfg = configure_run(args.run, coref_enabled=not args.no_coref)
    queries = load_queries(args.queries)
    try:
        answers = run_queries(state, queries, cfg)
    except ModelMissingError as exc:
        # raised by the first query with candidates to score by that model,
        # so queries whose slots yield no candidate run without one
        print(f"error: --models {args.models or '(not given)'}: {exc}",
              file=sys.stderr)
        return 1
    write_answers(answers, args.out)
    print(f"run {args.run}: {len(answers)} answers for {len(queries)} queries "
          f"-> {args.out}")
    return 0


def _cmd_score(args) -> int:
    from .pipeline import load_gold, read_answers, score_output

    answers = read_answers(args.system)
    gold = load_gold(args.gold)
    precision, recall, f1_frac, counts = score_output(answers, gold)
    print(f"tp={counts.tp} fp={counts.fp} fn={counts.fn}")
    print(f"P={100 * precision:.2f} R={100 * recall:.2f} F1={100 * f1_frac:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotfill",
        description="Cold-start slot filling: train, tune, run, score.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one classifier for a slot")
    p_train.add_argument("--slot", required=True)
    p_train.add_argument("--model", required=True,
                         choices=["pattern", "svm", "cnn", "rnn"])
    p_train.add_argument("--corpus", help="training corpus (JSON Lines)")
    p_train.add_argument("--kb", help="relation instances TSV")
    p_train.add_argument("--examples", help="pre-built examples JSONL "
                                            "(skips distant supervision)")
    p_train.add_argument("--select", action="store_true",
                         help="run the batched training-data selection loop")
    p_train.add_argument("--seed-data", help="clean seed examples JSONL")
    p_train.add_argument("--batches", type=int, default=5)
    p_train.add_argument("--tau", type=float, default=0.8)
    p_train.add_argument("--out-dir", default="models")
    p_train.add_argument("--dim", type=int, default=50)
    p_train.add_argument("--filters", type=int, default=50)
    p_train.add_argument("--cnn-hidden", type=int, default=100)
    p_train.add_argument("--rnn-hidden", type=int, default=50)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--learning-rate", type=float, default=0.05)
    p_train.add_argument("--embeddings", help="pretrained embedding text file")
    p_train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_train.set_defaults(func=_cmd_train)

    p_tune = sub.add_parser("tune", help="tune thresholds and weights on dev data")
    p_tune.add_argument("--dev", required=True)
    p_tune.add_argument("--models", required=True)
    p_tune.add_argument("--out", required=True)
    p_tune.set_defaults(func=_cmd_tune)

    p_run = sub.add_parser("run", help="answer queries end to end")
    p_run.add_argument("--queries", required=True)
    p_run.add_argument("--corpus", required=True)
    p_run.add_argument("--run", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p_run.add_argument("--no-coref", action="store_true")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--models")
    p_run.add_argument("--coref")
    p_run.add_argument("--tuned", help="JSON from the tune subcommand: "
                       "interpolation weights and per-slot thresholds")
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="micro-averaged P/R/F1 against gold")
    p_score.add_argument("--system", required=True)
    p_score.add_argument("--gold", required=True)
    p_score.set_defaults(func=_cmd_score)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # a bad or missing input file; the loaders name the file and line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
