#!/usr/bin/env python3
"""Run one workload of the slotfill benchmark and print its metrics.

    python3 perfbench/run.py --workload entity_fanout --seed 1 --seconds 45 --trace 0

Every workload is one closed loop in this one process (one client, no
threads).  It generates the inputs from the seed, trains the models the
queries use and sets the system up, then repeats rounds until ``--seconds``
have passed.  A round retrains the first slot's models at fewer epochs,
piece by piece, answers queries after every piece, and sets the system up
again.  So every metric samples the whole run: the host's CPU speed drifts
by tens of percent over seconds, and a metric timed in one block would
follow it.  Times and rates are totals over the run, latencies are
quantiles of every timed query, and ``setup_s`` is the median set-up.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs the workload once untraced and once with the
outside-in tracer (``tracing.py``) and reports the per-layer metrics, plus
``trace_overhead_share``; its spans and a summary land in ``.bench_out/``.

The run fails (exit 1) when the answers of a repeated query differ within
the run, when two training rounds give different models, when the traced
run trains or answers differently from the untraced one, when the
generated gold cannot be read by ``pipeline.load_gold``, or when a query or
training job raises.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one thread: the benchmark is one client in one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# per workload: run configuration, whether the coref file is used, the
# seconds of queries answered after each training piece per second that
# piece took (large_index answers all of its 104 slow queries in a run),
# and every how many rounds the system is set up again (large_index takes
# ~2 s to set up)
WORKLOADS = {
    "entity_fanout": dict(run=4, coref=True, query_ratio=1.5, setup_every=1),
    "large_index": dict(run=2, coref=False, query_ratio=2.0, setup_every=2),
}
MIN_ROUNDS = 3
# per round, set-up is repeated until it has taken this long
SETUP_SECONDS = 0.25
MIN_TIMED_QUERIES = 100
# queries answered once, untimed, before the first timed one; they are
# answered again later, which checks that their answers repeat
WARM_UP_QUERIES = 5
KINDS = ("svm", "cnn", "rnn")
# Small dims keep training to seconds.  The models the queries use, and
# held-out accuracy, come from one training at EPOCHS, where every model
# kind converges; the timed rounds train at ROUND_EPOCHS, so that a run
# holds many of them.
MODEL_CONFIG = dict(dim=16, filters=12, cnn_hidden=16, rnn_hidden=16,
                    learning_rate=0.5, batch_size=2)
EPOCHS = {"svm": 20, "cnn": 6, "rnn": 14}
ROUND_EPOCHS = {"svm": 5, "cnn": 2, "rnn": 1}


class GateError(RuntimeError):
    """A correctness check of the benchmark failed."""


def _import_program():
    if not (SRC / "slotfill" / "__init__.py").is_file():
        sys.exit(f"error: the slotfill sources are missing ({SRC / 'slotfill'}); "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


# ---------------------------------------------------------------------------
# phases


class Run:
    """One workload invocation: inputs, models, system state and results."""

    def __init__(self, workload: str, work: Path, tracer=None):
        from slotfill import pipeline, query, resources, trainer, traindata
        self.pipeline, self.trainer, self.traindata = pipeline, trainer, traindata
        self.query_mod, self.resources = query, resources
        self.spec = WORKLOADS[workload]
        self.work = work
        self.tracer = tracer
        self.failed = 0
        self.attempted = 0
        self.digests: dict[str, str] = {}

    def mark(self, trace_id: str) -> None:
        if self.tracer is not None:
            self.tracer.trace_id = trace_id

    # -- set-up -----------------------------------------------------------

    def load_training(self):
        """Ingest the training corpus and KB plus the resources distant
        supervision reads (not through the traced names: the corpus layer
        metrics describe the query corpus)."""
        from slotfill.corpus import ingest_documents
        r = self.resources
        store = ingest_documents(self.work / "train_corpus.jsonl")
        kb = self.traindata.load_kb_instances(self.work / "train_kb.tsv")
        return store, kb, (r.default_slot_configs(), r.default_gazetteers(),
                           r.default_triggers())

    def setup_system(self, models: Path):
        """``load_system`` over the query corpus, plus the workload's KB."""
        self.mark("setup")
        coref = self.work / "coref.tsv" if self.spec["coref"] else None
        state = self.pipeline.load_system(self.work / "corpus.jsonl", coref,
                                          models)
        state.kb = self.query_mod.load_kb(self.work / "kb.jsonl")
        return state

    # -- training ---------------------------------------------------------

    def warm_up(self, slot: str) -> None:
        """One tiny untimed job per model kind, on the seed examples, so
        the timed jobs do not pay for first-call costs."""
        from slotfill.traindata import load_examples
        seed_data = [e for e in load_examples(self.work / "seed_examples.jsonl")
                     if e.slot == slot]
        cfg = self.trainer.ModelTrainingConfig(epochs=1, svm_epochs=1,
                                               **MODEL_CONFIG)
        for kind in KINDS:
            self.trainer.train_slot_model(seed_data, slot, kind,
                                          self.work / "warm-up", cfg)

    def train(self, training, slots: list[str], models: Path,
              epochs: dict[str, int], between=None) -> dict:
        """One training round: distant supervision and the selection loop,
        then SVM and CNN for every slot and the three RNN variants for the
        first slot.  ``between(seconds)``, if given, runs after each of
        these pieces with the time it took.  Returns the summed piece
        time, and example-epochs and seconds per kind."""
        from slotfill.traindata import load_examples
        store, kb, (slot_configs, gazetteers, triggers) = training
        cfg = {k: self.trainer.ModelTrainingConfig(
            epochs=epochs[k], svm_epochs=epochs["svm"], **MODEL_CONFIG)
            for k in KINDS}
        seed_data = load_examples(self.work / "seed_examples.jsonl")
        work = {k: 0 for k in KINDS}
        secs = {k: 0.0 for k in KINDS}
        examples_by_slot = {}
        train_s = 0.0

        def done(t0: float) -> float:
            nonlocal train_s
            piece = perf_counter() - t0
            train_s += piece
            if between is not None:
                between(piece)
            return piece

        for i, slot in enumerate(slots):
            self.mark(f"train:{slot}:data")
            t = perf_counter()
            noisy = self.trainer.build_distant_dataset(
                store, kb, slot, slot_configs, gazetteers, triggers)
            examples = self.trainer.apply_selection(
                noisy, [e for e in seed_data if e.slot == slot])
            examples_by_slot[slot] = examples
            done(t)
            for kind in KINDS if i == 0 else KINDS[:2]:
                self.mark(f"train:{slot}:{kind}")
                self.attempted += 1
                t = perf_counter()
                self.trainer.train_slot_model(examples, slot, kind, models,
                                              cfg[kind])
                secs[kind] += done(t)
                variants = len(self.trainer.RNN_VARIANTS) if kind == "rnn" else 1
                work[kind] += len(examples) * epochs[kind] * variants
        return {"train_s": train_s, "work": work, "secs": secs,
                "examples": {s: len(e) for s, e in examples_by_slot.items()}}

    def heldout(self, slots: list[str], models: Path):
        """Accuracy of every saved model on the held-out examples of its
        slot, and a digest of every held-out score."""
        self.mark("heldout")
        from slotfill.classify import load_svm, svm_score
        from slotfill.nnets import load_model
        from slotfill.traindata import load_examples
        heldout = load_examples(self.work / "heldout.jsonl")
        accuracy = {k: [] for k in KINDS}
        h = hashlib.sha256()
        for slot in slots:
            stem = self.trainer.slot_file_stem(slot)
            data = [e for e in heldout if e.slot == slot]
            for path in sorted(models.glob(f"{stem}.*.npz")):
                kind = path.name.split(".")[1]
                if kind == "svm":
                    model = load_svm(path)
                    scores = [svm_score(model, e) for e in data]
                else:
                    model = load_model(path)
                    scores = [model.forward(e) for e in data]
                h.update(f"{path.name}:{scores!r}".encode())
                hits = sum((s >= 0.5) == bool(e.label) for s, e in zip(scores, data))
                accuracy[kind].append(hits / len(data))
        return {k: statistics.fmean(v) for k, v in accuracy.items() if v}, \
            h.hexdigest()

    # -- queries ----------------------------------------------------------

    def answer(self, state, q, cfg) -> list:
        """Answer one query.  Answers that differ from an earlier run of the
        same query fail the run; a query that raises counts as failed."""
        self.mark(f"query:{q.id}")
        self.attempted += 1
        try:
            answers = self.pipeline.run_cold_start(state, q, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return []
        d = answer_digest(answers)
        if self.digests.setdefault(q.id, d) != d:
            raise GateError(f"query {q.id}: answers differ between "
                            "repeated runs in one invocation")
        return answers


def answer_digest(answers) -> str:
    """Digest of one query's answer rows, deduplicated and ordered as
    ``pipeline.run_queries`` and ``write_answers`` do."""
    best = {}
    for a in answers:
        key = (a.query_id, a.hop, a.slot, a.filler, a.doc_id)
        if key not in best or a.score > best[key].score:
            best[key] = a
    rows = [f"{a.query_id}\t{a.hop}\t{a.slot}\t{a.filler}\t{a.doc_id}\t"
            f"{a.score:.4f}" for k, a in sorted(best.items())]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run_digest(queries, digests: dict[str, str]) -> str:
    return hashlib.sha256(
        "".join(digests.get(q.id, "failed") for q in queries).encode()
    ).hexdigest()


def model_digest(models: Path) -> str:
    """Digest of every array of every saved model."""
    import numpy as np
    h = hashlib.sha256()
    for path in sorted(models.glob("*.npz")):
        with np.load(path) as data:
            for key in sorted(data.files):
                h.update(f"{path.name}:{key}".encode())
                h.update(data[key].tobytes())
    return h.hexdigest()


def repeat_setup(setup):
    """Run ``setup`` once and then again until SETUP_SECONDS have passed;
    return every sample and the last result."""
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < SETUP_SECONDS:
        result = None   # let the previous result go before the next set-up
        t = perf_counter()
        result = setup()
        samples.append(perf_counter() - t)
    return samples, result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two modes


def prepare(workload: str, seed: int, work: Path):
    """Generate the inputs and check the gold parses."""
    import gen
    from slotfill.pipeline import load_gold, load_queries
    summary = gen.generate(workload, seed, work)
    try:
        gold = load_gold(work / "gold.tsv")
    except (ValueError, OSError) as exc:
        raise GateError(f"generated gold does not parse: {exc}") from exc
    if not gold:
        raise GateError("generated gold is empty")
    return summary, load_queries(work / "queries.jsonl"), gold


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Train the models the queries use and set up, then run rounds until
    ``seconds`` have passed, at least MIN_ROUNDS rounds ran, every query
    was answered and MIN_TIMED_QUERIES were timed."""
    from slotfill.pipeline import score_output
    summary, queries, gold = prepare(workload, seed, work)
    run = Run(workload, work)
    spec = WORKLOADS[workload]
    slots = summary["train_slots"]
    cfg = run.pipeline.configure_run(spec["run"])
    training = run.load_training()
    run.warm_up(slots[0])
    final = run.train(training, slots, work / "models", EPOCHS)
    accuracy, digest = run.heldout(slots, work / "models")
    setups, state = repeat_setup(lambda: run.setup_system(work / "models"))
    for q in queries[:WARM_UP_QUERIES]:
        run.answer(state, q, cfg)
    start = perf_counter()
    latencies: list[float] = []
    first_pass: dict[str, list] = {}

    def answer_for(piece_s: float) -> None:
        """Answer the next queries, in order, for ``query_ratio`` times
        ``piece_s`` seconds (at least one)."""
        t_end = perf_counter() + spec["query_ratio"] * piece_s
        while True:
            q = queries[len(latencies) % len(queries)]
            t = perf_counter()
            answers = run.answer(state, q, cfg)
            latencies.append(perf_counter() - t)
            first_pass.setdefault(q.id, answers)
            if perf_counter() >= t_end:
                return

    rounds = []
    while (len(rounds) < MIN_ROUNDS or len(first_pass) < len(queries)
           or len(latencies) < MIN_TIMED_QUERIES
           or perf_counter() - start < seconds):
        gc.collect()
        trained = run.train(training, slots[:1], work / "round-models",
                            ROUND_EPOCHS, answer_for)
        trained["model_digest"] = model_digest(work / "round-models")
        if rounds and trained["model_digest"] != rounds[0]["model_digest"]:
            raise GateError("two training rounds gave different models")
        rounds.append(trained)
        if len(rounds) % spec["setup_every"] == 0:
            state = None    # let the old system go before the next set-up
            samples, state = repeat_setup(
                lambda: run.setup_system(work / "models"))
            setups += samples
    _, _, f1, counts = score_output(
        [a for q in queries for a in first_pass[q.id]], gold)
    ms = sorted(l * 1000.0 for l in latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "query_ms_p50": (statistics.median(ms), "ms"),
        "query_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "answer_f1": (100.0 * f1, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "train_s": (statistics.fmean(r["train_s"] for r in rounds), "s"),
    }
    for kind in KINDS:
        metrics[f"train_examples_per_s.{kind}"] = (
            sum(r["work"][kind] for r in rounds)
            / math.fsum(r["secs"][kind] for r in rounds), "1/s")
    for kind in KINDS:
        metrics[f"heldout_accuracy.{kind}"] = (accuracy[kind], "ratio")
    info = {
        "inputs": summary, "run_config": spec["run"],
        "rounds": len(rounds), "measured_s": perf_counter() - start,
        "timed_queries": len(latencies), "setup_samples": len(setups),
        "answer_counts": vars(counts),
        "answer_digest": run_digest(queries, run.digests),
        "model_digest": digest,
        "round_model_digest": rounds[0]["model_digest"],
        "training_examples": final["examples"],
        "failed_share": f"{run.failed}/{run.attempted}",
    }
    return {"run": run, "metrics": metrics, "info": info}


def traced(workload: str, seed: int, work: Path) -> dict:
    """One untraced pass and one traced pass of the same workload, each
    training, setting up and answering every query once.  The two must
    give the same models and the same answers."""
    import layers
    from tracing import Tracer
    summary, queries, gold = prepare(workload, seed, work)
    slots = summary["train_slots"]
    passes = {}
    for name in ("untraced", "traced"):
        tracer = Tracer() if name == "traced" else None
        run = Run(workload, work, tracer)
        models = work / f"models-{name}"
        run.warm_up(slots[0])
        t0 = perf_counter()
        if tracer is not None:
            layers.install(tracer)
        try:
            trained = run.train(run.load_training(), slots, models,
                                EPOCHS)
            trained["accuracy"], trained["model_digest"] = run.heldout(
                slots, models)
            state = run.setup_system(models)
            cfg = run.pipeline.configure_run(WORKLOADS[workload]["run"])
            for q in queries:
                run.answer(state, q, cfg)
        finally:
            if tracer is not None:
                tracer.restore()
        passes[name] = {"run": run, "trained": trained, "tracer": tracer,
                        "digest": run_digest(queries, run.digests),
                        "wall": perf_counter() - t0}
    plain, traced_ = passes["untraced"], passes["traced"]
    if plain["trained"]["model_digest"] != traced_["trained"]["model_digest"]:
        raise GateError("tracing changed the trained models")
    if plain["digest"] != traced_["digest"]:
        raise GateError("tracing changed the answers")
    tracer = traced_["tracer"]
    metrics, bases = layers.metrics(tracer)
    metrics["trace_overhead_share"] = (traced_["wall"] / plain["wall"], "ratio")
    bases["trace_overhead_share"] = (traced_["wall"], plain["wall"])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{workload}-{seed}"
    tracer.write(stem.with_suffix(".jsonl"))
    info = {
        "inputs": summary, "run_config": WORKLOADS[workload]["run"],
        "answer_digest": plain["digest"],
        "model_digest": plain["trained"]["model_digest"],
        "spans": len(tracer.spans),
        "bases": {k: list(v) for k, v in bases.items()},
        "wait_s": "not measured: one closed-loop client and no queues, "
                  "so no call waits for another",
        "query_phase_self_s": layers.ranking(tracer, "query:"),
        "train_phase_self_s": layers.ranking(tracer, "train:"),
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": {k: v[0] for k, v in metrics.items()},
                   **info}, fh, indent=1, sort_keys=True)
    run = plain["run"]
    run.attempted += traced_["run"].attempted
    run.failed += traced_["run"].failed
    return {"run": run, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    logging.basicConfig(level=logging.ERROR)

    work = OUT / f"{args.workload}-{args.seed}-work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, work)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run = result["run"]
    correct = not run.failed
    for key, value in result["info"].items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
