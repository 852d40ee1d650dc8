#!/usr/bin/env python3
"""Print the headline pipeline numbers for a behaviour profile.

Used when tuning the committed default profile: runs the forest first-n
curves, the five-classifier window ordering at width 5, the offset curves,
and the null-profile guard (balanced accuracy, as acceptance criterion 08
asserts it, beside raw accuracy, recall and false-positive rate) on a
freshly generated corpus.

Usage:
    python scripts/calibrate_profile.py [--participants N] [--seed S]
        [--profile FILE] [--skip-stream] [--skip-null]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaze_sentinel.evaluate import (
    TASKS,
    Corpus,
    eval_first_n,
    interval_detection_rate,
    loo_cv,
    loo_stream_eval,
)
from gaze_sentinel.learners import KINDS, default_config
from gaze_sentinel.sim import BehaviorParams, CorpusSpec, generate_corpus


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--participants", type=int, default=26)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--profile", default=None)
    ap.add_argument("--skip-stream", action="store_true")
    ap.add_argument("--skip-null", action="store_true")
    args = ap.parse_args()

    behavior = BehaviorParams.from_file(args.profile) if args.profile else None
    spec = CorpusSpec(participants=args.participants, master_seed=args.seed,
                      behavior=behavior)
    t0 = time.monotonic()
    corpus = Corpus(generate_corpus(spec))
    for task in TASKS:
        corpus.rows_for_task(task)
    print(f"corpus: {len(corpus.sessions)} sessions in {time.monotonic()-t0:.1f}s")

    n_values = [1, 2, 3, 4, 5]
    for task in ("nf-ef", "nf-df"):
        t0 = time.monotonic()
        reports = eval_first_n(corpus, task, default_config("forest", seed=args.seed),
                               n_values)
        acc = [round(reports[n].accuracy, 3) for n in n_values]
        rec = [round(reports[n].recall, 3) for n in n_values]
        print(f"{task} forest first-n acc={acc} rec={rec} ({time.monotonic()-t0:.0f}s)")

    if not args.skip_stream:
        for task in ("nf-ef", "nf-df"):
            print(f"--- stream width=5 {task}")
            t0 = time.monotonic()
            curves = {}
            for kind in KINDS:
                res = loo_stream_eval(corpus, task, default_config(kind, seed=args.seed), 5.0)
                curves[kind] = res
                print(f"  {kind:7s} acc={res.report.accuracy:.3f} rec={res.report.recall:.3f}")
            offsets = interval_detection_rate(curves["forest"].detections, corpus, 5.0)
            peak = max(offsets, key=lambda p: p[1])
            print(f"  forest offset curve: {[(o, round(p, 2)) for o, p in offsets]}")
            print(f"  argmax offset={peak[0]} ({time.monotonic()-t0:.0f}s)")

    if not args.skip_null:
        print("--- null profile")
        null_spec = CorpusSpec(
            participants=args.participants, master_seed=args.seed,
            behavior=spec.resolved_behavior().zero_failure_deltas(),
        )
        null_corpus = Corpus(generate_corpus(null_spec))
        for task in ("nf-ef", "nf-df"):
            dataset, _ = null_corpus.dataset_for_task(task)
            for kind in KINDS:
                rep = loo_cv(dataset, default_config(kind, seed=args.seed), task=task)
                print(f"  {task} {kind:7s} bal={rep.balanced_accuracy:.3f} "
                      f"acc={rep.accuracy:.3f} rec={rep.recall:.3f} fpr={rep.fpr:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
