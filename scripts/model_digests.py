#!/usr/bin/env python3
"""Print the sha256 of every leave-one-out fold model's payload.

Fits each (task, learner, held-out participant) fold of a freshly generated
corpus through ``fit_folds``, as the evaluation regimes do (in worker
processes, one per CPU the process may use), and prints one line per fold
model: the sha256 of its JSON payload as ``save_model`` writes it. A last
line gives the sha256 of all fold lines together, so two checkouts fit the
same models exactly when their combined digests agree. Wall seconds per
learner, over both tasks, go to stderr; with more than one CPU they are
less than the learner's summed fit time.

Usage:
    python scripts/model_digests.py [--participants 26] [--seed 7]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaze_sentinel.evaluate import TASKS, Corpus, fit_folds
from gaze_sentinel.learners import KINDS, default_config
from gaze_sentinel.model_io import model_payload
from gaze_sentinel.sim import CorpusSpec, generate_corpus


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--participants", type=int, default=26)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    corpus = Corpus(generate_corpus(
        CorpusSpec(participants=args.participants, master_seed=args.seed)))
    lines = []
    fit_s = dict.fromkeys(KINDS, 0.0)
    for task in TASKS:
        dataset, _ = corpus.dataset_for_task(task)
        for kind in KINDS:
            config = default_config(kind, seed=args.seed)
            pids = sorted(set(dataset.groups.tolist()))
            t0 = time.perf_counter()
            models = fit_folds(dataset, config, pids)
            fit_s[kind] += time.perf_counter() - t0
            for pid, model in zip(pids, models):
                blob = json.dumps(model_payload(model), indent=1).encode()
                lines.append(f"{task} {kind} p{pid:03d} {hashlib.sha256(blob).hexdigest()}")
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"combined {combined}")
    print(" ".join(f"{kind}={s:.2f}s" for kind, s in fit_s.items()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
