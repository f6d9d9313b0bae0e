"""Prepare the serve workload: its checkpoint, requests and answers.

    python3 perfbench/serve_prep.py --variant 0 --seed 7 --store DIR --out DIR

Loads (training once, into the persistent ``--store``) the Table 1
full-NTT checkpoint of the variant, saves it uncompressed as
``<out>/model.npz`` so the server memory-maps it, picks pretrain test
windows with the seed, encodes them as ``POST /predict`` bodies and
records a direct ``Predictor.predict`` of every window as the answer
the server must give.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from campaign import table1_spec

LO_BODIES = 128  # 1-window requests
BULK_BODIES = 48  # 8-window requests
BULK_WINDOWS = 8


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.api import ArtifactStore, Experiment, Predictor

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiment = Experiment(table1_spec(args.variant), store=ArtifactStore(args.store))
    model_path = out / "model.npz"
    experiment.predictor().save(model_path, compress=False)
    test = experiment.bundle("pretrain").test

    rng = np.random.default_rng(args.seed)
    lo = [rng.integers(len(test), size=1) for _ in range(LO_BODIES)]
    bulk = [rng.integers(len(test), size=BULK_WINDOWS) for _ in range(BULK_BODIES)]
    everything = np.concatenate(lo + bulk)
    reference = Predictor.from_checkpoint(model_path, batch_size=1024, mmap=True)
    answers = reference.predict(test.features[everything], test.receiver[everything])

    requests = {"lo": [], "bulk": []}
    start = 0
    for phase, groups in (("lo", lo), ("bulk", bulk)):
        for indices in groups:
            body = {
                "features": test.features[indices].tolist(),
                "receiver": test.receiver[indices].tolist(),
            }
            requests[phase].append(
                {
                    "body": json.dumps(body),
                    "expect": answers[start : start + len(indices)].tolist(),
                }
            )
            start += len(indices)
    with open(out / "requests.json", "w", encoding="utf-8") as handle:
        json.dump({"model": str(model_path), "requests": requests}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
