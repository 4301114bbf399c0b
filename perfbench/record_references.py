"""Record the reference task's outputs into references.json.

    python3 perfbench/record_references.py

Runs task 0 (the reference study seed) of every workload once, refuses to
record outputs that fail the benchmark's own invariants, and writes the
values and the SHA-256 of every artifact.  Values are later compared with a
relative tolerance of RTOL, hashes exactly.
"""

from __future__ import annotations

import json
import os

import run

RTOL = 1e-9


def main() -> None:
    os.chdir(run.ROOT)
    env, workloads = run.setup()
    refs = {"rtol": RTOL, "study_seed": workloads.REFERENCE_SEED, "env": env,
            "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        _, _, values, problems, hashes = run.execute(workloads.WORKLOADS[name],
                                                     workloads.REFERENCE_SEED)
        bad = run.check(values, problems, hashes)
        if bad:
            raise SystemExit(f"{name}: " + "; ".join(bad))
        refs["workloads"][name] = {"values": run.plain(values), "artifacts": hashes}
        print(f"{name}: {len(values)} values, {len(hashes)} artifacts")
    with open(run.HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
