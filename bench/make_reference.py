"""Write bench/reference/<workload>.json: the outputs the checks compare to.

    python3 bench/make_reference.py [--workload NAME ...] [--seeds 0-10]

Run from the root of a checkout.  For every seed it runs as many passes as a
default-length run can reach and stores per-trial verdicts, lemma coverage
or catalog values, together with the CSV_VERSION and the digest of the code
that produced them.  Regenerate only when the expected outputs change on
purpose (a new CSV_VERSION, or a bug fix that changes answers) and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from checks import REFERENCE_DIR, code_digest, pass_entry
from run import OUT_DIR, SRC, import_listcolor
from steady import parse_seeds
from workloads import make_workloads, pass_base_seed

# Passes stored per seed: enough to cover a 15-second run on a 2-CPU machine.
PASSES = {"sweep_cliques": 4, "cycles_k3": 3, "lemma_corpus": 8, "tail_k2": 1, "bounds_catalog": 1}
SEED_INDEPENDENT = ("tail_k2", "bounds_catalog")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(PASSES))
    parser.add_argument("--seeds", default="0-10")
    args = parser.parse_args(argv)
    lc = import_listcolor()
    workloads = make_workloads(OUT_DIR)
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(PASSES):
        wl = workloads[name]
        wl.setup(lc)
        runs = {}
        seeds = [0] if name in SEED_INDEPENDENT else parse_seeds(args.seeds)
        for seed in seeds:
            for p in range(PASSES[name]):
                result = wl.run_pass(lc, p, seed)
                if name not in SEED_INDEPENDENT and result.base_seed != pass_base_seed(seed, p):
                    raise AssertionError("pass base seed drifted from pass_base_seed")
                runs[str(result.base_seed)] = pass_entry(wl, result)
                print(f"{name} seed {seed} pass {p}: {result.attempted} ops, "
                      f"{result.failed} failed, {result.wall_s:.2f} s", flush=True)
        document = {
            "workload": name,
            "csv_version": lc.harness.CSV_VERSION,
            "code_digest": code_digest(SRC),
            "runs": runs,
        }
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
