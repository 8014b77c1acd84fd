"""Record the outputs the benchmark's checks compare against.

Run from the root of a source checkout, at a commit whose outputs are
known to be right::

    python3 bench/record.py

It writes ``bench/expected.json``: paper6's stdout bytes, and at the
default seed the totals of every scheduler on every sparse_clean scenario
and the order and totals of every oracle7 queue.  dense_faulty records
nothing (see ``DenseFaulty.recorded_key``).
"""

from __future__ import annotations

import json
import sys

from run import BENCH, DEFAULT_SEED, SRC

sys.path.insert(0, str(SRC))

from spans import NullTracer  # noqa: E402
from workloads import load_api, workloads  # noqa: E402


def main() -> int:
    api = load_api(SRC)
    null = NullTracer()
    found = workloads()
    recorded = {}

    paper6 = found["paper6"]
    code, stdout = paper6.run(api, paper6.build(api, DEFAULT_SEED, null)[0], null, [])
    if code != 0:
        print(f"paper6 exited {code}", file=sys.stderr)
        return 1
    recorded["paper6"] = {paper6.recorded_key(DEFAULT_SEED): {"stdout": stdout}}

    sparse = found["sparse_clean"]
    recorded["sparse_clean"] = {sparse.recorded_key(DEFAULT_SEED): {
        item.uid: list(api.run_scheduler(item.scenario, item.alg).totals.as_tuple())
        for item in sparse.build(api, DEFAULT_SEED, null)
    }}

    oracle = found["oracle7"]
    queues = {}
    for item in oracle.build(api, DEFAULT_SEED, null):
        result = api.optimal_order(item.scenario)
        queues[item.uid] = {"order": list(result.order), "totals": list(result.totals.as_tuple())}
    recorded["oracle7"] = {oracle.recorded_key(DEFAULT_SEED): queues}

    path = BENCH / "expected.json"
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
