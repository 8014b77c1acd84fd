"""One SHA-256 pinned over the scenario text ``render_scenario`` writes.

The scenarios are the six built-in cases and a fixed grid of up to 20,000
requests on four disks: repeated addresses, writes, ``bad`` lines and drawn
direction hints.  The digest covers each scenario's rendered text, and the
text of its parse → render round trip from a noisy copy of that text
(leading zeros, an explicit ``op=r``, comments, tabs, blank lines and CRLF
line ends), which must come back canonical.  A change to the parser or the
renderer must leave the digest where it is.
"""

import hashlib
import random
import re
from dataclasses import replace

from plattersim.geometry import DiskGeometry
from plattersim.workload import (
    BUILTIN_CASE_IDS,
    DIRECTION_HINT_NAMES,
    GeneratorParams,
    MemoryRequest,
    builtin_case,
    generate,
    parse_scenario,
    render_scenario,
)

TEXT_DIGEST = "4f16cfc8a57018621d54d8055f7903781407b8cc70385eb1132dfd35b4d9f63b"

# (platters, tracks, sectors), requests, distinct addresses, bad addresses.
GRID = (
    ((1, 5, 3), 1, 1, 0),
    ((1, 5, 3), 40, 15, 2),
    ((4, 200, 8), 20, 20, 1),
    ((4, 200, 8), 1_000, 300, 5),
    ((8, 100_000, 64), 2_000, 2_000, 0),
    ((4, 500, 16), 20_000, 4_000, 40),
)
SEEDS = (1, 7)
WRITE_SHARES = (0.0, 0.25)


def _scenario(dims, requests, distinct, bad, seed, writes):
    """A queue drawn from ``distinct`` generated addresses, some writes, hints from ``seed``."""
    base = generate(DiskGeometry(*dims), GeneratorParams(request_count=distinct, seed=seed, bad_count=bad))
    rng = random.Random(seed)
    picks = [rng.choice(base.addresses) for _ in range(requests)]
    queue = tuple(
        MemoryRequest(a, "w" if rng.random() < writes else "r", rank) for rank, a in enumerate(picks)
    )
    hints = tuple(
        (name, rng.choice(("up", "down"))) for name in DIRECTION_HINT_NAMES if rng.random() < 0.5
    )
    return replace(base, requests=queue, direction_hints=hints)


def scenarios():
    for case_id in BUILTIN_CASE_IDS:
        yield builtin_case(case_id)
    for dims, requests, distinct, bad in GRID:
        for seed in SEEDS:
            for writes in WRITE_SHARES:
                yield _scenario(dims, requests, distinct, bad, seed, writes)


def _noisy(text):
    """The same scenario written the way a person might: not canonical, still valid."""
    lines = re.sub(r"(?<![0-9])([0-9]+)([tp])", r"0\1\2", text).splitlines()
    for i, line in enumerate(lines):
        if line.startswith("request") and "op=" not in line and i % 3 == 0:
            lines[i] = line + " op=r"
        elif i % 5 == 1:
            lines[i] = line.replace(" ", "\t")
        elif i % 7 == 2:
            lines[i] = line + "  # note"
    return "# a noisy copy\r\n\r\n" + "\r\n".join(lines) + "\r\n"


def digest():
    h = hashlib.sha256()
    for scenario in scenarios():
        text = render_scenario(scenario)
        parsed = parse_scenario(_noisy(text))
        assert parsed == scenario
        h.update(text.encode())
        h.update(render_scenario(parsed).encode())
    return h.hexdigest()


def test_rendered_and_round_tripped_text_matches_the_pinned_digest():
    assert digest() == TEXT_DIGEST
