"""Fixed stdlib-only Python work that the benchmark times beside each command.

On the shared 2-core x86-64 host it was developed on (Python 3.11),
CPU-bound work ran 20-30 % slower or faster from one minute to the next and
10-15 % from one second to the next; the CLI commands spend over 98 % of
their wall time on the CPU, so they drift with it. The ratio of a command's
time to the mean time of this kernel run just before and just after it
stays within a few percent, so the gated timing metrics are reported in
units of this kernel's run time. It imports nothing from the package under
test, so no change to the package can move it. It does the kinds of work the
CLI does: interpreter start-up, string formatting, hashing, dicts, sorting
and JSON.
"""

import hashlib
import json
import random


def main() -> None:
    rng = random.Random(1)
    rows = [{"key": f"Conv|f32|in=16x{rng.randrange(512)}x56x56|k={i}",
             "us": rng.random() * 100.0,
             "dims": [rng.randrange(1, 512) for _ in range(4)]}
            for i in range(3000)]
    for _ in range(2):
        text = "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)
        back = [json.loads(line) for line in text.splitlines()]
        back.sort(key=lambda r: (r["dims"][0], r["key"]))
        index = {hashlib.blake2b(r["key"].encode(), digest_size=8).hexdigest(): r
                 for r in back}
        total = sum(r["us"] for r in index.values())
    if total <= 0:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
