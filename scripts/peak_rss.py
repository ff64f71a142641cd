#!/usr/bin/env python3
"""Run one command and report its peak resident set size and CPU time.

Usage:
    python3 scripts/peak_rss.py [--max-mb MB] CMD [ARG ...]

After the command exits, prints one line on stderr,

    peak_rss_mb=<MB> cpu_s=<user + system s> wall_s=<s>: CMD ...

and exits with the command's exit code (128 + N if signal N killed
it). The peak is the kernel's
`ru_maxrss` of the waited-for child (Linux reports it in KiB; MB here is
KiB / 1024), so it needs no `/usr/bin/time`.

With `--max-mb MB`, a command that succeeds but peaks above MB fails the
run: a second line names the bound, and the exit code is 1.

Example, the paper's 2048 px grid, gated as CI gates it:
    CFAOPC_THREADS=4 python3 scripts/peak_rss.py --max-mb 305 \\
        ./target/release/cfaopc fracture --case 1 --size 2048 --iters 2 --out F.cshot
"""

import resource
import subprocess
import sys
import time


def main(argv):
    max_mb = None
    if argv[:1] == ["--max-mb"]:
        try:
            max_mb = float(argv[1])
        except (IndexError, ValueError):
            print("error: --max-mb needs a number of MB", file=sys.stderr)
            return 2
        argv = argv[2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.monotonic()
    code = subprocess.run(argv, check=False).returncode
    wall = time.monotonic() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_mb = usage.ru_maxrss / 1024
    print(
        f"peak_rss_mb={peak_mb:.1f} "
        f"cpu_s={usage.ru_utime + usage.ru_stime:.2f} wall_s={wall:.2f}: "
        + " ".join(argv),
        file=sys.stderr,
    )
    if code < 0:
        return 128 - code
    if code == 0 and max_mb is not None and peak_mb > max_mb:
        print(
            f"error: peak RSS {peak_mb:.1f} MB exceeds --max-mb {max_mb:g}",
            file=sys.stderr,
        )
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
