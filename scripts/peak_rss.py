#!/usr/bin/env python3
"""Run one command and report its peak resident set size and CPU time.

Usage:
    python3 scripts/peak_rss.py CMD [ARG ...]

After the command exits, prints one line on stderr,

    peak_rss_mb=<MB> cpu_s=<user + system s> wall_s=<s>: CMD ...

and exits with the command's exit code (128 + N if signal N killed
it). The peak is the kernel's
`ru_maxrss` of the waited-for child (Linux reports it in KiB; MB here is
KiB / 1024), so it needs no `/usr/bin/time`.

Example, the paper's 2048 px grid:
    CFAOPC_THREADS=2 python3 scripts/peak_rss.py \\
        ./target/release/cfaopc fracture --case 1 --size 2048 --iters 2 --out F.cshot
"""

import resource
import subprocess
import sys
import time


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.monotonic()
    code = subprocess.run(argv, check=False).returncode
    wall = time.monotonic() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(
        f"peak_rss_mb={usage.ru_maxrss / 1024:.1f} "
        f"cpu_s={usage.ru_utime + usage.ru_stime:.2f} wall_s={wall:.2f}: "
        + " ".join(argv),
        file=sys.stderr,
    )
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
