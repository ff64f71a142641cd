#!/usr/bin/env python3
"""Run one command and report its peak resident set size and CPU time.

Usage:
    python3 scripts/peak_rss.py [--max-mb MB] CMD [ARG ...]

After the command exits, prints one line on stderr,

    peak_rss_mb=<MB> floor_mb=<MB> cpu_s=<user + system s> wall_s=<s>: CMD ...

and exits with the command's exit code (128 + N if signal N killed
it). The peak is the kernel's `ru_maxrss` of the command's own process,
read with `os.wait4` (Linux reports it in KiB; MB here is KiB / 1024),
so it needs no `/usr/bin/time`.

A child's `ru_maxrss` starts at the size of the interpreter it was
spawned from: the kernel carries the parent's peak over into the child
until it execs. So no command can read below that floor, whatever it
uses itself. The script measures the floor the same way, on a `true`
child spawned before the command and one spawned after it (the
interpreter grows a little on its first spawn), and prints the larger as
`floor_mb`. A peak at the floor says only that the command stayed below
it; a second line says so.

With `--max-mb MB`, a command that succeeds but peaks above MB fails the
run: a second line names the bound, and the exit code is 1. A bound at
or below the floor could never pass, so the script exits 2 without
running the command.

Example, the paper's 2048 px grid, gated as CI gates it:
    CFAOPC_THREADS=4 python3 scripts/peak_rss.py --max-mb 305 \\
        ./target/release/cfaopc fracture --case 1 --size 2048 --iters 2 --out F.cshot
"""

import os
import sys
import time


def run(argv):
    """Spawns argv from this interpreter and waits for it; returns its
    exit code (negative for a signal) and its own resource usage."""
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def floor_mb():
    """The peak a `true` child reads: the floor of every reading."""
    return run(["true"])[1].ru_maxrss / 1024


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
    floor = floor_mb()
    if max_mb is not None and max_mb <= floor:
        print(
            f"error: --max-mb {max_mb:g} is at or below the floor of "
            f"{floor:.1f} MB that any command reads from here",
            file=sys.stderr,
        )
        return 2
    start = time.monotonic()
    try:
        code, usage = run(argv)
    except OSError as e:
        print(f"error: cannot run {argv[0]}: {e}", file=sys.stderr)
        return 127
    wall = time.monotonic() - start
    floor = max(floor, floor_mb())
    peak_mb = usage.ru_maxrss / 1024
    print(
        f"peak_rss_mb={peak_mb:.1f} floor_mb={floor:.1f} "
        f"cpu_s={usage.ru_utime + usage.ru_stime:.2f} wall_s={wall:.2f}: "
        + " ".join(argv),
        file=sys.stderr,
    )
    if peak_mb <= floor:
        print(
            f"note: the peak is at the floor; the command stayed at or "
            f"below {floor:.1f} MB",
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
