#!/usr/bin/env python3
"""Smoke-test the `cfaopc serve` daemon end to end.

Spawns the daemon on an ephemeral loopback port, drives it over raw TCP:

  1. sends a `ping` line padded past the daemon's 64 KiB line bound on a
     connection of its own and requires an `error` naming the bound
     (the daemon then closes that connection), then
     submits a hostile `kernels` count and requires an `error`, then a
     `pong`, so an oversized request cannot take the daemon down,
     and does the same for a raw frame whose number is not JSON
     (`"size":0128`), which the strict parser must refuse, not ack,
  2. submits a quick job and a long streaming job concurrently,
  3. captures streamed `iter` telemetry into the artifact file,
  4. cancels the long job mid-run,
  5. requests a graceful shutdown,

and asserts the daemon exits 0. Every line the daemon sent is written to
the artifact (default `SERVE_smoke.jsonl`) for CI upload.

Usage: serve_smoke.py [--bin target/release/cfaopc] [--out SERVE_smoke.jsonl]
"""

import argparse
import json
import socket
import subprocess
import sys
import time

# The daemon's bound on one request line (`protocol::MAX_REQUEST_BYTES`).
MAX_REQUEST_BYTES = 64 * 1024


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", default="target/release/cfaopc")
    ap.add_argument("--out", default="SERVE_smoke.jsonl")
    args = ap.parse_args()

    proc = subprocess.Popen(
        [args.bin, "serve", "--queue", "8", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        # "cfaopc serve: listening on 127.0.0.1:PORT"
        if "listening on" not in banner:
            fail(f"unexpected banner {banner!r}")
        host, port = banner.rsplit(" ", 1)[-1].rsplit(":", 1)

        captured = []

        # A request line past the bound gets an error naming it, and the
        # daemon hangs up on that client only.
        big = socket.create_connection((host, int(port)), timeout=60)
        ping = b'{"cmd":"ping"}'
        big.sendall(ping + b" " * (MAX_REQUEST_BYTES + 1 - len(ping)) + b"\n")
        line = big.makefile("r", encoding="utf-8", newline="\n").readline()
        captured.append(line.rstrip("\n"))
        msg = json.loads(line) if line else {}
        if msg.get("kind") != "error" or str(MAX_REQUEST_BYTES) not in msg.get("message", ""):
            fail(f"expected an error naming the line bound, got {line!r}")
        big.close()

        sock = socket.create_connection((host, int(port)), timeout=60)
        sock.settimeout(60)
        rx = sock.makefile("r", encoding="utf-8", newline="\n")

        def send(obj):
            sock.sendall((json.dumps(obj) + "\n").encode())

        def recv():
            line = rx.readline()
            if not line:
                fail("daemon closed the connection")
            captured.append(line.rstrip("\n"))
            return json.loads(line)

        def wait_for(pred, what):
            for _ in range(100_000):
                msg = recv()
                if pred(msg):
                    return msg
            fail(f"never saw {what}")

        # A kernel count no daemon can allocate is refused as a bad
        # request; the daemon keeps answering.
        send({"cmd": "submit", "id": "hostile", "case": 1, "size": 64,
              "kernels": 1000000000000})
        msg = recv()
        if msg.get("kind") != "error" or "kernels" not in msg.get("message", ""):
            fail(f"expected an error naming kernels, got {msg}")
        send({"cmd": "ping"})
        msg = recv()
        if msg.get("kind") != "pong":
            fail(f"expected pong after the hostile submit, got {msg}")

        # A leading zero is not a JSON number: the frame is malformed and
        # must get an error, never a job.
        sock.sendall(b'{"cmd":"submit","id":"octal","case":1,"size":0128}\n')
        msg = recv()
        if msg.get("kind") != "error":
            fail(f"expected an error for size 0128, got {msg}")
        send({"cmd": "ping"})
        msg = recv()
        if msg.get("kind") != "pong":
            fail(f"expected pong after the malformed submit, got {msg}")

        # Two concurrent jobs: a quick one and a long streaming one.
        send({"cmd": "submit", "id": "quick", "case": 1, "size": 64,
              "kernels": 4, "init_iters": 2, "iters": 3})
        send({"cmd": "submit", "id": "long", "seed": 11, "size": 64,
              "kernels": 4, "init_iters": 2, "iters": 100000,
              "stream": True})
        wait_for(lambda m: m.get("kind") == "ack" and m.get("id") == "quick",
                 "ack for quick")
        wait_for(lambda m: m.get("kind") == "ack" and m.get("id") == "long",
                 "ack for long")
        wait_for(lambda m: m.get("kind") == "result" and m.get("id") == "quick",
                 "result for quick")
        # Observe the long job actually streaming before cancelling it.
        wait_for(lambda m: m.get("kind") == "iter" and m.get("job") == "long",
                 "streamed telemetry from long")
        send({"cmd": "cancel", "id": "long"})
        done = wait_for(
            lambda m: m.get("kind") == "cancelled" and m.get("id") == "long",
            "cancellation of long")
        if done.get("reason") != "cancel":
            fail(f"expected reason 'cancel', got {done}")

        # The daemon must still be serving after the cancel.
        send({"cmd": "status"})
        status = wait_for(lambda m: m.get("kind") == "status", "status")
        if status.get("done") != 2:
            fail(f"expected 2 finished jobs, got {status}")

        send({"cmd": "shutdown"})
        wait_for(lambda m: m.get("kind") == "shutting_down", "shutdown ack")
        sock.close()

        code = proc.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code}: {proc.stderr.read()}")

        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(captured) + "\n")
        iters = sum(1 for l in captured if '"kind":"iter"' in l)
        print(f"serve_smoke: OK ({len(captured)} lines captured, "
              f"{iters} streamed iterations) -> {args.out}")
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    main()
