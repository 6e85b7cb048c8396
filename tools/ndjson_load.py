#!/usr/bin/env python3
"""Pipelined select load on a `kdsel serve --listen` server.

Sends REQUESTS distinct 64-point selects for the selector "bench" over
one connection, DEPTH of them in flight. Fails on a reply out of id
order or neither ok nor `overloaded`, when nothing was served, and,
with --expect-shed, when nothing was shed.

Usage: ndjson_load.py HOST:PORT [--expect-shed]
"""

import json
import math
import socket
import sys
import time

REQUESTS = 4000
DEPTH = 16


def request_line(request_id):
    values = [round(math.sin(0.05 * t + 0.37 * request_id), 4)
              for t in range(64)]
    return json.dumps({"op": "select", "id": request_id, "selector": "bench",
                       "values": values, "detect": False}) + "\n"


def fail(message):
    print(f"ndjson_load: {message}", file=sys.stderr)
    return 1


def main(argv):
    expect_shed = "--expect-shed" in argv[1:]
    args = [a for a in argv[1:] if a != "--expect-shed"]
    if len(args) != 1 or ":" not in args[0]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    host, port = args[0].rsplit(":", 1)
    # The server may still be starting: retry for up to five seconds.
    for attempt in range(50):
        try:
            sock = socket.create_connection((host, int(port)))
            break
        except OSError:
            if attempt == 49:
                raise
            time.sleep(0.1)
    replies = sock.makefile("rb")
    sent = ok = shed = 0
    for expected in range(1, REQUESTS + 1):
        while sent < min(expected - 1 + DEPTH, REQUESTS):
            sent += 1
            sock.sendall(request_line(sent).encode())
        line = replies.readline()
        reply = json.loads(line) if line else {}
        if reply.get("id") != expected:
            return fail(f"reply {line!r} where id {expected} was due")
        if reply.get("ok") is True:
            ok += 1
        elif reply.get("error") == "overloaded":
            shed += 1
        else:
            return fail(f"reply {line!r} is neither ok nor overloaded")
    sock.close()
    print(f"ndjson_load: {REQUESTS} replies in id order, ok={ok} shed={shed}")
    if ok == 0:
        return fail("no request was served")
    if expect_shed and shed == 0:
        return fail("nothing was shed: SLO admission never fired")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
