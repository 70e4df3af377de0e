#!/usr/bin/env python3
"""End-to-end check of the shipped `wcnn serve`, reply by reply.

Standard library only. Starts `WCNN serve --model BUNDLE --port 0`,
reads the port from its banner, and sends JSON-lines predicts, a ping
and a wrong-arity request over one socket. Each predict reply must be
`{"ok":true,"y":[<line>]}` byte for byte, where <line> is what
`WCNN predict --stdin` prints for that configuration (both print
%.17g). Closing the server's stdin must then end it with exit 0 and
`served N requests (1 errors)`. Every wait has a timeout, and the
server is killed on failure. Usage:

  python3 tools/serve_smoke.py build/tools/wcnn model.bundle
"""

import json
import queue
import re
import socket
import subprocess
import sys
import threading

TIMEOUT_S = 10
# The last configuration repeats the first: a cache hit.
CONFIGS = ["560,10,16,18", "560,4,16,14", "400,8,12,20", "700,16,20,10",
           "560,10,16,18"]


def check(pairs, port):
    """Send every request at once, then check each reply in order."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as conn:
        conn.sendall("".join(req + "\n" for req, _ in pairs).encode())
        replies = conn.makefile("rb")
        for req, want in pairs:
            got = replies.readline().decode().rstrip("\n")
            if want is None:  # a typed bad request, message free
                ok = json.loads(got).get("kind") == "serve.bad_request"
            else:
                ok = got == want
            if not ok:
                raise ValueError(f"{req} -> {got!r}, want {want!r}")


def main(wcnn, bundle):
    lines = subprocess.run(
        [wcnn, "predict", "--model", bundle, "--stdin"],
        input="\n".join(CONFIGS) + "\n", capture_output=True, text=True,
        timeout=TIMEOUT_S, check=True).stdout.splitlines()
    pairs = [(json.dumps({"op": "predict", "x": json.loads(f"[{c}]")}),
              '{"ok":true,"y":[' + line + "]}")
             for c, line in zip(CONFIGS, lines, strict=True)]
    pairs[2:2] = [('{"op":"ping"}', '{"ok":true,"pong":true}'),
                  ('{"op":"predict","x":[1,2,3]}', None)]
    server = subprocess.Popen(
        [wcnn, "serve", "--model", bundle, "--port", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    out = queue.Queue()

    def pump():
        for line in server.stdout:
            out.put(line)
        out.put("")  # end of output

    threading.Thread(target=pump, daemon=True).start()

    def next_line():
        try:
            return out.get(timeout=TIMEOUT_S)
        except queue.Empty:
            raise ValueError(f"no output within {TIMEOUT_S} s") from None

    try:
        banner = next_line()
        port = re.match(r"serving .* on [^ ]+:(\d+) \(", banner)
        if not port:
            raise ValueError(f"no port in {banner!r}")
        check(pairs, int(port.group(1)))
        server.stdin.close()
        code = server.wait(timeout=TIMEOUT_S)
        summary = next_line()
        want = f"served {len(pairs) - 1} requests (1 errors)"
        if code != 0 or not summary.startswith(want):
            raise ValueError(f"exit {code}, {summary!r}; want exit 0, "
                             f"{want!r}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    print(f"serve_smoke: {len(pairs)} replies checked")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.stderr.write(f"usage: {sys.argv[0]} WCNN BUNDLE\n")
        sys.exit(2)
    try:
        main(*sys.argv[1:])
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        sys.exit(f"serve_smoke: FAILED: {type(e).__name__}: {e}")
