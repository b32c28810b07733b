"""Run ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_traced.py <span-dir> <serve arguments...>``

Each process of the server (the daemon, or the router and its forked
shards) keeps its spans in memory and writes ``<span-dir>/spans-<pid>.pkl``
when it ends: the router or daemon when ``serve`` returns after
``POST /shutdown``, a shard when the supervisor terminates it.
"""

from __future__ import annotations

import os
import signal
import sys

import spans


def main(argv: list[str]) -> int:
    out_dir, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)

    def dump() -> None:
        recorder.dump(os.path.join(out_dir, f"spans-{os.getpid()}.pkl"))

    def on_term(signum, frame) -> None:
        dump()
        os._exit(0)

    # Shards are forked from this process: they inherit the wrappers and
    # this handler, and start with an empty span record.
    signal.signal(signal.SIGTERM, on_term)
    os.register_at_fork(after_in_child=recorder.reset)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
