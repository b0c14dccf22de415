#!/usr/bin/env python3
"""Rewrite pins.json: the answer digest of every request in the full
deck of each workload for the default seed.

    python3 perfbench/pin.py

Run it only on a commit whose answers are trusted; run.py then treats
any other answer for the default seed as wrong.  A request whose reply
fails its own check is not pinned, and the script exits 1.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    pins, bad = {}, 0
    workdir = run.WORK / f"pin-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            cli, deck, argvs, _ = run.set_up(workload, workloads.DEFAULT_SEED, "full", workdir)
            pins[workload] = {}
            for req, argv in zip(deck, argvs):
                code, out, _ = run.call(cli, argv)
                problem = workloads.check_output(req, code, out)
                if problem:
                    print(f"{req.rid} {req.tag} p={req.p}: {problem}", file=sys.stderr)
                    bad += 1
                    continue
                pins[workload][req.rid] = workloads.answer_digest(code, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    if bad:
        return 1
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
