#!/usr/bin/env python3
"""Regenerate bench/reference.json from the checked-out cdscale.

    python3 bench/make_reference.py

Runs every workload command whose arguments do not depend on the seed and
that has no closed-form oracle in ``gate.py``, and stores its key outputs.
Run it only when a change is meant to alter those outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.pin_blas()
    sys.path.insert(0, run.SRC)
    import cdscale.cli as cli
    import gate

    refs = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        for name in workloads.WORKLOADS:
            for cmd in workloads.commands(name, 0):
                if cmd.seeded:
                    continue
                out = os.path.join(tmp, cmd.key.replace("/", "_"))
                os.makedirs(out)
                rc, seconds, log, _ = run.invoke(cli, cmd, out, False)
                problems, _ = gate.check(cmd, rc, out, {cmd.key: {}})
                if problems:
                    print(f"{cmd.key}: {problems}\n{log}", file=sys.stderr)
                    return 1
                got = gate.key_outputs(cmd, out)
                refs[cmd.key] = {} if gate.oracle(cmd, got) is not None else got
                print(f"{cmd.key}: {seconds:.2f} s, {sorted(refs[cmd.key])}")
    with open(gate.REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
