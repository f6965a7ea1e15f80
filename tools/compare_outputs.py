#!/usr/bin/env python3
"""Write every output of the benchmark workloads for one cdscale source tree.

    python3 tools/compare_outputs.py SRC_DIR OUT_DIR --seeds 1,2,7

Runs each command of every workload in ``bench/workloads.py`` (read only)
in-process through ``cdscale.cli.main`` from SRC_DIR, one BLAS thread, and
writes under OUT_DIR/seed<k>/<workload>/<command>/ its exit code
(``exit_code``), standard output (``stdout``), cdscale's own error line, if
any (``stderr``; warnings are left out, since they carry source paths and
line numbers), and the files it wrote (``out/``: CSVs and the manifest).
Run it once per source tree, each in a fresh process; then

    diff -r OUT_A OUT_B

is the byte-identity check of two versions of the program.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# cdscale's own messages on standard error (cli.main); everything else there is a warning
OWN_ERRORS = ("error: ", "numerical check failed: ")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="directory holding the cdscale package to run")
    ap.add_argument("out", help="directory to write the outputs into; must not exist")
    ap.add_argument("--seeds", default="1,2,7", help="comma-separated workload seeds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "cdscale", "cli.py")):
        print(f"error: no cdscale package under {src}", file=sys.stderr)
        return 2
    if os.path.exists(args.out):
        print(f"error: {args.out} exists", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",")]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # a BLAS product's summation order may depend on its threads
    os.environ.pop("CDSCALE_OUT", None)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.path.insert(0, src)
    import workloads
    import cdscale.cli as cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported cdscale from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for cmd in workloads.commands(workload, seed):
                where = os.path.join(args.out, f"seed{seed}", cmd.key)
                os.makedirs(where)
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        rc = cli.main(list(cmd.argv) + ["--out", os.path.join(where, "out")])
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 1
                own = [ln for ln in err.getvalue().splitlines() if ln.startswith(OWN_ERRORS)]
                for name, text in (("exit_code", f"{rc}\n"), ("stdout", out.getvalue()),
                                   ("stderr", "".join(ln + "\n" for ln in own))):
                    with open(os.path.join(where, name), "w") as fh:
                        fh.write(text)
                print(f"seed {seed} {cmd.key}: exit {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
