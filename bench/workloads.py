"""Command lists of the benchmark workloads, generated from a seed.

Each workload is a fixed list of ``cdscale`` command lines. The seed only
sets the arguments named in ``SEED_FLAGS``; everything else is constant, so
the program sees the same work on every seed and differs only in the
sampled points. This module uses the standard library alone, so command
lines can be built and tested without importing numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Flags whose values a workload may draw from the seed.
SEED_FLAGS = frozenset({"--seed", "--x0", "--rho", "--w"})

# Free-model base points are drawn from this part of the bulk (-2, 2). The
# margin keeps every point where sine-kernel universality already holds to
# the CLI tolerance at n = 64000; thm25 still runs off-center almost surely.
X0_RANGE = (-1.9, 1.9)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload (``--out`` is added when it runs)."""

    key: str                 # stable name, e.g. "readme/zeros"
    argv: tuple[str, ...]
    seeded: bool = False     # some argument comes from the seed

    @property
    def kind(self) -> str:
        """The CLI command name (``kernel``, ``zeros``, ``verify`` ...)."""
        return self.argv[0]

    def flag(self, name: str, default: str | None = None) -> str | None:
        argv = self.argv
        for i, tok in enumerate(argv[:-1]):
            if tok == name:
                return argv[i + 1]
        return default

    def line(self) -> str:
        return " ".join(self.argv)


def _cmd(key: str, line: str, seeded: bool = False) -> Command:
    return Command(key, tuple(line.split()), seeded)


def free_density(x0: float) -> tuple[float, float]:
    """(rho, w) of the free model at a bulk point: zero density and a.c. density."""
    s = math.sqrt(4.0 - x0 * x0)
    return 1.0 / (math.pi * s), s / (2.0 * math.pi)


def _seed_int(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def readme(seed: int) -> list[Command]:
    """The ten README examples at x0 = 0; the seed sets two suites' --seed."""
    rng = random.Random(seed)
    ki_seed, app_seed = _seed_int(rng), _seed_int(rng)
    return [
        _cmd("readme/kernel-free",
             "kernel --model free --n 4000 --x0 0 --grid -5:5:51 "
             "--reference sine --rho 0.15915494 --w 0.31830989"),
        _cmd("readme/kernel-alternating",
             "kernel --model alternating-v --v 1 --n 4000 --reference canonical"),
        _cmd("readme/zeros", "zeros --model free --n 5000 --x0 0 --window 40"),
        _cmd("readme/diagnostics",
             "diagnostics --model alternating-v --v 1 --n 10000 --candidate coshsinh"),
        _cmd("readme/canonical-solve",
             "canonical-solve --system coshsinh --v 1 --z 2.0,0.5 --t-grid 0:1:101"),
        _cmd("readme/transfer-identities",
             "verify transfer-identities --model free --n 1000"),
        _cmd("readme/kernel-identities",
             "verify kernel-identities --model periodic --period-a 1.0,1.05 "
             f"--period-b 0.2,0.2 --n 500 --seed {ki_seed}", seeded=True),
        _cmd("readme/section5", "verify section5 --v 1 --n 10000 --grid -5:5:51"),
        _cmd("readme/appendix-roundtrip",
             f"verify appendix-roundtrip --seed {app_seed} --n 50", seeded=True),
        _cmd("readme/thm25", "verify thm25 --n-list 500,1000,2000,4000 --grid -5:5:51"),
    ]


def large_n(seed: int) -> list[Command]:
    """Length-64000 recurrences on a 51-point grid; the seed draws the free x0."""
    rng = random.Random(seed)
    x0 = round(rng.uniform(*X0_RANGE), 6)
    rho, w = free_density(x0)
    return [
        _cmd("large-n/kernel-free",
             f"kernel --model free --n 64000 --x0 {x0!r} --grid -5:5:51 "
             f"--reference sine --rho {rho!r} --w {w!r}", seeded=True),
        _cmd("large-n/diagnostics",
             "diagnostics --model alternating-v --v 1 --n 64000 --candidate coshsinh"),
        _cmd("large-n/thm25",
             f"verify thm25 --x0 {x0!r} --n-list 4000,16000,64000 --grid -5:5:51",
             seeded=True),
    ]


def wide_grid(seed: int) -> list[Command]:
    """401-point grids and short recurrences; the seed sets kernel-identities' --seed."""
    rng = random.Random(seed)
    rho, w = free_density(0.0)
    return [
        _cmd("wide-grid/kernel-free",
             "kernel --model free --n 1000 --grid -20:20:401 --bgrid -19.95:20.05:401 "
             f"--reference sine --rho {rho!r} --w {w!r}"),
        _cmd("wide-grid/kernel-alternating",
             "kernel --model alternating-v --v 1 --n 1000 --grid -20:20:401 "
             "--reference canonical"),
        _cmd("wide-grid/canonical-solve",
             "canonical-solve --system coshsinh --v 1 --z 2.0,0.5 --t-grid 0:1:1001"),
        _cmd("wide-grid/kernel-identities",
             "verify kernel-identities --model periodic --period-a 1.0,1.05 "
             f"--period-b 0.2,0.2 --n 200 --seed {_seed_int(rng)}", seeded=True),
    ]


WORKLOADS = {"readme": readme, "large-n": large_n, "wide-grid": wide_grid}


def commands(workload: str, seed: int) -> list[Command]:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](seed)
