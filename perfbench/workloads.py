"""The benchmark's workloads: fixed qortho CLI invocations with pinned outputs.

Each pinned invocation carries the exit code and the SHA-256 of the
stdout that the seed engine gives for it with `--format json`; a run
that prints anything else has checked something else.  The workload
seed adds generated `reduce`/`pair` queries to `algebra` (their outputs
cannot be pinned, so they must exit 0 and repeat byte for byte) and
shuffles the round-robin order of every workload.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional


class Invocation(NamedTuple):
    name: str
    argv: List[str]
    exit_code: int = 0
    # SHA-256 of stdout; None for generated queries, which are checked
    # for repeatability instead
    sha256: Optional[str] = None


def _pinned(name: str, args: str, sha256: str, word: str = "",
            functional: str = "") -> Invocation:
    argv = args.split()
    if functional:
        argv += ["--functional", functional]
    if word:
        argv += ["--word", word]
    return Invocation(name, argv + ["--format", "json"], 0, sha256)


PAIR_FUNCTIONAL = "L+[1,1] L-[2,2]"

PINNED: Dict[str, List[Invocation]] = {
    "rmatrix": [
        _pinned("rmatrix-n6", "verify --suite rmatrix --n 6",
                "1ca8f97edaa284d0b4a5fa76da7cc527"
                "1f6c6037f8e40409d455cb5eea14e71b"),
        _pinned("rmatrix-n8", "verify --suite rmatrix --n 8",
                "720e099414d60073d79b3221e33f4f96"
                "acf930eed1266890f08d5bf9d8ddd62f"),
    ],
    "envelope": [
        _pinned("envelope-n3", "verify --suite envelope --n 3",
                "5288abb2e54ed716c1692d6963a9667e"
                "74641a9f3a0a7ba49a911edcd99eee93"),
    ],
    "algebra": [
        _pinned("presentation-n5", "verify --suite presentation --n 5",
                "c8837e4d22d5e5368c0ebe61081e51b9"
                "d4cdb3472f25d2986afc9ca5295d6962"),
        _pinned("calculus-r1-n3", "verify --suite calculus-r1 --n 3",
                "7633b24f024601dfe86abf33ee08682e"
                "e98e97b9c48e00ceaf9426e3828d4d0d"),
        _pinned("calculus-projected-n3",
                "verify --suite calculus-projected --n 3",
                "8c1cf4cb10d6d79a066a1b716e015397"
                "c66ef345f3562bd7683a656f9e541693"),
        _pinned("det-n6", "det --n 6",
                "b8a5b4a9aedb2d05e93542d4061dee3a"
                "664e7c7b7b04157cbf0078dd1dce88e5"),
        _pinned("reduce-n4", "reduce --n 4",
                "7f6f41e3328257198eaae496b275ee74"
                "35a5ac39d1fe5db7f4835b3e09f4c7f7",
                word="x4 x3 x2 x1 x4 x3"),
        # value s^4*g12^-1
        _pinned("pair-n3", "pair --n 3",
                "459edd7c66decf82bcef4f5b76c93fed"
                "1017524c87c02155be12e63d4343218d",
                word="u u v", functional=PAIR_FUNCTIONAL),
    ],
}


# Spawned between the timed invocations to sample set-up time: the
# cheapest suite, about 2 ms of work after argument parsing.
SETUP_PROBE = _pinned("setup-probe", "verify --suite embedding --n 3",
                      "0af7d02dc32290cd98de3ab1934f1bfb"
                      "30a9025b01e0067ed2c9b2d830a6d530")


def iso_alphabet(n: int) -> List[str]:
    """Generator symbols of iso(n), in the engine's order."""
    return (["u", "v"] + ["x%d" % a for a in range(1, n + 1)]
            + ["T[%d,%d]" % (a, b) for a in range(1, n + 1)
               for b in range(1, n + 1)])


def generated_queries(rng: random.Random) -> List[Invocation]:
    """Seed-drawn queries: a 6-letter iso(4) word to reduce and a 3-letter
    iso(3) word to pair with PAIR_FUNCTIONAL."""
    reduce_word = " ".join(rng.choice(iso_alphabet(4)) for _ in range(6))
    pair_word = " ".join(rng.choice(iso_alphabet(3)) for _ in range(3))
    return [
        Invocation("gen-reduce-n4", ["reduce", "--n", "4", "--word",
                                     reduce_word, "--format", "json"]),
        Invocation("gen-pair-n3", ["pair", "--n", "3", "--functional",
                                   PAIR_FUNCTIONAL, "--word", pair_word,
                                   "--format", "json"]),
    ]


def workload(name: str, seed: int) -> List[Invocation]:
    """The invocations of one workload, in the seed's round-robin order."""
    rng = random.Random(seed)
    invocations = list(PINNED[name])
    if name == "algebra":
        invocations += generated_queries(rng)
    rng.shuffle(invocations)
    return invocations
