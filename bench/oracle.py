"""Reference output of a stream workload, computed without the stream path.

    python3 bench/oracle.py '<json spec>'

The spec gives the checkout's ``src``, the workload's ``p``, ``m``,
``size``, ``format`` and ``seed``, and ``words``: the number of m-bit
input words the CLI reported consuming (``input_bits / m``).  The script
prints the sha256 of the bytes ``rescode generate`` must write for them.

The code itself (codebook and 2^m-type counts) comes from
``rescode.f2v.build_code``; the curve CSV hashes pin that part.  Everything
after it is done here independently of ``rescode.f2v`` and ``rescode.cli``:
the seeded bits follow the pinned contract (PCG64 64-bit draws served
most-significant bit first, words built MSB-first), words map to codewords
through a full 2^m lookup table instead of a search, codewords expand
through a padded symbol matrix, and the output is formatted here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys


def expected_bytes(spec: dict) -> bytes:
    import numpy as np
    from rescode.f2v import build_code
    from rescode.probdist import Pmf

    code = build_code(Pmf([float(t) for t in spec["p"].split(",")]), spec["size"], spec["m"])
    m, words = spec["m"], spec["words"]
    leaves = code.codebook.leaves
    lengths = np.array([len(leaf) for leaf in leaves])
    table = np.zeros((len(leaves), lengths.max()), dtype=np.uint8)
    for i, leaf in enumerate(leaves):
        table[i, : len(leaf)] = leaf
    lookup = np.repeat(np.arange(len(leaves)), code.counts.counts)

    n_bits = words * m
    rng = np.random.Generator(np.random.PCG64(spec["seed"]))
    draws = rng.integers(0, 1 << 64, size=-(-n_bits // 64), dtype=np.uint64)
    bits = np.unpackbits(draws.astype(">u8").view(np.uint8))[:n_bits]
    values = bits.reshape(words, m).astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    idx = lookup[values]
    rows = table[idx]
    symbols = rows[np.arange(table.shape[1]) < lengths[idx][:, None]]

    d = code.codebook.alphabet_size
    if spec["format"] == "packed":
        width = max(1, math.ceil(math.log2(d)))
        planes = (symbols[:, None] >> np.arange(width - 1, -1, -1, dtype=np.uint8)) & 1
        return np.packbits(planes.reshape(-1)).tobytes()
    digits = (symbols + ord("0")).astype(np.uint8).tobytes()
    return b"".join(digits[i : i + 64] + b"\n" for i in range(0, len(digits), 64))


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.abspath(spec["src"]))
    print(hashlib.sha256(expected_bytes(spec)).hexdigest())
