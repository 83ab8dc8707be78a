"""Fixed reference work that shares no code with icewatch, run as its own
process to measure the host's current speed (see run.HostSpeed).

It mixes the program's two kinds of work, frozen-dataclass rebuilds in the
interpreter and a BLAS distance matrix with a partition, and starts like an
operation does: a fresh interpreter that imports numpy.

    python3 perfbench/reference_work.py
"""

from dataclasses import dataclass, replace

import numpy


@dataclass(frozen=True)
class _Row:
    a: float
    b: float
    c: float


def main() -> None:
    rng = numpy.random.default_rng(0)
    for _ in range(12):
        X = rng.normal(size=(1200, 10))
        rows = [_Row(*map(float, X[i, :3])) for i in range(X.shape[0])]
        for _ in range(4):
            rows = [replace(r, a=r.a * 0.5 + r.b, c=r.c - 1.0) for r in rows]
        sq = (X * X).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        numpy.partition(d2, 3, axis=1)


if __name__ == "__main__":
    main()
