"""Measurements that need a fresh interpreter, run as child processes of run.py.

  probe.py setup WORKLOAD SEED full|tiny   seconds to import abmorph and generate the inputs
  probe.py bytes TEXT LENGTH               peak bytes allocated per letter by fixed_point_prefix

The peak is taken with tracemalloc, which sees numpy's buffers: the process's
peak RSS (ru_maxrss) does not move while an expansion stays below the
high-water mark left by importing numpy.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        t0 = perf_counter()
        import abmorph  # noqa: F401
        import corpus
        import workloads

        sizes = corpus.FULL if argv[3] == "full" else corpus.TINY
        workloads.WORKLOADS[argv[1]].generate(int(argv[2]), sizes)
        print(perf_counter() - t0)
    elif argv[0] == "bytes":
        from abmorph import fixed_point_prefix, parse_morphism

        f, length = parse_morphism(argv[1]), int(argv[2])
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        word = fixed_point_prefix(f, length)
        print((tracemalloc.get_traced_memory()[1] - before) / len(word))
    else:
        raise SystemExit(f"probe: unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
