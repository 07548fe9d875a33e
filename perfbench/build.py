"""Harvests the corpus of oai-federation and portal-mix into a data directory.

    python3 perfbench/build.py <seed> <work directory>

writes <work directory>/corpus and <work directory>/built.pickle, which
holds the identities the engine assigned. The benchmark runs this as a
child process, so that the memory the build takes does not count in the
peak of the process that measures.
"""

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    seed, work = int(sys.argv[1]), Path(sys.argv[2])
    built = workloads.build_corpus(seed, work / "corpus")
    (work / "built.pickle").write_bytes(pickle.dumps(built))
    return 0


if __name__ == "__main__":
    sys.exit(main())
