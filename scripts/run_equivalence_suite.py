"""Replay both category equivalences on a corpus and print every check.

Unlike the CLI's verify subcommand (which prints failures only), this dumps
the full check-by-check listing, which is handy when extending the corpus.
"""

import argparse
import sys
import time

from quandlekit.cli import MODE_WORDS, load_corpus
from quandlekit import CapExceeded, verify_equivalence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--corpus",
        default="r3,r5,r7,r9,conj:s3",
        help="comma list: rN | dihedral:N | trivial:N | alex:FACTORS:PHI | conj:sN | path",
    )
    parser.add_argument("--mode", choices=sorted(MODE_WORDS), default="all")
    args = parser.parse_args()

    try:
        tokens, corpus, modes = load_corpus(args.corpus, args.mode)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    failures = 0
    for mode in modes:
        t0 = time.perf_counter()
        try:
            report = verify_equivalence(corpus, mode, names=tokens)
        except (ValueError, CapExceeded) as exc:
            print("error: %s" % exc, file=sys.stderr)
            sys.exit(2)
        elapsed = time.perf_counter() - t0
        print("== mode %s (%.1fs) ==" % (mode, elapsed))
        for record in report.records:
            print(record.line())
        failures += len(report.failures)
    print("total failures: %d" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
