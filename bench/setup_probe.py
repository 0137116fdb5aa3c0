"""Time bandlab's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG.ini [CONFIG.ini ...]

Prints the seconds taken by ``import bandlab`` followed by
``cli.parse_config``, ``cli.build_profile`` and ``VarianceProfile.assemble``
for each config.
"""

import sys
import time


def main(argv) -> int:
    src, configs = argv[0], argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bandlab  # noqa: F401
    from bandlab import cli

    for path in configs:
        cli.build_profile(cli.parse_config(path)).assemble()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
