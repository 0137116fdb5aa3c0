"""Facts about the machine and the libraries a run measured."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("BANDLAB_THREADS", "OMP_NUM_THREADS",
                    "OPENBLAS_NUM_THREADS")


def _openblas(package) -> dict | None:
    """Version string and effective thread count of the OpenBLAS bundled in
    ``package``'s wheel, read through ctypes from the loaded library."""
    libdir = Path(package.__file__).resolve().parent.parent / \
        f"{package.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return {"library": os.path.basename(path),
                        "config": get_config().decode(),
                        "threads": int(get_threads())}
    return None


def source_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.glob("*.py")))


def machine_facts(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(numpy),
        "openblas_scipy": _openblas(scipy),
        "env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "seed": seed,
        "src_bandlab_lines": source_lines(root / "src" / "bandlab"),
    }
