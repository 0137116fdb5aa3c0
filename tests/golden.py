"""Digest manifest: the SHA-256 of every file the commands write.

Runs all eight commands and then ``report`` in process at two small
configs, and records each file's SHA-256 and each command's exit code,
with the environment that produced them: the RNG stream version, the numpy
version and the configuration string of numpy's bundled OpenBLAS, which
names its version and the CPU core its kernels were picked for.

``tests/test_golden.py`` compares a fresh run against ``tests/golden.json``.
A change that moves bits on purpose regenerates the manifest with

    PYTHONPATH=src python tests/golden.py

and names every moved file in its change notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from bandlab import montecarlo as mc
from bandlab.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden.json"

# the README lattice, and the smallest d = 2 lattice with a cutoff of 2
CONFIGS = {
    "readme": {
        "model": {"type": "translation_invariant", "W": 33, "n": 15},
        "spectral": {"eta": 0.2},
        "mc": {"replicas": 4},
    },
    "d2": {
        "model": {"type": "translation_invariant", "d": 2, "W": 3, "n": 5,
                  "cutoff": 2},
        "spectral": {"t_values": 0.9},
        "mc": {"replicas": 2},
    },
}
COMMANDS = ("validate", "theta", "kloop", "flow", "locallaw", "deloc",
            "diffusion", "que")


def environment() -> dict:
    return {"stream_version": mc.STREAM_VERSION, "numpy": np.__version__,
            "openblas_config": getattr(mc._openblas(), "config", None)}


def _config_text(sections: dict, parallelism: int, outdir: Path) -> str:
    sections = {**sections,
                "mc": {**sections["mc"], "parallelism": parallelism},
                "output": {"directory": str(outdir)}}
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n"
                                          for k, v in keys.items())
                   for sec, keys in sections.items())


def digests(parallelism: int, root: Path) -> dict:
    """Per config, each command's exit code and each written file's SHA-256,
    from runs at ``parallelism`` replica workers under ``root``."""
    out = {}
    for name, sections in CONFIGS.items():
        outdir = root / name
        path = root / f"{name}.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_config_text(sections, parallelism, outdir),
                        encoding="utf-8")
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for command in COMMANDS:
                codes[command] = main([command, "--config", str(path)])
            codes["report"] = main(["report", "--out", str(outdir)])
        out[name] = {
            "exit": codes,
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(outdir.iterdir())},
        }
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"environment": environment(),
                    "outputs": digests(1, Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    files = sum(len(c["files"]) for c in manifest["outputs"].values())
    print(f"wrote {MANIFEST.name}: {files} files, environment "
          f"{manifest['environment']}")
