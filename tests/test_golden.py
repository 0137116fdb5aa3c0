"""Every file the commands write keeps its bits: a fresh run against the
digest manifest ``tests/golden.json`` (see ``tests/golden.py``).

The RNG stream version is a property of the code, so a different one fails.
A different numpy version or OpenBLAS configuration is another environment,
whose kernels may round differently: there only parallelism 1 and 2 must
agree, and a warning names each field that differs and says the manifest
was not compared.
"""

import copy
import json
import warnings

import pytest

import golden

ENVIRONMENT_FIELDS = ("numpy", "openblas_config")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return [golden.digests(p, root / f"par{p}") for p in (1, 2)]


def check(manifest, env, runs):
    recorded = manifest["environment"]
    assert env["stream_version"] == recorded["stream_version"], \
        "the RNG stream version moved: regenerate the manifest"
    assert runs[0] == runs[1], "parallelism 1 and 2 wrote different bits"
    moved = [f"{k} is {env[k]!r}, the manifest's {recorded[k]!r}"
             for k in ENVIRONMENT_FIELDS if env[k] != recorded[k]]
    if moved:
        warnings.warn("another environment: " + "; ".join(moved)
                      + "; outputs not compared with the manifest")
        return
    expected, got = _flat(manifest["outputs"]), _flat(runs[0])
    changed = sorted(k for k in expected.keys() | got.keys()
                     if expected.get(k) != got.get(k))
    assert not changed, f"outputs moved from the manifest: {changed}"


def _flat(outputs) -> dict:
    """{"<config>: exit <command>" or "<config>: files <name>": value}"""
    return {f"{name}: {kind} {key}": value
            for name, entry in outputs.items()
            for kind, values in entry.items()
            for key, value in values.items()}


def _manifest():
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def test_outputs_match_the_manifest(runs):
    check(_manifest(), golden.environment(), runs)


def test_manifest_covers_every_command_at_both_configs():
    outputs = _manifest()["outputs"]
    assert outputs.keys() == golden.CONFIGS.keys()
    for entry in outputs.values():
        assert entry["exit"].keys() == {*golden.COMMANDS, "report"}
        assert {f"{c}.json" for c in entry["exit"]} <= entry["files"].keys()


def test_a_moved_file_fails(runs):
    manifest = _manifest()
    manifest["outputs"]["readme"]["files"]["que.json"] = "0" * 64
    with pytest.raises(AssertionError, match="readme: files que.json"):
        check(manifest, golden.environment(), runs)


def test_a_moved_stream_version_fails(runs):
    env = {**golden.environment(), "stream_version": -1}
    with pytest.raises(AssertionError, match="stream version"):
        check(_manifest(), env, runs)


@pytest.mark.parametrize("field", ENVIRONMENT_FIELDS)
def test_another_environment_warns_and_checks_parallelism_only(field, runs):
    env = {**golden.environment(), field: "another"}
    manifest = _manifest()
    manifest["outputs"]["readme"]["files"]["que.json"] = "0" * 64
    with pytest.warns(UserWarning, match=f"{field} is 'another'.*not "
                                         "compared"):
        check(manifest, env, runs)
    split = copy.deepcopy(runs)
    split[1]["d2"]["exit"]["theta"] = 0 if split[0]["d2"]["exit"]["theta"] \
        else 1
    with pytest.raises(AssertionError, match="parallelism"):
        check(manifest, env, split)
