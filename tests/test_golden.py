"""Byte-level regression of the command outputs on the shipped corpus.

tests/golden_outputs.json records, for every corpus file, what the commands
print: `compute --json` (no seed, seeds 3 and 11, and with --check-good
--deform), `el --json` in both modes (no seed and seed 5), and the stdout of
`verify corpus/`. The `timing` field, the only one that varies between runs,
is dropped. A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change notes.
"""

import json
from pathlib import Path

from gsvindex.cli import cmd_compute, cmd_el, cmd_verify, parse_problem_file

from problems import CORPUS_DIR

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"


def _record(code, output):
    """(exit code, output), with JSON parsed and its timing removed."""
    if output.startswith("{"):
        payload = json.loads(output)
        payload.pop("timing")
        return [code, payload]
    return [code, output]


def _runs():
    """Every recorded command as (key, thunk returning (code, output))."""
    runs = []
    for path in sorted(CORPUS_DIR.glob("*.prob")):
        name = path.name
        if parse_problem_file(path).map_components is not None:
            for mode in ("real", "complex"):
                for seed in (None, 5):
                    runs.append((
                        f"el {name} --mode {mode} --seed {seed}",
                        lambda p=path, m=mode, s=seed: cmd_el(
                            p, json_output=True, seed=s, mode=m),
                    ))
        else:
            for seed in (None, 3, 11):
                runs.append((
                    f"compute {name} --seed {seed}",
                    lambda p=path, s=seed: cmd_compute(
                        p, json_output=True, seed=s),
                ))
            runs.append((
                f"compute {name} --check-good --deform",
                lambda p=path: cmd_compute(
                    p, json_output=True, check_good=True, deform=True),
            ))
    runs.append(("verify corpus/", lambda: cmd_verify(CORPUS_DIR)))
    return runs


def collect():
    return {key: _record(*run()) for key, run in _runs()}


def test_outputs_match_golden_record():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = collect()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
