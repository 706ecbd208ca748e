"""Every CLI output the findings suite can print, pinned by digest.

``golden/cli_outputs.json`` maps each command line below to the sha256 of its
exit code and stdout.  A change meant to keep behaviour must leave every
digest in place; the text goldens cover seed 7, these cover seeds 0-5 too.

Re-record (only for a change that means to alter an output):
``PYTHONPATH=src python tests/test_cli_outputs.py``
"""

import hashlib
import io
import json
import pathlib

from tdxmodel.cli import main
from tdxmodel.scenarios import all_scenarios

DIGESTS = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"
SEEDS = (0, 1, 2, 3, 4, 5, 7)


def command_lines() -> list[tuple[str, ...]]:
    lines = []
    for name in sorted(all_scenarios()):
        for mode in ("vulnerable", "fixed"):
            for seed in SEEDS:
                tail = ("--mode", mode, "--seed", str(seed))
                lines.append(("scenario", "run", name) + tail)
                lines.append(("state", "dump", "--scenario", name) + tail)
    lines += [("state", "dump", "--seed", str(seed)) for seed in range(6)]
    lines += [("state", "matrix"), ("scenario", "list")]
    return lines


def digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    code = main(list(argv), out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in command_lines()}


def test_every_cli_output_matches_its_recorded_digest():
    recorded = json.loads(DIGESTS.read_text())
    current = current_digests()
    assert len(current) == 260
    assert current.keys() == recorded.keys()
    changed = sorted(line for line in current if current[line] != recorded[line])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
