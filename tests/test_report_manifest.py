"""The artifacts' bytes as a test.

``report_manifest.json`` holds, for each command below, a hash of the
artifact's bytes and, per record, its name, suite, rank, status counts, a
hash of its JSON and a short hash of each check.  The test builds the
manifest again from the command line and names the first record, and in it
the first check, that differs.  A change that alters an artifact on purpose
rewrites the manifest with

    PYTHONPATH=src python tests/test_report_manifest.py

and lists the records whose bytes changed.
"""

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from spincas.cli import main

MANIFEST = Path(__file__).resolve().parent / "report_manifest.json"

COMMANDS = (
    "report --r 2 --r-max 5",
    "spectra --r 4 --format csv",
    "colour --r 3",
    "ybe --r 3 --mode braid",
    "ybe --r 3 --mode plain",
    "ybe --r 3 --mode full",
)


def _digest(data: bytes, length: int = 64) -> str:
    return hashlib.sha256(data).hexdigest()[:length]


def _json_digest(value, length: int = 64) -> str:
    return _digest(json.dumps(value, sort_keys=True).encode(), length)


def _entry(record: dict, suite: str, r: int) -> dict:
    return {
        "name": record["name"],
        "suite": suite,
        "r": r,
        "counts": dict(sorted(Counter(c["status"] for c in record["checks"]).items())),
        "sha256": _json_digest(record),
        "checks": [_json_digest(c, 12) for c in record["checks"]],
    }


def _artifact(command: str) -> tuple[dict, list[dict]]:
    """The manifest entry of one command, and its records as written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        main([*command.split(), "--out", str(path)])
        data = path.read_bytes()
    records: list[tuple[dict, str, int]] = []
    if not command.endswith("csv"):
        payload = json.loads(data)
        if "records" in payload:
            records = [(entry, entry["suite"], entry["r"]) for entry in payload["records"]]
        else:
            records = [(payload["record"], command.split()[0], payload["spec"]["r"])]
    entries = [_entry(*record) for record in records]
    return {"command": command, "sha256": _digest(data), "records": entries}, [record for record, _, _ in records]


def build() -> tuple[list[dict], list[list[dict]]]:
    built = [_artifact(command) for command in COMMANDS]
    return [entry for entry, _ in built], [records for _, records in built]


def write(artifacts: list[dict]) -> None:
    """One line per record, so a diff of the manifest shows the records."""
    lines = []
    for artifact in artifacts:
        head = {key: artifact[key] for key in ("command", "sha256")}
        records = ",\n".join(f"   {json.dumps(record)}" for record in artifact["records"])
        lines.append(f"  {json.dumps(head)[:-1]}, \"records\": [\n{records}\n  ]}}")
    MANIFEST.write_text("{\"artifacts\": [\n" + ",\n".join(lines) + "\n]}\n", encoding="utf-8")


def first_difference(want: dict, got: dict, records: list[dict]) -> str:
    """The first record of an artifact that differs, and its first check
    that differs; records are the artifact's records as written now.
    """
    command = got["command"]
    for index, (old, new) in enumerate(zip(want["records"], got["records"])):
        if old == new:
            continue
        label = f"{command}: record {index} {new['name']!r}"
        if old["name"] != new["name"]:
            label += f" (was {old['name']!r})"
        for k, (a, b) in enumerate(zip(old["checks"], new["checks"])):
            if a != b:
                return f"{label}: check {k} {records[index]['checks'][k]['id']!r} differs"
        if len(old["checks"]) != len(new["checks"]):
            return f"{label}: {len(new['checks'])} checks, was {len(old['checks'])}"
        return f"{label}: its fields differ, {new} against {old}"
    if len(want["records"]) != len(got["records"]):
        return f"{command}: {len(got['records'])} records, was {len(want['records'])}"
    return f"{command}: the artifact bytes differ outside its records"


def test_artifacts_match_the_manifest():
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))["artifacts"]
    got, records = build()
    assert [a["command"] for a in want] == list(COMMANDS)
    problems = [first_difference(w, g, r) for w, g, r in zip(want, got, records) if w != g]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    write(build()[0])
    sys.exit(0)
