"""Every recorded CLI invocation gives byte-identical output."""

import json

from cli_digests import TABLE, environment, run_all


def test_cli_output_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = json.loads(TABLE.read_text())
    recorded = table["entries"]
    entries = run_all()
    assert [e["argv"] for e in entries] == [e["argv"] for e in recorded], \
        "the invocation list changed: rewrite cli_digests.json"
    moved = [" ".join(new["argv"]) + ": " + ", ".join(
                 key for key in ("exit", "stdout", "stderr", "files")
                 if new.get(key) != old.get(key))
             for new, old in zip(entries, recorded) if new != old]
    here = environment()
    assert not moved, (
        f"{len(moved)} of {len(entries)} invocations changed output "
        f"(table made on Python {table['python']}, {table['platform']}; "
        f"run on Python {here['python']}, {here['platform']}):\n"
        + "\n".join(moved))
