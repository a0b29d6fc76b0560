#!/usr/bin/env bash
# Smoke run: every workload at a twentieth of its size, one rep, all checks
# on, untraced and traced; then the shape of the ledger entry it wrote is
# checked against BENCHMARK.json. Takes well under a minute after the build.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- all --quick
python3 - "$here" <<'PY'
import json, re, sys
here = sys.argv[1]
manifest = json.load(open(f"{here}/../BENCHMARK.json"))
ledger = json.load(open(f"{here}/out/ledger.json"))
assert ledger["schema"] == 1 and ledger["quick"] is True, "not a --quick ledger entry"
for key in ("nproc", "cpu_model", "rustc", "git_sha"):
    assert key in ledger["machine"], f"machine descriptor lacks {key}"
declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
names = [w["name"] for w in manifest["workloads"]]
assert list(ledger["workloads"]) == names, f"workloads {list(ledger['workloads'])} != {names}"
seen = set()
for name, entry in ledger["workloads"].items():
    assert entry["failed"] == 0 and entry["attempted"] > 0, f"{name}: {entry['failed']} of {entry['attempted']} checks failed"
    for metric in manifest["end_to_end"]:
        assert metric["name"] in entry["end_to_end"], f"{name} lacks {metric['name']}"
    for section in ("end_to_end", "per_layer"):
        for metric, record in entry[section].items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric), metric
            assert metric in declared, f"{name}: {metric} is not in BENCHMARK.json"
            assert record["unit"] == declared[metric]["unit"], f"{metric}: unit {record['unit']}"
            assert isinstance(record["value"], (int, float)) and isinstance(record["exact"], bool), metric
            seen.add(metric)
    for metric in manifest["end_to_end"]:
        assert entry["end_to_end"][metric["name"]]["value"] > 0, f"{name} {metric['name']} is not positive"
missing = sorted(set(declared) - seen)
assert not missing, f"declared but never emitted: {missing}"
print(f"smoke ok: {len(names)} workloads, {len(seen)} metrics, schema matches BENCHMARK.json")
PY
