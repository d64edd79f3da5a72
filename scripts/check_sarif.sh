#!/usr/bin/env bash
# Structural validation of flb_analyze's SARIF 2.1.0 output: the document
# must parse as JSON and carry every field GitHub code scanning requires
# (version/$schema, tool.driver with the full rule table, and for each
# result a known ruleId, message text, artifact location with a 1-based
# start line, and the stable flbAnalyzeKey/v1 fingerprint). CI runs this
# before uploading; it needs only python3, no jq or network schema fetch.
#
# Usage: ./scripts/check_sarif.sh results/flb_analyze.sarif
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 SARIF_FILE" >&2
  exit 2
fi

python3 - "$1" <<'PYEOF'
import json
import sys

path = sys.argv[1]

def die(msg):
    sys.exit(f"check_sarif: {path}: {msg}")

try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    die(f"cannot parse: {e}")

if doc.get("version") != "2.1.0":
    die("version must be '2.1.0'")
if "sarif-2.1.0" not in doc.get("$schema", ""):
    die("$schema must reference the sarif-2.1.0 schema")

runs = doc.get("runs")
if not isinstance(runs, list) or len(runs) != 1:
    die("runs must be an array with exactly one run")
run = runs[0]

driver = run.get("tool", {}).get("driver", {})
if driver.get("name") != "flb_analyze":
    die("tool.driver.name must be 'flb_analyze'")
rules = driver.get("rules", [])
ids = [r.get("id") for r in rules]
if ids != [f"FLB{n:03d}" for n in range(1, 10)]:
    die(f"rule table must be FLB001..FLB009 in order, got {ids}")
for r in rules:
    if not r.get("shortDescription", {}).get("text"):
        die(f"rule {r.get('id')} missing shortDescription.text")

results = run.get("results")
if not isinstance(results, list):
    die("results must be an array")
for i, res in enumerate(results):
    where = f"results[{i}]"
    if res.get("ruleId") not in ids:
        die(f"{where}: unknown ruleId {res.get('ruleId')!r}")
    if res.get("level") not in ("error", "warning", "note"):
        die(f"{where}: invalid level {res.get('level')!r}")
    if not res.get("message", {}).get("text"):
        die(f"{where}: missing message.text")
    locs = res.get("locations")
    if not isinstance(locs, list) or not locs:
        die(f"{where}: missing locations")
    phys = locs[0].get("physicalLocation", {})
    if not phys.get("artifactLocation", {}).get("uri"):
        die(f"{where}: missing artifactLocation.uri")
    if not isinstance(phys.get("region", {}).get("startLine"), int) or \
            phys["region"]["startLine"] < 1:
        die(f"{where}: region.startLine must be a positive integer")
    if not res.get("partialFingerprints", {}).get("flbAnalyzeKey/v1"):
        die(f"{where}: missing partialFingerprints['flbAnalyzeKey/v1']")

print(f"check_sarif: {path}: ok "
      f"({len(results)} result(s), {len(rules)} rules)")
PYEOF
