#!/usr/bin/env bash
# Corpus smoke test: sweep the pinned smoke spec (1000 scenarios, every
# axis covered) with the differential soundness oracle and require
#   1. zero violations and zero generate errors at N workers,
#   2. a byte-identical manifest when the same sweep runs at 1 worker
#      (the determinism contract from docs/CORPUS.md §4), whose sha256
#      equals the committed pin below,
#   3. that the oracle is live: with -inject-bug the sweep MUST trip
#      violations, otherwise a refactor has short-circuited the check.
set -euo pipefail

cd "$(dirname "$0")/.."
GO="${GO:-go}"

# sha256 of the smoke spec's manifest. It changes only with a deliberate
# change to the manifest (a rtmdm-corpus-manifest-vN domain bump) or to
# published verdicts; update it in the same commit, as docs/CORPUS.md §4
# describes.
want_manifest_sha256=0185df7f3f410684ff272e331163518745c4e8104d53a1bbb4bc92e12ff64f60

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$GO" build -o "$workdir/rtmdm-corpus" ./cmd/rtmdm-corpus

workers="${CORPUS_SMOKE_WORKERS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)}"

echo "corpus-smoke: pinned smoke spec, $workers workers"
"$workdir/rtmdm-corpus" -preset smoke -workers "$workers" \
    -manifest "$workdir/manifest-par.txt" -json "$workdir/report.json"

if grep -q '"generate-error"' "$workdir/report.json"; then
    echo "corpus-smoke: smoke spec produced generate errors" >&2
    exit 1
fi

echo "corpus-smoke: same spec, 1 worker (manifest determinism)"
"$workdir/rtmdm-corpus" -preset smoke -workers 1 \
    -manifest "$workdir/manifest-seq.txt" >/dev/null

if ! cmp -s "$workdir/manifest-par.txt" "$workdir/manifest-seq.txt"; then
    echo "corpus-smoke: manifest differs between 1 and $workers workers" >&2
    diff "$workdir/manifest-seq.txt" "$workdir/manifest-par.txt" | head -20 >&2
    exit 1
fi

if command -v sha256sum >/dev/null 2>&1; then
    got_manifest_sha256=$(sha256sum "$workdir/manifest-seq.txt" | cut -d' ' -f1)
else
    got_manifest_sha256=$(shasum -a 256 "$workdir/manifest-seq.txt" | cut -d' ' -f1)
fi
if [ "$got_manifest_sha256" != "$want_manifest_sha256" ]; then
    echo "corpus-smoke: manifest sha256 $got_manifest_sha256, pinned $want_manifest_sha256" >&2
    exit 1
fi
echo "corpus-smoke: manifest sha256 matches the pin"

echo "corpus-smoke: oracle liveness (-inject-bug must trip violations)"
"$workdir/rtmdm-corpus" -preset smoke -count 200 -workers "$workers" -inject-bug

echo "corpus-smoke: OK"
