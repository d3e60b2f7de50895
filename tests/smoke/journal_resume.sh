#!/usr/bin/env bash
# Campaign kill -> resume determinism: a campaign journal cut after
# three sites, plus a torn line, must resume to a report byte-identical
# to the uninterrupted run, at one thread and at four.
#
#   tests/smoke/journal_resume.sh HLSAVC OUT_DIR
#
# The journals and reports stay in OUT_DIR for inspection on failure.
set -eo pipefail
HLSAVC=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
cd "$OUT"

cat > loopback.c <<'EOF'
void loop(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 8; i++) {
    uint32 v = stream_read(in);
    assert(v > 0);
    stream_write(out, v);
  }
}
EOF
"$HLSAVC" faultsim loopback.c --campaign \
  --feed loop.in=1,2,3,4,5,6,7,8 --journal=resume.jsonl > full.txt
# Simulate a SIGKILL mid-sweep: header + 3 sites + a torn line.
head -n 4 resume.jsonl > killed.jsonl
printf '{"site":9,"outc' >> killed.jsonl
"$HLSAVC" faultsim loopback.c --campaign --resume \
  --feed loop.in=1,2,3,4,5,6,7,8 --journal=killed.jsonl > resumed.txt
cmp full.txt resumed.txt
"$HLSAVC" faultsim loopback.c --campaign --resume \
  --feed loop.in=1,2,3,4,5,6,7,8 --threads=4 --journal=killed.jsonl > resumed4.txt
cmp full.txt resumed4.txt
