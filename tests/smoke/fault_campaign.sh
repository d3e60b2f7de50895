#!/usr/bin/env bash
# Fault-campaign smoke (small loopback): a whole campaign runs and exits
# 0. With a host C compiler present, the campaign on the compiled engine
# must print the interpreter's report byte for byte, and its stderr
# must count sites that really ran compiled.
#
#   tests/smoke/fault_campaign.sh HLSAVC OUT_DIR
#
# The design, reports and the JIT cache (HLSAV_CACHE_DIR) stay in
# OUT_DIR for inspection on failure.
set -eo pipefail
HLSAVC=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
cd "$OUT"
export HLSAV_CACHE_DIR="$OUT/jit-cache"

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
  --feed loop.in=1,2,3,4,5,6,7,8

if ! command -v cc >/dev/null 2>&1 && ! command -v gcc >/dev/null 2>&1 \
   && ! command -v clang >/dev/null 2>&1; then
  echo "no host C compiler on PATH; skipping the compiled-engine campaign check"
  exit 0
fi
"$HLSAVC" faultsim loopback.c --campaign --engine=interpreter \
  --feed loop.in=1,2,3,4,5,6,7,8 > campaign-interp.txt
"$HLSAVC" faultsim loopback.c --campaign --engine=compiled \
  --feed loop.in=1,2,3,4,5,6,7,8 > campaign-compiled.txt 2> campaign-engines.txt
cmp campaign-interp.txt campaign-compiled.txt
cat campaign-engines.txt
if ! grep -Eq "campaign engines: [1-9][0-9]* sites compiled" campaign-engines.txt; then
  echo "no campaign site ran on the compiled engine"
  exit 1
fi
