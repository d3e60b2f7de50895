#!/usr/bin/env bash
# Compiled-engine smoke: the same loopback run on both engines must
# print identical output, and with a host C compiler present the
# compiled engine must really run (no fallback note).
#
#   tests/smoke/compiled_engine.sh HLSAVC OUT_DIR
#
# The design, outputs and the JIT cache (HLSAV_CACHE_DIR) stay in
# OUT_DIR for inspection on failure.
set -eo pipefail
HLSAVC=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
cd "$OUT"
export HLSAV_CACHE_DIR="$OUT/jit-cache"

if ! command -v cc >/dev/null 2>&1 && ! command -v gcc >/dev/null 2>&1 \
   && ! command -v clang >/dev/null 2>&1; then
  echo "no host C compiler on PATH; skipping compiled-engine smoke"
  exit 0
fi
cat > loopback.c <<'EOF'
void loop(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 8; i++) {
    uint32 v = stream_read(in);
    assert(v > 0);
    stream_write(out, v);
  }
}
EOF
"$HLSAVC" simulate loopback.c --engine=interpreter \
  --feed loop.in=1,2,3,4,5,6,7,8 > engine-interp.txt
"$HLSAVC" simulate loopback.c --engine=compiled \
  --feed loop.in=1,2,3,4,5,6,7,8 > engine-compiled.txt 2> engine-note.txt
cmp engine-interp.txt engine-compiled.txt
# A compiler exists, so the compiled engine must actually have
# run: any fallback note ("...; interpreting") is a failure here.
if grep -q "interpreting" engine-note.txt; then
  echo "compiled engine unexpectedly fell back:"
  cat engine-note.txt
  exit 1
fi
