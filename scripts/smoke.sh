#!/usr/bin/env sh
# Tier-1 smoke: build everything, run the full test tree, and exercise the
# search-stats JSON emitter end to end (the snapshot self-validates inside
# bench/main.exe; a malformed snapshot exits non-zero and fails the smoke).
#
# SMOKE_ONLY=chaos runs only the fault-injection / crash-recovery
# section; SMOKE_ONLY=opt runs only the proof-carrying-optimizer section;
# SMOKE_ONLY=serve runs only the synthesis-daemon section; SMOKE_ONLY=certify
# runs only the symbolic-certifier section; SMOKE_ONLY=devlint runs only the
# self-hosted codebase-linter gate; SMOKE_ONLY=bench runs only the
# search-throughput regression gate (each used by the matching CI job,
# which has already built and tested). The default runs everything.
set -eu

cd "$(dirname "$0")/.."

if [ "${SMOKE_ONLY:-all}" = "all" ]; then

echo "== dune build =="
dune build

echo "== dune build @runtest =="
dune build @runtest

echo "== bench --stats-json =="
out="${TMPDIR:-/tmp}/sortsynth-stats-smoke.json"
dune exec bench/main.exe -- --stats-json "$out"
# Belt and braces: the emitter already validated the snapshot; check the
# file landed non-empty and looks like a JSON array.
[ -s "$out" ] || { echo "stats snapshot is empty" >&2; exit 1; }
case "$(head -c 1 "$out")" in
  "[") ;;
  *) echo "stats snapshot does not start with '['" >&2; exit 1 ;;
esac

echo "== registry cache round trip =="
reg="${TMPDIR:-/tmp}/sortsynth-registry-smoke"
rm -rf "$reg"
# First run populates the store; the repeated request must be served from
# the registry (verified on load) without running the search, and the
# stats snapshot must show the hit.
dune exec bin/synth.exe -- -n 4 --cache --cache-dir "$reg" > /dev/null
second="$(dune exec bin/synth.exe -- -n 4 --cache --cache-dir "$reg" --stats-json -)"
echo "$second" | grep -q "registry hit" \
  || { echo "second --cache run did not hit the registry" >&2; exit 1; }
echo "$second" | grep -q '"registry":{"hits":1' \
  || { echo "stats snapshot does not report the registry hit" >&2; exit 1; }

echo "== batch scheduler =="
jobs="${TMPDIR:-/tmp}/sortsynth-jobs-smoke.json"
printf '[{"n":2},{"n":3},{"n":3,"engine":"level"},{"n":3,"engine":"parallel"}]\n' > "$jobs"
dune exec bin/synth.exe -- batch "$jobs" -j 2 --cache-dir "$reg" > /dev/null
# Every batch job repeats a stored request: all four must be cache hits.
dune exec bin/synth.exe -- batch "$jobs" -j 2 --cache-dir "$reg" \
  | grep -q "# registry: 4 hits, 0 misses" \
  || { echo "repeated batch was not fully served from the registry" >&2; exit 1; }
dune exec bin/synth.exe -- registry verify --lint --cache-dir "$reg" > /dev/null \
  || { echo "registry verify --lint failed" >&2; exit 1; }
rm -rf "$reg" "$jobs"

echo "== static analyzer lint gate =="
# Every shipped example kernel must be lint-clean (exit 0, zero findings)
# — except sort3_unopt.txt, the deliberately naive compilation that
# exists to trip the redundant-cmp rule and feed the optimizer smoke.
clean_examples="$(ls examples/kernels/*.txt | grep -v sort3_unopt)"
dune exec bin/synth.exe -- lint $clean_examples \
  || { echo "example kernels are not lint-clean" >&2; exit 1; }
unopt_lint="${TMPDIR:-/tmp}/sortsynth-unopt-lint.out"
if dune exec bin/synth.exe -- lint examples/kernels/sort3_unopt.txt \
    > "$unopt_lint" 2>&1; then
  echo "lint accepted the deliberately redundant kernel" >&2; exit 1
fi
grep -q "redundant-cmp" "$unopt_lint" \
  || { echo "lint did not flag the duplicated cmp as redundant-cmp" >&2; exit 1; }
rm -f "$unopt_lint"
# A deliberately padded kernel must trip the gate (exit 1) ...
padded="${TMPDIR:-/tmp}/sortsynth-padded-smoke.txt"
{ cat examples/kernels/sort3.txt; printf 'mov s1 r1\ncmp r1 r2\n'; } > "$padded"
if dune exec bin/synth.exe -- lint "$padded" > /dev/null 2>&1; then
  echo "lint accepted a padded kernel" >&2; exit 1
fi
# ... and the proof-carrying DCE must strip the padding and re-certify.
analysis="$(dune exec bin/synth.exe -- analyze "$padded" --json)"
echo "$analysis" | grep -q '"removed":2' \
  || { echo "DCE did not remove the 2 padding instructions" >&2; exit 1; }
echo "$analysis" | grep -q '"certified":true' \
  || { echo "DCE output did not re-certify" >&2; exit 1; }
rm -f "$padded"

fi # SMOKE_ONLY guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "opt" ]; then

echo "== proof-carrying optimizer: certify, equiv, refuse sabotage =="
dune build bin/synth.exe
optdir="${TMPDIR:-/tmp}/sortsynth-opt-smoke"
rm -rf "$optdir"; mkdir -p "$optdir"
for k in examples/kernels/*.txt; do
  base="$(basename "$k")"
  dune exec bin/synth.exe -- optimize "$k" -o "$optdir/$base" > /dev/null
  # The optimized kernel must be lint-clean ...
  dune exec bin/synth.exe -- lint "$optdir/$base" > /dev/null \
    || { echo "optimized $base is not lint-clean" >&2; exit 1; }
  # ... equivalent to its input on all n! permutations (equiv exit 0) ...
  dune exec bin/synth.exe -- equiv "$k" "$optdir/$base" > /dev/null \
    || { echo "optimized $base is not equivalent to its input" >&2; exit 1; }
  # ... and no longer than the input.
  in_len="$(grep -c . "$k")"
  out_len="$(grep -c . "$optdir/$base")"
  [ "$out_len" -le "$in_len" ] \
    || { echo "optimized $base grew: $in_len -> $out_len lines" >&2; exit 1; }
done
# The naive compilation must strictly improve (the redundant cmp goes).
in_len="$(grep -c . examples/kernels/sort3_unopt.txt)"
out_len="$(grep -c . "$optdir/sort3_unopt.txt")"
[ "$out_len" -lt "$in_len" ] \
  || { echo "optimizer did not improve sort3_unopt.txt" >&2; exit 1; }
# A sabotaged pass is refused, never silently applied: under the
# opt.break_pass fault every proposal fails certification, so no delta
# is recorded and the kernel survives byte-identical.
dune exec bin/synth.exe -- optimize examples/kernels/sort2.txt \
    --fault-plan 'seed=1;opt.break_pass=always' --json \
  | grep -q '"deltas":\[\]' \
  || { echo "sabotaged pass was not refused" >&2; exit 1; }
# Typed equiv exit codes: 0 equivalent, 1 differ with a counterexample.
dune exec bin/synth.exe -- equiv examples/kernels/sort3.txt \
    "$optdir/sort3_unopt.txt" > /dev/null \
  || { echo "equiv rejected two equivalent sort3 kernels" >&2; exit 1; }
set +e
differs="$(dune exec bin/synth.exe -- equiv examples/kernels/sort2.txt \
    examples/kernels/sort3.txt 2> /dev/null)"
code=$?
set -e
[ "$code" -eq 1 ] || { echo "equiv on differing kernels exited $code, want 1" >&2; exit 1; }
echo "$differs" | grep -q "counterexample input" \
  || { echo "equiv did not print a counterexample" >&2; exit 1; }
rm -rf "$optdir"

fi # SMOKE_ONLY=opt guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "chaos" ]; then

echo "== chaos: torn insert, recovery, typed exit codes =="
dune build bin/synth.exe
reg="${TMPDIR:-/tmp}/sortsynth-chaos-smoke"
jobs="${TMPDIR:-/tmp}/sortsynth-chaos-jobs.json"
rm -rf "$reg"
printf '[{"n":3}]\n' > "$jobs"
# A batch whose one store insert crashes at the publishing rename: the
# job still synthesizes (the search succeeded), but nothing lands in the
# store except the torn staging directory a real crash would leave.
dune exec bin/synth.exe -- batch "$jobs" --cache-dir "$reg" \
    --fault-plan 'seed=42;registry.rename=nth:1' \
  | grep -q "0 inserted" \
  || { echo "faulted batch unexpectedly published its entry" >&2; exit 1; }
# Inserts stage inside the entry's shard since the v2 layout, so the
# torn dir lives one level down.
find "$reg/store" -maxdepth 2 -name '.tmp-*' | grep -q . \
  || { echo "injected rename crash left no torn staging dir" >&2; exit 1; }
# The next (un-faulted) batch must recover the torn dir at open, miss,
# re-synthesize, and publish cleanly.
dune exec bin/synth.exe -- batch "$jobs" --cache-dir "$reg" \
  | grep -q "# registry: 0 hits, 1 misses, 0 quarantined, 1 inserted, 1 recovered" \
  || { echo "batch after the crash did not recover + reinsert" >&2; exit 1; }
if find "$reg/store" -maxdepth 2 -name '.tmp-*' | grep -q .; then
  echo "torn staging dir survived recovery" >&2; exit 1
fi
# The recovered store is fully servable and certifies end to end.
dune exec bin/synth.exe -- registry verify --cache-dir "$reg" > /dev/null \
  || { echo "registry verify failed after recovery" >&2; exit 1; }
# Typed exit codes: 1 = no kernel within the length bound, 2 = deadline,
# 3 = budget exhausted at the final rung.
set +e
dune exec bin/synth.exe -- -n 3 --max-len 5 > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 1 ] || { echo "no-kernel run exited $code, want 1" >&2; exit 1; }
set +e
dune exec bin/synth.exe -- -n 4 --engine level --timeout 0.05 > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || { echo "timeout exited $code, want 2" >&2; exit 1; }
set +e
dune exec bin/synth.exe -- -n 4 --engine level --state-budget 10 > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] || { echo "exhaustion exited $code, want 3" >&2; exit 1; }
# A crashed worker domain fails its job, not the batch: the run completes,
# reports the crash in place, and exits 1 (mixed/other failure class).
set +e
crash_out="$(dune exec bin/synth.exe -- batch "$jobs" --no-cache \
    --fault-plan 'seed=7;scheduler.worker_crash=always' 2> /dev/null)"
code=$?
set -e
[ "$code" -eq 1 ] || { echo "crashed batch exited $code, want 1" >&2; exit 1; }
echo "$crash_out" | grep -q "CRASHED" \
  || { echo "crashed batch did not report the crash" >&2; exit 1; }
rm -rf "$reg" "$jobs"

fi # SMOKE_ONLY=chaos guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "serve" ]; then

echo "== synthesis daemon: LRU, coalescing, sharded registry =="
dune build bin/synth.exe
synth="_build/default/bin/synth.exe"
servedir="${TMPDIR:-/tmp}/sortsynth-serve-smoke"
rm -rf "$servedir"; mkdir -p "$servedir"
sock="$servedir/synthd.sock"
reg="$servedir/registry"
statsf="$servedir/final-stats.json"
"$synth" serve --socket "$sock" --cache-dir "$reg" --stats-json "$statsf" \
  > "$servedir/serve.log" 2>&1 &
serve_pid=$!
# The daemon prints its ready line after binding; the socket appearing is
# the machine-checkable version of the same signal.
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
# Extract one integer counter from a stats snapshot.
counter() { grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2; }
# Cold request: a real search, served and stored.
cold_out="$servedir/cold.out"
"$synth" client --server "$sock" -n 3 > "$cold_out" \
  || { echo "cold client request failed" >&2; exit 1; }
grep -q "# synthesized from search" "$cold_out" \
  || { echo "cold request was not synthesized" >&2; exit 1; }
# Warm request: must be served from memory with ZERO directory scans and
# ZERO n! re-certifications — proved by the process-wide monotone
# counters not moving between the two stats snapshots around it.
"$synth" client --server "$sock" --op stats > "$servedir/before.json"
warm_out="$servedir/warm.out"
"$synth" client --server "$sock" --op lookup -n 3 > "$warm_out" \
  || { echo "warm lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$warm_out" \
  || { echo "warm lookup was not served from memory" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$servedir/after.json"
echo "cold: $(grep '^#' "$cold_out")"
echo "warm: $(grep '^#' "$warm_out")"
[ "$(counter "$servedir/before.json" readdir_calls)" = \
  "$(counter "$servedir/after.json" readdir_calls)" ] \
  || { echo "warm lookup performed a directory scan" >&2; exit 1; }
[ "$(counter "$servedir/before.json" certifications)" = \
  "$(counter "$servedir/after.json" certifications)" ] \
  || { echo "warm lookup re-certified the kernel" >&2; exit 1; }
hits_before="$(counter "$servedir/before.json" cache_hits)"
hits_after="$(counter "$servedir/after.json" cache_hits)"
[ "$hits_after" -gt "$hits_before" ] \
  || { echo "warm lookup did not count as a cache hit" >&2; exit 1; }
# Concurrent clients on one warm key: every one is a memory hit.
conc_pids=""
for i in 1 2 3 4; do
  "$synth" client --server "$sock" --op lookup -n 3 \
    > "$servedir/conc$i.out" &
  conc_pids="$conc_pids $!"
done
for p in $conc_pids; do
  wait "$p" || { echo "concurrent lookup client $p failed" >&2; exit 1; }
done
for i in 1 2 3 4; do
  grep -q "# cached from memory" "$servedir/conc$i.out" \
    || { echo "concurrent lookup $i missed the memory cache" >&2; exit 1; }
done
"$synth" client --server "$sock" --op stats > "$servedir/conc.json"
[ "$(counter "$servedir/conc.json" cache_hits)" -ge 5 ] \
  || { echo "concurrent lookups did not all hit the cache" >&2; exit 1; }
# batch --server prints byte-identical kernels to a local batch.
jobs="$servedir/jobs.json"
printf '[{"n":2},{"n":3},{"n":3,"engine":"level"}]\n' > "$jobs"
"$synth" batch "$jobs" --cache-dir "$servedir/local-reg" \
  | grep -v '^#' > "$servedir/local.kernels"
"$synth" batch "$jobs" --server "$sock" \
  | grep -v '^#' > "$servedir/remote.kernels"
cmp -s "$servedir/local.kernels" "$servedir/remote.kernels" \
  || { echo "batch --server kernels differ from the local batch" >&2; exit 1; }
# Clean shutdown on request; the daemon writes its final stats snapshot.
"$synth" client --server "$sock" --op shutdown > /dev/null \
  || { echo "shutdown request failed" >&2; exit 1; }
wait "$serve_pid" \
  || { echo "daemon exited non-zero after shutdown" >&2; exit 1; }
grep -q "# serve: listening on" "$servedir/serve.log" \
  || { echo "daemon never printed its ready line" >&2; exit 1; }
[ -s "$statsf" ] && grep -q '"cache_hits"' "$statsf" \
  || { echo "daemon did not write its final stats snapshot" >&2; exit 1; }
# Unreachable server: typed exit code 5.
set +e
"$synth" client --server "$sock" --op stats > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 5 ] || { echo "unreachable server exited $code, want 5" >&2; exit 1; }
# registry migrate round trip: flatten the sharded store back to the v1
# layout by hand, migrate it, and demand an identical inventory.
"$synth" registry list --cache-dir "$reg" > "$servedir/sharded.list"
for d in "$reg"/store/??; do
  [ -d "$d" ] || continue
  mv "$d"/* "$reg/store/" 2> /dev/null || true
  rmdir "$d"
done
"$synth" registry list --count --cache-dir "$reg" | grep -q "0 sharded" \
  || { echo "flattening the store for the migrate test failed" >&2; exit 1; }
"$synth" registry migrate --cache-dir "$reg" > /dev/null
"$synth" registry list --count --cache-dir "$reg" | grep -q "0 flat" \
  || { echo "migrate left flat entries behind" >&2; exit 1; }
"$synth" registry list --cache-dir "$reg" > "$servedir/migrated.list"
cmp -s "$servedir/sharded.list" "$servedir/migrated.list" \
  || { echo "registry listing changed across the migrate round trip" >&2; exit 1; }
"$synth" registry verify --cache-dir "$reg" > /dev/null \
  || { echo "registry verify failed after migrate" >&2; exit 1; }

echo "== daemon overload: typed shed, exit 6, never a hang =="
# With the admission gate forced shut by the fault plan, every synth
# request must come back as a typed "overloaded" response with a retry
# hint (client exit 6) — not a hang and not a silent drop.
ov_sock="$servedir/ov.sock"
"$synth" serve --socket "$ov_sock" --cache-dir "$servedir/ov-registry" \
  --fault-plan 'seed=1;serve.overload=always' \
  > "$servedir/ov-serve.log" 2>&1 &
ov_pid=$!
i=0
while [ ! -S "$ov_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "overload daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
set +e
"$synth" client --server "$ov_sock" -n 3 \
  > "$servedir/ov.out" 2> "$servedir/ov.err"
code=$?
set -e
[ "$code" -eq 6 ] \
  || { echo "overloaded request exited $code, want 6" >&2; exit 1; }
grep -q "^# overloaded" "$servedir/ov.out" \
  || { echo "shed response was not typed overloaded" >&2; exit 1; }
grep -q "retry in" "$servedir/ov.err" \
  || { echo "shed response carried no retry_after hint" >&2; exit 1; }
"$synth" client --server "$ov_sock" --op shutdown > /dev/null \
  || { echo "overloaded daemon refused shutdown" >&2; exit 1; }
wait "$ov_pid" \
  || { echo "overload daemon exited non-zero" >&2; exit 1; }

echo "== graceful drain: SIGTERM, warm-set snapshot, warm restart =="
dr_sock="$servedir/drain.sock"
dr_reg="$servedir/drain-registry"
"$synth" serve --socket "$dr_sock" --cache-dir "$dr_reg" \
  > "$servedir/drain1.log" 2>&1 &
dr_pid=$!
i=0
while [ ! -S "$dr_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "drain daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$dr_sock" -n 3 > /dev/null \
  || { echo "drain-test synthesis failed" >&2; exit 1; }
# Load while the signal lands: warm lookups racing the drain either get
# served (warm hits serve during drain) or see the connection refused —
# both fine; the daemon must still exit 0 with a whole snapshot.
for i in 1 2 3; do
  "$synth" client --server "$dr_sock" --op lookup -n 3 > /dev/null 2>&1 &
done
kill -TERM "$dr_pid"
wait "$dr_pid" \
  || { echo "daemon exited non-zero after SIGTERM" >&2; exit 1; }
wait || true # collect the racing lookups, whatever they saw
[ -f "$dr_reg/warmset.json" ] \
  || { echo "drain left no warm-set snapshot" >&2; exit 1; }
grep -q "sortsynth-serve-warmset/v1" "$dr_reg/warmset.json" \
  || { echo "warm-set snapshot has the wrong schema" >&2; exit 1; }
# Warm restart: the snapshot is restored through the certified lookup
# path at open, and the first request is a memory hit — zero exact
# re-certifications across it.
"$synth" serve --socket "$dr_sock" --cache-dir "$dr_reg" \
  > "$servedir/drain2.log" 2>&1 &
dr2_pid=$!
i=0
while [ ! -S "$dr_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "restarted daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$dr_sock" --op stats > "$servedir/dr-before.json"
[ "$(counter "$servedir/dr-before.json" restored)" -ge 1 ] \
  || { echo "restart did not restore the warm set" >&2; exit 1; }
"$synth" client --server "$dr_sock" --op lookup -n 3 > "$servedir/dr-warm.out" \
  || { echo "restored lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$servedir/dr-warm.out" \
  || { echo "restored key was not served from memory" >&2; exit 1; }
"$synth" client --server "$dr_sock" --op stats > "$servedir/dr-after.json"
[ "$(counter "$servedir/dr-before.json" certifications)" = \
  "$(counter "$servedir/dr-after.json" certifications)" ] \
  || { echo "warm restart re-certified on the serving path" >&2; exit 1; }
"$synth" client --server "$dr_sock" --op shutdown > /dev/null \
  || { echo "restarted daemon refused shutdown" >&2; exit 1; }
wait "$dr2_pid" \
  || { echo "restarted daemon exited non-zero" >&2; exit 1; }
rm -rf "$servedir"

fi # SMOKE_ONLY=serve guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "certify" ]; then

echo "== symbolic sortedness certifier =="
dune build bin/synth.exe
synth="_build/default/bin/synth.exe"
certdir="${TMPDIR:-/tmp}/sortsynth-certify-smoke"
rm -rf "$certdir"; mkdir -p "$certdir"
counter() { grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2; }
# Every shipped example kernel certifies, and every one of them does so
# SYMBOLICALLY — the n! fallback never runs on the decidable workload.
"$synth" certify examples/kernels/*.txt --json > "$certdir/kernels.json" \
  || { echo "synth certify rejected a shipped example kernel" >&2; exit 1; }
if grep -q '"certified":false' "$certdir/kernels.json"; then
  echo "an example kernel failed to certify" >&2; exit 1
fi
if grep -q '"method":"exact"' "$certdir/kernels.json"; then
  echo "an example kernel needed the exact n! fallback" >&2; exit 1
fi
if grep -q '"verdict":"unknown"' "$certdir/kernels.json"; then
  echo "an example kernel came back unknown" >&2; exit 1
fi
# The Machine.Zeroone gap kernel — sorts all 2^n binary inputs, fails a
# permutation — is the standing adversarial regression: the certifier
# must reject it (refuted with a confirmed counterexample, or at worst
# unknown + exact fallback), NEVER prove it.
if "$synth" certify examples/gap/zeroone_gap.txt --json \
    > "$certdir/gap.json" 2>&1; then
  echo "synth certify ACCEPTED the Zeroone gap kernel" >&2; exit 1
fi
if grep -q '"verdict":"proved"' "$certdir/gap.json"; then
  echo "symcert PROVED the Zeroone gap kernel (unsound)" >&2; exit 1
fi
grep -q '"certified":false' "$certdir/gap.json" \
  || { echo "gap kernel was not reported uncertified" >&2; exit 1; }
grep -q '"detail":"kernel of length 3 fails on input \[2 1\]: produced \[0 2\]"' \
    "$certdir/gap.json" \
  || { echo "gap kernel rejection lacks the counterexample line" >&2; exit 1; }
# One proof module: outside Analysis.Certify and its Registry.Verify
# alias, no code in lib/ or bin/ may call a retired certification entry
# point or decide "sorts" / "equivalent" itself.
if grep -rnE 'Absint\.certify|Symcert\.certify_fast|Verify\.|Opt\.Equiv' lib bin \
    | grep -vE '^lib/analysis/certify\.mli?:|^lib/registry/verify\.mli?:'; then
  echo "certification bypasses Analysis.Certify (see the lines above)" >&2; exit 1
fi
# The synthesis stats snapshot carries the symcert block, and a fresh
# synthesis certifies its kernel symbolically (zero exact fallbacks).
stats="$("$synth" -n 3 --stats-json -)"
echo "$stats" | grep -q '"symcert":{' \
  || { echo "--stats-json has no symcert block" >&2; exit 1; }
echo "$stats" | grep -q '"exact_fallbacks":0' \
  || { echo "fresh n=3 synthesis fell back to the exact check" >&2; exit 1; }
# Trust-boundary counters on the daemon: cold admission certifies
# symbolically (symbolic_proofs > 0, certifications stays 0), and a warm
# memory hit does ZERO exact certification work — neither the exact
# counter nor the fallback counter moves across it.
sock="$certdir/synthd.sock"
"$synth" serve --socket "$sock" --cache-dir "$certdir/registry" \
  > "$certdir/serve.log" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "certify daemon never bound its socket" >&2; exit 1; }
  sleep 0.1
done
"$synth" client --server "$sock" -n 3 > /dev/null \
  || { echo "cold certify-smoke request failed" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$certdir/before.json"
[ "$(counter "$certdir/before.json" symbolic_proofs)" -gt 0 ] \
  || { echo "cold admission did not prove symbolically" >&2; exit 1; }
[ "$(counter "$certdir/before.json" certifications)" = 0 ] \
  || { echo "cold admission ran an exact n! certification" >&2; exit 1; }
"$synth" client --server "$sock" --op lookup -n 3 > "$certdir/warm.out" \
  || { echo "warm certify-smoke lookup failed" >&2; exit 1; }
grep -q "# cached from memory" "$certdir/warm.out" \
  || { echo "warm certify-smoke lookup missed the memory cache" >&2; exit 1; }
"$synth" client --server "$sock" --op stats > "$certdir/after.json"
for c in certifications exact_fallbacks symbolic_proofs; do
  [ "$(counter "$certdir/before.json" $c)" = \
    "$(counter "$certdir/after.json" $c)" ] \
    || { echo "warm hit moved the $c counter" >&2; exit 1; }
done
"$synth" client --server "$sock" --op shutdown > /dev/null 2>&1 || true
wait "$serve_pid" 2>/dev/null || true
rm -rf "$certdir"

fi # SMOKE_ONLY=certify guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "devlint" ]; then

echo "== devlint: tree is clean =="
dune build bin/synth.exe
synth="./_build/default/bin/synth.exe"
# The whole tree must scan clean (unwaived findings exit 1), and the JSON
# report must agree.
devout="${TMPDIR:-/tmp}/sortsynth-devlint-smoke.json"
"$synth" devlint --json > "$devout" \
  || { echo "devlint found unwaived findings in lib/ or bin/" >&2; exit 1; }
grep -q '"ok":true' "$devout" \
  || { echo "devlint JSON report does not say ok" >&2; exit 1; }
rm -f "$devout"

echo "== devlint: corpus still fails =="
# The gate is only a gate if a known-bad file trips it: every corpus file
# must produce findings and a non-zero exit with no waivers applied.
for bad in test/devlint_corpus/*.ml; do
  if "$synth" devlint --waivers /dev/null "$bad" > /dev/null 2>&1; then
    echo "devlint passed known-bad corpus file $bad" >&2; exit 1
  fi
done

fi # SMOKE_ONLY=devlint guard

if [ "${SMOKE_ONLY:-all}" = "all" ] || [ "${SMOKE_ONLY:-all}" = "bench" ]; then

echo "== search-throughput regression gate =="
dune build bench/main.exe
# Measure a fresh trajectory point into a scratch file (never the committed
# baseline) and gate it against the last committed BENCH_search.json entry:
# >20% states/sec regression on any workload fails the smoke. One repeat
# keeps CI latency sane; the gate's tolerance absorbs runner noise.
benchout="${TMPDIR:-/tmp}/sortsynth-bench-smoke.json"
rm -f "$benchout"
BENCH_REPEATS="${BENCH_REPEATS:-1}" dune exec bench/main.exe -- \
    --bench-search "$benchout" --rev smoke \
    --check BENCH_search.json --tolerance 0.2 \
  || { echo "search throughput regressed >20% vs BENCH_search.json" >&2; exit 1; }
grep -q '"schema":"sortsynth-bench-search/v1"' "$benchout" \
  || { echo "bench snapshot is missing its schema tag" >&2; exit 1; }
rm -f "$benchout"

fi # SMOKE_ONLY=bench guard

echo "smoke ok"
