#!/bin/sh
# CI gate: build, test, formatting (when ocamlformat is available), and a
# smoke run of the machine-readable experiment output on one benchmark.
# Exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# dune's fmt check needs the pinned ocamlformat binary; skip (loudly)
# where it is not installed rather than failing the gate on tooling.
if command -v ocamlformat >/dev/null 2>&1; then
    echo "== dune build @fmt =="
    dune build @fmt
else
    echo "== skipping @fmt (ocamlformat not installed) =="
fi

# every temp file and directory of the gates lives under one scratch
# directory, removed by the single trap below
tmp=$(mktemp -d /tmp/mi-ci-XXXXXX)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/out.json
out_j2=$tmp/out-j2.json
cache=$tmp/cache
mut_out=$tmp/mut.txt
chaos1=$tmp/chaos1.txt
chaos2=$tmp/chaos2.txt
fuzz1=$tmp/fuzz1.json
fuzz2=$tmp/fuzz2.json
prof1=$tmp/prof1.json
prof2=$tmp/prof2.json
flame=$tmp/flame.txt
serve_sock=$tmp/serve.sock
serve_cache=$tmp/serve-cache
drive1=$tmp/drive1.txt
drive2=$tmp/drive2.txt
elim_txt=$tmp/elim.txt
elim1=$tmp/elim1.json
elim2=$tmp/elim2.json
elim_mut=$tmp/elim-mut.txt
soak_dir=$tmp/soak
soak1=$tmp/soak1.json
soak2=$tmp/soak2.json
replay1=$tmp/replay1.json
replay2=$tmp/replay2.json
det_dir1=$tmp/soak-det1
det_dir2=$tmp/soak-det2
scaling=$tmp/scaling.txt
mkdir "$cache" "$serve_cache" "$soak_dir" "$det_dir1" "$det_dir2"

echo "== experiments --json smoke (470lbm) =="
# the binary re-parses its own output before exiting, so a zero status
# already certifies well-formed JSON; double-check with python3 if present
dune exec bin/experiments.exe -- --benchmark 470lbm -j 1 --json "$out" \
    table2 hotchecks >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["name"]: r for r in doc["reports"]}
assert "table2" in reports and "hotchecks" in reports, reports.keys()
labels = [s["label"] for s in reports["table2"]["series"]]
for want in ("sb_checks_wide", "lf_checks_wide", "tp_checks_wide"):
    assert want in labels, (want, labels)
print("json validated:", ", ".join(sorted(reports)))
EOF
fi

# the parallel session's determinism guarantee: the same experiments at
# -j 2 (with the on-disk instrumentation cache) must produce the same
# JSON document byte for byte as the sequential run above
echo "== experiments determinism (-j 2 vs -j 1) =="
dune exec bin/experiments.exe -- --benchmark 470lbm -j 2 \
    --cache-dir "$cache" --json "$out_j2" table2 hotchecks >/dev/null
cmp "$out" "$out_j2"
echo "-j 2 output byte-identical to -j 1"

# the execution-engine perf gate: steps/sec on the fixed hotchecks
# workload (sb_opt + lf_opt over the whole suite, VM execution only —
# the instrumentation cache is warmed by an untimed pass) must stay
# within 10% of the engine throughput recorded in BENCH_vm.json.
echo "== vm-steps perf gate (>= 90% of BENCH_vm.json) =="
floor=$(sed -n 's/.*"floor_steps_per_sec": \([0-9]*\).*/\1/p' BENCH_vm.json)
vm_line=$(dune exec bench/main.exe -- --vm-steps)
echo "$vm_line  (floor: $floor)"
echo "$vm_line" | awk -v floor="$floor" '
    /^vm_steps:/ {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2 && kv[1] == "steps_per_sec")
                sps = kv[2]
    }
    END {
        if (sps == "" || sps + 0 < floor + 0) {
            printf "vm-steps regression: %s < %s\n", sps, floor
            exit 1
        }
    }'
echo "engine throughput within budget"

# the security-guarantee gate: a seeded sample of check-deletion mutants
# (25 per registered approach — spatial and temporal alike) against the
# safety corpus.  Any mutant that is neither killed nor carries a
# written wide-bounds justification makes the experiment raise, so a
# zero exit plus "survivors: 0" in the report certifies 100% mutation
# kill on the sample.  The temporal rows must actually be there and be
# killed by temporal corpus kinds, not vacuously absent.
echo "== mutation gate (check-deletion mutants vs the safety corpus) =="
dune exec bin/experiments.exe -- mutation > "$mut_out"
grep -q "survivors: 0" "$mut_out"
grep -q "^temporal/" "$mut_out"
grep -Eq "by (uaf_init|uaf_use|uaf_tail|double_free)" "$mut_out"
echo "all sampled check-deletion mutants killed or whitelisted"

# the fault-tolerance gate: inject a crash into every softbound+domopt
# job and a hang into every lowfat+domopt job.  Under --keep-going the
# matrix must still complete: fig9 degrades to an "(incomplete)" stub,
# table2 (built on the un-faulted full setups) stays intact, the
# failure manifest lists both failures with their retry counts, and the
# exit status is nonzero.
echo "== chaos gate (injected crash + hang under --keep-going) =="
chaos_flags="--benchmark 470lbm --keep-going --retries 1 --job-timeout 1"
chaos_inject='crash=softbound+domopt,hang=lowfat+domopt:5'
if dune exec bin/experiments.exe -- $chaos_flags -j 4 --cache-dir "$cache" \
    --inject "$chaos_inject" fig9 table2 > "$chaos1"; then
    echo "chaos run unexpectedly exited zero"; exit 1
fi
grep -q "fig9 (incomplete)" "$chaos1"
grep -q "Table 2" "$chaos1"
grep -q "== failure manifest ==" "$chaos1"
grep -q "injected crash" "$chaos1"
grep -q "wall-clock budget exceeded" "$chaos1"
echo "matrix completed with partial results + failure manifest"

# graceful degradation is deterministic: the same chaos run at -j 1,
# additionally recovering from a bit-flipped on-disk cache, must print
# byte-identical output (surviving results AND manifest)
echo "== chaos determinism (-j 1 + corrupted cache vs -j 4) =="
if dune exec bin/experiments.exe -- $chaos_flags -j 1 --cache-dir "$cache" \
    --inject "$chaos_inject,corrupt-cache=bitflip" fig9 table2 > "$chaos2"
then
    echo "chaos run unexpectedly exited zero"; exit 1
fi
cmp "$chaos1" "$chaos2"
echo "chaos output byte-identical across -j and cache corruption"

# the differential-fuzzing gate: a fixed seed block (500 safe seeds —
# zero spurious reports from any of the three checkers — and 100
# unsafe mutants, spatial on even mutant seeds, use-after-free /
# double-free on odd ones).  A zero exit certifies zero oracle
# divergences on the safe programs and every mutant detected by every
# in-scope checker (killed, or carrying a written justification); the
# JSON report must come out byte-identical at -j 4 and -j 1.
echo "== fuzz gate (seeds 1..500, mutants 1..100, 3 checkers) =="
dune exec bin/mifuzz.exe -- --seeds 1..500 --mutants 1..100 -j 4 \
    --out "$fuzz1" | tail -n 4
if command -v python3 >/dev/null 2>&1; then
    python3 - "$fuzz1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cases = doc["mutants"]["cases"]
tags = ("O3+sb", "O3+lf", "O3+tp")
assert cases, "no mutant cases in the fuzz report"
for c in cases:
    for t in tags:
        assert t in c, (c["name"], t)
        assert c[t] == "killed" or "whitelisted" in c[t], (c["name"], t, c[t])
kinds = {c["name"].split("/")[1].split("-")[0] for c in cases}
assert "uaf" in kinds and "dfree" in kinds, kinds       # temporal drawn
assert kinds - {"uaf", "dfree"}, kinds                  # spatial drawn
tp_kills = sum(1 for c in cases if c["O3+tp"] == "killed")
print(f"fuzz json validated: {len(cases)} mutants ({sorted(kinds)}), "
      f"{tp_kills} temporal kills")
EOF
fi
echo "== fuzz determinism (-j 1 vs -j 4) =="
dune exec bin/mifuzz.exe -- --seeds 1..500 --mutants 1..100 -j 1 \
    --out "$fuzz2" >/dev/null
cmp "$fuzz1" "$fuzz2"
echo "fuzz report byte-identical across -j"

# mifuzz usage contract: a flag of another mode, or a replay with
# nothing to check, is a usage error (exit 2) — never a silent soak
# that rewrites a corpus, and never a vacuous pass
echo "== mifuzz misuse probes (exit 2) =="
mifuzz_usage() {
    status=0
    _build/default/bin/mifuzz.exe "$@" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "mifuzz $*: exit $status, expected 2"; exit 1
    fi
}
mifuzz_usage --seeds 1..2 --minutes 1
mifuzz_usage --corpus "$tmp/probe" --entry 0
test ! -e "$tmp/probe"
mifuzz_usage --corpus "$tmp/missing" --replay
echo "misused flags rejected with exit 2, no corpus written"

# the persistent-profile determinism gate: the same experiments with
# coverage-carrying profile export at -j 4 and -j 1 must write
# byte-identical profile files, and mi-report's diff mode must find no
# regression between them (exit 0 — the CI-gating contract).  No shared
# --cache-dir here: a profile also records compile-phase span counts and
# static.* counters, so byte-identity is guaranteed for runs with equal
# starting cache state (a warm cache legitimately compiles nothing).
echo "== profile determinism (-j 4 vs -j 1) + mi-report diff =="
dune exec bin/experiments.exe -- --benchmark 470lbm -j 4 \
    --profile-out "$prof1" hotchecks >/dev/null
dune exec bin/experiments.exe -- --benchmark 470lbm -j 1 \
    --profile-out "$prof2" hotchecks >/dev/null
cmp "$prof1" "$prof2"
dune exec bin/mireport.exe -- diff "$prof1" "$prof2" >/dev/null
echo "profiles byte-identical across -j, mi-report diff clean"
dune exec bin/mireport.exe -- report "$prof1" --top 5 --flame "$flame" \
    >/dev/null
test -s "$flame"
echo "mi-report report + flamegraph export OK"

# the coverage-overhead gate: block/edge recording on the hot path must
# keep at least min_ratio (BENCH_coverage.json) of the plain engine
# throughput.  Best of three runs per mode: the workload is fixed, so
# the fastest run is the least-noise estimate on a shared machine.
echo "== coverage overhead gate (>= min_ratio of plain vm-steps) =="
min_ratio=$(sed -n 's/.*"min_ratio": \([0-9.]*\).*/\1/p' BENCH_coverage.json)
best_sps() {
    best=0
    for _ in 1 2 3; do
        line=$(dune exec bench/main.exe -- "$1")
        s=$(echo "$line" | sed -n 's/.*steps_per_sec=\([0-9]*\).*/\1/p')
        [ "$s" -gt "$best" ] && best=$s
    done
    echo "$best"
}
plain_sps=$(best_sps --vm-steps)
cov_sps=$(best_sps --vm-steps-cov)
echo "plain: $plain_sps steps/sec, coverage: $cov_sps steps/sec" \
     "(min ratio: $min_ratio)"
awk -v cov="$cov_sps" -v plain="$plain_sps" -v r="$min_ratio" 'BEGIN {
    if (plain + 0 <= 0 || cov + 0 < r * plain) {
        printf "coverage overhead regression: %s < %s * %s\n", cov, r, plain
        exit 1
    }
}'
echo "coverage recording overhead within budget"

# the chaos-serve gate: the mi-serve daemon under injected worker
# crashes and a hung request must answer all 200 driven fuzz jobs with
# zero drops (accepted requests survive worker death via requeue +
# supervisor restart) and byte-identical results to the batch harness;
# a second daemon on the same cache directory with every entry
# bit-flipped must quarantine, recompute and still answer identically.
echo "== chaos-serve gate (200 jobs, crashes + hang + cache bitflip) =="
serve=_build/default/bin/miserve.exe
"$serve" --socket "$serve_sock" --workers 4 --queue 8 \
    --cache-dir "$serve_cache" --job-timeout 30 \
    --inject 'crash=fuzz-17,hang=fuzz-23:0.2' &
serve_pid=$!
"$serve" --socket "$serve_sock" --drive --seeds 1..50 -j 4 --burst 4 \
    --tenants 2 --timeout-ms 30000 --shutdown > "$drive1"
wait "$serve_pid"
cat "$drive1"
grep -q "drive: jobs=200 ok=200 failed=0 degraded=0 errors=0 dropped=0 \
mismatches=0" "$drive1"
grep -q "restarts=4" "$drive1"   # 4 crash-matched requests, each requeued
echo "200/200 answered, zero drops, 4 supervisor restarts, byte-identical"

# phase 2: same cache, every entry corrupted at startup
"$serve" --socket "$serve_sock" --workers 4 --queue 8 \
    --cache-dir "$serve_cache" --job-timeout 30 \
    --inject 'corrupt-cache=bitflip' &
serve_pid=$!
"$serve" --socket "$serve_sock" --drive --seeds 1..10 -j 4 --burst 4 \
    --tenants 2 --timeout-ms 30000 --shutdown > "$drive2"
wait "$serve_pid"
cat "$drive2"
grep -q "drive: jobs=40 ok=40 failed=0 degraded=0 errors=0 dropped=0 \
mismatches=0" "$drive2"
grep -q "cache-corrupt=40" "$drive2"  # all 40 entries quarantined+recomputed
echo "corrupted cache quarantined and recomputed, responses still identical"

# the check-elimination gate, three halves.  (1) soundness: the
# mutation-opt experiment replays every safety-corpus kind under the
# all-passes-optimized configs demanding verdict equality with the
# unoptimized basis, then runs the check-deletion mutation campaign
# over the optimized configs — the experiment raises on any mismatch
# or survivor, so a zero exit plus the grepped lines certifies that an
# eliminated check is one no mutant needed.  (2) effectiveness: every
# (benchmark x approach) row of the checkelim report must remove at
# least floor_min_static_pct of its static checks, and the suite-mean
# dynamic (profile-weighted) removal must stay above
# floor_mean_dynamic_pct — both floors recorded in
# BENCH_checkelim.json.  (3) determinism: the checkelim experiment
# JSON at -j 4 must be byte-identical to -j 1 (fresh in-memory caches
# on both sides, so cache counters agree).
echo "== checkelim gate (mutants over optimized configs: survivors 0) =="
dune exec bin/experiments.exe -- mutation-opt > "$elim_mut"
grep -q "0 mismatches" "$elim_mut"
# both campaigns must report zero survivors, and campaign 2 must actually
# exercise the spatial checkers (non-vacuity: their probes keep checks
# under dominance+hoist, so mutant rows for them must exist)
[ "$(grep -c "survivors: 0" "$elim_mut")" -eq 2 ]
! grep -q "survivors: [1-9]" "$elim_mut"
grep -q "^softbound/" "$elim_mut"
grep -q "^lowfat/" "$elim_mut"
echo "corpus verdicts unchanged by elimination, all sampled mutants killed"

echo "== checkelim gate (elimination floors from BENCH_checkelim.json) =="
dune exec bin/experiments.exe -- -j 4 --json "$elim1" checkelim > "$elim_txt"
floor_min=$(sed -n 's/.*"floor_min_static_pct": \([0-9.]*\).*/\1/p' \
    BENCH_checkelim.json)
floor_dyn=$(sed -n 's/.*"floor_mean_dynamic_pct": \([0-9.]*\).*/\1/p' \
    BENCH_checkelim.json)
awk -v fmin="$floor_min" -v fdyn="$floor_dyn" '
    NF == 10 && $10 ~ /x$/ {
        rows++; dyn += $7
        if ($5 + 0 < fmin + 0) {
            printf "static elimination floor broken: %s %s removes %s%% < %s%%\n", \
                $1, $2, $5, fmin
            bad = 1
        }
    }
    END {
        if (rows == 0) { print "no checkelim rows parsed"; exit 1 }
        if (bad) exit 1
        if (dyn / rows < fdyn + 0) {
            printf "mean dynamic elimination %.2f%% below floor %s%%\n", \
                dyn / rows, fdyn
            exit 1
        }
        printf "%d rows: every static removal >= %s%%, mean dynamic %.2f%% >= %s%%\n", \
            rows, fmin, dyn / rows, fdyn
    }' "$elim_txt"

echo "== checkelim determinism (-j 1 vs -j 4) =="
dune exec bin/experiments.exe -- -j 1 --json "$elim2" checkelim >/dev/null
cmp "$elim1" "$elim2"
echo "checkelim JSON byte-identical across -j"

# the fuzz-soak gate: a 60-second coverage-guided evolutionary soak
# over a fresh corpus (capped at 600 matrix executions so fast machines
# terminate) must discover at least soak_cells_floor coverage cells
# (BENCH_fuzz.json) with zero oracle findings and zero missed mutant
# detections.  The exec sequence is deterministic: a slower machine
# runs a prefix of the same sequence, so floor aside, a clean fast run
# certifies every slower run.
echo "== fuzz-soak gate (60s evolutionary soak, floors from BENCH_fuzz.json) =="
soak_floor=$(sed -n 's/.*"soak_cells_floor": \([0-9]*\).*/\1/p' BENCH_fuzz.json)
dune exec bin/mifuzz.exe -- --corpus "$soak_dir" --minutes 1 \
    --max-execs 600 -j 4 --out "$soak1" | tail -n 3
if command -v python3 >/dev/null 2>&1; then
    python3 - "$soak1" "$soak_floor" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
floor = int(sys.argv[2])
assert doc["findings"] == [], doc["findings"]
assert doc["mutants"]["missed"] == 0, doc["mutants"]
assert doc["mutants"]["total"] > 0, "soak ran no mutants"
cells = doc["vm_coverage"]["cells"]
assert cells >= floor, f"soak cells {cells} below floor {floor}"
c = doc["corpus"]
assert c["spliced"] > 0 and c["grown"] > 0, c
print(f"soak validated: {cells} cells (floor {floor}), "
      f"{c['entries']} entries ({c['spliced']} spliced, {c['grown']} grown), "
      f"{c['rounds']} rounds, {c['execs']} execs")
EOF
else
    grep -q '"findings":\[\]' "$soak1"
fi
echo "soak clean: floors met, zero findings, zero missed"

# corpus-replay determinism: re-executing the soak's corpus must verify
# every stored coverage fingerprint and produce byte-identical reports
# at -j 1 and -j 4
echo "== corpus replay determinism (-j 1 vs -j 4) =="
dune exec bin/mifuzz.exe -- --corpus "$soak_dir" --replay -j 4 \
    --out "$replay1" >/dev/null
dune exec bin/mifuzz.exe -- --corpus "$soak_dir" --replay -j 1 \
    --out "$replay2" >/dev/null
cmp "$replay1" "$replay2"
grep -q '"findings":\[\]' "$replay1"
echo "replay verified every fingerprint, byte-identical across -j"

# exec-budget soak determinism: a fixed 40-exec soak must produce
# byte-identical reports AND byte-identical corpora at -j 1 and -j 4
echo "== soak exec-budget determinism (-j 1 vs -j 4, corpora compared) =="
dune exec bin/mifuzz.exe -- --corpus "$det_dir1" --max-execs 40 -j 4 \
    --out "$soak1" >/dev/null
dune exec bin/mifuzz.exe -- --corpus "$det_dir2" --max-execs 40 -j 1 \
    --out "$soak2" >/dev/null
cmp "$soak1" "$soak2"
( cd "$det_dir1" && ls ) > "$scaling"
( cd "$det_dir2" && ls ) | cmp "$scaling" -
for f in "$det_dir1"/*.json; do
    cmp "$f" "$det_dir2/$(basename "$f")"
done
echo "40-exec soak: report and every corpus file byte-identical across -j"

# the fuzz-throughput gate: at the identical 40-exec budget the guided
# mode must reach at least guided_cells_floor cells and strictly more
# than blind enumeration (both counts deterministic, BENCH_fuzz.json)
echo "== fuzz-scaling gate (guided > blind at equal exec budget) =="
guided_floor=$(sed -n 's/.*"guided_cells_floor": \([0-9]*\).*/\1/p' \
    BENCH_fuzz.json)
dune exec bench/main.exe -- --fuzz-scaling > "$scaling"
cat "$scaling"
awk -v floor="$guided_floor" '
    /^fuzz_scaling:/ {
        rows++
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2) v[kv[1]] = kv[2]
        if (v["guided_cells"] + 0 < floor + 0) {
            printf "guided cells %s below floor %s\n", v["guided_cells"], floor
            exit 1
        }
        if (v["guided_cells"] + 0 <= v["blind_cells"] + 0) {
            printf "guided (%s) not above blind (%s) at j=%s\n", \
                v["guided_cells"], v["blind_cells"], v["j"]
            exit 1
        }
        if (v["findings"] + 0 != 0) {
            printf "fuzz-scaling produced %s findings\n", v["findings"]
            exit 1
        }
        if (rows > 1 && v["guided_cells"] != prev) {
            printf "guided cells vary across -j: %s vs %s\n", \
                v["guided_cells"], prev
            exit 1
        }
        prev = v["guided_cells"]
    }
    END { if (rows != 4) { print "expected 4 fuzz_scaling rows"; exit 1 } }
    ' "$scaling"
echo "guided beats blind at every -j, floors met, counts -j-invariant"

echo "== ci OK =="
