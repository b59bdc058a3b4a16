#!/bin/sh
# CI: build, test, formatting (when ocamlformat is available), then run
# every gated workload and collect its output in one scratch directory.
# bench/gate.exe judges the artifacts (the table in bench/gate.ml, the
# floors in BENCH_*.json) and sets the exit status.
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

out=$(mktemp -d /tmp/mi-ci-XXXXXX)
trap 'rm -rf "$out"' EXIT
trap 'exit 1' INT TERM
bin=_build/default/bin
main=_build/default/bench/main.exe

# run NAME CMD...: stdout to $out/NAME.txt, exit status to $out/exit.txt
run() {
    name=$1
    shift
    echo "== $name =="
    code=0
    "$@" > "$out/$name.txt" || code=$?
    echo "exit: run=$name code=$code" >> "$out/exit.txt"
}

# every benchmark-matrix experiment as JSON on two benchmarks (164gzip
# declares size-zero arrays, so ablation-sz0 has rows); -j 2 with the
# on-disk cache must match -j 1 byte for byte
matrix="fig9 fig10 fig11 fig12 fig13 table2 optstats ablation-lf \
    ablation-sz0 hotchecks checkelim"
two="--benchmark 470lbm --benchmark 164gzip"
run json-j1 $bin/experiments.exe $two -j 1 --json "$out/json-j1.json" $matrix
run json-j2 $bin/experiments.exe $two -j 2 --cache-dir "$out/cache" \
    --json "$out/json-j2.json" $matrix

# VM throughput is compared with a fixed reference commit on this host,
# exported (no worktree) and built in the scratch dir.  Every change is
# held to the same reference, so losses across changes add up against
# one floor instead of resetting at each parent.  Move [base] only
# together with newly measured ratios in BENCH_vm.json (a change that
# speeds the VM up should move it, to keep the gain).  Each of the 7
# pairs (bench/gate.ml's [pairs]) also runs the candidate with coverage
# recording on, for the coverage row.  The order alternates, because
# whichever run comes first tends to win.
base=7b0fe78302b6da4a6a12061007c9a86832030e79
echo "== build base $base =="
mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"
(cd "$out/base" && dune build --root . bench/main.exe)
vm_steps() {
    case $1 in
        base) exe=$out/base/$main mode=--vm-steps ;;
        cand) exe=$main mode=--vm-steps ;;
        cov) exe=$main mode=--vm-steps-cov ;;
    esac
    echo "$("$exe" "$mode") side=$1 pair=$2" | tee -a "$out/vm.txt"
}
# the candidate's compile throughput, once per pair (the reference
# commit has no --compile-units); the gate checks its MIR digest
compile_units() {
    echo "$("$main" --compile-units) pair=$1" | tee -a "$out/compile.txt"
}
echo "== vm-steps pairs =="
for i in 1 2 3 4 5 6 7; do
    if [ $((i % 2)) -eq 1 ]; then
        vm_steps base "$i"; vm_steps cand "$i"; vm_steps cov "$i"
        compile_units "$i"
    else
        compile_units "$i"
        vm_steps cov "$i"; vm_steps cand "$i"; vm_steps base "$i"
    fi
done

run mutation $bin/experiments.exe --json "$out/mutation.json" mutation

# an injected crash and hang under --keep-going; -j 1 additionally
# recovers from a bit-flipped cache and must print the same bytes
chaos="--benchmark 470lbm --keep-going --retries 1 --job-timeout 1"
inject='crash=softbound+domopt,hang=lowfat+domopt:5'
run chaos-j4 $bin/experiments.exe $chaos -j 4 --cache-dir "$out/cache" \
    --inject "$inject" fig9 table2
run chaos-j1 $bin/experiments.exe $chaos -j 1 --cache-dir "$out/cache" \
    --inject "$inject,corrupt-cache=bitflip" fig9 table2

run fuzz-j4 $bin/mifuzz.exe --seeds 1..500 --mutants 1..100 -j 4 \
    --out "$out/fuzz-j4.json"
run fuzz-j1 $bin/mifuzz.exe --seeds 1..500 --mutants 1..100 -j 1 \
    --out "$out/fuzz-j1.json"

run probe-minutes $bin/mifuzz.exe --seeds 1..2 --minutes 1
run probe-entry $bin/mifuzz.exe --corpus "$out/probe-corpus" --entry 0
run probe-no-corpus test ! -e "$out/probe-corpus"
run probe-replay $bin/mifuzz.exe --corpus "$out/missing" --replay
# memsafe on a program that does not compile: one typed line, exit 2;
# mic honours no --retries, so the flag is a cmdliner usage error (124),
# and it refuses the --inject clauses it cannot act on (2)
printf 'int main() { return y; }\n' > "$out/bad.c"
printf 'int main() { return 0; }\n' > "$out/ok.c"
run probe-memsafe-compile $bin/memsafe.exe "$out/bad.c"
run probe-mic-retries $bin/mic.exe --retries 1 "$out/ok.c"
run probe-mic-inject $bin/mic.exe --inject crash=main "$out/ok.c"

# no shared --cache-dir: a profile records compile spans and static.*
# counters, so byte-identity needs equal starting cache state
run prof-j4 $bin/experiments.exe --benchmark 470lbm -j 4 \
    --profile-out "$out/prof-j4.json" hotchecks
run prof-j1 $bin/experiments.exe --benchmark 470lbm -j 1 \
    --profile-out "$out/prof-j1.json" hotchecks
run profile-diff $bin/mireport.exe diff "$out/prof-j4.json" "$out/prof-j1.json"
run flame $bin/mireport.exe report "$out/prof-j4.json" --top 5 \
    --flame "$out/flame.txt"

# mi-serve under injected worker crashes and a hung request, then a
# second daemon on the same cache with every entry bit-flipped, then a
# fault-free daemon serving every request for one tenant on four
# workers at once.  serve_drive NAME SEEDS TENANTS [DAEMON FLAGS...]
serve_drive() {
    sd_name=$1 sd_seeds=$2 sd_tenants=$3
    shift 3
    $bin/miserve.exe --socket "$out/serve.sock" --workers 4 --queue 8 \
        --job-timeout 30 "$@" &
    pid=$!
    run "$sd_name" $bin/miserve.exe --socket "$out/serve.sock" --drive \
        --seeds "$sd_seeds" -j 4 --burst 4 --tenants "$sd_tenants" \
        --timeout-ms 30000 --shutdown
    code=0
    wait "$pid" || code=$?
    echo "exit: run=$sd_name-daemon code=$code" >> "$out/exit.txt"
}
serve_drive drive-crash 1..50 2 --cache-dir "$out/serve-cache" \
    --inject 'crash=fuzz-17,hang=fuzz-23:0.2'
serve_drive drive-corrupt 1..10 2 --cache-dir "$out/serve-cache" \
    --inject 'corrupt-cache=bitflip'
serve_drive drive-one-tenant 1..10 1

run mutation-opt $bin/experiments.exe --json "$out/mutation-opt.json" \
    mutation-opt
run checkelim-j4 $bin/experiments.exe -j 4 --json "$out/checkelim-j4.json" \
    checkelim
run checkelim-j1 $bin/experiments.exe -j 1 --json "$out/checkelim-j1.json" \
    checkelim

# a 60-second soak capped at 600 execs (a slower host runs a prefix of
# the same exec sequence), its corpus replayed, and a fixed 40-exec soak
# whose report and corpus must not depend on -j
run soak $bin/mifuzz.exe --corpus "$out/soak-corpus" --minutes 1 \
    --max-execs 600 -j 4 --out "$out/soak.json"
run replay-j4 $bin/mifuzz.exe --corpus "$out/soak-corpus" --replay -j 4 \
    --out "$out/replay-j4.json"
run replay-j1 $bin/mifuzz.exe --corpus "$out/soak-corpus" --replay -j 1 \
    --out "$out/replay-j1.json"
run budget-j4 $bin/mifuzz.exe --corpus "$out/budget-corpus-j4" \
    --max-execs 40 -j 4 --out "$out/budget-j4.json"
run budget-j1 $bin/mifuzz.exe --corpus "$out/budget-corpus-j1" \
    --max-execs 40 -j 1 --out "$out/budget-j1.json"

run scaling $main --fuzz-scaling
# the top of the heap after a fixed 200-exec soak, bounded: a session
# that keeps spans or compiled modules nobody reads grows it
run soak-heap $main --soak-heap

# the examples end to end: each prints its walkthrough and exits 0
for ex in quickstart overflow_detection usability_pitfalls pipeline_points; do
    run "example-$ex" _build/default/examples/$ex.exe
done

echo "== gate =="
_build/default/bench/gate.exe "$out"
echo "== ci OK =="
