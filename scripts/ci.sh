#!/usr/bin/env bash
# Full local CI: configure, build (warnings as errors), test,
# smoke-run every bench and example (with per-bench wall time, so
# parallel-replay speedups are visible), and race-check the replay
# engine under ThreadSanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja, but fall back to CMake's default generator (usually
# Unix Makefiles) on hosts without it. An already-configured build
# directory keeps whatever generator it was created with.
GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
    GENERATOR=(-G Ninja)
fi
gen_for() { [[ -f "$1/CMakeCache.txt" ]] && echo || echo "${GENERATOR[@]:-}"; }

# shellcheck disable=SC2046
cmake -B build $(gen_for build) -DCOSMOS_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure

now_ms() { echo $(($(date +%s%N) / 1000000)); }

for b in build/bench/bench_*; do
    start=$(now_ms)
    case "$(basename "$b")" in
        bench_microperf)
            "$b" --benchmark_min_time=0.05 > /dev/null ;;
        bench_predictor_throughput)
            # Smoke only; the tracked run happens in Release below.
            "$b" --min-seconds 0.05 \
                 --out build/BENCH_predictor_throughput.json > /dev/null ;;
        bench_forge)
            "$b" --out build/BENCH_forge.json > /dev/null ;;
        bench_ablation_forwarding)
            "$b" --out build/BENCH_forwarding.json > /dev/null ;;
        *)
            "$b" > /dev/null ;;
    esac
    echo "== $b ($(($(now_ms) - start)) ms)"
done
for e in build/examples/*; do
    [[ -x "$e" && -f "$e" ]] || continue
    echo "== $e"
    "$e" > /dev/null
done
./build/tools/cosmos list > /dev/null

# Observability smoke: a sweep must emit a valid, stable metrics
# document and a loadable Chrome trace-event file. The metrics export
# contains only stable (thread-count-independent) metrics, so the
# --threads 1 and --threads 2 documents must be byte-identical.
mkdir -p artifacts
./build/tools/cosmos sweep micro_migratory --threads 2 \
    --metrics-out artifacts/metrics_sweep.json \
    --trace-out artifacts/trace_sweep.json > /dev/null
./build/tools/cosmos sweep micro_migratory --threads 1 \
    --metrics-out artifacts/metrics_sweep_serial.json > /dev/null
cmp artifacts/metrics_sweep.json artifacts/metrics_sweep_serial.json
python3 scripts/check_json.py --schema metrics \
    artifacts/metrics_sweep.json
python3 scripts/check_json.py --schema chrome-trace \
    artifacts/trace_sweep.json
python3 scripts/check_json.py build/BENCH_*.json
python3 scripts/check_json.py --schema forwarding \
    build/BENCH_forwarding.json
echo "== observability smoke OK"

# Fuzz smoke: 200 fixed seeds through the schedule fuzzer + invariant
# checker must come back clean and emit a valid cosmos-fuzz-v1
# artifact. Then the negative leg: a planted lost-invalidation bug
# (--inject-ignore-inval) MUST be caught -- the run has to exit
# non-zero and its artifact has to record the violations -- proving
# the checker can actually see protocol bugs, not just green runs.
./build/tools/cosmos fuzz --seeds 200 --seed 1 \
    --out artifacts/fuzz_clean.json > /dev/null
python3 scripts/check_json.py --schema fuzz artifacts/fuzz_clean.json
if ./build/tools/cosmos fuzz --seeds 5 --seed 1 \
    --inject-ignore-inval 2 \
    --out artifacts/fuzz_planted_bug.json > /dev/null; then
    echo "fuzz smoke: planted protocol bug was NOT caught" >&2
    exit 1
fi
python3 scripts/check_json.py --schema fuzz \
    artifacts/fuzz_planted_bug.json
echo "== fuzz smoke OK (200 clean seeds, planted bug caught)"

# Model-check smoke: the exhaustive checker must close out the
# 2-node and 3-node spaces cleanly with the pinned golden counts (a
# count drift is a protocol-semantics change that must be reviewed)
# and a valid cosmos-model-v1 artifact. Negative leg: the planted
# lost-invalidation bug MUST produce an SWMR counterexample, and that
# counterexample MUST reproduce when replayed through the real
# simulator (cosmos fuzz --replay-model exits non-zero on
# confirmation -- a clean replay means the bridge is broken).
./build/tools/cosmos model --out artifacts/model_2n.json > /dev/null
./build/tools/cosmos model --nodes 3 \
    --out artifacts/model_3n.json > /dev/null
python3 scripts/check_json.py --schema model \
    artifacts/model_2n.json artifacts/model_3n.json
grep -q '"states": 48,' artifacts/model_2n.json
grep -q '"transitions": 86,' artifacts/model_2n.json
grep -q '"nondeterministic": 0' artifacts/model_2n.json
grep -q '"consistent": true' artifacts/model_2n.json
grep -q '"states": 488,' artifacts/model_3n.json
grep -q '"transitions": 1152,' artifacts/model_3n.json
grep -q '"consistent": true' artifacts/model_3n.json
if ./build/tools/cosmos model --inject-ignore-inval 1 \
    --out artifacts/model_planted_bug.json \
    --counterexample-out artifacts/model_counterexample.txt \
    > /dev/null; then
    echo "model smoke: planted protocol bug was NOT caught" >&2
    exit 1
fi
python3 scripts/check_json.py --schema model \
    artifacts/model_planted_bug.json
grep -q '"clean": false' artifacts/model_planted_bug.json
grep -q 'writer_and_readers' artifacts/model_planted_bug.json
if ./build/tools/cosmos fuzz \
    --replay-model artifacts/model_counterexample.txt > /dev/null; then
    echo "model smoke: counterexample did NOT reproduce in the" \
         "simulator" >&2
    exit 1
fi
echo "== model-check smoke OK (48/488-state closures, planted bug" \
     "caught and replayed)"

# Forwarding model-check: the fwd_ack handshake must close every
# forwarded space with zero violations at the pinned golden counts
# (2n1b, 3n1b, and the deeper 3n2b space). Negative leg:
# --legacy-forwarding (the pre-fix release-on-revision behavior, kept
# as a negative-testing oracle) MUST still reproduce the original
# three-hop race -- the owner's direct data reply and the home's next
# invalidation travel independent channels, and the checker has to
# find the interleaving where the invalidation wins. Two nodes cannot
# race (home, owner, and requester must be distinct parties), so the
# must-fail leg runs at --nodes 3.
./build/tools/cosmos model --forwarding \
    --out artifacts/model_2n_fwd.json > /dev/null
./build/tools/cosmos model --forwarding --nodes 3 \
    --out artifacts/model_3n_fwd.json > /dev/null
./build/tools/cosmos model --forwarding --nodes 3 --blocks 2 \
    --out artifacts/model_3n2b_fwd.json > /dev/null
python3 scripts/check_json.py --schema model \
    artifacts/model_2n_fwd.json artifacts/model_3n_fwd.json \
    artifacts/model_3n2b_fwd.json
grep -q '"states": 78,' artifacts/model_2n_fwd.json
grep -q '"transitions": 142,' artifacts/model_2n_fwd.json
grep -q '"nondeterministic": 0' artifacts/model_2n_fwd.json
grep -q '"consistent": true' artifacts/model_2n_fwd.json
grep -q '"states": 883,' artifacts/model_3n_fwd.json
grep -q '"transitions": 2149,' artifacts/model_3n_fwd.json
grep -q '"nondeterministic": 0' artifacts/model_3n_fwd.json
grep -q '"consistent": true' artifacts/model_3n_fwd.json
grep -q '"states": 276396,' artifacts/model_3n2b_fwd.json
grep -q '"transitions": 971246,' artifacts/model_3n2b_fwd.json
grep -q '"consistent": true' artifacts/model_3n2b_fwd.json
if ./build/tools/cosmos model --forwarding --legacy-forwarding \
    --nodes 3 --out artifacts/model_legacy_fwd.json \
    --counterexample-out artifacts/legacy_counterexample.txt \
    > /dev/null; then
    echo "model smoke: the legacy forwarding race was NOT caught" >&2
    exit 1
fi
python3 scripts/check_json.py --schema model \
    artifacts/model_legacy_fwd.json
grep -q '"clean": false' artifacts/model_legacy_fwd.json
grep -q 'state wait_' artifacts/model_legacy_fwd.json
grep -q 'legacy_forwarding=1' artifacts/legacy_counterexample.txt
echo "== forwarding model-check OK (78/883/276396-state closures" \
     "clean, legacy race caught)"

# Static protocol lint: the declared transition table -- the single
# source of truth the controllers dispatch through -- must analyze
# clean under every shipped variant (completeness, determinism,
# message conservation, channel discipline, forwarding asymmetry).
# Negative legs: each planted table mutation MUST trip the lint pass
# built for its bug class and fail the run -- proving the analyzer
# has teeth, not just green runs.
./build/tools/cosmos lint --out artifacts/lint_base.json > /dev/null
./build/tools/cosmos lint --forwarding --capacity 1 \
    --out artifacts/lint_fwd.json > /dev/null
./build/tools/cosmos lint --forwarding --legacy-forwarding \
    --out artifacts/lint_legacy.json > /dev/null
./build/tools/cosmos lint --policy downgrade --forwarding \
    --out artifacts/lint_downgrade.json > /dev/null
python3 scripts/check_json.py --schema lint artifacts/lint_base.json \
    artifacts/lint_fwd.json artifacts/lint_legacy.json \
    artifacts/lint_downgrade.json
grep -q '"clean": true' artifacts/lint_base.json
grep -q '"clean": true' artifacts/lint_fwd.json
grep -q '"clean": true' artifacts/lint_legacy.json
grep -q '"clean": true' artifacts/lint_downgrade.json
for kind in missing_row overlapping_rows dropped_response \
            out_of_order_consume forwarding_asymmetry; do
    if ./build/tools/cosmos lint --forwarding --mutate "$kind" \
        --out "artifacts/lint_$kind.json" > /dev/null; then
        echo "lint smoke: planted $kind mutation was NOT caught" >&2
        exit 1
    fi
    python3 scripts/check_json.py --schema lint \
        "artifacts/lint_$kind.json"
    grep -q "\"kind\": \"$kind\"" "artifacts/lint_$kind.json"
    grep -q '"clean": false' "artifacts/lint_$kind.json"
done
echo "== protocol lint OK (4 variants clean, 5 planted mutations" \
     "caught)"

# Forge / trace-ingestion smoke: a generated text trace must replay
# through the simulator byte-for-byte (gen -> run round-trip, plus a
# gzip leg when zlib was available at build time), a synthetic run
# must publish a valid cosmos-forge-v1 accuracy report, the fuzzer's
# structured-workload dimension must come back clean, and the
# negative leg: a malformed trace line MUST fail the run with its
# line number -- proving the parser actually rejects garbage instead
# of replaying it.
./build/tools/cosmos gen \
    --forge migratory=0.3,false=0.1,private=0.2,readonly=0.2,blocks=32,procs=8 \
    --accesses 20000 --out artifacts/forge_smoke.trace > /dev/null
./build/tools/cosmos run --trace-file artifacts/forge_smoke.trace \
    --nodes 8 > artifacts/forge_ingest.txt
grep -q 'ingested: 20000 accesses' artifacts/forge_ingest.txt
if grep -q 'gzip-capable' artifacts/forge_ingest.txt; then
    gzip -c artifacts/forge_smoke.trace > artifacts/forge_smoke.trace.gz
    ./build/tools/cosmos run \
        --trace-file artifacts/forge_smoke.trace.gz --nodes 8 \
        | grep -q 'ingested: 20000 accesses'
fi
printf '0 r 0x1000\n7 w not-an-address\n' > artifacts/forge_bad.trace
if ./build/tools/cosmos run --trace-file artifacts/forge_bad.trace \
    --nodes 8 > /dev/null 2> artifacts/forge_bad.txt; then
    echo "forge smoke: malformed trace line was NOT rejected" >&2
    exit 1
fi
grep -q 'forge_bad.trace:2:' artifacts/forge_bad.txt
./build/tools/cosmos run \
    --forge migratory=0.3,false=0.1,private=0.2,readonly=0.2,blocks=64,procs=8 \
    --iterations 16 --forge-out artifacts/forge_report.json > /dev/null
python3 scripts/check_json.py --schema forge artifacts/forge_report.json
./build/tools/cosmos fuzz --seeds 50 --seed 1 --forge-mix 0.5 \
    --out artifacts/fuzz_forge.json > /dev/null
python3 scripts/check_json.py --schema fuzz artifacts/fuzz_forge.json
echo "== forge smoke OK (round-trip, malformed line rejected," \
     "report valid, structured fuzz clean)"

# Release-mode perf smoke (-O2 -DNDEBUG): the golden-gated throughput
# bench replays the full Table 5/6 grid through both the batched and
# the 4-shard pipelines, fails the build on any accuracy drift from
# tests/fixtures/golden_accuracy.hh, and publishes its JSON so
# successive runs can be compared. The batched serial dsmc cell must
# also clear a generous absolute throughput floor (override with
# COSMOS_PERF_FLOOR_MPS; 0 disables) -- a regression that halves the
# batched path shows up here even when the goldens stay green.
# shellcheck disable=SC2046
cmake -B build-release $(gen_for build-release) \
    -DCMAKE_BUILD_TYPE=Release
cmake --build build-release --target bench_predictor_throughput
mkdir -p artifacts
start=$(now_ms)
./build-release/bench/bench_predictor_throughput \
    --out artifacts/BENCH_predictor_throughput.json
echo "== release perf smoke ($(($(now_ms) - start)) ms)"
python3 scripts/check_json.py --schema bench \
    artifacts/BENCH_predictor_throughput.json
python3 - artifacts/BENCH_predictor_throughput.json <<'EOF'
import json, os, sys
doc = json.load(open(sys.argv[1]))
floor = float(os.environ.get("COSMOS_PERF_FLOOR_MPS", "18000000"))
mps = min(c["messages_per_sec"]
          for c in doc["serial_dsmc"]["cells"]
          if c["mode"] == "batched" and c["depth"] == 1)
if floor > 0 and mps < floor:
    sys.exit(f"perf floor: batched dsmc depth-1 ran at {mps:.0f} "
             f"msg/s, below the {floor:.0f} floor")
print(f"perf floor OK: batched dsmc depth-1 at {mps / 1e6:.1f} "
      f"M msg/s (floor {floor / 1e6:.1f} M)")
EOF
echo "== artifact: artifacts/BENCH_predictor_throughput.json"

# ThreadSanitizer pass over the parallel replay engine: the
# determinism + ThreadPool + trace-cache concurrency tests must run
# race-free.
# shellcheck disable=SC2046
cmake -B build-tsan $(gen_for build-tsan) -DCOSMOS_TSAN=ON
cmake --build build-tsan --target replay_test harness_test
start=$(now_ms)
./build-tsan/tests/replay_test
./build-tsan/tests/harness_test --gtest_filter='TraceCache.*'
echo "== tsan replay/trace-cache suites ($(($(now_ms) - start)) ms)"

# AddressSanitizer + UBSan pass over the protocol, checker, and model
# suites: the model checker snapshots/restores live controllers
# thousands of times per run, which is exactly where lifetime and
# aliasing bugs would hide. -fno-sanitize-recover makes any report
# fatal, so a passing run is a clean run.
# shellcheck disable=SC2046
cmake -B build-asan $(gen_for build-asan) -DCOSMOS_ASAN=ON
cmake --build build-asan --target proto_test check_test model_test
start=$(now_ms)
./build-asan/tests/proto_test
./build-asan/tests/check_test
./build-asan/tests/model_test
echo "== asan proto/check/model suites ($(($(now_ms) - start)) ms)"

# Static lint over the sources that host invariants (src/model,
# src/check, src/lint, src/proto): clang-tidy reads the compilation
# database the main build exports. Gated on the tool being installed,
# but never on its verdict: .clang-tidy sets WarningsAsErrors '*', so
# when clang-tidy is present ANY surviving diagnostic exits non-zero
# and fails the build here (set -e) -- the stage cannot silently
# degrade into a skip.
if command -v clang-tidy > /dev/null 2>&1; then
    start=$(now_ms)
    clang-tidy -p build --quiet \
        src/model/*.cc src/check/*.cc src/lint/*.cc src/proto/*.cc
    echo "== clang-tidy model/check/lint/proto" \
         "($(($(now_ms) - start)) ms)"
else
    echo "== clang-tidy not installed; lint stage skipped"
fi

echo "CI OK"
