# The task runner of this repository (CI calls the same cargo commands).

SEED ?= 42

.PHONY: build test examples lint loc alloc-budget star-lint star-lint-baseline lock-witness bench bench-baseline bench-smoke steadybench-smoke profile chaos chaos-synth chaos-guided chaos-corpus chaos-nightly chaos-smoke chaos-parity server-smoke wire-chaos figures ci

build:
	cargo build --release

test:
	cargo test -q

# Every example end to end, a few seconds each; tpcc_phase_switching is the
# one that drives the baselines.
examples:
	for example in quickstart fault_tolerance ycsb_adaptivity tpcc_phase_switching; do \
		cargo run --release --example $$example || exit 1; \
	done

lint:
	cargo fmt --check
	cargo clippy --workspace --all-targets -- -D warnings

# Lines of Rust under crates/*/src — the number CHANGES.md tracks per PR.
loc:
	@find crates -path '*/src/*' -name '*.rs' | xargs cat | wc -l

# The storage layer's allocation budgets: prints what a read-only and a
# one-column-write transaction and a replica install allocate, and fails
# when a change brings an allocation back.
alloc-budget:
	cargo test --release -p star-occ --test alloc_budget -- --nocapture

# Full-scale exploration run; writes into target/bench, never the committed
# quick-scale baselines (the two scales are not comparable).
bench:
	mkdir -p target/bench
	cargo run --release -p star-bench --bin star-bench -- --seed $(SEED) --out-dir target/bench

# Refresh the committed BENCH_*.json baselines with CI's exact configuration.
bench-baseline:
	cargo run --release -p star-bench --bin star-bench -- --quick --seed $(SEED) --threads-sweep --zipf-sweep

bench-smoke:
	cargo run --release -p star-bench --bin star-bench -- --quick --seed $(SEED) --check --threads-sweep --zipf-sweep

# The gated benchmark (BENCHMARK.json): its unit tests, then one short run
# of every workload through the exact command the gate uses — the in-process
# fence and the wire driver are different code. A smoke, not a measurement —
# see steadybench/README.md for the real protocol.
steadybench-smoke:
	cargo test --offline --manifest-path steadybench/Cargo.toml
	for workload in ycsb_cross ycsb_hot tpcc_wal wire_ycsb; do \
		bash steadybench/run.sh --workload $$workload --seed 1 --seconds 6 --trace 0 || exit 1; \
	done

# Per-engine latency-source profile (five-slice table, µs per committed txn).
profile:
	cargo run --release -p star-bench --bin star-bench -- --quick --seed $(SEED) --profile

# Deterministic chaos sweep: 100 seeded fault-injection scenarios, each
# checked for serializability against a sequential oracle. Reproduce a red
# seed with `cargo run --release -p star-chaos --bin star-chaos -- --seed N`.
chaos:
	cargo run --release -p star-chaos --bin star-chaos -- --seeds 100

# Generative chaos: 1000 synthesized multi-fault schedules; red seeds are
# shrunk to a minimal failing schedule. Nightly CI sweeps 5000.
chaos-synth:
	cargo run --release -p star-chaos --bin star-chaos -- --synth

# Coverage-guided chaos: bias the walk toward uncovered op bigrams /
# injection points; reproduce one seed with `--synth-guided --seed N`.
chaos-guided:
	cargo run --release -p star-chaos --bin star-chaos -- --synth-guided

# Replay the committed regression corpus (tests/chaos_corpus).
chaos-corpus:
	cargo run --release -p star-chaos --bin star-chaos -- --replay-corpus

chaos-nightly:
	cargo run --release -p star-chaos --bin star-chaos -- --synth-guided --seeds 5000 --json CHAOS_nightly.json --corpus-out chaos_corpus_candidates

chaos-smoke:
	cargo run --release -p star-chaos --bin star-chaos -- --seeds 100 --fail-fast --json CHAOS_report.json
	cargo run --release -p star-chaos --bin star-chaos -- --synth --seeds 120 --skip-engines --fail-fast --json CHAOS_synth_smoke.json
	cargo run --release -p star-chaos --bin star-chaos -- --synth-guided --seeds 120 --skip-engines --fail-fast --json CHAOS_guided_smoke.json

# Byte-for-byte proof of a behaviour-preserving change against REF: the three
# per-seed chaos reports cmp-identical, both corpora green, the wire-chaos
# count lines equal. Example: make chaos-parity REF=HEAD~1
chaos-parity:
	./scripts/chaos_parity.sh $(REF)

# Static analysis gated by the committed ratchet baseline; exit 1 means new
# findings or a stale baseline (refresh with `make star-lint-baseline`).
star-lint:
	cargo run --release -p star-analysis --bin star-lint -- --root . --json STAR_LINT_report.json

star-lint-baseline:
	cargo run --release -p star-analysis --bin star-lint -- --root . --write-baseline

# Dynamic lock-order witness fixtures with the instrumented parking_lot stub.
lock-witness:
	cargo test -q -p star-chaos --features lock-witness --test lock_witness
	cargo test -q -p parking_lot --features lock-witness

# Boot a 3-node localhost cluster, drive the YCSB client over TCP, and run
# the transport-parity suite (wire == simulation, byte for byte).
server-smoke:
	./scripts/server_smoke.sh

# Chaos over the wire: corpus replay + seeded socket-fault sweep +
# SIGKILL/restart/recover cycle against real TCP clusters behind the
# fault-injecting proxy mesh, byte-compared to the simulation twin; then the
# simulator's coverage-guided schedules, and its planted bugs, which must be
# caught and shrunk over the wire.
wire-chaos:
	cargo build --release -p star-serverd
	cargo run --release -p star-wire-chaos --bin star-wire-chaos -- --replay-corpus --sweep --seeds 4 --kill-recover --serverd target/release/star-serverd
	cargo run --release -p star-wire-chaos --bin star-wire-chaos -- --synth-guided --seeds 120
	cargo run --release -p star-wire-chaos --bin star-wire-chaos -- --inject-bug loss --seeds 24
	cargo run --release -p star-wire-chaos --bin star-wire-chaos -- --inject-bug corrupt --seeds 24

figures:
	cargo run --release -p star-bench --bin figures -- --quick all

ci: lint loc star-lint build test examples alloc-budget lock-witness bench-smoke steadybench-smoke chaos-smoke chaos-corpus server-smoke wire-chaos
