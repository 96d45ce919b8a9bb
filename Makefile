# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples quick clean fmt trace-demo check \
	ci-guard bench-search bench-search-smoke report-smoke fuzz-smoke \
	telemetry-smoke serve-smoke

all: build

build:
	dune build @all

test:
	dune runtest --force

fmt:
	dune build @fmt

# Tune a small chain with tracing + profiling on.  The CLI parses the
# trace back before writing and exits non-zero on invalid JSON, so this
# target doubles as an end-to-end check of the observability layer.
trace-demo:
	dune exec -- mcfuser tune G1 --trace /tmp/mcfuser-trace.json --profile
	@test -s /tmp/mcfuser-trace.json
	@echo "trace-demo: /tmp/mcfuser-trace.json ok (open in ui.perfetto.dev)"

# CI-style drift guard: formatting must be a no-op and the cram pins must
# match byte-for-byte.  `dune build @fmt` / `dune runtest` alone would
# auto-promote or hide drift behind a stale cache; --force + diff fails
# loudly instead.  Library code spawns domains only inside the shared
# pool, so a stray Domain.spawn elsewhere in lib/ fails the guard too;
# only Space encodes a search point, so no other search module may read
# Candidate.tile_options; the enumeration's scorer is the search's one
# caller of the analytical model, so lib/ names Analytic only in
# lib/model/, Space and the fuzz oracles that check it; the raw tiling
# walk (Tiling.seq, Tiling.seq_deep) serves only Space's rule-1-off path
# and recorder prefix, so lib/ names it only in tiling.ml and space.ml;
# every file write but an append goes through Json.write_atomic, so
# open_out appears only in json.ml; and Measure is the one stage that
# simulates a compiled search entry, so outside lib/fuzz/ no lib/ file
# but measure.ml names both Space.lowered and Sim.run; and one lifecycle
# starts and stops observability for the CLI and the bench, so outside
# lib/fuzz/ no lib/, bin/ or bench/ file but lib/obs/lifecycle.ml starts
# the tracer, recorder, sampler or profiler; and the analytic model's
# compiled summary is the one reader of the skeleton's cost terms besides
# Lower, so outside lib/ir/ and lib/fuzz/ no lib/ file but
# lib/model/analytic.ml matches on Skeleton.Access, Contraction or
# Epilogue; and the persistent schedule cache is Protocol's JSONL store,
# so no lib/, bin/ or bench/ file but lib/search/schedule_cache.ml{,i}
# names Schedule_cache (the in-memory table only the benchmark uses);
# and the search builds entries only for the points it measures, so no
# lib/, bin/ or bench/ file but lib/search/space.ml{,i} and
# explore.ml{,i} names the build-every-entry adapters enumerate_scored or
# Explore.run.
ci-guard:
	dune build @fmt 2>/dev/null || { \
	  echo "ci-guard: dune build @fmt reports formatting drift"; exit 1; }
	@if grep -rn 'Domain\.spawn' lib | grep -v '^lib/util/pool\.ml:'; then \
	  echo "ci-guard: Domain.spawn in lib/ outside lib/util/pool.ml"; \
	  exit 1; fi
	@if grep -n 'Candidate\.tile_options' lib/search/*.ml \
	  | grep -v '^lib/search/space\.ml:'; then \
	  echo "ci-guard: Candidate.tile_options in lib/search/ outside space.ml"; \
	  exit 1; fi
	@if grep -rn 'Analytic\.' lib | grep -v -e '^lib/model/' \
	  -e '^lib/search/space\.mli\?:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: Analytic. in lib/ outside lib/model/, space.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rn 'Tiling\.seq' lib | grep -v -e '^lib/ir/tiling\.ml:' \
	  -e '^lib/search/space\.ml:'; then \
	  echo "ci-guard: Tiling.seq in lib/ outside tiling.ml and space.ml"; \
	  exit 1; fi
	@if grep -rn 'open_out ' lib bin bench | grep -v '^lib/util/json\.ml:'; then \
	  echo "ci-guard: open_out in lib bin bench outside lib/util/json.ml"; \
	  exit 1; fi
	@if grep -rl 'Space\.lowered' lib | grep -v -e '^lib/fuzz/' \
	  -e '^lib/search/measure\.ml$$' | xargs -r grep -l 'Sim\.run '; then \
	  echo "ci-guard: Space.lowered and Sim.run in one lib/ file outside measure.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rnE '(Trace|Recorder|Resource)\.start\b|Profile\.enable\b' \
	  lib bin bench | grep -v -e '^lib/obs/lifecycle\.ml:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: observability started in lib bin bench outside lib/obs/lifecycle.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rnE 'Skeleton\.(Access|Contraction|Epilogue)' lib \
	  | grep -v -e '^lib/ir/' -e '^lib/model/analytic\.ml:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: Skeleton cost terms read in lib/ outside lib/ir/, analytic.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rn 'Schedule_cache' lib bin bench \
	  | grep -v '^lib/search/schedule_cache\.mli\?:'; then \
	  echo "ci-guard: Schedule_cache named in lib bin bench outside lib/search/schedule_cache.ml{,i}"; \
	  exit 1; fi
	@if grep -rnwE 'enumerate_scored|Explore\.run' lib bin bench \
	  | grep -v -e '^lib/search/space\.mli\?:' -e '^lib/search/explore\.mli\?:'; then \
	  echo "ci-guard: enumerate_scored or Explore.run in lib bin bench outside lib/search/space.ml{,i} and explore.ml{,i}"; \
	  exit 1; fi
	dune runtest test/cram --force || { \
	  echo "ci-guard: cram pins drifted (inspect dune runtest test/cram)"; \
	  exit 1; }
	@echo "ci-guard: formatting, domain spawns, tile options, model callers, raw tiling walks, writers, entry simulators, observability starts, cost-term readers, schedule caches, entry-building adapters (lib, bin and bench) and cram pins clean"

# Flight-recorder smoke: tune S1 with --record, render the recording, and
# diff it against itself — any drift or regression exits non-zero, so this
# doubles as an end-to-end check of the recorder -> report pipeline.
report-smoke:
	dune exec -- mcfuser tune S1 --record /tmp/mcfuser-record.jsonl \
	  --metrics /tmp/mcfuser-metrics.json > /dev/null
	@test -s /tmp/mcfuser-record.jsonl
	@test -s /tmp/mcfuser-metrics.json
	dune exec -- mcfuser report /tmp/mcfuser-record.jsonl > /dev/null
	dune exec -- mcfuser report --diff /tmp/mcfuser-record.jsonl \
	  /tmp/mcfuser-record.jsonl > /dev/null
	@echo "report-smoke: record/report/diff ok (zero drift)"

# Differential-fuzzing smoke: a fixed seed and a 10 virtual-second budget
# run ~200 cases through all six cross-layer oracles (interp, analytic,
# shmem, pruning, tuner, emit); the budget is charged from deterministic
# work estimates, so the same cases run on every machine and any failure
# prints a replay seed and a minimized reproducer.
fuzz-smoke:
	dune exec -- mcfuser fuzz --seed 42 --budget-s 10 --no-corpus
	@echo "fuzz-smoke: all oracles clean"

# Live-telemetry smoke: tune with the HTTP listener on a kernel-assigned
# port and let the process probe its own endpoints over a real socket
# before shutting down — /healthz must answer, /status must parse with a
# phase field, and /metrics must pass the exposition validator.  Exits
# non-zero on any failure, so the listener lifecycle stays under tier-1.
telemetry-smoke:
	dune exec -- mcfuser tune G1 --jobs 2 --listen 127.0.0.1:0 \
	  --listen-selfcheck > /dev/null
	@echo "telemetry-smoke: serve + selfcheck + shutdown ok"

# Tuning-service smoke: daemon up on a kernel-assigned port, selfcheck
# over a real socket, one cold tune round-trip, then the identical
# request again — which must be answered from the warm schedule cache —
# and a graceful shutdown that must drain (the `wait` fails if the
# daemon exits non-zero).
serve-smoke:
	rm -f /tmp/mcfuser-serve-url.txt /tmp/mcfuser-serve-sched.jsonl
	dune build bin/mcfuser_cli.exe
	_build/default/bin/mcfuser_cli.exe serve --listen 127.0.0.1:0 \
	  --workers 1 --port-file /tmp/mcfuser-serve-url.txt \
	  --schedule-cache /tmp/mcfuser-serve-sched.jsonl > /dev/null & \
	for _ in $$(seq 1 200); do \
	  [ -s /tmp/mcfuser-serve-url.txt ] && break; sleep 0.05; done; \
	url=$$(cat /tmp/mcfuser-serve-url.txt); \
	_build/default/bin/mcfuser_cli.exe submit "$$url" --selfcheck && \
	_build/default/bin/mcfuser_cli.exe submit "$$url" G1 \
	  | grep -q "(tuned)" && \
	_build/default/bin/mcfuser_cli.exe submit "$$url" G1 \
	  | grep -q "(cache hit)" && \
	_build/default/bin/mcfuser_cli.exe submit "$$url" --shutdown && \
	wait
	@test -s /tmp/mcfuser-serve-sched.jsonl
	@echo "serve-smoke: daemon + selfcheck + tune + warm cache + drain ok"

check: build fmt test trace-demo ci-guard bench-search-smoke report-smoke fuzz-smoke telemetry-smoke serve-smoke

bench:
	dune exec bench/main.exe

# Search-throughput benchmark: enumeration points/s + tuning wall seconds
# per workload at --jobs 1 vs N, written to BENCH_search.json.
bench-search:
	dune exec bench/main.exe -- --mode search --out BENCH_search.json

# Search-bench smoke, run under `make check` so regressions in the
# parallel path break tier-1: two smoke runs (with resource sampling on)
# append to a fresh temp history, then `mcfuser perf` renders the trends
# and `--gate` checks the second run against the first.  Each run fails
# on its own in-bench gates: the streamed 6-block deep chain must cover
# at least 10x the baseline's space with a heap high-water mark at least
# 1.5x below the unbounded run's, its enumeration at the default --jobs
# (4 or more) must keep 0.9x of the 1-job throughput, and of two tuner
# runs sharing one measurement cache the warm one must simulate strictly
# fewer candidates than the cold one and hit on more than 90% of its
# lookups.  The perf
# gate must explicitly check the streamed run's peak_heap_words ceiling
# (the bounded-memory regression guard), its alloc_words_per_point (the
# 1-job arm's minor words per point, which repeats only to about the
# fifth significant digit: the caller's domain picks up a little
# allocation from outside the enumeration) and its
# summaries_per_enumeration (the analytic summaries the scorer built).
# The generous tolerance only guards against catastrophic slowdowns: CI
# machines are far too noisy for a tight wall-clock gate.
bench-search-smoke:
	rm -f /tmp/mcfuser-history-smoke.jsonl
	dune exec bench/main.exe -- --mode search --smoke --sample-ms 5 \
	  --history /tmp/mcfuser-history-smoke.jsonl \
	  --out /tmp/mcfuser-bench-search-smoke.json > /dev/null
	dune exec bench/main.exe -- --mode search --smoke --sample-ms 5 \
	  --history /tmp/mcfuser-history-smoke.jsonl \
	  --out /tmp/mcfuser-bench-search-smoke.json > /dev/null
	@test -s /tmp/mcfuser-bench-search-smoke.json
	dune exec -- mcfuser perf --history /tmp/mcfuser-history-smoke.jsonl
	dune exec -- mcfuser perf --history /tmp/mcfuser-history-smoke.jsonl \
	  --gate --tolerance 0.5 > /tmp/mcfuser-search-gate.txt
	grep -q "D6-smoke-stream peak_heap_words" /tmp/mcfuser-search-gate.txt
	grep -q "D6-smoke-stream alloc_words_per_point" \
	  /tmp/mcfuser-search-gate.txt
	grep -q "D6-smoke-stream summaries_per_enumeration" \
	  /tmp/mcfuser-search-gate.txt
	@echo "bench-search-smoke: in-bench gates, history, trends and perf gate ok"

quick:
	dune exec bench/main.exe -- --quick --no-micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/attention_fusion.exe
	dune exec examples/three_gemm_chain.exe
	dune exec examples/conv_fusion.exe
	dune exec examples/bert_end_to_end.exe

clean:
	dune clean
