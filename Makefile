# Convenience targets; everything is plain dune underneath.

.PHONY: all build test examples clean fmt trace-demo check ci-guard \
	jobs-gate report-smoke fuzz-smoke telemetry-smoke serve-smoke

all: build

build:
	dune build @all

test:
	dune runtest --force

fmt:
	dune build @fmt

# Tune a small chain with tracing + profiling on.  The CLI parses the
# trace back before writing and exits non-zero on invalid JSON, so this
# target doubles as an end-to-end check of the observability layer.  The
# trace lives in a fresh temporary directory, removed on exit, so
# concurrent runs never share paths; write one to keep with
# `mcfuser tune G1 --trace FILE` and open it in ui.perfetto.dev.
trace-demo:
	dir=$$(mktemp -d) || exit 1; trap 'rm -rf "$$dir"' EXIT; \
	dune exec -- mcfuser tune G1 --trace $$dir/trace.json --profile && \
	test -s $$dir/trace.json
	@echo "trace-demo: trace written and parsed back ok"

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
# starts and stops observability for the CLI, so outside lib/fuzz/ no
# lib/ or bin/ file but lib/obs/lifecycle.ml starts
# the tracer, recorder, sampler or profiler; and the analytic model's
# compiled summary is the one reader of the skeleton's cost terms besides
# Lower, so outside lib/ir/ and lib/fuzz/ no lib/ file but
# lib/model/analytic.ml matches on Skeleton.Access, Contraction or
# Epilogue; and the persistent schedule cache is Protocol's JSONL store,
# so no lib/ or bin/ file but lib/search/schedule_cache.ml{,i}
# names Schedule_cache (the in-memory table only the benchmark uses);
# and the search builds entries only for the points it measures, so no
# lib/ or bin/ file but lib/search/space.ml{,i} and
# explore.ml{,i} names the build-every-entry adapters enumerate_scored or
# Explore.run; and a lowering is accounted only by Lower, so no lib/ or
# bin/ file but lib/ir/lower.ml builds a Lower.t record; and Protocol is
# the one resolver of a tune request's device and chain, so outside
# lib/fuzz/ no lib/ or bin/ file but lib/serve/protocol.ml names
# Spec.by_name or the chain kind "gemm3".
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
	@if grep -rn 'open_out ' lib bin | grep -v '^lib/util/json\.ml:'; then \
	  echo "ci-guard: open_out in lib bin outside lib/util/json.ml"; \
	  exit 1; fi
	@if grep -rl 'Space\.lowered' lib | grep -v -e '^lib/fuzz/' \
	  -e '^lib/search/measure\.ml$$' | xargs -r grep -l 'Sim\.run '; then \
	  echo "ci-guard: Space.lowered and Sim.run in one lib/ file outside measure.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rnE '(Trace|Recorder|Resource)\.start\b|Profile\.enable\b' \
	  lib bin | grep -v -e '^lib/obs/lifecycle\.ml:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: observability started in lib bin outside lib/obs/lifecycle.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rnE 'Skeleton\.(Access|Contraction|Epilogue)' lib \
	  | grep -v -e '^lib/ir/' -e '^lib/model/analytic\.ml:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: Skeleton cost terms read in lib/ outside lib/ir/, analytic.ml and lib/fuzz/"; \
	  exit 1; fi
	@if grep -rn 'Schedule_cache' lib bin \
	  | grep -v '^lib/search/schedule_cache\.mli\?:'; then \
	  echo "ci-guard: Schedule_cache named in lib bin outside lib/search/schedule_cache.ml{,i}"; \
	  exit 1; fi
	@if grep -rnwE 'enumerate_scored|Explore\.run' lib bin \
	  | grep -v -e '^lib/search/space\.mli\?:' -e '^lib/search/explore\.mli\?:'; then \
	  echo "ci-guard: enumerate_scored or Explore.run in lib bin outside lib/search/space.ml{,i} and explore.ml{,i}"; \
	  exit 1; fi
	@if grep -rnE '\{ *Lower\.(chain|tensor|block|rtensor)\b' lib bin \
	  | grep -v '^lib/ir/lower\.ml:'; then \
	  echo "ci-guard: a Lower.t record built in lib bin outside lib/ir/lower.ml"; \
	  exit 1; fi
	@if grep -rnE 'Spec\.by_name|"gemm3"' lib bin \
	  | grep -v -e '^lib/serve/protocol\.ml:' -e '^lib/fuzz/'; then \
	  echo "ci-guard: Spec.by_name or the chain kind \"gemm3\" in lib bin outside lib/serve/protocol.ml and lib/fuzz/"; \
	  exit 1; fi
	dune runtest test/cram --force || { \
	  echo "ci-guard: cram pins drifted (inspect dune runtest test/cram)"; \
	  exit 1; }
	@echo "ci-guard: formatting, domain spawns, tile options, model callers, raw tiling walks, writers, entry simulators, observability starts, cost-term readers, schedule caches, entry-building adapters, Lower.t builders, request resolvers (lib and bin) and cram pins clean"

# Pool gate: the streamed 6-block deep chain's enumeration at
# max(4, default) jobs must keep 0.9x of its 1-job throughput, best of
# three alternating regions of 100 ms or more per arm.  A wall-clock
# ratio, so it is no unit test.  The built binary runs directly, as in
# serve-smoke, so no dune process shares the cores with the timed
# regions.
jobs-gate:
	dune build test/jobs_gate.exe
	_build/default/test/jobs_gate.exe

# Flight-recorder smoke: tune S1 with --record, render the recording, and
# diff it against itself — any drift or regression exits non-zero, so this
# doubles as an end-to-end check of the recorder -> report pipeline.
# The files live in a fresh temporary directory, removed on exit.
report-smoke:
	dir=$$(mktemp -d) || exit 1; trap 'rm -rf "$$dir"' EXIT; \
	dune exec -- mcfuser tune S1 --record $$dir/record.jsonl \
	  --metrics $$dir/metrics.json > /dev/null && \
	test -s $$dir/record.jsonl && test -s $$dir/metrics.json && \
	dune exec -- mcfuser report $$dir/record.jsonl > /dev/null && \
	dune exec -- mcfuser report --diff $$dir/record.jsonl \
	  $$dir/record.jsonl > /dev/null
	@echo "report-smoke: record/report/diff ok (zero drift)"

# Differential-fuzzing smoke: a fixed seed and a 10 virtual-second budget
# run ~200 cases through all seven cross-layer oracles (interp, analytic,
# shmem, pruning, tuner, measure-cache, emit); the budget is charged from deterministic
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
# daemon exits non-zero) and persist both caches.  Every file lives in a
# fresh temporary directory, removed on exit along with a daemon a
# failed step left running, so concurrent runs never share paths.
serve-smoke:
	dune build bin/mcfuser_cli.exe
	dir=$$(mktemp -d) || exit 1; cli=_build/default/bin/mcfuser_cli.exe; \
	$$cli serve --listen 127.0.0.1:0 --workers 1 --port-file $$dir/url.txt \
	  --schedule-cache $$dir/sched.jsonl \
	  --measure-cache $$dir/measure.jsonl > /dev/null & \
	pid=$$!; trap 'kill $$pid 2>/dev/null; rm -rf "$$dir"' EXIT; \
	for _ in $$(seq 1 200); do \
	  [ -s $$dir/url.txt ] && break; sleep 0.05; done; \
	url=$$(cat $$dir/url.txt) && \
	$$cli submit "$$url" --selfcheck && \
	$$cli submit "$$url" G1 | grep -q "(tuned)" && \
	$$cli submit "$$url" G1 | grep -q "(cache hit)" && \
	$$cli submit "$$url" --shutdown && \
	wait $$pid && \
	test -s $$dir/sched.jsonl && test -s $$dir/measure.jsonl
	@echo "serve-smoke: daemon + selfcheck + tune + warm cache + drain ok"

check: build fmt test trace-demo ci-guard jobs-gate report-smoke fuzz-smoke telemetry-smoke serve-smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/attention_fusion.exe
	dune exec examples/three_gemm_chain.exe
	dune exec examples/conv_fusion.exe
	dune exec examples/bert_end_to_end.exe

clean:
	dune clean
