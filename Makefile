# Verification entry points. `make verify` is the tier-1 gate plus the
# race-detector pass over the parallel kernel and its heaviest consumer,
# so the sharded round execution is permanently exercised under -race.

GO ?= go

.PHONY: build fmt vet test loc race bench bench-json bench-diff bench-smoke fuzz-smoke heal-smoke async-smoke partition-smoke serve-smoke wal-smoke replica-smoke perfbench-test verify

build:
	$(GO) build ./...

# Every Go file is gofmt-clean, and vet passes over the repo and over the
# benchmark module, which is compiled against these packages.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# Non-test Go lines per package under internal/ and cmd/, then their sum:
# lines deleted is how a simplification is measured.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2 | \
		awk '{ print; t += $$1 } END { printf "%7d total\n", t }'

# The parallel kernel must stay race-clean: the sharded stepping of
# internal/runtime's one round loop (full and delta mode, clean and
# perturbed; the fingerprint and cross-engine delta equivalence tests run
# on real word-aligned shards), the partition cost model whose step
# wrapper writes per-node change slots from every worker, the labeling
# schemes that drive it hardest, the
# fault-injection harness plus the algorithm packages it perturbs, the
# remaining engines that ride the delta frontier (centrality, layering,
# hypercube), the self-healing supervision layer, the event-driven async
# executor with its pooled event-queue/arena hot path, and the RCU-epoch
# structure server whose lock-free read path only -race can vouch for, and
# the WAL whose atomic metric mirrors are read concurrently by /metrics
# while the single writer appends, the replication layer whose mirror,
# applier, and session state are shared between the Run loop, the stream
# handler, and Promote, and the paged topology snapshot whose pages readers
# walk while the writer patches the next snapshot from them.
race:
	$(GO) test -race ./internal/runtime/... ./internal/partition/... \
		./internal/graph/... ./internal/labeling/... \
		./internal/sim/... ./internal/reversal/... ./internal/distvec/... \
		./internal/centrality/... ./internal/layering/... \
		./internal/hypercube/... ./internal/heal/... ./internal/async/... \
		./internal/server/... ./internal/wal/... ./internal/replica/...

# The round loop in full mode, sequential vs. sharded, on 100k-node ER and
# 20k-node UDG graphs; the same loop's steady-state sweep on the ER
# instance under scripted churn (full vs delta mode round cost); the
# partitioned legs of both (the same runs priced on k edge-cut shards,
# failing unless the exchange equals the recorded trajectory); the async
# executor priced on one full quiescence; the epoch ranking of 100k ER
# degrees on its counting path and, with fractional scores, its comparison
# path; and the
# whole-graph Freeze beside the server's page-shared FreezeFrom of one
# 100-op batch on 100k and 1M ER graphs, plus FreezeFrom in the server's
# ingest shape (chained 256-op batches over rows scattered by earlier ones;
# the 'Freeze' pattern runs them all, here and in bench-json and
# bench-smoke); and the writer's whole batch path
# (WAL append, heal, publish) for one 100-op batch on 10k, 100k and 1M ER
# stores, whose cost should grow with the batch, not the graph, plus one
# 256-op batch, the ingest-sized one, on the 100k store. The async and
# 10M-node partitioned legs run one complete workload per op, so they get
# -benchtime 1x; the ranking legs average over 20, the publish legs over 200
# and the other legs over 3. The served stack is priced over sockets by
# perfbench, not here.
bench:
	$(GO) test -run '^$$' -bench 'Kernel|Freeze' -benchtime 3x ./internal/runtime/bench
	$(GO) test -run '^$$' -bench DeltaSteady -benchtime 3x ./internal/runtime/bench
	$(GO) test -run '^$$' -bench 'Partitioned.*100k' -benchtime 3x ./internal/runtime/bench
	$(GO) test -run '^$$' -bench Async -benchtime 1x ./internal/runtime/bench
	$(GO) test -run '^$$' -bench PartitionedER10M -benchtime 1x -timeout 30m ./internal/runtime/bench
	$(GO) test -run '^$$' -bench Publish -benchmem -benchtime 200x ./internal/server
	$(GO) test -run '^$$' -bench WALIngest -benchtime 200x ./internal/wal
	$(GO) test -run '^$$' -bench RecoveryReady -benchtime 3x ./internal/server
	$(GO) test -run '^$$' -bench ReplicaCatchup -benchtime 3x ./internal/replica
	$(GO) test -run '^$$' -bench Ranking -benchtime 20x ./internal/centrality

# Machine-readable benchmark record: one history entry per invocation, each
# mapping op -> ns/op, B/op, allocs/op (plus ReportMetric extras such as the
# async retry overhead, the delta kernel's steady-ns/round, and the
# partitioned legs' priced bytes/round exchange). All legs feed a single
# benchjson call so they land in the same history entry of the committed
# BENCH_kernel.json.
bench-json:
	{ $(GO) test -run '^$$' -bench 'Kernel|Freeze' -benchmem -benchtime 3x ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench DeltaSteady -benchmem -benchtime 3x ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench 'Partitioned.*100k' -benchmem -benchtime 3x ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench Async -benchmem -benchtime 1x ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench PartitionedER10M -benchmem -benchtime 1x -timeout 30m ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench Publish -benchmem -benchtime 200x ./internal/server ; \
	  $(GO) test -run '^$$' -bench WALIngest -benchmem -benchtime 200x ./internal/wal ; \
	  $(GO) test -run '^$$' -bench RecoveryReady -benchmem -benchtime 3x ./internal/server ; \
	  $(GO) test -run '^$$' -bench ReplicaCatchup -benchmem -benchtime 3x ./internal/replica ; \
	  $(GO) test -run '^$$' -bench Ranking -benchmem -benchtime 20x ./internal/centrality ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json

# Latest-vs-previous movement of the committed trajectory, per benchmark and
# dimension — the first thing to read after a bench-json run.
bench-diff:
	$(GO) run ./cmd/benchjson -diff -o BENCH_kernel.json

# One-iteration smoke run of the kernel benchmark battery through the JSON
# pipeline: catches benchmark or parser rot without the full cost. The async
# benchmark is excluded here — a single op is a full 100k-node quiescence —
# and covered by async-smoke at CLI scale instead; the 10M partitioned leg is
# excluded for the same reason and smoke-covered by partition-smoke. Both
# ranking legs and all four publish legs run.
bench-smoke:
	{ $(GO) test -run '^$$' -bench 'Kernel|Freeze|Partitioned.*100k' -benchmem -benchtime 1x ./internal/runtime/bench ; \
	  $(GO) test -run '^$$' -bench Ranking -benchmem -benchtime 1x ./internal/centrality ; \
	  $(GO) test -run '^$$' -bench Publish -benchmem -benchtime 1x ./internal/server ; } \
		| $(GO) run ./cmd/benchjson -o /dev/null

# Short native-fuzz pass over the serialization boundaries, the paged
# epoch snapshot (every snapshot of a batched mutation program equals
# Freeze at its own moment, before and after later batches), the async
# delivery pipeline's FIFO-per-link ordering, the edge-cut partitioner
# (plan invariants plus exchange cost model == brute-force recount on
# arbitrary graphs), the server's HTTP handlers (no panic, no 5xx,
# JSON from every endpoint for any request), the ranking (a
# permutation in the reference order on either path, NaNs included), a
# mirror's reopen over an arbitrary mirrored log (it keeps a valid,
# frame-aligned prefix and its view matches recovery), and the label
# journal (the changed-set path, fed through a reader that is not a
# LabelSet, writes the same log and snapshot bytes as the full diff, across
# compactions).
# 10s per target keeps the gate cheap; longer campaigns run the same
# targets by hand.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFreezeRoundTrip -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzFreezeFrom -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzEGJSONRoundTrip -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz FuzzLinkFIFO -fuzztime 10s ./internal/async/
	$(GO) test -run '^$$' -fuzz FuzzPartition -fuzztime 10s ./internal/partition/
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzLabelDelta -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzLabelJournal -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzMirrorOpen -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzHandlers -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzRanking -fuzztime 10s ./internal/centrality/
	$(GO) test -run '^$$' -fuzz FuzzExactDetection -fuzztime 10s ./internal/heal/

# Supervised MIS, distance vectors and safety levels must each survive 200
# rounds of add/remove churn with zero standing violations; the heal
# subcommand exits nonzero otherwise. Each engine detects and verifies only
# where a batch or a repair changed a rule's inputs, so these runs also
# exercise the exact recheck sets under escalation.
heal-smoke:
	$(GO) run ./cmd/structura heal -engine mis -seed 1 -rounds 200 \
		-churn-add 1 -churn-remove 1 -max-touched 12
	$(GO) run ./cmd/structura heal -engine distvec -seed 1 -rounds 200 \
		-churn-add 1 -churn-remove 1 -max-touched 12
	$(GO) run ./cmd/structura heal -engine hypercube -seed 1 -rounds 200 \
		-churn-add 1 -churn-remove 1 -max-touched 12

# The async executor must reproduce the synchronous outcome on a confluent
# scenario under churn (exit nonzero on divergence or invariant violation),
# and survive a lossy adversarial schedule on its own.
async-smoke:
	$(GO) run ./cmd/structura async -scenario distvec -seed 3 -compare \
		-churn-add 1 -churn-remove 1 -churn-every 2 -horizon 8
	$(GO) run ./cmd/structura async -scenario mis -seeds 1..4 -loss 0.2 -horizon 6

# The partition report (plan quality, rounds/sec, priced exchange) must
# come up on a small graph for both boundary strategies and both kernel
# modes; the subcommand exits nonzero on any error.
partition-smoke:
	$(GO) run ./cmd/structura partition -nodes 20000 -shards 4
	$(GO) run ./cmd/structura partition -nodes 20000 -shards 8 \
		-strategy degree-balanced -delta

# The structure server's RCU read path must stay race-clean under live epoch
# swaps (the hammer test re-run under -race on its own, so the gate survives
# package-list edits), and `structura serve` must come up on a real loopback
# listener, answer every read endpoint and a mutation with 2xx over the
# socket, and return cleanly when its context is cancelled.
serve-smoke:
	$(GO) test -race -run TestServeConcurrentReadsDuringEpochSwap ./internal/server
	$(GO) test -race -run TestServeOverSocket ./cmd/structura

# End-to-end durability: build the real binary under -race, run it with a
# -data-dir, stream mutations, SIGKILL it mid-churn, restart, and require
# the recovered topology to hash-match the journaled committed prefix
# exactly (plus a -load/-save boot-image round trip).
wal-smoke:
	$(GO) test -race -run 'TestWALSmokeKillRecover|TestServeLoadSaveRoundTrip' ./cmd/structura

# End-to-end failover: real primary and replica processes (-race binary),
# tracked ingest then a burst of posted mutations, SIGKILL the primary
# mid-burst, promote the replica, and
# require its routes to agree with BFS on the recovered committed prefix
# with zero standing heal violations.
replica-smoke:
	$(GO) test -race -run TestReplicaSmokeFailover ./cmd/structura

# The end-to-end benchmark is its own module compiled against these
# packages: its tests build it, build the structura binary, and run a short
# oracle-checked pass of each workload against it, so an API or behaviour
# break the benchmark depends on fails here instead of in a benchmark run.
perfbench-test:
	cd perfbench && $(GO) test ./...

verify: build fmt vet test race bench-smoke fuzz-smoke heal-smoke async-smoke partition-smoke serve-smoke wal-smoke replica-smoke perfbench-test bench-diff
