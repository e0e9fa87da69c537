GO ?= go

FUZZTIME ?= 20s

.PHONY: build test race vet lint loc dead cover bench bench-fleet bench-fleet-base fuzz golden golden-update chaos crash

build:
	$(GO) build ./...

# The default test gate includes lint (vet + doc freshness), the
# golden-trace regression, the fuzz seed corpora (replayed as plain unit
# tests by `go test`), and a race-detector pass over the concurrent layers:
# networking, fault injection, the prediction engine, the monitor, the
# metrics/accuracy registry, and the offline sweeps' worker pool at two
# widths. bench/ is a module of its own that pins this
# module's API and checks its contracts (answers, engine miss counts, every
# layer measured); vetting and testing it here makes a break fail locally.
# `dead` fails the gate on a function under internal/ that nothing can reach.
test: golden lint crash dead
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) test -race ./internal/ishare/... ./internal/faultnet/... \
		./internal/predict/... ./internal/monitor/... ./internal/obs/... \
		./internal/otrace/... ./internal/durable/... ./internal/fleetsim/... \
		./internal/wire/...
	$(GO) test -race -run 'TestSweepsWidthIndependent' ./internal/experiments/

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint = vet + documentation freshness (cmd/doccheck): every exported symbol
# in the audited packages carries a doc comment, every metric registration is
# hygienic, and every root BENCH_*.json is written by a recipe here.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/doccheck

# The two size numbers ROADMAP tracks: non-test Go lines of this module
# (bench/ is its own module), and exported symbols of the doccheck-audited
# packages.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l | xargs echo 'non-test Go lines:'
	@$(GO) run ./cmd/doccheck | grep 'exported symbols'

# The third size number, and a gate: functions declared under internal/ that
# the linker keeps in none of the commands or the bench binary
# (built with inlining off, so a function that is only ever inlined still
# shows). Every one must match a line of dead.allow — test harness by pattern,
# anything else by name with its reason — and every line there must still
# match something, so a function nothing can reach is either listed or gone.
# A linked name's type arguments are stripped, innermost brackets first, so
# a generic type's method matches its declaration.
# The list is a lower bound: the linker keeps every exported method of a type
# that is stored in an interface, called or not. It is left in
# $(DEAD)/unreached.txt.
DEAD = .bench_build/dead
dead:
	@rm -rf $(DEAD) && mkdir -p $(DEAD)/bin
	@$(GO) build -gcflags=all=-l -o $(DEAD)/bin/ ./cmd/...
	@$(GO) -C bench build -gcflags=all=-l -o ../$(DEAD)/bin/bench .
	@for b in $(DEAD)/bin/*; do $(GO) tool nm $$b; done \
		| sed -E -e ':args' -e 's/\[[^][]*\]//' -e 't args' \
		| sed -nE 's/^ *[0-9a-f]+ +[A-Za-z] +(fgcs\/internal\/[^ ]*).*/\1/p' \
		| sed -E 's/(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|-fm|\.[0-9]+)+$$//' \
		| sort -u > $(DEAD)/linked.txt
	@for f in $$(find internal -name '*.go' ! -name '*_test.go'); do \
		sed -nE -e 's/\[[^]]*\]//g' -e 't strip' -e ':strip' \
			-e 's/^func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)\) ([A-Za-z_0-9]+).*/(*\2).\3/p;t' \
			-e 's/^func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)\) ([A-Za-z_0-9]+).*/\2.\3/p;t' \
			-e 's/^func ([A-Za-z_0-9]+).*/\1/p' $$f | sed "s|^|fgcs/$$(dirname $$f).|"; \
	done | sort -u > $(DEAD)/declared.txt
	@comm -23 $(DEAD)/declared.txt $(DEAD)/linked.txt > $(DEAD)/unreached.txt
	@$(MAKE) -s loc
	@echo "unreached internal functions: $$(wc -l < $(DEAD)/unreached.txt) of $$(wc -l < $(DEAD)/declared.txt) declared ($(DEAD)/unreached.txt)"
	@sed -E -e '/^[[:space:]]*(#|$$)/d' -e 's/[[:space:]]+#.*//' dead.allow > $(DEAD)/allow.txt
	@bad=0; \
	for fn in $$(grep -vE -f $(DEAD)/allow.txt $(DEAD)/unreached.txt); do \
		echo "dead: $$fn is reached by no command or bench: call it, delete it, or list it in dead.allow"; bad=1; \
	done; \
	while read -r pat; do \
		grep -qE -- "$$pat" $(DEAD)/unreached.txt || { echo "dead: dead.allow line matches nothing unreached: $$pat"; bad=1; }; \
	done < $(DEAD)/allow.txt; \
	exit $$bad

# Per-package statement coverage summary.
cover:
	$(GO) test -cover ./... | grep -v '\[no test files\]'

# The one benchmark: four workloads, end to end and layer by layer (bench/README.md).
bench:
	bash bench/run.sh

# The 100k-machine scale instrument, which no 20-second workload replaces; SLOs first, then the fleet gate.
bench-fleet:
	@mkdir -p .bench_build
	$(GO) run ./cmd/fleetsim -machines 100000 -out .bench_build/fleet.json
	$(GO) run ./cmd/benchgate -slo -in .bench_build/fleet.json
	$(GO) run ./cmd/benchgate -fleet -in .bench_build/fleet.json -baseline BENCH_fleet_base.json

# Re-records BENCH_fleet_base.json at HEAD, the base bench-fleet compares with; refuses a failing run.
bench-fleet-base:
	@mkdir -p .bench_build
	$(GO) run ./cmd/fleetsim -machines 100000 -out .bench_build/fleet.json
	$(GO) run ./cmd/benchgate -fleet -in .bench_build/fleet.json -baseline BENCH_fleet_base.json -write

# Short fuzz pass over every decoder: wire protocol, trace codecs, the
# streamed node snapshot decoder and the internal/wire formats; and over the
# ten differential pairs: the trajectory extractor against its per-sample
# reference, the kernel estimator and the Equation (3) solver against their
# dense references, the MA/ARMA fits against their n-array references, the
# FFT predictor's streamed fit against its resample-and-sort reference, the
# tracker's pending ring against its slice reference, the streamed WAL
# segment and snapshot scanners against their whole-buffer references, the
# wire path's recycled JSON decoder against json.Unmarshal, and the trace
# format's day tag against a decimal-text exactness rule (compact days
# bit-exact, float32 days FGCSTRC1's records). The seed corpora
# (under testdata/fuzz or built by the target) also run as plain unit tests in
# `make test`.
fuzz:
	$(GO) test ./internal/avail/ -run '^$$' -fuzz '^FuzzExtractorMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smp/ -run '^$$' -fuzz '^FuzzEstimateMatchesDense$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smp/ -run '^$$' -fuzz '^FuzzSolverMatchesDense$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/timeseries/ -run '^$$' -fuzz '^FuzzLinearFitsMatchReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/predict/ -run '^$$' -fuzz '^FuzzSpectralMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzRecycledDecodeMatchesUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzDayCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable/ -run '^$$' -fuzz '^FuzzReadSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable/ -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzDecodeObsSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzRestoreBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzTrackerMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzDecodeNodeSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ishare/ -run '^$$' -fuzz '^FuzzDecodeRegSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable/ -run '^$$' -fuzz '^FuzzDecodeRecords$$' -fuzztime $(FUZZTIME)

# Golden-trace regression: fixed-seed workload, bit-exact predictor outputs;
# the paper's scorecard, regenerated at the canonical scale and compared
# with the block EXPERIMENTS.md embeds (byte for byte, verdicts against the
# recorded ones); and the sim block of the 3000-machine, 6-history-day fleet
# run, byte for byte against internal/fleetsim/testdata; and README's flag
# tables, byte for byte against the flags ishared, isharec and fleetsim
# register. Use `make golden-update` only when a change to those numbers is
# intended, or after editing a flag; it rewrites the flag tables one package
# at a time, since all three rewrite README.md.
FLAGTABLES = ./cmd/ishared/ ./cmd/isharec/ ./cmd/fleetsim/
golden:
	$(GO) test ./internal/predict/ -run 'TestGolden' -count=1
	$(GO) test ./cmd/experiments/ -run 'TestScorecard' -count=1
	$(GO) test ./internal/fleetsim/ -run 'TestFleetSimGolden' -count=1
	$(GO) test $(FLAGTABLES) -run 'TestFlagTable' -count=1

golden-update:
	$(GO) test ./internal/predict/ -run 'TestGoldenPredictions' -count=1 -update
	$(GO) test ./cmd/experiments/ -run 'TestScorecard' -count=1 -update
	$(GO) test ./internal/fleetsim/ -run 'TestFleetSimGolden' -count=1 -update
	$(GO) test -p 1 $(FLAGTABLES) -run 'TestFlagTable' -count=1 -update

# Chaos harnesses: a five-machine testbed on faultnet's in-memory network
# with seeded fault injection (dial refusals, resets, corruption, partitions), and a
# three-peer federated control plane that loses a gateway mid-run. Each runs
# twice per invocation to prove byte-determinism of the fault schedule.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/ishare/...

# Crash-injection harness: kill the WAL at every byte offset (durable layer)
# — as a process kill and as a power loss that keeps only synced bytes — and
# at seeded offsets under a live node and at every write boundary of a node
# snapshot and its part (ishare layer), then prove recovery is
# prefix-consistent, refuses silent corruption, and answers QueryTR exactly
# as the pre-crash state; a write or sync that fails partway through
# publishes nothing; a newest
# snapshot damaged in its last payload byte falls back on the older one, and
# a snapshot that changes after recovery validated it, or validates but does
# not decode, installs nothing. Byte-deterministic under fixed seeds.
crash:
	$(GO) test -count=1 -run 'TestCrash|TestBitFlip|TestPowerLoss|TestPublishFailure|TestPart' ./internal/durable/
	$(GO) test -count=1 -run 'TestPersisterCrash|TestSnapshotFallbackLastPayloadByte|TestSnapshotChangedAfterValidation|TestSnapshotInstallAllOrNothing' ./internal/ishare/
