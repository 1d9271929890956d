# COSM build/verification entry points. `make check` is the gate every
# change must pass: formatting, build, vet, the layering rule, the
# option census, full tests, and the race detector over the whole tree
# (the resilience layer is concurrency-heavy).

GO ?= go

.PHONY: check fmt build vet layers surface test race fuzz bench census

check: fmt build vet layers surface test race

# The files gofmt would rewrite; any at all fails, as CI's gofmt step does.
fmt:
	@bad=$$(gofmt -l .); if [ -n "$$bad" ]; then echo "fmt: gofmt -l lists:" $$bad; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The paper's trader (internal/trader/core) is a pure leaf — DESIGN.md
# §12 has the rule. Of this module it may reach only the description
# and type layers below it (and obs's nil-safe counters); it imports no
# network, file or context package; and it neither reads a clock nor
# starts a goroutine. The module half is checked over the transitive
# closure; the standard-library half over core's own imports, because
# fmt alone pulls os into every closure.
CORE := ./internal/trader/core

# What crosses a component boundary — RPC arguments and results, journal
# records and snapshots, replication payloads — has one codec, SIDL
# through xcode's binder (DESIGN.md §8). So no non-test file of the
# packages below imports encoding/json; cosmcli's dump format, which is
# for people, stays JSON outside them.
ONE_CODEC := journal trader trader/core browser xcode wire cosm

# A connection reads each request and reply into one string, and every
# string decoded from it is a window of that one (DESIGN.md §6): safe
# because a Go string cannot change, and a pooled buffer is never
# aliased past its owner.
# Both hold only while no package of the program reaches for unsafe, so
# no non-test file under internal/ or cmd/ imports it.

layers:
	@bad=$$($(GO) list -deps $(CORE) | grep '^cosm/' | \
		grep -vxE 'cosm/internal/(sidl|fsm|ref|xcode|typemgr|match|obs|trader/core)'); \
	if [ -n "$$bad" ]; then echo "layers: $(CORE) must not depend on:" $$bad; exit 1; fi
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' $(CORE) | grep -xE '(net|os|context)(/.*)?'); \
	if [ -n "$$bad" ]; then echo "layers: $(CORE) must not import:" $$bad; exit 1; fi
	@if grep -nE 'time\.Now|^[[:space:]]*go ' $$(ls $(CORE)/*.go | grep -v _test.go); then \
		echo "layers: $(CORE) reads a clock or starts a goroutine"; exit 1; fi
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "encoding/json"}}{{$$.ImportPath}}{{end}}{{end}}' \
		$(addprefix ./internal/,$(ONE_CODEC))); \
	if [ -n "$$bad" ]; then echo "layers: one record codec (SIDL through xcode), but JSON is imported by:" $$bad; exit 1; fi
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "unsafe"}}{{$$.ImportPath}}{{end}}{{end}}' ./internal/... ./cmd/...); \
	if [ -n "$$bad" ]; then echo "layers: no program package may import unsafe, but these do:" $$bad; exit 1; fi

# Every knob of the plumbing around the market has to earn its keep:
# DESIGN.md §12 "Options" names, for each exported With* function and
# each exported field of a *Policy/*Options/*Config struct in the
# audited packages, who sets it and what fails without it. This fails
# when the code has one the table lacks, or the table one the code lost.
# It also fails when a Go file outside bench/ calls the no-op
# trader.WithImportCacheTTL, which stays only until bench/ stops passing
# it.
AUDITED := wire journal obs cosm daemon browser naming trader

surface:
	@have=$$(for p in $(AUDITED); do \
		files=$$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./internal/$$p); \
		sed -nE "s/^func (With[A-Za-z]*)\(.*/$$p.\1/p" $$files; \
		for t in $$(sed -nE 's/^type (([A-Z][A-Za-z]*)?(Policy|Options|Config)) struct.*/\1/p' $$files); do \
			$(GO) doc ./internal/$$p $$t | awk -v t="$$p.$$t" '/^type .* struct \{/ { in_struct = 1; next } /^\}/ { in_struct = 0 } \
				in_struct && /^\t[A-Z]/ { for (i = 1; i <= NF; i++) { name = $$i; more = sub(/,$$/, "", name); print t "." name; if (!more) break } }'; \
		done; \
	done | sort); \
	want=$$(sed -n '/<!-- surface:begin -->/,/<!-- surface:end -->/p' DESIGN.md | sed -nE 's/^\| `([A-Za-z.]+)`.*/\1/p' | sort); \
	if [ -z "$$have" ]; then echo "surface: found no option in the code"; exit 1; fi; \
	bad=$$(for o in $$have; do echo "$$want" | grep -qxF "$$o" || echo "  not in the table: $$o"; done; \
		for o in $$want; do echo "$$have" | grep -qxF "$$o" || echo "  not in the code: $$o"; done); \
	if [ -n "$$bad" ]; then echo "surface: DESIGN.md section 12 \"Options\" and the code disagree:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE --include='*.go' 'WithImportCacheTTL\(' . | grep -vE '^\./(bench|\.bench_build)/|func WithImportCacheTTL\('); \
	if [ -n "$$bad" ]; then echo "surface: only bench/ may call the no-op trader.WithImportCacheTTL:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

# Writes derive the store's type snapshots under the store's one lock
# while imports pin them under its read lock and match lock-free, a
# subtype's bucket empties and refills under conformant readers, the
# journal orders every write with its apply, its snapshot cuts and its
# installs, a replication read tails
# segments that compaction deletes, every connection of the wire layer
# shares pooled frame buffers and reply channels that a call cancelled
# at the wrong instant must not hand back early, handlers and peer
# queries run on workers that park between jobs, and cosm encodes every
# call's request and reply body into one of those buffers, which must
# go back exactly once and only after its write, and serves each
# request from pooled objects that go back only after its response is
# written; a loop: connection's byte queues are woken by writes, reads,
# closes and deadline changes from either end; obs's one ring, one LRU
# and one label family are shared by concurrent recorders, caches and
# FSM sessions; a remote import's reply is built and decoded in scratch
# that its pools lend to one call at a time at either end: those tests
# run twenty times over, so a rare interleaving gets its chance. (The cell's
# interleavings are the cell simulation's: TestCellSim sweeps seeds
# inside the first line.)
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 $(CORE)
	$(GO) test -race -count=20 ./internal/wire
	$(GO) test -race -count=20 ./internal/cosm
	$(GO) test -race -count=20 ./internal/obs
	$(GO) test -race -count=20 -run '^(TestIndexedMatchesLinearProperty|TestConcurrentWritesApplyInJournalOrder|TestSnapshotInstallRacesCompaction|TestConcurrentRemoteImportsShareNoScratch)$$' ./internal/trader
	$(GO) test -race -count=20 -run '^TestConcurrentRegistrationsSurviveCompaction$$' ./internal/browser
	$(GO) test -race -count=20 -run '^(TestCommitOrdersWithCuts|TestReadFromTailsCompactingLog)$$' ./internal/journal

# Every native fuzz target of the module for 30 s each, beyond its
# checked-in corpus. The targets are discovered, not listed, so a new
# Fuzz* function is picked up for free; go test takes one -fuzz target
# per invocation. A package that does not build, a listing without a
# target and a finding (written to the package's testdata/fuzz) each
# fail the run. Minimizing a new input is capped at 100 runs: a target
# paying an fsync per run (FuzzJournalOpen) would otherwise spend its
# 30 s minimizing.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./... 2>&1) || { echo "$$list"; echo "fuzz: listing the targets failed"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { n = split(names, f, " "); for (i = 1; i <= n; i++) print $$2, f[i]; names = "" }'); \
	if [ -z "$$targets" ]; then echo "fuzz: no Fuzz* target found"; exit 1; fi; \
	echo "$$targets" | while read pkg target; do \
		echo "== fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 30s -fuzzminimizetime 100x $$pkg || exit 1; \
	done

# What cosmbench (bench/, see BENCHMARK.json) does not measure: the
# paper-figure groups (Fig1-Fig7, Sec22, Sec23), the ablations, the
# overload, failover, event-log, gossip-round and read-replica
# benchmarks, the ordered walk over offers with siblings, which
# import_match's market has none of, a write into a read bucket of
# 2 000 and 20 000 offers with and without a value distinct per offer,
# which market_churn's offers do not carry, one index-table lookup,
# a call to a handler whose frames outgrow a goroutine's starting
# stack, from 1 and 8 callers over loop: and tcp:, and a remote import
# over loop: answering 1, 16 and 256 offers, which shows what a reply
# costs per offer. The market's hot paths are cosmbench workloads:
# `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench 'RankedWalk|Derive|IndexLookup' -benchmem $(CORE)
	$(GO) test -run '^$$' -bench 'CallStack' -benchmem ./internal/wire
	$(GO) test -run '^$$' -bench 'RemoteImport' -benchmem ./internal/trader

# The non-test Go line count that ROADMAP's census tracks: every *.go
# file except *_test.go, outside .bench_build/ (cosmbench's build tree).
census:
	@find . -path ./.bench_build -prune -o -type f -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
