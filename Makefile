# COSM build/verification entry points. `make check` is the gate every
# change must pass: build, vet, the layering rule, the option census,
# full tests, and the race detector over the whole tree (the resilience
# layer is concurrency-heavy).

GO ?= go

.PHONY: check build vet layers surface test race fuzz bench chaos

check: build vet layers surface test race

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

layers:
	@bad=$$($(GO) list -deps $(CORE) | grep '^cosm/' | \
		grep -vxE 'cosm/internal/(sidl|fsm|ref|xcode|typemgr|match|obs|trader/core)'); \
	if [ -n "$$bad" ]; then echo "layers: $(CORE) must not depend on:" $$bad; exit 1; fi
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' $(CORE) | grep -xE '(net|os|context)(/.*)?'); \
	if [ -n "$$bad" ]; then echo "layers: $(CORE) must not import:" $$bad; exit 1; fi
	@if grep -nE 'time\.Now|^[[:space:]]*go ' $$(ls $(CORE)/*.go | grep -v _test.go); then \
		echo "layers: $(CORE) reads a clock or starts a goroutine"; exit 1; fi

# Every knob of the plumbing around the market has to earn its keep:
# DESIGN.md §12 "Options" names, for each exported With* function and
# each exported field of a *Policy/*Options/*Config struct in the
# audited packages, who sets it and what fails without it. This fails
# when the code has one the table lacks, or the table one the code lost.
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

test:
	$(GO) test ./...

# Writes derive the store's type snapshots under the shard lock while
# imports read them lock-free: those run twenty times over, so a rare
# interleaving gets its chance. (The cell's interleavings are the cell
# simulation's: TestCellSim sweeps seeds inside the first line.)
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 $(CORE)
	$(GO) test -race -count=20 -run '^TestIndexedMatchesLinearProperty$$' ./internal/trader

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
# paper-figure groups, the ablations, and the overload, failover,
# event-log, gossip-round and read-replica benchmarks. The market's hot
# paths are cosmbench workloads: `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem .

chaos:
	$(GO) run ./cmd/marketsim -chaos
