package journal

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
)

// Disk-fault injection. Options.FaultHook is consulted before each disk
// operation the journal performs, identified by one of the Fault*
// operation names below; a non-nil return is treated as that operation
// failing. FaultInjector is the stock deterministic schedule — fail the
// Kth fsync, tear the Kth record write, run out of space from write K
// onward — used by the fail-stop tests and the trader's cell simulation.

// Fault hook operation names.
const (
	// FaultFsync is a segment fsync: the per-append sync under
	// FsyncAlways, the background interval ticker, Sync and Close.
	FaultFsync = "fsync"
	// FaultWrite is one record frame written to the append segment.
	FaultWrite = "write"
	// FaultSnapshot is a snapshot temp-file write (Compact and the
	// replication snapshot installs).
	FaultSnapshot = "snapshot"
)

// ErrTornWrite, returned by a fault hook for a FaultWrite operation,
// makes the journal write only half of the record frame before failing
// the append — the on-disk shape a crash mid-write leaves, which
// recovery must truncate at.
var ErrTornWrite = errors.New("journal: injected torn write")

// ErrNoSpace is the injectable out-of-space disk fault.
var ErrNoSpace = fmt.Errorf("journal: injected write failure: %w", syscall.ENOSPC)

// FaultInjector is a deterministic, arm-anytime fault schedule keyed by
// operation occurrence counts. Arm it before or during a journal's
// life; Hook is the Options.FaultHook adapter. All methods are safe for
// concurrent use.
type FaultInjector struct {
	mu     sync.Mutex
	counts map[string]uint64
	rules  []faultRule
}

type faultRule struct {
	op     string
	k      uint64 // 1-based occurrence the rule starts firing at
	sticky bool   // fire on every occurrence >= k, not just the kth
	err    error
}

// NewFaultInjector returns an injector with no faults armed.
func NewFaultInjector() *FaultInjector {
	return &FaultInjector{counts: make(map[string]uint64)}
}

// FailNth arms the injector to fail the kth occurrence (1-based) of op
// with err. Returns the injector for chaining.
func (fi *FaultInjector) FailNth(op string, k uint64, err error) *FaultInjector {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rules = append(fi.rules, faultRule{op: op, k: k, err: err})
	return fi
}

// FailFrom arms the injector to fail the kth and every later occurrence
// of op with err — the ENOSPC shape, where the disk does not come back.
func (fi *FaultInjector) FailFrom(op string, k uint64, err error) *FaultInjector {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rules = append(fi.rules, faultRule{op: op, k: k, sticky: true, err: err})
	return fi
}

// FailNow arms the injector to fail every occurrence of op from this
// moment on — the "this disk just died" trigger of the fail-stop tests
// and the cell simulation.
func (fi *FaultInjector) FailNow(op string, err error) *FaultInjector {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rules = append(fi.rules, faultRule{op: op, k: fi.counts[op] + 1, sticky: true, err: err})
	return fi
}

// Hook adapts the injector to Options.FaultHook.
func (fi *FaultInjector) Hook() func(op string) error {
	return func(op string) error {
		fi.mu.Lock()
		defer fi.mu.Unlock()
		fi.counts[op]++
		n := fi.counts[op]
		for _, r := range fi.rules {
			if r.op != op {
				continue
			}
			if n == r.k || (r.sticky && n >= r.k) {
				return r.err
			}
		}
		return nil
	}
}

// Count reports how many occurrences of op the hook has seen.
func (fi *FaultInjector) Count(op string) uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.counts[op]
}
