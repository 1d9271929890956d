package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkRuns fails unless r keeps the invariants of runs: no run is empty
// or longer than runCap, each end is the count of entries up to it, and
// no run but the last holds fewer than runCap/4 entries — a delete that
// leaves fewer merges the run with a neighbour, and a build packs every
// run but the last full.
func checkRuns[E any](t *testing.T, what string, r runs[E]) {
	t.Helper()
	if fault := runsFault(r); fault != "" {
		t.Fatalf("%s: %s", what, fault)
	}
}

// runsFault describes the first run invariant r breaks, "" when it
// keeps them all: a caller checking many lists names one only when it
// fails.
func runsFault[E any](r runs[E]) string {
	n := 0
	for k, rn := range r.spine {
		switch {
		case len(rn.items) == 0:
			return fmt.Sprintf("run %d of %d is empty", k, len(r.spine))
		case len(rn.items) > runCap:
			return fmt.Sprintf("run %d holds %d entries, over runCap %d", k, len(rn.items), runCap)
		case len(rn.items) < runCap/4 && k < len(r.spine)-1:
			return fmt.Sprintf("run %d of %d holds %d entries, under runCap/4", k, len(r.spine), len(rn.items))
		}
		if n += len(rn.items); rn.end != n {
			return fmt.Sprintf("run %d ends at %d, but %d entries precede its end", k, rn.end, n)
		}
	}
	return ""
}

// TestRunsMatchSliceProperty drives runs through random inserts,
// deletes and replaces — at position 0, at Len, at run boundaries and
// anywhere — against a flat slice. Each sequence grows the list past
// 10×runCap and shrinks it again, from an empty list or from one
// built by runsOf, so runs split, empty and merge. After every step
// At, search, find, each and all must agree with the slice, the
// invariants must hold, and the list of the step before and of a
// random one of the 32 before that must still hold what it held.
func TestRunsMatchSliceProperty(t *testing.T) {
	var splits, merges, emptied int
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		next := 0 // entries are distinct ints, so search can find each
		fresh := func() int { next++; return next }
		var want []int
		switch seed % 3 {
		case 1: // one full run short of the remainder: the last run holds one entry
			for range 3*runCap + 1 {
				want = append(want, fresh())
			}
		case 2:
			for range r.Intn(4 * runCap) {
				want = append(want, fresh())
			}
		}
		list := runsOf(slices.Clone(want))
		type version struct {
			list runs[int]
			want []int
		}
		history := make([]version, 0, 32) // the lists before the last 32 steps

		// pos picks a position in [0, n]: an end, a run boundary, or any.
		pos := func(n int) int {
			switch k := r.Intn(6); {
			case k == 0 || n == 0:
				return 0
			case k == 1:
				return n
			case k <= 3 && len(list.spine) > 0:
				rn := list.spine[r.Intn(len(list.spine))]
				return min(n, rn.start()+r.Intn(2)*(len(rn.items)-1)+r.Intn(2))
			}
			return r.Intn(n + 1)
		}
		grow, peak := true, 0
		at := map[int]int{} // entry → its position in want
		for step := 0; step < 3000; step++ {
			peak = max(peak, len(want))
			if len(want) > 10*runCap+r.Intn(3*runCap) {
				grow = false
			} else if len(want) == 0 {
				grow = true
			}
			del, ins := -1, -1
			switch k := r.Intn(10); {
			case len(want) == 0 || grow && k < 8 || !grow && k < 2:
				ins = pos(len(want))
			case k < 9:
				del = min(pos(len(want)), len(want)-1)
			default:
				del = min(pos(len(want)), len(want)-1)
				ins = pos(len(want) - 1)
			}
			before := len(list.spine)
			var delRun int
			if del >= 0 {
				delRun = len(list.spine[list.runOf(del)].items)
			}
			e := fresh()
			if len(history) == cap(history) {
				history = append(history[:0], history[1:]...)
			}
			history = append(history, version{list, slices.Clone(want)})
			list = list.splice(del, ins, e)
			if del >= 0 {
				want = slices.Delete(want, del, del+1)
			}
			if ins >= 0 {
				want = slices.Insert(want, ins, e)
			}
			switch after := len(list.spine); {
			case ins >= 0 && del < 0 && after > before:
				splits++
			case del >= 0 && ins < 0 && after < before && delRun == 1:
				emptied++
			case del >= 0 && ins < 0 && delRun-1 < runCap/4 && before > 1:
				merges++
			}

			what := fmt.Sprintf("seed %d step %d (del %d, ins %d)", seed, step, del, ins)
			checkRuns(t, what, list)
			if got := list.all(); !slices.Equal(got, want) || list.Len() != len(want) {
				t.Fatalf("%s: list %v (Len %d), want %v", what, got, list.Len(), want)
			}
			for _, i := range append(edges(list), r.Intn(len(want)+1), r.Intn(len(want)+1)) {
				if i < len(want) && list.At(i) != want[i] {
					t.Fatalf("%s: At(%d) = %d, want %d", what, i, list.At(i), want[i])
				}
			}
			clear(at)
			for i, x := range want {
				at[x] = i
			}
			for _, p := range []int{0, len(want), r.Intn(len(want) + 1)} {
				if got := list.search(func(x int) bool { return at[x] >= p }); got != p {
					t.Fatalf("%s: search for position %d = %d", what, p, got)
				}
				i, x, ok := list.find(func(x int) bool { return at[x] >= p })
				if i != p || ok != (p < len(want)) || ok && x != want[p] {
					t.Fatalf("%s: find for position %d = %d, %d, %v", what, p, i, x, ok)
				}
			}
			lo := pos(len(want))
			hi := lo + r.Intn(len(want)-lo+1)
			var got []int
			list.each(lo, hi, func(x int) bool { got = append(got, x); return true })
			if !slices.Equal(got, want[lo:hi]) {
				t.Fatalf("%s: each(%d, %d) = %v, want %v", what, lo, hi, got, want[lo:hi])
			}
			if stop := lo + r.Intn(hi-lo+1); stop < hi {
				got = got[:0]
				list.each(lo, hi, func(x int) bool { got = append(got, x); return len(got) < stop-lo+1 })
				if !slices.Equal(got, want[lo:stop+1]) {
					t.Fatalf("%s: each(%d, %d) stopped after %d = %v", what, lo, hi, stop, got)
				}
			}
			for _, back := range []int{1, 1 + r.Intn(len(history))} {
				if v := history[len(history)-back]; !slices.Equal(v.list.all(), v.want) {
					t.Fatalf("%s: the list %d steps back changed to %v, held %v", what, back, v.list.all(), v.want)
				}
			}
		}
		if peak <= 10*runCap {
			t.Fatalf("seed %d: the list peaked at %d entries, want over 10×runCap", seed, peak)
		}
	}
	if splits == 0 || merges == 0 || emptied == 0 {
		t.Fatalf("sequences split %d, merged %d and emptied %d runs; each must happen", splits, merges, emptied)
	}
	t.Logf("%d splits, %d merges, %d emptied runs", splits, merges, emptied)
}

// edges returns the first and last position of every run of r.
func edges[E any](r runs[E]) []int {
	var out []int
	for _, rn := range r.spine {
		out = append(out, rn.start(), rn.end-1)
	}
	return out
}

// TestEditorBatchesMatchSliceProperty drives batches of one to eight
// sets, removes and inserts through one editor each — so later changes
// land in runs the batch already copied, and in runs it split or merged
// — against a flat slice, growing the list past 10×runCap and shrinking
// it to empty. After every batch the list must hold the slice and keep
// the run invariants, and the list before the batch must be unchanged.
func TestEditorBatchesMatchSliceProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		next := 0
		var want []int
		var list runs[int]
		grow := true
		for batch := 0; batch < 1500; batch++ {
			if len(want) > 10*runCap {
				grow = false
			} else if len(want) == 0 {
				grow = true
			}
			before, held := list, slices.Clone(want)
			ed := editor[int]{runs: list}
			for k := 1 + r.Intn(8); k > 0; k-- {
				next++
				switch c := r.Intn(10); {
				case len(want) == 0 || grow && c < 6 || !grow && c < 2:
					i := r.Intn(len(want) + 1)
					ed.insert(i, next)
					want = slices.Insert(want, i, next)
				case c < 8:
					i := r.Intn(len(want))
					ed.remove(i)
					want = slices.Delete(want, i, i+1)
				default:
					i := r.Intn(len(want))
					ed.set(i, next)
					want[i] = next
				}
			}
			list = ed.runs
			what := fmt.Sprintf("seed %d batch %d", seed, batch)
			checkRuns(t, what, list)
			if got := list.all(); !slices.Equal(got, want) || list.Len() != len(want) {
				t.Fatalf("%s: list %v, want %v", what, got, want)
			}
			if !slices.Equal(before.all(), held) {
				t.Fatalf("%s: the list before the batch changed to %v, held %v", what, before.all(), held)
			}
		}
	}
}
