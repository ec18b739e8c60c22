// Package kernel is the allochot fixture: functions marked
// allochot:entry are zero-alloc roots; anything they transitively call
// must not allocate.
package kernel

import "fmt"

// RunBatch drives the hot loop.
//
//allochot:entry
func RunBatch(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = step(dst, i)
	}
	trace(dst)
	_ = box(n)
	return finish(dst)
}

type pair struct{ a, b int }

// box returns the address of a struct literal: a heap allocation.
func box(n int) *pair {
	return &pair{n, n} // want "allocation \\(address of a composite literal\\) on the zero-alloc batch-kernel path RunBatch → box"
}

// step grows its own slice in place: self-append amortizes against the
// reused backing array, not an allocation per run.
func step(dst []int, i int) []int {
	if i < 0 {
		panic(fmt.Sprintf("kernel: negative step %d", i)) // crash path: exempt
	}
	dst = append(dst, i)
	return dst
}

// finish copies out: the make is on the hot path.
func finish(dst []int) []int {
	out := make([]int, len(dst)) // want "allocation \\(make\\) on the zero-alloc batch-kernel path RunBatch → finish"
	copy(out, dst)
	return out
}

// trace renders the lanes for troubleshooting; never on the
// steady-state path (allochot:ok — only reached behind a debug flag).
func trace(dst []int) {
	_ = fmt.Sprint(dst)
}

// cold is not reachable from any entry: free to allocate.
func cold(n int) []int { return make([]int, n) }

// Entry allocating directly reports with the single-step path.
//
//allochot:entry
func RunScratch(n int) []int {
	buf := make([]int, n) // want "allocation \\(make\\) on the zero-alloc batch-kernel path RunScratch"
	return buf
}

var _ = cold
