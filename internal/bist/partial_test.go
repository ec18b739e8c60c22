package bist

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/noise"
)

// countdownCtx lets Err succeed for the first allotted polls and return
// context.Canceled from then on, so a test can cancel verdict collection
// after an exact number of partitions.
type countdownCtx struct{ left int }

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestVerdictsUpToPrefix: cancelled after k partitions, VerdictsUpTo
// leaves rows < k equal to VerdictsInto's, rows ≥ k all-pass with no
// signature, and returns (k, context.Canceled); a run that is never
// cancelled returns (Partitions, nil). The verdicts buffer is reused
// across calls, so stale rows from an earlier run must be cleared.
// Prefix of the observed count is a row view over the same storage, and
// the verdicts themselves when every partition was observed; a noisy
// run's Unknown rows are cut with the rest.
func TestVerdictsUpToPrefix(t *testing.T) {
	for _, chains := range []int{1, 3} {
		e, good, blocks, faults, fs := noisyFixture(t, chains, 40)
		parts := e.Plan().Partitions
		v := e.NewVerdicts()
		for _, f := range faults {
			faulty := fs.Faulty(f)
			aborted, _ := e.NoisyVerdicts(good, faulty, blocks, noise.Model{Abort: 1, Seed: 3}, RetryPolicy{})
			if p := aborted.Prefix(1); len(p.Unknown) != 1 || p.NumUnknown() != e.VerdictGroups() {
				t.Fatalf("chains=%d: Prefix(1) of an all-Unknown run keeps %d Unknown rows, %d sessions",
					chains, len(p.Unknown), p.NumUnknown())
			}
			want := e.Verdicts(good, faulty, blocks)
			for k := 0; k <= parts+1; k++ {
				e.VerdictsInto(good, faulty, blocks, v) // dirty every row
				n, err := e.VerdictsUpTo(&countdownCtx{left: k}, good, faulty, blocks, v)
				label := f.Describe(fs.Circuit())
				if k < parts {
					if n != k || !errors.Is(err, context.Canceled) {
						t.Fatalf("chains=%d %s k=%d: got (%d, %v), want (%d, context.Canceled)", chains, label, k, n, err, k)
					}
				} else if n != parts || err != nil {
					t.Fatalf("chains=%d %s k=%d: got (%d, %v), want (%d, nil)", chains, label, k, n, err, parts)
				}
				if !reflect.DeepEqual(v.Fail[:n], want.Fail[:n]) || !reflect.DeepEqual(v.ErrSig[:n], want.ErrSig[:n]) {
					t.Fatalf("chains=%d %s k=%d: observed rows differ from VerdictsInto", chains, label, k)
				}
				for u := n; u < parts; u++ {
					for g := range v.Fail[u] {
						if v.Fail[u][g] || v.ErrSig[u][g] != 0 {
							t.Fatalf("chains=%d %s k=%d: unobserved session (%d,%d) = (%v,%#x), want zero",
								chains, label, k, u, g, v.Fail[u][g], v.ErrSig[u][g])
						}
					}
				}
				if v.Unknown != nil {
					t.Fatalf("chains=%d %s k=%d: deterministic verdicts carry Unknown rows", chains, label, k)
				}
				if p := v.Prefix(n); len(p.Fail) != n || len(p.ErrSig) != n || (n == parts) != (p == v) ||
					(n > 0 && &p.Fail[0][0] != &v.Fail[0][0]) {
					t.Fatalf("chains=%d %s k=%d: Prefix(%d) is not a row view of v", chains, label, k, n)
				}
			}
		}
	}
}
