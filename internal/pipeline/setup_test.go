package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/partition"
	"repro/internal/soc"
)

// Set-up concurrency: on a miss the engine is built on a helper goroutine
// beside the simulation layer (setUp). These tests pin what the caller
// sees of that — the errors of the sequential build, a panic in the
// engine build re-raised on the caller's goroutine, no engine rebuild on
// a hit — at circuit and SOC scope, with and without a cache.

// countingScheme is a two-step scheme that counts its Partitions calls.
type countingScheme struct {
	partition.TwoStep
	calls *atomic.Int32
}

func (s countingScheme) Partitions(n, b, k int) ([]partition.Partition, error) {
	s.calls.Add(1)
	return s.TwoStep.Partitions(n, b, k)
}

// panicScheme counts its Partitions calls and panics in each, which the
// engine build reaches.
type panicScheme struct {
	partition.TwoStep
	calls *atomic.Int32
}

const schemePanic = "pipeline test: partitions panicked"

func (s panicScheme) Partitions(int, int, int) ([]partition.Partition, error) {
	s.calls.Add(1)
	panic(schemePanic)
}

// setUpTarget is one device the tests build, at circuit or SOC scope.
type setUpTarget struct {
	name  string
	build func(*ArtifactCache, Spec) error
}

func setUpTargets(t *testing.T) []setUpTarget {
	t.Helper()
	c := benchgen.MustGenerate("s298")
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	return []setUpTarget{
		{"circuit", func(cache *ArtifactCache, spec Spec) error { _, err := cache.Circuit(c, spec); return err }},
		{"soc", func(cache *ArtifactCache, spec Spec) error { _, err := cache.SOC(s, spec); return err }},
	}
}

// TestSetUpErrorsMatchSequential: a sim-layer error (no patterns), an
// engine error (a bad scan order) and both at once each surface as the
// error the sequential build returned, sim-layer error first — on the
// build and again on the cached lookup.
func TestSetUpErrorsMatchSequential(t *testing.T) {
	const (
		simErr   = "pipeline: pattern count 0 < 1"
		orderErr = "pipeline: scan order covers 3 of 14 cells"
		socErr   = "pipeline: custom scan order is not supported at SOC level; the TestRail fixes daisy order"
	)
	noPatterns := baseSpec(partition.TwoStep{})
	noPatterns.Patterns = 0
	badOrder := baseSpec(partition.TwoStep{})
	badOrder.ScanOrder = []int{0, 1, 2}
	both := badOrder
	both.Patterns = 0
	cases := []struct {
		name              string
		spec              Spec
		circuitErr, soErr string
	}{
		{"no patterns", noPatterns, simErr, simErr},
		{"bad scan order", badOrder, orderErr, socErr},
		{"both", both, simErr, simErr},
	}
	for _, target := range setUpTargets(t) {
		for _, tc := range cases {
			want := tc.circuitErr
			if target.name == "soc" {
				want = tc.soErr
			}
			for _, cache := range []*ArtifactCache{nil, NewCache()} {
				for lookup := 0; lookup < 2; lookup++ {
					err := target.build(cache, tc.spec)
					if err == nil || err.Error() != want {
						t.Errorf("%s, %s, cached %t, lookup %d: err %v, want %q", target.name, tc.name, cache != nil, lookup, err, want)
					}
				}
			}
		}
	}
}

// TestSetUpEnginePanicReachesCaller: a panic in the engine build, which
// runs on the helper goroutine, is re-raised on the calling goroutine,
// where the caller can recover it, instead of killing the process. A
// cache records the panic as the key's error, so a second lookup returns
// that error and builds nothing, rather than a nil value with a nil error.
func TestSetUpEnginePanicReachesCaller(t *testing.T) {
	for _, target := range setUpTargets(t) {
		for _, cache := range []*ArtifactCache{nil, NewCache()} {
			var calls atomic.Int32
			spec := baseSpec(panicScheme{calls: &calls})
			var got any
			func() {
				defer func() { got = recover() }()
				target.build(cache, spec)
			}()
			if got != schemePanic {
				t.Errorf("%s, cached %t: recovered %v, want %q", target.name, cache != nil, got, schemePanic)
			}
			if cache == nil {
				continue
			}
			built := calls.Load()
			err := target.build(cache, spec)
			if want := "pipeline: build panicked: " + schemePanic; err == nil || err.Error() != want {
				t.Errorf("%s: second lookup err %v, want %q", target.name, err, want)
			}
			if n := calls.Load() - built; n != 0 {
				t.Errorf("%s: the second lookup ran Partitions %d more times", target.name, n)
			}
		}
	}
}

// TestSetUpSimErrorBeatsEnginePanic: when the simulation layer fails, the
// caller gets its error even though the engine build panicked beside it,
// as the sequential build, which never ran the engine, returned.
func TestSetUpSimErrorBeatsEnginePanic(t *testing.T) {
	badPoly := baseSpec(partition.TwoStep{})
	badPoly.PRPGPoly = 0b100 // x², no constant term
	for _, target := range setUpTargets(t) {
		want := target.build(nil, badPoly)
		if want == nil {
			t.Fatalf("%s: a PRPG polynomial without constant term built", target.name)
		}
		for _, cache := range []*ArtifactCache{nil, NewCache()} {
			var calls atomic.Int32
			spec := badPoly
			spec.Scheme = panicScheme{calls: &calls}
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s, cached %t: panicked with %v", target.name, cache != nil, p)
					}
				}()
				err = target.build(cache, spec)
			}()
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s, cached %t: err %v, want %q", target.name, cache != nil, err, want)
			}
			if calls.Load() == 0 {
				t.Errorf("%s, cached %t: the engine build never reached Partitions", target.name, cache != nil)
			}
		}
	}
}

// TestSetUpHitBuildsNoEngine: a second lookup of the same key returns the
// cached artifacts and partitions nothing again.
func TestSetUpHitBuildsNoEngine(t *testing.T) {
	for _, target := range setUpTargets(t) {
		var calls atomic.Int32
		cache := NewCache()
		spec := baseSpec(countingScheme{calls: &calls})
		if err := target.build(cache, spec); err != nil {
			t.Fatal(err)
		}
		built := calls.Load()
		if built == 0 {
			t.Fatalf("%s: the build ran no Partitions", target.name)
		}
		if err := target.build(cache, spec); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != built {
			t.Errorf("%s: the second lookup ran Partitions %d more times", target.name, got-built)
		}
		if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("%s: stats %+v, want one hit and one miss", target.name, st)
		}
	}
}

// TestSetUpConcurrentSchemes: callers asking for two schemes over one
// circuit at once share one simulation layer, and each scheme's engine is
// built once — whether its build overlapped the simulation or waited for
// another caller's.
func TestSetUpConcurrentSchemes(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	cache := NewCache()
	var calls [2]atomic.Int32
	specs := [2]Spec{baseSpec(countingScheme{calls: &calls[0]}), baseSpec(countingScheme{calls: &calls[1]})}
	specs[1].Groups = 2
	const callers = 8
	results := make([]*CircuitArtifacts, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := cache.Circuit(c, specs[i%2])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	for i := 2; i < callers; i++ {
		if results[i] != results[i%2] {
			t.Fatalf("caller %d received a different artifact set than caller %d", i, i%2)
		}
	}
	if results[0].Sim != results[1].Sim {
		t.Error("the two schemes did not share the simulation layer")
	}
	if st := cache.Stats(); st.Misses != 2 || st.SimMisses != 1 {
		t.Errorf("stats %+v, want two full builds over one simulation layer", st)
	}
	for k := range specs {
		var one atomic.Int32
		spec := specs[k]
		spec.Scheme = countingScheme{calls: &one}
		if _, err := (*ArtifactCache)(nil).Circuit(c, spec); err != nil {
			t.Fatal(err)
		}
		if got, want := calls[k].Load(), one.Load(); got != want {
			t.Errorf("scheme %d: Partitions ran %d times, one build runs it %d times", k, got, want)
		}
	}
}
