package pipeline

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/soc"
)

// pinnedSOCFingerprints are SOCFingerprint of the built-in presets. The
// SOC sim layer's store key embeds this string, so a change here orphans
// every persisted SOC layer; how the fingerprint is computed may change,
// but its value may not without a deliberate store-key migration.
var pinnedSOCFingerprints = []struct{ preset, fp string }{
	{"socmini", "1d4e049f028a5e02d05fcdbac68309c68faf9d79201af1e73e497fd6983e62ed"},
	{"soc1", "fdd8f2064e8fb11a29a4c076ba0abe126e5225c1d0c35cf66192038e75ff01a8"},
}

func TestSOCFingerprintPinned(t *testing.T) {
	for _, pin := range pinnedSOCFingerprints {
		s, err := soc.Preset(pin.preset)
		if err != nil {
			t.Fatal(err)
		}
		if got := SOCFingerprint(s); got != pin.fp {
			t.Errorf("%s: SOCFingerprint %s, pinned %s", pin.preset, got, pin.fp)
		}
		cache := NewCache()
		if got := socFingerprint(s, cache.fingerprint); got != pin.fp {
			t.Errorf("%s: memoized SOC fingerprint %s, pinned %s", pin.preset, got, pin.fp)
		}
	}
}

// TestCacheSOCKeyMatchesFingerprint: the keys the cache files an SOC
// under, built from its per-netlist fingerprint memo, are exactly the
// keys the unmemoized SOCFingerprint gives — on the first lookup and on
// the memoized second one.
func TestCacheSOCKeyMatchesFingerprint(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	spec := baseSpec(partition.TwoStep{}).Normalized()
	fp := SOCFingerprint(s)
	cache := NewCache()
	for lookup := 0; lookup < 2; lookup++ {
		a, err := cache.SOC(s, spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.cacheKey != spec.Key(fp) {
			t.Errorf("lookup %d: cache key %q, want %q", lookup, a.cacheKey, spec.Key(fp))
		}
		if a.simCacheKey != spec.simKey(fp) {
			t.Errorf("lookup %d: sim cache key %q, want %q", lookup, a.simCacheKey, spec.simKey(fp))
		}
	}
}

// TestCacheSOCLookupSameArtifacts: two lookups on one *soc.SOC hit the
// memory tier and return the same artifacts.
func TestCacheSOCLookupSameArtifacts(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	spec := baseSpec(partition.TwoStep{})
	a1, err := cache.SOC(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.SOC(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second lookup on the same SOC returned different artifacts")
	}
	if got, want := cache.Stats(), (Stats{Hits: 1, Misses: 1, SimMisses: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
