package scanbist_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	scanbist "repro"
)

// TestQuickstartFlow exercises the façade end to end exactly as the README
// quickstart does.
func TestQuickstartFlow(t *testing.T) {
	c := scanbist.MustGenerate("s953")
	b, err := scanbist.NewCircuitBench(c, scanbist.Options{
		Scheme:     scanbist.TwoStep(),
		Groups:     4,
		Partitions: 4,
		Patterns:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := scanbist.SampleFaults(b.Faults(), 50, 1)
	study := b.Run(faults)
	if study.Diagnosed == 0 {
		t.Fatal("nothing diagnosed")
	}
	if study.Full.Value() < 0 {
		t.Errorf("DR = %v", study.Full.Value())
	}
}

func TestSchemeConstructors(t *testing.T) {
	names := map[string]scanbist.Scheme{
		"two-step":         scanbist.TwoStep(),
		"random-selection": scanbist.RandomSelection(),
		"interval":         scanbist.IntervalBased(),
		"fixed-interval":   scanbist.FixedInterval(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("scheme %q != %q", s.Name(), want)
		}
	}
}

func TestBenchRoundTripViaFacade(t *testing.T) {
	c := scanbist.MustGenerate("s298")
	var buf bytes.Buffer
	if err := scanbist.WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := scanbist.ParseBench("s298", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumDFFs() != c.NumDFFs() || c2.NumGates() != c.NumGates() {
		t.Error("round trip changed circuit size")
	}
}

func TestFaultHelpers(t *testing.T) {
	c := scanbist.MustGenerate("s298")
	full := scanbist.FullFaultList(c)
	collapsed := scanbist.CollapseFaults(c, full)
	if len(collapsed) >= len(full) {
		t.Error("collapsing did not reduce the list")
	}
	if !slices.Equal(scanbist.CollapsedFaults(c), collapsed) {
		t.Error("CollapsedFaults differs from CollapseFaults over the full list")
	}
	sample := scanbist.SampleFaults(collapsed, 10, 3)
	if len(sample) != 10 {
		t.Errorf("sampled %d", len(sample))
	}
}

func TestSOCFacade(t *testing.T) {
	a := scanbist.MustGenerate("s298")
	b := scanbist.MustGenerate("s526")
	s, err := scanbist.NewSOC("duo",
		&scanbist.SOCCore{Name: "a", Circuit: a},
		&scanbist.SOCCore{Name: "b", Circuit: b})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := scanbist.NewSOCBench(s, scanbist.Options{
		Scheme:     scanbist.TwoStep(),
		Groups:     4,
		Partitions: 3,
		Patterns:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := scanbist.SampleFaults(sb.CoreFaults(1), 20, 2)
	study := sb.RunCore(1, faults)
	if study.Diagnosed == 0 {
		t.Error("nothing diagnosed on the SOC")
	}
}

func TestProfilesExposed(t *testing.T) {
	if len(scanbist.Profiles()) < 10 {
		t.Error("profile table too small")
	}
	if _, ok := scanbist.ProfileByName("s38584"); !ok {
		t.Error("s38584 missing")
	}
	if len(scanbist.RandomScanOrder(10, 1)) != 10 {
		t.Error("RandomScanOrder wrong length")
	}
}
