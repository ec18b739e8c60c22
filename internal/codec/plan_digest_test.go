package codec_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// pinnedPlanDigests are the sha256 digests of EncodeBatchPlan for a fixed
// s13207 fault sample. How the planner walks cones, orders records and
// collapses faults may change, but the plans it emits must stay
// byte-identical; only a deliberate change to the plan format or the
// scheduler re-records them.
var pinnedPlanDigests = []struct{ name, sha256 string }{
	{"stuck lanes=1 scan=false", "7dc2ba078b18d53f8f0ecff567cd9eaa71d5d00d2239ccb4c975f77ff86b2b2e"},
	{"stuck lanes=1 scan=true", "7dc2ba078b18d53f8f0ecff567cd9eaa71d5d00d2239ccb4c975f77ff86b2b2e"},
	{"stuck lanes=64 scan=false", "52d9e5b9380fd5a408d3e6d74bf12c6b227bd912a449178e6a68ca91d0402601"},
	{"stuck lanes=64 scan=true", "1d1f6d34f268481f766a95aa3842f0b7a6935aa5706247d4e8f0e1772a749cc5"},
	{"stuck lanes=256 scan=false", "490cd0859beee7d330095a95be9513af9f00d60cee987e1d8e7f180ab256fc97"},
	{"stuck lanes=256 scan=true", "fec85ba6476d8bd886510103f952d1436ffebe69d7c777f8d2802bcc6001c9cc"},
	{"transition lanes=256", "02727bcdc5cdfa177354c026fdd6b730fa68d78f4d46b13ae7a14c4347bba90b"},
}

func TestBatchPlanEncodingPinned(t *testing.T) {
	c := mustGen(t, "s13207")
	faults := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), 500, 1)
	got := make(map[string]string)
	digest := func(p *sim.BatchPlan) string {
		sum := sha256.Sum256(codec.EncodeBatchPlan(c, p))
		return hex.EncodeToString(sum[:])
	}
	for _, lanes := range []int{1, 64, 256} {
		for _, scan := range []bool{false, true} {
			p := sim.PlanBatches(c, faults, sim.BatchOptions{MaxLanes: lanes, ScanOrder: scan})
			got[fmt.Sprintf("stuck lanes=%d scan=%t", lanes, scan)] = digest(p)
		}
	}
	all := sim.TransitionFaultList(c)
	tfaults := make([]sim.TransitionFault, 500)
	for i := range tfaults {
		tfaults[i] = all[i*len(all)/len(tfaults)]
	}
	got["transition lanes=256"] = digest(sim.PlanTransitionBatches(c, tfaults, sim.BatchOptions{}))

	for _, pin := range pinnedPlanDigests {
		if got[pin.name] != pin.sha256 {
			t.Errorf("%s: encoded plan sha256 %s, pinned %s", pin.name, got[pin.name], pin.sha256)
		}
	}
}
