package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/soc"
)

// faultListDigest hashes a fault list field by field (Net, Gate, Pin,
// Stuck, in list order), so a pin catches a reordered list as well as a
// changed set.
func faultListDigest(faults []sim.Fault) string {
	h := sha256.New()
	var buf [13]byte
	for _, f := range faults {
		binary.LittleEndian.PutUint32(buf[0:], uint32(f.Net))
		binary.LittleEndian.PutUint32(buf[4:], uint32(f.Gate))
		binary.LittleEndian.PutUint32(buf[8:], uint32(int32(f.Pin)))
		buf[12] = f.Stuck
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedFaultLists are the sha256 digests of the collapsed fault list of
// every benchgen profile and of every core of the SOC presets. Sweeps
// sample these lists by position, so a changed digest changes every
// study downstream.
var pinnedFaultLists = map[string]string{
	"s1196":         "b75adbc397efac9e4b73f5a3bf9363d463e0d77354222b98c755db2ee105da02",
	"s13207":        "82a31a1a953e5669ce7bc591c131de64063e0e45833fcaf169c3ac1065b7b252",
	"s1423":         "8581f2df6ea7ebad00997392d23c59d96dd2c656f39c09aa40649457c8b43c91",
	"s15850":        "1870cff583117450e233486580a77f1aad866f225977a1a8281d1c2cf1e13beb",
	"s27":           "d1d858b6aee46f4425bffbc3cdb28046fc50a6460a467c7160ba8d87343261eb",
	"s298":          "f8b23d9cf782feb1f2bcdc016deab025517675e6bd41293c329678f7b2107d0b",
	"s344":          "d9fc60d4e6cc7b762b106c941e9e13a21336afd158e1345113c3da34d746e26b",
	"s35932":        "fe197c6f0d0ec3b3d26dde93897655fa8b08ed5146d5c057565d0013bd9b8d0b",
	"s38417":        "dc4113827e5accf752cb36539f8aa104b53897ce9a86979c2d78eeb1cc28d1da",
	"s38584":        "404a43fc2ddaedb0b8a04087c70bde4b5fc4e3f95aa5caf67a79bde29276a479",
	"s420":          "abe4a73dcd41c752b31e2596f4385cb53658b40bbae74b522712a80d8b46b015",
	"s526":          "333f6b8ce5710af2008eb78d47a5788e546e74a61d05cafe19b9db5a35f6d453",
	"s5378":         "8bfe95ccc84ab2fe344b7df6023042a0e11b57bc74e7b7dd9570f8fa2afce504",
	"s641":          "9dcf3445905e9aa4430b16d9bc3b7bbed0fc915f1ab84765353c319062fc9ced",
	"s838":          "8189e9974e94dcf875191758e5f0f474d472db4e0a36818b85a2a50b964abaae",
	"s9234":         "a6fb18795cc6317b5f41a1217acdf1bc69bf560145ac956ce9d336a379768b65",
	"s953":          "1cf0f19611e0aae808ddf6a93bc0d8de30612db37ab48ce953e0e4b0156bbe68",
	"soc1/core0":    "8bfe95ccc84ab2fe344b7df6023042a0e11b57bc74e7b7dd9570f8fa2afce504",
	"soc1/core1":    "a6fb18795cc6317b5f41a1217acdf1bc69bf560145ac956ce9d336a379768b65",
	"soc1/core2":    "82a31a1a953e5669ce7bc591c131de64063e0e45833fcaf169c3ac1065b7b252",
	"soc1/core3":    "1870cff583117450e233486580a77f1aad866f225977a1a8281d1c2cf1e13beb",
	"soc1/core4":    "dc4113827e5accf752cb36539f8aa104b53897ce9a86979c2d78eeb1cc28d1da",
	"soc1/core5":    "404a43fc2ddaedb0b8a04087c70bde4b5fc4e3f95aa5caf67a79bde29276a479",
	"socmini/core0": "f8b23d9cf782feb1f2bcdc016deab025517675e6bd41293c329678f7b2107d0b",
	"socmini/core1": "1cf0f19611e0aae808ddf6a93bc0d8de30612db37ab48ce953e0e4b0156bbe68",
	"socmini/core2": "333f6b8ce5710af2008eb78d47a5788e546e74a61d05cafe19b9db5a35f6d453",
}

// collapsedLists returns the circuits the pins cover, keyed by profile
// name or "<preset>/core<i>".
func collapsedLists(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := make(map[string]*circuit.Circuit)
	for _, p := range benchgen.Profiles() {
		c, err := benchgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p.Name] = c
	}
	for _, preset := range []string{"socmini", "soc1"} {
		s, err := soc.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for i, core := range s.Cores {
			out[fmt.Sprintf("%s/core%d", preset, i)] = core.Circuit
		}
	}
	return out
}

// TestCollapsedFaultListsPinned pins the collapsed stuck-at fault list of
// every profile and SOC core.
func TestCollapsedFaultListsPinned(t *testing.T) {
	lists := collapsedLists(t)
	if len(lists) != len(pinnedFaultLists) {
		t.Errorf("%d circuits, %d pins", len(lists), len(pinnedFaultLists))
	}
	for name, c := range lists {
		got := faultListDigest(sim.CollapsedFaults(c))
		if want, ok := pinnedFaultLists[name]; !ok || got != want {
			t.Errorf("%s: collapsed fault list digest %s, pinned %s", name, got, want)
		}
	}
}
