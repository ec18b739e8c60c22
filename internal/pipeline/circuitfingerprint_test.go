package pipeline

import (
	"testing"

	"repro/internal/benchgen"
)

// pinnedProfileFingerprints are CircuitFingerprint of every built-in
// profile plus one scaled variant. Every circuit-keyed store entry embeds
// this string, and fault lists, plans and study digests all depend on
// the NetIDs it hashes, so generation and fingerprinting may be rewritten
// but these values may not change without a deliberate store-key
// migration.
var pinnedProfileFingerprints = []struct{ profile, fp string }{
	{"s1196", "7ff5684b8afe15f2094ca7fdb8ed63dec9da4343cbd161cf8f5d4f4756e2d36a"},
	{"s13207", "8f8688d666cfcef00f7a497a69421f34ed06dabdecd734b9a66267fc1116f162"},
	{"s1423", "33f8d0a144936c2781ebbf24526d7384543d5f69128c108a63f078a87ddcd34c"},
	{"s15850", "69687072312ec353c6530e8389059623713530bdc4c06f4408ad2a1caae5a63a"},
	{"s27", "a5115f6b62bdb09081b77ef5dd13221667b554decaf8b48176d38eca06695423"},
	{"s298", "ebc987d2f1d8dab542771d8b8b58a3072b4cd36594ac490433123799d42c15c9"},
	{"s344", "72be492251c60f71e1b48dc72fdd4c3874b592cdd46af4f8eb6d4f3e6ab91ba7"},
	{"s35932", "6fb1838991f99178927731b1a03b09b8e7baa63289524094a7c5f42cf0b9d998"},
	{"s38417", "9600f128863aff2fb938d455d4487009749dfb68af92be0d220ef30dc17e2123"},
	{"s38584", "be80bbbe5801063f43232ea10f37faad5f8e30c361e76b4dbe893485daa696ae"},
	{"s420", "593b4b0cf833b4023f84d91f263ed7da8ac949a9be31196bf1b68a92b48702bc"},
	{"s526", "175390df008ee6c60c338e45080626c91b2a76630376cd41f7740e0b80363099"},
	{"s5378", "56cf67e29b5feffb5ce59a6e0dc103c09d2acdd17f2612cad30ecb806ee16272"},
	{"s641", "9e896cb343b7bc8d6a4c6eb8e26792a44c49355e3b0c7b70ada390b3381aa7ff"},
	{"s838", "97bd671ba3427c74de8064fa82f8f870e228bf7729bdb34392472f848763259d"},
	{"s9234", "c4c5da3232ebc47e23e974a16f117f4d9d7983ffcafb77ee3d5eb0b5f0e1f3f9"},
	{"s953", "a7b49a9172ac1f5eba0a579ad6b7bd758de030dfae14e6e03413cf5d738b9646"},
	{"s13207x2", "d0cdd2cc3b1e050495a257fe365f7b32a69d782e850c5d74ca00f0b98410b32d"},
}

func TestProfileFingerprintsPinned(t *testing.T) {
	profiles := benchgen.Profiles()
	base, _ := benchgen.ProfileByName("s13207")
	profiles = append(profiles, base.Scale(2))
	if len(profiles) != len(pinnedProfileFingerprints) {
		t.Fatalf("%d profiles, %d pins: pin every new profile", len(profiles), len(pinnedProfileFingerprints))
	}
	for i, p := range profiles {
		pin := pinnedProfileFingerprints[i]
		if p.Name != pin.profile {
			t.Fatalf("profile %d is %s, pin is for %s", i, p.Name, pin.profile)
		}
		c, err := benchgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := CircuitFingerprint(c); got != pin.fp {
			t.Errorf("%s: CircuitFingerprint %s, pinned %s", p.Name, got, pin.fp)
		}
	}
}
