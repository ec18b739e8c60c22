package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// The map-keyed collapse and the comparison-sorted record order that the
// dense-slot and counting-sort implementations replaced, kept as the
// references the production paths are pinned to.

func refCollapseFaults(c *circuit.Circuit, faults []Fault) []Fault {
	idx := make(map[Fault]int, len(faults))
	for i, f := range faults {
		idx[f] = i
	}
	parent := make([]int, len(faults))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b Fault) {
		ia, oka := idx[a]
		ib, okb := idx[b]
		if !oka || !okb {
			return
		}
		ra, rb := find(ia), find(ib)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	inputFault := func(g circuit.NetID, pin int, v uint8) Fault {
		src := c.Nets[g].Fanin[pin]
		if len(c.Fanout(src)) > 1 {
			return Fault{Net: src, Gate: g, Pin: pin, Stuck: v}
		}
		return Fault{Net: src, Gate: -1, Pin: -1, Stuck: v}
	}
	for id := range c.Nets {
		g := circuit.NetID(id)
		n := &c.Nets[id]
		out := func(v uint8) Fault { return Fault{Net: g, Gate: -1, Pin: -1, Stuck: v} }
		switch n.Op {
		case logic.OpBuf:
			union(inputFault(g, 0, 0), out(0))
			union(inputFault(g, 0, 1), out(1))
		case logic.OpNot:
			union(inputFault(g, 0, 0), out(1))
			union(inputFault(g, 0, 1), out(0))
		case logic.OpAnd:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 0), out(0))
			}
		case logic.OpNand:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 0), out(1))
			}
		case logic.OpOr:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 1), out(1))
			}
		case logic.OpNor:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 1), out(0))
			}
		}
	}
	var out []Fault
	for i, f := range faults {
		if find(i) == i {
			out = append(out, f)
		}
	}
	return out
}

func refOrderRecords(tmp []tmpGate) ([]bgate, []opRun) {
	tmp = slices.Clone(tmp)
	sort.SliceStable(tmp, func(i, j int) bool {
		if tmp[i].depth != tmp[j].depth {
			return tmp[i].depth < tmp[j].depth
		}
		return tmp[i].op < tmp[j].op
	})
	gates := make([]bgate, len(tmp))
	for i, t := range tmp {
		gates[i] = bgate{a: t.a, b: t.b, out: t.out}
	}
	var runs []opRun
	for i := 0; i < len(tmp); {
		j := i + 1
		for j < len(tmp) && tmp[j].op == tmp[i].op {
			j++
		}
		runs = append(runs, opRun{start: int32(i), end: int32(j), op: tmp[i].op})
		i = j
	}
	return gates, runs
}

func checkCollapse(t *testing.T, name string, c *circuit.Circuit, faults []Fault) {
	t.Helper()
	got, want := CollapseFaults(c, faults), refCollapseFaults(c, faults)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: CollapseFaults kept %d faults, map reference %d (first difference at %d)",
			name, len(got), len(want), firstDiff(got, want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: CollapseFaults returned %d faults in a slice of capacity %d, want it sized exactly", name, len(got), cap(got))
	}
}

func firstDiff(a, b []Fault) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// foreignFaults returns faults that name no fault of c's list: nets, gates
// and pins out of range, stuck values above 1, malformed stems, and branch
// faults whose Net is not the gate's fan-in at Pin.
func foreignFaults(c *circuit.Circuit, rng *rand.Rand) []Fault {
	n := circuit.NetID(c.NumNets())
	out := []Fault{
		{Net: -1, Gate: -1, Pin: -1},
		{Net: n, Gate: -1, Pin: -1, Stuck: 1},
		{Net: 0, Gate: -1, Pin: 0},
		{Net: 0, Gate: -2, Pin: -1},
		{Net: 0, Gate: -1, Pin: -1, Stuck: 2},
		{Net: 0, Gate: n, Pin: 0},
		{Net: 0, Gate: 0, Pin: -3},
	}
	for len(out) < 64 {
		g := circuit.NetID(rng.Intn(int(n)))
		fanin := c.Nets[g].Fanin
		if len(fanin) == 0 {
			continue
		}
		pin := rng.Intn(len(fanin))
		out = append(out,
			Fault{Net: fanin[pin], Gate: g, Pin: len(fanin) + pin, Stuck: uint8(pin & 1)},
			Fault{Net: (fanin[pin] + 1) % n, Gate: g, Pin: pin, Stuck: uint8(pin & 1)},
			Fault{Net: fanin[pin], Gate: g, Pin: pin, Stuck: 3})
	}
	return out
}

// TestCollapseFaultsMatchesMap pins the dense-slot collapse to the
// map-keyed reference on the full fault list of every generated profile:
// in list order, shuffled, with duplicates (the last occurrence is the one
// the rules can merge) and with foreign faults mixed in.
func TestCollapseFaultsMatchesMap(t *testing.T) {
	for _, p := range benchgen.Profiles() {
		if testing.Short() && p.Gates > 3000 {
			continue
		}
		c, err := benchgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(p.Name))))
		full := FullFaultList(c)
		checkCollapse(t, p.Name+" full", c, full)

		shuffled := slices.Clone(full)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		checkCollapse(t, p.Name+" shuffled", c, shuffled)

		dups := slices.Clone(shuffled)
		for i := 0; i < len(full)/4; i++ {
			dups = append(dups, full[rng.Intn(len(full))])
		}
		rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
		checkCollapse(t, p.Name+" duplicates", c, dups)

		mixed := append(slices.Clone(dups), foreignFaults(c, rng)...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		checkCollapse(t, p.Name+" foreign", c, mixed)
	}
}

// checkCollapsed pins CollapsedFaults to the two-step collapse it
// replaces, CollapseFaults over FullFaultList.
func checkCollapsed(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	got, want := CollapsedFaults(c), CollapseFaults(c, FullFaultList(c))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: CollapsedFaults kept %d faults, CollapseFaults over the full list %d (first difference at %d)",
			name, len(got), len(want), firstDiff(got, want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: CollapsedFaults returned %d faults in a slice of capacity %d, want it sized exactly", name, len(got), cap(got))
	}
}

// TestCollapsedFaultsMatchCollapse pins the netlist-direct collapse to
// CollapseFaults over the full fault list on every generated profile.
func TestCollapsedFaultsMatchCollapse(t *testing.T) {
	for _, p := range benchgen.Profiles() {
		c, err := benchgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		checkCollapsed(t, p.Name, c)
	}
}

// fuzzOps are the ops a fuzzed netlist draws from: every op a net can be
// driven by.
var fuzzOps = []logic.Op{
	logic.OpInput, logic.OpDFF, logic.OpBuf, logic.OpNot, logic.OpAnd, logic.OpNand,
	logic.OpOr, logic.OpNor, logic.OpXor, logic.OpXnor, logic.OpConst0, logic.OpConst1,
}

// fuzzNetlist decodes bytes into a small acyclic netlist. Net 0 is an
// input; then each 5-byte record (op, count, r0, r1, r2) drives one more
// net with fuzzOps[op] over count-derived fan-in (within the op's arity)
// read from nets r0, r1, r2 modulo the nets before it. Inputs and
// constants get no fan-in, equal references put one net on two pins of a
// gate, and any net read more than once is a fan-out stem.
func fuzzNetlist(t *testing.T, data []byte) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("fuzz")
	b.Drive(b.Reserve("n0"), logic.OpInput)
	for n := 1; len(data) >= 5 && n <= 64; data, n = data[5:], n+1 {
		op := fuzzOps[int(data[0])%len(fuzzOps)]
		k := op.MinInputs()
		if op.MaxInputs() < 0 {
			k += int(data[1]) % (4 - k) // up to the record's three references
		}
		fanin := make([]circuit.NetID, k)
		for j := range fanin {
			fanin[j] = circuit.NetID(int(data[2+j]) % n)
		}
		b.Drive(b.Reserve(fmt.Sprintf("n%d", n)), op, fanin...)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("fuzz netlist: %v", err)
	}
	return c
}

var fuzzCollapseCircuit = sync.OnceValue(func() *circuit.Circuit { return benchgen.MustGenerate("s298") })

// FuzzCollapseFaults runs two arms on every input. The first decodes the
// bytes into a fault list over s298 — real faults (repeats included),
// stems and branches with raw field values, branches with a wrong Net,
// out-of-range stuck values — and pins CollapseFaults to the map-keyed
// reference. The second decodes the same bytes into a small netlist
// (fuzzNetlist) and pins CollapsedFaults to CollapseFaults over its full
// list.
func FuzzCollapseFaults(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0xff, 0xff, 0, 0, 0, 0, 1, 4, 5, 0, 6, 0, 1, 0, 0, 5, 9, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{6, 7, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0})
	// Netlists: every op once over fanned-out inputs; gates reading one
	// net on two pins; a chain of inverters and buffers off one stem.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 2, 0, 1, 0, 0, 3, 0, 1, 0, 0,
		4, 2, 0, 1, 2, 5, 2, 1, 2, 3, 6, 1, 0, 3, 0, 7, 1, 4, 1, 0, 8, 0, 5, 6, 0, 9, 1, 6, 7, 0,
		10, 0, 0, 0, 0, 11, 0, 0, 0, 0, 1, 0, 9, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 5, 1, 1, 1, 1, 7, 2, 2, 2, 0, 8, 0, 3, 3, 0, 6, 2, 4, 1, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0, 1, 0, 0, 3, 0, 2, 0, 0, 2, 0, 3, 0, 0, 4, 1, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCollapsed(t, "fuzz netlist", fuzzNetlist(t, data))
		c := fuzzCollapseCircuit()
		full := FullFaultList(c)
		var faults []Fault
		for ; len(data) >= 8; data = data[8:] {
			a := int(binary.LittleEndian.Uint16(data[1:]))
			b := int16(binary.LittleEndian.Uint16(data[3:]))
			pin := int(int8(data[5]))
			stuck := data[6] % 4
			switch data[0] % 7 {
			case 0, 1, 2: // a fault of the list
				faults = append(faults, full[a%len(full)])
			case 3: // a stem with raw fields
				faults = append(faults, Fault{Net: circuit.NetID(b), Gate: -1, Pin: -1, Stuck: stuck})
			case 4: // a branch with raw fields
				faults = append(faults, Fault{Net: circuit.NetID(b), Gate: circuit.NetID(a) - 8, Pin: pin, Stuck: stuck})
			case 5: // a real gate pin with a possibly wrong Net
				g := circuit.NetID(a % c.NumNets())
				if fanin := c.Nets[g].Fanin; len(fanin) > 0 {
					p := int(data[5]) % len(fanin)
					faults = append(faults, Fault{Net: fanin[p] + circuit.NetID(b%3), Gate: g, Pin: p, Stuck: stuck % 2})
				}
			case 6: // a fault of the list with its stuck value replaced
				g := full[a%len(full)]
				g.Stuck = stuck
				faults = append(faults, g)
			}
		}
		checkCollapse(t, "fuzz", c, faults)
	})
}

// TestOrderRecordsMatchesStableSort pins the counting sort of compiled
// records to the stable comparison sort it replaced: same record order,
// same op runs, on random record sets with many equal keys.
func TestOrderRecordsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cs := &compileScratch{}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		maxDepth := 1 + rng.Intn(40)
		cs.tmp = cs.tmp[:0]
		for i := 0; i < n; i++ {
			cs.tmp = append(cs.tmp, tmpGate{
				a: rng.Int31(), b: rng.Int31(), out: int32(i),
				op:    uint8(rng.Intn(numBops)),
				depth: int16(1 + rng.Intn(maxDepth)),
			})
		}
		wantGates, wantRuns := refOrderRecords(cs.tmp)
		gates, runs := orderRecords(cs)
		if !slices.Equal(gates, wantGates) || !slices.Equal(runs, wantRuns) {
			t.Fatalf("trial %d (%d records, depth ≤ %d): counting sort differs from the stable sort", trial, n, maxDepth)
		}
	}
}
