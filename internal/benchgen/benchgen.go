// Package benchgen generates synthetic sequential benchmark circuits that
// stand in for the ISCAS-89 netlists, which cannot be redistributed here.
// Each named profile matches the published PI/PO/FF/gate counts of the
// corresponding ISCAS-89 circuit, and the generator enforces the structural
// property the paper's diagnosis technique exploits: locality. The
// next-state cone of flip-flop i draws its leaves mostly from flip-flops in
// a window around i and shares logic with neighbouring cones, so a stuck-at
// fault reaches a *contiguous run* of scan cells (the clustered
// failing-cell distribution of the paper's Section 3), with a small
// long-range fraction so clustering is a tendency, not a law.
//
// Generation is fully deterministic: a profile plus its seed always yields
// the identical netlist, so every experiment in EXPERIMENTS.md is
// bit-reproducible.
package benchgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Profile describes a circuit to generate. Counts mirror the ISCAS-89
// publication data; the remaining knobs control structure.
type Profile struct {
	Name    string
	Inputs  int
	Outputs int
	DFFs    int
	Gates   int

	// Window is the half-width, in scan positions, of the locality window a
	// flip-flop's next-state cone draws from. 0 selects an automatic value
	// scaled to the flip-flop count.
	Window int
	// ShareP is the probability that a cone leaf reuses a gate from a
	// neighbouring cone (creates multi-cell fault cones). Zero selects the
	// default 0.4.
	ShareP float64
	// LongP is the probability of a long-range (anywhere) leaf. Zero
	// selects the default 0.08.
	LongP float64
	// Hubs is the number of regional hub subcircuits: wide-fan-out trees
	// (clock-enable/control-style logic) whose faults reach a large
	// contiguous region of the scan chain. Real circuits owe their
	// large-cone faults to such signals; without them every fault fails a
	// handful of cells and partition-based diagnosis is trivially easy.
	// Zero selects an automatic count scaled to the flip-flop count; -1
	// disables hubs.
	Hubs int
	// HubReach is the half-width, in scan positions, of a hub's region.
	// Zero selects an automatic value.
	HubReach int
	// HubRate is the probability that an eligible cone leaf taps an
	// in-range hub. Zero selects the default 0.25.
	HubRate float64
	// Seed drives the deterministic generator. Zero selects a seed derived
	// from the name so distinct profiles differ.
	Seed int64
}

func (p Profile) String() string {
	return fmt.Sprintf("%s{%d PI, %d PO, %d FF, %d gates}", p.Name, p.Inputs, p.Outputs, p.DFFs, p.Gates)
}

// profiles matches the published ISCAS-89 benchmark statistics
// (inputs, outputs, flip-flops, combinational gates).
var profiles = []Profile{
	{Name: "s27", Inputs: 4, Outputs: 1, DFFs: 3, Gates: 10},
	{Name: "s298", Inputs: 3, Outputs: 6, DFFs: 14, Gates: 119},
	{Name: "s344", Inputs: 9, Outputs: 11, DFFs: 15, Gates: 160},
	{Name: "s420", Inputs: 18, Outputs: 1, DFFs: 16, Gates: 218},
	{Name: "s526", Inputs: 3, Outputs: 6, DFFs: 21, Gates: 193},
	{Name: "s641", Inputs: 35, Outputs: 24, DFFs: 19, Gates: 379},
	{Name: "s838", Inputs: 34, Outputs: 1, DFFs: 32, Gates: 446},
	{Name: "s953", Inputs: 16, Outputs: 23, DFFs: 29, Gates: 395},
	{Name: "s1196", Inputs: 14, Outputs: 14, DFFs: 18, Gates: 529},
	{Name: "s1423", Inputs: 17, Outputs: 5, DFFs: 74, Gates: 657},
	{Name: "s5378", Inputs: 35, Outputs: 49, DFFs: 179, Gates: 2779},
	{Name: "s9234", Inputs: 36, Outputs: 39, DFFs: 211, Gates: 5597},
	{Name: "s13207", Inputs: 62, Outputs: 152, DFFs: 638, Gates: 7951},
	{Name: "s15850", Inputs: 77, Outputs: 150, DFFs: 534, Gates: 9772},
	{Name: "s35932", Inputs: 35, Outputs: 320, DFFs: 1728, Gates: 16065},
	{Name: "s38417", Inputs: 28, Outputs: 106, DFFs: 1636, Gates: 22179},
	{Name: "s38584", Inputs: 38, Outputs: 304, DFFs: 1426, Gates: 19253},
}

// Profiles returns the built-in profile table sorted by name.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProfileByName looks up a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// SixLargest returns the profiles of the six largest ISCAS-89 circuits in
// the order the paper's Table 2 lists them.
func SixLargest() []string {
	return []string{"s5378", "s9234", "s13207", "s15850", "s38417", "s38584"}
}

// Scale returns the profile with its structural dimensions (inputs,
// outputs, flip-flops, gates) multiplied by k, for generating circuits
// beyond the ISCAS-89 range — e.g. kernel benchmarking at SOC sizes. The
// name gains an "xk" suffix so downstream artifact keys and reports
// distinguish scaled variants; the generator's derived knobs (cone
// window, hub count and reach) re-derive from the scaled flip-flop count.
// k <= 1 returns the profile unchanged.
func (p Profile) Scale(k int) Profile {
	if k <= 1 {
		return p
	}
	p.Name = fmt.Sprintf("%sx%d", p.Name, k)
	p.Inputs *= k
	p.Outputs *= k
	p.DFFs *= k
	p.Gates *= k
	return p
}

func (p Profile) withDefaults() Profile {
	if p.Window == 0 {
		p.Window = p.DFFs / 40
		if p.Window < 2 {
			p.Window = 2
		}
		if p.Window > 24 {
			p.Window = 24
		}
	}
	if p.ShareP == 0 {
		p.ShareP = 0.4
	}
	if p.LongP == 0 {
		p.LongP = 0.08
	}
	if p.Hubs == 0 {
		p.Hubs = p.DFFs / 50
		if p.Hubs < 2 {
			p.Hubs = 2
		}
		if p.Hubs > 20 {
			p.Hubs = 20
		}
	}
	if p.Hubs < 0 {
		p.Hubs = 0
	}
	if p.HubReach == 0 {
		p.HubReach = p.DFFs / 8
		if p.HubReach < 6 {
			p.HubReach = 6
		}
	}
	if p.HubRate == 0 {
		p.HubRate = 0.25
	}
	if p.Seed == 0 {
		var h int64 = 1469598103934665603
		for _, c := range p.Name {
			h = (h ^ int64(c)) * 1099511628211
		}
		p.Seed = h&0x7fffffff | 1
	}
	return p
}

// Generate builds the circuit described by the profile.
func Generate(p Profile) (*circuit.Circuit, error) {
	p = p.withDefaults()
	if p.Inputs < 1 || p.DFFs < 1 || p.Outputs < 1 {
		return nil, fmt.Errorf("benchgen %s: need at least one input, output and flip-flop", p.Name)
	}
	nCones := p.DFFs + p.Outputs
	if p.Gates < nCones {
		return nil, fmt.Errorf("benchgen %s: %d gates cannot populate %d cones", p.Name, p.Gates, nCones)
	}
	g := &gen{
		p:   p,
		rng: rand.New(rand.NewSource(p.Seed)),
		b:   circuit.NewBuilder(p.Name),
	}
	return g.run()
}

// MustGenerate generates the named built-in profile, panicking on failure;
// it only fails if the profile table itself is broken.
func MustGenerate(name string) *circuit.Circuit {
	p, ok := ProfileByName(name)
	if !ok {
		panic(fmt.Sprintf("benchgen: unknown profile %q", name))
	}
	c, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return c
}

type gen struct {
	p    Profile
	rng  *rand.Rand
	b    *circuit.Builder
	next int // gate name counter

	inputNames, ffNames, gateNames []string

	inputs []circuit.NetID
	// ffs holds each flip-flop's NetID once the flip-flop has one. Until
	// its first use it holds the tag ^i (negative), so leaf references
	// to it are resolved by net when the referencing gate is emitted.
	ffs []circuit.NetID
	// shared lists, cone after cone, the shareable gates each flip-flop
	// cone created; cone i's run ends at sharedEnd[i].
	shared    []circuit.NetID
	sharedEnd []int
	consumed  []bool // per NetID: shareable gate already reused by another cone
	hubs      []hub
	mustHub   [][]circuit.NetID // per cone index, the hub roots it must tap

	fanin []circuit.NetID // one gate's fan-in, leaf references unresolved
}

// hub is a regional wide-fan-out subcircuit: cones within HubReach of
// center may (and its designated cone must) tap root.
type hub struct {
	center int
	root   circuit.NetID
}

// numbered returns the names prefix0 … prefix(n-1) as substrings of one
// string.
func numbered(prefix byte, n int) []string {
	buf := make([]byte, 0, n*(2+len(strconv.Itoa(n))))
	ends := make([]int, n)
	for i := range ends {
		buf = append(buf, prefix)
		buf = strconv.AppendInt(buf, int64(i), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i] = all[start:end]
		start = end
	}
	return names
}

// net resolves a leaf reference to its NetID. A flip-flop gets its NetID
// at its first use, so it is numbered where a name-based build would
// first have referenced it.
func (g *gen) net(ref circuit.NetID) circuit.NetID {
	if ref >= 0 {
		return ref
	}
	i := ^ref
	if g.ffs[i] < 0 {
		g.ffs[i] = g.b.Reserve(g.ffNames[i])
	}
	return g.ffs[i]
}

// emit numbers the next gate, then the flip-flops its fan-in uses for the
// first time, in fan-in order, and drives the gate.
func (g *gen) emit(op logic.Op, fanin []circuit.NetID) circuit.NetID {
	id := g.b.Reserve(g.gateNames[g.next])
	g.next++
	for i, ref := range fanin {
		fanin[i] = g.net(ref)
	}
	g.b.Drive(id, op, fanin...)
	return id
}

func (g *gen) run() (*circuit.Circuit, error) {
	p := g.p
	g.inputNames = numbered('I', p.Inputs)
	g.ffNames = numbered('F', p.DFFs)
	// Hub trees and cones together emit exactly p.Gates gates.
	g.gateNames = numbered('G', p.Gates)
	nets := p.Inputs + p.DFFs + p.Gates
	g.b.Grow(nets)
	g.consumed = make([]bool, nets)
	g.inputs = make([]circuit.NetID, p.Inputs)
	for i := range g.inputs {
		g.inputs[i] = g.b.Reserve(g.inputNames[i])
		g.b.Drive(g.inputs[i], logic.OpInput)
	}
	g.ffs = make([]circuit.NetID, p.DFFs)
	for i := range g.ffs {
		g.ffs[i] = ^circuit.NetID(i)
	}
	g.sharedEnd = make([]int, 0, p.DFFs)

	// Regional hub subcircuits first: each is a pure tree anchored at an
	// evenly spaced chain position, later tapped by state cones within
	// HubReach. Hubs take ~15% of the gate budget.
	coneBudget := p.Gates
	if p.Hubs > 0 {
		perHub := p.Gates * 15 / 100 / p.Hubs
		if perHub < 1 {
			perHub = 1
		}
		// Never starve the cones below one gate each.
		for perHub > 1 && p.Gates-p.Hubs*perHub < p.DFFs+p.Outputs {
			perHub--
		}
		if p.Gates-p.Hubs*perHub >= p.DFFs+p.Outputs {
			for h := 0; h < p.Hubs; h++ {
				center := (2*h + 1) * p.DFFs / (2 * p.Hubs)
				root := g.hubTree(center, perHub)
				g.hubs = append(g.hubs, hub{center: center, root: root})
				coneBudget -= perHub
			}
		}
	}

	// Distribute the remaining gate budget over the flip-flop and output
	// cones, weighting flip-flop cones heavier (they carry the state
	// logic).
	budgets := splitBudget(coneBudget, p.DFFs, p.Outputs, g.rng)

	// Every hub must have at least one subscriber or its tree would be dead
	// logic: designate the nearest state cone with room for a tap.
	g.mustHub = make([][]circuit.NetID, p.DFFs)
	for _, h := range g.hubs {
		if i := nearestWithRoom(h.center, budgets[:p.DFFs]); i >= 0 {
			g.mustHub[i] = append(g.mustHub[i], h.root)
		}
	}

	for i := 0; i < p.DFFs; i++ {
		root := g.cone(i, budgets[i], true)
		g.sharedEnd = append(g.sharedEnd, len(g.shared))
		ff := g.net(^circuit.NetID(i))
		g.b.Drive(ff, logic.OpDFF, g.net(root))
	}
	for j := 0; j < p.Outputs; j++ {
		// Anchor output j near scan position j*DFFs/Outputs so output cones
		// share the same locality structure. Output cones never consume
		// shared gates: reuse by an output does not spread a fault across
		// scan cells, so the shared pool is reserved for state cones.
		center := j * p.DFFs / p.Outputs
		root := g.cone(center, budgets[p.DFFs+j], false)
		g.b.MarkOutput(g.net(root))
	}
	return g.b.Build()
}

// nearestWithRoom returns the index closest to center whose budget leaves
// room for a hub tap (a non-pure gate exists only when the budget is at
// least 2), or -1 if none exists.
func nearestWithRoom(center int, budgets []int) int {
	n := len(budgets)
	if center < 0 {
		center = 0
	}
	if center > n-1 {
		center = n - 1
	}
	for d := 0; d < n; d++ {
		if i := center + d; i < n && budgets[i] >= 2 {
			return i
		}
		if i := center - d; i >= 0 && budgets[i] >= 2 {
			return i
		}
	}
	return -1
}

// splitBudget deterministically apportions total gates into dffs+outs cone
// budgets, each at least 1, flip-flop cones receiving twice the weight of
// output cones.
func splitBudget(total, dffs, outs int, rng *rand.Rand) []int {
	n := dffs + outs
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 1
	}
	remaining := total - n
	weights := make([]int, n)
	wsum := 0
	for i := range weights {
		w := 1
		if i < dffs {
			w = 2
		}
		weights[i] = w
		wsum += w
	}
	for i := range budgets {
		share := remaining * weights[i] / wsum
		budgets[i] += share
	}
	// Distribute the rounding remainder at random but deterministically.
	used := 0
	for _, b := range budgets {
		used += b
	}
	for used < total {
		budgets[rng.Intn(n)]++
		used++
	}
	return budgets
}

// opWeights biases gate selection toward the NAND/NOR-heavy mix of the
// ISCAS circuits.
var opChoices = []struct {
	op logic.Op
	w  int
}{
	{logic.OpNand, 25},
	{logic.OpNor, 18},
	{logic.OpAnd, 16},
	{logic.OpOr, 14},
	{logic.OpNot, 12},
	{logic.OpBuf, 5},
	{logic.OpXor, 5},
	{logic.OpXnor, 5},
}

func (g *gen) pickOp(minFanin int) logic.Op {
	total := 0
	for _, c := range opChoices {
		if maxF := c.op.MaxInputs(); maxF >= 0 && maxF < minFanin {
			continue
		}
		total += c.w
	}
	r := g.rng.Intn(total)
	for _, c := range opChoices {
		if maxF := c.op.MaxInputs(); maxF >= 0 && maxF < minFanin {
			continue
		}
		if r < c.w {
			return c.op
		}
		r -= c.w
	}
	return logic.OpNand
}

// cone emits exactly budget gates forming a single-rooted DAG whose leaves
// come from the locality window around scan position center. It returns the
// root net; a state cone also appends the gates it created that may be
// shared with neighbouring cones to g.shared. Every created gate has a path
// to the root, so no logic is dead.
//
// Only the first third of a cone's gates — those built exclusively from
// window flip-flops and primary inputs — are offered for sharing, and gates
// that consume shared logic are never re-shared. This breaks transitive
// sharing chains, so the fan-out cone of any combinational gate is bounded
// by the locality window rather than percolating across the scan chain.
func (g *gen) cone(center, budget int, isState bool) (root circuit.NetID) {
	if budget == 0 {
		return g.leaf(center, false)
	}
	pure := budget * 3 / 5
	if pure < 1 {
		pure = 1
	}
	if pure == budget && budget > 1 {
		pure = budget - 1
	}
	var mustUse []circuit.NetID
	if isState {
		mustUse = g.mustHub[center]
	}
	var open []circuit.NetID // gates awaiting fan-out within this cone
	for t := 0; t < budget; t++ {
		rem := budget - 1 - t
		// Consume enough open gates that the remaining budget can always
		// converge to a single root (each later gate can absorb at most 3
		// net opens).
		cMin := len(open) - 3*rem
		if cMin < 0 {
			cMin = 0
		}
		if rem == 0 {
			cMin = len(open)
		}
		c := cMin
		if extra := len(open) - c; extra > 0 && rem > 0 {
			c += g.rng.Intn(min(extra, 2) + 1)
		}
		// A pending mandatory hub tap reserves one extra fan-in slot so the
		// hub is guaranteed to be consumed before the cone closes.
		minFanin := c
		if isState && t >= pure && len(mustUse) > 0 {
			reserve := len(mustUse)
			if reserve > 3 {
				reserve = 3
			}
			minFanin = c + reserve
		}
		if minFanin == 0 {
			minFanin = 1
		}
		op := g.pickOp(minFanin)
		fanin := g.faninCount(op, minFanin)
		inputs := g.fanin[:0]
		// Consume the most recently opened gates to create depth.
		for i := 0; i < c; i++ {
			inputs = append(inputs, open[len(open)-1])
			open = open[:len(open)-1]
		}
		allowShare := isState && t >= pure
		for len(inputs) < fanin {
			var l circuit.NetID
			if allowShare && len(mustUse) > 0 {
				l, mustUse = mustUse[0], mustUse[1:]
			} else {
				l = g.leaf(center, allowShare)
			}
			if (op == logic.OpXor || op == logic.OpXnor) && len(inputs) > 0 && inputs[len(inputs)-1] == l {
				continue // XOR(a,a) is a constant; retry the leaf
			}
			inputs = append(inputs, l)
		}
		g.fanin = inputs
		id := g.emit(op, inputs)
		open = append(open, id)
		if isState && !allowShare {
			g.shared = append(g.shared, id)
		}
	}
	return open[0]
}

// faninCount picks a fan-in for op that is at least atLeast and at least
// the op's minimum.
func (g *gen) faninCount(op logic.Op, atLeast int) int {
	n := atLeast
	if m := op.MinInputs(); n < m {
		n = m
	}
	if n < 1 {
		n = 1
	}
	if maxF := op.MaxInputs(); maxF == 1 {
		return 1
	}
	if n < 2 {
		n = 2
	}
	// Geometric tail up to 4 unless forced wider by open consumption.
	for n < 4 && g.rng.Float64() < 0.25 {
		n++
	}
	return n
}

// leaf picks a signal feeding a cone anchored at scan position center:
// mostly window flip-flops, some shared neighbour-cone gates (when
// allowShare is set), some primary inputs, and a small long-range fraction.
// A flip-flop comes back as g.ffs holds it, which may still be its tag.
func (g *gen) leaf(center int, allowShare bool) circuit.NetID {
	p := g.p
	if allowShare && len(g.hubs) > 0 && g.rng.Float64() < p.HubRate {
		if id, ok := g.hubTap(center); ok {
			return id
		}
	}
	r := g.rng.Float64()
	if r < p.ShareP {
		if allowShare {
			if id, ok := g.sharedGate(center); ok {
				return id
			}
		}
		r = 1 // fall through to the window case
	}
	switch {
	case r < p.ShareP+p.LongP:
		return g.ffs[g.rng.Intn(len(g.ffs))]
	case r < p.ShareP+p.LongP+0.22:
		return g.inputs[g.rng.Intn(len(g.inputs))]
	default:
		lo := center - p.Window
		hi := center + p.Window
		if lo < 0 {
			lo = 0
		}
		if hi > len(g.ffs)-1 {
			hi = len(g.ffs) - 1
		}
		return g.ffs[lo+g.rng.Intn(hi-lo+1)]
	}
}

// hubTree emits exactly budget gates as a shallow, wide tree: a first level
// of mixed-function gates over pure window leaves, folded through XOR
// combiners into a single root. The XOR spine keeps every internal fault
// observable at the root (parity-network-style control logic), so hub
// faults are detectable by random patterns despite the tree's size.
func (g *gen) hubTree(center, budget int) (root circuit.NetID) {
	// foldCost is the number of XOR combiners needed to reduce m nodes to
	// one with fan-in ≤ 6.
	foldCost := func(m int) int {
		cost := 0
		for m > 1 {
			m = (m + 5) / 6
			cost += m
		}
		return cost
	}
	var level []circuit.NetID
	used := 0
	// First level: mixed-function gates over pure window leaves, as many as
	// the budget affords while still paying for the fold.
	for used+1+foldCost(len(level)+1) <= budget {
		op := g.pickOp(2)
		fanin := g.faninCount(op, 2)
		inputs := g.fanin[:0]
		for len(inputs) < fanin {
			l := g.leaf(center, false)
			if (op == logic.OpXor || op == logic.OpXnor) && len(inputs) > 0 && inputs[len(inputs)-1] == l {
				continue
			}
			inputs = append(inputs, l)
		}
		g.fanin = inputs
		level = append(level, g.emit(op, inputs))
		used++
	}
	if len(level) == 0 {
		g.fanin = append(g.fanin[:0], g.leaf(center, false))
		level = append(level, g.emit(logic.OpBuf, g.fanin))
		used++
	}
	// Fold to a single root through XOR combiners.
	for len(level) > 1 {
		var next []circuit.NetID
		for start := 0; start < len(level); start += 6 {
			end := start + 6
			if end > len(level) {
				end = len(level)
			}
			if end-start == 1 {
				next = append(next, level[start])
				continue
			}
			next = append(next, g.emit(logic.OpXor, level[start:end]))
			used++
		}
		level = next
	}
	// Exactness: pad any leftover budget with a buffer chain on the root.
	root = level[0]
	for used < budget {
		g.fanin = append(g.fanin[:0], root)
		root = g.emit(logic.OpBuf, g.fanin)
		used++
	}
	return root
}

// hubTap returns the root of a hub whose region covers the cone anchored at
// center, if any. It counts the hubs in range, draws one index, then finds
// that hub, so it builds no candidate list.
func (g *gen) hubTap(center int) (circuit.NetID, bool) {
	inRange := func(h hub) bool {
		d := center - h.center
		if d < 0 {
			d = -d
		}
		return d <= g.p.HubReach
	}
	n := 0
	for _, h := range g.hubs {
		if inRange(h) {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	k := g.rng.Intn(n)
	for _, h := range g.hubs {
		if inRange(h) {
			if k == 0 {
				return h.root, true
			}
			k--
		}
	}
	return 0, false // unreachable: k < n
}

// sharedGate returns a gate from a previously built cone within the window,
// creating the cross-cone fan-out that turns gate faults into multi-cell
// clustered failures. Not-yet-reused gates are preferred so sharing spreads
// over many gates instead of piling fan-out on a few: the pick is uniform
// over the fresh gates of the window, or over all of them when none is
// fresh. The window's cones are one contiguous run of g.shared, which is
// counted and then indexed, so no candidate list is built.
func (g *gen) sharedGate(center int) (circuit.NetID, bool) {
	lo := center - g.p.Window
	if lo < 0 {
		lo = 0
	}
	hi := center
	if hi > len(g.sharedEnd) {
		hi = len(g.sharedEnd)
	}
	if lo >= hi {
		return 0, false
	}
	window := g.shared[g.coneStart(lo):g.sharedEnd[hi-1]]
	fresh := 0
	for _, id := range window {
		if !g.consumed[id] {
			fresh++
		}
	}
	var id circuit.NetID
	switch {
	case fresh > 0:
		k := g.rng.Intn(fresh)
		for _, cand := range window {
			if !g.consumed[cand] {
				if k == 0 {
					id = cand
					break
				}
				k--
			}
		}
	case len(window) > 0:
		id = window[g.rng.Intn(len(window))]
	default:
		return 0, false
	}
	g.consumed[id] = true
	return id, true
}

// coneStart is where flip-flop cone i's shareable gates begin in g.shared.
func (g *gen) coneStart(i int) int {
	if i == 0 {
		return 0
	}
	return g.sharedEnd[i-1]
}
