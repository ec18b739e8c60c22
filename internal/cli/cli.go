// Package cli is the run harness of the diagnosis commands (scandiag,
// socdiag, chaindiag, experiments and sharddiag). It owns their process
// policy: the shared flags and their bounds, the scheme and circuit
// names, the profile and context lifecycle, and the exit codes. A
// command's main is os.Exit(run(os.Args[1:], os.Stdout, os.Stderr));
// nothing below it exits, so every deferred cleanup runs.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/drc"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Cmd is one invocation of a command: its flag set, its output streams,
// and the validations and cleanups its flag groups registered.
type Cmd struct {
	Name           string
	Flags          *flag.FlagSet
	Stdout, Stderr io.Writer

	checks   []func() error
	cleanups []func()

	cpuProfile, memProfile string
	timeout                time.Duration
	cacheMB                int64
	cacheDir               string
	connect                string
	shards                 int
}

// New returns a Cmd whose messages carry the "<name>: " prefix.
func New(name string, stdout, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{Name: name, Flags: fs, Stdout: stdout, Stderr: stderr}
}

// usageError is a bad flag value or combination: exit status 2, after
// the flag summary.
type usageError struct{ error }

// Usagef returns a usage error; Run maps it to exit status 2.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// drcError refuses to simulate a netlist that breaks a design rule: exit
// status 2, without the flag summary.
type drcError struct{ error }

// Check registers a validation that Run performs after parsing and
// before any work starts; a non-nil result is a usage error.
func (c *Cmd) Check(f func() error) { c.checks = append(c.checks, f) }

// onExit registers a cleanup that runs when the body returns, on every
// return path, most recent first.
func (c *Cmd) onExit(f func()) { c.cleanups = append(c.cleanups, f) }

// Warnf prints a "<name>: " prefixed line on stderr.
func (c *Cmd) Warnf(format string, args ...any) {
	fmt.Fprintf(c.Stderr, "%s: %s\n", c.Name, fmt.Sprintf(format, args...))
}

// Run parses args, validates every flag, then runs body under the
// profile and context lifecycle and returns the exit status: 0 on
// success (and for -h), 2 for a usage error or a DRC violation, 1 for
// any other error.
func (c *Cmd) Run(args []string, body func(ctx context.Context) error) int {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the error and the usage
	}
	for _, check := range c.checks {
		if err := check(); err != nil {
			return c.exit(usageError{err})
		}
	}
	return c.exit(c.run(body))
}

// run starts the CPU profile and builds the -timeout + SIGINT context,
// then calls body. The defers stop the profile, write the heap profile
// and run the registered cleanups whatever body returns.
func (c *Cmd) run(body func(ctx context.Context) error) error {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				c.Warnf("%v", err)
			}
		}()
	}
	if c.memProfile != "" {
		defer c.writeHeapProfile()
	}
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	defer func() {
		for i := len(c.cleanups) - 1; i >= 0; i-- {
			c.cleanups[i]()
		}
	}()
	return body(ctx)
}

func (c *Cmd) exit(err error) int {
	if err == nil {
		return 0
	}
	c.Warnf("%v", err)
	if errors.As(err, new(usageError)) {
		c.Flags.Usage()
		return 2
	}
	if errors.As(err, new(drcError)) {
		return 2
	}
	return 1
}

// writeHeapProfile snapshots the heap after a GC so the profile reflects
// retained memory, not transient garbage.
func (c *Cmd) writeHeapProfile() {
	f, err := os.Create(c.memProfile)
	if err != nil {
		c.Warnf("%v", err)
		return
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		c.Warnf("%v", err)
	}
}

// IntFlag registers an int flag that must be at least min.
func (c *Cmd) IntFlag(name string, value, min int, usage string) *int {
	p := new(int)
	c.intVar(p, name, value, min, usage)
	return p
}

func (c *Cmd) intVar(p *int, name string, value, min int, usage string) {
	c.Flags.IntVar(p, name, value, usage)
	c.Check(func() error {
		switch {
		case *p >= min:
			return nil
		case min == 0:
			return fmt.Errorf("-%s must be non-negative, got %d", name, *p)
		}
		return fmt.Errorf("-%s must be at least %d, got %d", name, min, *p)
	})
}

// WorkersFlag registers -workers.
func (c *Cmd) WorkersFlag() *int {
	return c.IntFlag("workers", 0, 0, "goroutines per fault sweep (0 = all CPUs, 1 = serial; results are identical)")
}

// LanesFlag registers -lanes, bounded by the widest batch kernel.
func (c *Cmd) LanesFlag() *int {
	p := c.Flags.Int("lanes", 0, "fault lanes per batch, 1-256 (0 = engine default 256; above 64 engages the wide-word kernel)")
	c.Check(func() error {
		if *p < 0 || *p > sim.MaxBatchLanes {
			return fmt.Errorf("-lanes %d out of range 0..%d", *p, sim.MaxBatchLanes)
		}
		return nil
	})
	return p
}

// TimeoutFlag registers -timeout, the deadline of Run's context.
func (c *Cmd) TimeoutFlag() {
	c.Flags.DurationVar(&c.timeout, "timeout", 0, "wall-clock budget for the run (0 = none); on expiry in-flight work drains and the partial result is reported")
	c.Check(func() error {
		if c.timeout < 0 {
			return fmt.Errorf("-timeout must be non-negative, got %v", c.timeout)
		}
		return nil
	})
}

// ProfileFlags registers -cpuprofile and -memprofile, which Run writes.
func (c *Cmd) ProfileFlags() {
	c.Flags.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	c.Flags.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file after the run")
}

// maxCacheMB rejects budgets no machine these tools target could hold
// (1 TiB): such values are typos, not configurations.
const maxCacheMB = 1 << 20

// CacheFlags registers -cachedir and, with budget, -cachemb; Cache
// builds the cache they describe.
func (c *Cmd) CacheFlags(budget bool) {
	c.Flags.StringVar(&c.cacheDir, "cachedir", "", "persist build artifacts under this directory and reuse them across runs (warm start)")
	if !budget {
		return
	}
	c.Flags.Int64Var(&c.cacheMB, "cachemb", 0, "artifact-cache budget in MiB (0 = unbounded); least-recently-used builds are evicted past it")
	c.Check(func() error {
		if c.cacheMB < 0 || c.cacheMB > maxCacheMB {
			return fmt.Errorf("-cachemb %d out of range 0..%d (1 TiB)", c.cacheMB, int64(maxCacheMB))
		}
		return nil
	})
}

// CacheDir returns -cachedir.
func (c *Cmd) CacheDir() string { return c.cacheDir }

// Cache builds the artifact cache -cachemb bounds, with the disk tier
// under -cachedir attached. With a -cachedir, the cache's traffic is
// reported on stderr when the body returns; it stays off stdout so cold
// and warm runs print the same thing.
func (c *Cmd) Cache() (*pipeline.ArtifactCache, error) {
	cache := pipeline.NewCacheWithBudget(pipeline.Budget{MaxBytes: c.cacheMB << 20})
	if c.cacheDir == "" {
		return cache, nil
	}
	if err := cache.AttachDir(c.cacheDir); err != nil {
		return nil, err
	}
	c.onExit(func() { c.Warnf("%s", cache.Stats()) })
	return cache, nil
}

// ShardFlags registers -connect and -shards; Dial connects to the workers.
func (c *Cmd) ShardFlags() {
	c.Flags.StringVar(&c.connect, "connect", "", "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard the sweep across them instead of running in-process")
	c.intVar(&c.shards, "shards", 0, 0, "shards to split the sweep into when -connect is set (0 = 4 per worker)")
}

// Sharded reports whether -connect names workers.
func (c *Cmd) Sharded() bool { return c.connect != "" }

// Dial connects to every -connect worker and returns a coordinator over
// them with the shard count resolved. The connections close when the
// body returns. With verbose, each worker's hello and the per-shard
// progress go to stderr.
func (c *Cmd) Dial(ctx context.Context, verbose bool) (*shard.Coordinator, error) {
	conns, err := shard.DialAll(ctx, strings.Split(c.connect, ","))
	if err != nil {
		return nil, err
	}
	c.onExit(func() {
		for _, wc := range conns {
			wc.Close()
		}
	})
	co := &shard.Coordinator{Conns: conns, Shards: c.shards}
	if co.Shards == 0 {
		co.Shards = shard.DefaultShards(len(conns))
	}
	if verbose {
		co.Progress = c.Warnf
		for _, wc := range conns {
			h := wc.Hello()
			c.Warnf("worker %s: pid %d, %d workers, cachedir %q", wc.Node(), h.Pid, h.Workers, h.CacheDir)
		}
	}
	return co, nil
}

// DRCFlag registers -drc.
func (c *Cmd) DRCFlag() *bool {
	return c.Flags.Bool("drc", false, "run the static design-rule checker before simulating and refuse to simulate on violations")
}

// ReportDRC prints the design-rule verdict on stdout, its "drc:" label
// padded to width to line up with the command's other labels. On
// violations it returns an error listing every hit, which Run maps to
// exit status 2: simulating a rule-breaking netlist would produce
// corrupt signatures, not diagnoses.
func (c *Cmd) ReportDRC(width int, name string, vs []drc.Violation) error {
	if len(vs) == 0 {
		fmt.Fprintf(c.Stdout, "%-*s%s clean\n", width, "drc:", name)
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "drc: %s: %d violation(s)", name, len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return drcError{errors.New(b.String())}
}

// Sample is the fault-sampling flag group.
type Sample struct {
	Faults int
	Seed   int64
}

// SampleFlags registers -faults and -seed.
func (c *Cmd) SampleFlags() *Sample {
	s := &Sample{}
	c.intVar(&s.Faults, "faults", 500, 1, "stuck-at faults to sample per circuit or faulty core")
	c.Flags.Int64Var(&s.Seed, "seed", 1, "fault sampling seed")
	return s
}

// Plan is the partitioning flag group.
type Plan struct {
	Scheme               string
	Partitions, Patterns int
}

// PlanFlags registers -scheme, -partitions and -patterns.
func (c *Cmd) PlanFlags() *Plan {
	p := &Plan{}
	c.Flags.StringVar(&p.Scheme, "scheme", "two-step", "partitioning scheme: two-step|random|interval|fixed")
	c.intVar(&p.Partitions, "partitions", 8, 1, "number of partitions")
	c.intVar(&p.Patterns, "patterns", 128, 1, "pseudorandom patterns per BIST session")
	return p
}

// SchemeByName resolves a -scheme name.
func SchemeByName(name string) (partition.Scheme, error) {
	switch name {
	case "two-step":
		return partition.TwoStep{}, nil
	case "random", "random-selection":
		return partition.RandomSelection{}, nil
	case "interval":
		return partition.Interval{}, nil
	case "fixed", "fixed-interval":
		return partition.FixedInterval{}, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// Circuit is the circuit-selection flag group.
type Circuit struct {
	Name  string // -circuit: a built-in benchgen profile
	Bench string // -bench: an ISCAS-89 netlist that overrides Name
}

// CircuitFlags registers -circuit with the given default and, with
// bench, -bench.
func (c *Cmd) CircuitFlags(name string, bench bool) *Circuit {
	f := &Circuit{}
	c.Flags.StringVar(&f.Name, "circuit", name, "built-in benchmark profile to generate")
	if bench {
		c.Flags.StringVar(&f.Bench, "bench", "", "path to an ISCAS-89 .bench netlist (overrides -circuit; sharddiag workers must read the same path)")
	}
	return f
}

// Ref is the device reference shard workers rebuild the loaded circuit c
// from.
func (f *Circuit) Ref(c *circuit.Circuit) codec.DeviceRef {
	if f.Bench != "" {
		return shard.BenchFileRef(f.Bench, c)
	}
	return shard.ProfileRef(f.Name, 0, 1, c)
}

// Load parses the -bench netlist or generates the -circuit profile.
func (f *Circuit) Load() (*circuit.Circuit, error) {
	if f.Bench != "" {
		return bench.ParseFile(f.Bench)
	}
	p, ok := benchgen.ProfileByName(f.Name)
	if !ok {
		var names []string
		for _, p := range benchgen.Profiles() {
			names = append(names, p.Name)
		}
		return nil, fmt.Errorf("unknown built-in circuit %q (try one of %v)", f.Name, names)
	}
	return benchgen.Generate(p)
}
