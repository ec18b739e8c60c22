// Command sharddiag runs the coordinator/worker runtime that shards a
// diagnosis sweep across processes. A worker serves shard jobs over the
// length-prefixed binary protocol; a coordinator splits a fault list
// into cost-balanced shards, fans them out, and merges the verdict
// deltas into exactly the study a single-process sweep would produce.
//
// Usage:
//
//	sharddiag serve -listen 127.0.0.1:9731 -cachedir /shared/artifacts
//	sharddiag coordinate -connect host1:9731,host2:9731 -circuit s13207
//	sharddiag coordinate -connect unix:/tmp/w.sock -soc socmini -core s953
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/retry"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/soc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return serve(args[1:], stdout, stderr)
		case "coordinate":
			return coordinate(args[1:], stdout, stderr)
		case "-h", "-help", "--help":
		default:
			fmt.Fprintf(stderr, "sharddiag: unknown subcommand %q\n\n", args[0])
		}
	}
	fmt.Fprint(stderr, `usage: sharddiag <subcommand> [flags]

subcommands:
  serve        run a shard worker: accept jobs, execute them, stream results
  coordinate   split a sweep into shards and dispatch them to workers

run "sharddiag <subcommand> -h" for the subcommand's flags
`)
	return 2
}

// subcommand returns the harness for one subcommand: messages keep the
// "sharddiag: " prefix, the flag summary names the subcommand.
func subcommand(name string, stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("sharddiag", stdout, stderr)
	c.Flags.Init("sharddiag "+name, flag.ContinueOnError)
	return c
}

// listen opens the worker's accept socket: "host:port" for TCP, or
// "unix:/path/to.sock" for a Unix socket (stale socket files from a
// previous run are removed first).
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		os.Remove(path)
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

func serve(args []string, stdout, stderr io.Writer) int {
	c := subcommand("serve", stdout, stderr)
	workers := c.WorkersFlag()
	c.CacheFlags(true)
	var (
		listenAddr = c.Flags.String("listen", "127.0.0.1:9731", "address to accept coordinator connections on (host:port, or unix:/path/to.sock)")
		node       = c.Flags.String("node", "", "worker name reported to coordinators (default: hostname)")
		pprofAddr  = c.Flags.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
		verbose    = c.Flags.Bool("v", false, "log each connection, shard, and timing to stderr")
	)
	return c.Run(args, func(ctx context.Context) error {
		cache, err := c.Cache()
		if err != nil {
			return err
		}
		cfg := shard.ServerConfig{Node: *node, Workers: *workers, Cache: cache, CacheDir: c.CacheDir()}
		if *verbose {
			cfg.Log = func(format string, args ...any) {
				c.Warnf("%s %s", time.Now().Format("15:04:05.000"), fmt.Sprintf(format, args...))
			}
		}
		ctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		if *pprofAddr != "" {
			// The default mux already carries the pprof handlers via the
			// side-effect import; a listener failure stops the worker so a
			// mistyped address doesn't silently run without profiling.
			go func() {
				cancel(fmt.Errorf("pprof listener: %w", http.ListenAndServe(*pprofAddr, nil)))
			}()
			c.Warnf("pprof on http://%s/debug/pprof/", *pprofAddr)
		}
		ln, err := listen(*listenAddr)
		if err != nil {
			return err
		}
		c.Warnf("worker listening on %s (workers=%d cachedir=%q)", ln.Addr(), *workers, c.CacheDir())
		if err := shard.NewServer(cfg).Serve(ctx, ln); err != nil && err != context.Canceled {
			return err
		}
		if cause := context.Cause(ctx); cause != context.Canceled {
			return cause
		}
		return nil
	})
}

func coordinate(args []string, stdout, stderr io.Writer) int {
	c := subcommand("coordinate", stdout, stderr)
	circ := c.CircuitFlags("", true)
	plan := c.PlanFlags()
	sample := c.SampleFlags()
	c.TimeoutFlag()
	c.ShardFlags()
	var (
		shardTimeout = c.Flags.Duration("shard-timeout", 0, "per-shard round-trip deadline (0 = none); timed-out shards are retried elsewhere")
		retries      = c.Flags.Int("retries", 0, "dispatch attempts per shard on transient failure (0 = default 3)")
		socPreset    = c.Flags.String("soc", "", "SOC preset to diagnose instead of a circuit: soc1|soc2|soc1m|socmini")
		coreName     = c.Flags.String("core", "", "faulty core name for -soc (default: the first core)")
		groups       = c.IntFlag("groups", 4, 1, "groups per partition")
		chains       = c.IntFlag("chains", 1, 1, "number of balanced scan chains")
		verbose      = c.Flags.Bool("v", false, "log shard dispatch, worker progress, and connection events to stderr")
	)
	var scheme partition.Scheme
	c.Check(func() (err error) {
		switch {
		case !c.Sharded():
			return fmt.Errorf("missing -connect: need at least one worker address")
		case circ.Name == "" && circ.Bench == "" && *socPreset == "":
			return fmt.Errorf("nothing to diagnose: set -circuit, -bench, or -soc")
		case *socPreset != "" && (circ.Name != "" || circ.Bench != ""):
			return fmt.Errorf("-soc excludes -circuit and -bench")
		}
		scheme, err = cli.SchemeByName(plan.Scheme)
		return err
	})

	return c.Run(args, func(ctx context.Context) error {
		w := c.Stdout
		opts := core.Options{
			Scheme:     scheme,
			Groups:     *groups,
			Partitions: plan.Partitions,
			Patterns:   plan.Patterns,
			Chains:     *chains,
		}
		co, err := c.Dial(ctx, *verbose)
		if err != nil {
			return err
		}
		co.ShardTimeout = *shardTimeout
		co.Retry = retry.Policy{MaxAttempts: *retries}

		var (
			study  *core.Study
			runErr error
			label  string
			faults []sim.Fault
		)
		if *socPreset != "" {
			s, err := soc.Preset(*socPreset)
			if err != nil {
				return err
			}
			faultyCore := 0
			if *coreName != "" {
				i, ok := s.CoreByName(*coreName)
				if !ok {
					return fmt.Errorf("SOC %s has no core %q", s.Name, *coreName)
				}
				faultyCore = i
			}
			cc := s.Cores[faultyCore].Circuit
			faults = sim.SampleFaults(sim.CollapsedFaults(cc), sample.Faults, sample.Seed)
			label = fmt.Sprintf("%s core %s", s.Name, s.Cores[faultyCore].Name)
			fmt.Fprintf(w, "target:   %s (%d cores, %d scan cells), faulty core %s\n",
				s.Name, s.NumCores(), s.NumCells(), s.Cores[faultyCore].Name)
			study, runErr = co.RunSOCCore(ctx, shard.SOCRef(*socPreset, s), faultyCore, opts, faults,
				shard.StuckAtCosts(cc, faults), nil)
		} else {
			ckt, err := circ.Load()
			if err != nil {
				return err
			}
			faults = sim.SampleFaults(sim.CollapsedFaults(ckt), sample.Faults, sample.Seed)
			label = ckt.Name
			fmt.Fprintf(w, "target:   %s\n", ckt.Stats())
			study, runErr = co.RunCircuit(ctx, circ.Ref(ckt), opts, faults, shard.StuckAtCosts(ckt, faults), nil)
		}
		fmt.Fprintf(w, "plan:     %s, %d groups x %d partitions, %d patterns/session, %d chains\n",
			scheme.Name(), *groups, plan.Partitions, plan.Patterns, *chains)
		fmt.Fprintf(w, "workers:  %d connection(s), %d shard(s)\n", len(co.Conns), co.Shards)
		fmt.Fprintf(w, "\nfaults:   %d sampled in %s, %d diagnosed, %d undetected\n",
			len(faults), label, study.Diagnosed, study.Undetected)
		if !study.Completeness.Complete() {
			fmt.Fprintf(w, "partial:  %d of %d faults observed (%.0f%%)\n",
				study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
		}
		fmt.Fprintf(w, "DR:       %.4f without pruning\n", study.Full.Value())
		fmt.Fprintf(w, "DR:       %.4f with pruning\n", study.Pruned.Value())
		if runErr != nil {
			// A degraded run still reports its sound partial study, then
			// exits 1 so scripts notice the lost shards.
			return fmt.Errorf("run degraded (%v): diagnosed %d of %d scheduled faults; reported the partial study",
				runErr, study.Completeness.Observed, study.Completeness.Scheduled)
		}
		return nil
	})
}
