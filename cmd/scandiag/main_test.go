package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout and the exit status of representative runs,
// every usage error and the runtime failures. A golden changes only with
// an intended change of output.
func TestGolden(t *testing.T) {
	clitest.Run(t, run, clitest.Worker(t), []clitest.Case{
		{Name: "default", Args: []string{"-faults", "200"}, Golden: "default.golden"},
		{Name: "verbose", Args: []string{"-faults", "200", "-verbose"}, Golden: "verbose.golden"},
		{Name: "reverse2", Args: []string{"-faults", "200", "-order", "reverse", "-chains", "2"}, Golden: "reverse2.golden"},
		{Name: "noisy", Args: []string{"-faults", "200", "-intermittent", "0.3", "-flip", "0.02", "-abort", "0.02", "-retries", "4", "-vote", "2"}, Golden: "noisy.golden"},
		{Name: "drc", Args: []string{"-faults", "200", "-drc"}, Golden: "drc.golden"},
		{Name: "cold", Args: []string{"-faults", "200", "-cachedir", "$TMP/store"}, Golden: "default.golden", Stderr: `writes=[1-9]`},
		{Name: "warm", Args: []string{"-faults", "200", "-cachedir", "$TMP/store"}, Golden: "default.golden", Stderr: `disk hits=[1-9]\d* .*writes=0 `},
		{Name: "connect", Args: []string{"-faults", "200", "-connect", "$ADDR"}, Golden: "default.golden"},
		{Name: "connect7", Args: []string{"-faults", "200", "-connect", "$ADDR", "-shards", "7"}, Golden: "default.golden"},
		{Name: "help", Args: []string{"-h"}},

		{Name: "groups", Args: []string{"-groups", "0"}, Exit: 2, Stderr: `^scandiag: -groups must be at least 1`},
		{Name: "partitions", Args: []string{"-partitions", "0"}, Exit: 2},
		{Name: "patterns", Args: []string{"-patterns", "0"}, Exit: 2},
		{Name: "faults", Args: []string{"-faults", "0"}, Exit: 2},
		{Name: "chains", Args: []string{"-chains", "0"}, Exit: 2},
		{Name: "retries", Args: []string{"-retries", "-1"}, Exit: 2},
		{Name: "vote", Args: []string{"-vote", "9"}, Exit: 2},
		{Name: "workers", Args: []string{"-workers", "-1"}, Exit: 2},
		{Name: "timeout", Args: []string{"-timeout", "-1s"}, Exit: 2},
		{Name: "cachemb", Args: []string{"-cachemb", "-1"}, Exit: 2},
		{Name: "cachemb-big", Args: []string{"-cachemb", "2000000"}, Exit: 2},
		{Name: "lanes", Args: []string{"-lanes", "999"}, Exit: 2},
		{Name: "order", Args: []string{"-order", "bogus"}, Exit: 2},
		{Name: "noise", Args: []string{"-intermittent", "2"}, Exit: 2},
		{Name: "shards", Args: []string{"-faults", "200", "-shards", "-5"}, Exit: 2, Stderr: `^scandiag: -shards must be non-negative`},
		{Name: "unknown-flag", Args: []string{"-nosuchflag"}, Exit: 2},

		{Name: "unknown-circuit", Args: []string{"-circuit", "nosuch"}, Exit: 1, Stderr: `^scandiag: unknown built-in circuit "nosuch" \(try one of \[.*s953`},
		{Name: "missing-bench", Args: []string{"-bench", "/nonexistent"}, Exit: 1},
		{Name: "unknown-scheme", Args: []string{"-scheme", "bogus"}, Exit: 1},
	})
}

// TestProfilesOnFailure checks that a run failing after profiling started
// still stops the CPU profile and writes the heap profile.
func TestProfilesOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	clitest.Run(t, run, "", []clitest.Case{{
		Name: "missing-bench",
		Args: []string{"-bench", "/nonexistent", "-cpuprofile", cpu, "-memprofile", mem},
		Exit: 1,
	}})
	clitest.Profile(t, cpu)
	clitest.Profile(t, mem)
}
