package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout and the exit status of representative runs and
// every usage error. A golden changes only with an intended change of
// output.
func TestGolden(t *testing.T) {
	clitest.Run(t, run, "", []clitest.Case{
		{Name: "figure3", Args: []string{"-exp", "figure3"}, Golden: "figure3.golden"},
		{Name: "table1-csv", Args: []string{"-exp", "table1", "-format", "csv", "-faults", "50"}, Golden: "table1csv.golden"},

		{Name: "exp", Args: []string{"-exp", "bogus"}, Exit: 2},
		{Name: "format", Args: []string{"-format", "xml"}, Exit: 2, Stderr: `^experiments: unknown format "xml"`},
		{Name: "faults", Args: []string{"-faults", "0"}, Exit: 2},
		{Name: "workers", Args: []string{"-workers", "-1"}, Exit: 2},
		{Name: "lanes", Args: []string{"-lanes", "999"}, Exit: 2},
		{Name: "timeout", Args: []string{"-timeout", "-1s"}, Exit: 2},
		{Name: "cachemb", Args: []string{"-cachemb", "-1"}, Exit: 2},
	})
}

// TestInterruptedRunKeepsProfiles checks that a -timeout that interrupts
// the run still exits 0 and leaves readable CPU and heap profiles. Only
// the exit status and the profiles are checked: how far the run gets
// depends on the machine.
func TestInterruptedRunKeepsProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments until a deadline")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	clitest.Run(t, run, "", []clitest.Case{{
		Name:      "all-timeout",
		Args:      []string{"-exp", "all", "-faults", "500", "-timeout", "300ms", "-cpuprofile", cpu, "-memprofile", mem},
		AnyStdout: true,
		Stderr:    `interrupted \(.*context deadline exceeded\)`,
	}})
	clitest.Profile(t, cpu)
	clitest.Profile(t, mem)
}
