package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout and the exit status of representative runs,
// every usage error and the runtime failures. A golden changes only with
// an intended change of output.
func TestGolden(t *testing.T) {
	clitest.Run(t, run, clitest.Worker(t), []clitest.Case{
		{Name: "socmini", Args: []string{"-preset", "socmini", "-faults", "100"}, Golden: "socmini.golden"},
		{Name: "socmini-drc", Args: []string{"-preset", "socmini", "-faults", "100", "-drc"}, Golden: "socmini_drc.golden"},
		{Name: "connect", Args: []string{"-preset", "socmini", "-faults", "100", "-connect", "$ADDR"}, Golden: "socmini.golden"},

		{Name: "groups", Args: []string{"-groups", "-1"}, Exit: 2, Stderr: `^socdiag: -groups must be non-negative`},
		{Name: "partitions", Args: []string{"-partitions", "0"}, Exit: 2},
		{Name: "patterns", Args: []string{"-patterns", "0"}, Exit: 2},
		{Name: "chains", Args: []string{"-chains", "-1"}, Exit: 2},
		{Name: "faults", Args: []string{"-faults", "0"}, Exit: 2},
		{Name: "workers", Args: []string{"-workers", "-1"}, Exit: 2},
		{Name: "lanes", Args: []string{"-lanes", "300"}, Exit: 2},
		{Name: "timeout", Args: []string{"-timeout", "-1s"}, Exit: 2},
		{Name: "cachemb", Args: []string{"-cachemb", "-1"}, Exit: 2},
		{Name: "soc", Args: []string{"-soc", "3"}, Exit: 2, Stderr: `^socdiag: unknown SOC 3`},
		{Name: "shards", Args: []string{"-preset", "socmini", "-faults", "100", "-shards", "-1"}, Exit: 2},

		{Name: "unknown-preset", Args: []string{"-preset", "nosuch"}, Exit: 1},
		{Name: "unknown-core", Args: []string{"-preset", "socmini", "-core", "nosuch"}, Exit: 1},
		{Name: "unknown-scheme", Args: []string{"-preset", "socmini", "-scheme", "bogus"}, Exit: 1},
	})
}
