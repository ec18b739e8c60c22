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
		{Name: "single", Args: []string{"-position", "12", "-stuck", "1"}, Golden: "single.golden"},
		{Name: "healthy", Args: []string{"-healthy"}, Golden: "healthy.golden"},
		{Name: "sweep", Args: []string{"-sweep"}, Golden: "sweep.golden"},
		{Name: "healthy-drc", Args: []string{"-healthy", "-drc"}, Golden: "healthy_drc.golden"},
		{Name: "connect", Args: []string{"-sweep", "-connect", "$ADDR"}, Golden: "sweep.golden"},
		{Name: "cachedir", Args: []string{"-healthy", "-cachedir", "$TMP/store"}, Golden: "healthy.golden", Stderr: `^chaindiag: cache: `},

		{Name: "stuck", Args: []string{"-stuck", "2"}, Exit: 2},
		{Name: "position", Args: []string{"-position", "-1"}, Exit: 2},
		{Name: "workers", Args: []string{"-workers", "-1"}, Exit: 2},
		{Name: "timeout", Args: []string{"-timeout", "-1s"}, Exit: 2},
		{Name: "position-range", Args: []string{"-position", "999"}, Exit: 2},
		{Name: "connect-single", Args: []string{"-connect", "$ADDR"}, Exit: 2, Golden: "connect_single.golden"},
		{Name: "shards", Args: []string{"-sweep", "-shards", "-1"}, Exit: 2},
		{Name: "lanes-removed", Args: []string{"-lanes", "4"}, Exit: 2},
		{Name: "cachemb-removed", Args: []string{"-cachemb", "10"}, Exit: 2},

		{Name: "unknown-circuit", Args: []string{"-circuit", "nosuch"}, Exit: 1},
	})
}
