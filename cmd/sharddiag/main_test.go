package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// TestGolden pins stdout and the exit status of coordinator runs against
// an in-process worker, every usage error and the runtime failures. A
// golden changes only with an intended change of output.
func TestGolden(t *testing.T) {
	clitest.Run(t, run, clitest.Worker(t), []clitest.Case{
		{Name: "circuit", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-faults", "200"}, Golden: "coord_circuit.golden"},
		{Name: "soc", Args: []string{"coordinate", "-connect", "$ADDR", "-soc", "socmini", "-faults", "100"}, Golden: "coord_soc.golden"},

		{Name: "no-args", Exit: 2},
		{Name: "subcommand", Args: []string{"bogus"}, Exit: 2, Stderr: `^sharddiag: unknown subcommand "bogus"`},
		{Name: "help", Args: []string{"-h"}, Exit: 2},
		{Name: "no-connect", Args: []string{"coordinate", "-circuit", "s953"}, Exit: 2, Stderr: `^sharddiag: missing -connect`},
		{Name: "nothing", Args: []string{"coordinate", "-connect", "$ADDR"}, Exit: 2},
		{Name: "soc-excludes", Args: []string{"coordinate", "-connect", "$ADDR", "-soc", "socmini", "-circuit", "s953"}, Exit: 2},
		{Name: "groups", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-groups", "0"}, Exit: 2},
		{Name: "faults", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-faults", "0"}, Exit: 2},
		{Name: "lanes", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-lanes", "999"}, Exit: 2, Stderr: `flag provided but not defined: -lanes`},
		{Name: "scheme", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-scheme", "bogus"}, Exit: 2},
		{Name: "shards", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "s953", "-faults", "200", "-shards", "-1"}, Exit: 2},
		{Name: "serve-workers", Args: []string{"serve", "-workers", "-1"}, Exit: 2},
		{Name: "serve-cachemb", Args: []string{"serve", "-cachemb", "-1"}, Exit: 2},

		{Name: "unknown-soc", Args: []string{"coordinate", "-connect", "$ADDR", "-soc", "nosuch"}, Exit: 1},
		{Name: "unknown-circuit", Args: []string{"coordinate", "-connect", "$ADDR", "-circuit", "nosuch"}, Exit: 1},
	})
}
