// Package clitest runs a diagnosis command's run function in-process
// against golden stdout files. A golden file is the command's exact
// stdout for a case's arguments, with text-mode wall times ("[table1
// completed in 12ms]") masked.
package clitest

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/shard"
)

// Case is one invocation and what it must produce.
type Case struct {
	Name string
	// Args are the command-line arguments. "$TMP" expands to a directory
	// shared by every case of the table (cases run in order, so one case
	// can warm a store the next reads) and "$ADDR" to the address passed
	// to Run.
	Args []string
	Exit int
	// Golden names the testdata file stdout must equal; "" requires empty
	// stdout.
	Golden string
	// AnyStdout skips the stdout check, for timing-dependent runs.
	AnyStdout bool
	// Stderr, if set, is a regexp stderr must match.
	Stderr string
}

// RunFunc is a command's entry point: its main is
// os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)).
type RunFunc func(args []string, stdout, stderr io.Writer) int

var wallTime = regexp.MustCompile(`(?m)^\[(\S+) completed in [^\]]*\]$`)

// Run runs every case in order through run and checks its exit status,
// stdout and stderr.
func Run(t *testing.T, run RunFunc, addr string, cases []Case) {
	t.Helper()
	vars := strings.NewReplacer("$TMP", t.TempDir(), "$ADDR", addr)
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			args := make([]string, len(tc.Args))
			for i, a := range tc.Args {
				args[i] = vars.Replace(a)
			}
			var stdout, stderr bytes.Buffer
			if got := run(args, &stdout, &stderr); got != tc.Exit {
				t.Fatalf("%v: exit %d, want %d\nstderr:\n%s", args, got, tc.Exit, stderr.String())
			}
			want := ""
			if tc.Golden != "" {
				b, err := os.ReadFile(filepath.Join("testdata", tc.Golden))
				if err != nil {
					t.Fatal(err)
				}
				want = string(b)
			}
			if got := wallTime.ReplaceAllString(stdout.String(), "[$1 completed in *]"); !tc.AnyStdout && got != want {
				t.Errorf("%v: stdout differs from %q\n--- got\n%s--- want\n%s", args, tc.Golden, got, want)
			}
			if tc.Stderr != "" && !regexp.MustCompile(tc.Stderr).MatchString(stderr.String()) {
				t.Errorf("%v: stderr does not match %q:\n%s", args, tc.Stderr, stderr.String())
			}
		})
	}
}

// Worker starts an in-process shard worker on a loopback port and
// returns its address; it stops when the test ends.
func Worker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		shard.NewServer(shard.ServerConfig{Node: "w1", Workers: 2}).Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// Profile fails the test unless path holds a gzip-framed pprof profile,
// which go tool pprof reads.
func Profile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("%s: %d bytes, not a gzip-framed profile", path, len(b))
	}
}
