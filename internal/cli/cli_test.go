package cli

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/drc"
)

func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		err   error
		exit  int
		usage bool // the flag summary is printed
	}{
		{name: "ok", exit: 0},
		{name: "help", args: []string{"-h"}, exit: 0, usage: true},
		{name: "bad flag", args: []string{"-nosuch"}, exit: 2, usage: true},
		{name: "bound", args: []string{"-workers", "-1"}, exit: 2, usage: true},
		{name: "usage from body", err: Usagef("bad combination"), exit: 2, usage: true},
		{name: "drc", err: drcError{errors.New("drc: x: 1 violation(s)")}, exit: 2},
		{name: "wrapped drc", err: wrap(drcError{errors.New("drc")}), exit: 2},
		{name: "runtime", err: errors.New("boom"), exit: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			c := New("tool", &stdout, &stderr)
			c.WorkersFlag()
			cleaned := false
			got := c.Run(tc.args, func(ctx context.Context) error {
				c.onExit(func() { cleaned = true })
				return tc.err
			})
			if got != tc.exit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tc.exit, stderr.String())
			}
			if usage := strings.Contains(stderr.String(), "Usage of tool"); usage != tc.usage {
				t.Errorf("flag summary printed = %v, want %v; stderr:\n%s", usage, tc.usage, stderr.String())
			}
			if tc.err != nil && !strings.HasPrefix(stderr.String(), "tool: ") {
				t.Errorf("stderr lacks the command prefix:\n%s", stderr.String())
			}
			// The body runs, and its cleanups with it, exactly when the
			// flags are valid: in the cases without arguments.
			if ran := tc.args == nil; cleaned != ran {
				t.Errorf("cleanup ran = %v, want %v", cleaned, ran)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want empty", stdout.String())
			}
		})
	}
}

func wrap(err error) error { return errors.Join(errors.New("context"), err) }

func TestRunTimeoutContext(t *testing.T) {
	c := New("tool", new(bytes.Buffer), new(bytes.Buffer))
	c.TimeoutFlag()
	got := c.Run([]string{"-timeout", "1ns"}, func(ctx context.Context) error {
		<-ctx.Done()
		return nil
	})
	if got != 0 {
		t.Fatalf("exit %d, want 0", got)
	}
}

// TestReportDRCPadding pins the label widths the command goldens rely
// on: chaindiag aligns "drc:" to 9 columns, scandiag and socdiag to 10.
func TestReportDRCPadding(t *testing.T) {
	var stdout bytes.Buffer
	c := New("tool", &stdout, new(bytes.Buffer))
	for _, width := range []int{9, 10} {
		if err := c.ReportDRC(width, "s27", nil); err != nil {
			t.Fatal(err)
		}
	}
	if want := "drc:     s27 clean\ndrc:      s27 clean\n"; stdout.String() != want {
		t.Errorf("got %q, want %q", stdout.String(), want)
	}
	err := c.ReportDRC(10, "bad", []drc.Violation{{}, {}})
	if !errors.As(err, new(drcError)) || !strings.HasPrefix(err.Error(), "drc: bad: 2 violation(s)\n  ") {
		t.Errorf("violations: got %v", err)
	}
}

func TestBounds(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-faults", "0"}, "-faults must be at least 1, got 0"},
		{[]string{"-workers", "-2"}, "-workers must be non-negative, got -2"},
		{[]string{"-lanes", "257"}, "-lanes 257 out of range 0..256"},
		{[]string{"-timeout", "-1s"}, "-timeout must be non-negative, got -1s"},
		{[]string{"-cachemb", "-1"}, "-cachemb -1 out of range 0..1048576 (1 TiB)"},
		{[]string{"-cachemb", "1048577"}, "-cachemb 1048577 out of range 0..1048576 (1 TiB)"},
		{[]string{"-shards", "-1"}, "-shards must be non-negative, got -1"},
		{[]string{"-partitions", "0"}, "-partitions must be at least 1, got 0"},
		{[]string{"-patterns", "0"}, "-patterns must be at least 1, got 0"},
	} {
		var stderr bytes.Buffer
		c := New("tool", new(bytes.Buffer), &stderr)
		c.SampleFlags()
		c.PlanFlags()
		c.WorkersFlag()
		c.LanesFlag()
		c.TimeoutFlag()
		c.CacheFlags(true)
		c.ShardFlags()
		ran := false
		if got := c.Run(tc.args, func(context.Context) error { ran = true; return nil }); got != 2 || ran {
			t.Errorf("%v: exit %d (body ran %v), want 2 before the body", tc.args, got, ran)
		}
		if !strings.HasPrefix(stderr.String(), "tool: "+tc.msg+"\n") {
			t.Errorf("%v: stderr %q, want prefix %q", tc.args, stderr.String(), tc.msg)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for name, want := range map[string]string{
		"two-step": "two-step", "random": "random-selection", "random-selection": "random-selection",
		"interval": "interval", "fixed": "fixed-interval", "fixed-interval": "fixed-interval",
	} {
		s, err := SchemeByName(name)
		if err != nil || s.Name() != want {
			t.Errorf("%s: got %v, %v; want %s", name, s, err, want)
		}
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestLoadCircuitListsProfiles(t *testing.T) {
	_, err := (&Circuit{Name: "nosuch"}).Load()
	if err == nil || !strings.Contains(err.Error(), "s953") {
		t.Errorf("unknown profile: got %v, want an error listing the profiles", err)
	}
	c, err := (&Circuit{Name: "s27"}).Load()
	if err != nil || c.Name != "s27" {
		t.Errorf("s27: got %v, %v", c, err)
	}
}
