package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"explframe/internal/scenario"
)

// captureOutput runs fn with os.Stdout and os.Stderr redirected to files and
// returns fn's result with what it wrote to each.
func captureOutput(t *testing.T, fn func() int) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	out, errf := open("stdout"), open("stderr")
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, errf
	code = fn()
	os.Stdout, os.Stderr = oldOut, oldErr
	read := func(f *os.File) string {
		f.Close()
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return code, read(out), read(errf)
}

// Only a subcommand runs anything: no arguments, bare flags and unknown
// words print the usage to stderr and exit 2; help prints it to stdout and
// exits 0.
func TestDispatch(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		want       int
		usageOnErr bool
	}{
		{"no args", []string{}, 2, true},
		{"bare flags", []string{"-seed", "1"}, 2, true},
		{"unknown word", []string{"attack"}, 2, true},
		{"help", []string{"help"}, 0, false},
	}
	for _, tc := range cases {
		code, stdout, stderr := captureOutput(t, func() int { return dispatch(tc.args) })
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.want)
		}
		usage, other := stdout, stderr
		if tc.usageOnErr {
			usage, other = stderr, stdout
		}
		if !strings.Contains(usage, "Subcommands:") || !strings.Contains(usage, "  run ") {
			t.Errorf("%s: usage naming run missing from the expected stream:\n%s", tc.name, usage)
		}
		if other != "" {
			t.Errorf("%s: unexpected output on the other stream:\n%s", tc.name, other)
		}
	}
}

// run's phase report is trial 0 of the spec through scenario.Run, the trial
// sweep and submit count: same site, frames, outcome and exit code.
func TestRunReportsScenarioTrialZero(t *testing.T) {
	code, stdout, _ := captureOutput(t, func() int { return cmdRun([]string{"-machine", "fast"}) })
	res, err := scenario.Run(context.Background(), scenario.New(scenario.WithProfile("fast")))
	if err != nil || !res.Attack[0].SiteFound {
		t.Fatalf("trial 0 must find a site for the report to print one (err %v)", err)
	}
	rep := res.Attack[0]
	outcome, wantCode := fmt.Sprintf("FAILED at phase %q", rep.Phase), 1
	if rep.Success() {
		outcome, wantCode = fmt.Sprintf("SUCCESS: recovered key %x ", rep.RecoveredKey), 0
	}
	if code != wantCode {
		t.Errorf("exit %d, want %d", code, wantCode)
	}
	for _, want := range []string{
		fmt.Sprintf("site: page offset %d bit %d", rep.Site.ByteInPage, rep.Site.Bit),
		fmt.Sprintf("released frame PFN %d ", rep.PlantedPFN),
		fmt.Sprintf("victim table frame PFN %d ", rep.VictimTablePFN),
		outcome,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("run report lacks %q of trial 0:\n%s", want, stdout)
		}
	}
}
