// Package cmd holds no code: it is the smoke test of the nine commands
// beside it, which are package main and cannot be imported.
package cmd

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommands builds every command, checks each one parses its flags (-h
// prints usage and exits 0), then drives the two that launch a fleet of real
// processes end to end: a supervised speccoord -spawn run and a fault-free
// specsoak, both of which must exit 0.
func TestCommands(t *testing.T) {
	dirs, err := filepath.Glob("*/main.go")
	if err != nil || len(dirs) != 9 {
		t.Fatalf("found %d commands (%v), want 9", len(dirs), err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	run := func(name string, args ...string) (stdout, stderr []byte, err error) {
		var so, se bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err = cmd.Run()
		return so.Bytes(), se.Bytes(), err
	}
	for _, main := range dirs {
		name := filepath.Dir(main)
		if _, usage, err := run(name, "-h"); err != nil || !bytes.Contains(usage, []byte("Usage of")) {
			t.Errorf("%s -h: %v\n%s", name, err, usage)
		}
	}
	if testing.Short() {
		t.Skip("multi-process runs are not -short")
	}

	stdout, stderr, err := run("speccoord", "-spawn", "-procs", "2", "-iters", "30", "-json", "-timeout", "60s")
	if err != nil {
		t.Fatalf("speccoord -spawn: %v\n%s", err, stderr)
	}
	// The listen-address lines come first; the reports are the JSON array.
	var reports []struct {
		Rank  int `json:"rank"`
		Iters int `json:"iters"`
	}
	if i := bytes.Index(stdout, []byte("[\n")); i < 0 {
		t.Fatalf("speccoord -json printed no report array:\n%s", stdout)
	} else if err := json.Unmarshal(stdout[i:], &reports); err != nil {
		t.Fatalf("speccoord -json: %v\n%s", err, stdout)
	}
	if len(reports) != 2 || reports[0].Iters != 30 || reports[1].Iters != 30 {
		t.Errorf("speccoord reports %+v, want 2 ranks of 30 iterations", reports)
	}
	if !strings.Contains(string(stderr), "[node 1] ") {
		t.Errorf("child output is not slot-prefixed:\n%s", stderr)
	}

	stdout, stderr, err = run("specsoak", "-procs", "2", "-iters", "20", "-timeout", "60s")
	if err != nil || !bytes.Contains(stdout, []byte("soak P=2 iters=20")) {
		t.Errorf("specsoak: %v\n%s%s", err, stdout, stderr)
	}
}
