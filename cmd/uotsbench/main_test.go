package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "T1 T2 T3 F1 F2 F3 F4 F5 F6 F7 F8 F9"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("-list IDs = %s, want %s", got, want)
	}
}

// TestRunWritesNoFile: the tables on stdout are the whole output — a
// solo run of an experiment leaves its working directory empty.
func TestRunWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-exp", "T1", "-profile", "small"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "T1 dataset settings") {
		t.Errorf("T1 table not printed:\n%s", stdout.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("run left %s in the working directory", e.Name())
	}
}
