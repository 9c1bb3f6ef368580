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
	for _, want := range []string{"T1", "F10", "sharding"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestRunWritesNoFile: the tables on stdout are the whole output — a
// solo fleet-experiment run leaves its working directory empty.
func TestRunWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-exp", "F10", "-profile", "small"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "monolithic") {
		t.Errorf("F10 table not printed:\n%s", stdout.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("run left %s in the working directory", e.Name())
	}
}
