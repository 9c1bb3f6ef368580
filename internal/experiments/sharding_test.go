package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestShardingExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Sharding(context.Background(), &buf, tinyProfile()); err != nil {
		t.Fatalf("Sharding: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"F10", "monolithic", "N=1", "N=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("F10 output missing %q:\n%s", want, out)
		}
	}
}
