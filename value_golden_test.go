package pdpasim

// The value golden pins the exact output of every policy across code
// versions. Determinism and reuse tests compare the code with itself, and the
// outcome-schema golden covers a single PDPA run; this file covers every
// policy kind on every mix, so a refactor of the policy hot path that changes
// any decision — one processor granted to a different job, one admission
// taken at a different time — fails here. Each line is the SHA-256 of a run's
// WriteJSON bytes followed by its decision-trace JSON. Regenerate with
// go test -run TestValueGolden -update, and only for a deliberate change of
// simulated behaviour.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValueGolden(t *testing.T) {
	var got strings.Builder
	for _, pol := range []Policy{IRIX, Equipartition, EqualEfficiency, PDPA, Dynamic, AdaptivePDPA, Gang} {
		for _, mix := range []string{"w1", "w2", "w3", "w4"} {
			for _, load := range []float64{0.8, 1.0} {
				spec := WorkloadSpec{Mix: mix, Load: load, NCPU: 60, Window: 240 * time.Second, Seed: 7}
				opts := Options{Policy: pol, Seed: 7, DecisionTrace: DecisionTraceUnlimited}
				outJSON, traceJSON := runBytes(t, func() (*Outcome, error) {
					return RunContext(context.Background(), spec, opts)
				})
				h := sha256.New()
				h.Write(outJSON)
				h.Write(traceJSON)
				fmt.Fprintf(&got, "%s %s %.1f %x\n", pol, mix, load, h.Sum(nil))
			}
		}
	}
	golden := filepath.Join("testdata", "value.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("run %d: got %q, golden has %q", i, line, lineAt(wantLines, i))
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
