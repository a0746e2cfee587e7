package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// benchGolden pins the -bench sweep's deterministic payload.
var benchGolden = filepath.Join("testdata", "golden", "bench-quick.json")

// normalizeBench zeroes the wall-clock-derived fields of a bench record
// — per-experiment wall time, throughput ratios and allocator deltas,
// plus the run-level wall total and machine knobs — leaving only the
// deterministic virtual-time payload: every experiment's events,
// worlds, virtual time and accounting, and the benchmark world's block.
// It returns that payload in the record's own indented JSON form.
func normalizeBench(t *testing.T, raw []byte) (jsonSummary, []byte) {
	t.Helper()
	var sum jsonSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	sum.TotalWall = 0
	sum.Parallelism = 0
	sum.Shards = 0
	sum.GoMaxProcs = 0
	for i := range sum.Experiments {
		e := &sum.Experiments[i]
		e.WallTime = 0
		e.EventsPerSec = 0
		e.VirtualPerWall = 0
		e.AllocBytes = 0
		e.AllocObjects = 0
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return sum, append(data, '\n')
}

// TestBenchShardDeterminism runs the full -bench sweep at shard counts
// {1, 4, GOMAXPROCS} and requires each record's deterministic payload
// to equal testdata/golden/bench-quick.json byte for byte: parallelism
// may only change how fast the record is produced, never its contents,
// and any change in the work the sweep does — an event count, a world,
// an accounting field, an experiment added or lost — fails here and is
// named. Regenerate the file with `go test -run TestBenchShardDeterminism
// ./cmd/threadstudy -update` when the change is intended. The suite also
// runs under -race, so shard fan-out is exercised with the race detector
// watching the cluster advance loops.
func TestBenchShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench sweep per shard value; skipped in -short")
	}
	seen := map[int]bool{}
	for _, sh := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if seen[sh] {
			continue
		}
		seen[sh] = true
		path := filepath.Join(t.TempDir(), "bench.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-bench", path, "-shards", strconv.Itoa(sh)}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, data := normalizeBench(t, raw)
		if *updateGolden && len(seen) == 1 {
			if err := os.WriteFile(benchGolden, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantData, err := os.ReadFile(benchGolden)
		if err != nil {
			t.Fatalf("missing golden file (generate with -update): %v", err)
		}
		if bytes.Equal(data, wantData) {
			continue
		}
		want, _ := normalizeBench(t, wantData)
		diffBench(t, sh, got, want)
		t.Errorf("shards=%d: bench record differs from %s (regenerate with -update if intended)", sh, benchGolden)
	}
}

// diffBench names every experiment whose deterministic payload differs
// between got and want, rather than dumping two blobs.
func diffBench(t *testing.T, shards int, got, want jsonSummary) {
	t.Helper()
	wantExp := make(map[string]experimentRecord, len(want.Experiments))
	for _, e := range want.Experiments {
		wantExp[e.ID] = e
	}
	gotIDs := make(map[string]bool, len(got.Experiments))
	for i, e := range got.Experiments {
		gotIDs[e.ID] = true
		w, ok := wantExp[e.ID]
		switch {
		case !ok:
			t.Errorf("shards=%d: experiment %s is not in the golden sweep", shards, e.ID)
		case mustJSON(t, e) != mustJSON(t, w):
			t.Errorf("shards=%d: experiment %s diverged: %d events in %d worlds, golden %d events in %d worlds",
				shards, e.ID, e.Events, e.Worlds, w.Events, w.Worlds)
		case i >= len(want.Experiments) || want.Experiments[i].ID != e.ID:
			t.Errorf("shards=%d: experiment %s moved to position %d", shards, e.ID, i)
		}
	}
	for _, e := range want.Experiments {
		if !gotIDs[e.ID] {
			t.Errorf("shards=%d: experiment %s is missing from the sweep", shards, e.ID)
		}
	}
	if mustJSON(t, got.Benchmark) != mustJSON(t, want.Benchmark) {
		t.Errorf("shards=%d: the %s benchmark block diverged", shards, benchWorld)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
