package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	wspec "repro/internal/workload/spec"
)

// The fleet's request trace is an artifact: what the cluster admitted,
// in arrival order, with the drawn demands. These tests pin its
// contracts — byte-determinism across advance shards, replayability
// under a different router on untracked and tracked runs alike, and
// validation before any world is built.

func recordRun(t *testing.T, spec Spec) (*wspec.Trace, *Summary) {
	t.Helper()
	tr := wspec.NewTrace("fleet", spec.Seed)
	spec.Record = tr
	sum := mustRun(t, spec)
	if len(tr.Entries) == 0 {
		t.Fatal("recorded no entries")
	}
	return tr, sum
}

func TestTraceRecordShardDeterminism(t *testing.T) {
	base, baseSum := recordRun(t, smallSpec())
	for _, shards := range []int{2, runtime.GOMAXPROCS(0)} {
		spec := smallSpec()
		spec.Shards = shards
		tr, sum := recordRun(t, spec)
		if !bytes.Equal(tr.Bytes(), base.Bytes()) {
			t.Errorf("trace at %d shards differs from serial", shards)
		}
		if marshal(t, sum) != marshal(t, baseSum) {
			t.Errorf("summary at %d shards differs from serial", shards)
		}
	}
}

// TestTraceReplayReproduces: replaying a recorded trace under the same
// spec reproduces the run, and re-recording the replay reproduces the
// trace byte-for-byte.
func TestTraceReplayReproduces(t *testing.T) {
	tr, live := recordRun(t, smallSpec())

	spec := smallSpec()
	spec.Replay = tr
	rerec := wspec.NewTrace("fleet", spec.Seed)
	spec.Record = rerec
	replayed := mustRun(t, spec)
	if marshal(t, replayed) != marshal(t, live) {
		t.Errorf("replayed summary differs from the live run:\n%s\n%s",
			marshal(t, replayed), marshal(t, live))
	}
	if !bytes.Equal(rerec.Bytes(), tr.Bytes()) {
		t.Errorf("re-recorded trace differs from the original")
	}
}

// TestTraceReplayUnderDifferentRouter: the trace fixes the offered load
// (instants, users, demands — the admitted subsequence of a token-bucket
// run), so a replay routes the *same* arrivals with a different policy.
// That is the A/B experiment the artifact exists for.
func TestTraceReplayUnderDifferentRouter(t *testing.T) {
	spec := smallSpec()
	spec.Admission = AdmitTokenBucket
	spec.TokenRate = 15_000
	spec.TokenBurst = 32
	tr, live := recordRun(t, spec)
	if live.Rejected == 0 {
		t.Fatalf("token bucket rejected nothing; the admitted-subsequence claim is untested")
	}
	if int64(len(tr.Entries)) != live.Admitted {
		t.Fatalf("trace holds %d entries, want the %d admitted", len(tr.Entries), live.Admitted)
	}

	replay := smallSpec()
	replay.Router = RouteLeastLoaded
	replay.Replay = tr
	sum := mustRun(t, replay)
	if sum.Offered != live.Admitted || sum.Admitted != live.Admitted || sum.Rejected != 0 {
		t.Errorf("replay offered=%d admitted=%d rejected=%d, want %d/%d/0 (admission bypassed)",
			sum.Offered, sum.Admitted, sum.Rejected, live.Admitted, live.Admitted)
	}
	if sum.Completed != live.Completed {
		t.Errorf("replay completed %d of the same offered load, live completed %d",
			sum.Completed, live.Completed)
	}
}

// d2Spec is a tracked fleet shaped like D2's guarded run: instance 2
// stalls mid-window under always-admit, per-attempt timeouts, retries,
// hedging and a breaker. The timeout is tighter than D2's so that
// every mechanism fires: trapped attempts time out, open the breaker
// and retry, as well as being hedged.
func d2Spec() Spec {
	return Spec{
		Instances:      4,
		Sessions:       16,
		Seed:           7,
		Requests:       2000,
		Rate:           20_000,
		Service:        100 * vclock.Microsecond,
		Start:          200 * vclock.Millisecond,
		Timeout:        3 * vclock.Millisecond,
		Retries:        2,
		RetryBackoff:   500 * vclock.Microsecond,
		BreakerAfter:   5,
		BreakerOpenFor: 10 * vclock.Millisecond,
		HedgeAfter:     2 * vclock.Millisecond,
		Faults: &fault.Plan{StallInstance: []fault.StallInstance{
			{Instance: 2, From: dur(215 * vclock.Millisecond), Until: dur(240 * vclock.Millisecond)},
		}},
	}
}

// TestTraceTrackedRecordReplay: a tracked run records its admitted
// arrivals once each — the live client policies regenerate retries and
// hedges on replay — so replaying under the same router reproduces the
// summary byte-for-byte, replaying under least-loaded keeps the offered
// load and the accounting identity, and the trace bytes do not depend
// on Spec.Shards.
func TestTraceTrackedRecordReplay(t *testing.T) {
	spec := d2Spec()
	spec.Shards = 1
	tr, live := recordRun(t, spec)
	if res := live.Resilience; res == nil || res.Retries == 0 || res.Hedges == 0 || res.BreakerOpens == 0 {
		t.Fatalf("the stalled fleet exercised no retry, hedge or breaker: %+v", res)
	}
	if int64(len(tr.Entries)) != live.Admitted {
		t.Fatalf("trace holds %d entries, want one per admitted arrival (%d)", len(tr.Entries), live.Admitted)
	}

	same := d2Spec()
	same.Replay = tr
	if got, want := marshal(t, mustRun(t, same)), marshal(t, live); got != want {
		t.Errorf("replay under the same router differs from the live run:\n%s\n%s", got, want)
	}

	ll := d2Spec()
	ll.Router = RouteLeastLoaded
	ll.Replay = tr
	sum := mustRun(t, ll)
	if sum.Offered != live.Offered || sum.Admitted != live.Admitted {
		t.Errorf("least-loaded replay offered=%d admitted=%d, want %d/%d",
			sum.Offered, sum.Admitted, live.Offered, live.Admitted)
	}
	checkInvariant(t, sum, "least-loaded replay")

	spec.Shards = 4
	if tr4, _ := recordRun(t, spec); !bytes.Equal(tr4.Bytes(), tr.Bytes()) {
		t.Errorf("trace at 4 shards differs from serial")
	}
}

// TestReplayValidatedAtNew: a malformed replay trace fails New before
// any world is built, so no entry is dispatched or recorded.
func TestReplayValidatedAtNew(t *testing.T) {
	good := wspec.Entry{AtUS: 300_000, Session: 1, ServiceUS: 20}
	for _, tc := range []struct {
		name string
		bad  wspec.Entry
	}{
		{"negative instant", wspec.Entry{AtUS: -1, Session: 1, ServiceUS: 20}},
		{"decreasing instant", wspec.Entry{AtUS: good.AtUS - 1, Session: 1, ServiceUS: 20}},
		{"zero demand", wspec.Entry{AtUS: good.AtUS, Session: 1, ServiceUS: 0}},
		{"negative session", wspec.Entry{AtUS: good.AtUS, Session: -3, ServiceUS: 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			spec.Replay = &wspec.Trace{Entries: []wspec.Entry{good, good, tc.bad}}
			spec.Record = wspec.NewTrace("fleet", spec.Seed)
			worlds := 0
			spec.Hooks.OnWorld = func(*sim.World) trace.Sink { worlds++; return nil }
			c, err := New(spec)
			if err == nil {
				c.Shutdown()
				t.Fatal("malformed replay trace accepted")
			}
			if !strings.Contains(err.Error(), "replay entry 2") {
				t.Errorf("err = %v, want it to name replay entry 2", err)
			}
			if worlds != 0 || len(spec.Record.Entries) != 0 {
				t.Errorf("built %d worlds and recorded %d entries before rejecting", worlds, len(spec.Record.Entries))
			}
		})
	}
}
