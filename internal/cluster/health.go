package cluster

import (
	"repro/internal/vclock"
)

// The health monitor is the fleet's failure detector: a virtual-time
// probe loop that ejects instances from the routing rotation after
// FailAfter consecutive failed probes and re-admits them after
// RecoverAfter consecutive successes. A probe models the usual
// shallow health check — it observes "is the instance accepting and
// serving right now" (crash or stall), not service quality, which is
// exactly why the D4 brownout slips past it.
//
// Everything is pure state driven from the cluster driver at
// deterministic probe instants, so ejection and re-admission times are
// byte-identical across reruns and Spec.Shards values.

// healthState is one instance's detector state.
type healthState struct {
	healthy    bool
	consecFail int
	consecOK   int
	ejectedAt  vclock.Time
}

// healthMonitor tracks the whole fleet.
type healthMonitor struct {
	failAfter    int
	recoverAfter int
	inst         []healthState

	ejections    int64
	readmissions int64
	ttrMax       vclock.Duration // slowest eject→readmit cycle
}

func newHealthMonitor(n, failAfter, recoverAfter int) *healthMonitor {
	m := &healthMonitor{failAfter: failAfter, recoverAfter: recoverAfter,
		inst: make([]healthState, n)}
	for i := range m.inst {
		m.inst[i].healthy = true
	}
	return m
}

// probe runs one probe round at virtual time now. alive(i) is the probe
// outcome for instance i — computed by the driver from the fault
// timeline (down or stalled ⇒ the probe times out).
func (m *healthMonitor) probe(now vclock.Time, alive func(int) bool) {
	for i := range m.inst {
		st := &m.inst[i]
		if alive(i) {
			st.consecFail, st.consecOK = 0, st.consecOK+1
			if !st.healthy && st.consecOK >= m.recoverAfter {
				st.healthy = true
				m.readmissions++
				if ttr := now.Sub(st.ejectedAt); ttr > m.ttrMax {
					m.ttrMax = ttr
				}
			}
			continue
		}
		st.consecOK, st.consecFail = 0, st.consecFail+1
		if st.healthy && st.consecFail >= m.failAfter {
			st.healthy = false
			st.ejectedAt = now
			m.ejections++
		}
	}
}

// isHealthy reports whether instance i is in rotation. A nil monitor
// (health-aware routing disabled) treats every instance as healthy.
func (m *healthMonitor) isHealthy(i int) bool {
	return m == nil || m.inst[i].healthy
}
