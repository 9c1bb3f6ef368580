package rpc

import (
	"uots/internal/obs"
)

// Metrics are the client-side uots_rpc_* instruments shared by every
// replica group a remote executor drives. A nil *Metrics disables
// everything; every method is nil-receiver-safe so call sites stay
// unconditional. Exported (unlike the shard package's private metrics)
// so the obs encoding tests can assert the family's exact Prometheus
// text form.
type Metrics struct {
	requests        *obs.CounterVec // per replica
	attemptOutcomes *obs.CounterVec // per replica × outcome
	retries         *obs.Counter
	ejections       *obs.CounterVec // per replica
	readmissions    *obs.CounterVec // per replica
	probeFailures   *obs.CounterVec // per replica
	groupExhausted  *obs.Counter
	latency         *obs.HistogramVec // per replica
}

// NewMetrics registers the uots_rpc_* family on reg. A nil registry
// returns nil, which disables recording.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		requests: reg.CounterVec("uots_rpc_requests_total",
			"RPC attempts sent, by replica (includes retries).", "replica"),
		attemptOutcomes: reg.CounterVec("uots_rpc_attempt_outcomes_total",
			"RPC attempt outcomes by replica and classification (ok, transport, engine, canceled).", "replica", "outcome"),
		retries: reg.Counter("uots_rpc_retries_total",
			"RPC calls re-sent after a transient failure."),
		ejections: reg.CounterVec("uots_rpc_replica_ejections_total",
			"Replicas ejected from rotation after exhausting their error budget, by replica.", "replica"),
		readmissions: reg.CounterVec("uots_rpc_replica_readmissions_total",
			"Ejected replicas re-admitted after a successful health probe, by replica.", "replica"),
		probeFailures: reg.CounterVec("uots_rpc_probe_failures_total",
			"Failed health probes, by replica.", "replica"),
		groupExhausted: reg.Counter("uots_rpc_group_exhausted_total",
			"Calls that failed every retry and failover attempt across a whole replica group."),
		latency: reg.HistogramVec("uots_rpc_request_seconds",
			"RPC attempt latency by replica (successful and failed attempts).", nil, "replica"),
	}
}

// replicaCounters are one replica's pre-resolved series, looked up once
// at group construction so the per-attempt path does no label
// resolution.
type replicaCounters struct {
	requests      *obs.Counter
	ejections     *obs.Counter
	readmissions  *obs.Counter
	probeFailures *obs.Counter
	latency       *obs.Histogram

	attemptOK        *obs.Counter
	attemptTransport *obs.Counter
	attemptEngine    *obs.Counter
	attemptCanceled  *obs.Counter
}

func (m *Metrics) forReplica(base string) replicaCounters {
	if m == nil {
		return replicaCounters{}
	}
	return replicaCounters{
		requests:      m.requests.With(base),
		ejections:     m.ejections.With(base),
		readmissions:  m.readmissions.With(base),
		probeFailures: m.probeFailures.With(base),
		latency:       m.latency.With(base),

		attemptOK:        m.attemptOutcomes.With(base, OutcomeOK),
		attemptTransport: m.attemptOutcomes.With(base, OutcomeTransport),
		attemptEngine:    m.attemptOutcomes.With(base, OutcomeEngine),
		attemptCanceled:  m.attemptOutcomes.With(base, OutcomeCanceled),
	}
}

// attempt counts one attempt under its outcome label.
func (c replicaCounters) attempt(outcome string) {
	var ctr *obs.Counter
	switch outcome {
	case OutcomeOK:
		ctr = c.attemptOK
	case OutcomeTransport:
		ctr = c.attemptTransport
	case OutcomeEngine:
		ctr = c.attemptEngine
	case OutcomeCanceled:
		ctr = c.attemptCanceled
	}
	if ctr != nil {
		ctr.Inc()
	}
}

func (c replicaCounters) request() {
	if c.requests != nil {
		c.requests.Inc()
	}
}

func (c replicaCounters) ejection() {
	if c.ejections != nil {
		c.ejections.Inc()
	}
}

func (c replicaCounters) readmission() {
	if c.readmissions != nil {
		c.readmissions.Inc()
	}
}

func (c replicaCounters) probeFailure() {
	if c.probeFailures != nil {
		c.probeFailures.Inc()
	}
}

func (c replicaCounters) observe(seconds float64) {
	if c.latency != nil {
		c.latency.Observe(seconds)
	}
}

func (m *Metrics) recordRetry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

func (m *Metrics) recordGroupExhausted() {
	if m == nil {
		return
	}
	m.groupExhausted.Inc()
}
