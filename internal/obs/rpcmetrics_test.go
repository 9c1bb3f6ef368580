package obs_test

import (
	"bytes"
	"testing"

	"uots/internal/obs"
	"uots/internal/rpc"
)

// TestPrometheusEncodingRPCFamily pins the exact text exposition of the
// uots_rpc_* family that rpc.NewMetrics registers: names, help strings,
// types and label sets are part of the scrape contract (dashboards and
// alerts key on them), so any drift must show up as a test diff, not in
// production. Registration idempotency lets the test materialize series
// by re-looking the families up through the registry's public API.
func TestPrometheusEncodingRPCFamily(t *testing.T) {
	reg := obs.NewRegistry()
	if m := rpc.NewMetrics(reg); m == nil {
		t.Fatal("NewMetrics returned nil for a non-nil registry")
	}
	if m := rpc.NewMetrics(nil); m != nil {
		t.Fatal("NewMetrics(nil) must return the nil no-op recorder")
	}

	const replica = "http://replica-a:9001"
	reg.CounterVec("uots_rpc_requests_total", "", "replica").With(replica).Add(5)
	outcomes := reg.CounterVec("uots_rpc_attempt_outcomes_total", "", "replica", "outcome")
	outcomes.With(replica, "ok").Add(4)
	outcomes.With(replica, "transport").Inc()
	outcomes.With(replica, "engine").Add(2)
	outcomes.With(replica, "canceled").Add(3)
	reg.Counter("uots_rpc_retries_total", "").Inc()
	reg.CounterVec("uots_rpc_replica_ejections_total", "", "replica").With(replica).Inc()
	reg.CounterVec("uots_rpc_replica_readmissions_total", "", "replica").With(replica).Inc()
	reg.CounterVec("uots_rpc_probe_failures_total", "", "replica").With(replica).Add(3)
	reg.Counter("uots_rpc_group_exhausted_total", "").Inc()
	reg.HistogramVec("uots_rpc_request_seconds", "", nil, "replica").With(replica).Observe(0.003)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP uots_rpc_attempt_outcomes_total RPC attempt outcomes by replica and classification (ok, transport, engine, canceled).
# TYPE uots_rpc_attempt_outcomes_total counter
uots_rpc_attempt_outcomes_total{replica="http://replica-a:9001",outcome="canceled"} 3
uots_rpc_attempt_outcomes_total{replica="http://replica-a:9001",outcome="engine"} 2
uots_rpc_attempt_outcomes_total{replica="http://replica-a:9001",outcome="ok"} 4
uots_rpc_attempt_outcomes_total{replica="http://replica-a:9001",outcome="transport"} 1
# HELP uots_rpc_group_exhausted_total Calls that failed every retry and failover attempt across a whole replica group.
# TYPE uots_rpc_group_exhausted_total counter
uots_rpc_group_exhausted_total 1
# HELP uots_rpc_probe_failures_total Failed health probes, by replica.
# TYPE uots_rpc_probe_failures_total counter
uots_rpc_probe_failures_total{replica="http://replica-a:9001"} 3
# HELP uots_rpc_replica_ejections_total Replicas ejected from rotation after exhausting their error budget, by replica.
# TYPE uots_rpc_replica_ejections_total counter
uots_rpc_replica_ejections_total{replica="http://replica-a:9001"} 1
# HELP uots_rpc_replica_readmissions_total Ejected replicas re-admitted after a successful health probe, by replica.
# TYPE uots_rpc_replica_readmissions_total counter
uots_rpc_replica_readmissions_total{replica="http://replica-a:9001"} 1
# HELP uots_rpc_request_seconds RPC attempt latency by replica (successful and failed attempts).
# TYPE uots_rpc_request_seconds histogram
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.0005"} 0
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.001"} 0
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.0025"} 0
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.005"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.01"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.025"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.05"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.1"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.25"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="0.5"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="1"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="2.5"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="5"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="10"} 1
uots_rpc_request_seconds_bucket{replica="http://replica-a:9001",le="+Inf"} 1
uots_rpc_request_seconds_sum{replica="http://replica-a:9001"} 0.003
uots_rpc_request_seconds_count{replica="http://replica-a:9001"} 1
# HELP uots_rpc_requests_total RPC attempts sent, by replica (includes retries).
# TYPE uots_rpc_requests_total counter
uots_rpc_requests_total{replica="http://replica-a:9001"} 5
# HELP uots_rpc_retries_total RPC calls re-sent after a transient failure.
# TYPE uots_rpc_retries_total counter
uots_rpc_retries_total 1
`
	if got != want {
		t.Errorf("uots_rpc_* encoding mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
