package costmodel

import (
	"math/rand"
	"testing"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/telemetry"
)

// benchReplayLog builds an n-record log (100k is ~29 days of traffic)
// through the real telemetry ingest path so indexes exist, as in
// production.
func benchReplayLog(n int) *telemetry.WarehouseLog {
	rng := rand.New(rand.NewSource(7))
	s := telemetry.NewStore()
	at := t0
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(rng.Intn(50)+1) * time.Second)
		exec := time.Duration(rng.Intn(120)+1) * time.Second
		s.OnQuery(cdw.QueryRecord{
			Warehouse: "W", TemplateHash: uint64(rng.Intn(20)),
			SubmitTime: at, StartTime: at, EndTime: at.Add(exec),
			ExecDuration: exec, Size: cdw.SizeSmall, Clusters: 1,
		})
	}
	return s.Log("W")
}

var sinkReplay ReplayResult

// BenchmarkReplayFull100k is a single full-window replay, the unit of
// work the engine runs once per billing period to price the invoice.
func BenchmarkReplayFull100k(b *testing.B) {
	log := benchReplayLog(100_000)
	cfg := cdw.Config{Name: "W", Size: cdw.SizeSmall, MinClusters: 1,
		MaxClusters: 2, AutoSuspend: 5 * time.Minute, AutoResume: true}
	m := Train(log, cfg, t0, t0.Add(48*time.Hour), 8)
	end := log.Queries[len(log.Queries)-1].EndTime.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReplay = m.Replay(log, t0, end)
	}
}
