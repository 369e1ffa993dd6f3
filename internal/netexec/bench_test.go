package netexec

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/rules"
)

// BenchmarkDetectFDNet runs the tpch_fd_detect_net workload's shape through
// DetectRule: φ3 (o_custkey -> c_address) over 100 000 TPC-H rows at 10 %
// errors, seed 1, at parallelism 2 on the networked backend with two
// spawned workers. Besides the coordinator's per-op allocation it reports
// the socket bytes sent per input row.
func BenchmarkDetectFDNet(b *testing.B) {
	fd, err := rules.ParseFD("phi3", "o_custkey -> c_address")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := fd.Compile(datagen.TPCHSchema())
	if err != nil {
		b.Fatal(err)
	}
	rel := datagen.TPCH(100000, 0.10, 1).Dirty
	ctx, err := engine.NewContext(engine.Config{Parallelism: 2, Backend: engine.BackendNet, NetWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	sent := ctx.Stats().Snapshot().NetBytesSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectRule(ctx, rule, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sent = ctx.Stats().Snapshot().NetBytesSent - sent
	b.ReportMetric(float64(sent)/float64(b.N*rel.Len()), "B-sent/row")
}
