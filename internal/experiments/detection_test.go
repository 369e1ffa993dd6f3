package experiments

import (
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// checkDiskBackendGap checks the mechanism behind Figure 10's gap between
// the backends on rule over rel: the disk backend writes every exchange's
// runs to files and reads each byte back, the in-memory backend writes
// none, and both find the same violations.
func checkDiskBackendGap(t *testing.T, cfg Config, rule *core.Rule, rel *model.Relation) {
	t.Helper()
	ctx := engine.New(cfg.Workers)
	mem, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapred.New(t.TempDir(), cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := core.DetectRuleMapReduce(eng, rule, rel, cfg.Workers, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if spilled := ctx.Stats().Snapshot().BytesSpilled; spilled != 0 {
		t.Errorf("in-memory backend wrote %d run-file bytes, want none", spilled)
	}
	if st := eng.Stats(); st.BytesSpilled() == 0 || st.BytesRead() != st.BytesSpilled() {
		t.Errorf("disk backend wrote %d run-file bytes and read %d back, want the same nonzero count", st.BytesSpilled(), st.BytesRead())
	}
	keys := func(r *core.DetectResult) []string {
		var out []string
		for _, v := range r.Violations {
			out = append(out, v.Key())
		}
		slices.Sort(out)
		return out
	}
	if m, d := keys(mem), keys(disk); len(m) == 0 || !slices.Equal(m, d) {
		t.Errorf("backends disagree: %d violations in memory, %d on disk", len(m), len(d))
	}
}

func TestFig10cSparkBeatsHadoopBackend(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	checkDiskBackendGap(t, cfg, mustRule(phi3()), mkTPCH(cfg, 100000))
}

func TestFig10bExcludesBaselinesAtLargestSize(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 1 // exclusion thresholds are absolute row counts
	// Only check the plan of exclusions, not the timings: build the sizes
	// the experiment would use and apply its exclusion rule.
	for _, tc := range []struct {
		rows    int
		sys     string
		wantRun bool
	}{
		{4000, sysSparkSQL, true},
		{8000, sysShark, true},
		{16000, sysSparkSQL, false},
		{16000, sysShark, false},
		{16000, sysBigDansing, true},
	} {
		excluded := tc.sys != sysBigDansing && float64(tc.rows)*float64(tc.rows) > 1.1e8
		if excluded == tc.wantRun {
			t.Errorf("%s at %d rows: excluded=%v, want run=%v", tc.sys, tc.rows, excluded, tc.wantRun)
		}
	}
}

func TestDetectWithUnknownSystem(t *testing.T) {
	cfg := tinyCfg()
	rule := mustRule(phi1())
	if _, err := detectWith(cfg, "oracle9i", rule, nil); err == nil {
		t.Error("unknown system should error")
	}
}
