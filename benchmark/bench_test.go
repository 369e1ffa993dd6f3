package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"bigdansing/internal/netexec"
)

func TestMain(m *testing.M) {
	netexec.MaybeWorker() // tpch_fd_detect_net re-executes the test binary as its workers
	os.Exit(m.Run())
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON holds the metric and workload tables of
// this package in step with the declaration the acceptance driver reads.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, js []jsonMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark %d", kind, len(js), len(defs))
		}
		for i, j := range js {
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if j.Name != d.name || j.Unit != d.unit || j.Better != better || j.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, j, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs all eight workloads, untraced and traced, at a fiftieth
// of their size and checks what they emit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	start := time.Now()
	for i := range specs {
		sp := &specs[i]
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, scale: 0.02, seconds: 0.05, traced: traced, minOps: 3, setups: 1}
			res, err := runWorkload(sp, cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", sp.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%s (traced=%v): %d of %d ops failed: %v", sp.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, BENCHMARK.json names %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				m, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s is not emitted", sp.name, w.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", sp.name, w.Name, m.Value)
				case m.Unit != w.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", sp.name, w.Name, m.Unit, w.Unit)
				case !nameOK.MatchString(w.Name):
					t.Errorf("metric name %q", w.Name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", sp.name, w.Name, m.Value)
				}
			}
			if traced {
				spilled := res.Metrics["spill.bytes_spilled"].Value > 0
				if spilled != (sp.name == "tpch_fd_detect_spill") {
					t.Errorf("%s: spill.bytes_spilled = %v", sp.name, res.Metrics["spill.bytes_spilled"].Value)
				}
				if len(res.spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", sp.name)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimes: self time = duration - the part child spans cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Start: ms(10), End: ms(40)},                // covers 30
		{ID: 2, Parent: 0, Start: ms(30), End: ms(60)},                // overlaps span 1: adds 20
		{ID: 3, Parent: 0, Start: ms(90), End: ms(120)},               // clipped to the parent: adds 10
		{ID: 4, Parent: 1, Start: ms(10), End: ms(40)},                // covers its parent entirely
		{ID: 5, Parent: 2, Start: ms(35), End: ms(45), Kind: "task"},  // skipped as cover
		{ID: 6, Parent: 2, Start: ms(50), End: ms(55), Kind: "stage"}, // covers 5
	}
	self := selfTimes(spans, func(s span) bool { return s.Kind == "task" })
	for id, want := range map[int]time.Duration{0: ms(40), 1: 0, 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(10), 6: ms(5)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// TestTailPercentile: a percentile is reported only with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		limit float64
		wantP float64
	}{
		{17, 95, 50},    // a batch workload's samples: no tail qualifies
		{39, 95, 50},    // 25% of 39 is 9.75 samples
		{40, 95, 75},    // 25% of 40 is 10
		{100, 95, 90},   // 10 beyond p90, only 5 beyond p95
		{199, 95, 90},   // 9.95 beyond p95
		{200, 95, 95},   // 10 beyond p95
		{256, 95, 95},   // the stream's 256 batches
		{1000, 95, 95},  // p99 qualifies but the limit is p95
		{1000, 99, 99},  // exactly 10 beyond p99
		{999, 99, 95},   // 9.99 beyond p99
		{5, 99, 50},     // tiny sample
		{0, 95, 50},     // empty sample
		{20000, 99, 99}, // plenty
	} {
		p, v := tailPercentile(seq(c.n), c.limit)
		if p != c.wantP {
			t.Errorf("n=%d limit=%v: got p%v, want p%v", c.n, c.limit, p, c.wantP)
		}
		if c.n > 0 && (v < 1 || v > float64(c.n)) {
			t.Errorf("n=%d: value %v outside the sample", c.n, v)
		}
	}
	if got := percentile(seq(101), 95); got != 96 {
		t.Errorf("p95 of 1..101 = %v, want 96", got)
	}
}

// TestQuartiles: the same cut points as Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestVerdict: the rules -compare judges a pair of measurements by.
func TestVerdict(t *testing.T) {
	job := metricDef{name: "job_s", bound: 0.10}
	rate := metricDef{name: "rows_per_s", higher: true, bound: 0.10}
	count := metricDef{name: "core.pairs", exact: true}
	layer := metricDef{name: "core.detect_s"}
	for _, c := range []struct {
		d    metricDef
		a, b measure
		want string
	}{
		{job, measure{Value: 1, IQR: 0.02}, measure{Value: 1.05}, verdictSame},
		{job, measure{Value: 1, IQR: 0.02}, measure{Value: 1.2}, verdictWorse},
		{job, measure{Value: 1, IQR: 0.02}, measure{Value: 0.8}, verdictBetter},
		{job, measure{Value: 1, IQR: 0.2, N: 1}, measure{Value: 1.5}, verdictUnresolved},
		{job, measure{Value: 1, IQR: 0.2, N: 16}, measure{Value: 1.5}, verdictWorse}, // median known to 5%
		{rate, measure{Value: 100, IQR: 1}, measure{Value: 80}, verdictWorse},
		{rate, measure{Value: 100, IQR: 1}, measure{Value: 120}, verdictBetter},
		{count, measure{Value: 7}, measure{Value: 7}, verdictSame},
		{count, measure{Value: 7}, measure{Value: 8}, verdictWorse},
		{layer, measure{Value: 1}, measure{Value: 2}, verdictInfo},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestReportRoundTrip: an -out file reads back as written, with the
// reproducibility record and a null claim.
func TestReportRoundTrip(t *testing.T) {
	path := t.TempDir() + "/r.json"
	res := newResult(&specs[0], false)
	res.setSamples("job_s", []float64{1, 2, 3})
	if err := writeJSON(path, report{Env: newEnv(config{seed: 7, scale: 0.5, seconds: 2}), Workloads: []*result{res}}); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := readJSON(path, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["claim"]) != "null" {
		t.Errorf("claim = %s, want null", raw["claim"])
	}
	var back report
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	if back.Env.Seed != 7 || back.Env.Scale != 0.5 || back.Env.GoVersion == "" || back.Env.NProc == 0 {
		t.Errorf("env = %+v", back.Env)
	}
	if m := back.Workloads[0].Metrics["job_s"]; m.Value != 2 || m.N != 3 || m.IQR != 2 {
		t.Errorf("job_s = %+v", m)
	}
}
