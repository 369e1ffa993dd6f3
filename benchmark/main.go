// Command benchmark is the repository's benchmark: eight named workloads,
// end-to-end metrics from untraced runs and per-layer metrics from traced
// runs, all measured from outside the program (see README.md).
//
//	bash benchmark/run.sh -out r.json          # every workload, both runs
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh --workload tpch_fd_detect --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"bigdansing/internal/netexec"
)

// env is the reproducibility record every output file carries.
type env struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Seconds     float64 `json:"seconds"`
	Parallelism int     `json:"parallelism"`
}

// report is the -out file: one entry per workload, holding the metrics of
// its untraced and traced runs (each with its sample count).
type report struct {
	Env       env       `json:"env"`
	Claim     *string   `json:"claim"` // this benchmark claims no gain
	Workloads []*result `json:"workloads"`
}

func main() {
	netexec.MaybeWorker() // spawned netexec workers re-execute this binary

	var (
		workload = flag.String("workload", "", "run only this workload (default: all, each in its own child process)")
		seed     = flag.Int64("seed", 1, "input generator seed")
		scale    = flag.Float64("scale", 1.0, "row-count multiplier")
		seconds  = flag.Float64("seconds", 8, "length of a workload's timed section")
		traceOn  = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		out      = flag.String("out", "", "write the results to this JSON file (spans to <out>.trace.json)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
	)
	flag.Parse()

	// Every workload is sized for two cores; workers spawned later inherit it.
	procs := min(runtime.NumCPU(), parallelism)
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", strconv.Itoa(procs))

	cfg := config{seed: *seed, scale: *scale, seconds: *seconds, traced: *traceOn == 1,
		minOps: defaultMinOps, setups: defaultSetups}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files: A.json B.json")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(*workload, cfg, *out)
	default:
		err = runAll(cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func newEnv(cfg config) env {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Parallelism: parallelism}
}

// runOne runs one workload in this process and prints, as the last line of
// standard output, the one-object summary the acceptance driver reads.
func runOne(name string, cfg config, out string) error {
	sp := findSpec(name)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(sp, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out != "" {
		if err := writeJSON(out, report{Env: newEnv(cfg), Workloads: []*result{res}}); err != nil {
			return err
		}
		if res.Traced {
			if err := writeJSON(out+".trace.json", map[string][]span{name: res.spans}); err != nil {
				return err
			}
		}
	}
	printResult(res)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, m := range res.Metrics {
		last.Metrics[name] = metric{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload twice (untraced, traced), each run in its own
// child process so peak memory and GC state are per workload, and merges
// the children's files into one report.
func runAll(cfg config, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "bdbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := report{Env: newEnv(cfg)}
	spans := map[string][]span{}
	failed := 0
	for i := range specs {
		sp := &specs[i]
		merged := &result{Workload: sp.name, Correct: true, Metrics: map[string]measure{}}
		for _, traced := range []int{0, 1} {
			file := filepath.Join(tmp, fmt.Sprintf("%s.%d.json", sp.name, traced))
			cmd := exec.Command(exe, "-workload", sp.name, "-trace", strconv.Itoa(traced), "-out", file,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", sp.name, traced, err)
			}
			var child report
			if err := readJSON(file, &child); err != nil {
				return err
			}
			r := child.Workloads[0]
			merged.Correct = merged.Correct && r.Correct
			merged.Attempted += r.Attempted
			merged.Failed += r.Failed
			merged.Failures = append(merged.Failures, r.Failures...)
			for name, m := range r.Metrics {
				merged.Metrics[name] = m
			}
			if traced == 1 {
				var s map[string][]span
				if err := readJSON(file+".trace.json", &s); err != nil {
					return err
				}
				spans[sp.name] = s[sp.name]
			}
		}
		printResult(merged)
		failed += merged.Failed
		rep.Workloads = append(rep.Workloads, merged)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
		if err := writeJSON(out+".trace.json", spans); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}

// printResult prints every metric by name with its unit.
func printResult(r *result) {
	fmt.Printf("== %s: attempted %d, failed %d (failed_share %.4f)\n", r.Workload, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("   %-32s %16.6g %-7s iqr %-12.4g n %d\n", name, m.Value, m.Unit, m.IQR, m.N)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
