// Command bigdansing detects and repairs data quality violations in a CSV
// dataset using declarative rules (FDs, DCs, CFDs) or the built-in dedup
// UDF — the command-line face of the system in Figure 1.
//
// Examples:
//
//	bigdansing -input tax.csv -schema 'name,zipcode:int,city,state,salary:float,rate:float' \
//	  -fd 'zipcode -> city' -mode detect
//
//	bigdansing -input tax.csv -schema '...' -fd 'zipcode -> city' \
//	  -dc 't1.salary > t2.salary & t1.rate < t2.rate' \
//	  -mode clean -out clean.csv -parallel-repair
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/netexec"
	"bigdansing/internal/rules"
	"bigdansing/internal/trace"
)

func main() {
	// The net backend spawns workers by re-executing this binary with the
	// worker env hook set; such child processes never reach run().
	netexec.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bigdansing:", err)
		os.Exit(1)
	}
}

// runWorker implements the hidden `worker` subcommand: a standalone netexec
// worker for pre-started deployments (`-net-addrs` on the coordinator side).
// The spawned-worker path uses the env hook in main instead.
func runWorker(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bigdansing worker", flag.ContinueOnError)
	addr := fs.String("addr", "auto", "listen address (host:port, or auto for an ephemeral port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return netexec.WorkerMain(*addr, out)
}

func run(args []string, out io.Writer) error {
	// Subcommands come first; everything else is the classic flag-driven
	// one-shot pipeline.
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], out)
	}
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(args[1:], out)
	}
	fs := flag.NewFlagSet("bigdansing", flag.ContinueOnError)
	var (
		input     = fs.String("input", "", "input CSV file (required)")
		schema    = fs.String("schema", "", "schema, e.g. 'name,zipcode:int,rate:float' (required)")
		header    = fs.Bool("header", false, "input has a header row")
		mode      = fs.String("mode", "detect", "detect | clean | explain")
		outPath   = fs.String("out", "", "output CSV for the repaired data (clean mode)")
		workers   = fs.Int("workers", 8, "parallelism of the dataflow backend")
		verbose   = fs.Bool("v", false, "print every violation")
		stats     = fs.Bool("stats", false, "print the per-stage dataflow execution breakdown")
		explain   = fs.Bool("explain", false, "after the run, print the EXPLAIN ANALYZE-style annotated span tree")
		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON of the run (load in ui.perfetto.dev)")
		vioOut    = fs.String("violations-out", "", "write the violation report (with possible fixes) to this CSV")
		memBudget = fs.String("mem-budget", "", "memory budget for wide operators, e.g. 64MiB or 512K; shuffles spill to disk past it (default: unbounded)")
		spillDir  = fs.String("spill-dir", "", "directory for spill run files (default: the system temp dir)")
		netAddrs  = fs.String("net-addrs", "", "comma-separated addresses of pre-started workers (`bigdansing worker -addr ...`) to join instead of spawning")
	)
	conf := cleanse.DefaultConfig()
	configFlags(fs, &conf)
	var specs []rules.Spec
	for _, kind := range []struct{ name, usage string }{
		{"fd", "functional dependency, e.g. 'zipcode -> city' (repeatable)"},
		{"dc", "denial constraint, e.g. 't1.a > t2.a & t1.b < t2.b' (repeatable)"},
		{"cfd", "conditional FD, e.g. 'zip -> city | 90210 => LA ; _ => _' (repeatable)"},
	} {
		fs.Var(&specFlag{kind: kind.name, specs: &specs}, kind.name, kind.usage)
	}
	var dedups multiFlag
	fs.Var(&dedups, "dedup", "dedup UDF as 'nameAttr[,phoneAttr]' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" || *schema == "" {
		fs.Usage()
		return fmt.Errorf("-input and -schema are required")
	}

	sch, err := model.ParseSchema(*schema)
	if err != nil {
		return fmt.Errorf("-schema: %w", err)
	}
	rel, err := model.ReadCSVFile(*input, "input", sch, *header)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d rows from %s\n", rel.Len(), *input)

	ruleSet, err := rules.CompileSpecs(sch, specs)
	if err != nil {
		return err
	}
	for i, spec := range dedups {
		nameAttr, phoneAttr, _ := strings.Cut(spec, ",")
		r, err := rules.DedupRule(rules.DedupConfig{
			ID:        fmt.Sprintf("dedup%d", i+1),
			NameAttr:  strings.TrimSpace(nameAttr),
			PhoneAttr: strings.TrimSpace(phoneAttr),
		}, sch)
		if err != nil {
			return err
		}
		ruleSet = append(ruleSet, r)
	}
	if len(ruleSet) == 0 {
		return fmt.Errorf("no rules given; use -fd, -dc, -cfd or -dedup")
	}

	budget, err := parseByteSize(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	var tracer *trace.Tracer
	if *explain || *tracePath != "" {
		tracer = trace.New()
	}

	cfg := engine.Config{
		Parallelism:       *workers,
		MemoryBudgetBytes: budget,
		SpillDir:          *spillDir,
	}
	for _, a := range strings.Split(*netAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.NetWorkerAddrs = append(cfg.NetWorkerAddrs, a)
		}
	}
	opts, err := conf.Build(&cfg)
	if err != nil {
		return err
	}
	if tracer != nil {
		cfg.Observer = tracer
	}
	ctx, err := engine.NewContext(cfg)
	if err != nil {
		return err
	}
	defer ctx.Close()
	if *stats {
		defer func() {
			fmt.Fprintf(out, "\ndataflow stages:\n%s", ctx.Stats().Snapshot())
		}()
	}
	if tracer != nil {
		// Finish and export the trace whether or not the run errored: a
		// partial span tree is exactly what explains a failure.
		defer func() {
			tracer.Finish()
			if *explain {
				fmt.Fprintf(out, "\nexecution trace:\n")
				if err := trace.WriteTree(out, tracer); err != nil {
					fmt.Fprintln(os.Stderr, "bigdansing: explain:", err)
				}
			}
			if *tracePath != "" {
				if err := writeTraceFile(*tracePath, tracer); err != nil {
					fmt.Fprintln(os.Stderr, "bigdansing:", err)
				} else {
					fmt.Fprintf(out, "trace written to %s\n", *tracePath)
				}
			}
		}()
	}
	switch *mode {
	case "explain":
		lp, err := core.PlanRules(ruleSet, rel)
		if err != nil {
			return err
		}
		pp, err := core.NewPlanner().Plan(lp)
		if err != nil {
			return err
		}
		fmt.Fprint(out, pp.Explain())
		return nil

	case "detect":
		res, err := core.DetectRules(ctx, ruleSet, rel)
		if err != nil {
			return err
		}
		canonicalOrder(res.FixSets)
		byRule := map[string]int{}
		fixes := 0
		for _, fs := range res.FixSets {
			byRule[fs.Violation.RuleID]++
			fixes += len(fs.Fixes)
			if *verbose {
				fmt.Fprintln(out, " ", fs.Violation)
			}
		}
		fmt.Fprintf(out, "violations: %d (possible fixes: %d)\n", len(res.Violations), fixes)
		ruleIDs := make([]string, 0, len(byRule))
		for r := range byRule {
			ruleIDs = append(ruleIDs, r)
		}
		sort.Strings(ruleIDs)
		for _, r := range ruleIDs {
			fmt.Fprintf(out, "  %-12s %d\n", r, byRule[r])
		}
		if *vioOut != "" {
			if err := model.WriteViolationsFile(*vioOut, rel.Schema, res.FixSets); err != nil {
				return err
			}
			fmt.Fprintf(out, "violation report written to %s\n", *vioOut)
		}
		return nil

	case "clean":
		cleaner, err := cleanse.NewCleaner(ctx, ruleSet, opts...)
		if err != nil {
			return err
		}
		res, err := cleaner.Clean(rel)
		if err != nil {
			return err
		}
		rep := res.Report()
		fmt.Fprintf(out, "iterations: %d\n", rep.Iterations)
		fmt.Fprintf(out, "violations: %d initially, %d remaining\n", rep.InitialViolations, rep.RemainingViolations)
		fmt.Fprintf(out, "updates applied: %d (frozen cells: %d)\n", rep.UpdatesApplied, rep.FrozenCells)
		fmt.Fprintf(out, "detect time: %v, repair time: %v\n", rep.DetectTime, rep.RepairTime)
		if *verbose {
			for i, rr := range rep.RepairRounds {
				fmt.Fprintf(out, "  repair round %d: components=%d split=%d conflicts=%d assignments=%d\n",
					i+1, rr.Components, rr.SplitComponents, rr.Conflicts, rr.Assignments)
			}
		}
		if *outPath != "" {
			if err := model.WriteCSVFile(*outPath, res.Clean, *header); err != nil {
				return err
			}
			fmt.Fprintf(out, "repaired data written to %s\n", *outPath)
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// canonicalOrder sorts sets by rule ID, then by their violation's cell
// positions (sorted, in CellKey order). The engine hands violations over in
// the order its tasks found them, which depends on the process's shuffle
// hash; the detect listing and report are written in this order instead,
// so that one input always reads the same.
func canonicalOrder(sets []model.FixSet) {
	slices.SortStableFunc(sets, func(a, b model.FixSet) int {
		ka, kb := a.Violation.MapKey(), b.Violation.MapKey()
		return cmp.Or(strings.Compare(ka.RuleID, kb.RuleID),
			slices.CompareFunc(ka.Cells[:min(ka.N, len(ka.Cells))], kb.Cells[:min(kb.N, len(kb.Cells))], model.CellKey.Compare),
			cmp.Compare(ka.N, kb.N), strings.Compare(ka.Extra, kb.Extra))
	})
}

// writeTraceFile writes the tracer's Chrome trace-event JSON to path.
func writeTraceFile(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, tracer); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseByteSize parses a human-readable byte count such as "65536", "512K",
// "64MB" or "1GiB" (decimal and binary suffixes are treated alike, as
// powers of 1024). An empty string means no budget (unbounded).
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.ToUpper(s)
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(u, suf.name) {
			mult = suf.mult
			u = strings.TrimSuffix(u, suf.name)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size %q is negative", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// configFlags registers one flag per cleanse.Config field, named by
// kebab-casing its JSON tag, defaulting to the field's value in c and
// writing into it.
func configFlags(fs *flag.FlagSet, c *cleanse.Config) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, help := kebab(f.Tag.Get("json")), f.Tag.Get("help")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, name, *p, help)
		case *bool:
			fs.BoolVar(p, name, *p, help)
		case *int:
			fs.IntVar(p, name, *p, help)
		case *int64:
			fs.Int64Var(p, name, *p, help)
		default:
			panic(fmt.Sprintf("cleanse.Config.%s: no flag type for %T", f.Name, p))
		}
	}
}

// kebab turns a camelCase JSON key into a flag name: parallelRepair ->
// parallel-repair.
func kebab(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsUpper(r) {
			b.WriteByte('-')
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// specFlag collects one kind of repeatable rule flag into a shared list,
// naming each rule after its kind and 1-based position (fd1, dc2, ...).
type specFlag struct {
	kind  string
	n     int
	specs *[]rules.Spec
}

func (f *specFlag) String() string { return "" }
func (f *specFlag) Set(s string) error {
	f.n++
	*f.specs = append(*f.specs, rules.Spec{ID: fmt.Sprintf("%s%d", f.kind, f.n), Kind: f.kind, Spec: s})
	return nil
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
