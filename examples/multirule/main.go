// Multirule: the Table 4 scenario — clean a hospital (HAI) dataset under
// several FDs at once, after minimizing the rule set with the static
// analysis (redundant rules are dropped before planning), and score the
// repair against the ground truth. Repairing one rule's violations can
// surface another's, so the loop takes more than one iteration — exactly
// the behavior Table 4 reports.
//
//	go run ./examples/multirule
package main

import (
	"fmt"
	"log"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

func main() {
	// Errors are injected on the attributes the rules cover (columns:
	// state, zip, city, phone), as the paper's per-combination datasets do.
	truth := datagen.HAI(8000, 0.1, 21, 3, 4, 2, 6)
	fmt.Printf("HAI: %d rows, %d corrupted cells\n", truth.Dirty.Len(), len(truth.Errors))

	// Declare the rule set — including a redundant FD and a duplicate that
	// the minimal cover removes before planning.
	specs := []string{
		"zip -> state",              // phi6
		"phone -> zip",              // phi7
		"providerID -> city, phone", // phi8
		"phone -> state",            // implied by phi7 + phi6
		"zip -> state",              // duplicate of phi6
	}
	var fds []*rules.FD
	for i, s := range specs {
		fd, err := rules.ParseFD(fmt.Sprintf("phi%d", i+6), s)
		if err != nil {
			log.Fatal(err)
		}
		fds = append(fds, fd)
	}
	cover := rules.FDMinimalCover(fds)
	fmt.Printf("rule set minimized: %d declared -> %d after minimal cover\n", len(fds), len(cover))
	for _, fd := range cover {
		fmt.Println("  ", fd)
	}

	var ruleSet []*core.Rule
	for _, fd := range cover {
		r, err := fd.Compile(datagen.HAISchema())
		if err != nil {
			log.Fatal(err)
		}
		ruleSet = append(ruleSet, r)
	}

	cleaner, err := cleanse.NewCleaner(engine.New(8), ruleSet,
		cleanse.WithParallelRepair(repair.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	res, err := cleaner.Clean(truth.Dirty)
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report()
	fmt.Printf("\ncleansing: %d -> %d violations in %d iterations (%v)\n",
		rep.InitialViolations, rep.RemainingViolations, rep.Iterations,
		time.Since(t0).Round(time.Millisecond))
	fmt.Printf("engine: %d stages, %d tasks, %d records shuffled\n",
		rep.Engine.Stages, rep.Engine.Tasks, rep.Engine.RecordsShuffled)

	q := datagen.Evaluate(truth, res.Clean)
	fmt.Printf("repair quality: precision %.3f, recall %.3f (%d updates, %d correct)\n",
		q.Precision, q.Recall, q.Updated, q.Correct)
}
