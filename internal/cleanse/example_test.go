package cleanse_test

import (
	"fmt"
	"log"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// Example is Example 1 of the paper: declare an FD and a DC over a small
// tax table, detect the violations, inspect the possible fixes, and run the
// full cleansing loop.
func Example() {
	// Table 1 of the paper: tax records with a zipcode->city inconsistency
	// (t2/t4/t6 share zipcode 90210 with different cities) and salary/rate
	// inversions.
	schema := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	data := model.NewRelation("tax", schema)
	add := func(id int64, name string, zip int64, city, state string, salary, rate float64) {
		data.Append(model.NewTuple(id,
			model.S(name), model.I(zip), model.S(city), model.S(state), model.F(salary), model.F(rate)))
	}
	add(1, "Annie", 10011, "NY", "NY", 24000, 15)
	add(2, "Laure", 90210, "LA", "CA", 25000, 10)
	add(3, "John", 60601, "CH", "IL", 40000, 25)
	add(4, "Mark", 90210, "SF", "CA", 88000, 28)
	add(5, "Robert", 68270, "CH", "IL", 15000, 20)
	add(6, "Mary", 90210, "LA", "CA", 81000, 28)

	// Rule φF: a zipcode uniquely determines a city (declarative FD).
	fd, err := rules.ParseFD("phiF", "zipcode -> city")
	if err != nil {
		log.Fatal(err)
	}
	phiF, err := fd.Compile(schema)
	if err != nil {
		log.Fatal(err)
	}

	// Rule φD: a higher salary must not pay a lower rate (declarative DC,
	// compiled to an OCJoin plan because its predicates are inequalities).
	dc, err := rules.ParseDC("phiD", "t1.rate > t2.rate & t1.salary < t2.salary")
	if err != nil {
		log.Fatal(err)
	}
	phiD, err := dc.Compile(schema)
	if err != nil {
		log.Fatal(err)
	}

	// Detection: plan, then execute. EXPLAIN shows the chosen physical
	// operators (PBlock+UCrossProduct for the FD, OCJoin for the DC).
	ctx := engine.New(4)
	lp, err := core.PlanRules([]*core.Rule{phiF, phiD}, data)
	if err != nil {
		log.Fatal(err)
	}
	pp, err := core.NewPlanner().Plan(lp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pp.Explain())

	res, err := core.RunPlanSpark(ctx, pp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %d violations:\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println(" ", v)
	}
	fmt.Println("possible fixes:")
	for _, fs := range res.FixSets {
		for _, f := range fs.Fixes {
			fmt.Println(" ", f)
		}
	}

	// Full cleansing: iterate detection and repair until clean.
	cleaner, err := cleanse.NewCleaner(ctx, []*core.Rule{phiF},
		cleanse.WithParallelRepair(repair.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	result, err := cleaner.Clean(data)
	if err != nil {
		log.Fatal(err)
	}
	rep := result.Report()
	fmt.Printf("cleansing phiF: %d violations -> %d in %d iteration(s)\n",
		rep.InitialViolations, rep.RemainingViolations, rep.Iterations)
	fmt.Println("repaired tuples:")
	for _, t := range result.Clean.Tuples {
		fmt.Println(" ", t)
	}
	// Unordered output:
	// plan tax (shared scans: 1)
	//   phiF: PBlock -> UCrossProduct -> PDetect -> PGenFix
	//   phiD: RangePartition -> OCJoin -> PDetect -> PGenFix
	// detected 5 violations:
	//   violation[phiF]{t2[2]=LA; t4[2]=SF}
	//   violation[phiF]{t4[2]=SF; t6[2]=LA}
	//   violation[phiD]{t1[5]=15; t2[5]=10; t1[4]=24000; t2[4]=25000}
	//   violation[phiD]{t5[5]=20; t2[5]=10; t5[4]=15000; t2[4]=25000}
	//   violation[phiD]{t5[5]=20; t1[5]=15; t5[4]=15000; t1[4]=24000}
	// possible fixes:
	//   t2[2]=LA = t4[2]=SF
	//   t4[2]=SF = t6[2]=LA
	//   t1[5]=15 <= t2[5]=10
	//   t1[4]=24000 >= t2[4]=25000
	//   t5[5]=20 <= t2[5]=10
	//   t5[4]=15000 >= t2[4]=25000
	//   t5[5]=20 <= t1[5]=15
	//   t5[4]=15000 >= t1[4]=24000
	// cleansing phiF: 2 violations -> 0 in 2 iteration(s)
	// repaired tuples:
	//   t1(Annie, 10011, NY, NY, 24000, 15)
	//   t2(Laure, 90210, LA, CA, 25000, 10)
	//   t3(John, 60601, CH, IL, 40000, 25)
	//   t4(Mark, 90210, LA, CA, 88000, 28)
	//   t5(Robert, 68270, CH, IL, 15000, 20)
	//   t6(Mary, 90210, LA, CA, 81000, 28)
}
