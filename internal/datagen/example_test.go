package datagen_test

import (
	"fmt"
	"log"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/rules"
)

// Example is the deduplication scenario of Section 6.5: a UDF rule (rule φ4
// style) finds duplicate customers by Levenshtein similarity on name and
// phone, blocked by Soundex so the pair space stays small, and scores the
// detected pairs against the injected ground truth.
func Example() {
	// 800 distinct customers, each duplicated 3x exactly, plus 2%
	// near-duplicates with random edits in name or phone.
	truth := datagen.Customers("customer1", 800, 3, 0.02, 42)
	fmt.Printf("customer table: %d rows, %d injected duplicate pairs\n",
		truth.Dirty.Len(), len(truth.DupPairs))

	rule, err := rules.DedupRule(rules.DedupConfig{
		ID:             "phi4",
		NameAttr:       "c_name",
		PhoneAttr:      "c_phone",
		NameThreshold:  0.75,
		PhoneThreshold: 0.7,
		BlockBySoundex: true,
	}, datagen.CustomerSchema())
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.DetectRule(engine.New(4), rule, truth.Dirty)
	if err != nil {
		log.Fatal(err)
	}

	// Each violation is a duplicate pair.
	var pairs [][2]int64
	for _, v := range res.Violations {
		if ids := v.TupleIDs(); len(ids) == 2 {
			pairs = append(pairs, [2]int64{ids[0], ids[1]})
		}
	}
	q := datagen.DedupQuality(truth, pairs)
	fmt.Printf("detected %d duplicate pairs\n", len(pairs))
	fmt.Printf("precision: %.3f  recall: %.3f\n", q.Precision, q.Recall)
	// Output:
	// customer table: 2448 rows, 1648 injected duplicate pairs
	// detected 2952 duplicate pairs
	// precision: 0.842  recall: 0.988
}
