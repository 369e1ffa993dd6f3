package core

import "bigdansing/internal/model"

// VecForms holds the batch kernels of a rule's operators. A declarative
// front end that compiles a rule (package rules) can attach them to
// Rule.Vec; when the engine context configures a batch size, a branch whose
// operators have kernels is scanned as model.Batch column vectors instead of
// tuples (see sparkExec.batchScan).
//
// Every form is optional and every form must be observationally identical
// to its tuple counterpart — the same violations emitted in the same order
// — because equivalence (identical violations, hence identical repairs) is
// the contract the batch scan is tested against.
type VecForms struct {
	// Scope is the vectorized Scope kernel: it narrows a batch by flipping
	// selection bits (on a private CloneSel copy — the input batch may be
	// shared) and returns the narrowed batch. It must select exactly the
	// rows the tuple ScopeFunc passes through; drop-only — a vectorized
	// Scope cannot rewrite values or emit extra rows, which is why rules
	// with transforming Scopes leave this nil and scan tuples.
	Scope func(*model.Batch) *model.Batch

	// ScanCols lists the columns the batch kernels (Scope, DetectBatch)
	// read, letting the executor materialize exactly those vectors when it
	// chunks an in-memory relation — the rest of the schema is never
	// transposed and reads through the row backing. The listed columns are
	// guaranteed present in Batch.Cols; kernels touching any column not
	// listed must read it through Batch.Value (which falls back to the rows)
	// rather than indexing Cols directly. nil means undeclared: the executor
	// materializes every column.
	ScanCols []int

	// DetectBatch is the vectorized Detect of a unary rule: one call scans
	// a whole batch and returns the violations of its live rows, in row
	// order (the order the tuple Singles enumeration produces).
	DetectBatch func(*model.Batch) []model.Violation
}
