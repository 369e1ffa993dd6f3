package cleanse

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// Session is a streaming cleanse: instead of one Clean(rel) call over a
// finished relation, a caller Opens a session against a schema, Ingests
// batches of tuples as they arrive, and Flushes when it wants the
// detect-repair loop run to quiescence over everything seen so far. The
// session owns the relation and every piece of cleansing state — the
// incremental detection caches, the equivalence-class repair memory, and
// the frozen-cell/update counters of the termination device — all of which
// survive across Flushes, so each Flush only pays for what changed since
// the last one.
//
// Lifecycle (the session state machine):
//
//	Open ──► open ──Ingest──► open ──Flush──► open ──Close──► closed
//
// Ingest and Flush may interleave freely while the session is open; every
// method but Relation and Status errors once it is closed. A Session is
// safe for concurrent use; calls are serialized on an internal mutex.
//
// Incremental detection: every detection goes through one
// core.IncrementalDetector. Its first pass is a full pass whose grouping
// stage also builds the block-membership index; after that, Ingest and
// each Flush round re-detect only the blocks the new or repaired tuples
// left or joined. Rules that cannot be maintained block by block fall back
// to bounded re-detection — they re-run, together, at most once per Flush
// round, and not at all when nothing changed.
type Session struct {
	mu  sync.Mutex
	cfg Cleaner // frozen configuration copy

	rel *model.Relation
	idx map[int64]int // tuple ID -> position, maintained on ingest
	// owned marks, by position, the tuples whose cells the session has
	// copied; every other tuple borrows its caller's cells (see own).
	owned []bool

	det    *core.IncrementalDetector
	algo   repair.Algorithm
	ropts  repair.Options
	memory *repair.ClassMemory

	frozen  map[model.CellKey]bool
	updates map[model.CellKey]int
	dirty   []int64        // tuple IDs changed since the detector last saw them
	sets    []model.FixSet // a round's buffer for one block's fix sets

	nextID int64
	closed bool

	// lifetime counters for Status and the per-flush reports.
	ingested      int64
	flushes       int
	totalUpdates  int64
	pendingDetect time.Duration // ingest-time detection, attributed to the next flush
}

// Open starts a streaming cleanse session over schema with the Cleaner's
// configuration. Any rule set streams: rules the detector cannot maintain
// block by block re-run in full once per Flush round that follows a change.
func (c *Cleaner) Open(schema *model.Schema) (*Session, error) {
	if schema == nil {
		return nil, fmt.Errorf("cleanse: Open: nil schema")
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return newSession(*c, model.NewRelation("session", schema))
}

// newSession wires the session state over an initial relation. The
// detector starts unprimed, so the first detection (an Ingest's Observe or
// a Flush round) runs its one full pass over the relation.
func newSession(cfg Cleaner, rel *model.Relation) (*Session, error) {
	s := &Session{
		cfg:     cfg,
		rel:     rel,
		idx:     rel.ByID(),
		memory:  repair.NewClassMemory(),
		frozen:  map[model.CellKey]bool{},
		updates: map[model.CellKey]int{},
	}
	for _, t := range rel.Tuples {
		if t.ID >= s.nextID {
			s.nextID = t.ID + 1
		}
	}
	d, err := core.NewIncrementalDetector(cfg.ctx, cfg.rules)
	if err != nil {
		return nil, err
	}
	s.det = d
	// The repair algorithm: the configured one, or the equivalence-class
	// default. When it is an equivalence-class instance without a prior,
	// thread the session's class memory through a copy so streaming repair
	// stays sticky without mutating the caller's struct.
	s.algo = cfg.algo
	if s.algo == nil {
		s.algo = &repair.EquivalenceClass{Prior: s.memory}
	} else if ec, ok := s.algo.(*repair.EquivalenceClass); ok && ec.Prior == nil {
		cp := *ec
		cp.Prior = s.memory
		s.algo = &cp
	} else if cl, ok := s.algo.(repair.Cloner); ok {
		// Algorithms with per-session mutable state (the probabilistic
		// backend's learned weights) are cloned so sessions sharing one
		// Cleaner never share it.
		s.algo = cl.CloneAlgorithm()
	}
	s.ropts = cfg.repairOpts
	if s.ropts.Observer == nil {
		s.ropts.Observer = cfg.ctx.Observer()
	}
	return s, nil
}

// Ingest appends a batch of tuples to the session's relation and routes
// them through the incremental detector: only the blocks the new tuples
// land in are re-detected, and non-incrementalizable rules are merely
// marked stale for the next Flush. The session borrows the batch's cells:
// it never writes them, and copies a tuple's cells on its first repair, so
// the caller's batch stays as it was handed in. The caller must not write
// those cells afterwards either: the session keeps reading them. A tuple with
// a negative ID is assigned the next free one, past every ID in the session
// and in the batch; a duplicate ID fails the whole batch (nothing is
// appended).
func (s *Session) Ingest(batch []model.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cleanse: session closed")
	}
	if len(batch) == 0 {
		return nil
	}
	want := s.rel.Schema.Len()
	seen := make(map[int64]bool, len(batch))
	next := s.nextID
	for i, t := range batch {
		if len(t.Cells) != want {
			return fmt.Errorf("cleanse: ingest: tuple %d has %d cells, schema has %d", i, len(t.Cells), want)
		}
		if t.ID >= 0 {
			if _, dup := s.idx[t.ID]; dup || seen[t.ID] {
				return fmt.Errorf("cleanse: ingest: duplicate tuple id %d", t.ID)
			}
			seen[t.ID] = true
			next = max(next, t.ID+1)
		}
	}
	s.nextID = next
	ids := make([]int64, 0, len(batch))
	for _, t := range batch {
		if t.ID < 0 {
			t.ID = s.nextID
			s.nextID++
		}
		s.idx[t.ID] = len(s.rel.Tuples)
		s.rel.Append(t)
		ids = append(ids, t.ID)
	}
	s.ingested += int64(len(ids))
	t0 := time.Now()
	err := s.det.Observe(s.rel, s.idx, ids)
	s.pendingDetect += time.Since(t0)
	if err != nil {
		return fmt.Errorf("cleanse: ingest: %w", err)
	}
	return nil
}

// Flush runs the detect-repair loop to quiescence over everything ingested
// so far and returns the report for this flush. Repairs are applied to the
// session's relation in place; the frozen-cell state and the repair class
// memory carry over to later flushes, so a cell pinned by the termination
// device stays pinned for the life of the session. Flushing with nothing
// new ingested is cheap: cached detection state is re-assembled without
// re-running any dataflow.
func (s *Session) Flush() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Report{}, fmt.Errorf("cleanse: session closed")
	}
	return s.flushLocked()
}

func (s *Session) flushLocked() (Report, error) {
	cfg := &s.cfg
	maxIter := cfg.maxIterations
	if maxIter <= 0 {
		maxIter = 10
	}
	freezeAfter := cfg.freezeAfter
	if freezeAfter <= 0 {
		freezeAfter = 3
	}
	obs := cfg.ctx.Observer()

	rep := Report{Flush: s.flushes + 1}
	rep.DetectTime = s.pendingDetect
	s.pendingDetect = 0
	var applied []repair.Assignment // everything applied this flush, for the class memory

	for iter := 0; iter < maxIter; iter++ {
		// One span per detect-repair round; the closure keeps it closed on
		// every exit path (early convergence, errors).
		rsp := obs.BeginSpan(nil, fmt.Sprintf("round %d", iter+1), engine.SpanRound)
		done, err := func() (bool, error) {
			t0 := time.Now()
			view, err := s.detect()
			if err != nil {
				return false, fmt.Errorf("cleanse: detection (iteration %d): %w", iter+1, err)
			}
			// Parallel repair takes its components from the view's blocks
			// when it is by block; a learning algorithm fits on the flat
			// hand-off, so it keeps that.
			_, fits := s.algo.(repair.Fitter)
			byBlock := cfg.parallel && !fits && view.ByBlock()
			var det *core.DetectResult
			if !byBlock {
				det = view.Result()
			}
			rep.DetectTime += time.Since(t0)
			violations := view.NumViolations()
			if iter == 0 {
				rep.InitialViolations = violations
			}
			rep.Iterations = iter + 1
			rsp.Attr(engine.AttrViolations, int64(violations))

			// Drop violations whose every fix touches a frozen cell: they have
			// no usable possible fixes anymore (Section 2.2's stopping rule).
			// On the flat path, actionable aliases det.FixSets until the
			// first set is dropped, and from then on holds copies of the
			// kept ones; on the block path repair filters each block itself.
			var actionable []model.FixSet
			// eachActionable visits the fix sets repair is handed.
			eachActionable := func(visit func(model.FixSet)) {
				if !byBlock {
					for _, fs := range actionable {
						visit(fs)
					}
					return
				}
				for i := range view.NumBlocks() {
					s.sets = view.AppendBlock(s.sets[:0], i)
					for _, fs := range s.sets {
						if s.usable(fs) {
							visit(fs)
						}
					}
				}
				clear(s.sets) // do not pin the detector's slabs
			}
			kept := 0
			if byBlock {
				eachActionable(func(model.FixSet) { kept++ })
			} else {
				actionable = det.FixSets
				dropped := 0
				for i, fs := range det.FixSets {
					if s.usable(fs) {
						if dropped > 0 {
							actionable = append(actionable, fs)
						}
						continue
					}
					if dropped == 0 {
						actionable = append(make([]model.FixSet, 0, len(det.FixSets)-1), det.FixSets[:i]...)
					}
					dropped++
				}
				kept = len(actionable)
			}
			if kept == 0 {
				rep.RemainingViolations = violations
				return true, nil
			}

			t1 := time.Now()
			if iter == 0 {
				// Learning algorithms fit once per flush, on the pre-repair
				// relation (clean cells = cells no fix touches).
				if f, ok := s.algo.(repair.Fitter); ok {
					if err := f.Fit(s.rel, actionable, obs); err != nil {
						return false, fmt.Errorf("cleanse: repair fit (iteration %d): %w", iter+1, err)
					}
				}
			}
			var assignments []repair.Assignment
			if cfg.parallel {
				var as []repair.Assignment
				var rr *repair.Report
				var err error
				if byBlock {
					as, rr, err = repair.RepairBlocks(view, s.usable, s.algo, s.ropts)
				} else {
					as, rr, err = repair.RepairParallel(actionable, s.algo, s.ropts)
				}
				if err != nil {
					return false, fmt.Errorf("cleanse: parallel repair (iteration %d): %w", iter+1, err)
				}
				assignments = as
				rep.RepairRounds = append(rep.RepairRounds, rr)
			} else {
				csp := obs.BeginSpan(nil, "repair", engine.SpanRepair)
				csp.Attr(engine.AttrAlgorithm, repair.AlgorithmCode(s.algo.Name()))
				var as []repair.Assignment
				var err error
				if sa, ok := s.algo.(repair.SpanAlgorithm); ok {
					as, err = sa.RepairSpanned(actionable, obs, csp)
				} else {
					as, err = s.algo.Repair(actionable)
				}
				csp.Attr(engine.AttrAssignments, int64(len(as)))
				csp.End()
				if err != nil {
					return false, fmt.Errorf("cleanse: repair (iteration %d): %w", iter+1, err)
				}
				assignments = as
			}
			rep.RepairTime += time.Since(t1)

			s.own(assignments)
			n := repair.ApplyIndexed(s.rel, s.idx, assignments, s.frozen)
			rep.UpdatesApplied += n
			rsp.Attr(engine.AttrAssignments, int64(n))
			// With nothing applicable applied, the cells of the fixes repair
			// was handed are frozen to guarantee forward progress: found now,
			// while the frozen set is the one that chose them, and frozen
			// after the updates are counted.
			var stuck []model.CellKey
			if n == 0 {
				eachActionable(func(fs model.FixSet) {
					for _, f := range fs.Fixes {
						for _, cell := range f.Cells() {
							stuck = append(stuck, cell.MapKey())
						}
					}
				})
			}
			s.dirty = s.dirty[:0]
			seenChanged := map[int64]bool{}
			for _, a := range assignments {
				k := a.CellKey()
				if !s.frozen[k] && !seenChanged[a.TupleID] {
					seenChanged[a.TupleID] = true
					s.dirty = append(s.dirty, a.TupleID)
				}
				if s.frozen[k] {
					continue
				}
				s.updates[k]++
				if s.updates[k] >= freezeAfter {
					s.frozen[k] = true
				}
			}
			for _, k := range stuck {
				s.frozen[k] = true
			}
			if n > 0 {
				applied = append(applied, assignments...)
			}
			return false, nil
		}()
		rsp.End()
		if err != nil {
			return Report{}, err
		}
		if done {
			return s.finishFlush(rep, applied), nil
		}
	}

	// Out of iterations: report what is left.
	det, err := s.detect()
	if err != nil {
		return Report{}, err
	}
	rep.RemainingViolations = det.NumViolations()
	return s.finishFlush(rep, applied), nil
}

// usable reports whether some fix of fs touches no frozen cell. A
// detection-only violation (no fixes) is reported, never repairable.
func (s *Session) usable(fs model.FixSet) bool {
	for _, f := range fs.Fixes {
		ok := true
		for _, cell := range f.Cells() {
			if s.frozen[cell.MapKey()] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// own copies the cells of every tuple a non-frozen assignment writes that
// the session does not own yet, so applying the assignments never writes a
// caller's cells: a tuple is copied on its first repair, and only then.
func (s *Session) own(assignments []repair.Assignment) {
	if n := len(s.rel.Tuples); len(s.owned) < n {
		s.owned = append(s.owned, make([]bool, n-len(s.owned))...)
	}
	for _, a := range assignments {
		i, ok := s.idx[a.TupleID]
		if !ok || s.owned[i] || s.frozen[a.CellKey()] {
			continue
		}
		s.rel.Tuples[i].Cells = slices.Clone(s.rel.Tuples[i].Cells)
		s.owned[i] = true
	}
}

// detect runs one detection pass over the tuples changed since the last.
// The view it returns is valid until the next.
func (s *Session) detect() (*core.DetectView, error) {
	v, err := s.det.View(s.rel, s.idx, s.dirty)
	if err != nil {
		return nil, err
	}
	s.dirty = s.dirty[:0]
	return v, nil
}

// finishFlush stamps the flush-invariant report fields and folds the
// flush's applied assignments into the session-lifetime repair memory (done
// here, not per round, so a flush behaves exactly like one Clean run).
func (s *Session) finishFlush(rep Report, applied []repair.Assignment) Report {
	s.memory.Record(applied, s.frozen)
	s.flushes++
	s.totalUpdates += int64(rep.UpdatesApplied)
	rep.FrozenCells = len(s.frozen)
	rep.Tuples = s.rel.Len()
	rep.Engine = s.cfg.ctx.Stats().Snapshot()
	return rep
}

// Close ends the session. It does not flush — callers that want the last
// batches repaired call Flush first (the serve layer's drain path does).
// Close is idempotent; every other method fails after it.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	// A session opened from a context-owning Cleaner (WithEngineConfig)
	// carries the ownership in its frozen config copy: closing the session
	// shuts the backend down, which on the networked backend terminates the
	// spawned worker processes.
	return s.cfg.Close()
}

// Relation returns a deep copy of the session's current (repaired-so-far)
// relation. It remains available after Close.
func (s *Session) Relation() *model.Relation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rel.Clone()
}

// Status is a point-in-time summary of a session, cheap enough to poll.
type Status struct {
	// Tuples is the current relation size; Ingested counts tuples accepted
	// over the session's lifetime (the same unless tuples were removed).
	Tuples   int
	Ingested int64
	// Flushes counts completed Flush calls; UpdatesApplied and FrozenCells
	// accumulate over all of them.
	Flushes        int
	UpdatesApplied int64
	FrozenCells    int
	// Closed reports the lifecycle state.
	Closed bool
}

// Status reports the session's current state. It remains available after
// Close.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Tuples:         s.rel.Len(),
		Ingested:       s.ingested,
		Flushes:        s.flushes,
		UpdatesApplied: s.totalUpdates,
		FrozenCells:    len(s.frozen),
		Closed:         s.closed,
	}
}
