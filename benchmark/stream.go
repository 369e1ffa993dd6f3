package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/serve"
	"bigdansing/internal/trace"
)

const (
	streamBatchRows = 200
	// streamBatchesPerSecond sizes the stream's fixed work from --seconds:
	// a batch's latency depends on how far the session has grown, so the
	// number of batches, not the wall time, must be the same on every run.
	streamBatchesPerSecond = 32
	sessionName            = "bench"
)

// stream is the set-up service workload: a serve.Server on a loopback
// listener with one primed session, and the batches still to be sent.
type stream struct {
	sp      *spec
	truth   *datagen.Truth
	primed  int
	batches [][]model.Tuple // tuples of each timed batch (direct replay)
	bodies  [][]byte        // the same batches, JSON-encoded for POST .../ingest

	ts     *httptest.Server
	client *http.Client
}

func streamBatches(cfg config) int {
	return max(int(math.Round(streamBatchesPerSecond*cfg.seconds*cfg.scale)), 8)
}

// ingestBody renders tuples the way a client of the JSON API sends them.
func ingestBody(ts []model.Tuple) ([]byte, error) {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t.Cells))
		for c, v := range t.Cells {
			row[c] = v.String()
		}
		rows[i] = row
	}
	return json.Marshal(map[string]any{"tuples": rows})
}

func setupStream(sp *spec, cfg config) (*stream, error) {
	n := streamBatches(cfg)
	s := &stream{sp: sp, primed: scaled(sp.rows, cfg.scale)}
	s.truth = sp.gen(s.primed+n*streamBatchRows, sp.errRate, cfg.seed)
	for i := 0; i < n; i++ {
		lo := s.primed + i*streamBatchRows
		ts := s.truth.Dirty.Tuples[lo : lo+streamBatchRows]
		body, err := ingestBody(ts)
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, ts)
		s.bodies = append(s.bodies, body)
	}
	s.ts = httptest.NewServer(serve.New(serve.Config{Workers: parallelism}).Handler())
	s.client = s.ts.Client()
	if err := s.prime(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prime creates the session and fills it in a few large ingests and one
// flush: the timed loop starts on a session that already holds state.
func (s *stream) prime() error {
	create, err := json.Marshal(map[string]any{
		"schema":         s.sp.schema().String(),
		"rules":          []map[string]string{{"id": s.sp.ruleID, "kind": s.sp.ruleKind, "spec": s.sp.ruleSpec}},
		"parallelRepair": true,
	})
	if err != nil {
		return err
	}
	if code, _, err := s.post("", create); err != nil || code/100 != 2 {
		return fmt.Errorf("create session: status %d: %v", code, err)
	}
	for _, chunk := range s.primeChunks() {
		body, err := ingestBody(chunk)
		if err != nil {
			return err
		}
		if code, _, err := s.post("/ingest", body); err != nil || code/100 != 2 {
			return fmt.Errorf("prime ingest: status %d: %v", code, err)
		}
	}
	if code, _, err := s.post("/flush", nil); err != nil || code/100 != 2 {
		return fmt.Errorf("prime flush: status %d: %v", code, err)
	}
	return nil
}

// primeChunks splits the priming rows into the ingests set-up sends.
func (s *stream) primeChunks() [][]model.Tuple {
	const primeChunk = 10000
	var out [][]model.Tuple
	for lo := 0; lo < s.primed; lo += primeChunk {
		out = append(out, s.truth.Dirty.Tuples[lo:min(lo+primeChunk, s.primed)])
	}
	return out
}

func (s *stream) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.ts.URL+"/sessions/"+sessionName+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// close drains and closes the hosted session (if one was created), then
// stops the listener. It is idempotent.
func (s *stream) close() error {
	if s.ts == nil {
		return nil
	}
	defer func() { s.ts.Close(); s.ts = nil }()
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/sessions/"+sessionName, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// batchSample is one closed-loop batch: ingest, then a blocking flush.
type batchSample struct {
	ingest, flush time.Duration // each HTTP round trip (or direct call)
	failed        bool
	rejected      bool // 429
	remaining     int  // remainingViolations of the flush report
}

func (b batchSample) total() time.Duration      { return b.ingest + b.flush }
func (b batchSample) ingestTime() time.Duration { return b.ingest }
func (b batchSample) flushTime() time.Duration  { return b.flush }

// httpBatch sends batch i and waits for its flush reply.
func (s *stream) httpBatch(i int) batchSample {
	var bs batchSample
	t0 := time.Now()
	code, _, err := s.post("/ingest", s.bodies[i])
	t1 := time.Now()
	bs.ingest = t1.Sub(t0)
	if err != nil || code/100 != 2 {
		bs.failed, bs.rejected = true, code == http.StatusTooManyRequests
	}
	code, data, err := s.post("/flush", nil)
	bs.flush = time.Since(t1)
	if err != nil || code/100 != 2 {
		bs.failed = true
		return bs
	}
	var rep struct {
		RemainingViolations int `json:"remainingViolations"`
		Tuples              int `json:"tuples"`
	}
	if json.Unmarshal(data, &rep) != nil || rep.Tuples != s.primed+(i+1)*streamBatchRows {
		bs.failed = true
	}
	bs.remaining = rep.RemainingViolations
	return bs
}

// relation fetches the session's repaired-so-far relation.
func (s *stream) relation() (*model.Relation, error) {
	resp, err := s.client.Get(s.ts.URL + "/sessions/" + sessionName + "/relation")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("relation: status %d", resp.StatusCode)
	}
	return model.ReadCSV(resp.Body, sessionName, s.sp.schema(), true, 0)
}

// checkFinal verifies the relation the service ended with: every row is
// there, and an independent detection pass finds exactly the violations the
// last flush reported as remaining.
func (s *stream) checkFinal(rel *model.Relation, lastRemaining int) error {
	if want := s.primed + len(s.batches)*streamBatchRows; rel.Len() != want {
		return fmt.Errorf("final relation has %d rows, want %d", rel.Len(), want)
	}
	rule, err := s.sp.compile(rel.Schema)
	if err != nil {
		return err
	}
	res, err := core.DetectRule(engine.New(parallelism), rule, rel)
	if err != nil {
		return err
	}
	if len(res.Violations) != lastRemaining {
		return fmt.Errorf("final relation has %d violations, last flush reported %d", len(res.Violations), lastRemaining)
	}
	return nil
}

// replay pushes the same primed rows and batches through cleanse.Session
// directly (no HTTP, no queue), with a tracer installed the way serve
// installs one, and returns the per-batch samples, the final relation and
// the finished tracer covering the timed batches only.
func (s *stream) replay() ([]batchSample, *model.Relation, tracedRun, error) {
	var run tracedRun
	rule, err := s.sp.compile(s.sp.schema())
	if err != nil {
		return nil, nil, run, err
	}
	// The priming flush is not part of what the timed batches cost, so its
	// events go to a tracer that is thrown away.
	sw := &switchObserver{cur: trace.New()}
	cleaner, err := cleanse.NewCleaner(nil, []*core.Rule{rule},
		cleanse.WithObserver(sw),
		cleanse.WithParallelRepair(repair.Options{}),
		cleanse.WithEngineConfig(engine.Config{Parallelism: parallelism}))
	if err != nil {
		return nil, nil, run, err
	}
	sess, err := cleaner.Open(s.sp.schema())
	if err != nil {
		cleaner.Close()
		return nil, nil, run, err
	}
	defer sess.Close()
	// The service assigns IDs itself (every tuple arrives with ID -1).
	anon := func(ts []model.Tuple) []model.Tuple {
		out := make([]model.Tuple, len(ts))
		for i, t := range ts {
			out[i] = model.Tuple{ID: -1, Cells: t.Cells}
		}
		return out
	}
	for _, chunk := range s.primeChunks() {
		if err := sess.Ingest(anon(chunk)); err != nil {
			return nil, nil, run, err
		}
	}
	if _, err := sess.Flush(); err != nil {
		return nil, nil, run, err
	}
	run = tracedRun{tr: trace.New(), epoch: time.Now()}
	sw.cur = run.tr
	samples := make([]batchSample, 0, len(s.batches))
	for _, ts := range s.batches {
		in := anon(ts)
		t0 := time.Now()
		err := sess.Ingest(in)
		t1 := time.Now()
		if err != nil {
			return nil, nil, run, err
		}
		rep, err := sess.Flush()
		if err != nil {
			return nil, nil, run, err
		}
		samples = append(samples, batchSample{ingest: t1.Sub(t0), flush: time.Since(t1), remaining: rep.RemainingViolations})
	}
	run.tr.Finish()
	return samples, sess.Relation(), run, nil
}

// switchObserver forwards to a tracer that can be swapped between phases
// of one session (from the single goroutine that drives the session, while
// no dataflow runs).
type switchObserver struct{ cur *trace.Tracer }

func (s *switchObserver) BeginSpan(parent engine.Span, name string, kind engine.SpanKind) engine.Span {
	return s.cur.BeginSpan(parent, name, kind)
}
func (s *switchObserver) Count(m engine.Metric, v int64) { s.cur.Count(m, v) }
