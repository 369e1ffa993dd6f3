// Package serve hosts streaming cleanse sessions behind an HTTP/JSON API —
// the long-running face of the system. Each named session owns a full
// cleansing stack (a dataflow context, a compiled rule set, a
// cleanse.Session with its incremental detection caches and repair memory,
// and a tracer for EXPLAIN output), so many tenants can stream batches in
// concurrently without sharing state.
//
// Ingestion is asynchronous with backpressure: each session has a bounded
// operation queue drained by one worker goroutine; a batch that finds the
// queue full is rejected with 429 instead of blocking the client or
// buffering without bound. Flush is synchronous — it runs after everything
// queued ahead of it and returns the flush report. Shutdown drains every
// queue, runs a final flush per session, and closes the sessions.
//
// API (all bodies JSON unless noted):
//
//	GET    /sessions                 list open sessions
//	POST   /sessions/{name}          create: {schema, rules:[{id,kind,spec}], cleanse.Config keys}
//	GET    /sessions/{name}          status snapshot
//	DELETE /sessions/{name}          drain queue, final flush, close; returns the report
//	POST   /sessions/{name}/ingest   {tuples:[[v,...],...]} -> 202 queued / 429 busy
//	POST   /sessions/{name}/flush    run the detect-repair loop; returns the report
//	GET    /sessions/{name}/relation repaired-so-far relation as CSV
//	GET    /sessions/{name}/explain  EXPLAIN ANALYZE-style span tree (text)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
	"bigdansing/internal/trace"
)

// Config tunes the server. The zero value is usable.
type Config struct {
	// Workers is the dataflow parallelism of each session's engine context
	// (<=0: 4).
	Workers int
	// QueueDepth bounds each session's pending-operation queue; a full
	// queue rejects ingests with 429 (<=0: 64).
	QueueDepth int
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server hosts named streaming cleanse sessions.
type Server struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*stream
	closing bool
}

// New builds a Server.
func New(cfg Config) *Server {
	return &Server{cfg: cfg.withDefaults(), streams: map[string]*stream{}}
}

var (
	errBusy    = errors.New("ingest queue full")
	errClosing = errors.New("session is closing")
)

// stream is one hosted session plus its worker: every mutating operation
// (ingest, flush, explain) runs on the worker goroutine in arrival order,
// so the queue is the single point of serialization and backpressure.
type stream struct {
	name    string
	schema  *model.Schema
	session *cleanse.Session
	tracer  *trace.Tracer

	mu      sync.Mutex
	closing bool
	lastErr error // first async ingest failure, surfaced in status
	ops     chan func()
	done    chan struct{}
}

func (st *stream) work() {
	for op := range st.ops {
		op()
	}
	close(st.done)
}

// enqueue submits op without waiting for it to run; errBusy when the queue
// is full (the HTTP layer turns that into 429).
func (st *stream) enqueue(op func()) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closing {
		return errClosing
	}
	select {
	case st.ops <- op:
		return nil
	default:
		return errBusy
	}
}

// run submits op and blocks until the worker has executed it — after
// everything queued ahead of it. The send holds the stream mutex, which is
// safe (the worker never takes it) and makes close-vs-send race-free.
func (st *stream) run(op func()) error {
	done := make(chan struct{})
	st.mu.Lock()
	if st.closing {
		st.mu.Unlock()
		return errClosing
	}
	st.ops <- func() { op(); close(done) }
	st.mu.Unlock()
	<-done
	return nil
}

// drain marks the stream closing, lets the worker finish everything already
// queued, and joins it. Idempotent.
func (st *stream) drain() {
	st.mu.Lock()
	if !st.closing {
		st.closing = true
		close(st.ops)
	}
	st.mu.Unlock()
	<-st.done
}

func (st *stream) noteErr(err error) {
	st.mu.Lock()
	if st.lastErr == nil {
		st.lastErr = err
	}
	st.mu.Unlock()
}

// --- request/response shapes ---

// maxBodyBytes bounds every request body the service reads; a larger body
// is answered with 413. A 10 000-row ingest of the paper's tax schema is
// about 0.7 MB.
const maxBodyBytes = 16 << 20

// createRequest is the create body: the schema in "name,zipcode:int"
// notation, the rules, and the run settings, whose keys are the JSON tags
// of cleanse.Config.
type createRequest struct {
	Schema string       `json:"schema"`
	Rules  []rules.Spec `json:"rules"`
	cleanse.Config
}

type reportJSON struct {
	Flush               int   `json:"flush"`
	Iterations          int   `json:"iterations"`
	InitialViolations   int   `json:"initialViolations"`
	RemainingViolations int   `json:"remainingViolations"`
	UpdatesApplied      int   `json:"updatesApplied"`
	FrozenCells         int   `json:"frozenCells"`
	Tuples              int   `json:"tuples"`
	DetectMillis        int64 `json:"detectMillis"`
	RepairMillis        int64 `json:"repairMillis"`
}

func toReportJSON(rep cleanse.Report) reportJSON {
	return reportJSON{
		Flush:               rep.Flush,
		Iterations:          rep.Iterations,
		InitialViolations:   rep.InitialViolations,
		RemainingViolations: rep.RemainingViolations,
		UpdatesApplied:      rep.UpdatesApplied,
		FrozenCells:         rep.FrozenCells,
		Tuples:              rep.Tuples,
		DetectMillis:        rep.DetectTime.Milliseconds(),
		RepairMillis:        rep.RepairTime.Milliseconds(),
	}
}

type statusJSON struct {
	Name           string `json:"name"`
	Tuples         int    `json:"tuples"`
	Ingested       int64  `json:"ingested"`
	Flushes        int    `json:"flushes"`
	UpdatesApplied int64  `json:"updatesApplied"`
	FrozenCells    int    `json:"frozenCells"`
	Queued         int    `json:"queued"`
	LastError      string `json:"lastError,omitempty"`
}

// --- create decoding ---

// createPlan is a validated create request: the settings, the parsed
// schema and the compiled rules.
type createPlan struct {
	cfg    cleanse.Config
	schema *model.Schema
	rules  []*core.Rule
}

// decodeCreate reads a create body: absent settings take
// cleanse.DefaultConfig, an unknown key is an error, and the settings, the
// schema and the rules are checked before anything is built.
func decodeCreate(body io.Reader) (*createPlan, error) {
	req := createRequest{Config: cleanse.DefaultConfig()}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	schema, err := model.ParseSchema(req.Schema)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	ruleSet, err := rules.CompileSpecs(schema, req.Rules)
	if err != nil {
		return nil, err
	}
	return &createPlan{cfg: req.Config, schema: schema, rules: ruleSet}, nil
}

// --- lifecycle ---

// open creates a named stream: its own engine context, tracer, and session.
func (s *Server) open(name string, plan *createPlan) (*stream, error) {
	tracer := trace.New()
	ecfg := engine.Config{Parallelism: s.cfg.Workers, Observer: tracer}
	opts, err := plan.cfg.Build(&ecfg)
	if err != nil {
		return nil, err
	}
	// The cleaner builds and owns the context, so closing the session (the
	// end of every stream's life, including the error paths below) shuts
	// the backend down — on "net", that terminates the worker processes.
	opts = append(opts, cleanse.WithEngineConfig(ecfg))
	cleaner, err := cleanse.NewCleaner(nil, plan.rules, opts...)
	if err != nil {
		return nil, err
	}
	sess, err := cleaner.Open(plan.schema)
	if err != nil {
		cleaner.Close()
		return nil, err
	}

	st := &stream{
		name:    name,
		schema:  plan.schema,
		session: sess,
		tracer:  tracer,
		ops:     make(chan func(), s.cfg.QueueDepth),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		sess.Close()
		return nil, errors.New("server is shutting down")
	}
	if _, dup := s.streams[name]; dup {
		sess.Close()
		return nil, fmt.Errorf("session %q already exists", name)
	}
	s.streams[name] = st
	go st.work()
	s.cfg.Logf("session %s: opened (%d rules)", name, len(plan.rules))
	return st, nil
}

func (s *Server) lookup(name string) (*stream, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[name]
	return st, ok
}

// closeStream drains the stream's queue, runs a final flush, closes the
// session, and removes the stream from the registry.
func (s *Server) closeStream(st *stream) (cleanse.Report, error) {
	st.drain()
	rep, err := st.session.Flush()
	st.session.Close()
	st.tracer.Finish()
	s.mu.Lock()
	delete(s.streams, st.name)
	s.mu.Unlock()
	s.cfg.Logf("session %s: closed (flushes=%d)", st.name, rep.Flush)
	return rep, err
}

// Shutdown gracefully stops the server: no new sessions are accepted, every
// session's queue is drained, a final flush runs, and the sessions close.
// It returns early with ctx's error if the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	open := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		open = append(open, st)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for _, st := range open {
			wg.Add(1)
			go func(st *stream) {
				defer wg.Done()
				if _, err := s.closeStream(st); err != nil {
					s.cfg.Logf("session %s: final flush: %v", st.name, err)
				}
			}(st)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- HTTP ---

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("POST /sessions/{name}", s.handleCreate)
	mux.HandleFunc("GET /sessions/{name}", s.handleStatus)
	mux.HandleFunc("DELETE /sessions/{name}", s.handleDelete)
	mux.HandleFunc("POST /sessions/{name}/ingest", s.handleIngest)
	mux.HandleFunc("POST /sessions/{name}/flush", s.handleFlush)
	mux.HandleFunc("GET /sessions/{name}/relation", s.handleRelation)
	mux.HandleFunc("GET /sessions/{name}/explain", s.handleExplain)
	return mux
}

// Serve runs the HTTP API on ln until ctx is cancelled, then shuts the
// listener down and drains every session (the SIGTERM path of the serve
// subcommand). The listener is always closed on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("draining %d session(s)", len(s.sessionNames()))
	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(stopCtx); err != nil {
		return err
	}
	return s.Shutdown(stopCtx)
}

func (s *Server) sessionNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.streams))
	for n := range s.streams {
		names = append(names, n)
	}
	return names
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeBodyErr answers a request whose body could not be used: 413 when it
// ran past maxBodyBytes, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.sessionNames()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	plan, err := decodeCreate(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	if _, err := s.open(name, plan); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": name})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	sess := st.session.Status()
	st.mu.Lock()
	queued := len(st.ops)
	lastErr := ""
	if st.lastErr != nil {
		lastErr = st.lastErr.Error()
	}
	st.mu.Unlock()
	writeJSON(w, http.StatusOK, statusJSON{
		Name:           st.name,
		Tuples:         sess.Tuples,
		Ingested:       sess.Ingested,
		Flushes:        sess.Flushes,
		UpdatesApplied: sess.UpdatesApplied,
		FrozenCells:    sess.FrozenCells,
		Queued:         queued,
		LastError:      lastErr,
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	batch, err := decodeIngest(http.MaxBytesReader(w, r.Body, maxBodyBytes), st.schema)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	err = st.enqueue(func() {
		if err := st.session.Ingest(batch); err != nil {
			st.noteErr(err)
		}
	})
	switch {
	case errors.Is(err, errBusy):
		writeErr(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeErr(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]int{"queued": len(batch)})
	}
}

// decodeIngest reads an ingest body, {"tuples": [[cell, ...], ...]}, into
// tuples typed by schema, each sent with a negative ID for the session to
// replace. A string, number or boolean cell is parsed from its literal text,
// so an int column takes 1000000 or 9007199254740993 exactly; null is a null
// cell; an object or array is an error naming the tuple and column. The
// batch's cells are one slab, each tuple's capped at the schema width.
func decodeIngest(body io.Reader, schema *model.Schema) ([]model.Tuple, error) {
	var req struct {
		Tuples [][]any `json:"tuples"`
	}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	w := schema.Len()
	batch := make([]model.Tuple, 0, len(req.Tuples))
	slab := make([]model.Value, len(req.Tuples)*w)
	for i, row := range req.Tuples {
		if len(row) != w {
			return nil, fmt.Errorf("tuple %d has %d values, schema has %d", i, len(row), w)
		}
		cells := slab[i*w : (i+1)*w : (i+1)*w]
		for c, v := range row {
			var raw string
			switch v := v.(type) {
			case nil:
				cells[c] = model.Null()
				continue
			case string:
				raw = v
			case json.Number:
				raw = v.String()
			case bool:
				raw = strconv.FormatBool(v)
			default:
				return nil, fmt.Errorf("tuple %d column %s: a cell is a string, a number, a boolean or null, not an object or array", i, schema.Name(c))
			}
			cells[c] = model.Parse(raw, schema.Attr(c).Kind)
		}
		batch = append(batch, model.NewTuple(-1, cells...))
	}
	return batch, nil
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	var rep cleanse.Report
	var ferr error
	if err := st.run(func() { rep, ferr = st.session.Flush() }); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if ferr != nil {
		writeErr(w, http.StatusInternalServerError, ferr)
		return
	}
	writeJSON(w, http.StatusOK, toReportJSON(rep))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	rep, err := s.closeStream(st)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, toReportJSON(rep))
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	rel := st.session.Relation()
	w.Header().Set("Content-Type", "text/csv")
	if err := model.WriteCSV(w, rel, true); err != nil {
		s.cfg.Logf("session %s: relation write: %v", st.name, err)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	// Render on the worker so the span tree is quiescent (no flush or
	// ingest is mutating it mid-print).
	var buf []byte
	var terr error
	err := st.run(func() {
		var sb strings.Builder
		terr = trace.WriteTree(&sb, st.tracer)
		buf = []byte(sb.String())
	})
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if terr != nil {
		writeErr(w, http.StatusInternalServerError, terr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf)
}
