package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/rules"
)

const taxSchema = "name,zipcode:int,city,state,salary:float,rate:float"

// taxRequest is a create request for the tax schema with one FD and the
// default settings.
func taxRequest() createRequest {
	return createRequest{
		Schema: taxSchema,
		Rules:  []rules.Spec{{ID: "phi1", Kind: "fd", Spec: "zipcode -> city"}},
		Config: cleanse.DefaultConfig(),
	}
}

func createBody(parallel bool) string {
	req := taxRequest()
	req.ParallelRepair = parallel
	b, _ := json.Marshal(req)
	return string(b)
}

// rows builds g zipcode groups of per tuples each, dirty of them carrying a
// corrupted city — the dirtyTax generator of the cleanse tests, as the
// string rows the HTTP API ingests.
func rows(g, per, dirty int) [][]any {
	var out [][]any
	id := 0
	for z := 0; z < g; z++ {
		city := fmt.Sprintf("City%d", z)
		for i := 0; i < per; i++ {
			c := city
			if i < dirty {
				c = city + "_typo"
			}
			out = append(out, []any{
				fmt.Sprintf("P%d", id), fmt.Sprintf("%d", 10000+z), c, "ST",
				fmt.Sprintf("%d", 1000*id), fmt.Sprintf("%d", id%50),
			})
			id++
		}
	}
	return out
}

func do(t *testing.T, client *http.Client, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeSessionLifecycle drives one session end to end over HTTP:
// create, ingest in batches, flush, inspect status/relation/explain,
// delete.
func TestServeSessionLifecycle(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	code, body := do(t, c, "POST", ts.URL+"/sessions/tax", createBody(true))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var created struct {
		Name string `json:"name"`
	}
	json.Unmarshal(body, &created)
	if created.Name != "tax" {
		t.Errorf("create answered name %q", created.Name)
	}
	// Creating the same name again fails.
	if code, _ := do(t, c, "POST", ts.URL+"/sessions/tax", createBody(true)); code != http.StatusBadRequest {
		t.Errorf("duplicate create: %d", code)
	}

	all := rows(4, 6, 2)
	for i := 0; i < len(all); i += 6 {
		b, _ := json.Marshal(map[string]any{"tuples": all[i : i+6]})
		code, body := do(t, c, "POST", ts.URL+"/sessions/tax/ingest", string(b))
		if code != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}

	code, body = do(t, c, "POST", ts.URL+"/sessions/tax/flush", "")
	if code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}
	var rep reportJSON
	json.Unmarshal(body, &rep)
	if rep.Flush != 1 || rep.Tuples != len(all) {
		t.Errorf("flush report: %+v", rep)
	}
	if rep.InitialViolations == 0 || rep.RemainingViolations != 0 {
		t.Errorf("flush should repair all FD violations: %+v", rep)
	}

	code, body = do(t, c, "GET", ts.URL+"/sessions/tax", "")
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var st statusJSON
	json.Unmarshal(body, &st)
	if st.Flushes != 1 || st.Ingested != int64(len(all)) || st.LastError != "" {
		t.Errorf("status: %+v", st)
	}

	code, body = do(t, c, "GET", ts.URL+"/sessions/tax/relation", "")
	if code != http.StatusOK {
		t.Fatalf("relation: %d", code)
	}
	if bytes.Contains(body, []byte("_typo")) {
		t.Error("relation still contains corrupted cities after flush")
	}

	code, body = do(t, c, "GET", ts.URL+"/sessions/tax/explain", "")
	if code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	for _, want := range []string{"run", "round 1"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}

	code, body = do(t, c, "DELETE", ts.URL+"/sessions/tax", "")
	if code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ := do(t, c, "GET", ts.URL+"/sessions/tax", ""); code != http.StatusNotFound {
		t.Errorf("status after delete: %d", code)
	}
}

// TestServeConcurrentSessions runs 4 sessions in parallel, each streaming
// its own batches and flushing — the acceptance bar for the service. Run
// under -race this also checks the queue/session paths.
func TestServeConcurrentSessions(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := ts.Client()
			name := fmt.Sprintf("s%d", n)
			if code, b := do(t, c, "POST", ts.URL+"/sessions/"+name, createBody(n%2 == 0)); code != http.StatusCreated {
				errs <- fmt.Errorf("%s create: %d %s", name, code, b)
				return
			}
			all := rows(3, 6, 2)
			for i := 0; i < len(all); i += 6 {
				b, _ := json.Marshal(map[string]any{"tuples": all[i : i+6]})
				for {
					code, body := do(t, c, "POST", ts.URL+"/sessions/"+name+"/ingest", string(b))
					if code == http.StatusAccepted {
						break
					}
					if code != http.StatusTooManyRequests {
						errs <- fmt.Errorf("%s ingest: %d %s", name, code, body)
						return
					}
					time.Sleep(time.Millisecond) // backpressure: retry
				}
				if i%12 == 6 {
					if code, b := do(t, c, "POST", ts.URL+"/sessions/"+name+"/flush", ""); code != http.StatusOK {
						errs <- fmt.Errorf("%s flush: %d %s", name, code, b)
						return
					}
				}
			}
			code, body := do(t, c, "POST", ts.URL+"/sessions/"+name+"/flush", "")
			if code != http.StatusOK {
				errs <- fmt.Errorf("%s final flush: %d %s", name, code, body)
				return
			}
			var rep reportJSON
			json.Unmarshal(body, &rep)
			if rep.RemainingViolations != 0 || rep.Tuples != len(all) {
				errs <- fmt.Errorf("%s: unclean final report %+v", name, rep)
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeBackpressure fills the queue beyond its depth with a worker
// stalled behind a slow flush-equivalent; overflow must be rejected with
// 429, not buffered or blocked.
func TestServeBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	if code, b := do(t, c, "POST", ts.URL+"/sessions/bp", createBody(false)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	st, _ := srv.lookup("bp")
	// Stall the worker so queued ops cannot drain.
	release := make(chan struct{})
	if err := st.enqueue(func() { <-release }); err != nil {
		t.Fatal(err)
	}

	b, _ := json.Marshal(map[string]any{"tuples": rows(1, 2, 1)})
	got429 := false
	for i := 0; i < 4; i++ {
		code, body := do(t, c, "POST", ts.URL+"/sessions/bp/ingest", string(b))
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("ingest %d: %d %s", i, code, body)
		}
	}
	if !got429 {
		t.Error("overflowing the queue never returned 429")
	}
	close(release)

	// Once the worker drains, ingest works again and flush sees the data.
	code, body := do(t, c, "POST", ts.URL+"/sessions/bp/flush", "")
	if code != http.StatusOK {
		t.Fatalf("flush after drain: %d %s", code, body)
	}
	var rep reportJSON
	json.Unmarshal(body, &rep)
	if rep.Tuples == 0 {
		t.Errorf("queued batches were lost: %+v", rep)
	}
}

// TestServeGracefulShutdown cancels Serve's context (the SIGTERM path) with
// batches still queued: the drain must process them, final-flush every
// session, and only then return.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	c := &http.Client{}
	if code, b := do(t, c, "POST", base+"/sessions/drainme", createBody(true)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	st, _ := srv.lookup("drainme")
	all := rows(3, 5, 2)
	b, _ := json.Marshal(map[string]any{"tuples": all})
	if code, body := do(t, c, "POST", base+"/sessions/drainme/ingest", string(b)); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", code, body)
	}

	cancel() // SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain in time")
	}

	// The queued batch must have been ingested, flushed and repaired.
	status := st.session.Status()
	if !status.Closed {
		t.Error("session not closed after drain")
	}
	if status.Ingested != int64(len(all)) {
		t.Errorf("drain lost tuples: ingested %d of %d", status.Ingested, len(all))
	}
	if status.Flushes == 0 {
		t.Error("no final flush ran during drain")
	}
	for _, tp := range st.session.Relation().Tuples {
		if strings.Contains(tp.Cell(2).String(), "_typo") {
			t.Errorf("tuple %d not repaired during drain", tp.ID)
		}
	}
}

// badCreateBodies are create bodies the service must refuse with 400; the
// fuzz target's checked-in corpus starts from them.
var badCreateBodies = map[string]string{
	"empty-schema":   `{"schema":"","rules":[{"kind":"fd","spec":"a -> b"}]}`,
	"unknown-kind":   `{"schema":"a:blob,b","rules":[{"kind":"fd","spec":"a -> b"}]}`,
	"dup-attr":       `{"schema":"a,b,A","rules":[{"kind":"fd","spec":"a -> b"}]}`,
	"bad-kind":       `{"schema":"a,b","rules":[{"kind":"nope","spec":"a -> b"}]}`,
	"bad-fd":         `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> missing"}]}`,
	"no-rules":       `{"schema":"a,b","rules":[]}`,
	"bad-algo":       `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"repair":"magic"}`,
	"retired-algo":   `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"repair":"sampling"}`,
	"algorithm-key":  `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"algorithm":"eq"}`,
	"misspelled-key": `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"paralelRepair":true}`,
	"bad-iter":       `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"maxIterations":-1}`,
	"bad-samples":    `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"probSamples":-1}`,
	"bad-planner":    `{"schema":"a,b","rules":[{"kind":"fd","spec":"a -> b"}],"planner":""}`,
	"not-json":       `{"schema":`,
}

// TestServeCreateValidation: bad schema, bad rules, bad algorithm, unknown
// keys and bad options are rejected at session creation with 400, and an
// oversized body with 413.
func TestServeCreateValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	for name, body := range badCreateBodies {
		if code, b := do(t, c, "POST", ts.URL+"/sessions/"+name, body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, code, b)
		}
	}
	// A misspelled key is named in the answer, not silently ignored.
	if _, b := do(t, c, "POST", ts.URL+"/sessions/x", badCreateBodies["misspelled-key"]); !bytes.Contains(b, []byte("paralelRepair")) {
		t.Errorf("unknown key not named: %s", b)
	}
	if _, b := do(t, c, "POST", ts.URL+"/sessions/x", badCreateBodies["retired-algo"]); !bytes.Contains(b, []byte("want eq, hypergraph or prob")) {
		t.Errorf("retired algorithm: %s", b)
	}
	huge := `{"schema":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	if code, b := do(t, c, "POST", ts.URL+"/sessions/huge", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: %d %s", code, b)
	}
	// Nothing should have been registered.
	if names := srv.sessionNames(); len(names) != 0 {
		t.Errorf("failed creates leaked sessions: %v", names)
	}
	if code, b := do(t, c, "POST", ts.URL+"/sessions/ok", createBody(false)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, b)
	}
	huge = `{"tuples":[["` + strings.Repeat("a", maxBodyBytes) + `"]]}`
	if code, b := do(t, c, "POST", ts.URL+"/sessions/ok/ingest", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest: %d %s", code, b)
	}

	// Unknown session on every per-session route.
	for _, route := range []struct{ method, path string }{
		{"GET", "/sessions/ghost"},
		{"DELETE", "/sessions/ghost"},
		{"POST", "/sessions/ghost/ingest"},
		{"POST", "/sessions/ghost/flush"},
		{"GET", "/sessions/ghost/relation"},
		{"GET", "/sessions/ghost/explain"},
	} {
		if code, _ := do(t, c, route.method, ts.URL+route.path, "{}"); code != http.StatusNotFound {
			t.Errorf("%s %s: %d", route.method, route.path, code)
		}
	}
}

// TestServeProbSession drives a session with the probabilistic repair
// backend through the HTTP API: the algorithm, the seed and the sample
// budget all arrive at the algorithm, the flush repairs the FD violations,
// and the explain tree shows the prob spans.
func TestServeProbSession(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	req := taxRequest()
	req.Repair, req.Seed, req.ProbSamples, req.ParallelRepair = "prob", 7, 64, true
	b, _ := json.Marshal(req)
	code, body := do(t, c, "POST", ts.URL+"/sessions/prob", string(b))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	all := rows(4, 6, 2)
	rb, _ := json.Marshal(map[string]any{"tuples": all})
	if code, body := do(t, c, "POST", ts.URL+"/sessions/prob/ingest", string(rb)); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", code, body)
	}
	code, body = do(t, c, "POST", ts.URL+"/sessions/prob/flush", "")
	if code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}
	var rep reportJSON
	json.Unmarshal(body, &rep)
	if rep.InitialViolations == 0 || rep.RemainingViolations != 0 {
		t.Errorf("prob flush should repair all FD violations: %+v", rep)
	}

	code, body = do(t, c, "GET", ts.URL+"/sessions/prob/relation", "")
	if code != http.StatusOK {
		t.Fatalf("relation: %d", code)
	}
	if bytes.Contains(body, []byte("_typo")) {
		t.Error("relation still contains corrupted cities after prob flush")
	}

	code, body = do(t, c, "GET", ts.URL+"/sessions/prob/explain", "")
	if code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	for _, want := range []string{"prob:learn", "prob:infer"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}
}

// TestServeCostPlannerSession: a cost-planned session can no longer be
// created. The "planner" key left with the cost planner, so a create body
// that still sends it — "cost", or the old default "static" — is refused
// with 400 naming the key.
func TestServeCostPlannerSession(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	for _, planner := range []string{"cost", "static"} {
		body := `{"schema":"` + taxSchema + `","rules":[{"kind":"fd","spec":"zipcode -> city"}],"planner":"` + planner + `"}`
		code, b := do(t, c, "POST", ts.URL+"/sessions/"+planner, body)
		if code != http.StatusBadRequest || !bytes.Contains(b, []byte("planner")) {
			t.Errorf("planner %q: %d %s, want 400 naming the key", planner, code, b)
		}
	}
	if names := srv.sessionNames(); len(names) != 0 {
		t.Errorf("sessions registered: %v", names)
	}
}

// TestServeProbSamplesZeroIsEq: an explicit "probSamples":0 means what it
// means to the prob algorithm — no sampling, the equivalence-class answer —
// not "use the default sample count".
func TestServeProbSamplesZeroIsEq(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	batch, _ := json.Marshal(map[string]any{"tuples": rows(4, 6, 2)})
	clean := func(name string, req createRequest) (relation, explain []byte) {
		t.Helper()
		b, _ := json.Marshal(req)
		for _, step := range []struct{ method, path, body string }{
			{"POST", "", string(b)}, {"POST", "/ingest", string(batch)}, {"POST", "/flush", ""},
		} {
			if code, body := do(t, c, step.method, ts.URL+"/sessions/"+name+step.path, step.body); code/100 != 2 {
				t.Fatalf("%s %s: %d %s", name, step.path, code, body)
			}
		}
		_, relation = do(t, c, "GET", ts.URL+"/sessions/"+name+"/relation", "")
		_, explain = do(t, c, "GET", ts.URL+"/sessions/"+name+"/explain", "")
		return relation, explain
	}
	eq, _ := clean("eq", taxRequest())
	req := taxRequest()
	req.Repair, req.ProbSamples = "prob", 0
	prob, explain := clean("prob0", req)
	if !bytes.Equal(prob, eq) {
		t.Errorf("probSamples 0 repaired differently from eq:\n%s\nvs\n%s", prob, eq)
	}
	if bytes.Contains(explain, []byte("prob:infer")) {
		t.Errorf("probSamples 0 still ran Gibbs inference:\n%s", explain)
	}
}
