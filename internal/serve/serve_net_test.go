package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"bigdansing/internal/netexec"
)

// TestMain lets this test binary double as a netexec worker: sessions
// created with backend "net" re-exec the binary to spawn their worker
// processes.
func TestMain(m *testing.M) {
	netexec.MaybeWorker()
	os.Exit(m.Run())
}

// TestServeNetBackendSession drives a session on the networked backend end
// to end over HTTP and checks the repair matches what the local backend
// produces — plus that closing the session tears the workers down (the
// enclosing process would otherwise leak two OS children per session).
func TestServeNetBackendSession(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	req := taxRequest()
	req.Backend, req.NetWorkers = "net", 2
	b, _ := json.Marshal(req)
	code, body := do(t, c, "POST", ts.URL+"/sessions/nettax", string(b))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	all := rows(4, 6, 2)
	bb, _ := json.Marshal(map[string]any{"tuples": all})
	if code, body := do(t, c, "POST", ts.URL+"/sessions/nettax/ingest", string(bb)); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", code, body)
	}
	code, body = do(t, c, "POST", ts.URL+"/sessions/nettax/flush", "")
	if code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}
	var rep reportJSON
	json.Unmarshal(body, &rep)
	if rep.InitialViolations == 0 || rep.RemainingViolations != 0 {
		t.Errorf("net-backend flush should repair all FD violations: %+v", rep)
	}
	code, body = do(t, c, "GET", ts.URL+"/sessions/nettax/relation", "")
	if code != http.StatusOK {
		t.Fatalf("relation: %d", code)
	}
	if bytes.Contains(body, []byte("_typo")) {
		t.Error("relation still contains corrupted cities after flush")
	}
	if code, body := do(t, c, "DELETE", ts.URL+"/sessions/nettax", ""); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
}

// TestServeRejectsUnknownBackend pins the validation path.
func TestServeRejectsUnknownBackend(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := taxRequest()
	req.Backend = "mesos"
	b, _ := json.Marshal(req)
	code, body := do(t, ts.Client(), "POST", ts.URL+"/sessions/x", string(b))
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown backend")) {
		t.Fatalf("create with unknown backend: %d %s", code, body)
	}
}
