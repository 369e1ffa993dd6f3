package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzCreateSession sends an arbitrary create body through the handler:
// decoding, Validate, schema parsing and rule compilation must never panic,
// a refused body must register nothing, and an accepted one must be gone
// after DELETE. The checked-in corpus starts from TestServeCreateValidation's
// bodies plus the valid ones the other tests send.
func FuzzCreateSession(f *testing.F) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if plan, err := decodeCreate(bytes.NewReader(body)); err == nil && plan.cfg.Backend != "local" {
			return // a net session spawns worker processes; the decoding is what is fuzzed
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions/f", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusCreated:
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest("DELETE", "/sessions/f", nil))
			if del.Code != http.StatusOK {
				t.Fatalf("delete after create: %d %s", del.Code, del.Body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("create answered %d %s", rec.Code, rec.Body)
		}
		if names := srv.sessionNames(); len(names) != 0 {
			t.Fatalf("sessions left registered: %v", names)
		}
	})
}
