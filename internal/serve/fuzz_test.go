package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"bigdansing/internal/model"
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

// FuzzIngestBody feeds an arbitrary ingest body to the decoder over the tax
// schema: it must never panic, every accepted tuple has one cell per
// attribute, and a zipcode sent as an int literal that fits in int64 parses
// to exactly that int. The checked-in corpus holds the README example, the
// number and null cases the decoder used to mangle, a ragged row and a
// nested array.
func FuzzIngestBody(f *testing.F) {
	schema := model.MustParseSchema(taxSchema)
	f.Fuzz(func(t *testing.T, body []byte) {
		batch, err := decodeIngest(bytes.NewReader(body), schema)
		if err != nil {
			return
		}
		for i, tu := range batch {
			if len(tu.Cells) != schema.Len() {
				t.Fatalf("tuple %d has %d cells, schema has %d", i, len(tu.Cells), schema.Len())
			}
		}
		var req struct {
			Tuples [][]any `json:"tuples"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("decodeIngest accepted a body encoding/json refuses: %v", err)
		}
		for i, row := range req.Tuples {
			n, ok := row[1].(json.Number)
			if !ok {
				continue
			}
			if v, err := strconv.ParseInt(n.String(), 10, 64); err == nil && !batch[i].Cell(1).Equal(model.I(v)) {
				t.Fatalf("tuple %d: zipcode %s parsed to %v", i, n, batch[i].Cell(1))
			}
		}
	})
}
