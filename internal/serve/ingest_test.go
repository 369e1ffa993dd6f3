package serve

import (
	"encoding/csv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeIngestCells ingests one tuple per case into its own tax session
// and reads the cell back from the relation: a JSON number reaches the
// schema's parser as its literal text, null is a null cell, strings parse as
// before, and an object or array is refused with 400 naming the tuple and
// column.
func TestServeIngestCells(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()
	cases := []struct {
		name, row string
		col       int    // the column read back
		want      string // its CSV field; "" with wantErr set: refused
		wantErr   string
	}{
		{"strings", `["Annie","10011","NY","NY","24000","15"]`, 1, "10011", ""},
		{"int literal", `["Annie",1000000,"NY","NY",24000,15]`, 1, "1000000", ""},
		{"int beyond 2^53", `["Annie",9007199254740993,"NY","NY",24000,15]`, 1, "9007199254740993", ""},
		{"float literal", `["Annie",10011,"NY","NY",24000.5,15]`, 4, "24000.5", ""},
		{"number in a string column", `[1000000,10011,"NY","NY",24000,15]`, 0, "1000000", ""},
		{"null in a string column", `["Annie",10011,null,"NY",24000,15]`, 2, "", ""},
		{"null in an int column", `["Annie",null,"NY","NY",24000,15]`, 1, "", ""},
		{"nested array", `["Annie",10011,["NY"],"NY",24000,15]`, 0, "", "tuple 0 column city"},
		{"object", `["Annie",10011,"NY","NY",{"v":1},15]`, 0, "", "tuple 0 column salary"},
		{"ragged row", `["Annie",10011]`, 0, "", "tuple 0 has 2 values"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := ts.URL + "/sessions/s" + string(rune('a'+i))
			if code, body := do(t, c, "POST", url, createBody(false)); code != http.StatusCreated {
				t.Fatalf("create: %d %s", code, body)
			}
			code, body := do(t, c, "POST", url+"/ingest", `{"tuples":[`+tc.row+`]}`)
			if tc.wantErr != "" {
				if code != http.StatusBadRequest || !strings.Contains(string(body), tc.wantErr) {
					t.Fatalf("ingest answered %d %s, want 400 naming %q", code, body, tc.wantErr)
				}
				return
			}
			if code != http.StatusAccepted {
				t.Fatalf("ingest: %d %s", code, body)
			}
			if code, body := do(t, c, "POST", url+"/flush", ""); code != http.StatusOK {
				t.Fatalf("flush: %d %s", code, body)
			}
			_, body = do(t, c, "GET", url+"/relation", "")
			recs, err := csv.NewReader(strings.NewReader(string(body))).ReadAll()
			if err != nil || len(recs) != 2 {
				t.Fatalf("relation %q: %v", body, err)
			}
			if got := recs[1][tc.col]; got != tc.want {
				t.Errorf("column %d = %q, want %q", tc.col, got, tc.want)
			}
		})
	}
}
