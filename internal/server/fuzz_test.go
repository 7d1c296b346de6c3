package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzHandlers drives arbitrary (method, path, query, body) requests through
// a small journal-free server's handler. Whatever the client sends, the
// server must not panic or answer 5xx, and every registered endpoint must
// answer with a JSON body, errors included.
func FuzzHandlers(f *testing.F) {
	// QueueDepth+BatchMax = 12 ops, so the op-count cap is cheap to reach.
	srv := newFixtureServer(f, Config{Dest: 0, QueueDepth: 8, BatchMax: 4})
	h := srv.Handler()
	endpoints := make(map[string]bool, len(endpointNames))
	for _, name := range endpointNames {
		endpoints[name] = true
	}

	tooMany := `{"ops":[` + strings.Repeat(`{"op":"add","u":0,"v":5},`, 12) + `{"op":"add","u":0,"v":5}]}`
	for _, seed := range [][4]string{
		{"GET", "/route", "from=3", ""},
		{"GET", "/route", "from=-1", ""},
		{"GET", "/route", "from=x", ""},
		{"GET", "/route", "", ""},
		{"GET", "/khop", "node=1&k=2", ""},
		{"GET", "/khop", "node=1&k=5", ""}, // above MaxK
		{"GET", "/khop", "node=1&k=0", ""},
		{"GET", "/khop", "node=6", ""},
		{"GET", "/centrality/topk", "k=3", ""},
		{"GET", "/centrality/topk", "k=1000000", ""},
		{"GET", "/centrality/topk", "k=-2", ""},
		{"GET", "/cds/member", "node=2", ""},
		{"GET", "/cds/member", "node=99", ""},
		{"GET", "/labels", "", ""},
		{"GET", "/labels", "hash=1", ""},
		{"GET", "/labels", "node=4", ""},
		{"GET", "/labels", "node=abc", ""},
		{"POST", "/mutate", "", `{"ops":[{"op":"add","u":0,"v":5}]}`},
		{"POST", "/mutate", "", `{"ops":[{"op":"remove","u":1,"v":3}]}`},
		{"POST", "/mutate", "", `{"ops":[{"op":"flip","u":0,"v":1}]}`},
		{"POST", "/mutate", "", `{"ops":[{"op":"add","u":2,"v":2}]}`},
		{"POST", "/mutate", "", `{"ops":[{"op":"add","u":0,"v":60}]}`},
		{"POST", "/mutate", "", `{"ops":[]}`},
		{"POST", "/mutate", "", `{"ops":[`},
		{"POST", "/mutate", "", `not json`},
		{"POST", "/mutate", "", tooMany},
		{"GET", "/mutate", "", ""},
		{"PUT", "/mutate", "", `{"ops":[{"op":"add","u":0,"v":5}]}`},
		{"GET", "/metrics", "", ""},
		{"GET", "/healthz", "", ""},
		{"DELETE", "/nowhere", "a=1", "x"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, method, path, query, body string) {
		target := "http://fuzz" + path
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(method, target, strings.NewReader(body))
		if err != nil {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
		}
		if !endpoints[req.URL.Path] {
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q, want application/json", method, target, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: body is not JSON: %q", method, target, rec.Body.Bytes())
		}
	})
}
