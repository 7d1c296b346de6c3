package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"structura/internal/server"
)

// serveBody answers one read in-process from a real server over g.
func serveBody(t *testing.T, srv *server.Server, r readReq) []byte {
	t.Helper()
	hr, err := parseRequest(r.wire)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, hr)
	if rec.Code != 200 {
		t.Fatalf("%s answered %d: %s", r.wire, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// The server's own answers pass the oracle; a deliberately wrong answer of
// each kind fails it.
func TestOracleAcceptsServedAnswersAndRejectsWrongOnes(t *testing.T) {
	g := topology(5, 400)
	srv, err := server.New(g, server.Config{SkipCDS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	o := newOracle(g, dest)

	seen := map[uint8]bool{}
	for i := 0; i < 400; i++ {
		r := mixRequest(9, 0, i, g.N())
		body := serveBody(t, srv, r)
		if err := o.check(r.kind, r.arg, body); err != nil {
			t.Fatalf("served answer rejected: %v\n%s", err, body)
		}
		seen[r.kind] = true
	}
	if len(seen) != numKinds {
		t.Fatalf("mix covered %d of %d read kinds", len(seen), numKinds)
	}

	// Find a node two or more hops from dest so a route has an inner step.
	far := -1
	for v, d := range o.dist {
		if d >= 2 {
			far = v
			break
		}
	}
	if far < 0 {
		t.Fatal("no node two hops from dest")
	}
	route := serveBody(t, srv, readFor(kindRoute, int32(far)))
	khop := serveBody(t, srv, readFor(kindKhop, int32(far)))
	labels := serveBody(t, srv, readFor(kindLabels, int32(far)))
	topk := serveBody(t, srv, readFor(kindTopK, 3))

	wrong := []struct {
		name string
		kind uint8
		arg  int32
		body []byte
	}{
		{"route distance off by one", kindRoute, int32(far), edit(t, route, func(m map[string]any) { m["dist"] = m["dist"].(float64) + 1 })},
		{"route through a non-edge", kindRoute, int32(far), edit(t, route, func(m map[string]any) {
			p := m["path"].([]any)
			m["path"] = append([]any{p[0]}, p...)
		})},
		{"khop missing a node", kindKhop, int32(far), edit(t, khop, func(m map[string]any) {
			m["nodes"] = m["nodes"].([]any)[1:]
			m["count"] = m["count"].(float64) - 1
		})},
		{"labels degree", kindLabels, int32(far), edit(t, labels, func(m map[string]any) { m["degree"] = m["degree"].(float64) + 1 })},
		{"topk order", kindTopK, 3, edit(t, topk, func(m map[string]any) {
			n := m["nodes"].([]any)
			n[0], n[1] = n[1], n[0]
		})},
	}
	for _, c := range wrong {
		if err := o.check(c.kind, c.arg, c.body); err == nil {
			t.Errorf("%s: oracle accepted %s", c.name, c.body)
		}
	}
}

// edit decodes a JSON answer, applies fn and re-encodes it.
func edit(t *testing.T, body []byte, fn func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
