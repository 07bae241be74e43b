package serve_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"titanre/internal/router"
	"titanre/internal/serve"
)

// TestBadRequestBodiesForwarded runs the pinned 400 table through an
// in-process titanrouter over two replicas: the router spells no plan of
// its own, so what it says about a bad /rollup, /top or /query is what a
// replica said, byte for byte. (The histories are not routed.)
func TestBadRequestBodiesForwarded(t *testing.T) {
	var replicas []string
	for range 2 {
		s := serve.NewServer(serve.DefaultConfig())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		replicas = append(replicas, ts.URL)
	}
	rt, err := router.New(router.Config{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	get := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	asked := 0
	for path, want := range serve.BadRequestBodies {
		if strings.HasPrefix(path, "/codes/") || strings.HasPrefix(path, "/nodes/") {
			continue
		}
		asked++
		_, direct := get(replicas[0] + path)
		if status, body := get(front.URL + path); status != http.StatusBadRequest || body != direct || body != want+"\n" {
			t.Errorf("GET %s through the router: %d %q, want the replica's 400 %q", path, status, body, direct)
		}
	}
	if asked < 10 {
		t.Fatalf("only %d entries of the table are routed reads", asked)
	}
}
