package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
)

func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "http://replica" + string(rune('a'+i)) + ":9123"
	}
	return names
}

// TestOwnersOrderIndependent: placement depends on the replica name
// set, not the order the names were listed in.
func TestOwnersOrderIndependent(t *testing.T) {
	names := replicaNames(4)
	fwd := buildOwners(names)
	rev := buildOwners([]string{names[3], names[2], names[1], names[0]})
	for node := range fwd {
		if names[fwd[node]] != names[3-rev[node]] {
			t.Fatalf("node %d: owner %q listed forward, %q listed reversed",
				node, names[fwd[node]], names[3-rev[node]])
		}
	}
}

// TestOwnersMinimalMovement: removing one replica relocates only the
// nodes it owned — every other node keeps its home.
func TestOwnersMinimalMovement(t *testing.T) {
	names := replicaNames(4)
	before := buildOwners(names)
	after := buildOwners(names[:3])
	moved := 0
	for node := range before {
		if before[node] == 3 {
			moved++
			continue
		}
		if names[after[node]] != names[before[node]] {
			t.Fatalf("node %d moved from %q to %q though its replica stayed",
				node, names[before[node]], names[after[node]])
		}
	}
	if moved == 0 {
		t.Fatal("removed replica owned nothing; the test checked nothing")
	}
}

// TestOwnersBalanced: rendezvous hashing spreads the node space close
// to evenly — no replica is starved or doubled up.
func TestOwnersBalanced(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		counts := make([]int, n)
		for _, o := range buildOwners(replicaNames(n)) {
			counts[o]++
		}
		ideal := topology.TotalNodes / n
		for ri, c := range counts {
			if c < ideal/2 || c > ideal*2 {
				t.Fatalf("%d replicas: replica %d owns %d nodes, ideal %d — out of 2x balance (%v)",
					n, ri, c, ideal, counts)
			}
		}
	}
}

type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSubBatchesPinned is the router's exact wire figure, the one
// bench/ reads as router.sub_batches_per_batch: a fixed set of batches
// — 1, 2, 4 … 512 lines, twice over, nodes drawn by a generator that
// depends on nothing but these constants — split over three replicas of
// fixed names (placement hashes the name) makes exactly this many
// sub-batches, each carrying exactly its owner's lines. The replicas are
// a transport that counts and says 202: no socket, no clock.
func TestSubBatchesPinned(t *testing.T) {
	const wantBatches, wantSubBatches, wantLines = 20, 52, 2046
	rt, err := New(Config{Replicas: replicaNames(3)})
	if err != nil {
		t.Fatal(err)
	}
	var delivered [3]atomic.Int64
	rt.client.Transport = roundTrip(func(r *http.Request) (*http.Response, error) {
		body, _ := io.ReadAll(r.Body)
		ri := slices.Index(rt.cfg.Replicas, "http://"+r.URL.Host)
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			if node, ok := console.LineNode(line); !ok || int(rt.owners[node]) != ri {
				t.Errorf("replica %d was sent a line it does not own: %s", ri, line)
			}
			delivered[ri].Add(1)
		}
		return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody}, nil
	})
	state := uint64(2015)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	sec := int64(1370000000)
	for pass := 0; pass < 2; pass++ {
		for lines := 1; lines <= 512; lines *= 2 {
			events := make([]console.Event, lines)
			for i := range events {
				sec += int64(1 + next(60))
				events[i] = console.Event{Time: time.Unix(sec, 0).UTC(), Node: topology.NodeID(next(topology.TotalNodes)), Code: 13, Page: console.NoPage}
			}
			w := httptest.NewRecorder()
			rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(encodeLog(t, events))))
			if w.Code != http.StatusAccepted {
				t.Fatalf("batch of %d lines: %d %s", lines, w.Code, w.Body)
			}
		}
	}
	st := rt.StatsNow()
	t.Logf("%d sub-batches for %d batches: %.4f a batch; lines per replica %d / %d / %d",
		st.SubBatches, st.BatchesAccepted, float64(st.SubBatches)/float64(st.BatchesAccepted),
		delivered[0].Load(), delivered[1].Load(), delivered[2].Load())
	if st.BatchesAccepted != wantBatches || st.SubBatches != wantSubBatches || st.LinesDelivered != wantLines {
		t.Errorf("%d sub-batches for %d batches of %d lines; pinned %d for %d of %d",
			st.SubBatches, st.BatchesAccepted, st.LinesDelivered, wantSubBatches, wantBatches, wantLines)
	}
	if sum := delivered[0].Load() + delivered[1].Load() + delivered[2].Load(); sum != wantLines {
		t.Errorf("replicas were sent %d lines of %d", sum, wantLines)
	}
}
