package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"sync"

	"titanre/internal/jsonw"
	"titanre/internal/serve"
	"titanre/internal/titanql"
)

// Read-side fan-out and deterministic merge.
//
// Every cluster read follows the same shape: ask all replicas, combine
// with an operator that is commutative and associative over disjoint
// event sets, render with the identical jsonw.Write the replicas use.
// Because the router's ingest split partitions lines exactly once
// across replicas, the merged answer equals the single-daemon answer
// over the undivided stream — byte for byte, which is how the tests
// check it.
//
//   - /rollup, /top and /query fetch ?partial=1 — every replica answers
//     the one titanql.Partial, its plan's raw accumulator — and merge with
//     titanql.Merge (replica partials and segment partials are the same
//     algebra), ranking only after the cluster-wide merge:
//     ranking before merging would be wrong whenever a key's count is
//     split across replicas.
//   - /alerts is the stateful one: it unions the replicas' evidence
//     feeds and replays them in global sequence order through a fresh
//     detector engine (see internal/serve's alert feed for the
//     superset-replay argument).

// DegradedHeader is set on /alerts responses that cannot vouch for
// single-daemon exactness (a replica's feed was incomplete, or replica
// alert configs diverge). The body is still the best available merge.
const DegradedHeader = "X-Titan-Degraded"

// fanResult is one replica's response to a read fan-out.
type fanResult struct {
	replica string
	status  int
	body    []byte
	err     error
}

// fanOut GETs path?query from every replica concurrently, within
// ReadTimeout: a replica that never answers fails its result, not the
// whole read forever.
func (rt *Router) fanOut(r *http.Request, path, rawQuery string) []fanResult {
	rt.metrics.readFanouts.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ReadTimeout)
	defer cancel()
	results := make([]fanResult, len(rt.cfg.Replicas))
	var wg sync.WaitGroup
	for ri, base := range rt.cfg.Replicas {
		wg.Add(1)
		go func(ri int, base string) {
			defer wg.Done()
			res := fanResult{replica: base}
			u := base + path
			if rawQuery != "" {
				u += "?" + rawQuery
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			if err != nil {
				res.err = err
				results[ri] = res
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				res.err = err
				results[ri] = res
				return
			}
			defer resp.Body.Close()
			res.status = resp.StatusCode
			res.body, res.err = io.ReadAll(resp.Body)
			results[ri] = res
		}(ri, base)
	}
	wg.Wait()
	return results
}

// gatherOK filters fan-out results, writing the error response and
// returning ok=false when any replica failed. A replica's 400 (bad
// query) is forwarded as-is — all replicas parse the same query, so the
// first bad-request body speaks for the cluster.
func (rt *Router) gatherOK(w http.ResponseWriter, results []fanResult) bool {
	for _, res := range results {
		if res.err != nil {
			rt.metrics.readErrors.Add(1)
			http.Error(w, fmt.Sprintf("replica %s: %v", res.replica, res.err), http.StatusBadGateway)
			return false
		}
		if res.status == http.StatusBadRequest {
			rt.metrics.readErrors.Add(1)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write(res.body)
			return false
		}
		if res.status != http.StatusOK {
			rt.metrics.readErrors.Add(1)
			http.Error(w, fmt.Sprintf("replica %s: status %d", res.replica, res.status), http.StatusBadGateway)
			return false
		}
	}
	return true
}

// partialQuery re-encodes the client's query string with partial=1
// appended, preserving every other parameter verbatim.
func partialQuery(r *http.Request) string {
	q := r.URL.Query()
	q.Set("partial", "1")
	return q.Encode()
}

func decodeAll[T any](results []fanResult) ([]T, error) {
	out := make([]T, len(results))
	for i, res := range results {
		if err := json.Unmarshal(res.body, &out[i]); err != nil {
			return nil, fmt.Errorf("replica %s: decoding partial: %w", res.replica, err)
		}
	}
	return out, nil
}

// mergedRead builds the one handler behind /rollup, /top and /query:
// fan the client's parameters out verbatim with partial=1 (the replicas
// spell the plan, so the router accepts exactly what they accept), decode
// every replica's titanql.Partial, merge into the one titanql.Result a
// single daemon's fold ends in, and render that once — ranking and
// K-truncation happen there, after cluster-wide counts are whole. /rollup
// and /top are bare: they answer the store document inside the merged
// one, unwrapped by the method titand itself uses.
func (rt *Router) mergedRead(path string, bare bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		results := rt.fanOut(r, path, partialQuery(r))
		if !rt.gatherOK(w, results) {
			return
		}
		parts, err := decodeAll[titanql.Partial](results)
		var res *titanql.Result
		if err == nil {
			res, err = titanql.Merge(parts)
		}
		if err != nil {
			rt.metrics.readErrors.Add(1)
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		rt.metrics.mergedQueries.Add(1)
		if bare {
			res.Bare(r.URL.Query().Get("code"))
		}
		_, _ = jsonw.Write(w, res) // headers are out: a failed body write has no recovery
	}
}

// handleAlerts reconstructs the cluster-wide alert stream: union the
// replicas' evidence feeds, sort by global sequence (a line goes to one
// replica and is applied there once, so the feeds share no sequence), and
// replay through a fresh engine with the shared config. When any feed
// is incomplete or configs diverge the response is marked degraded but
// still served — a best-effort alert list beats a 502 during partial
// fleet visibility.
func (rt *Router) handleAlerts(w http.ResponseWriter, r *http.Request) {
	results := rt.fanOut(r, "/alertfeed", "")
	if !rt.gatherOK(w, results) {
		return
	}
	docs, err := decodeAll[serve.FeedDoc](results)
	if err != nil {
		rt.metrics.readErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	degraded := ""
	var records []serve.FeedRecord
	for i, doc := range docs {
		if !doc.Complete {
			degraded = fmt.Sprintf("replica %s: incomplete alert feed", results[i].replica)
		}
		if i > 0 && !reflect.DeepEqual(doc.Config, docs[0].Config) {
			degraded = fmt.Sprintf("replica %s: alert config diverges", results[i].replica)
		}
		records = append(records, doc.Records...)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	alerts, err := serve.ReplayFeed(docs[0].Config, records)
	if err != nil {
		rt.metrics.readErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if degraded != "" {
		rt.metrics.degradedAlerts.Add(1)
		w.Header().Set(DegradedHeader, degraded)
	}
	rt.metrics.mergedAlerts.Add(1)
	_, _ = jsonw.Write(w, serve.AlertViews(alerts))
}
