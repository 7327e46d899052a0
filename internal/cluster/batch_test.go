package cluster_test

// Batch routing through the cluster edge: a multi-device batch sent to
// any node must answer exactly what a single fleet server would (the
// re-bucketing fan-out is invisible on the wire), redirect mode must
// proxy batches rather than 307 them, and a dead owner must fail only
// its own bucket's slots.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/runtime"
)

// postBatchRaw submits a batch in either encoding and returns the
// answer's status and body.
func postBatchRaw(t *testing.T, client *http.Client, base string, events []fleet.BatchEventJSON, binary bool) (int, []byte) {
	t.Helper()
	var body []byte
	var ct string
	var err error
	if binary {
		ct = fleet.BinContentType
		body, err = fleet.AppendBatchRequest(nil, events)
		if err != nil {
			t.Fatalf("encoding batch: %v", err)
		}
	} else {
		ct = "application/json"
		body, err = json.Marshal(fleet.BatchRequestJSON{Events: events})
		if err != nil {
			t.Fatalf("encoding batch: %v", err)
		}
	}
	resp, err := client.Post(base+"/v1/devices:decide-batch", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("posting batch: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading batch response: %v", err)
	}
	return resp.StatusCode, raw
}

// postBatch submits a batch in either encoding and decodes the result
// set; a non-200 answer returns nil results.
func postBatch(t *testing.T, client *http.Client, base string, events []fleet.BatchEventJSON, binary bool) (int, []fleet.BatchResultJSON) {
	t.Helper()
	status, raw := postBatchRaw(t, client, base, events, binary)
	if status != http.StatusOK {
		return status, nil
	}
	if binary {
		results, err := fleet.DecodeBatchResponse(raw, nil)
		if err != nil {
			t.Fatalf("decoding binary batch response: %v", err)
		}
		return status, results
	}
	var br fleet.BatchResponseJSON
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return status, br.Results
}

// clusterBatchScript builds a batch spanning the given devices: a
// tight round, a loose round, then a replay, a stale seq, a ghost
// device and an empty ID, in one request.
func clusterBatchScript(t *testing.T, devices []string) []fleet.BatchEventJSON {
	t.Helper()
	dbs := fleettest.Databases(t)
	q := runtime.ModelFromDatabase(dbs[0].DB)
	loose := fleettest.LooseSpec(dbs[0].DB)
	tightJ := fleet.QoSSpecJSON{SMaxMs: q.HiS, FMin: q.HiF}
	looseJ := fleet.QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}
	var events []fleet.BatchEventJSON
	for _, dev := range devices {
		events = append(events, fleet.BatchEventJSON{Device: dev, Seq: 1, QoSSpecJSON: tightJ})
	}
	for _, dev := range devices {
		events = append(events, fleet.BatchEventJSON{Device: dev, Seq: 2, QoSSpecJSON: looseJ})
	}
	events = append(events,
		fleet.BatchEventJSON{Device: devices[0], Seq: 2, QoSSpecJSON: looseJ}, // replay
		fleet.BatchEventJSON{Device: devices[1], Seq: 1, QoSSpecJSON: tightJ}, // stale
		fleet.BatchEventJSON{Device: "ghost", Seq: 1, QoSSpecJSON: looseJ},    // 404
		fleet.BatchEventJSON{Device: "", Seq: 1, QoSSpecJSON: looseJ},         // invalid
	)
	return events
}

// TestClusterBatchEquivalence registers one device per owner on a
// three-node cluster and on a standalone fleet server, drives the same
// batch through both, and expects identical result sets — first over
// JSON through node 0, then the same batch again over the binary wire
// through node 1 (all replays and stales by then, on both sides).
func TestClusterBatchEquivalence(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 61})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clus.Close)
	ref := newFleetServer(t)
	rs := httptest.NewServer(ref.Handler())
	t.Cleanup(rs.Close)

	members := []string{"node-0", "node-1", "node-2"}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]string, len(members))
	for i, m := range members {
		devices[i] = deviceOwnedBy(t, ring, "bdev", m)
	}
	for _, dev := range devices {
		for _, base := range []string{clus.URLs()[0], rs.URL} {
			resp, err := http.Post(base+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, dev)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("registering %s at %s: status %d", dev, base, resp.StatusCode)
			}
		}
	}

	events := clusterBatchScript(t, devices)
	status, got := postBatch(t, http.DefaultClient, clus.URLs()[0], events, false)
	if status != http.StatusOK {
		t.Fatalf("cluster batch: status %d", status)
	}
	status, want := postBatch(t, http.DefaultClient, rs.URL, events, false)
	if status != http.StatusOK {
		t.Fatalf("reference batch: status %d", status)
	}
	if len(got) != len(events) || !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster batch diverged from standalone server:\n got %+v\nwant %+v", got, want)
	}

	// Same batch again, binary, through a different edge node: replays
	// and stales now, but still byte-level agreement with standalone.
	status, got = postBatch(t, http.DefaultClient, clus.URLs()[1], events, true)
	if status != http.StatusOK {
		t.Fatalf("cluster binary batch: status %d", status)
	}
	status, want = postBatch(t, http.DefaultClient, rs.URL, events, true)
	if status != http.StatusOK {
		t.Fatalf("reference binary batch: status %d", status)
	}
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(fleet.BatchResponseJSON{Results: got})
		wj, _ := json.Marshal(fleet.BatchResponseJSON{Results: want})
		t.Fatalf("binary cluster batch diverged from standalone server:\n got %s\nwant %s", gj, wj)
	}
}

// TestClusterBatchRedirectStillProxies pins the redirect-mode carve-
// out: a 307 can name only one owner, so a batch is proxied even when
// single-device traffic would be redirected.
func TestClusterBatchRedirectStillProxies(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 2, Redirect: true, TraceSeed: 67})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clus.Close)
	ring, err := cluster.NewRing([]string{"node-0", "node-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceOwnedBy(t, ring, "rdev", "node-1")
	// Register at the owner directly — redirect mode would 307 this.
	resp, err := http.Post(clus.URLs()[1]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, dev)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering %s: status %d", dev, resp.StatusCode)
	}

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	loose := fleettest.LooseSpec(fleettest.Databases(t)[0].DB)
	events := []fleet.BatchEventJSON{{Device: dev, Seq: 1, QoSSpecJSON: fleet.QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}}}
	status, results := postBatch(t, noFollow, clus.URLs()[0], events, false)
	if status != http.StatusOK {
		t.Fatalf("redirect-mode batch: status %d, want 200 (batches must proxy, not 307)", status)
	}
	if len(results) != 1 || results[0].Status != http.StatusOK || results[0].Decision == nil {
		t.Fatalf("redirect-mode batch result: %+v", results)
	}
}

// TestClusterBatchPartialFailure routes a batch through a node whose
// ring includes a dead peer: the dead owner's slots answer 502, the
// local slots decide normally, and order is preserved.
func TestClusterBatchPartialFailure(t *testing.T) {
	node, _, url := ghostCluster(t)
	alive := deviceOwnedBy(t, node.Ring(), "live", "a")
	dead := deviceOwnedBy(t, node.Ring(), "dead", "b")
	resp, err := http.Post(url+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, alive)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering %s: status %d", alive, resp.StatusCode)
	}

	loose := fleettest.LooseSpec(fleettest.Databases(t)[0].DB)
	looseJ := fleet.QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}
	events := []fleet.BatchEventJSON{
		{Device: alive, Seq: 1, QoSSpecJSON: looseJ},
		{Device: dead, Seq: 1, QoSSpecJSON: looseJ},
		{Device: alive, Seq: 2, QoSSpecJSON: looseJ},
	}
	status, results := postBatch(t, http.DefaultClient, url, events, false)
	if status != http.StatusOK {
		t.Fatalf("partial-failure batch: status %d", status)
	}
	if len(results) != len(events) {
		t.Fatalf("got %d results for %d events", len(results), len(events))
	}
	for _, i := range []int{0, 2} {
		if results[i].Status != http.StatusOK || results[i].Decision == nil {
			t.Errorf("local slot %d: %+v, want a 200 decision", i, results[i])
		} else if results[i].Decision.Seq != events[i].Seq {
			t.Errorf("local slot %d: seq %d, want %d", i, results[i].Decision.Seq, events[i].Seq)
		}
	}
	if results[1].Status != http.StatusBadGateway || !strings.Contains(results[1].Error, "forward to owner failed") {
		t.Errorf("dead-owner slot: %+v, want 502 forward failure", results[1])
	}
}

// TestClusterBatchCap pins the cluster edge's own batch cap over both
// encodings: fleet.MaxBatchEvents events pass the edge, and one more
// answers 400 there. The events alternate between devices owned by
// each of the two nodes, so each node's share of the over-cap batch is
// under the fleet server's cap: only the edge's check can refuse it.
func TestClusterBatchCap(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 2, TraceSeed: 71})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clus.Close)
	ring, err := cluster.NewRing([]string{"node-0", "node-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	devs := []string{deviceOwnedBy(t, ring, "cap", "node-0"), deviceOwnedBy(t, ring, "cap", "node-1")}
	spec := fleet.QoSSpecJSON{SMaxMs: 1, FMin: 0.5}
	for _, binary := range []bool{false, true} {
		for _, n := range []int{fleet.MaxBatchEvents, fleet.MaxBatchEvents + 1} {
			events := make([]fleet.BatchEventJSON, n)
			for i := range events {
				events[i] = fleet.BatchEventJSON{Device: devs[i%2], Seq: uint64(i/2 + 1), QoSSpecJSON: spec}
			}
			status, raw := postBatchRaw(t, http.DefaultClient, clus.URLs()[0], events, binary)
			if n <= fleet.MaxBatchEvents {
				if status != http.StatusOK {
					t.Fatalf("binary=%v, %d events: status %d (%s), want 200", binary, n, status, raw)
				}
				var results []fleet.BatchResultJSON
				if binary {
					results, err = fleet.DecodeBatchResponse(raw, nil)
				} else {
					var br fleet.BatchResponseJSON
					err = json.Unmarshal(raw, &br)
					results = br.Results
				}
				if err != nil || len(results) != n {
					t.Fatalf("binary=%v, %d events: %d results, %v", binary, n, len(results), err)
				}
				continue
			}
			want := fmt.Sprintf("batch of %d events exceeds the %d-event cap", n, fleet.MaxBatchEvents)
			if status != http.StatusBadRequest || !strings.Contains(string(raw), want) {
				t.Fatalf("binary=%v, %d events: status %d (%s), want 400 %q", binary, n, status, raw, want)
			}
		}
	}
}
