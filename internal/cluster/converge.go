package cluster

// Cluster convergence of the two artifacts that change at run time:
// each cohort's design-point database (Continuous ReD) and its cohort
// value table (cohort AuRA). Both are versioned per cohort and both
// must be the same on every alive node:
//
//   - a handoff bundle is only importable at the importer's exact
//     active database (fleet.ErrVersionSkew), so cutting databases over
//     one node at a time would turn every rebalance during the
//     transition into a skew rejection;
//   - a value table seeds agents fleet-wide, so two nodes publishing
//     different tables would split the fleet's learning.
//
// Version numbers alone cannot identify either artifact: each node's
// worker proposes or aggregates from its node-local journal, so two
// nodes can hold different content under the same number. State is
// therefore always the pair (version, content fingerprint).
//
// One protocol serves both kinds. The workers gate every change on
// agree — every alive peer holds the same state, and no peer is
// shadowing a different candidate — before any node changes. The gate
// is not atomic across nodes, so one node can still change first (or
// two can race through it), after which every other node's gate fails
// against the winner forever. catchUp is the repair: a node that sees a
// peer ahead of it under winsOver fetches that peer's exact artifact
// and adopts it, restoring agreement instead of wedging.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/runtime"
)

// DBVersionJSON is one database cohort's version pair as published on
// GET /v1/cluster/versions. The fingerprints are the content hashes of
// the respective databases (fleet.NamedDatabase.Fingerprint): equal
// version numbers with different fingerprints mean divergent
// databases, not agreement.
type DBVersionJSON struct {
	Database             string `json:"database"`
	ActiveVersion        uint64 `json:"active_version"`
	ActiveFingerprint    uint64 `json:"active_fingerprint"`
	HasCandidate         bool   `json:"has_candidate,omitempty"`
	CandidateVersion     uint64 `json:"candidate_version,omitempty"`
	CandidateFingerprint uint64 `json:"candidate_fingerprint,omitempty"`
}

// VersionsJSON is the body of GET /v1/cluster/versions.
type VersionsJSON struct {
	Node      string          `json:"node"`
	Databases []DBVersionJSON `json:"databases"`
}

func dbVersionJSON(st fleet.EvolveStatus) DBVersionJSON {
	return DBVersionJSON{
		Database:             st.Database,
		ActiveVersion:        st.ActiveVersion,
		ActiveFingerprint:    st.ActiveFingerprint,
		HasCandidate:         st.HasCandidate,
		CandidateVersion:     st.CandidateVersion,
		CandidateFingerprint: st.CandidateFingerprint,
	}
}

func (d DBVersionJSON) cohort() string { return d.Database }

func (d DBVersionJSON) state() artifactState {
	return artifactState{
		present: true,
		ver:     d.ActiveVersion, fp: d.ActiveFingerprint,
		cand:    d.HasCandidate,
		candVer: d.CandidateVersion, candFP: d.CandidateFingerprint,
	}
}

// VersionsInfo snapshots this node's per-database version state.
func (n *Node) VersionsInfo() VersionsJSON {
	doc := VersionsJSON{Node: n.self}
	for _, st := range n.reg.EvolveStatuses() {
		doc.Databases = append(doc.Databases, dbVersionJSON(st))
	}
	return doc
}

func (n *Node) handleVersions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.VersionsInfo())
}

// DatabaseJSON is the body of GET /v1/cluster/database/{name}: the
// node's active database for one cohort, with the version/fingerprint
// pair the catch-up path verifies before adopting it.
type DatabaseJSON struct {
	Node        string        `json:"node"`
	Database    string        `json:"database"`
	Version     uint64        `json:"version"`
	Fingerprint uint64        `json:"fingerprint"`
	DB          *dse.Database `json:"db"`
}

func (n *Node) handleDatabase(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db, fp, err := n.reg.ActiveSnapshot(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, DatabaseJSON{
		Node: n.self, Database: name, Version: db.Version, Fingerprint: fp, DB: db,
	})
}

// VTableVersionJSON is one cohort's value-table state as published on
// GET /v1/cluster/vtables. The fingerprint is the table's content hash
// (runtime.ValueTable.Fingerprint): equal version numbers with
// different fingerprints mean divergent tables, not agreement.
type VTableVersionJSON struct {
	Database    string `json:"database"`
	HasTable    bool   `json:"has_table"`
	Version     uint64 `json:"version,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
}

// VTablesJSON is the body of GET /v1/cluster/vtables.
type VTablesJSON struct {
	Node      string              `json:"node"`
	Databases []VTableVersionJSON `json:"databases"`
}

func vtableVersionJSON(st fleet.ValueTableStatus) VTableVersionJSON {
	return VTableVersionJSON{
		Database:    st.Database,
		HasTable:    st.HasTable,
		Version:     st.Version,
		Epoch:       st.Epoch,
		Fingerprint: st.Fingerprint,
	}
}

func (d VTableVersionJSON) cohort() string { return d.Database }

func (d VTableVersionJSON) state() artifactState {
	return artifactState{present: d.HasTable, ver: d.Version, fp: d.Fingerprint}
}

// VTablesInfo snapshots this node's per-cohort value-table state.
func (n *Node) VTablesInfo() VTablesJSON {
	doc := VTablesJSON{Node: n.self}
	for _, st := range n.reg.ValueTableStatuses() {
		doc.Databases = append(doc.Databases, vtableVersionJSON(st))
	}
	return doc
}

func (n *Node) handleVTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.VTablesInfo())
}

// VTableJSON is the body of GET /v1/cluster/vtable/{name}: the node's
// active value table for one cohort, with the version/fingerprint pair
// the catch-up path verifies before adopting it.
type VTableJSON struct {
	Node        string              `json:"node"`
	Database    string              `json:"database"`
	Version     uint64              `json:"version"`
	Fingerprint uint64              `json:"fingerprint"`
	Table       *runtime.ValueTable `json:"table"`
}

func (n *Node) handleVTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	vt, err := n.reg.ValueTable(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	if vt == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no value table published"})
		return
	}
	writeJSON(w, http.StatusOK, VTableJSON{
		Node: n.self, Database: name, Version: vt.Version, Fingerprint: vt.Fingerprint(), Table: vt,
	})
}

// artifactState is one node's state of one cohort's artifact.
type artifactState struct {
	present bool   // an artifact exists (a database always does)
	ver, fp uint64 // active (version, content fingerprint)
	// A candidate being shadow-served; only databases have one.
	cand            bool
	candVer, candFP uint64
}

// agrees reports whether two nodes hold the same artifact: the same
// presence and (version, fingerprint) — and, when both are shadowing a
// candidate, the same candidate, since a peer shadowing a different
// one would cut over to a different database.
func (s artifactState) agrees(o artifactState) bool {
	if s.present != o.present || s.ver != o.ver || s.fp != o.fp {
		return false
	}
	return !s.cand || !o.cand || (s.candVer == o.candVer && s.candFP == o.candFP)
}

// winsOver reports whether state (ver, fp) beats (overVer, overFp) in
// the cluster's deterministic convergence order: higher version wins,
// and between divergent artifacts sharing a version number the larger
// content fingerprint wins. Any total order works — it only has to be
// the same on every node, so all nodes chase the same winner. A node
// without a value table is (0, 0), behind every published table.
func winsOver(ver, fp, overVer, overFp uint64) bool {
	if ver != overVer {
		return ver > overVer
	}
	return fp > overFp
}

// artifact describes one kind of converged artifact to agree and
// catchUp.
type artifact struct {
	what string // "database" or "value table", for errors and logs
	list string // route of a node's per-cohort state document
	body string // route prefix of one cohort's active artifact
	// local reads this node's state for the cohort.
	local func(n *Node, database string) (artifactState, error)
	// peer decodes a state document and picks the cohort's entry;
	// listed is false when the peer does not serve the cohort.
	peer func(r io.Reader, database string) (st artifactState, listed bool, err error)
	// decode reads a body document: the artifact's (version,
	// fingerprint) and the step that adopts it here, nil when the
	// document carries no artifact.
	decode func(n *Node, r io.Reader, database string) (ver, fp uint64, adopt func() error, err error)
}

var databases = &artifact{
	what: "database",
	list: "/v1/cluster/versions",
	body: "/v1/cluster/database/",
	local: func(n *Node, database string) (artifactState, error) {
		st, err := n.reg.EvolveStatus(database)
		return dbVersionJSON(st).state(), err
	},
	peer: pickState[DBVersionJSON],
	decode: func(n *Node, r io.Reader, database string) (uint64, uint64, func() error, error) {
		var doc DatabaseJSON
		if err := json.NewDecoder(r).Decode(&doc); err != nil || doc.DB == nil {
			return 0, 0, nil, err
		}
		return doc.Version, doc.Fingerprint, func() error { return n.reg.AdoptDatabase(database, doc.DB) }, nil
	},
}

var valueTables = &artifact{
	what: "value table",
	list: "/v1/cluster/vtables",
	body: "/v1/cluster/vtable/",
	local: func(n *Node, database string) (artifactState, error) {
		st, err := n.reg.ValueTableStatus(database)
		return vtableVersionJSON(st).state(), err
	},
	peer: pickState[VTableVersionJSON],
	decode: func(n *Node, r io.Reader, database string) (uint64, uint64, func() error, error) {
		var doc VTableJSON
		if err := json.NewDecoder(r).Decode(&doc); err != nil || doc.Table == nil {
			return 0, 0, nil, err
		}
		return doc.Version, doc.Fingerprint, func() error { return n.reg.AdoptValueTable(database, doc.Table) }, nil
	},
}

// pickState decodes a state document listing entries of type E and
// returns the named cohort's state.
func pickState[E interface {
	cohort() string
	state() artifactState
}](r io.Reader, database string) (artifactState, bool, error) {
	var doc struct {
		Databases []E `json:"databases"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return artifactState{}, false, err
	}
	for _, d := range doc.Databases {
		if d.cohort() == database {
			return d.state(), true, nil
		}
	}
	return artifactState{}, false, nil
}

// VersionsAgree reports whether every alive peer serves the named
// database at this node's active version — number and content
// fingerprint — with no conflicting candidate: the evolve worker's
// cutover gate.
func (n *Node) VersionsAgree(ctx context.Context, database string) (bool, error) {
	return n.agree(ctx, databases, database)
}

// VTablesAgree reports whether every alive peer holds the named
// cohort's value table at this node's state — presence, version and
// content fingerprint: the cohort worker's publish gate.
func (n *Node) VTablesAgree(ctx context.Context, database string) (bool, error) {
	return n.agree(ctx, valueTables, database)
}

// CatchUpVersions adopts the winning peer's active database for the
// named cohort (see fleet.AdoptDatabase: an immediate cutover that
// drops any local candidate) and reports whether it did: the evolve
// worker's Reconcile hook.
func (n *Node) CatchUpVersions(ctx context.Context, database string) (bool, error) {
	return n.catchUp(ctx, databases, database)
}

// CatchUpVTables adopts the winning peer's value table for the named
// cohort (see fleet.AdoptValueTable) and reports whether it did: the
// cohort worker's Reconcile hook.
func (n *Node) CatchUpVTables(ctx context.Context, database string) (bool, error) {
	return n.catchUp(ctx, valueTables, database)
}

// agree reports whether every alive peer agrees with this node's state
// of the cohort's artifact. An unreachable peer or a malformed document
// is an error, not a disagreement: the caller cannot distinguish
// "behind" from "down", so it should defer its change rather than
// conclude anything.
func (n *Node) agree(ctx context.Context, k *artifact, database string) (bool, error) {
	local, err := k.local(n, database)
	if err != nil {
		return false, err
	}
	peers, urls := n.alivePeers()
	for _, id := range peers {
		st, listed, err := n.peerState(ctx, k, urls[id], database)
		if err != nil {
			return false, fmt.Errorf("cluster: %s state from %s: %w", k.what, id, err)
		}
		if !listed || !st.agrees(local) {
			return false, nil
		}
	}
	return true, nil
}

// catchUp reconverges this node's artifact for the cohort with the
// cluster: when any alive peer's artifact wins the convergence order
// against ours, fetch that exact artifact from the peer and adopt it.
// It reports whether an artifact was adopted. Unreachable peers are
// skipped, not fatal: catch-up is best-effort and re-runs on every
// worker tick; a down winner is re-observed once it is back.
func (n *Node) catchUp(ctx context.Context, k *artifact, database string) (bool, error) {
	local, err := k.local(n, database)
	if err != nil {
		return false, err
	}
	peers, urls := n.alivePeers()
	best, bestPeer := local, ""
	for _, id := range peers {
		st, listed, err := n.peerState(ctx, k, urls[id], database)
		if err != nil || !listed || !st.present {
			continue
		}
		if winsOver(st.ver, st.fp, best.ver, best.fp) {
			best, bestPeer = st, id
		}
	}
	if bestPeer == "" {
		return false, nil
	}

	var ver, fp uint64
	var adopt func() error
	err = n.get(ctx, urls[bestPeer]+k.body+database, 64<<20, func(r io.Reader) (err error) {
		ver, fp, adopt, err = k.decode(n, r, database)
		return err
	})
	if err != nil {
		return false, fmt.Errorf("cluster: %s from %s: %w", k.what, bestPeer, err)
	}
	if adopt == nil {
		return false, fmt.Errorf("cluster: %s from %s: empty document", k.what, bestPeer)
	}
	// The peer may have moved between the two fetches; adopt whatever
	// it holds now as long as it still beats our state.
	if !winsOver(ver, fp, local.ver, local.fp) {
		return false, nil
	}
	if err := adopt(); err != nil {
		return false, fmt.Errorf("cluster: adopt %s v%d from %s: %w", k.what, ver, bestPeer, err)
	}
	n.log.InfoContext(ctx, "adopted peer "+k.what,
		"db", database, "peer", bestPeer, "version", ver, "was", local.ver)
	return true, nil
}

// alivePeers lists the alive members other than this node, with the
// URL map to reach them.
func (n *Node) alivePeers() (peers []string, urls map[string]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.aliveMembersLocked() {
		if id != n.self {
			peers = append(peers, id)
		}
	}
	return peers, n.urls
}

// peerState fetches one peer's state of the cohort's artifact.
func (n *Node) peerState(ctx context.Context, k *artifact, url, database string) (st artifactState, listed bool, err error) {
	err = n.get(ctx, url+k.list, 1<<20, func(r io.Reader) (err error) {
		st, listed, err = k.peer(r, database)
		return err
	})
	return st, listed, err
}

// get fetches a peer route and hands the body, capped at limit bytes,
// to decode. It always sends the cluster token.
func (n *Node) get(ctx context.Context, url string, limit int64, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if n.token != "" {
		req.Header.Set(TokenHeader, n.token)
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return decode(io.LimitReader(resp.Body, limit))
}
