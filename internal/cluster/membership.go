package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/store"
)

// Membership and hash-range handoff.
//
// A membership change (join or leave) is orchestrated by whichever node
// receives the POST /cluster/join or /cluster/leave request:
//
//  1. Compute the next ring (current ± the node) — never installed yet.
//  2. Run the donor handoffs: on join, every current member donates the
//     hash ranges that move to the joiner; on leave, the leaver donates its
//     ranges to every remaining member. Each donor ships its whole store
//     (sealed segments verbatim in the snapshot block format plus a
//     head-replay tail); the target keeps exactly the fragments whose
//     entity moves donor→target between the two rings and stages them
//     invisibly.
//  3. Only after every handoff has committed does the coordinator broadcast
//     the new membership; each node flips its ring atomically on receipt.
//
// Atomicity: a fragment becomes visible on the target at commit (install +
// snapshot) and invisible on the donor at drop, which happens strictly
// after commit. A crash before commit loses nothing (the donor still owns
// everything; target staging is discarded and rebuilt by the retry, and
// install is idempotent). A crash between commit and the membership flip
// leaves the fragment present on both nodes — queries deduplicate under
// set semantics, and the retried join installs nothing new. There is no
// window in which a fragment exists on neither node.

// ringResponse is GET /cluster/ring.
type ringResponse struct {
	Self        string   `json:"self"`
	Version     int64    `json:"version"`
	VNodes      int      `json:"vnodes"`
	Members     []string `json:"members"`
	Fingerprint string   `json:"fingerprint"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	ring, ver := n.Ring()
	writeJSON(w, http.StatusOK, ringResponse{
		Self:        n.cfg.Self,
		Version:     ver,
		VNodes:      ring.VNodes(),
		Members:     ring.Members(),
		Fingerprint: fmt.Sprintf("%016x", ring.Fingerprint()),
	})
}

// censusResponse is GET /cluster/census: the anchored entities this node
// physically holds — the ground truth the handoff tests reconcile against
// ring ownership.
type censusResponse struct {
	Entities  map[string]int `json:"entities"`
	Fragments int            `json:"fragments"`
}

func (n *Node) handleCensus(w http.ResponseWriter, r *http.Request) {
	ents, frags := n.census()
	writeJSON(w, http.StatusOK, censusResponse{Entities: ents, Fragments: frags})
}

// census counts the anchored fragments per recognised entity across every
// tier of the local store.
func (n *Node) census() (map[string]int, int) {
	ents := make(map[string]int)
	frags := 0
	n.cfg.Pipeline.Store.EachAnchorNode(func(iri string) {
		if e, ok := onto.AnchorEntityID(iri); ok {
			ents[e]++
			frags++
		}
	})
	return ents, frags
}

// membershipRequest is POST /cluster/membership: the coordinator's flip
// broadcast. A node adopts iff the version is newer than its own.
type membershipRequest struct {
	Version int64    `json:"version"`
	Members []string `json:"members"`
}

type membershipResponse struct {
	Adopted bool  `json:"adopted"`
	Version int64 `json:"version"`
}

func (n *Node) handleMembership(w http.ResponseWriter, r *http.Request) {
	var req membershipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Version <= 0 || len(req.Members) == 0 {
		http.Error(w, "version and members required", http.StatusBadRequest)
		return
	}
	adopted := n.adopt(req.Version, req.Members)
	_, ver := n.Ring()
	writeJSON(w, http.StatusOK, membershipResponse{Adopted: adopted, Version: ver})
}

// adopt installs a newer membership view; stale or same-version broadcasts
// are ignored (idempotent flips).
func (n *Node) adopt(version int64, members []string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if version <= n.version {
		return false
	}
	n.ring = NewRing(members, n.cfg.VNodes)
	n.version = version
	n.logger.Info("cluster membership adopted", "version", version, "members", members)
	return true
}

// changeRequest is POST /cluster/join and /cluster/leave.
type changeRequest struct {
	Node string `json:"node"`
}

type changeResponse struct {
	Version int64    `json:"version"`
	Members []string `json:"members"`
	Already bool     `json:"already,omitempty"`
}

// handleJoin admits a new node: every current member donates the hash
// ranges that move to it, then the enlarged membership is broadcast. The
// joiner must already be serving (empty or not — install is idempotent).
// On any donor failure the membership is left unchanged and the request
// fails; a retry redoes the handoffs (cheap for donors that already
// committed: their re-ship installs nothing).
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req changeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Node == "" {
		http.Error(w, "body must be {\"node\": \"host:port\"}", http.StatusBadRequest)
		return
	}
	cur, ver := n.Ring()
	if cur.Has(req.Node) {
		writeJSON(w, http.StatusOK, changeResponse{Version: ver, Members: cur.Members(), Already: true})
		return
	}
	newMembers := cur.WithJoined(req.Node).Members()
	for _, donor := range cur.Members() {
		if err := n.executeOn(donor, req.Node, newMembers); err != nil {
			writeJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: "handoff " + donor + " -> " + req.Node + ": " + err.Error()})
			return
		}
	}
	n.broadcastMembership(ver+1, newMembers, newMembers)
	writeJSON(w, http.StatusOK, changeResponse{Version: ver + 1, Members: newMembers})
}

// handleLeave retires a member: the leaver donates each moving hash range
// to its new owner, then the shrunk membership is broadcast to everyone —
// including the leaver, so it stops claiming ownership even if it keeps
// serving.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req changeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Node == "" {
		http.Error(w, "body must be {\"node\": \"host:port\"}", http.StatusBadRequest)
		return
	}
	cur, ver := n.Ring()
	if !cur.Has(req.Node) {
		writeJSON(w, http.StatusOK, changeResponse{Version: ver, Members: cur.Members(), Already: true})
		return
	}
	newRing := cur.WithLeft(req.Node)
	if newRing.Size() == 0 {
		http.Error(w, "cannot remove the last member", http.StatusBadRequest)
		return
	}
	newMembers := newRing.Members()
	for _, target := range newMembers {
		if err := n.executeOn(req.Node, target, newMembers); err != nil {
			writeJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: "handoff " + req.Node + " -> " + target + ": " + err.Error()})
			return
		}
	}
	n.broadcastMembership(ver+1, newMembers, cur.Members())
	writeJSON(w, http.StatusOK, changeResponse{Version: ver + 1, Members: newMembers})
}

// executeOn runs one donor→target handoff, locally when this node is the
// donor, over the execute RPC otherwise.
func (n *Node) executeOn(donor, target string, newMembers []string) error {
	if donor == n.cfg.Self {
		_, err := n.executeHandoff(target, newMembers)
		return err
	}
	body, _ := json.Marshal(handoffExecuteRequest{Target: target, NewMembers: newMembers})
	pr := n.rpc(donor, "/cluster/handoff/execute", "application/json", body)
	if pr.err != nil {
		return pr.err
	}
	if pr.status != http.StatusOK {
		return fmt.Errorf("donor status %d: %s", pr.status, strings.TrimSpace(string(pr.body)))
	}
	return nil
}

// broadcastMembership flips every recipient to the new view. A recipient
// that cannot be reached is logged and skipped: it keeps the old ring until
// an operator retries the change or the next broadcast reaches it (its
// stale forwards still land on nodes that serve them correctly, and its
// version check makes the eventual flip idempotent).
func (n *Node) broadcastMembership(version int64, members, recipients []string) {
	body, _ := json.Marshal(membershipRequest{Version: version, Members: members})
	for _, m := range recipients {
		if m == n.cfg.Self {
			n.adopt(version, members)
			continue
		}
		pr := n.rpc(m, "/cluster/membership", "application/json", body)
		if pr.err != nil || pr.status != http.StatusOK {
			n.logger.Warn("membership broadcast failed", "member", m, "err", peerFailure(pr))
		}
	}
}

// handoffExecuteRequest is POST /cluster/handoff/execute: run this node's
// donor side of one handoff.
type handoffExecuteRequest struct {
	Target     string   `json:"target"`
	NewMembers []string `json:"newMembers"`
}

type handoffExecuteResponse struct {
	Installed        int `json:"installed"`
	Skipped          int `json:"skipped"`
	DroppedFragments int `json:"droppedFragments"`
	DroppedTriples   int `json:"droppedTriples"`
}

func (n *Node) handleHandoffExecute(w http.ResponseWriter, r *http.Request) {
	var req handoffExecuteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Target == "" || len(req.NewMembers) == 0 {
		http.Error(w, "target and newMembers required", http.StatusBadRequest)
		return
	}
	res, err := n.executeHandoff(req.Target, req.NewMembers)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// executeHandoff is the donor side of one handoff session: quiesce local
// ingest so the cut is complete, ship the store, wait for the target's
// durable commit, and only then drop the moved range locally (followed by a
// local snapshot so a later restart cannot replay the moved lines back).
// The failpoint hook fires before each step, letting tests freeze a donor
// at any protocol point.
func (n *Node) executeHandoff(target string, newMembers []string) (handoffExecuteResponse, error) {
	n.handoffMu.Lock()
	defer n.handoffMu.Unlock()
	var res handoffExecuteResponse
	cur, _ := n.Ring()
	if target == n.cfg.Self {
		return res, fmt.Errorf("donor and target are both %s", n.cfg.Self)
	}
	newRing := NewRing(newMembers, cur.VNodes())
	moved := movedPredicate(cur, newRing, n.cfg.Self, target)
	n.cfg.Server.Ingestor().Quiesce(30 * time.Second)

	session := "?donor=" + url.QueryEscape(n.cfg.Self)
	if err := n.failpoint("begin"); err != nil {
		return res, err
	}
	beginBody, _ := json.Marshal(handoffBeginRequest{
		Donor:      n.cfg.Self,
		OldMembers: cur.Members(),
		NewMembers: newMembers,
	})
	if err := n.rpcOK(target, "/cluster/handoff/begin", "application/json", beginBody); err != nil {
		return res, fmt.Errorf("begin: %w", err)
	}

	// A failpoint error models a donor crash at that protocol step, so it
	// deliberately does NOT abort the target's staging session — exactly
	// the garbage a real crash leaves behind. A retried handoff's begin
	// replaces the stale session.
	if err := n.failpoint("data"); err != nil {
		return res, err
	}
	var buf bytes.Buffer
	if err := n.cfg.Pipeline.Store.WriteHandoff(&buf); err != nil {
		n.abortOn(target, session)
		return res, fmt.Errorf("serialise store: %w", err)
	}
	if err := n.rpcOK(target, "/cluster/handoff/data"+session, "application/octet-stream", buf.Bytes()); err != nil {
		n.abortOn(target, session)
		return res, fmt.Errorf("data: %w", err)
	}

	if err := n.failpoint("commit"); err != nil {
		return res, err
	}
	pr := n.rpc(target, "/cluster/handoff/commit"+session, "", nil)
	if pr.err != nil {
		return res, fmt.Errorf("commit: %w", pr.err)
	}
	if pr.status != http.StatusOK {
		return res, fmt.Errorf("commit: status %d: %s", pr.status, strings.TrimSpace(string(pr.body)))
	}
	var cres handoffCommitResponse
	_ = json.Unmarshal(pr.body, &cres)
	res.Installed, res.Skipped = cres.Installed, cres.Skipped

	if err := n.failpoint("drop"); err != nil {
		return res, err
	}
	res.DroppedFragments, res.DroppedTriples = n.cfg.Pipeline.Store.DropAnchored(moved)
	n.handoffsOut.Add(1)
	n.logger.Info("handoff complete", "target", target,
		"installed", res.Installed, "skipped", res.Skipped,
		"droppedFragments", res.DroppedFragments, "droppedTriples", res.DroppedTriples)
	if err := n.localSnapshot(); err != nil {
		// The drop already happened in memory; without the checkpoint a
		// restart would replay the moved lines back (transient double-own,
		// masked by query dedup until the next snapshot or retried change).
		n.logger.Warn("post-drop snapshot failed", "err", err)
	}
	return res, nil
}

// movedPredicate is the one ownership-transfer rule both ends of a handoff
// evaluate: an anchored fragment moves iff its entity is owned by the donor
// under the old ring and by the target under the new one. Rings are
// deterministic, so donor and target always agree on the moved set.
func movedPredicate(oldRing, newRing *Ring, donor, target string) func(string) bool {
	return func(iri string) bool {
		e, ok := onto.AnchorEntityID(iri)
		if !ok {
			return false
		}
		return oldRing.Owner(e) == donor && newRing.Owner(e) == target
	}
}

func (n *Node) failpoint(step string) error {
	if n.cfg.Failpoint == nil {
		return nil
	}
	return n.cfg.Failpoint(step)
}

// rpcOK performs one cluster RPC and folds transport and status errors.
func (n *Node) rpcOK(member, pathAndQuery, contentType string, body []byte) error {
	pr := n.rpc(member, pathAndQuery, contentType, body)
	if pr.err != nil {
		return pr.err
	}
	if pr.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", pr.status, strings.TrimSpace(string(pr.body)))
	}
	return nil
}

func (n *Node) abortOn(target, session string) {
	_ = n.rpcOK(target, "/cluster/handoff/abort"+session, "", nil)
}

// localSnapshot checkpoints the local pipeline through the server's own
// snapshot path (same locking as POST /snapshot). A 409 means the node runs
// without a data directory — nothing to checkpoint, not an error.
func (n *Node) localSnapshot() error {
	pr := n.do(n.cfg.Self, http.MethodPost, "/snapshot", "", nil, nil)
	if pr.err != nil {
		return pr.err
	}
	if pr.status != http.StatusOK && pr.status != http.StatusConflict {
		return fmt.Errorf("status %d: %s", pr.status, strings.TrimSpace(string(pr.body)))
	}
	return nil
}

// handoffBeginRequest is POST /cluster/handoff/begin (target side): open a
// staging session for one donor. A stale session from an earlier aborted
// attempt by the same donor is replaced.
type handoffBeginRequest struct {
	Donor      string   `json:"donor"`
	OldMembers []string `json:"oldMembers"`
	NewMembers []string `json:"newMembers"`
}

func (n *Node) handleHandoffBegin(w http.ResponseWriter, r *http.Request) {
	var req handoffBeginRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Donor == "" || len(req.OldMembers) == 0 || len(req.NewMembers) == 0 {
		http.Error(w, "donor, oldMembers and newMembers required", http.StatusBadRequest)
		return
	}
	oldRing := NewRing(req.OldMembers, n.cfg.VNodes)
	newRing := NewRing(req.NewMembers, n.cfg.VNodes)
	keep := movedPredicate(oldRing, newRing, req.Donor, n.cfg.Self)
	n.stagingMu.Lock()
	n.staging[req.Donor] = &stagingSession{keep: keep}
	n.stagingMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleHandoffData streams one donor's store into its staging session,
// keeping only the fragments that move here. May be called repeatedly
// within a session (chunked shipping); fragments accumulate.
func (n *Node) handleHandoffData(w http.ResponseWriter, r *http.Request) {
	donor := r.URL.Query().Get("donor")
	n.stagingMu.Lock()
	sess := n.staging[donor]
	n.stagingMu.Unlock()
	if sess == nil {
		http.Error(w, "no handoff session for donor "+donor, http.StatusConflict)
		return
	}
	frags, err := store.ReadHandoff(r.Body, sess.keep)
	if err != nil {
		http.Error(w, "decode handoff stream: "+err.Error(), http.StatusBadRequest)
		return
	}
	n.stagingMu.Lock()
	sess.frags = append(sess.frags, frags...)
	staged := len(sess.frags)
	n.stagingMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"staged": staged})
}

type handoffCommitResponse struct {
	Installed int `json:"installed"`
	Skipped   int `json:"skipped"`
}

// handleHandoffCommit makes the staged fragments visible (idempotently —
// fragments this node already holds are skipped) and checkpoints them with
// a local snapshot before acknowledging, so the donor only drops its copy
// once the target holds a durable one. If the snapshot fails the install
// stands (re-committing skips everything) but the donor is told to keep its
// copy.
func (n *Node) handleHandoffCommit(w http.ResponseWriter, r *http.Request) {
	donor := r.URL.Query().Get("donor")
	n.stagingMu.Lock()
	sess := n.staging[donor]
	delete(n.staging, donor)
	n.stagingMu.Unlock()
	if sess == nil {
		http.Error(w, "no handoff session for donor "+donor, http.StatusConflict)
		return
	}
	installed, skipped := n.cfg.Pipeline.Store.InstallHandoff(sess.frags)
	if installed+skipped < len(sess.frags) {
		// The store refused the rest (its term dictionary is full): the donor
		// must keep its copy.
		http.Error(w, fmt.Sprintf("store refused %d of %d fragments: term dictionary full",
			len(sess.frags)-installed-skipped, len(sess.frags)), http.StatusInternalServerError)
		return
	}
	if err := n.localSnapshot(); err != nil {
		http.Error(w, "checkpoint after install: "+err.Error(), http.StatusInternalServerError)
		return
	}
	n.handoffsIn.Add(1)
	n.logger.Info("handoff committed", "donor", donor, "installed", installed, "skipped", skipped)
	writeJSON(w, http.StatusOK, handoffCommitResponse{Installed: installed, Skipped: skipped})
}

func (n *Node) handleHandoffAbort(w http.ResponseWriter, r *http.Request) {
	donor := r.URL.Query().Get("donor")
	n.stagingMu.Lock()
	_, had := n.staging[donor]
	delete(n.staging, donor)
	n.stagingMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"aborted": had})
}
