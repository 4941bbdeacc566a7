package crawler

import (
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/workload"
)

// worldGateway puts an entire columnar world on the wire without boxing
// it. The legacy crawl path materialized one edonkey.Client per online
// world client every day — a goroutine-backed listener, a login
// round-trip and a fully rendered file list each, which is what capped
// edcrawl far below the population sizes the trace layer can ingest. The
// gateway replaces all of that with two views over the world's columns:
//
//   - the server view: a protocol.ServerCore whose Directory enumerates
//     online clients straight from the packed nickname/identity/flag
//     columns (one static nickname-sorted permutation, binary-searched
//     per query), with who logged in and who probes reachable taken
//     from serve.ForEachLogin, the one login replay; source and keyword
//     queries answer from a serve.Snapshot of the day, frozen on the
//     first such query, so the gateway and edserved share one publish
//     index;
//   - the client view: a Network resolver that answers Browse dials for
//     any online client's endpoint with a handler rendering that
//     client's cache span on the fly.
//
// The crawler still learns everything through wire messages — the same
// frames, caps, rejects and unreachable errors — but the per-day cost is
// proportional to what the crawler touches, not to the population.
//
// Unlike the boxed server, whose user-search truncation order was Go map
// order, the gateway's enumeration order is fully deterministic
// (nickname-sorted, client index breaking ties), so capped million-peer
// crawls are bit-identical for any worker count.
type worldGateway struct {
	w   *workload.World
	cfg Config
	net *edonkey.Network

	// maxUserReplies is the served reply cap (DefaultMaxUserReplies;
	// tests lower it to exercise deterministic truncation at small scale).
	maxUserReplies int

	// nickOrder is the static nickname-sorted client permutation behind
	// prefix queries; nicknames never change, so it is built once.
	nickOrder []int32

	// Per-day state, rebuilt by beginDay.
	day           int
	epOwner       map[protocol.Endpoint]int32
	participating []bool // logged in today (online and not a collision loser)
	reachable     []bool // would probe high-ID today
	browsable     map[identityKey]struct{}
	// published freezes the day's publish index on the first source or
	// keyword query; a plain crawl never sends one, so never pays for it.
	published func() *serve.Snapshot

	mu       sync.Mutex
	sessions []protocol.UserEntry // wire logins (the crawler itself)
}

func newWorldGateway(w *workload.World, cfg Config, n *edonkey.Network) (*worldGateway, error) {
	g := &worldGateway{w: w, cfg: cfg, net: n, maxUserReplies: edonkey.DefaultMaxUserReplies}
	g.buildNickOrder()
	if err := n.Listen(serverEndpoint, g.serveServer); err != nil {
		return nil, err
	}
	n.SetResolver(g.resolveClient)
	return g, nil
}

func (g *worldGateway) core() *protocol.ServerCore {
	return &protocol.ServerCore{
		Dir:                g,
		MaxUserReplies:     g.maxUserReplies,
		SupportsUserSearch: true,
	}
}

// buildNickOrder sorts the client indices by nickname (index breaking
// ties; nicknames embed the index, so ties cannot actually occur). The
// strings are materialized once for the sort, then dropped: steady state
// keeps only the permutation.
func (g *worldGateway) buildNickOrder() {
	n := g.w.NumClients()
	names := make([]string, n)
	g.nickOrder = make([]int32, n)
	for i := 0; i < n; i++ {
		names[i] = g.w.Nickname(i)
		g.nickOrder[i] = int32(i)
	}
	slices.SortFunc(g.nickOrder, func(a, b int32) int {
		if c := strings.Compare(names[a], names[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// beginDay re-derives the day's server-side state from the world
// columns through serve.ForEachLogin: who is logged in, who probes
// reachable and who owns each claimed endpoint (the Browse dial
// targets). It also drops the previous day's publish index.
func (g *worldGateway) beginDay(day int) {
	w := g.w
	g.day = day
	if g.participating == nil {
		g.participating = make([]bool, w.NumClients())
		g.reachable = make([]bool, w.NumClients())
	}
	clear(g.participating)
	clear(g.reachable)
	g.epOwner = make(map[protocol.Endpoint]int32, w.OnlineCount())
	g.browsable = make(map[identityKey]struct{}, w.OnlineCount())
	g.published = sync.OnceValue(func() *serve.Snapshot { return serve.SnapshotFromWorld(w, day) })
	g.mu.Lock()
	g.sessions = nil // day boundary: every wire session re-logs
	g.mu.Unlock()
	serve.ForEachLogin(w, day, g.epOwner, func(i int, ep protocol.Endpoint, hash [16]byte, reachable bool) {
		g.participating[i] = true
		g.reachable[i] = reachable
		if !w.Firewalled(i) && w.BrowseOK(i) {
			g.browsable[identityKey{hash, ep.IP}] = struct{}{}
		}
	})
}

// wasBrowsable reports whether the identity belonged to a client that
// accepted browsing today (the crawler's stats classification).
func (g *worldGateway) wasBrowsable(key identityKey) bool {
	_, ok := g.browsable[key]
	return ok
}

// --- protocol.Directory over the world columns ---------------------------

func (g *worldGateway) Servers() []protocol.Endpoint {
	return []protocol.Endpoint{serverEndpoint}
}

func (g *worldGateway) userEntry(i int) protocol.UserEntry {
	ip, hash := g.w.IdentityAt(i, g.day)
	id := uint32(1) // low ID
	if g.reachable[i] {
		id = protocol.HighID(ip)
	}
	return protocol.UserEntry{
		Hash:     hash,
		ClientID: id,
		Endpoint: protocol.Endpoint{IP: ip, Port: serve.ClientPort(i)},
		Nickname: g.w.Nickname(i),
	}
}

func (g *worldGateway) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	// Nicknames are lowercase letters, digits and '_', all below '{', so
	// the prefix bucket is the contiguous range [prefix, prefix+"{").
	lo := sort.Search(len(g.nickOrder), func(k int) bool {
		return g.w.Nickname(int(g.nickOrder[k])) >= prefix
	})
	hi := sort.Search(len(g.nickOrder), func(k int) bool {
		return g.w.Nickname(int(g.nickOrder[k])) >= prefix+"{"
	})
	for k := lo; k < hi; k++ {
		i := int(g.nickOrder[k])
		if !g.participating[i] {
			continue
		}
		if !yield(g.userEntry(i)) {
			return
		}
	}
	// Wire sessions (the crawler's own login) are enumerated after the
	// population, like any other logged-in user.
	g.mu.Lock()
	sessions := g.sessions
	g.mu.Unlock()
	for _, u := range sessions {
		if strings.HasPrefix(strings.ToLower(u.Nickname), prefix) {
			if !yield(u) {
				return
			}
		}
	}
}

func (g *worldGateway) SourcesOf(hash [16]byte) []protocol.Endpoint {
	if !g.cfg.PublishFiles {
		return nil // nothing was published to the index
	}
	return g.published().SourcesOf(hash)
}

func (g *worldGateway) SearchFiles(keyword string) []protocol.FileEntry {
	if !g.cfg.PublishFiles {
		return nil
	}
	return g.published().SearchFiles(keyword)
}

// --- wire handlers --------------------------------------------------------

func (g *worldGateway) gwSend(conn net.Conn, m protocol.Message) error {
	if err := conn.SetDeadline(time.Now().Add(g.net.DialTimeout)); err != nil {
		return err
	}
	return protocol.WriteMessage(conn, m)
}

// serveServer answers one connection to the first-tier server endpoint,
// rendering every reply through ServerCore.AppendReply — the serving
// hot path — into one reused buffer.
func (g *worldGateway) serveServer(conn net.Conn) {
	defer conn.Close()
	core := g.core()
	var scratch, reply []byte
	for {
		m, sc, err := protocol.ReadMessageInto(conn, scratch)
		scratch = sc
		if err != nil {
			return
		}
		switch req := m.(type) {
		case *protocol.LoginRequest:
			reply, _ = protocol.AppendMessage(reply[:0], g.handleLogin(req))
		case *protocol.OfferFiles:
			continue // accepted silently, like the original protocol
		default:
			var handled bool
			if reply, handled = core.AppendReply(reply[:0], m); !handled {
				reply, _ = protocol.AppendMessage(reply, &protocol.Reject{Reason: "unsupported request"})
			}
		}
		if len(reply) == 0 {
			return // the reply outgrew MaxMessageSize
		}
		if conn.SetDeadline(time.Now().Add(g.net.DialTimeout)) != nil {
			return
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// handleLogin registers a wire session (in a crawl: the crawler itself)
// with the legacy probe semantics: reachable endpoints get an IP-derived
// high ID.
func (g *worldGateway) handleLogin(req *protocol.LoginRequest) protocol.Message {
	id := uint32(1)
	if g.net.Listening(req.Endpoint) {
		id = protocol.HighID(req.Endpoint.IP)
	}
	g.mu.Lock()
	g.sessions = append(g.sessions, protocol.UserEntry{
		Hash:     req.UserHash,
		ClientID: id,
		Endpoint: req.Endpoint,
		Nickname: req.Nickname,
	})
	g.mu.Unlock()
	return &protocol.IDChange{ClientID: id}
}

// resolveClient is the Network fallback: it owns every claimed client
// endpoint of the day and serves the client-client protocol (handshake,
// browse) straight from the owner's columns.
func (g *worldGateway) resolveClient(ep protocol.Endpoint) (edonkey.ConnHandler, bool) {
	owner, ok := g.epOwner[ep]
	if !ok {
		return nil, false
	}
	return func(conn net.Conn) {
		g.serveClient(int(owner), conn)
	}, true
}

// serveClient answers client-client sessions for world client i.
func (g *worldGateway) serveClient(i int, conn net.Conn) {
	defer conn.Close()
	for {
		m, err := protocol.ReadMessage(conn)
		if err != nil {
			return
		}
		var reply protocol.Message
		switch m.(type) {
		case *protocol.Hello:
			_, hash := g.w.IdentityAt(i, g.day)
			reply = &protocol.HelloAnswer{UserHash: hash, Nickname: g.w.Nickname(i)}
		case *protocol.AskSharedFiles:
			if !g.w.BrowseOK(i) {
				reply = &protocol.Reject{Reason: "browsing disabled"}
			} else {
				reply = &protocol.SharedFilesAnswer{Files: g.entriesFor(i)}
			}
		default:
			reply = &protocol.Reject{Reason: "unsupported"}
		}
		if err := g.gwSend(conn, reply); err != nil {
			return
		}
	}
}

// entriesFor renders client i's cache span as protocol file entries.
func (g *worldGateway) entriesFor(i int) []protocol.FileEntry {
	files, _ := g.w.CacheView(i)
	out := make([]protocol.FileEntry, 0, len(files))
	for _, fi := range files {
		out = append(out, protocol.FileEntry{
			Hash: g.w.FileHash(int(fi)),
			Size: uint64(g.w.FileSize(int(fi))),
			Name: g.w.FileName(int(fi)),
			Type: g.w.FileKind(int(fi)).String(),
		})
	}
	return out
}
