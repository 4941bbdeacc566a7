// Package serve owns the first-tier server's world rules and puts them
// on real sockets at production load. ForEachLogin is the one replay of
// a world day's logins (endpoint claims, collisions, the callback
// probe); SnapshotFromWorld and SnapshotFromTrace freeze one day into an
// immutable, epoch-pinned Snapshot — packed columns, CSR holder
// postings, a keyword index, the catalogue's search entries pre-encoded
// — whose read paths take no locks at all. Server answers it over TCP
// with a hot path that renders replies straight into reused frame
// buffers (protocol.ServerCore.AppendReply). The crawl gateway
// (internal/crawler) is the other caller: it takes its day's logins
// from ForEachLogin and its source and keyword replies from a
// SnapshotFromWorld, so a crawl and edserved answer from the same code.
//
// Swapping days is an atomic pointer swap of the whole Snapshot: a new
// epoch is built off to the side and published, in-flight queries keep
// reading the epoch they pinned. Nothing in the query path can contend,
// which is what lets one core sustain thousands of concurrent
// connections (cmd/edserved + cmd/edload measure this).
package serve

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"edonkey/internal/protocol"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// DefaultServerEndpoint is the canonical first-tier server identity
// reported in ServerList replies — the same address the crawl gateway
// registers on the in-memory switchboard, so replies compare equal
// across the pipe and TCP paths.
var DefaultServerEndpoint = protocol.Endpoint{IP: 0xFFFE0001, Port: 4661}

// Snapshot is one day of a population frozen for serving: the logged-in
// users in nickname order, the published catalogue, per-file source
// postings and a keyword index. It is immutable after construction —
// every method is safe for unlimited concurrent use with zero
// synchronization — and implements protocol.Directory plus the
// SourceStreamer and SearchAppender extensions, so the server's hot path
// streams source replies and copies pre-encoded search entries straight
// into the frame buffer.
type Snapshot struct {
	servers []protocol.Endpoint

	// Users in (nickname, original index) order; nicknames are unique in
	// both generators (they embed the index), so prefix queries binary
	// search nick and scan forward.
	nick     []string
	userHash [][16]byte
	userEp   []protocol.Endpoint
	clientID []uint32

	// Published files, numbered in hash order (only files with at least
	// one online source are indexed; anything else is invisible to
	// queries, like an index no client published to). ent[entOff[fi]:
	// entOff[fi+1]] is file fi's complete search entry, encoded once at
	// freeze time; the other columns back the reference SearchFiles.
	fileHash  [][16]byte
	fileName  []string
	fileSize  []uint64
	fileType  []string
	avail     []uint32
	ent       []byte
	entOff    []uint32
	byHash    map[[16]byte]int32
	keyword   map[string][]int32 // token -> file indices, ascending (= hash order)
	holderOff []int32
	holderEps []protocol.Endpoint // CSR: per-file source endpoints, (IP, port)-sorted
}

var (
	_ protocol.Directory      = (*Snapshot)(nil)
	_ protocol.SourceStreamer = (*Snapshot)(nil)
	_ protocol.SearchAppender = (*Snapshot)(nil)
)

// NumUsers returns how many users are logged in on the snapshot's day.
func (s *Snapshot) NumUsers() int { return len(s.nick) }

// NumFiles returns how many published files the snapshot indexes.
func (s *Snapshot) NumFiles() int { return len(s.fileHash) }

// Servers returns the known-server list in reply order.
func (s *Snapshot) Servers() []protocol.Endpoint { return s.servers }

// UsersWithPrefix visits logged-in users whose nickname starts with the
// prefix, in nickname order.
func (s *Snapshot) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	lo := sort.SearchStrings(s.nick, prefix)
	for k := lo; k < len(s.nick) && strings.HasPrefix(s.nick[k], prefix); k++ {
		u := protocol.UserEntry{
			Hash:     s.userHash[k],
			ClientID: s.clientID[k],
			Endpoint: s.userEp[k],
			Nickname: s.nick[k],
		}
		if !yield(u) {
			return
		}
	}
}

// SourcesOf returns the endpoints sharing the file, in reply order. The
// hot path uses ForEachSource instead; this shape exists for the
// reference Handle path and stays byte-compatible with it.
func (s *Snapshot) SourcesOf(hash [16]byte) []protocol.Endpoint {
	fi, ok := s.byHash[hash]
	if !ok {
		return nil
	}
	span := s.holderEps[s.holderOff[fi]:s.holderOff[fi+1]]
	return slices.Clone(span)
}

// ForEachSource streams the file's source endpoints without
// materializing a slice (protocol.SourceStreamer).
func (s *Snapshot) ForEachSource(hash [16]byte, yield func(protocol.Endpoint) bool) {
	fi, ok := s.byHash[hash]
	if !ok {
		return
	}
	for _, ep := range s.holderEps[s.holderOff[fi]:s.holderOff[fi+1]] {
		if !yield(ep) {
			return
		}
	}
}

// SearchFiles returns the published entries whose name contains the
// keyword token, hash-sorted with live availability, matching the crawl
// gateway's reply order.
func (s *Snapshot) SearchFiles(kw string) []protocol.FileEntry {
	fis := s.keyword[kw]
	if len(fis) == 0 {
		return nil
	}
	out := make([]protocol.FileEntry, len(fis))
	for k, fi := range fis {
		out[k] = protocol.FileEntry{
			Hash:         s.fileHash[fi],
			Size:         s.fileSize[fi],
			Name:         s.fileName[fi],
			Type:         s.fileType[fi],
			Availability: s.avail[fi],
		}
	}
	return out
}

// AppendSearchResult appends the SearchResult payload for the keyword
// token by copying each hit's pre-encoded entry
// (protocol.SearchAppender): byte-identical to encoding SearchFiles, with
// nothing materialized or re-encoded.
func (s *Snapshot) AppendSearchResult(dst []byte, kw string) []byte {
	fis := s.keyword[kw]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fis)))
	for _, fi := range fis {
		dst = append(dst, s.ent[s.entOff[fi]:s.entOff[fi+1]]...)
	}
	return dst
}

// ClientPort is the port population client i listens on.
func ClientPort(i int) uint16 { return uint16(4000 + i%60000) }

// user is the construction-time row shape; build sorts these once and
// splits them into the packed columns.
type user struct {
	nick string
	hash [16]byte
	ep   protocol.Endpoint
	id   uint32
	idx  int
}

// holder is one (file, endpoint) posting collected during construction.
type holder struct {
	fi int32
	ep protocol.Endpoint
}

// fileRow is the construction-time catalogue row; build sets fi, the
// file's original index.
type fileRow struct {
	hash [16]byte
	name string
	size uint64
	typ  string
	fi   int32
}

// build assembles a Snapshot from the construction rows: sorts users by
// nickname, materializes catalogue rows (row(fi) for fi < nfiles) only
// for files with sources, numbers them in hash order, pre-encodes their
// search entries, packs the holder postings into CSR with (IP,
// port)-sorted spans and indexes keywords.
func build(users []user, nfiles int, row func(fi int) fileRow, holders []holder) *Snapshot {
	s := &Snapshot{servers: []protocol.Endpoint{DefaultServerEndpoint}}

	slices.SortFunc(users, func(a, b user) int {
		if c := strings.Compare(a.nick, b.nick); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	s.nick = make([]string, len(users))
	s.userHash = make([][16]byte, len(users))
	s.userEp = make([]protocol.Endpoint, len(users))
	s.clientID = make([]uint32, len(users))
	for k, u := range users {
		s.nick[k] = u.nick
		s.userHash[k] = u.hash
		s.userEp[k] = u.ep
		s.clientID[k] = u.id
	}

	// Source counts per original file index. Only the published subset
	// (files somebody shares today) gets its row materialized, numbered
	// in hash order; remap takes an original index to that number.
	counts := make([]int32, nfiles)
	published := 0
	for _, h := range holders {
		if counts[h.fi] == 0 {
			published++
		}
		counts[h.fi]++
	}
	rows := make([]fileRow, 0, published)
	for fi, n := range counts {
		if n > 0 {
			f := row(fi)
			f.fi = int32(fi)
			rows = append(rows, f)
		}
	}
	slices.SortStableFunc(rows, func(a, b fileRow) int {
		return bytes.Compare(a.hash[:], b.hash[:])
	})
	remap := make([]int32, nfiles)
	for p, f := range rows {
		remap[f.fi] = int32(p)
	}

	s.fileHash = make([][16]byte, published)
	s.fileName = make([]string, published)
	s.fileSize = make([]uint64, published)
	s.fileType = make([]string, published)
	s.avail = make([]uint32, published)
	s.entOff = make([]uint32, published+1)
	s.byHash = make(map[[16]byte]int32, published)
	s.holderOff = make([]int32, published+1)
	for p, f := range rows {
		n := counts[f.fi]
		s.fileHash[p] = f.hash
		s.fileName[p] = f.name
		s.fileSize[p] = f.size
		s.fileType[p] = f.typ
		s.avail[p] = uint32(n)
		s.byHash[f.hash] = int32(p)
		s.holderOff[p+1] = s.holderOff[p] + n
		s.ent = protocol.AppendFileEntry(s.ent, protocol.FileEntry{
			Hash: f.hash, Size: f.size, Name: f.name, Type: f.typ, Availability: uint32(n),
		})
		s.entOff[p+1] = uint32(len(s.ent))
	}
	s.holderEps = make([]protocol.Endpoint, len(holders))
	fill := make([]int32, published)
	for _, h := range holders {
		p := remap[h.fi]
		s.holderEps[s.holderOff[p]+fill[p]] = h.ep
		fill[p]++
	}
	for p := 0; p < published; p++ {
		span := s.holderEps[s.holderOff[p]:s.holderOff[p+1]]
		slices.SortFunc(span, func(a, b protocol.Endpoint) int {
			if a.IP != b.IP {
				if a.IP < b.IP {
					return -1
				}
				return 1
			}
			return int(a.Port) - int(b.Port)
		})
	}

	// Keyword index over published names. Files are visited in index
	// (= hash) order, so every posting comes out hash-sorted — the
	// gateway's reply order — without a sort.
	s.keyword = make(map[string][]int32)
	for p, name := range s.fileName {
		for _, tok := range protocol.NameTokens(name) {
			s.keyword[tok] = append(s.keyword[tok], int32(p))
		}
	}
	return s
}

// ForEachLogin replays the logins of day, the world's current day (the
// world keeps online flags for that day only): online clients log in
// in index order on (IP, ClientPort(i)). A
// non-firewalled client claims its endpoint; a later one on a claimed
// endpoint loses the address for the day (a NAT conflict) and does not
// log in. A firewalled client logs in low-ID unless an earlier client
// already listens on its endpoint, where the server's callback probe
// succeeds. yield sees every logged-in client with its endpoint, user
// hash and whether it probes reachable (gets a high ID). owner must be
// empty; it comes back mapping each claimed endpoint to its client.
func ForEachLogin(w *workload.World, day int, owner map[protocol.Endpoint]int32,
	yield func(i int, ep protocol.Endpoint, hash [16]byte, reachable bool)) {
	for i := 0; i < w.NumClients(); i++ {
		if !w.Online(i) {
			continue
		}
		ip, hash := w.IdentityAt(i, day)
		ep := protocol.Endpoint{IP: ip, Port: ClientPort(i)}
		_, claimed := owner[ep]
		if !w.Firewalled(i) {
			if claimed {
				continue // endpoint collision: off the network today
			}
			owner[ep] = int32(i)
			claimed = true
		}
		yield(i, ep, hash, claimed)
	}
}

// SnapshotFromWorld freezes the world's given day: the clients
// ForEachLogin logs in are the users, their caches the published index.
func SnapshotFromWorld(w *workload.World, day int) *Snapshot {
	users := make([]user, 0, w.OnlineCount())
	var holders []holder
	ForEachLogin(w, day, make(map[protocol.Endpoint]int32, w.OnlineCount()),
		func(i int, ep protocol.Endpoint, hash [16]byte, reachable bool) {
			id := uint32(1)
			if reachable {
				id = protocol.HighID(ep.IP)
			}
			users = append(users, user{nick: w.Nickname(i), hash: hash, ep: ep, id: id, idx: i})
			files, _ := w.CacheView(i)
			for _, fi := range files {
				holders = append(holders, holder{fi: fi, ep: ep})
			}
		})
	return build(users, w.NumFiles(), func(fi int) fileRow {
		return fileRow{
			hash: w.FileHash(fi),
			name: w.FileName(fi),
			size: uint64(w.FileSize(fi)),
			typ:  w.FileKind(fi).String(),
		}
	}, holders)
}

// SnapshotFromTrace freezes day index dayIdx (into tr.Days) of a
// captured trace: the peers observed that day are the logged-in users,
// their observed caches are the published index. Firewalled peers log
// in low-ID; everyone else gets the IP-derived high ID.
func SnapshotFromTrace(tr *trace.Trace, dayIdx int) *Snapshot {
	d := tr.Days[dayIdx]
	users := make([]user, 0, d.ObservedRows())
	var holders []holder
	d.ForEachRow(func(p trace.PeerID, row []trace.FileID) {
		ep := protocol.Endpoint{IP: tr.PeerIP(p), Port: ClientPort(int(p))}
		id := uint32(1)
		if !tr.PeerFirewalled(p) {
			id = protocol.HighID(ep.IP)
		}
		users = append(users, user{
			nick: tr.PeerNickname(p),
			hash: tr.PeerUserHash(p),
			ep:   ep,
			id:   id,
			idx:  int(p),
		})
		for _, fi := range row {
			holders = append(holders, holder{fi: int32(fi), ep: ep})
		}
	})
	return build(users, tr.NumFiles(), func(fi int) fileRow {
		f := trace.FileID(fi)
		return fileRow{
			hash: tr.FileHash(f),
			name: tr.FileName(f),
			size: uint64(tr.FileSize(f)),
			typ:  tr.FileKind(f).String(),
		}
	}, holders)
}
