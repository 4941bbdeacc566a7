// Server-side request engine. The measurement artefacts the paper's
// methodology hinges on — the 200-user reply cap on nickname queries,
// the reject semantics of removed features, the high-ID rule and the
// keyword tokenizer — live at the protocol layer, so they are
// implemented here once and shared by every server implementation: the
// serving snapshot and the crawl gateway (internal/serve owns the world
// rules; the gateway in internal/crawler reuses its login replay and
// publish index) and the boxed in-memory server (internal/edonkey, fed
// by wire publications). ServerCore.Handle is the reference renderer;
// AppendReply is the hot path, pinned byte-identical to it.
package protocol

import (
	"encoding/binary"
	"slices"
	"strings"
)

// NameTokens splits a file name into its lowercased keyword tokens, each
// once: the keywords a server indexes the file under.
func NameTokens(name string) []string {
	toks := strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		switch r {
		case '_', '.', '-', ' ', '(', ')', '[', ']':
			return true
		}
		return false
	})
	out := toks[:0]
	for _, t := range toks {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// Directory is the index a first-tier server consults to answer queries.
// Implementations define their own enumeration order for UsersWithPrefix;
// a deterministic directory makes the served crawl deterministic even
// when replies truncate at the cap.
type Directory interface {
	// Servers returns the known-server list in reply order.
	Servers() []Endpoint
	// UsersWithPrefix visits the logged-in users whose nickname starts
	// with the (lowercased) prefix, in the directory's enumeration order,
	// stopping early when yield returns false.
	UsersWithPrefix(prefix string, yield func(UserEntry) bool)
	// SourcesOf returns the endpoints currently offering the file, in
	// reply order.
	SourcesOf(hash [16]byte) []Endpoint
	// SearchFiles returns the published entries matching a keyword
	// token, in reply order, with Availability filled in.
	SearchFiles(keyword string) []FileEntry
}

// ServerCore turns server-bound request messages into replies using a
// Directory. It enforces the measured server behaviours: the reply cap
// on user searches and the "query-users not implemented" reject of newer
// servers. Login and publication are session state and stay with the
// host; everything else routes through Handle.
type ServerCore struct {
	Dir Directory
	// MaxUserReplies caps SearchUser replies (the paper measured 200).
	MaxUserReplies int
	// SupportsUserSearch mirrors the paper's observation that newer
	// servers removed the query-users feature; when false, SearchUser
	// gets a Reject.
	SupportsUserSearch bool
}

// Handle answers one request. It returns handled=false for messages the
// core does not own (login, publications, client-client traffic).
func (s *ServerCore) Handle(m Message) (reply Message, handled bool) {
	switch req := m.(type) {
	case *GetServerList:
		return &ServerList{Servers: s.Dir.Servers()}, true
	case *SearchUser:
		return s.searchUser(req), true
	case *GetSources:
		return &FoundSources{Hash: req.Hash, Sources: s.Dir.SourcesOf(req.Hash)}, true
	case *SearchRequest:
		return &SearchResult{Files: s.Dir.SearchFiles(strings.ToLower(req.Keyword))}, true
	}
	return nil, false
}

func (s *ServerCore) searchUser(req *SearchUser) Message {
	if !s.SupportsUserSearch {
		return &Reject{Reason: "query-users not implemented"}
	}
	out := &SearchUserResult{}
	q := strings.ToLower(req.Query)
	s.Dir.UsersWithPrefix(q, func(u UserEntry) bool {
		if len(out.Users) >= s.MaxUserReplies {
			return false
		}
		out.Users = append(out.Users, u)
		return true
	})
	return out
}

// SourceStreamer is an optional Directory extension: directories that
// can enumerate a file's sources without materializing an endpoint slice
// let AppendReply render FoundSources straight into the frame buffer.
type SourceStreamer interface {
	// ForEachSource visits the endpoints currently offering the file, in
	// the same order SourcesOf would return them, stopping early when
	// yield returns false.
	ForEachSource(hash [16]byte, yield func(Endpoint) bool)
}

// SearchAppender is an optional Directory extension: directories that
// hold their catalogue pre-encoded let AppendReply render SearchResult
// by copying entry bytes instead of materializing and re-encoding a
// FileEntry slice.
type SearchAppender interface {
	// AppendSearchResult appends the SearchResult payload for the
	// (lowercased) keyword to dst — the entry count, then the entries —
	// byte-identical to encoding SearchFiles(keyword).
	AppendSearchResult(dst []byte, keyword string) []byte
}

// AppendReply answers one request by appending the complete reply frame
// to dst, returning the extended slice. It is the serving hot path's
// equivalent of Handle + WriteMessage — byte-identical output — but the
// reply-cap paths never materialize intermediate slices or Message
// values: SearchUserResult entries (the 200-cap nickname sweep reply)
// and, when the directory implements SourceStreamer or SearchAppender,
// FoundSources endpoints and SearchResult entries are rendered directly
// into the frame while the size field (and a streamed count) is patched
// afterwards. handled=false mirrors Handle: the request is not the
// core's to answer, and dst is returned unchanged.
func (s *ServerCore) AppendReply(dst []byte, m Message) (out []byte, handled bool) {
	switch req := m.(type) {
	case *GetServerList:
		out, _ = AppendMessage(dst, &ServerList{Servers: s.Dir.Servers()})
		return out, true
	case *SearchUser:
		return s.appendSearchUser(dst, req), true
	case *GetSources:
		return s.appendSources(dst, req), true
	case *SearchRequest:
		return s.appendSearch(dst, req), true
	}
	return dst, false
}

func (s *ServerCore) appendSearch(dst []byte, req *SearchRequest) []byte {
	kw := strings.ToLower(req.Keyword)
	app, ok := s.Dir.(SearchAppender)
	if !ok {
		dst, _ = AppendMessage(dst, &SearchResult{Files: s.Dir.SearchFiles(kw)})
		return dst
	}
	start := len(dst)
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, OpSearchResult)
	// An oversized reply is dropped, as AppendMessage drops it.
	dst, _ = endFrame(app.AppendSearchResult(dst, kw), start)
	return dst
}

// beginCountedFrame appends a frame header, opcode and placeholder
// element count, returning the patch offsets.
func beginCountedFrame(dst []byte, opcode byte) (out []byte, sizeAt, countAt int) {
	sizeAt = len(dst) + 1
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, opcode)
	countAt = len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, sizeAt, countAt
}

// endCountedFrame patches the payload size and element count in place.
func endCountedFrame(dst []byte, sizeAt, countAt int, count uint32) []byte {
	binary.LittleEndian.PutUint32(dst[sizeAt:], uint32(len(dst)-sizeAt-4))
	binary.LittleEndian.PutUint32(dst[countAt:], count)
	return dst
}

func (s *ServerCore) appendSearchUser(dst []byte, req *SearchUser) []byte {
	if !s.SupportsUserSearch {
		dst, _ = AppendMessage(dst, &Reject{Reason: "query-users not implemented"})
		return dst
	}
	dst, sizeAt, countAt := beginCountedFrame(dst, OpSearchUserResult)
	n := 0
	s.Dir.UsersWithPrefix(strings.ToLower(req.Query), func(u UserEntry) bool {
		if n >= s.MaxUserReplies {
			return false
		}
		dst = appendUserEntry(dst, u)
		n++
		return true
	})
	return endCountedFrame(dst, sizeAt, countAt, uint32(n))
}

func (s *ServerCore) appendSources(dst []byte, req *GetSources) []byte {
	str, ok := s.Dir.(SourceStreamer)
	if !ok {
		dst, _ = AppendMessage(dst, &FoundSources{Hash: req.Hash, Sources: s.Dir.SourcesOf(req.Hash)})
		return dst
	}
	sizeAt := len(dst) + 1
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, OpFoundSources)
	dst = append(dst, req.Hash[:]...)
	countAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	n := uint32(0)
	str.ForEachSource(req.Hash, func(e Endpoint) bool {
		dst = appendEndpoint(dst, e)
		n++
		return true
	})
	return endCountedFrame(dst, sizeAt, countAt, n)
}
