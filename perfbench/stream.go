package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"

	"edonkey/internal/edonkey"
	"edonkey/internal/loadgen"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/workload"
)

// The served world: day 0 of a 20k-peer population, built by edserved
// from these flags and by the oracle in-process from the same config.
const (
	servePeers     = 20000
	serveWorldSeed = 1
	serveDay       = 0
	loginPool      = 256
	rejectReason   = "unsupported request" // serve.Server's answer to requests it does not own
)

// serveWorldConfig mirrors edserved's synthetic-world configuration.
func serveWorldConfig() workload.Config {
	w := workload.DefaultConfig()
	w.Seed = serveWorldSeed
	w.Peers = servePeers
	w.Days = serveDay + 1
	w.Topics = max(8, servePeers/20)
	w.InitialFiles = 30 * servePeers
	w.NewFilesPerDay = max(1, w.InitialFiles/100)
	return w
}

// stream is a seeded request sequence plus its oracle: every distinct
// request framed once, with the exact reply bytes the server must send.
// reqs indexes frames/want, so the load client sends and checks by
// index without encoding or decoding anything.
type stream struct {
	snap   *serve.Snapshot
	frames [][]byte
	want   [][]byte
	class  []loadgen.Class
	reqs   []int32
}

// oracleBuilder deduplicates requests while the stream is drawn.
type oracleBuilder struct {
	s       *stream
	users   map[string]int32
	search  map[string]int32
	sources map[[16]byte]int32
}

// add frames req, renders the expected reply and returns its index.
func (b *oracleBuilder) add(c loadgen.Class, req, reply protocol.Message) (int32, error) {
	frame, err := protocol.AppendMessage(nil, req)
	if err != nil {
		return 0, err
	}
	want, err := protocol.AppendMessage(nil, reply)
	if err != nil {
		return 0, err
	}
	b.s.frames = append(b.s.frames, frame)
	b.s.want = append(b.s.want, want)
	b.s.class = append(b.s.class, c)
	return int32(len(b.s.frames) - 1), nil
}

// highID is the client ID the server assigns a reachable login.
func highID(ip uint32) uint32 {
	if ip < protocol.LowIDThreshold {
		return ip + protocol.LowIDThreshold
	}
	return ip
}

// buildStream builds the served world in-process, freezes the same
// snapshot edserved serves from it, and draws n requests from the mix. Expected
// replies come from the snapshot's directory methods and
// protocol.AppendMessage — never from ServerCore.AppendReply, the path
// under test. Sources queries draw a random holder posting of the whole
// published index, so popular files are asked for more often.
func buildStream(wcfg workload.Config, seed uint64, mix loadgen.Mix, n int) (*stream, error) {
	w, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	st := &stream{snap: serve.SnapshotFromWorld(w, serveDay)}
	var postings []int32
	for i := 0; i < w.NumClients(); i++ {
		if w.Online(i) {
			files, _ := w.CacheView(i)
			postings = append(postings, files...)
		}
	}
	if len(postings) == 0 {
		return nil, fmt.Errorf("served world has no published files")
	}
	b := &oracleBuilder{
		s: st, users: map[string]int32{}, search: map[string]int32{}, sources: map[[16]byte]int32{},
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))

	logins := make([]int32, loginPool)
	for i := range logins {
		var hash [16]byte
		binary.LittleEndian.PutUint64(hash[:], rng.Uint64())
		binary.LittleEndian.PutUint64(hash[8:], rng.Uint64())
		req := &protocol.LoginRequest{
			UserHash: hash,
			Endpoint: protocol.Endpoint{IP: rng.Uint32(), Port: uint16(4000 + i)},
			Nickname: fmt.Sprintf("bench_%03d", i),
			Version:  60,
		}
		if logins[i], err = b.add(loadgen.ClassLogin, req, &protocol.IDChange{ClientID: highID(req.Endpoint.IP)}); err != nil {
			return nil, err
		}
	}
	browse, err := b.add(loadgen.ClassBrowse, &protocol.AskSharedFiles{}, &protocol.Reject{Reason: rejectReason})
	if err != nil {
		return nil, err
	}
	keywords := workload.NameWords()
	const letters = "abcdefghijklmnopqrstuvwxyz"

	total := 0.0
	for _, wt := range mix {
		total += wt
	}
	st.reqs = make([]int32, n)
	for k := range st.reqs {
		var idx int32
		switch drawClass(mix, total, rng) {
		case loadgen.ClassLogin:
			idx = logins[rng.IntN(len(logins))]
		case loadgen.ClassUsers:
			q := string(letters[rng.IntN(len(letters))])
			if rng.IntN(2) == 0 {
				q += string(letters[rng.IntN(len(letters))])
			}
			idx, err = b.userQuery(q)
		case loadgen.ClassSearch:
			idx, err = b.searchQuery(keywords[rng.IntN(len(keywords))])
		case loadgen.ClassSources:
			idx, err = b.sourcesQuery(w.FileHash(int(postings[rng.IntN(len(postings))])))
		default:
			idx = browse
		}
		if err != nil {
			return nil, err
		}
		st.reqs[k] = idx
	}
	return st, nil
}

func drawClass(mix loadgen.Mix, total float64, rng *rand.Rand) loadgen.Class {
	x := rng.Float64() * total
	for c := range mix {
		if x -= mix[c]; x < 0 {
			return loadgen.Class(c)
		}
	}
	return loadgen.ClassBrowse
}

// userQuery, searchQuery and sourcesQuery return the index of a request,
// adding it with its expected reply the first time it is drawn.
func (b *oracleBuilder) userQuery(q string) (int32, error) {
	if idx, ok := b.users[q]; ok {
		return idx, nil
	}
	res := &protocol.SearchUserResult{}
	b.s.snap.UsersWithPrefix(strings.ToLower(q), func(u protocol.UserEntry) bool {
		if len(res.Users) >= edonkey.DefaultMaxUserReplies {
			return false
		}
		res.Users = append(res.Users, u)
		return true
	})
	idx, err := b.add(loadgen.ClassUsers, &protocol.SearchUser{Query: q}, res)
	b.users[q] = idx
	return idx, err
}

func (b *oracleBuilder) searchQuery(kw string) (int32, error) {
	if idx, ok := b.search[kw]; ok {
		return idx, nil
	}
	res := &protocol.SearchResult{Files: b.s.snap.SearchFiles(strings.ToLower(kw))}
	idx, err := b.add(loadgen.ClassSearch, &protocol.SearchRequest{Keyword: kw}, res)
	b.search[kw] = idx
	return idx, err
}

func (b *oracleBuilder) sourcesQuery(hash [16]byte) (int32, error) {
	if idx, ok := b.sources[hash]; ok {
		return idx, nil
	}
	res := &protocol.FoundSources{Hash: hash, Sources: b.s.snap.SourcesOf(hash)}
	idx, err := b.add(loadgen.ClassSources, &protocol.GetSources{Hash: hash}, res)
	b.sources[hash] = idx
	return idx, err
}
