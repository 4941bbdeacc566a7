package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// testWorld builds one small evolved world shared by every test in the
// package (construction dominates test time otherwise).
var testWorld = sync.OnceValue(func() *workload.World {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.Peers = 300
	cfg.Days = 3
	cfg.Topics = 12
	cfg.InitialFiles = 1500
	cfg.NewFilesPerDay = 15
	cfg.Workers = 1
	w, err := workload.New(cfg)
	if err != nil {
		panic(err)
	}
	w.Step() // serve day 1, so identities and caches have churned once
	return w
})

var testSnap = sync.OnceValue(func() *Snapshot {
	w := testWorld()
	return SnapshotFromWorld(w, w.Day())
})

// sortedKeywords returns the snapshot's indexed keywords in order.
func sortedKeywords(snap *Snapshot) []string {
	kws := make([]string, 0, len(snap.keyword))
	for k := range snap.keyword {
		kws = append(kws, k)
	}
	slices.Sort(kws)
	return kws
}

// probeInputs picks a source-query hash and a search keyword
// deterministically, so tests and benchmarks ask for the same replies
// on every run: the published file of median hash and the keyword of
// median posting length (ties broken by the keyword), both a typical
// reply size.
func probeInputs(snap *Snapshot) (hit [16]byte, kw string) {
	kws := sortedKeywords(snap)
	slices.SortStableFunc(kws, func(a, b string) int {
		return cmp.Compare(len(snap.keyword[a]), len(snap.keyword[b]))
	})
	return snap.fileHash[len(snap.fileHash)/2], kws[len(kws)/2]
}

// corpus returns a request mix covering every reply shape: empty and
// truncated user sweeps, hit and miss source/keyword queries, the
// server list, logins and requests the first tier rejects.
func corpus(t testing.TB) []protocol.Message {
	snap := testSnap()
	if snap.NumUsers() == 0 || snap.NumFiles() == 0 {
		t.Fatal("test snapshot is empty")
	}
	hit, kw := probeInputs(snap)
	var miss [16]byte
	miss[0] = 0xFF
	return []protocol.Message{
		&protocol.LoginRequest{UserHash: [16]byte{1}, Endpoint: protocol.Endpoint{IP: 0x0A000001, Port: 4662}, Nickname: "probe", Version: 60},
		&protocol.LoginRequest{UserHash: [16]byte{2}, Endpoint: protocol.Endpoint{IP: 0x00000042, Port: 4662}, Nickname: "lowip", Version: 60},
		&protocol.GetServerList{},
		&protocol.SearchUser{Query: ""}, // everyone: exercises the reply cap
		&protocol.SearchUser{Query: "a"},
		&protocol.SearchUser{Query: "zzzz_nobody"},
		&protocol.SearchRequest{Keyword: kw},
		&protocol.SearchRequest{Keyword: "no_such_keyword"},
		&protocol.GetSources{Hash: hit},
		&protocol.GetSources{Hash: miss},
		&protocol.AskSharedFiles{}, // not the first tier's: Reject
		&protocol.Hello{UserHash: [16]byte{3}},
	}
}

// TestAppendReplyMatchesHandle pins the hot-path renderer byte for byte
// against the reference Handle + WriteMessage pipeline, across the
// corpus, a small reply cap and the no-user-search server flavor.
func TestAppendReplyMatchesHandle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cap     int
		sweepOK bool
	}{
		{"cap=200", 200, true},
		{"cap=7", 7, true},
		{"nosweep", 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core := protocol.ServerCore{Dir: testSnap(), MaxUserReplies: tc.cap, SupportsUserSearch: tc.sweepOK}
			for _, req := range corpus(t) {
				ref, handled := core.Handle(req)
				got, gotHandled := core.AppendReply(nil, req)
				if gotHandled != handled {
					t.Fatalf("%T: handled %v, want %v", req, gotHandled, handled)
				}
				if !handled {
					if len(got) != 0 {
						t.Fatalf("%T: unhandled request appended %d bytes", req, len(got))
					}
					continue
				}
				var want bytes.Buffer
				if err := protocol.WriteMessage(&want, ref); err != nil {
					t.Fatalf("%T: reference encode: %v", req, err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%T: AppendReply differs from Handle+WriteMessage\n got %x\nwant %x", req, got, want.Bytes())
				}
			}
		})
	}
}

// TestSearchAppendMatchesReference pins the pre-encoded search path
// (Snapshot.AppendSearchResult via AppendReply) byte for byte against
// the reference SearchFiles + WriteMessage pipeline for every indexed
// keyword, an upper-case query and a miss, on a world snapshot and on a
// snapshot of a captured trace, and checks it allocates nothing once
// the reply buffer has grown.
func TestSearchAppendMatchesReference(t *testing.T) {
	tr, err := trace.ReadFile("../crawler/testdata/golden_crawl_s1.edt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"world", testSnap()},
		{"trace", SnapshotFromTrace(tr, len(tr.Days)-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap
			if snap.NumUsers() == 0 || snap.NumFiles() == 0 {
				t.Fatal("snapshot is empty")
			}
			core := protocol.ServerCore{Dir: snap, MaxUserReplies: 200, SupportsUserSearch: true}
			_, mid := probeInputs(snap)
			queries := append(sortedKeywords(snap), strings.ToUpper(mid), "no_such_keyword")
			t.Logf("%d users, %d files, %d queries", snap.NumUsers(), snap.NumFiles(), len(queries))
			var got []byte
			var want bytes.Buffer
			for _, kw := range queries {
				req := &protocol.SearchRequest{Keyword: kw}
				ref, _ := core.Handle(req)
				want.Reset()
				if err := protocol.WriteMessage(&want, ref); err != nil {
					t.Fatalf("%q: reference encode: %v", kw, err)
				}
				got, _ = core.AppendReply(got[:0], req)
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%q: AppendReply differs from Handle+WriteMessage (%d vs %d bytes)", kw, len(got), want.Len())
				}
				hits := len(ref.(*protocol.SearchResult).Files)
				if kw == "no_such_keyword" {
					if hits != 0 {
						t.Fatalf("miss query found %d files", hits)
					}
				} else if hits == 0 {
					t.Fatalf("%q found nothing", kw)
				}
			}

			got = slices.Grow(got[:0], 1<<20)
			req := &protocol.SearchRequest{Keyword: mid}
			if allocs := testing.AllocsPerRun(20, func() { got, _ = core.AppendReply(got[:0], req) }); allocs != 0 {
				t.Fatalf("search AppendReply allocates %.1f times per reply", allocs)
			}
		})
	}
}

// TestRetainScratch pins the read-scratch policy: buffers up to the
// threshold are reused, a larger one is dropped.
func TestRetainScratch(t *testing.T) {
	small := make([]byte, 1, 512)
	if got := retainScratch(small); len(got) != 1 || &got[0] != &small[0] {
		t.Fatal("small scratch not retained")
	}
	edge := make([]byte, maxRetainedScratch)
	if got := retainScratch(edge); cap(got) != maxRetainedScratch {
		t.Fatal("threshold-sized scratch not retained")
	}
	if got := retainScratch(make([]byte, maxRetainedScratch+1)); got != nil {
		t.Fatalf("oversized scratch retained (cap %d)", cap(got))
	}
}

// readFrame reads one raw reply frame (header + payload).
func readFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	frame := make([]byte, 5+size)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[5:]); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return frame
}

// replyStream sends the corpus over conn and concatenates the raw reply
// frames (OfferFiles elicits none).
func replyStream(t *testing.T, conn net.Conn, reqs []protocol.Message) []byte {
	t.Helper()
	var out []byte
	for _, req := range reqs {
		if err := protocol.WriteMessage(conn, req); err != nil {
			t.Fatalf("write %T: %v", req, err)
		}
		if _, fire := req.(*protocol.OfferFiles); fire {
			continue
		}
		out = append(out, readFrame(t, conn)...)
	}
	return out
}

// expectedStream renders the replies the server owes reqs independently
// of its request loop: the reference Handle + WriteMessage for core
// requests, the high-ID IDChange for logins, the Reject for requests the
// core does not handle, and nothing for publications.
func expectedStream(t *testing.T, snap *Snapshot, reqs []protocol.Message) []byte {
	t.Helper()
	core := protocol.ServerCore{Dir: snap, MaxUserReplies: edonkey.DefaultMaxUserReplies, SupportsUserSearch: true}
	var out bytes.Buffer
	for _, req := range reqs {
		var reply protocol.Message
		switch req := req.(type) {
		case *protocol.OfferFiles:
			continue
		case *protocol.LoginRequest:
			reply = &protocol.IDChange{ClientID: protocol.HighID(req.Endpoint.IP)}
		default:
			var handled bool
			if reply, handled = core.Handle(req); !handled {
				reply = &protocol.Reject{Reason: "unsupported request"}
			}
		}
		if err := protocol.WriteMessage(&out, reply); err != nil {
			t.Fatalf("%T: reference encode: %v", req, err)
		}
	}
	return out.Bytes()
}

// TestPipeAndTCPRepliesByteIdentical drives the same request sequence
// through both serving surfaces — the in-process pipe path and a real
// TCP connection — and requires each reply byte stream to equal the
// independently rendered expectedStream.
func TestPipeAndTCPRepliesByteIdentical(t *testing.T) {
	reqs := append(corpus(t), &protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "x.mp3", Size: 1}}}, &protocol.SearchUser{Query: "b"})
	want := expectedStream(t, testSnap(), reqs)
	if len(want) == 0 {
		t.Fatal("empty expected stream")
	}
	srv := New(testSnap(), Config{})

	pc, ps := net.Pipe()
	go srv.ServeConn(ps)
	pc.SetDeadline(time.Now().Add(30 * time.Second))
	if got := replyStream(t, pc, reqs); !bytes.Equal(got, want) {
		t.Fatalf("pipe reply stream differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	pc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	tc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc.SetDeadline(time.Now().Add(30 * time.Second))
	if got := replyStream(t, tc, reqs); !bytes.Equal(got, want) {
		t.Fatalf("tcp reply stream differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
}

// TestServeStress runs 256 concurrent TCP sessions of mixed traffic
// (login, sweeps, searches, sources, publishes, rejected requests),
// validates every reply's shape, then drains the server and checks no
// goroutines leak.
func TestServeStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	snap := testSnap()
	someHash, _ := probeInputs(snap)
	srv := New(snap, Config{MaxConns: 512})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const sessions = 256
	const perSession = 24
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errc <- session(ln.Addr().String(), s, perSession, someHash)
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	st := srv.Stats()
	if st.Active != 0 {
		t.Fatalf("still %d active connections after drain", st.Active)
	}
	wantQueries := uint64(sessions * (perSession + 2)) // +login and final exchange
	if st.Queries < wantQueries {
		t.Fatalf("served %d queries, want >= %d", st.Queries, wantQueries)
	}

	// All per-connection goroutines must be gone; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// session runs one stress connection: login first, then a mixed
// request sequence with reply-shape validation.
func session(addr string, id, n int, someHash [16]byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	login := &protocol.LoginRequest{
		Endpoint: protocol.Endpoint{IP: uint32(0x0B000000 + id), Port: 4662},
		Nickname: fmt.Sprintf("stress_%03d", id),
		Version:  60,
	}
	if err := protocol.WriteMessage(conn, login); err != nil {
		return err
	}
	reply, err := protocol.ReadMessage(conn)
	if err != nil {
		return err
	}
	idc, ok := reply.(*protocol.IDChange)
	if !ok {
		return fmt.Errorf("session %d: login got %T", id, reply)
	}
	if idc.ClientID < protocol.LowIDThreshold {
		return fmt.Errorf("session %d: got low ID %d for reachable IP", id, idc.ClientID)
	}
	rng := rand.New(rand.NewPCG(uint64(id), 99))
	for k := 0; k < n; k++ {
		var req protocol.Message
		var want string
		switch rng.IntN(5) {
		case 0:
			req, want = &protocol.SearchUser{Query: string(rune('a' + rng.IntN(26)))}, "*protocol.SearchUserResult"
		case 1:
			req, want = &protocol.SearchRequest{Keyword: "horizon"}, "*protocol.SearchResult"
		case 2:
			req, want = &protocol.GetSources{Hash: someHash}, "*protocol.FoundSources"
		case 3:
			req, want = &protocol.OfferFiles{Files: []protocol.FileEntry{{Name: "up.mp3", Size: 42}}}, ""
		default:
			req, want = &protocol.AskSharedFiles{}, "*protocol.Reject"
		}
		if err := protocol.WriteMessage(conn, req); err != nil {
			return fmt.Errorf("session %d req %d: %v", id, k, err)
		}
		if want == "" {
			continue // fire-and-forget publish
		}
		reply, err := protocol.ReadMessage(conn)
		if err != nil {
			return fmt.Errorf("session %d req %d: %v", id, k, err)
		}
		if got := fmt.Sprintf("%T", reply); got != want {
			return fmt.Errorf("session %d req %d (%T): got %s, want %s", id, k, req, got, want)
		}
	}
	// A final synchronous exchange: its reply proves every prior
	// fire-and-forget publish on this connection was processed too, so
	// the caller's query accounting is exact.
	if err := protocol.WriteMessage(conn, &protocol.GetServerList{}); err != nil {
		return err
	}
	if reply, err = protocol.ReadMessage(conn); err != nil {
		return err
	}
	if _, ok := reply.(*protocol.ServerList); !ok {
		return fmt.Errorf("session %d: final exchange got %T", id, reply)
	}
	return nil
}

// TestSnapshotDirectory pins the snapshot's directory semantics: sweep
// order and cap, source ordering, streamer/slice agreement and keyword
// availability.
func TestSnapshotDirectory(t *testing.T) {
	snap := testSnap()

	// Sweep enumerates in nickname order and respects early stop.
	var nicks []string
	snap.UsersWithPrefix("", func(u protocol.UserEntry) bool {
		nicks = append(nicks, u.Nickname)
		return len(nicks) < 10
	})
	if len(nicks) != 10 {
		t.Fatalf("early-stopped sweep returned %d entries", len(nicks))
	}
	for i := 1; i < len(nicks); i++ {
		if nicks[i-1] >= nicks[i] {
			t.Fatalf("sweep out of order: %q before %q", nicks[i-1], nicks[i])
		}
	}

	// Prefix filtering matches string prefixes exactly.
	prefix := nicks[0][:2]
	snap.UsersWithPrefix(prefix, func(u protocol.UserEntry) bool {
		if u.Nickname[:2] != prefix {
			t.Fatalf("prefix %q sweep yielded %q", prefix, u.Nickname)
		}
		return true
	})

	// Every published file: SourcesOf agrees with ForEachSource, spans
	// are (IP, port)-sorted and availability matches the span length.
	for hash, fi := range snap.byHash {
		viaSlice := snap.SourcesOf(hash)
		var viaStream []protocol.Endpoint
		snap.ForEachSource(hash, func(ep protocol.Endpoint) bool {
			viaStream = append(viaStream, ep)
			return true
		})
		if len(viaSlice) != len(viaStream) {
			t.Fatalf("file %x: slice %d vs stream %d sources", hash[:4], len(viaSlice), len(viaStream))
		}
		for i := range viaSlice {
			if viaSlice[i] != viaStream[i] {
				t.Fatalf("file %x: source %d differs", hash[:4], i)
			}
		}
		if int(snap.avail[fi]) != len(viaSlice) {
			t.Fatalf("file %x: availability %d, %d sources", hash[:4], snap.avail[fi], len(viaSlice))
		}
		for i := 1; i < len(viaSlice); i++ {
			a, b := viaSlice[i-1], viaSlice[i]
			if a.IP > b.IP || (a.IP == b.IP && a.Port > b.Port) {
				t.Fatalf("file %x: sources out of order", hash[:4])
			}
		}
	}

	// Keyword search returns hash-sorted entries that all contain the
	// token and carry the indexed availability.
	for kw := range snap.keyword {
		files := snap.SearchFiles(kw)
		if len(files) == 0 {
			t.Fatalf("indexed keyword %q found nothing", kw)
		}
		for i, f := range files {
			if i > 0 && bytes.Compare(files[i-1].Hash[:], f.Hash[:]) >= 0 {
				t.Fatalf("keyword %q: results not hash-sorted", kw)
			}
			if f.Availability == 0 {
				t.Fatalf("keyword %q: zero availability for %q", kw, f.Name)
			}
		}
		break // one keyword suffices; the loop body is O(files)
	}
}

// TestSnapshotEpochSwap checks SetSnapshot publishes a new epoch to new
// requests without disturbing the server.
func TestSnapshotEpochSwap(t *testing.T) {
	w := testWorld()
	srv := New(testSnap(), Config{})
	pc, ps := net.Pipe()
	go srv.ServeConn(ps)
	defer pc.Close()
	pc.SetDeadline(time.Now().Add(30 * time.Second))

	before := replyStream(t, pc, []protocol.Message{&protocol.SearchUser{Query: ""}})
	empty := build(nil, 0, nil, nil) // an epoch with nobody logged in
	srv.SetSnapshot(empty)
	after := replyStream(t, pc, []protocol.Message{&protocol.SearchUser{Query: ""}})
	if bytes.Equal(before, after) {
		t.Fatal("epoch swap did not change replies")
	}
	var wantEmpty bytes.Buffer
	if err := protocol.WriteMessage(&wantEmpty, &protocol.SearchUserResult{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, wantEmpty.Bytes()) {
		t.Fatalf("post-swap sweep: got %x, want empty result", after)
	}
	_ = w
}
