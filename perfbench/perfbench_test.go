package main

import (
	"net"
	"sync"
	"testing"
	"time"

	"edonkey/internal/loadgen"
	"edonkey/internal/serve"
	"edonkey/internal/workload"
)

// smallStream builds a stream over a tiny world, so tests get a real
// snapshot and oracle in milliseconds.
func smallStream(t *testing.T, n int) *stream {
	t.Helper()
	w := workload.DefaultConfig()
	w.Seed, w.Peers, w.Days = 3, 400, 1
	w.Topics, w.InitialFiles, w.NewFilesPerDay = 20, 12000, 120
	st, err := buildStream(w, 7, loadgen.DefaultMix(), n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// faultConn corrupts or cuts the byte stream the client reads: the byte
// at offset flip (if >= 0) is inverted, and the stream ends with EOF
// after cut bytes (if >= 0).
type faultConn struct {
	net.Conn
	mu        sync.Mutex
	off       int64
	flip, cut int64
}

func (f *faultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cut >= 0 {
		if f.off >= f.cut {
			f.Conn.Close()
			return 0, net.ErrClosed
		}
		p = p[:min(int64(len(p)), f.cut-f.off)]
	}
	n, err := f.Conn.Read(p)
	if f.flip >= f.off && f.flip < f.off+int64(n) {
		p[f.flip-f.off] ^= 0xFF
	}
	f.off += int64(n)
	return n, err
}

// runFaulty drives st through the real serve.Server request loop over
// in-process pipes, with connection 0's reads passed through a
// faultConn, and returns how many requests failed.
func runFaulty(t *testing.T, st *stream, flip, cut int64) int {
	t.Helper()
	srv := serve.New(st.snap, serve.Config{})
	var wg sync.WaitGroup
	conns := make([]net.Conn, serveConns)
	for i := range conns {
		client, server := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(server)
		}()
		conns[i] = client
		if i == 0 {
			conns[i] = &faultConn{Conn: client, flip: flip, cut: cut}
		}
	}
	l := &openLoop{conns: conns, frames: st.frames, want: st.want, reqs: st.reqs, rate: 20000}
	l.run(0, nil)
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	failed := 0
	for k := range st.reqs {
		if !l.ok[k] {
			failed++
		}
	}
	return failed
}

// replyOffset is where the reply to connection 0's j-th request starts
// in that connection's byte stream.
func replyOffset(st *stream, j int) int64 {
	off := int64(0)
	for k := 0; k < j*serveConns; k += serveConns {
		off += int64(len(st.want[st.reqs[k]]))
	}
	return off
}

func TestOpenLoopCountsFaultyReplies(t *testing.T) {
	st := smallStream(t, 400)
	if got := runFaulty(t, st, -1, -1); got != 0 {
		t.Fatalf("clean run: %d failed, want 0", got)
	}
	// A flipped byte inside the 10th reply's body fails exactly it.
	if got := runFaulty(t, st, replyOffset(st, 10)+7, -1); got != 1 {
		t.Fatalf("corrupted reply: %d failed, want 1", got)
	}
	// A stream cut in the middle of the 50th reply fails it and every
	// later request on that connection.
	perConn := (len(st.reqs) + serveConns - 1) / serveConns
	cut := replyOffset(st, 50) + 3
	if got, want := runFaulty(t, st, -1, cut), perConn-50; got != want {
		t.Fatalf("truncated reply: %d failed, want %d", got, want)
	}
}

func TestReplayMatchesOracle(t *testing.T) {
	st := smallStream(t, 2000)
	tr := newTracer()
	bytes, bad := replay(st, st.reqs, tr)
	if bad != 0 || bytes == 0 {
		t.Fatalf("replay: %d mismatches, %d bytes", bad, bytes)
	}
	lt := tr.layerTimes(0)
	if lt["request"].count != len(st.reqs) || lt["serve.lookup"].count == 0 {
		t.Fatalf("unexpected span counts: %+v", lt)
	}
	if enc := lt["protocol.AppendReply"]; enc.self > enc.total || enc.self <= 0 {
		t.Fatalf("AppendReply self time %v outside (0, %v]", enc.self, enc.total)
	}
}

func TestLayerTimesSelf(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("root", 0, -1, t0, t0.Add(10*time.Millisecond))
	tr.add("child", 0, root, t0.Add(time.Millisecond), t0.Add(4*time.Millisecond))
	tr.add("child", 0, root, t0.Add(5*time.Millisecond), t0.Add(6*time.Millisecond))
	lt := tr.layerTimes(0)
	if got := lt["root"].self; got != 6*time.Millisecond {
		t.Fatalf("root self = %v, want 6ms", got)
	}
	if got := lt["child"]; got.total != 4*time.Millisecond || got.count != 2 {
		t.Fatalf("child = %+v, want 4ms over 2 spans", got)
	}
}

// TestPipelineDigestAcrossWorkers pins the suite digest equal between a
// serial and a two-worker pipeline at a tiny size.
func TestPipelineDigestAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the crawl→figures pipeline twice")
	}
	var digests []string
	for _, workers := range []int{1, 2} {
		cfg := pipelineConfig{seed: 5, peers: 300, days: 5, workers: workers, crawls: 1, analyses: 1, builds: 1}
		r, err := runPipeline(cfg, t.TempDir()+"/p.edt", true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkPipeline(cfg, r, pipelineRun{}); msg != "" {
			t.Fatalf("workers=%d: %s", workers, msg)
		}
		digests = append(digests, r.digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("suite digest differs: workers=1 %s, workers=2 %s", digests[0], digests[1])
	}
}
